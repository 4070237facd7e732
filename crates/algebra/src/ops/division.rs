//! The division operators: small divide (`÷`) and great divide (`÷*`).
//!
//! Each operator is provided in two flavours:
//!
//! * a straightforward *reference* implementation used as the default
//!   ([`Relation::divide`], [`Relation::great_divide`]), based on grouping the
//!   dividend and testing set containment per group, and
//! * literal transcriptions of every published definition the paper cites —
//!   Codd (Definition 1), Healy (Definition 2) and Maier (Definition 3) for the
//!   small divide; set-containment division (Definition 4), Demolombe's
//!   generalized division (Definition 5) and Todd's great divide
//!   (Definition 6) for the great divide.
//!
//! Theorem 1 of the paper states that the three great-divide definitions are
//! equivalent; the property tests in `tests/theorems.rs` check exactly that on
//! randomly generated relations, and the unit tests below check it on the
//! paper's figures.
//!
//! ## Attribute-set conventions
//!
//! Following Section 2, the attribute sets are derived from the schemas
//! ([`Schema::divide_partition`], [`Schema::great_divide_partition`]):
//! for `r1 ÷ r2` the divisor attributes `B` are **all** attributes of `r2`
//! (which must all occur in `r1`), and the quotient attributes are
//! `A = R1 − B`. For `r1 ÷* r2` the shared attributes are
//! `B = R1 ∩ R2`, the quotient keeps `A = R1 − B` from the dividend and
//! `C = R2 − B` from the divisor. `A` and `B` must be nonempty; an empty `C`
//! makes the great divide degenerate to the small divide, exactly as Darwen and
//! Date observe.
//!
//! ## Empty divisors
//!
//! With an empty divisor, `r2 ⊆ i_{r1}(t)` holds vacuously for every dividend
//! tuple, so `r1 ÷ ∅ = π_A(r1)`; all three small-divide definitions agree on
//! this (for Maier's intersection over an empty index set we adopt this as the
//! convention). An empty great-divide divisor has no groups and therefore
//! yields an empty quotient.

use crate::{Relation, Result, Schema, Tuple};
use std::collections::BTreeSet;

impl Relation {
    // ------------------------------------------------------------------
    // Small divide
    // ------------------------------------------------------------------

    /// Small divide `self ÷ divisor` (reference implementation).
    ///
    /// Groups the dividend on `A` and keeps the groups whose `B`-projection is
    /// a superset of the divisor.
    ///
    /// ```
    /// use div_algebra::relation;
    /// let r1 = relation! { ["a", "b"] => [1, 1], [1, 4], [2, 1], [2, 3] };
    /// let r2 = relation! { ["b"] => [1], [3] };
    /// assert_eq!(r1.divide(&r2).unwrap(), relation! { ["a"] => [2] });
    /// ```
    pub fn divide(&self, divisor: &Relation) -> Result<Relation> {
        let attrs = self.schema().divide_partition(divisor.schema())?;
        let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
        let b_refs: Vec<&str> = attrs.shared.iter().map(String::as_str).collect();
        let a_idx = self.schema().projection_indices(&a_refs)?;
        let b_idx = self.schema().projection_indices(&b_refs)?;
        // The divisor's B-values in the dividend's B attribute order.
        let divisor_set: BTreeSet<Tuple> = divisor
            .conform_to(&Schema::new(b_refs.iter().copied())?)?
            .tuples()
            .cloned()
            .collect();

        let mut out = Relation::empty(attrs.output());
        for (key, members) in self.group_by_indices(&a_idx) {
            let b_values: BTreeSet<Tuple> = members.iter().map(|t| t.project(&b_idx)).collect();
            if divisor_set.is_subset(&b_values) {
                out.insert(key)?;
            }
        }
        Ok(out)
    }

    /// Small divide following Codd's tuple-calculus Definition 1:
    /// `{t | t = t1.A ∧ t1 ∈ r1 ∧ r2 ⊆ i_{r1}(t)}`.
    pub fn divide_codd(&self, divisor: &Relation) -> Result<Relation> {
        let attrs = self.schema().divide_partition(divisor.schema())?;
        let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
        let b_refs: Vec<&str> = attrs.shared.iter().map(String::as_str).collect();
        let a_idx = self.schema().projection_indices(&a_refs)?;
        let b_idx = self.schema().projection_indices(&b_refs)?;
        let divisor_set: BTreeSet<Tuple> = divisor
            .conform_to(&Schema::new(b_refs.iter().copied())?)?
            .tuples()
            .cloned()
            .collect();

        let mut out = Relation::empty(attrs.output());
        for t1 in self.tuples() {
            let key = t1.project(&a_idx);
            let image = self.image_set(&a_idx, &b_idx, &key);
            if divisor_set.is_subset(&image) {
                out.insert(key)?;
            }
        }
        Ok(out)
    }

    /// Small divide following Healy's algebraic Definition 2:
    /// `π_A(r1) − π_A((π_A(r1) × r2) − r1)`.
    pub fn divide_healy(&self, divisor: &Relation) -> Result<Relation> {
        let attrs = self.schema().divide_partition(divisor.schema())?;
        let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
        let candidates = self.project(&a_refs)?;
        // (π_A(r1) × r2) has schema A ∪ B; conform `self` to that layout for
        // the difference.
        let all_pairs = candidates.product(divisor)?;
        let missing = all_pairs.difference(&self.conform_to(all_pairs.schema())?)?;
        let disqualified = missing.project(&a_refs)?;
        candidates.difference(&disqualified)
    }

    /// Small divide following Maier's Definition 3:
    /// `⋂_{t ∈ r2} π_A(σ_{B=t}(r1))`.
    pub fn divide_maier(&self, divisor: &Relation) -> Result<Relation> {
        let attrs = self.schema().divide_partition(divisor.schema())?;
        let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
        let b_refs: Vec<&str> = attrs.shared.iter().map(String::as_str).collect();
        // Intersection over an empty divisor: by convention π_A(r1).
        let mut result: Option<Relation> = None;
        let divisor_conformed = divisor.conform_to(&Schema::new(b_refs.iter().copied())?)?;
        for t in divisor_conformed.tuples() {
            let selected = self.select_key(&b_refs, t)?;
            let projected = selected.project(&a_refs)?;
            result = Some(match result {
                None => projected,
                Some(acc) => acc.intersect(&projected)?,
            });
        }
        match result {
            Some(r) => Ok(r),
            None => self.project(&a_refs),
        }
    }

    // ------------------------------------------------------------------
    // Great divide
    // ------------------------------------------------------------------

    /// Great divide `self ÷* divisor` (reference implementation).
    ///
    /// Groups the divisor on `C` and, for every divisor group, keeps the
    /// dividend `A`-groups whose `B`-set contains the divisor group's `B`-set.
    /// When `C` is empty the operator degenerates to the small divide.
    ///
    /// ```
    /// use div_algebra::relation;
    /// let r1 = relation! { ["a", "b"] => [1, 1], [1, 4], [2, 1], [2, 2], [2, 3], [2, 4], [3, 1], [3, 3], [3, 4] };
    /// let r2 = relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] };
    /// let r3 = relation! { ["a", "c"] => [2, 1], [2, 2], [3, 2] };
    /// assert_eq!(r1.great_divide(&r2).unwrap(), r3);
    /// ```
    pub fn great_divide(&self, divisor: &Relation) -> Result<Relation> {
        let attrs = self.schema().great_divide_partition(divisor.schema())?;
        if attrs.group.is_empty() {
            return self.divide(divisor);
        }
        let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
        let b_refs: Vec<&str> = attrs.shared.iter().map(String::as_str).collect();
        let c_refs: Vec<&str> = attrs.group.iter().map(String::as_str).collect();

        let a_idx = self.schema().projection_indices(&a_refs)?;
        let div_b_idx = self.schema().projection_indices(&b_refs)?;
        let dsr_b_idx = divisor.schema().projection_indices(&b_refs)?;
        let dsr_c_idx = divisor.schema().projection_indices(&c_refs)?;

        // Precompute each dividend group's B-set once.
        let dividend_groups: Vec<(Tuple, BTreeSet<Tuple>)> = self
            .group_by_indices(&a_idx)
            .into_iter()
            .map(|(k, members)| {
                let b_set = members.iter().map(|t| t.project(&div_b_idx)).collect();
                (k, b_set)
            })
            .collect();

        let mut out = Relation::empty(attrs.output());

        for (c_value, members) in divisor.group_by_indices(&dsr_c_idx) {
            let divisor_b: BTreeSet<Tuple> =
                members.iter().map(|t| t.project(&dsr_b_idx)).collect();
            for (a_value, b_set) in &dividend_groups {
                if divisor_b.is_subset(b_set) {
                    out.insert(a_value.concat(&c_value))?;
                }
            }
        }
        Ok(out)
    }

    /// Great divide via Definition 4 (set containment division):
    /// `⋃_{t ∈ π_C(r2)} (r1 ÷ π_B(σ_{C=t}(r2))) × (t)`.
    pub fn great_divide_set_containment(&self, divisor: &Relation) -> Result<Relation> {
        let attrs = self.schema().great_divide_partition(divisor.schema())?;
        if attrs.group.is_empty() {
            return self.divide(divisor);
        }
        let b_refs: Vec<&str> = attrs.shared.iter().map(String::as_str).collect();
        let c_refs: Vec<&str> = attrs.group.iter().map(String::as_str).collect();

        let out_schema = attrs.output();
        let mut out = Relation::empty(out_schema.clone());

        let c_values = divisor.project(&c_refs)?;
        for t in c_values.tuples() {
            let group = divisor.select_key(&c_refs, t)?.project(&b_refs)?;
            let quotient = self.divide(&group)?;
            let tagged = quotient.product(&Relation::singleton(&c_refs, t.clone())?)?;
            out = out.union(&tagged.conform_to(&out_schema)?)?;
        }
        Ok(out)
    }

    /// Great divide via Demolombe's Definition 5 (generalized division):
    /// `(π_A(r1) × π_C(r2)) − π_{A∪C}((π_A(r1) × r2) − (r1 × π_C(r2)))`.
    pub fn great_divide_demolombe(&self, divisor: &Relation) -> Result<Relation> {
        let attrs = self.schema().great_divide_partition(divisor.schema())?;
        if attrs.group.is_empty() {
            return self.divide_healy(divisor);
        }
        let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
        let c_refs: Vec<&str> = attrs.group.iter().map(String::as_str).collect();
        let mut ac_refs: Vec<&str> = a_refs.clone();
        ac_refs.extend(c_refs.iter().copied());

        let candidates = self.project(&a_refs)?.product(&divisor.project(&c_refs)?)?;
        let left = self.project(&a_refs)?.product(divisor)?;
        let right = self.product(&divisor.project(&c_refs)?)?;
        let missing = left.difference(&right.conform_to(left.schema())?)?;
        let disqualified = missing.project(&ac_refs)?;
        candidates.difference(&disqualified)
    }

    /// Great divide via Todd's Definition 6:
    /// `(π_A(r1) × π_C(r2)) − π_{A∪C}((π_A(r1) × r2) − (r1 ⋈ r2))`.
    pub fn great_divide_todd(&self, divisor: &Relation) -> Result<Relation> {
        let attrs = self.schema().great_divide_partition(divisor.schema())?;
        if attrs.group.is_empty() {
            return self.divide_healy(divisor);
        }
        let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
        let c_refs: Vec<&str> = attrs.group.iter().map(String::as_str).collect();
        let mut ac_refs: Vec<&str> = a_refs.clone();
        ac_refs.extend(c_refs.iter().copied());

        let candidates = self.project(&a_refs)?.product(&divisor.project(&c_refs)?)?;
        let left = self.project(&a_refs)?.product(divisor)?;
        let joined = self.natural_join(divisor)?;
        let missing = left.difference(&joined.conform_to(left.schema())?)?;
        let disqualified = missing.project(&ac_refs)?;
        candidates.difference(&disqualified)
    }
}

#[cfg(test)]
mod tests {
    use crate::{relation, Relation, Schema};

    /// Figure 1 / Figure 2 dividend.
    fn figure_dividend() -> Relation {
        relation! {
            ["a", "b"] =>
            [1, 1], [1, 4],
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
        }
    }

    #[test]
    fn figure_1_small_divide() {
        let r1 = figure_dividend();
        let r2 = relation! { ["b"] => [1], [3] };
        let r3 = relation! { ["a"] => [2], [3] };
        assert_eq!(r1.divide(&r2).unwrap(), r3);
    }

    #[test]
    fn all_small_divide_definitions_agree_on_figure_1() {
        let r1 = figure_dividend();
        let r2 = relation! { ["b"] => [1], [3] };
        let expected = r1.divide(&r2).unwrap();
        assert_eq!(r1.divide_codd(&r2).unwrap(), expected);
        assert_eq!(r1.divide_healy(&r2).unwrap(), expected);
        assert_eq!(r1.divide_maier(&r2).unwrap(), expected);
    }

    #[test]
    fn empty_divisor_yields_all_candidates() {
        let r1 = figure_dividend();
        let empty = Relation::empty(Schema::of(["b"]));
        let all_a = relation! { ["a"] => [1], [2], [3] };
        assert_eq!(r1.divide(&empty).unwrap(), all_a);
        assert_eq!(r1.divide_codd(&empty).unwrap(), all_a);
        assert_eq!(r1.divide_healy(&empty).unwrap(), all_a);
        assert_eq!(r1.divide_maier(&empty).unwrap(), all_a);
    }

    #[test]
    fn empty_dividend_yields_empty_quotient() {
        let r1 = relation! { ["a", "b"] => };
        let r2 = relation! { ["b"] => [1] };
        assert!(r1.divide(&r2).unwrap().is_empty());
        assert!(r1.divide_healy(&r2).unwrap().is_empty());
    }

    #[test]
    fn divisor_larger_than_any_group_yields_empty_quotient() {
        let r1 = relation! { ["a", "b"] => [1, 1], [2, 2] };
        let r2 = relation! { ["b"] => [1], [2] };
        assert!(r1.divide(&r2).unwrap().is_empty());
    }

    #[test]
    fn division_schema_preconditions_are_checked() {
        let r1 = relation! { ["a", "b"] => [1, 1] };
        // Divisor attribute not present in dividend.
        let bad = relation! { ["z"] => [1] };
        assert!(r1.divide(&bad).is_err());
        // Quotient attribute set would be empty.
        let same = relation! { ["a", "b"] => [1, 1] };
        assert!(r1.divide(&same).is_err());
    }

    #[test]
    fn divisor_attribute_order_does_not_matter() {
        let r1 = relation! { ["a", "b", "c"] => [1, 1, 10], [1, 2, 20], [2, 1, 10] };
        let r2 = relation! { ["b", "c"] => [1, 10], [2, 20] };
        let r2_swapped = relation! { ["c", "b"] => [10, 1], [20, 2] };
        assert_eq!(r1.divide(&r2).unwrap(), r1.divide(&r2_swapped).unwrap());
        assert_eq!(r1.divide(&r2).unwrap(), relation! { ["a"] => [1] });
    }

    #[test]
    fn figure_2_great_divide() {
        let r1 = figure_dividend();
        let r2 = relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] };
        let r3 = relation! { ["a", "c"] => [2, 1], [2, 2], [3, 2] };
        assert_eq!(r1.great_divide(&r2).unwrap(), r3);
    }

    #[test]
    fn all_great_divide_definitions_agree_on_figure_2() {
        let r1 = figure_dividend();
        let r2 = relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] };
        let expected = r1.great_divide(&r2).unwrap();
        assert_eq!(r1.great_divide_set_containment(&r2).unwrap(), expected);
        assert_eq!(r1.great_divide_demolombe(&r2).unwrap(), expected);
        assert_eq!(r1.great_divide_todd(&r2).unwrap(), expected);
    }

    #[test]
    fn great_divide_degenerates_to_small_divide_without_group_attributes() {
        let r1 = figure_dividend();
        let r2 = relation! { ["b"] => [1], [3] };
        assert_eq!(r1.great_divide(&r2).unwrap(), r1.divide(&r2).unwrap());
        assert_eq!(
            r1.great_divide_set_containment(&r2).unwrap(),
            r1.divide(&r2).unwrap()
        );
    }

    #[test]
    fn great_divide_empty_divisor_is_empty() {
        let r1 = figure_dividend();
        let empty = Relation::empty(Schema::of(["b", "c"]));
        assert!(r1.great_divide(&empty).unwrap().is_empty());
        assert!(r1.great_divide_set_containment(&empty).unwrap().is_empty());
        assert!(r1.great_divide_demolombe(&empty).unwrap().is_empty());
        assert!(r1.great_divide_todd(&empty).unwrap().is_empty());
    }

    #[test]
    fn great_divide_requires_shared_attributes() {
        let r1 = relation! { ["a", "b"] => [1, 1] };
        let r2 = relation! { ["x", "y"] => [1, 1] };
        assert!(r1.great_divide(&r2).is_err());
    }

    #[test]
    fn great_divide_multi_attribute_b_and_c() {
        // Two-attribute B = {b1, b2}, two-attribute C = {c1, c2}.
        let r1 = relation! {
            ["a", "b1", "b2"] =>
            [1, 1, 10], [1, 2, 20],
            [2, 1, 10],
        };
        let r2 = relation! {
            ["b1", "b2", "c1", "c2"] =>
            [1, 10, 7, 70], [2, 20, 7, 70],
            [1, 10, 8, 80],
        };
        let out = r1.great_divide(&r2).unwrap();
        let expected = relation! {
            ["a", "c1", "c2"] =>
            [1, 7, 70],
            [1, 8, 80],
            [2, 8, 80],
        };
        assert_eq!(out, expected);
        assert_eq!(r1.great_divide_demolombe(&r2).unwrap(), expected);
        assert_eq!(r1.great_divide_todd(&r2).unwrap(), expected);
        assert_eq!(r1.great_divide_set_containment(&r2).unwrap(), expected);
    }

    #[test]
    fn frequent_itemset_style_division() {
        // Section 3: transactions ÷* candidates.
        let transactions = relation! {
            ["tid", "item"] =>
            [1, 10], [1, 20], [1, 30],
            [2, 10], [2, 30],
            [3, 20],
        };
        let candidates = relation! {
            ["item", "itemset"] =>
            [10, 100], [30, 100],   // itemset {10, 30}
            [20, 200],              // itemset {20}
        };
        let quotient = transactions.great_divide(&candidates).unwrap();
        let expected = relation! {
            ["tid", "itemset"] =>
            [1, 100], [2, 100],
            [1, 200], [3, 200],
        };
        assert_eq!(quotient, expected);
    }
}
