//! The join family: theta-join, natural join, left semi-join and left
//! anti-semi-join (Appendix A of the paper).

use crate::{Predicate, Relation, Result};

impl Relation {
    /// Theta-join `r1 ⋈_θ r2 = σ_θ(r1 × r2)`.
    ///
    /// Like the Cartesian product, the operand schemas must be
    /// attribute-disjoint; the predicate refers to attributes of the
    /// concatenated schema.
    pub fn theta_join(&self, other: &Relation, predicate: &Predicate) -> Result<Relation> {
        self.product(other)?.select(predicate)
    }

    /// Natural join `r1 ⋈ r2`: equality on all common attribute names, with the
    /// shared attributes appearing once in the output (the paper's
    /// `π_A(σ_θ(r1 × r2))` formulation).
    pub fn natural_join(&self, other: &Relation) -> Result<Relation> {
        let common = self.schema().common_attributes(other.schema());
        let common_refs: Vec<&str> = common.iter().map(String::as_str).collect();
        let left_common = self.schema().projection_indices(&common_refs)?;
        let right_common = other.schema().projection_indices(&common_refs)?;
        // Output layout: all of r1's attributes, then r2's attributes not in r1.
        let out_schema = self.schema().natural_union(other.schema());
        let right_extra: Vec<&str> = other
            .schema()
            .names()
            .into_iter()
            .filter(|n| !self.schema().contains(n))
            .collect();
        let right_extra_idx = other.schema().projection_indices(&right_extra)?;

        let mut out = Relation::empty(out_schema);
        // Hash-free nested loop keeps the reference implementation obviously
        // faithful to the definition; `div-physical` has the fast variants.
        for t1 in self.tuples() {
            let key1 = t1.project(&left_common);
            for t2 in other.tuples() {
                if t2.project(&right_common) == key1 {
                    out.insert(t1.concat(&t2.project(&right_extra_idx)))?;
                }
            }
        }
        Ok(out)
    }

    /// Left semi-join `r1 ⋉ r2 = π_[r1](r1 ⋈ r2)`: the tuples of `r1` that
    /// join with at least one tuple of `r2` on the common attributes.
    pub fn semi_join(&self, other: &Relation) -> Result<Relation> {
        let common = self.schema().common_attributes(other.schema());
        let common_refs: Vec<&str> = common.iter().map(String::as_str).collect();
        let left_common = self.schema().projection_indices(&common_refs)?;
        let right_keys = other.project(&common_refs)?;
        let mut out = Relation::empty(self.schema().clone());
        for t in self.tuples() {
            if right_keys.contains(&t.project(&left_common)) {
                out.insert(t.clone())?;
            }
        }
        Ok(out)
    }

    /// Left anti-semi-join `r1 ▷ r2 = r1 − (r1 ⋉ r2)`.
    pub fn anti_semi_join(&self, other: &Relation) -> Result<Relation> {
        self.difference(&self.semi_join(other)?)
    }
}

#[cfg(test)]
mod tests {
    use crate::{relation, CompareOp, Predicate, Relation, Tuple, Value};

    #[test]
    fn theta_join_is_selection_over_product() {
        // Figure 9(d): r*1 ⋈_{b1<b2} r**1.
        let r_star = relation! {
            ["a", "b1"] =>
            [1, 1], [1, 2], [1, 3],
            [2, 2], [2, 3],
            [3, 1], [3, 3], [3, 4],
        };
        let r_star_star = relation! { ["b2"] => [1], [2], [4] };
        let joined = r_star
            .theta_join(
                &r_star_star,
                &Predicate::cmp_attrs("b1", CompareOp::Lt, "b2"),
            )
            .unwrap();
        let expected = relation! {
            ["a", "b1", "b2"] =>
            [1, 1, 2], [1, 1, 4], [1, 2, 4], [1, 3, 4],
            [2, 2, 4], [2, 3, 4],
            [3, 1, 2], [3, 1, 4], [3, 3, 4],
        };
        assert_eq!(joined, expected);
    }

    #[test]
    fn theta_join_with_true_is_product() {
        let r1 = relation! { ["a"] => [1], [2] };
        let r2 = relation! { ["b"] => [10] };
        assert_eq!(
            r1.theta_join(&r2, &Predicate::True).unwrap(),
            r1.product(&r2).unwrap()
        );
    }

    #[test]
    fn natural_join_on_common_attribute() {
        let supplies = relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] };
        let parts = relation! { ["p#", "color"] => [1, "blue"], [2, "red"] };
        let joined = supplies.natural_join(&parts).unwrap();
        assert_eq!(joined.schema().names(), vec!["s#", "p#", "color"]);
        assert_eq!(joined.len(), 3);
        assert!(joined.contains(&Tuple::new([
            Value::Int(2),
            Value::Int(1),
            Value::str("blue")
        ])));
    }

    #[test]
    fn natural_join_without_common_attributes_is_product() {
        let r1 = relation! { ["a"] => [1], [2] };
        let r2 = relation! { ["b"] => [10] };
        assert_eq!(r1.natural_join(&r2).unwrap(), r1.product(&r2).unwrap());
    }

    #[test]
    fn semi_join_keeps_matching_left_tuples() {
        // Figure 4(f): r1 ⋉ (r1 ÷ r'2).
        let r1 = relation! {
            ["a", "b"] =>
            [1, 1], [1, 4],
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
            [4, 1], [4, 3],
        };
        let quotient = relation! { ["a"] => [2], [3], [4] };
        let semi = r1.semi_join(&quotient).unwrap();
        let expected = relation! {
            ["a", "b"] =>
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
            [4, 1], [4, 3],
        };
        assert_eq!(semi, expected);
    }

    #[test]
    fn anti_semi_join_is_complement_of_semi_join() {
        let r1 = relation! { ["a", "b"] => [1, 1], [2, 1], [3, 1] };
        let r2 = relation! { ["a"] => [2] };
        let semi = r1.semi_join(&r2).unwrap();
        let anti = r1.anti_semi_join(&r2).unwrap();
        assert_eq!(semi.union(&anti).unwrap(), r1);
        assert!(semi.intersect(&anti).unwrap().is_empty());
        assert_eq!(anti.len(), 2);
    }

    #[test]
    fn semi_join_with_empty_right_is_empty() {
        let r1 = relation! { ["a", "b"] => [1, 1] };
        let empty = Relation::empty(crate::Schema::of(["a"]));
        assert!(r1.semi_join(&empty).unwrap().is_empty());
        assert_eq!(r1.anti_semi_join(&empty).unwrap(), r1);
    }
}
