//! Data-dependent side conditions used by the laws.
//!
//! Section 5.1.1 defines two conditions on a horizontal decomposition of the
//! dividend, `c1` (the weakest precondition of Law 2) and the stricter but
//! cheaper `c2`; Laws 6, 7, 9, 12 and 13 have further conditions on the data or
//! on declared constraints. They are implemented here as plain functions over
//! [`Relation`]s so they can be unit-tested in isolation, used by the rewrite
//! rules through the [`RewriteContext`](crate::context::RewriteContext), and
//! exercised directly by the property tests.

use div_algebra::{AlgebraError, Relation, Tuple};
use std::collections::BTreeSet;

/// Condition `c1(r'1, r''1)` of Section 5.1.1 (the precondition of Law 2).
///
/// For every quotient-candidate value `a` that occurs in *both* partitions,
/// one of the following must hold:
///
/// * the divisor is already contained in the `B`-values of `a`'s group in
///   `r'1`, or
/// * it is contained in the `B`-values of `a`'s group in `r''1`, or
/// * it is *not* contained even in the union of the two groups.
///
/// In other words: no quotient value may need tuples *from both partitions* to
/// cover the divisor (the situation of Figure 5).
pub fn c1(r1_prime: &Relation, r1_double: &Relation, r2: &Relation) -> Result<bool, AlgebraError> {
    let attrs = r1_prime.schema().divide_partition(r2.schema())?;
    let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
    let b_refs: Vec<&str> = attrs.shared.iter().map(String::as_str).collect();
    // The same schema rules must hold for the second partition.
    r1_double.schema().divide_partition(r2.schema())?;

    let divisor: BTreeSet<Tuple> = r2
        .conform_to(&div_algebra::Schema::new(b_refs.iter().copied())?)?
        .tuples()
        .cloned()
        .collect();

    let prime_groups = group_b_sets(r1_prime, &a_refs, &b_refs)?;
    let double_groups = group_b_sets(r1_double, &a_refs, &b_refs)?;

    for (a, prime_b) in &prime_groups {
        let Some(double_b) = double_groups.get(a) else {
            continue; // `a` occurs only in r'1 — c1 quantifies over the intersection.
        };
        let in_prime = divisor.is_subset(prime_b);
        let in_double = divisor.is_subset(double_b);
        let union: BTreeSet<Tuple> = prime_b.union(double_b).cloned().collect();
        let in_union = divisor.is_subset(&union);
        if !(in_prime || in_double || !in_union) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Condition `c2(r'1, r''1)`: the quotient-candidate prefixes of the two
/// dividend partitions are disjoint, `π_A(r'1) ∩ π_A(r''1) = ∅`.
///
/// The paper notes that `c2 ⇒ c1` and that `c2` is what an RDBMS would check
/// in practice (e.g. for range-partitioned scans); see also
/// `c2_implies_c1` in the tests.
pub fn c2(r1_prime: &Relation, r1_double: &Relation, r2: &Relation) -> Result<bool, AlgebraError> {
    let attrs = r1_prime.schema().divide_partition(r2.schema())?;
    let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
    projections_disjoint(r1_prime, r1_double, &a_refs)
}

/// `π_X(left) ∩ π_X(right) = ∅` — used by Law 7 (`X = A`) and Law 13
/// (`X = C`).
pub fn projections_disjoint(
    left: &Relation,
    right: &Relation,
    attributes: &[&str],
) -> Result<bool, AlgebraError> {
    let l = left.project(attributes)?;
    let r = right.project(attributes)?;
    Ok(l.intersect(&r.conform_to(l.schema())?)?.is_empty())
}

/// Law 6's precondition in its data form: `r''1 ⊆ r'1` (the paper derives the
/// partitions from two selections on the same relation where one predicate
/// implies the other).
pub fn subset_of(smaller: &Relation, larger: &Relation) -> Result<bool, AlgebraError> {
    smaller.is_subset_of(larger)
}

/// Law 9's precondition: `π_{B2}(r2) ⊆ r**1`, where `B2` is the schema of
/// `r**1`.
pub fn law9_projection_contained(
    r_star_star: &Relation,
    r2: &Relation,
) -> Result<bool, AlgebraError> {
    let b2: Vec<&str> = r_star_star.schema().names();
    let projected = r2.project(&b2)?;
    projected.is_subset_of(r_star_star)
}

/// Law 11's structural precondition: every group of the dividend defined by
/// the quotient attributes `A` contains exactly one tuple (which holds by
/// construction when the dividend is `Aγf(X)→B(r0)`). Over the divisor
/// attributes `B` it is Law 12's: every `B` value of the dividend occurs in
/// exactly one tuple (as when the dividend is `Bγf(X)→A(r0)`).
pub fn quotient_groups_are_singletons(
    dividend: &Relation,
    quotient_attrs: &[&str],
) -> Result<bool, AlgebraError> {
    let projected = dividend.project(quotient_attrs)?;
    Ok(projected.len() == dividend.len())
}

/// Law 12's referential precondition: `r2.B ⊆ π_B(r1)` — the divisor values
/// form a foreign key into the dividend.
pub fn divisor_references_dividend(
    dividend: &Relation,
    divisor: &Relation,
) -> Result<bool, AlgebraError> {
    let b: Vec<&str> = divisor.schema().names();
    let dividend_b = dividend.project(&b)?;
    divisor.is_subset_of(&dividend_b)
}

fn group_b_sets(
    relation: &Relation,
    a_refs: &[&str],
    b_refs: &[&str],
) -> Result<std::collections::BTreeMap<Tuple, BTreeSet<Tuple>>, AlgebraError> {
    let a_idx = relation.schema().projection_indices(a_refs)?;
    let b_idx = relation.schema().projection_indices(b_refs)?;
    Ok(relation
        .group_by_indices(&a_idx)
        .into_iter()
        .map(|(k, members)| {
            let b_set = members.iter().map(|t| t.project(&b_idx)).collect();
            (k, b_set)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    #[test]
    fn figure_5_violates_c1() {
        // Figure 5: the quotient candidate a=1 needs tuples from both
        // partitions to cover the divisor {1, 4}.
        let r1_prime = relation! { ["a", "b"] => [1, 1], [1, 2], [1, 3] };
        let r1_double = relation! { ["a", "b"] => [1, 2], [1, 4] };
        let r2 = relation! { ["b"] => [1], [4] };
        assert!(!c1(&r1_prime, &r1_double, &r2).unwrap());
        assert!(!c2(&r1_prime, &r1_double, &r2).unwrap());
    }

    #[test]
    fn c1_holds_when_one_partition_covers_the_divisor() {
        let r1_prime = relation! { ["a", "b"] => [1, 1], [1, 4], [1, 2] };
        let r1_double = relation! { ["a", "b"] => [1, 2], [2, 1] };
        let r2 = relation! { ["b"] => [1], [4] };
        assert!(c1(&r1_prime, &r1_double, &r2).unwrap());
        // c2 does not hold (a=1 occurs in both partitions) — c1 is weaker.
        assert!(!c2(&r1_prime, &r1_double, &r2).unwrap());
    }

    #[test]
    fn c1_holds_when_union_still_misses_the_divisor() {
        // a=1 appears in both partitions but even the union lacks b=4, so the
        // third disjunct of c1 applies.
        let r1_prime = relation! { ["a", "b"] => [1, 1] };
        let r1_double = relation! { ["a", "b"] => [1, 2] };
        let r2 = relation! { ["b"] => [1], [4] };
        assert!(c1(&r1_prime, &r1_double, &r2).unwrap());
    }

    #[test]
    fn c2_implies_c1_on_examples() {
        let cases = vec![
            (
                relation! { ["a", "b"] => [1, 1], [1, 3] },
                relation! { ["a", "b"] => [2, 1], [2, 3], [3, 1] },
                relation! { ["b"] => [1], [3] },
            ),
            (
                relation! { ["a", "b"] => [5, 1] },
                relation! { ["a", "b"] => [6, 1], [7, 2] },
                relation! { ["b"] => [1] },
            ),
        ];
        for (p, d, r2) in cases {
            assert!(c2(&p, &d, &r2).unwrap());
            assert!(c1(&p, &d, &r2).unwrap());
        }
    }

    #[test]
    fn law7_disjointness_check() {
        let left = relation! { ["a", "b"] => [1, 1], [2, 1] };
        let right = relation! { ["a", "b"] => [3, 1], [4, 2] };
        assert!(projections_disjoint(&left, &right, &["a"]).unwrap());
        let overlapping = relation! { ["a", "b"] => [2, 2] };
        assert!(!projections_disjoint(&left, &overlapping, &["a"]).unwrap());
    }

    #[test]
    fn law9_containment_check() {
        // Figure 8: r**1 = {1, 2} over b2; π_{b2}(r2) = {1, 2} ⊆ r**1.
        let r_star_star = relation! { ["b2"] => [1], [2] };
        let r2 = relation! { ["b1", "b2"] => [1, 2], [3, 1], [3, 2] };
        assert!(law9_projection_contained(&r_star_star, &r2).unwrap());
        let r2_bad = relation! { ["b1", "b2"] => [1, 9] };
        assert!(!law9_projection_contained(&r_star_star, &r2_bad).unwrap());
    }

    #[test]
    fn law11_and_law12_singleton_checks() {
        // Figure 10(b): groups by a are singletons.
        let r1 = relation! { ["a", "b"] => [1, 6], [2, 4], [3, 8] };
        assert!(quotient_groups_are_singletons(&r1, &["a"]).unwrap());
        // Figure 11(b): groups by b are singletons.
        let r1b = relation! { ["a", "b"] => [6, 1], [1, 2], [6, 3], [3, 4] };
        assert!(quotient_groups_are_singletons(&r1b, &["b"]).unwrap());
        // A non-singleton case.
        let multi = relation! { ["a", "b"] => [1, 1], [1, 2] };
        assert!(!quotient_groups_are_singletons(&multi, &["a"]).unwrap());
    }

    #[test]
    fn law12_foreign_key_check() {
        let r1 = relation! { ["a", "b"] => [6, 1], [1, 2], [6, 3], [3, 4] };
        let r2 = relation! { ["b"] => [1], [3] };
        assert!(divisor_references_dividend(&r1, &r2).unwrap());
        let r2_bad = relation! { ["b"] => [1], [9] };
        assert!(!divisor_references_dividend(&r1, &r2_bad).unwrap());
    }

    #[test]
    fn subset_check() {
        let larger = relation! { ["a", "b"] => [1, 1], [2, 1], [3, 1] };
        let smaller = relation! { ["a", "b"] => [2, 1] };
        assert!(subset_of(&smaller, &larger).unwrap());
        assert!(!subset_of(&larger, &smaller).unwrap());
    }
}
