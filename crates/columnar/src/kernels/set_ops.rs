//! Batch-native set intersection and difference.
//!
//! `σ`/`π`-heavy plans produced by the paper's rewrite laws for
//! intersection and difference (Laws 5–7, Section 5.1.3/5.1.4) run on
//! these kernels. Both mirror
//! [`div_algebra::Relation::intersect`] / [`Relation::difference`]
//! semantics exactly: union-compatible schemas are required, the right
//! operand is conformed to the left operand's attribute order, and the
//! output is a duplicate-free set over the left schema.
//!
//! Duplicate safety: batches flowing through a kernel pipeline may
//! transiently hold duplicate rows. The right side is hashed into a set (so
//! right duplicates are harmless) and the retained left rows are
//! deduplicated before the batch is returned, so the output is a set even
//! for duplicate-bearing inputs.
//!
//! [`Relation::difference`]: div_algebra::Relation::difference

use crate::batch::ColumnarBatch;
use crate::hash_table::index_rows;
use crate::key_vector::{cross_matcher, KeyVector};
use crate::Result;
use div_algebra::AlgebraError;

fn conform_right(
    left: &ColumnarBatch,
    right: &ColumnarBatch,
    operation: &'static str,
) -> Result<ColumnarBatch> {
    if !left.schema().is_compatible_with(right.schema()) {
        return Err(AlgebraError::SchemaMismatch {
            left: left.schema().to_string(),
            right: right.schema().to_string(),
            operation,
        });
    }
    right.conform_to(left.schema())
}

fn membership_mask(left: &ColumnarBatch, right: &ColumnarBatch, keep_members: bool) -> Vec<bool> {
    // Whole rows are the key: normalize both sides once, hash the right
    // side into an open-addressing index, and probe with the left codes.
    let all_columns: Vec<usize> = (0..left.schema().arity()).collect();
    let right_keys = KeyVector::build(right, &all_columns);
    let left_keys = KeyVector::build(left, &all_columns);
    let index = index_rows(right, &all_columns, &right_keys);
    let same_row = cross_matcher(
        left,
        &all_columns,
        &left_keys,
        right,
        &all_columns,
        &right_keys,
    );
    (0..left.num_rows())
        .map(|i| {
            let member = index
                .get(left_keys.code(i), |other| same_row(i, other))
                .is_some();
            member == keep_members
        })
        .collect()
}

/// Set intersection `left ∩ right`, mirroring
/// [`div_algebra::Relation::intersect`] (the right operand is conformed to
/// the left operand's attribute order first).
pub fn intersect(left: &ColumnarBatch, right: &ColumnarBatch) -> Result<ColumnarBatch> {
    let right = conform_right(left, right, "intersection")?;
    let mask = membership_mask(left, &right, true);
    Ok(left.select_by_mask(&mask).dedup())
}

/// Set difference `left − right`, mirroring
/// [`div_algebra::Relation::difference`] (the right operand is conformed to
/// the left operand's attribute order first).
pub fn difference(left: &ColumnarBatch, right: &ColumnarBatch) -> Result<ColumnarBatch> {
    let right = conform_right(left, right, "difference")?;
    let mask = membership_mask(left, &right, false);
    Ok(left.select_by_mask(&mask).dedup())
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn inputs() -> (ColumnarBatch, ColumnarBatch) {
        (
            ColumnarBatch::from_relation(&relation! {
                ["a", "b"] => [1, 10], [2, 20], [3, 30]
            }),
            // Same attributes in swapped order: conformance is exercised.
            ColumnarBatch::from_relation(&relation! {
                ["b", "a"] => [10, 1], [40, 4]
            }),
        )
    }

    #[test]
    fn intersect_matches_reference() {
        let (l, r) = inputs();
        let expected = l
            .to_relation()
            .unwrap()
            .intersect(&r.to_relation().unwrap())
            .unwrap();
        let got = intersect(&l, &r).unwrap();
        assert_eq!(got.to_relation().unwrap(), expected);
        assert_eq!(got.schema(), l.schema());
    }

    #[test]
    fn difference_matches_reference() {
        let (l, r) = inputs();
        let expected = l
            .to_relation()
            .unwrap()
            .difference(&r.to_relation().unwrap())
            .unwrap();
        let got = difference(&l, &r).unwrap();
        assert_eq!(got.to_relation().unwrap(), expected);
    }

    #[test]
    fn duplicate_rows_do_not_leak_into_the_output() {
        let (l, r) = inputs();
        let doubled = l.gather(&[0, 0, 1, 2, 1]);
        assert_eq!(
            intersect(&doubled, &r).unwrap().to_relation().unwrap(),
            l.to_relation()
                .unwrap()
                .intersect(&r.to_relation().unwrap())
                .unwrap()
        );
        let diff = difference(&doubled, &r).unwrap();
        assert_eq!(diff.num_rows(), 2, "retained rows must be deduplicated");
    }

    #[test]
    fn incompatible_schemas_are_rejected() {
        let (l, _) = inputs();
        let bad = ColumnarBatch::from_relation(&relation! { ["x"] => [1] });
        assert!(intersect(&l, &bad).is_err());
        assert!(difference(&l, &bad).is_err());
    }
}
