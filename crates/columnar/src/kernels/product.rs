//! Batch-native Cartesian product, one bounded slice at a time.
//!
//! The paper's product laws (Laws 8, 9, Section 5.1.5) and the theta-join
//! definition `r1 ⋈_θ r2 = σ_θ(r1 × r2)` (Appendix A) both bottom out in the
//! Cartesian product. The columnar product is assembled with two gathers —
//! every left row index repeated `|right|` times and the right indices tiled
//! — so no per-tuple `Value` allocation happens. The executor's nested-loop
//! operator crosses a few left rows at a time and, for a theta-join, runs
//! the vectorized [`filter`](crate::kernels::filter()) kernel over each
//! slice (including its row-at-a-time fallback, so error and short-circuit
//! semantics match the reference [`div_algebra::Relation::theta_join`]).
//!
//! The product of duplicate-free inputs is duplicate-free: distinct index
//! pairs yield distinct concatenated rows.

use crate::batch::ColumnarBatch;
use crate::Result;

/// Cartesian product of a *slice* of the left operand with the whole right
/// operand: `left[left_rows] × right`, mirroring
/// [`div_algebra::Relation::product`] on that slice. The streaming
/// executor's nested-loop operator serves its output in bounded slices
/// through this kernel, so governance limits (deadlines, memory budgets)
/// trip within one batch boundary instead of after the full
/// `|left| · |right|` result has been materialized.
///
/// # Errors
///
/// The operand schemas must be attribute-disjoint, as in the reference
/// algebra; otherwise a
/// [`DuplicateAttribute`](div_algebra::AlgebraError::DuplicateAttribute)
/// error is returned. An out-of-bounds or inverted range is clamped to
/// `left`'s row count.
pub fn cross_product_slice(
    left: &ColumnarBatch,
    left_rows: std::ops::Range<usize>,
    right: &ColumnarBatch,
) -> Result<ColumnarBatch> {
    let schema = left.schema().concat(right.schema())?;
    let start = left_rows.start.min(left.num_rows());
    let end = left_rows.end.min(left.num_rows()).max(start);
    let (l_rows, r_rows) = (end - start, right.num_rows());
    let mut left_indices = Vec::with_capacity(l_rows * r_rows);
    let mut right_indices = Vec::with_capacity(l_rows * r_rows);
    for i in start..end {
        for j in 0..r_rows {
            left_indices.push(i);
            right_indices.push(j);
        }
    }
    let mut columns = left.gather(&left_indices).columns().to_vec();
    columns.extend(right.gather(&right_indices).columns().iter().cloned());
    Ok(ColumnarBatch::from_parts(schema, columns, l_rows * r_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::filter;
    use div_algebra::{relation, CompareOp, Predicate};

    fn inputs() -> (ColumnarBatch, ColumnarBatch) {
        (
            ColumnarBatch::from_relation(&relation! { ["a", "b"] => [1, 10], [2, 20] }),
            ColumnarBatch::from_relation(&relation! { ["c"] => [5], [15], [25] }),
        )
    }

    /// The whole product: every left row crossed with the right side.
    fn cross_product(left: &ColumnarBatch, right: &ColumnarBatch) -> Result<ColumnarBatch> {
        cross_product_slice(left, 0..left.num_rows(), right)
    }

    #[test]
    fn product_matches_reference() {
        let (l, r) = inputs();
        let expected = l
            .to_relation()
            .unwrap()
            .product(&r.to_relation().unwrap())
            .unwrap();
        let got = cross_product(&l, &r).unwrap();
        assert_eq!(got.num_rows(), 6);
        assert_eq!(got.to_relation().unwrap(), expected);
    }

    #[test]
    fn product_rejects_overlapping_schemas() {
        let (l, _) = inputs();
        let overlapping = ColumnarBatch::from_relation(&relation! { ["b", "c"] => [1, 2] });
        assert!(cross_product(&l, &overlapping).is_err());
    }

    #[test]
    fn theta_join_matches_reference() {
        // σ_θ over a product slice is the theta-join the executor runs.
        let (l, r) = inputs();
        let pred = Predicate::cmp_attrs("b", CompareOp::Gt, "c");
        let expected = l
            .to_relation()
            .unwrap()
            .theta_join(&r.to_relation().unwrap(), &pred)
            .unwrap();
        let joined = filter(&cross_product(&l, &r).unwrap(), &pred).unwrap();
        assert_eq!(joined.to_relation().unwrap(), expected);
    }

    #[test]
    fn theta_join_type_errors_match_reference() {
        let (l, r) = inputs();
        let bad = Predicate::eq_value("c", "blue");
        let reference = l
            .to_relation()
            .unwrap()
            .theta_join(&r.to_relation().unwrap(), &bad);
        let joined = filter(&cross_product(&l, &r).unwrap(), &bad);
        assert_eq!(joined.is_err(), reference.is_err());
    }

    #[test]
    fn slices_concatenate_to_the_full_product() {
        let (l, r) = inputs();
        let full = cross_product(&l, &r).unwrap();
        let mut rows = Vec::new();
        for start in 0..l.num_rows() {
            let slice = cross_product_slice(&l, start..start + 1, &r).unwrap();
            assert_eq!(slice.num_rows(), r.num_rows());
            rows.extend(
                slice
                    .to_relation()
                    .unwrap()
                    .tuples()
                    .cloned()
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(rows.len(), full.num_rows());
        let full_rel = full.to_relation().unwrap();
        assert!(rows.iter().all(|row| full_rel.contains(row)));
    }

    #[test]
    fn slice_ranges_clamp_to_the_left_row_count() {
        let (l, r) = inputs();
        assert_eq!(cross_product_slice(&l, 0..99, &r).unwrap().num_rows(), 6);
        assert_eq!(cross_product_slice(&l, 5..99, &r).unwrap().num_rows(), 0);
    }

    #[test]
    fn empty_operands_yield_empty_products() {
        let (l, _) = inputs();
        let empty = ColumnarBatch::empty(div_algebra::Schema::of(["z"]));
        assert_eq!(cross_product(&l, &empty).unwrap().num_rows(), 0);
        assert_eq!(cross_product(&empty, &l).unwrap().num_rows(), 0);
    }
}
