//! Columnar projection (with set-semantics duplicate elimination).

use crate::batch::ColumnarBatch;
use crate::Result;

/// Project `batch` onto `attributes` (kept in the requested order) and
/// deduplicate the surviving rows, mirroring
/// [`div_algebra::Relation::project`].
pub fn project(batch: &ColumnarBatch, attributes: &[&str]) -> Result<ColumnarBatch> {
    let schema = batch.schema().project(attributes)?;
    let indices = batch.schema().projection_indices(attributes)?;
    Ok(batch.with_columns(schema, &indices).dedup())
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    #[test]
    fn project_deduplicates_like_the_algebra() {
        let rel = relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1] };
        let batch = ColumnarBatch::from_relation(&rel);
        let projected = project(&batch, &["a"]).unwrap();
        assert_eq!(projected.num_rows(), 2);
        assert_eq!(
            projected.to_relation().unwrap(),
            rel.project(&["a"]).unwrap()
        );
        assert!(project(&batch, &["z"]).is_err());
    }
}
