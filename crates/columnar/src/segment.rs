//! Resident columnar segments: the column representation of an in-memory
//! table.
//!
//! A registered [`Relation`] is a sorted set of row tuples — the interchange
//! and reference-evaluator type. Scanning it by converting rows to columns
//! on every query costs as much as decoding the table from a file, so the
//! catalog keeps, next to the relation, one [`TableSegments`] built the
//! first time the table is scanned: the same rows, in the same order, cut
//! into chunks of [`DEFAULT_CHUNK_ROWS`] and converted once. Each segment
//! carries the per-column [`ColumnZone`]s a `.divcol` chunk carries, so a
//! pushed-down filter skips RAM segments exactly as it skips file chunks.

use crate::batch::ColumnarBatch;
use crate::zone::{column_zone, ColumnZone};
use div_algebra::{Relation, Schema, Tuple};
use std::sync::Arc;

/// Rows per chunk: of a resident table's segments and, by default, of a
/// `.divcol` file written from a whole relation.
pub const DEFAULT_CHUNK_ROWS: usize = 1024;

/// One chunk of a resident table: its rows in columnar layout plus the
/// zone map of every column.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    batch: ColumnarBatch,
    zones: Vec<ColumnZone>,
}

impl Segment {
    /// The segment's rows.
    pub fn batch(&self) -> &ColumnarBatch {
        &self.batch
    }

    /// Per-column zone maps, in schema order.
    pub fn zones(&self) -> &[ColumnZone] {
        &self.zones
    }
}

/// An immutable in-memory table in columnar layout: consecutive
/// [`DEFAULT_CHUNK_ROWS`]-row segments (the last may be shorter; none is
/// empty) in the source relation's sorted order. The segments sit behind
/// one [`Arc`]: a clone is a second handle on the same rows, which is what
/// a scan cursor holds.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSegments {
    schema: Schema,
    segments: Arc<[Segment]>,
    rows: usize,
}

impl TableSegments {
    /// Convert `relation`. Each segment's columns pick their representation
    /// from that segment's rows alone, so a string dictionary holds only the
    /// strings of its segment and a NULL-free segment has no validity mask.
    pub fn from_relation(relation: &Relation) -> TableSegments {
        let mut segments = Vec::with_capacity(relation.len().div_ceil(DEFAULT_CHUNK_ROWS));
        let mut tuples = relation.tuples();
        let mut rows: Vec<&Tuple> = Vec::with_capacity(DEFAULT_CHUNK_ROWS);
        loop {
            rows.clear();
            rows.extend(tuples.by_ref().take(DEFAULT_CHUNK_ROWS));
            if rows.is_empty() {
                break;
            }
            let batch = ColumnarBatch::from_tuples(relation.schema().clone(), &rows);
            let zones = batch.columns().iter().map(column_zone).collect();
            segments.push(Segment { batch, zones });
        }
        TableSegments {
            schema: relation.schema().clone(),
            segments: segments.into(),
            rows: relation.len(),
        }
    }

    /// The table schema (also every segment's schema).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The segments, in row order. Cloning the [`Arc`] is how a scan keeps
    /// reading them after the catalog has moved on.
    pub fn segments(&self) -> &Arc<[Segment]> {
        &self.segments
    }

    /// Total rows over all segments.
    pub fn num_rows(&self) -> usize {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::concat_batches;

    #[test]
    fn segments_cover_the_relation_in_order_with_zones() {
        let rows: Vec<Vec<i64>> = (0..2500).map(|i| vec![i, i % 7]).collect();
        let rel = Relation::from_rows(["a", "b"], rows).unwrap();
        let table = TableSegments::from_relation(&rel);
        assert_eq!(table.num_rows(), 2500);
        let sizes: Vec<usize> = table
            .segments()
            .iter()
            .map(|s| s.batch().num_rows())
            .collect();
        assert_eq!(sizes, vec![1024, 1024, 452]);
        let batches: Vec<ColumnarBatch> =
            table.segments().iter().map(|s| s.batch().clone()).collect();
        assert_eq!(
            concat_batches(&batches).unwrap(),
            ColumnarBatch::from_relation(&rel)
        );
        assert_eq!(
            table.segments()[1].zones()[0],
            ColumnZone::Int {
                min: 1024,
                max: 2047,
                null_count: 0
            }
        );
    }

    #[test]
    fn an_empty_relation_has_no_segments() {
        let table = TableSegments::from_relation(&Relation::empty(Schema::of(["a"])));
        assert_eq!(table.num_rows(), 0);
        assert!(table.segments().is_empty());
        assert_eq!(table.schema().names(), vec!["a"]);
    }
}
