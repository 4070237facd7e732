//! Table sources: the one interface every catalog table is read through.
//!
//! A catalog table is stored either as rows registered in RAM (which the
//! catalog converts once into resident columnar [`TableSegments`]) or as a
//! file attached through
//! [`Catalog::register_external`](crate::Catalog::register_external) (in
//! this workspace, the `div-storage` columnar format). How it is stored is
//! the source's business; everybody else sees a [`TableSource`]:
//!
//! * [`TableSource::row_count`] answers the planner's cardinality question
//!   from metadata (the segment total, the file footer) — no row is read;
//! * [`TableSource::open_scan`] yields a chunk-at-a-time cursor
//!   ([`ChunkScan`]) for the streaming scan operator, skipping whole chunks
//!   whose zone maps prove that a pushed-down predicate cannot match
//!   ([`ChunkScan::chunks_skipped`]);
//! * [`TableSource::materialize`] drains such a cursor into a [`Relation`]
//!   — the reference path behind
//!   [`Catalog::table`](crate::Catalog::table), and the only way a file
//!   becomes rows.
//!
//! The traits live here (rather than in `div-storage`) so the catalog can
//! hold `Arc<dyn TableSource>` without `div-expr` depending on the storage
//! crate — `div-storage` implements them for its `TableReader`, keeping the
//! dependency arrow pointing outward.

use crate::Result;
use div_algebra::{Predicate, Relation, Schema};
use div_columnar::{chunk_may_match, ColumnarBatch, Segment, TableSegments};
use std::fmt::Debug;
use std::sync::Arc;

/// Where a catalog table's rows come from: resident segments or a file.
///
/// The catalog stores sources behind [`Arc`]s and hands the same handle to
/// every scan, so an implementation must serve concurrent scans:
/// `open_scan` takes `&self` and each returned cursor owns whatever it
/// needs to keep reading after the catalog entry is replaced.
pub trait TableSource: Debug + Send + Sync {
    /// The table's schema, available without touching the data.
    fn schema(&self) -> &Schema;

    /// Total number of rows, from metadata.
    fn row_count(&self) -> usize;

    /// Open a chunk-at-a-time cursor over the table. When a predicate is
    /// supplied the implementation may skip chunks whose zone maps prove
    /// no row can satisfy it; skipping is *conservative* — returned chunks
    /// may still contain non-matching rows, so the caller must re-apply
    /// the predicate.
    fn open_scan(&self, predicate: Option<&Predicate>) -> Result<Box<dyn ChunkScan>>;

    /// Load the entire table into an in-memory [`Relation`]. Used by the
    /// reference evaluator and catalog metadata validation; the catalog caches the result so a file is read at most
    /// once per catalog entry.
    fn materialize(&self) -> Result<Relation> {
        let mut scan = self.open_scan(None)?;
        let mut rows = Relation::empty(self.schema().clone());
        while let Some(chunk) = scan.next_chunk()? {
            for row in 0..chunk.num_rows() {
                rows.insert(chunk.row(row))?;
            }
        }
        Ok(rows)
    }
}

/// A chunk-at-a-time cursor over a [`TableSource`].
pub trait ChunkScan: Send {
    /// The next chunk, or `None` when the table is exhausted. Chunks are
    /// returned in table order; chunk boundaries follow the source's
    /// geometry (segments, the file writer's batching), not the caller's
    /// batch size.
    fn next_chunk(&mut self) -> Result<Option<ColumnarBatch>>;

    /// Number of chunks skipped so far because their zone maps excluded
    /// the pushed-down predicate. Monotonically non-decreasing across
    /// `next_chunk` calls.
    fn chunks_skipped(&self) -> usize;
}

impl TableSource for TableSegments {
    fn schema(&self) -> &Schema {
        TableSegments::schema(self)
    }

    fn row_count(&self) -> usize {
        self.num_rows()
    }

    fn open_scan(&self, predicate: Option<&Predicate>) -> Result<Box<dyn ChunkScan>> {
        Ok(Box::new(SegmentScan {
            segments: Arc::clone(self.segments()),
            predicate: predicate.cloned(),
            next: 0,
            skipped: 0,
        }))
    }
}

/// Cursor over resident segments. It shares the segment list with the
/// catalog entry it was opened from — a snapshot that a later
/// re-registration of the table does not disturb — and copies a segment's
/// column vectors only when that segment is returned.
struct SegmentScan {
    segments: Arc<[Segment]>,
    predicate: Option<Predicate>,
    next: usize,
    skipped: usize,
}

impl ChunkScan for SegmentScan {
    fn next_chunk(&mut self) -> Result<Option<ColumnarBatch>> {
        while let Some(segment) = self.segments.get(self.next) {
            self.next += 1;
            let batch = segment.batch();
            if self.predicate.as_ref().is_some_and(|predicate| {
                !chunk_may_match(predicate, batch.schema(), segment.zones())
            }) {
                self.skipped += 1;
                continue;
            }
            return Ok(Some(batch.clone()));
        }
        Ok(None)
    }

    fn chunks_skipped(&self) -> usize {
        self.skipped
    }
}
