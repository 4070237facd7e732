//! External (file-backed) tables.
//!
//! The catalog normally owns its relations in RAM. An *external* table is
//! instead backed by some out-of-process store — in this workspace, the
//! `div-storage` columnar file format — and registered through
//! [`Catalog::register_external`](crate::Catalog::register_external). The
//! catalog only keeps the handle; the data stays on disk until somebody
//! asks for it, and a streaming executor never has to ask for all of it at
//! once:
//!
//! * [`ExternalTable::open_scan`] yields a chunk-at-a-time cursor
//!   ([`ExternalScan`]) that a streaming scan operator can pull from,
//!   optionally skipping whole chunks whose zone maps prove that a
//!   pushed-down predicate cannot match ([`ExternalScan::chunks_skipped`]);
//! * [`ExternalTable::materialize`] loads the whole table into a
//!   [`Relation`] for the materializing row executor and metadata validation
//!   paths (`declare_unique` etc.), cached by the catalog after the first
//!   load.
//!
//! The traits live here (rather than in `div-storage`) so the catalog can
//! hold `Arc<dyn ExternalTable>` without `div-expr` depending on the
//! storage crate — `div-storage` implements them for its `TableReader`,
//! keeping the dependency arrow pointing outward.

use crate::Result;
use div_algebra::{Predicate, Relation, Schema};
use div_columnar::ColumnarBatch;
use std::fmt::Debug;

/// A table whose data lives outside the catalog (typically in a
/// `div-storage` columnar file).
///
/// Implementations must be cheap to clone the *handle* of (the catalog
/// stores them behind [`Arc`](std::sync::Arc)) and must serve concurrent
/// scans: `open_scan` takes `&self` and each returned cursor owns whatever
/// file handles it needs.
pub trait ExternalTable: Debug + Send + Sync {
    /// The table's schema, available without touching the data pages.
    fn schema(&self) -> &Schema;

    /// Total number of rows, from the file footer.
    fn row_count(&self) -> usize;

    /// Number of on-disk chunks the table is split into.
    fn chunk_count(&self) -> usize;

    /// Open a chunk-at-a-time cursor over the table. When a predicate is
    /// supplied the implementation may skip chunks whose zone maps prove
    /// no row can satisfy it; skipping is *conservative* — returned chunks
    /// may still contain non-matching rows, so the caller must re-apply
    /// the predicate.
    fn open_scan(&self, predicate: Option<&Predicate>) -> Result<Box<dyn ExternalScan>>;

    /// Load the entire table into an in-memory [`Relation`]. Used by the
    /// materializing execution backends and by catalog metadata validation;
    /// the catalog caches the result so the file is read at most once per
    /// catalog entry.
    fn materialize(&self) -> Result<Relation>;
}

/// A chunk-at-a-time cursor over an [`ExternalTable`].
pub trait ExternalScan: Send {
    /// The next chunk, or `None` when the table is exhausted. Chunks are
    /// returned in file order; chunk boundaries follow the writer's
    /// batching, not the caller's batch size.
    fn next_chunk(&mut self) -> Result<Option<ColumnarBatch>>;

    /// Number of chunks skipped so far because their zone maps excluded
    /// the pushed-down predicate. Monotonically non-decreasing across
    /// `next_chunk` calls.
    fn chunks_skipped(&self) -> usize;
}
