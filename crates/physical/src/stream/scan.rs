//! The source operator: one scan over any [`TableSource`].

use super::{BatchStream, OpMeta, StreamContext};
use crate::Result;
use div_algebra::{Predicate, Schema};
use div_columnar::ColumnarBatch;
use div_expr::{ChunkScan, TableSource};
use std::sync::Arc;

/// Chunked scan over a table source — the resident segments of a
/// registered table, an attached file, the inline relation of a `Values`
/// node. How the table is stored and which of its chunks a pushed-down
/// predicate lets it skip are the source's business
/// ([`TableSource::open_scan`]); this operator turns whatever chunks the
/// source yields into batches of at most `batch_size` rows, one pull at a
/// time, so an early-terminated consumer never reads the rest of the table
/// and a file larger than the resident-row budget flows through chunk by
/// chunk. A source chunk that already fits is handed over as it is; a
/// larger one is served in consecutive slices (the chunk itself is the
/// source's decode buffer and, like a catalog segment, is not counted as
/// resident — its pieces are, as they are emitted).
///
/// The scan holds a *shared handle* ([`Arc<dyn TableSource>`]) instead of
/// a borrow, which is what frees the whole operator tree — and therefore
/// `div_sql`'s `Cursor` — from the catalog's lifetime: a concurrent catalog
/// mutation swaps the table out of the catalog, while this scan keeps
/// streaming the snapshot it was compiled against.
///
/// Skipped chunks are reported as [`ExecStats::chunks_skipped`] and never
/// count as scanned rows. Skipping is conservative (a surviving chunk may
/// still contain non-matching rows), so the parent filter always re-applies
/// the predicate.
///
/// [`ExecStats::chunks_skipped`]: crate::ExecStats::chunks_skipped
pub(super) struct ScanStream {
    meta: OpMeta,
    table: Arc<dyn TableSource>,
    predicate: Option<Predicate>,
    /// Opened lazily on the first pull — compilation does no IO.
    scan: Option<Box<dyn ChunkScan>>,
    /// Skips already added to the stats (the cursor reports a running
    /// total; the delta is folded in after every read).
    reported_skips: usize,
    /// The source chunk being served in pieces, and its first row not yet
    /// emitted.
    chunk: Option<ColumnarBatch>,
    offset: usize,
}

impl ScanStream {
    pub(super) fn new(
        meta: OpMeta,
        table: Arc<dyn TableSource>,
        predicate: Option<Predicate>,
    ) -> ScanStream {
        ScanStream {
            meta,
            table,
            predicate,
            scan: None,
            reported_skips: 0,
            chunk: None,
            offset: 0,
        }
    }

    fn note_skips(&mut self, ctx: &mut StreamContext) {
        if let Some(scan) = self.scan.as_ref() {
            let total = scan.chunks_skipped();
            ctx.stats.chunks_skipped += total - self.reported_skips;
            self.reported_skips = total;
        }
    }

    /// The next non-empty chunk of the source, or `None` at its end.
    fn next_source_chunk(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.scan.is_none() {
            self.scan = Some(self.table.open_scan(self.predicate.as_ref())?);
        }
        loop {
            let next = self.scan.as_mut().expect("opened above").next_chunk();
            self.note_skips(ctx);
            match next? {
                Some(chunk) if chunk.num_rows() == 0 => continue,
                next => return Ok(next),
            }
        }
    }
}

impl BatchStream for ScanStream {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        let chunk = match self.chunk.take() {
            Some(chunk) => chunk,
            None => match self.next_source_chunk(ctx)? {
                Some(chunk) => chunk,
                None => return Ok(None),
            },
        };
        let end = self.offset.saturating_add(ctx.batch_size);
        if end >= chunk.num_rows() {
            // The rest of the chunk: all of it when it fits a batch.
            let rest = match self.offset {
                0 => chunk,
                from => chunk.slice(from..chunk.num_rows()),
            };
            self.offset = 0;
            return self.meta.emit(ctx, rest);
        }
        let piece = chunk.slice(self.offset..end);
        self.offset = end;
        self.chunk = Some(chunk);
        self.meta.emit(ctx, piece)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        // An early-terminated scan still reports the chunks it skipped.
        self.note_skips(ctx);
        self.meta.record(ctx);
    }
}
