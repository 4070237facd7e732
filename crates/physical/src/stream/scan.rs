//! Source operators: scans over resident segments, attached files and
//! inline constants.

use super::{BatchStream, OpMeta, StreamContext};
use crate::Result;
use div_algebra::{Predicate, Relation, Schema};
use div_columnar::{chunk_may_match, ColumnarBatch, TableSegments};
use std::sync::Arc;

/// Chunked scan over an in-memory base table, reading the table's resident
/// columnar segments ([`Catalog::table_segments`]): no row is converted per
/// query. Chunks are consecutive row ranges of at most `batch_size` rows
/// that never straddle a segment — a whole segment is emitted as a clone of
/// its column vectors, a shorter range as a slice — and they are produced
/// one pull at a time, so an early-terminated consumer never copies the
/// rest of the table.
///
/// The scan holds a *shared snapshot handle* ([`Arc<TableSegments>`])
/// instead of a borrow, which is what frees the whole operator tree — and
/// therefore `div_sql`'s `Cursor` — from the catalog's lifetime: a
/// concurrent catalog mutation swaps the table out of the catalog, while
/// this scan keeps streaming the snapshot it was compiled against.
///
/// When a parent filter pushed its predicate down here, a segment whose
/// zone maps exclude it is skipped whole and counted in
/// [`ExecStats::chunks_skipped`], exactly as [`ExternalScanStream`] skips
/// file chunks.
pub(super) struct ScanStream {
    meta: OpMeta,
    table: Arc<TableSegments>,
    predicate: Option<Predicate>,
    /// The segment being emitted and the first row of it not yet emitted.
    segment: usize,
    offset: usize,
}

impl ScanStream {
    pub(super) fn new(
        meta: OpMeta,
        table: Arc<TableSegments>,
        predicate: Option<Predicate>,
    ) -> ScanStream {
        ScanStream {
            meta,
            table,
            predicate,
            segment: 0,
            offset: 0,
        }
    }
}

impl BatchStream for ScanStream {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        while let Some(segment) = self.table.segments().get(self.segment) {
            if self.offset == 0
                && self.predicate.as_ref().is_some_and(|predicate| {
                    !chunk_may_match(predicate, self.table.schema(), segment.zones())
                })
            {
                ctx.stats.chunks_skipped += 1;
                self.segment += 1;
                continue;
            }
            let batch = segment.batch();
            let rows = batch.num_rows();
            let end = (self.offset + ctx.batch_size).min(rows);
            let chunk = if self.offset == 0 && end == rows {
                batch.clone()
            } else {
                batch.slice(self.offset..end)
            };
            if end == rows {
                self.segment += 1;
                self.offset = 0;
            } else {
                self.offset = end;
            }
            return self.meta.emit(ctx, chunk);
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
    }
}

/// Chunked scan over an *attached* (file-backed) table: chunks stream
/// straight off disk through [`div_expr::ExternalScan`], so the table is
/// never materialized in memory — a file larger than the resident-row
/// budget flows through a pipeline of streaming operators chunk by chunk.
///
/// When a parent filter pushed its predicate down here, the file's
/// per-column zone maps let the cursor skip whole chunks that provably
/// cannot match; the skips are reported as [`ExecStats::chunks_skipped`].
/// Skipping is conservative (a surviving chunk may still contain
/// non-matching rows), so the parent filter always re-applies the
/// predicate.
pub(super) struct ExternalScanStream {
    meta: OpMeta,
    table: Arc<dyn div_expr::ExternalTable>,
    predicate: Option<Predicate>,
    /// Opened lazily on the first pull — compilation does no IO.
    scan: Option<Box<dyn div_expr::ExternalScan>>,
    /// Skips already added to the stats (the cursor reports a running
    /// total; the delta is folded in after every read).
    reported_skips: usize,
    done: bool,
}

impl ExternalScanStream {
    pub(super) fn new(
        meta: OpMeta,
        table: Arc<dyn div_expr::ExternalTable>,
        predicate: Option<Predicate>,
    ) -> ExternalScanStream {
        ExternalScanStream {
            meta,
            table,
            predicate,
            scan: None,
            reported_skips: 0,
            done: false,
        }
    }

    fn note_skips(&mut self, ctx: &mut StreamContext) {
        if let Some(scan) = self.scan.as_ref() {
            let total = scan.chunks_skipped();
            ctx.stats.chunks_skipped += total - self.reported_skips;
            self.reported_skips = total;
        }
    }
}

impl BatchStream for ExternalScanStream {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.done {
            return Ok(None);
        }
        if self.scan.is_none() {
            self.scan = Some(self.table.open_scan(self.predicate.as_ref())?);
        }
        loop {
            let next = self.scan.as_mut().expect("opened above").next_chunk();
            self.note_skips(ctx);
            match next? {
                Some(chunk) if chunk.num_rows() > 0 => return self.meta.emit(ctx, chunk),
                Some(_) => continue,
                None => {
                    self.done = true;
                    return Ok(None);
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        // An early-terminated scan still reports the chunks it skipped.
        self.note_skips(ctx);
        self.meta.record(ctx);
    }
}

/// Owned-batch variant of [`ScanStream`] for inline `Values` relations.
pub(super) struct ValuesStream {
    meta: OpMeta,
    batch: ColumnarBatch,
    pos: usize,
}

impl ValuesStream {
    /// Inline constants are owned by the plan, which does not outlive
    /// compilation — materialize them as one owned batch.
    pub(super) fn new(meta: OpMeta, relation: &Relation) -> ValuesStream {
        ValuesStream {
            meta,
            batch: ColumnarBatch::from_relation(relation),
            pos: 0,
        }
    }
}

impl BatchStream for ValuesStream {
    fn schema(&self) -> &Schema {
        self.batch.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.pos >= self.batch.num_rows() {
            return Ok(None);
        }
        let end = (self.pos + ctx.batch_size).min(self.batch.num_rows());
        let chunk = self.batch.slice(self.pos..end);
        self.pos = end;
        self.meta.emit(ctx, chunk)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
    }
}
