//! The streaming (Volcano-style pull) executor: `open`/`next_batch`/`close`
//! operators over [`ColumnarBatch`] chunks.
//!
//! The materializing row executor ([`crate::exec`]) evaluates every
//! operator on its *whole* input, so memory scales with the largest
//! intermediate result. This module compiles the same
//! [`PhysicalPlan`] into a tree of [`BatchStream`] operators instead —
//! the classic Volcano iterator protocol (Graefe), batch-at-a-time:
//!
//! * **scans** emit a base table's columnar chunks — the resident
//!   segments of an in-memory table, the decoded chunks of an attached
//!   file — in batches of at most [`PlannerConfig::batch_size`] rows, one
//!   pull at a time: an unconsumed stream never touches the rest of the
//!   table, and a pushed-down filter skips chunks its zone maps exclude;
//! * **pipelining operators** (filter, project, rename, union, the
//!   nested-loop theta-join's probe side) transform one chunk at a time.
//!   Projection and union keep set semantics with a streaming distinct
//!   filter ([`div_columnar::StreamingDistinct`]) whose state is the
//!   distinct output, never the stream;
//! * **hash join / semi / anti** build their right side eagerly
//!   ([`div_columnar::kernels::JoinBuild`]) and stream the probe side
//!   through it chunk-at-a-time;
//! * **divide / great divide** materialize the divisor, then *consume* the
//!   dividend chunk-at-a-time into group-id-based coverage state
//!   ([`div_columnar::kernels::StreamingDivide`] /
//!   [`div_columnar::kernels::StreamingGreatDivide`]);
//!   only their output is a blocking boundary;
//! * **aggregation, intersection, difference and Cartesian product** remain
//!   explicit blocking boundaries: they buffer their inputs, run the batch
//!   kernel once, and re-chunk the result downstream.
//!
//! Statistics follow the discipline of the materializing executor (one
//! [`ExecStats::record`] per operator, scans into `rows_scanned`, the root
//! into `output_rows`, kernel probes into `probes`) — with one difference
//! that is the point of the design: an operator records what it *actually
//! did*, so a consumer that stops early (drop, `take(n)`) leaves
//! `rows_scanned` strictly below the table cardinality. In addition the
//! executor tracks every batch it materializes (in-flight chunks, blocking
//! buffers, build and distinct state — but not the scans' base tables,
//! which belong to the catalog) and reports the high-water mark as
//! [`ExecStats::peak_resident_batches`] / [`ExecStats::peak_resident_rows`]:
//! for a pipeline of streaming operators that peak is O(depth ×
//! batch_size), not O(table).
//!
//! Every operator additionally reports into the per-operator span tree of
//! [`crate::trace`] under its pre-order [`OperatorId`]: rows out, probes
//! and retained peaks always; wall-clock `open`/`next_batch`/`close` spans
//! when [`PlannerConfig::tracing`] is on (each operator is then wrapped in
//! a transparent `TimedStream` — the untraced path performs no clock
//! reads). The finished tree is published as [`ExecStats::operators`] by
//! [`StreamExecutor::finish`].

use crate::guard::QueryGuard;
use crate::plan::PhysicalPlan;
use crate::planner::PlannerConfig;
use crate::stats::ExecStats;
use crate::trace::{OperatorId, QueryTrace};
use crate::Result;
use div_algebra::{AlgebraError, Predicate, Schema};
use div_columnar::kernels::{self, JoinBuild, KernelOutput, StreamingGreatDivide};
use div_columnar::{chunk_may_match, partition, ColumnarBatch, StreamingDistinct, TableSegments};
use div_expr::{Catalog, ExprError};
use std::sync::Arc;
use std::time::Instant;

/// Shared per-execution state threaded through every operator call:
/// statistics, the per-operator trace, the configured chunk geometry, and
/// the resident-batch accounting behind [`ExecStats::peak_resident_rows`].
#[derive(Debug)]
pub struct StreamContext {
    /// The statistics being accumulated.
    pub stats: ExecStats,
    trace: QueryTrace,
    batch_size: usize,
    resident_rows: usize,
    resident_batches: usize,
    guard: QueryGuard,
}

impl StreamContext {
    fn new(plan: &PhysicalPlan, config: &PlannerConfig, guard: QueryGuard) -> StreamContext {
        StreamContext {
            stats: ExecStats::default(),
            trace: QueryTrace::from_plan(plan).with_timing(config.tracing),
            batch_size: config.batch_size.max(1),
            resident_rows: 0,
            resident_batches: 0,
            guard,
        }
    }

    /// The configured chunk size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Record kernel probes both in the aggregate and against the operator.
    pub(crate) fn add_probes(&mut self, id: OperatorId, probes: usize) {
        self.stats.add_probes(probes);
        self.trace.add_probes(id, probes);
    }

    /// Account for `rows` in `batches` newly materialized batches.
    pub(crate) fn acquire(&mut self, rows: usize, batches: usize) {
        self.resident_rows += rows;
        self.resident_batches += batches;
        self.stats
            .note_resident(self.resident_batches, self.resident_rows);
    }

    /// Account for the release of previously acquired batches.
    pub(crate) fn release(&mut self, rows: usize, batches: usize) {
        self.resident_rows = self.resident_rows.saturating_sub(rows);
        self.resident_batches = self.resident_batches.saturating_sub(batches);
    }

    /// Consult the query guard against the current resident footprint,
    /// attributing a trip to `label`.
    pub(crate) fn check_guard(&self, label: &str) -> Result<()> {
        self.guard.check(self.resident_rows, label)
    }

    /// Rows currently resident (in-flight chunks plus retained state).
    pub(crate) fn resident_rows(&self) -> usize {
        self.resident_rows
    }

    /// Attribute a transient retained-state peak to operator `id` in the
    /// trace (no accounting change — pair with explicit acquire/release).
    pub(crate) fn note_retained(&mut self, id: OperatorId, rows: usize) {
        self.trace.note_retained(id, rows);
    }

    /// The resident-row threshold at which spilling operators should start
    /// partitioning to disk (see [`QueryGuard::spill_budget`]).
    pub(crate) fn spill_threshold(&self) -> Option<usize> {
        self.guard.spill_budget()
    }
}

/// A pull-based operator yielding [`ColumnarBatch`] chunks.
///
/// The streaming counterpart of one [`PhysicalPlan`] node. An operator is
/// *opened* by construction ([`compile_stream`]), pulled with
/// [`BatchStream::next_batch`] until it returns `Ok(None)`, and *closed*
/// exactly once with [`BatchStream::close`] — which records the operator's
/// statistics (whatever it actually processed, which is the early-
/// termination contract) and releases retained state. Operators never emit
/// empty batches.
pub trait BatchStream: Send {
    /// The schema every emitted batch carries (known before execution).
    fn schema(&self) -> &Schema;

    /// Pull the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>>;

    /// Record statistics and release retained state; closes children.
    /// Idempotent.
    fn close(&mut self, ctx: &mut StreamContext);
}

/// Per-operator bookkeeping shared by every [`BatchStream`] implementation.
#[derive(Debug)]
pub(crate) struct OpMeta {
    pub(crate) id: OperatorId,
    pub(crate) label: String,
    emitted: usize,
    is_scan: bool,
    is_root: bool,
    pub(crate) closed: bool,
}

impl OpMeta {
    fn new(id: OperatorId, plan: &PhysicalPlan, is_root: bool) -> OpMeta {
        OpMeta {
            id,
            label: plan.label(),
            emitted: 0,
            is_scan: matches!(
                plan,
                PhysicalPlan::TableScan { .. } | PhysicalPlan::Values { .. }
            ),
            is_root,
            closed: false,
        }
    }

    /// Account an emitted batch (acquiring it in the resident tracking) and
    /// pass it on — unless the query guard trips, in which case the batch
    /// is rolled back out of the accounting and the typed governance error
    /// propagates instead. This is the cooperative enforcement point: every
    /// operator's emissions funnel through here, so cancellation, deadline
    /// and budget are all observed within one batch boundary. The
    /// `{label}.next_batch` failpoint fires here too.
    pub(crate) fn emit(
        &mut self,
        ctx: &mut StreamContext,
        batch: ColumnarBatch,
    ) -> Result<Option<ColumnarBatch>> {
        crate::failpoint::hit(&self.label, "next_batch")?;
        let rows = batch.num_rows();
        self.emitted += rows;
        ctx.acquire(rows, 1);
        if let Err(err) = ctx.check_guard(&self.label) {
            ctx.release(rows, 1);
            self.emitted -= rows;
            return Err(err);
        }
        Ok(Some(batch))
    }

    /// Record this operator's row total once — in the aggregate stats and
    /// against its node in the operator trace.
    pub(crate) fn record(&mut self, ctx: &mut StreamContext) {
        if !self.closed {
            self.closed = true;
            // Close-site failpoints can only delay (close is infallible);
            // an armed error action is deliberately swallowed.
            let _ = crate::failpoint::hit(&self.label, "close");
            ctx.stats
                .record(&self.label, self.emitted, self.is_scan, self.is_root);
            ctx.trace.set_rows_out(self.id, self.emitted);
        }
    }
}

/// Release an input chunk after the operator is done with it.
pub(crate) fn consumed(ctx: &mut StreamContext, chunk: &ColumnarBatch) {
    ctx.release(chunk.num_rows(), 1);
}

/// Drain `child` completely and concatenate its chunks into one batch (the
/// blocking-boundary primitive). The chunks' resident accounting transfers
/// to the returned batch. `label` is the draining (parent) operator, which
/// the guard blames when the materialized buffer itself trips the budget —
/// the build-phase enforcement point of the blocking operators.
pub(crate) fn drain_to_batch(
    child: &mut Box<dyn BatchStream>,
    ctx: &mut StreamContext,
    label: &str,
) -> Result<ColumnarBatch> {
    let mut chunks = Vec::new();
    loop {
        match child.next_batch(ctx) {
            Ok(Some(chunk)) => chunks.push(chunk),
            Ok(None) => break,
            Err(err) => {
                // The chunks already accumulated were acquired by the
                // child's emissions; they die here, so their accounting
                // must be rolled back before the error propagates.
                for chunk in &chunks {
                    consumed(ctx, chunk);
                }
                return Err(err);
            }
        }
    }
    let schema = child.schema().clone();
    let batch = partition::concat_batches(&chunks).unwrap_or_else(|| ColumnarBatch::empty(schema));
    for chunk in &chunks {
        consumed(ctx, chunk);
    }
    ctx.acquire(batch.num_rows(), 1);
    if let Err(err) = ctx.check_guard(label) {
        ctx.release(batch.num_rows(), 1);
        return Err(err);
    }
    Ok(batch)
}

/// Serve a materialized batch downstream in `batch_size` chunks, releasing
/// it when exhausted.
#[derive(Debug, Default)]
pub(crate) struct ChunkCursor {
    batch: Option<ColumnarBatch>,
    pos: usize,
}

impl ChunkCursor {
    pub(crate) fn new(batch: ColumnarBatch) -> ChunkCursor {
        ChunkCursor {
            batch: Some(batch),
            pos: 0,
        }
    }

    /// The caller wraps every returned chunk in `OpMeta::emit`, which is
    /// where the chunk's acquire happens — this method only balances the
    /// *source* batch's accounting (including the whole-batch handover,
    /// whose creation-time acquire is released here so `emit`'s acquire
    /// does not double-count it).
    pub(crate) fn next(&mut self, ctx: &mut StreamContext) -> Option<ColumnarBatch> {
        let rows = self.batch.as_ref()?.num_rows();
        if self.pos >= rows {
            self.release(ctx);
            return None;
        }
        // Whole batch fits one chunk: hand it over instead of copying.
        if self.pos == 0 && rows <= ctx.batch_size {
            self.pos = rows;
            ctx.release(rows, 1);
            return self.batch.take();
        }
        let end = (self.pos + ctx.batch_size).min(rows);
        let chunk = self.batch.as_ref()?.slice(self.pos..end);
        self.pos = end;
        if self.pos >= rows {
            self.release(ctx);
        }
        Some(chunk)
    }

    pub(crate) fn release(&mut self, ctx: &mut StreamContext) {
        if let Some(batch) = self.batch.take() {
            ctx.release(batch.num_rows(), 1);
        }
    }
}

// ---------------------------------------------------------------------------
// Source operators
// ---------------------------------------------------------------------------

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
struct ScanStream {
    meta: OpMeta,
    table: Arc<TableSegments>,
    predicate: Option<Predicate>,
    /// The segment being emitted and the first row of it not yet emitted.
    segment: usize,
    offset: usize,
}

impl ScanStream {
    fn new(meta: OpMeta, table: Arc<TableSegments>, predicate: Option<Predicate>) -> ScanStream {
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
struct ExternalScanStream {
    meta: OpMeta,
    schema: Schema,
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
    fn new(
        meta: OpMeta,
        table: Arc<dyn div_expr::ExternalTable>,
        predicate: Option<Predicate>,
    ) -> ExternalScanStream {
        ExternalScanStream {
            meta,
            schema: table.schema().clone(),
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
        &self.schema
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

// ---------------------------------------------------------------------------
// Pipelining operators
// ---------------------------------------------------------------------------

/// Predicate filter: one chunk in, at most one chunk out.
struct FilterStream {
    meta: OpMeta,
    child: Box<dyn BatchStream>,
    predicate: Predicate,
}

impl BatchStream for FilterStream {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        while let Some(chunk) = self.child.next_batch(ctx)? {
            let filtered = kernels::filter(&chunk, &self.predicate);
            consumed(ctx, &chunk);
            let out = filtered.map_err(ExprError::from)?;
            if out.num_rows() > 0 {
                return self.meta.emit(ctx, out);
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.child.close(ctx);
    }
}

/// Tracks the rows retained by a cross-chunk state object (distinct store,
/// divide groups, join build) in the resident accounting.
#[derive(Debug, Default)]
pub(crate) struct RetainedState {
    rows: usize,
    counted_batch: bool,
}

impl RetainedState {
    /// Grow the retained footprint to `rows` (monotone), attributing the
    /// peak to operator `id` in the trace.
    pub(crate) fn grow_to(&mut self, ctx: &mut StreamContext, id: OperatorId, rows: usize) {
        ctx.trace.note_retained(id, rows);
        if rows > self.rows {
            let batches = usize::from(!self.counted_batch && rows > 0);
            self.counted_batch |= batches > 0;
            ctx.acquire(rows - self.rows, batches);
            self.rows = rows;
        }
    }

    pub(crate) fn release(&mut self, ctx: &mut StreamContext) {
        ctx.release(self.rows, usize::from(self.counted_batch));
        self.rows = 0;
        self.counted_batch = false;
    }
}

/// Projection with *streaming* duplicate elimination: columns are cut per
/// chunk, and a cross-chunk distinct store keeps set semantics. Every
/// stream emits globally duplicate-free rows (scans read sets, and each
/// operator preserves or restores distinctness), so a projection that keeps
/// every input column cannot introduce duplicates and skips the store
/// entirely (`distinct` is `None`).
struct ProjectStream {
    meta: OpMeta,
    child: Box<dyn BatchStream>,
    schema: Schema,
    indices: Vec<usize>,
    distinct: Option<StreamingDistinct>,
    retained: RetainedState,
}

impl BatchStream for ProjectStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        while let Some(chunk) = self.child.next_batch(ctx)? {
            let projected = chunk.with_columns(self.schema.clone(), &self.indices);
            let fresh = match self.distinct.as_mut() {
                Some(distinct) => {
                    let fresh = distinct.push(&projected);
                    let retained_rows = distinct.len();
                    self.retained.grow_to(ctx, self.meta.id, retained_rows);
                    fresh
                }
                None => projected,
            };
            consumed(ctx, &chunk);
            if fresh.num_rows() > 0 {
                return self.meta.emit(ctx, fresh);
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.child.close(ctx);
    }
}

/// Attribute renaming: pure metadata, chunk through.
struct RenameStream {
    meta: OpMeta,
    child: Box<dyn BatchStream>,
    schema: Schema,
}

impl BatchStream for RenameStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        match self.child.next_batch(ctx)? {
            None => Ok(None),
            Some(chunk) => {
                // Genuinely metadata-only: reuse the chunk's column data
                // under the renamed schema, no copies. The chunk's resident
                // accounting transfers to the output, so balance it against
                // emit's acquire.
                consumed(ctx, &chunk);
                let (_, columns, rows) = chunk.into_parts();
                let out = ColumnarBatch::from_parts(self.schema.clone(), columns, rows);
                self.meta.emit(ctx, out)
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.child.close(ctx);
    }
}

/// Set union: append both inputs chunk-at-a-time (right chunks conformed to
/// the left schema), with a cross-chunk distinct store for set semantics.
struct UnionStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    schema: Schema,
    distinct: StreamingDistinct,
    retained: RetainedState,
    left_done: bool,
}

impl BatchStream for UnionStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        loop {
            let (chunk, conform) = if !self.left_done {
                match self.left.next_batch(ctx)? {
                    Some(chunk) => (chunk, false),
                    None => {
                        self.left_done = true;
                        continue;
                    }
                }
            } else {
                match self.right.next_batch(ctx)? {
                    Some(chunk) => (chunk, true),
                    None => return Ok(None),
                }
            };
            // Only right-side chunks need a conforming copy; left chunks
            // feed the distinct store directly.
            let pushed = if conform {
                chunk
                    .conform_to(&self.schema)
                    .map(|aligned| self.distinct.push(&aligned))
            } else {
                Ok(self.distinct.push(&chunk))
            };
            consumed(ctx, &chunk);
            let fresh = pushed.map_err(ExprError::from)?;
            self.retained
                .grow_to(ctx, self.meta.id, self.distinct.len());
            if fresh.num_rows() > 0 {
                return self.meta.emit(ctx, fresh);
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.left.close(ctx);
        self.right.close(ctx);
    }
}

// ---------------------------------------------------------------------------
// Build-probe operators: eager table side, streamed probe side
// ---------------------------------------------------------------------------

/// Which hash join a [`HashJoinStream`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamJoinKind {
    Natural,
    Semi,
    Anti,
}

/// Hash natural/semi/anti join: the right (build) side is drained eagerly
/// into a [`JoinBuild`]; the left (probe) side then streams through it one
/// chunk at a time.
struct HashJoinStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Option<Box<dyn BatchStream>>,
    kind: StreamJoinKind,
    schema: Schema,
    build: Option<JoinBuild>,
    retained: RetainedState,
}

impl HashJoinStream {
    fn ensure_build(&mut self, ctx: &mut StreamContext) -> Result<()> {
        if self.build.is_some() {
            return Ok(());
        }
        let mut right = self.right.take().expect("build side compiled once");
        let batch = match drain_to_batch(&mut right, ctx, &self.meta.label) {
            Ok(batch) => batch,
            Err(err) => {
                // Put the child back so close() still tears down its
                // subtree (releasing any retained state it holds).
                self.right = Some(right);
                return Err(err);
            }
        };
        right.close(ctx);
        let rows = batch.num_rows();
        let build = match JoinBuild::new(self.left.schema(), batch) {
            Ok(build) => build,
            Err(err) => {
                ctx.release(rows, 1);
                return Err(ExprError::from(err));
            }
        };
        // The drained batch now lives inside the build; keep its accounting
        // under the retained state.
        ctx.release(rows, 1);
        self.retained.grow_to(ctx, self.meta.id, rows);
        self.build = Some(build);
        Ok(())
    }
}

impl BatchStream for HashJoinStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        self.ensure_build(ctx)?;
        let build = self.build.as_ref().expect("built above");
        while let Some(chunk) = self.left.next_batch(ctx)? {
            let probed = match self.kind {
                StreamJoinKind::Natural => build.probe_natural(&chunk),
                StreamJoinKind::Semi => build.probe_semi(&chunk, false),
                StreamJoinKind::Anti => build.probe_semi(&chunk, true),
            };
            // The probed chunk is finished with either way — release it
            // before a kernel error can propagate past its accounting.
            consumed(ctx, &chunk);
            let KernelOutput { batch, probes } = probed.map_err(ExprError::from)?;
            ctx.add_probes(self.meta.id, probes);
            if batch.num_rows() > 0 {
                return self.meta.emit(ctx, batch);
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.left.close(ctx);
        if let Some(right) = self.right.as_mut() {
            right.close(ctx);
        }
    }
}

/// Nested-loop theta-join: the right side is materialized once, the left
/// (probe) side streams through the theta-join kernel chunk-at-a-time.
struct ThetaJoinStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Option<Box<dyn BatchStream>>,
    predicate: Predicate,
    schema: Schema,
    right_batch: Option<ColumnarBatch>,
    retained: RetainedState,
}

impl BatchStream for ThetaJoinStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.right_batch.is_none() {
            let mut right = self.right.take().expect("right side compiled once");
            let batch = match drain_to_batch(&mut right, ctx, &self.meta.label) {
                Ok(batch) => batch,
                Err(err) => {
                    self.right = Some(right);
                    return Err(err);
                }
            };
            right.close(ctx);
            ctx.release(batch.num_rows(), 1);
            self.retained.grow_to(ctx, self.meta.id, batch.num_rows());
            self.right_batch = Some(batch);
        }
        let right = self.right_batch.as_ref().expect("materialized above");
        while let Some(chunk) = self.left.next_batch(ctx)? {
            let joined = kernels::theta_join(&chunk, right, &self.predicate);
            consumed(ctx, &chunk);
            let KernelOutput { batch, probes } = joined.map_err(ExprError::from)?;
            ctx.add_probes(self.meta.id, probes);
            if batch.num_rows() > 0 {
                return self.meta.emit(ctx, batch);
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.left.close(ctx);
        if let Some(right) = self.right.as_mut() {
            right.close(ctx);
        }
    }
}

/// Division: the divisor is materialized eagerly; the dividend is *consumed*
/// chunk-at-a-time into coverage state (memory ∝ quotient groups, never the
/// dividend). The quotient itself is only known at the end, so the output is
/// served from a [`ChunkCursor`] once the dividend is exhausted.
struct DivideStream {
    meta: OpMeta,
    dividend: Box<dyn BatchStream>,
    divisor: Option<Box<dyn BatchStream>>,
    great: bool,
    schema: Schema,
    out: Option<ChunkCursor>,
    retained: RetainedState,
    kernel_rows: Option<usize>,
}

impl DivideStream {
    fn kernel_label(&self) -> &'static str {
        if self.great {
            "ColumnarCountingGreatDivision"
        } else {
            "ColumnarHashDivision"
        }
    }
}

impl BatchStream for DivideStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.out.is_none() {
            // Build phase: materialize the divisor, then stream the whole
            // dividend through the coverage state.
            let mut divisor = self.divisor.take().expect("divisor compiled once");
            let divisor_batch = match drain_to_batch(&mut divisor, ctx, &self.meta.label) {
                Ok(batch) => batch,
                Err(err) => {
                    self.divisor = Some(divisor);
                    return Err(err);
                }
            };
            divisor.close(ctx);
            let divisor_rows = divisor_batch.num_rows();
            ctx.release(divisor_rows, 1);
            self.retained.grow_to(ctx, self.meta.id, divisor_rows);
            // `StreamingGreatDivide` degrades to the small divide exactly
            // when the divisor has no attributes of its own — which is the
            // planner's precondition for `PhysicalPlan::Divide` — so one
            // state type serves both division nodes; only the recorded
            // kernel label differs.
            let mut state = StreamingGreatDivide::new(self.dividend.schema(), divisor_batch)
                .map_err(ExprError::from)?;
            while let Some(chunk) = self.dividend.next_batch(ctx)? {
                let probes = state.consume(&chunk);
                ctx.add_probes(self.meta.id, probes);
                consumed(ctx, &chunk);
                self.retained
                    .grow_to(ctx, self.meta.id, divisor_rows + state.groups());
                // The coverage state itself can outgrow the budget even
                // though each consumed chunk passed its own check.
                ctx.check_guard(&self.meta.label)?;
            }
            let quotient = state.finish().map_err(ExprError::from)?;
            self.kernel_rows = Some(quotient.num_rows());
            self.retained.release(ctx);
            ctx.acquire(quotient.num_rows(), 1);
            self.out = Some(ChunkCursor::new(quotient));
        }
        let out = self.out.as_mut().expect("set above");
        match out.next(ctx) {
            Some(chunk) => self.meta.emit(ctx, chunk),
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        if !self.meta.closed {
            if let Some(rows) = self.kernel_rows {
                ctx.stats.record(self.kernel_label(), rows, false, false);
            }
        }
        self.meta.record(ctx);
        self.retained.release(ctx);
        if let Some(out) = self.out.as_mut() {
            out.release(ctx);
        }
        self.dividend.close(ctx);
        if let Some(divisor) = self.divisor.as_mut() {
            divisor.close(ctx);
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking operators
// ---------------------------------------------------------------------------

/// Which fully blocking binary kernel a [`BlockingStream`] runs. The
/// Cartesian product is *not* here: its output is quadratic, so it gets the
/// incremental [`ProductStream`] whose emissions stay guard-checkable.
enum BlockingKind {
    Intersect,
    Difference,
    /// Unary aggregation (the `right` child is absent).
    Aggregate {
        group_by: Vec<String>,
        aggregates: Vec<div_algebra::AggregateCall>,
    },
}

/// An explicit blocking boundary: drain the input(s), run the batch kernel
/// once, serve the result in chunks.
struct BlockingStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Option<Box<dyn BatchStream>>,
    kind: BlockingKind,
    schema: Schema,
    out: Option<ChunkCursor>,
}

impl BatchStream for BlockingStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.out.is_none() {
            let left = drain_to_batch(&mut self.left, ctx, &self.meta.label)?;
            let right = match self.right.as_mut() {
                Some(right) => match drain_to_batch(right, ctx, &self.meta.label) {
                    Ok(batch) => Some(batch),
                    Err(err) => {
                        // The left side was already drained and acquired;
                        // roll it back before the error propagates.
                        ctx.release(left.num_rows(), 1);
                        return Err(err);
                    }
                },
                None => None,
            };
            let result = match (&self.kind, &right) {
                (BlockingKind::Intersect, Some(r)) => kernels::intersect(&left, r),
                (BlockingKind::Difference, Some(r)) => kernels::difference(&left, r),
                (
                    BlockingKind::Aggregate {
                        group_by,
                        aggregates,
                    },
                    None,
                ) => {
                    let refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
                    kernels::hash_aggregate(&left, &refs, aggregates)
                }
                _ => unreachable!("blocking kind/arity mismatch is impossible by construction"),
            };
            let buffered = left.num_rows() + right.as_ref().map_or(0, ColumnarBatch::num_rows);
            ctx.release(left.num_rows(), 1);
            if let Some(r) = &right {
                ctx.release(r.num_rows(), 1);
            }
            let result = result.map_err(ExprError::from)?;
            ctx.trace
                .note_retained(self.meta.id, buffered + result.num_rows());
            ctx.acquire(result.num_rows(), 1);
            if let Err(err) = ctx.check_guard(&self.meta.label) {
                ctx.release(result.num_rows(), 1);
                return Err(err);
            }
            self.out = Some(ChunkCursor::new(result));
        }
        let out = self.out.as_mut().expect("set above");
        match out.next(ctx) {
            Some(chunk) => self.meta.emit(ctx, chunk),
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        if let Some(out) = self.out.as_mut() {
            out.release(ctx);
        }
        self.left.close(ctx);
        if let Some(right) = self.right.as_mut() {
            right.close(ctx);
        }
    }
}

/// Cartesian product served incrementally: both inputs are drained (they
/// are genuinely blocking — every pair must be formed), but the quadratic
/// *output* is produced one bounded slice at a time —
/// [`kernels::cross_product_slice`] crosses a few left rows against the
/// whole right side per call, sized so each emitted chunk is about
/// `batch_size` rows. A runaway product under a deadline or budget is
/// therefore stopped at the next batch boundary instead of after
/// materializing |L|·|R| rows, which is the whole point of the governance
/// layer.
struct ProductStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Option<Box<dyn BatchStream>>,
    schema: Schema,
    /// Drained `(left, right)` inputs, kept for the duration of the serve
    /// phase under `retained` accounting.
    inputs: Option<(ColumnarBatch, ColumnarBatch)>,
    /// Next left row to cross.
    pos: usize,
    retained: RetainedState,
    done: bool,
}

impl BatchStream for ProductStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.done {
            return Ok(None);
        }
        if self.inputs.is_none() {
            let left = drain_to_batch(&mut self.left, ctx, &self.meta.label)?;
            let mut right_child = self.right.take().expect("right side compiled once");
            let right = match drain_to_batch(&mut right_child, ctx, &self.meta.label) {
                Ok(batch) => batch,
                Err(err) => {
                    ctx.release(left.num_rows(), 1);
                    self.right = Some(right_child);
                    return Err(err);
                }
            };
            right_child.close(ctx);
            // Both inputs stay buffered while slices are served; move their
            // accounting under the retained state so a budget trip mid-serve
            // still drains to zero at close.
            ctx.release(left.num_rows(), 1);
            ctx.release(right.num_rows(), 1);
            self.retained
                .grow_to(ctx, self.meta.id, left.num_rows() + right.num_rows());
            self.inputs = Some((left, right));
        }
        let (left, right) = self.inputs.as_ref().expect("drained above");
        let (l_rows, r_rows) = (left.num_rows(), right.num_rows());
        if self.pos >= l_rows || r_rows == 0 {
            self.done = true;
            return Ok(None);
        }
        // Cross enough left rows that the chunk is about batch_size rows.
        let per_slice = (ctx.batch_size / r_rows.max(1)).max(1);
        let end = (self.pos + per_slice).min(l_rows);
        let chunk =
            kernels::cross_product_slice(left, self.pos..end, right).map_err(ExprError::from)?;
        self.pos = end;
        if self.pos >= l_rows {
            self.done = true;
        }
        self.meta.emit(ctx, chunk)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.inputs = None;
        self.left.close(ctx);
        if let Some(right) = self.right.as_mut() {
            right.close(ctx);
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

fn schema_mismatch(left: &Schema, right: &Schema, operation: &'static str) -> ExprError {
    ExprError::from(AlgebraError::SchemaMismatch {
        left: left.to_string(),
        right: right.to_string(),
        operation,
    })
}

/// Compile a physical plan into a streaming operator tree rooted at a
/// [`BatchStream`]. Schema inference and validation happen here, before any
/// batch flows; the returned stream shares the catalog's base tables (an
/// in-memory table is converted to columnar segments by the first scan
/// compiled over it, and no chunk is copied until it is actually pulled).
pub fn compile_stream(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> Result<Box<dyn BatchStream>> {
    // Standalone compilation (outside a `StreamExecutor`) discards the
    // open-phase spans; ids are still assigned so runtime attribution works.
    let mut trace = QueryTrace::from_plan(plan).with_timing(config.tracing);
    let mut next_id = 0;
    compile(plan, catalog, config, true, &mut trace, &mut next_id)
}

fn compile(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
    is_root: bool,
    trace: &mut QueryTrace,
    next_id: &mut usize,
) -> Result<Box<dyn BatchStream>> {
    compile_with_pushdown(plan, catalog, config, is_root, trace, next_id, None)
}

/// Like [`compile`], but with a predicate the *immediate* plan node may
/// push down — only the `TableScan` arm consumes it (handing it to the
/// zone-map-skipping scan of a resident or attached table); every other
/// node ignores it, so a pushdown never crosses more than one plan edge.
fn compile_with_pushdown(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
    is_root: bool,
    trace: &mut QueryTrace,
    next_id: &mut usize,
    pushdown: Option<&Predicate>,
) -> Result<Box<dyn BatchStream>> {
    // Ids are assigned at entry of this pre-order walk, so they match the
    // skeleton [`QueryTrace::from_plan`] built from the same plan.
    let id = OperatorId(*next_id);
    *next_id += 1;
    let meta = OpMeta::new(id, plan, is_root);
    crate::failpoint::hit(&meta.label, "open")?;
    let opened = trace.span_start();
    let stream = compile_node(plan, catalog, config, meta, trace, next_id, pushdown)?;
    if let Some(started) = opened {
        // Inclusive of the children compiled inside `compile_node`.
        trace.add_open(id, started.elapsed());
        return Ok(Box::new(TimedStream { id, inner: stream }));
    }
    Ok(stream)
}

fn compile_node(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
    meta: OpMeta,
    trace: &mut QueryTrace,
    next_id: &mut usize,
    pushdown: Option<&Predicate>,
) -> Result<Box<dyn BatchStream>> {
    // Spilling variants are compiled only when the configuration both asks
    // for them and arms the budget they spill against; otherwise the plain
    // operators run (and the budget, if any, aborts).
    let spill = config.spill_to_disk && config.memory_budget_rows.is_some();
    Ok(match plan {
        PhysicalPlan::TableScan { table } => match catalog.external(table) {
            Some(external) => Box::new(ExternalScanStream::new(meta, external, pushdown.cloned())),
            None => Box::new(ScanStream::new(
                meta,
                catalog.table_segments(table)?,
                pushdown.cloned(),
            )),
        },
        PhysicalPlan::Values { relation } => {
            // Inline constants are owned by the plan, which does not outlive
            // compilation — materialize them as one pre-chunked cursor-less
            // scan over an owned batch instead.
            Box::new(ValuesStream {
                meta,
                schema: relation.schema().clone(),
                batch: ColumnarBatch::from_relation(relation),
                pos: 0,
            })
        }
        PhysicalPlan::Filter { input, predicate } => Box::new(FilterStream {
            meta,
            // The filter's own predicate is offered to its child as a
            // pushdown (consumed only by table scans, whose zone
            // maps may then skip whole chunks). The filter still re-applies
            // the predicate — chunk skipping is conservative, not exact.
            child: compile_with_pushdown(
                input,
                catalog,
                config,
                false,
                trace,
                next_id,
                Some(predicate),
            )?,
            predicate: predicate.clone(),
        }),
        PhysicalPlan::Project { input, attributes } => {
            let child = compile(input, catalog, config, false, trace, next_id)?;
            let refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
            let schema = child.schema().project(&refs).map_err(ExprError::from)?;
            let indices = child
                .schema()
                .projection_indices(&refs)
                .map_err(ExprError::from)?;
            // A projection that keeps every column (in any order) of a
            // duplicate-free stream stays duplicate-free — only a narrowing
            // projection needs the distinct store.
            let distinct = (indices.len() < child.schema().arity())
                .then(|| StreamingDistinct::new(schema.clone()));
            Box::new(ProjectStream {
                meta,
                child,
                distinct,
                schema,
                indices,
                retained: RetainedState::default(),
            })
        }
        PhysicalPlan::Rename { input, renames } => {
            let child = compile(input, catalog, config, false, trace, next_id)?;
            let schema = child
                .schema()
                .rename_with(|name| {
                    renames
                        .iter()
                        .find(|(from, _)| from == name)
                        .map(|(_, to)| to.clone())
                        .unwrap_or_else(|| name.to_string())
                })
                .map_err(ExprError::from)?;
            Box::new(RenameStream {
                meta,
                child,
                schema,
            })
        }
        PhysicalPlan::Union { left, right } => {
            let left = compile(left, catalog, config, false, trace, next_id)?;
            let right = compile(right, catalog, config, false, trace, next_id)?;
            if !left.schema().is_compatible_with(right.schema()) {
                return Err(schema_mismatch(left.schema(), right.schema(), "union"));
            }
            let schema = left.schema().clone();
            Box::new(UnionStream {
                meta,
                left,
                right,
                distinct: StreamingDistinct::new(schema.clone()),
                schema,
                retained: RetainedState::default(),
                left_done: false,
            })
        }
        PhysicalPlan::Intersect { left, right } | PhysicalPlan::Difference { left, right } => {
            let (kind, operation) = if matches!(plan, PhysicalPlan::Intersect { .. }) {
                (BlockingKind::Intersect, "intersection")
            } else {
                (BlockingKind::Difference, "difference")
            };
            let left = compile(left, catalog, config, false, trace, next_id)?;
            let right = compile(right, catalog, config, false, trace, next_id)?;
            if !left.schema().is_compatible_with(right.schema()) {
                return Err(schema_mismatch(left.schema(), right.schema(), operation));
            }
            let schema = left.schema().clone();
            Box::new(BlockingStream {
                meta,
                left,
                right: Some(right),
                kind,
                schema,
                out: None,
            })
        }
        PhysicalPlan::CrossProduct { left, right } => {
            let left = compile(left, catalog, config, false, trace, next_id)?;
            let right = compile(right, catalog, config, false, trace, next_id)?;
            let schema = left
                .schema()
                .concat(right.schema())
                .map_err(ExprError::from)?;
            Box::new(ProductStream {
                meta,
                left,
                right: Some(right),
                schema,
                inputs: None,
                pos: 0,
                retained: RetainedState::default(),
                done: false,
            })
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let left = compile(left, catalog, config, false, trace, next_id)?;
            let right = compile(right, catalog, config, false, trace, next_id)?;
            let schema = left
                .schema()
                .concat(right.schema())
                .map_err(ExprError::from)?;
            Box::new(ThetaJoinStream {
                meta,
                left,
                right: Some(right),
                predicate: predicate.clone(),
                schema,
                right_batch: None,
                retained: RetainedState::default(),
            })
        }
        PhysicalPlan::HashJoin { left, right }
        | PhysicalPlan::HashSemiJoin { left, right }
        | PhysicalPlan::HashAntiSemiJoin { left, right } => {
            let kind = match plan {
                PhysicalPlan::HashJoin { .. } => StreamJoinKind::Natural,
                PhysicalPlan::HashSemiJoin { .. } => StreamJoinKind::Semi,
                _ => StreamJoinKind::Anti,
            };
            let left = compile(left, catalog, config, false, trace, next_id)?;
            let right = compile(right, catalog, config, false, trace, next_id)?;
            let schema = match kind {
                StreamJoinKind::Natural => left.schema().natural_union(right.schema()),
                _ => left.schema().clone(),
            };
            if spill {
                Box::new(crate::stream_spill::SpillingHashJoinStream::new(
                    meta, left, right, kind, schema,
                ))
            } else {
                Box::new(HashJoinStream {
                    meta,
                    left,
                    right: Some(right),
                    kind,
                    schema,
                    build: None,
                    retained: RetainedState::default(),
                })
            }
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggregates,
        } => {
            let child = compile(input, catalog, config, false, trace, next_id)?;
            let mut names: Vec<String> = group_by.clone();
            for agg in aggregates {
                child
                    .schema()
                    .require(&agg.input)
                    .map_err(ExprError::from)?;
                names.push(agg.output.clone());
            }
            // Validate the grouping attributes too.
            child
                .schema()
                .projection_indices(&group_by.iter().map(String::as_str).collect::<Vec<_>>())
                .map_err(ExprError::from)?;
            let schema = Schema::new(names).map_err(ExprError::from)?;
            // An aggregation without grouping attributes has nothing to
            // partition on (every row belongs to the one global group), so
            // it stays a plain blocking boundary even in spill mode.
            if spill && !group_by.is_empty() {
                Box::new(crate::stream_spill::SpillingAggregateStream::new(
                    meta,
                    child,
                    group_by.clone(),
                    aggregates.clone(),
                    schema,
                ))
            } else {
                Box::new(BlockingStream {
                    meta,
                    left: child,
                    right: None,
                    kind: BlockingKind::Aggregate {
                        group_by: group_by.clone(),
                        aggregates: aggregates.clone(),
                    },
                    schema,
                    out: None,
                })
            }
        }
        PhysicalPlan::Divide {
            dividend, divisor, ..
        }
        | PhysicalPlan::GreatDivide {
            dividend, divisor, ..
        } => {
            let great = matches!(plan, PhysicalPlan::GreatDivide { .. });
            let dividend = compile(dividend, catalog, config, false, trace, next_id)?;
            let divisor = compile(divisor, catalog, config, false, trace, next_id)?;
            let schema = if great {
                kernels::great_quotient_schema(dividend.schema(), divisor.schema())
            } else {
                kernels::quotient_schema(dividend.schema(), divisor.schema())
            }
            .map_err(ExprError::from)?;
            if spill {
                Box::new(crate::stream_spill::SpillingDivideStream::new(
                    meta, dividend, divisor, great, schema,
                ))
            } else {
                Box::new(DivideStream {
                    meta,
                    dividend,
                    divisor: Some(divisor),
                    great,
                    schema,
                    out: None,
                    retained: RetainedState::default(),
                    kernel_rows: None,
                })
            }
        }
    })
}

/// Transparent timing wrapper installed around every operator when
/// [`PlannerConfig::tracing`] is on: one `Instant` pair per `next_batch` /
/// `close` call (never per row), accumulated into the operator's trace
/// node. Spans are inclusive — children run inside the wrapped call — and
/// the untraced path never constructs this type, so plain executions pay
/// no clock reads at all.
struct TimedStream {
    id: OperatorId,
    inner: Box<dyn BatchStream>,
}

impl BatchStream for TimedStream {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        let started = Instant::now();
        let out = self.inner.next_batch(ctx);
        ctx.trace.add_next(self.id, started.elapsed());
        out
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        let started = Instant::now();
        self.inner.close(ctx);
        ctx.trace.add_close(self.id, started.elapsed());
    }
}

/// Owned-batch variant of [`ScanStream`] for inline `Values` relations.
struct ValuesStream {
    meta: OpMeta,
    schema: Schema,
    batch: ColumnarBatch,
    pos: usize,
}

impl BatchStream for ValuesStream {
    fn schema(&self) -> &Schema {
        &self.schema
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

// ---------------------------------------------------------------------------
// The executor facade
// ---------------------------------------------------------------------------

/// A compiled streaming execution: pull batches with
/// [`StreamExecutor::next_batch`], then call [`StreamExecutor::finish`] for
/// the statistics. Dropping the executor early (or simply not pulling
/// further) short-circuits every upstream operator — scans never touch the
/// rows nobody asked for.
///
/// This is the engine room of `div_sql`'s `Cursor`; use it directly when
/// working below the SQL layer:
///
/// ```
/// use div_expr::{Catalog, PlanBuilder};
/// use div_physical::{plan_query, PlannerConfig, StreamExecutor};
///
/// let mut catalog = Catalog::new();
/// catalog.register(
///     "supplies",
///     div_algebra::relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] },
/// );
/// let logical = PlanBuilder::scan("supplies").project(["s#"]).build();
/// let config = PlannerConfig::default().batch_size(2);
/// let plan = plan_query(&logical, &config)?;
/// let mut stream = StreamExecutor::new(&plan, &catalog, &config)?;
/// let mut rows = 0;
/// while let Some(batch) = stream.next_batch()? {
///     rows += batch.num_rows();
/// }
/// let stats = stream.finish();
/// assert_eq!(rows, 2);
/// assert_eq!(stats.output_rows, 2);
/// assert_eq!(stats.rows_scanned, 3);
/// # Ok::<(), div_expr::ExprError>(())
/// ```
pub struct StreamExecutor {
    root: Box<dyn BatchStream>,
    ctx: StreamContext,
    schema: Schema,
    exhausted: bool,
    last_emitted: usize,
}

impl StreamExecutor {
    /// Compile `plan` into a streaming operator tree over `catalog`.
    ///
    /// Schema inference and validation run here; execution starts with the
    /// first [`StreamExecutor::next_batch`] call.
    pub fn new(
        plan: &PhysicalPlan,
        catalog: &Catalog,
        config: &PlannerConfig,
    ) -> Result<StreamExecutor> {
        StreamExecutor::with_guard(plan, catalog, config, QueryGuard::from_config(config))
    }

    /// Like [`StreamExecutor::new`], but with an explicit [`QueryGuard`] —
    /// the hook for attaching a [`crate::guard::CancelToken`] or a guard
    /// whose deadline was armed by a caller (e.g. a serving session)
    /// rather than derived from the config at compile time.
    pub fn with_guard(
        plan: &PhysicalPlan,
        catalog: &Catalog,
        config: &PlannerConfig,
        guard: QueryGuard,
    ) -> Result<StreamExecutor> {
        let mut ctx = StreamContext::new(plan, config, guard);
        let mut next_id = 0;
        let root = compile(plan, catalog, config, true, &mut ctx.trace, &mut next_id)?;
        let schema = root.schema().clone();
        Ok(StreamExecutor {
            root,
            ctx,
            schema,
            exhausted: false,
            last_emitted: 0,
        })
    }

    /// The result schema (available before any batch is pulled).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Pull the next non-empty result batch, or `None` once the stream is
    /// exhausted. After an error the stream is fused (returns `None`).
    pub fn next_batch(&mut self) -> Result<Option<ColumnarBatch>> {
        if self.exhausted {
            return Ok(None);
        }
        // The batch handed out previously has left the pipeline.
        self.ctx
            .release(self.last_emitted, usize::from(self.last_emitted > 0));
        self.last_emitted = 0;
        match self.root.next_batch(&mut self.ctx) {
            Ok(Some(batch)) => {
                self.last_emitted = batch.num_rows();
                Ok(Some(batch))
            }
            Ok(None) => {
                self.exhausted = true;
                Ok(None)
            }
            Err(err) => {
                self.exhausted = true;
                Err(err)
            }
        }
    }

    /// The statistics accumulated so far (operator totals are only recorded
    /// on [`StreamExecutor::finish`]).
    pub fn stats(&self) -> &ExecStats {
        &self.ctx.stats
    }

    /// Close the operator tree (recording every operator's totals — the
    /// rows each operator *actually* processed, which for an
    /// early-terminated stream is less than the full input), finalize the
    /// per-operator span tree into [`ExecStats::operators`], and return the
    /// statistics.
    pub fn finish(mut self) -> ExecStats {
        // The batch handed out last has left the pipeline (its rows belong
        // to the consumer now), exactly as in `next_batch`.
        self.ctx
            .release(self.last_emitted, usize::from(self.last_emitted > 0));
        self.last_emitted = 0;
        self.root.close(&mut self.ctx);
        self.ctx.stats.resident_rows_on_finish = self.ctx.resident_rows;
        self.ctx.stats.operators = self.ctx.trace.finish();
        self.ctx.stats
    }
}

impl std::fmt::Debug for StreamExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamExecutor")
            .field("schema", &self.schema)
            .field("exhausted", &self.exhausted)
            .field("stats", &self.ctx.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with_stats;
    use crate::guard::CancelToken;
    use crate::planner::plan_query;
    #[cfg(feature = "failpoints")]
    use crate::FailAction;
    use div_algebra::{relation, AggregateCall, CompareOp, Relation};
    use div_expr::PlanBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "supplies",
            relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 2] },
        );
        c.register(
            "parts",
            relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
        );
        c
    }

    fn collect(stream: &mut StreamExecutor) -> Relation {
        let mut out = Relation::empty(stream.schema().clone());
        while let Some(batch) = stream.next_batch().unwrap() {
            for i in 0..batch.num_rows() {
                out.insert(batch.row(i)).unwrap();
            }
        }
        out
    }

    #[test]
    fn streamed_q2_matches_the_row_backend_including_stats_totals() {
        let c = catalog();
        let logical = PlanBuilder::scan("supplies")
            .divide(
                PlanBuilder::scan("parts")
                    .select(div_algebra::Predicate::eq_value("color", "blue"))
                    .project(["p#"]),
            )
            .build();
        for batch_size in [1, 2, 1024] {
            let config = PlannerConfig::default().batch_size(batch_size);
            let plan = plan_query(&logical, &config).unwrap();
            let (expected, row_stats) = execute_with_stats(&plan, &c).unwrap();
            let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
            let got = collect(&mut stream);
            let stats = stream.finish();
            assert_eq!(got, expected, "batch_size {batch_size}");
            assert_eq!(stats.output_rows, row_stats.output_rows);
            assert_eq!(stats.rows_scanned, row_stats.rows_scanned);
            assert_eq!(stats.operators[0].label, "Divide[hash-division]");
            // Every plan operator plus the divide kernel's pseudo-operator.
            assert_eq!(stats.operators_executed, plan.operator_count() + 1);
            assert!(stats.peak_resident_batches > 0);
        }
    }

    #[test]
    fn early_termination_short_circuits_the_scan() {
        let mut c = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..10_000).map(|i| vec![i, i % 7]).collect();
        c.register("big", Relation::from_rows(["a", "b"], rows).unwrap());
        let logical = PlanBuilder::scan("big")
            .select(div_algebra::Predicate::cmp_value("b", CompareOp::LtEq, 6))
            .build();
        let config = PlannerConfig::default().batch_size(64);
        let plan = plan_query(&logical, &config).unwrap();
        let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
        let first = stream.next_batch().unwrap().expect("at least one batch");
        assert!(first.num_rows() > 0);
        let stats = stream.finish();
        assert!(
            stats.rows_scanned < 10_000,
            "scan must stop short, scanned {}",
            stats.rows_scanned
        );
        assert_eq!(stats.rows_scanned, 64);
    }

    #[test]
    fn deep_pipeline_keeps_peak_resident_rows_bounded_by_batch_size() {
        // The satellite pin: a filter/project pipeline over a chunked scan
        // holds O(batch_size) rows, not O(table). Depth 4 pipeline
        // (scan → filter → filter → project) over 20k rows, batch 256:
        // resident = a few in-flight chunks + the distinct store (7 rows).
        let mut c = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..20_000).map(|i| vec![i, i % 7]).collect();
        c.register("big", Relation::from_rows(["a", "b"], rows).unwrap());
        let logical = PlanBuilder::scan("big")
            .select(div_algebra::Predicate::cmp_value("a", CompareOp::GtEq, 0))
            .select(div_algebra::Predicate::cmp_value("b", CompareOp::LtEq, 6))
            .project(["b"])
            .build();
        let config = PlannerConfig::default().batch_size(256);
        let plan = plan_query(&logical, &config).unwrap();
        let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
        let got = collect(&mut stream);
        assert_eq!(got.len(), 7);
        let stats = stream.finish();
        assert_eq!(stats.output_rows, 7);
        assert_eq!(stats.rows_scanned, 20_000);
        assert!(
            stats.peak_resident_rows <= 8 * 256,
            "peak {} must be O(batch_size), table is 20000 rows",
            stats.peak_resident_rows
        );
        // The materializing executor, by contrast, holds a full-table
        // intermediate.
        let (_, row_stats) = execute_with_stats(&plan, &c).unwrap();
        assert!(row_stats.max_intermediate >= 20_000);
    }

    #[test]
    fn every_operator_shape_streams_identically_to_the_row_backend() {
        let c = catalog();
        let shapes = vec![
            PlanBuilder::scan("supplies")
                .natural_join(PlanBuilder::scan("parts"))
                .build(),
            PlanBuilder::scan("supplies")
                .semi_join(PlanBuilder::scan("parts"))
                .union(PlanBuilder::scan("supplies").anti_semi_join(PlanBuilder::scan("parts")))
                .build(),
            PlanBuilder::scan("supplies")
                .rename([("p#", "x")])
                .difference(PlanBuilder::values(relation! { ["s#", "x"] => [1, 1] }))
                .build(),
            PlanBuilder::scan("supplies")
                .intersect(
                    PlanBuilder::scan("supplies").select(div_algebra::Predicate::cmp_value(
                        "p#",
                        CompareOp::Lt,
                        3,
                    )),
                )
                .build(),
            PlanBuilder::scan("parts")
                .project(["p#"])
                .rename([("p#", "x")])
                .product(
                    PlanBuilder::scan("parts")
                        .project(["p#"])
                        .rename([("p#", "y")]),
                )
                .build(),
            PlanBuilder::scan("supplies")
                .theta_join(
                    PlanBuilder::scan("parts")
                        .rename([("p#", "q")])
                        .project(["q"]),
                    div_algebra::Predicate::cmp_attrs("p#", CompareOp::Lt, "q"),
                )
                .build(),
            PlanBuilder::scan("supplies")
                .group_aggregate(["s#"], [AggregateCall::count("p#", "n")])
                .build(),
            PlanBuilder::scan("supplies")
                .great_divide(PlanBuilder::scan("parts"))
                .build(),
        ];
        for logical in shapes {
            for batch_size in [1, 3, 1024] {
                let config = PlannerConfig::default().batch_size(batch_size);
                let plan = plan_query(&logical, &config).unwrap();
                let (expected, row_stats) = execute_with_stats(&plan, &c).unwrap();
                let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
                let got = collect(&mut stream);
                let stats = stream.finish();
                assert_eq!(got, expected, "batch_size {batch_size} plan:\n{plan}");
                assert_eq!(
                    stats.output_rows, row_stats.output_rows,
                    "batch_size {batch_size} plan:\n{plan}"
                );
                assert_eq!(
                    stats.rows_scanned, row_stats.rows_scanned,
                    "batch_size {batch_size} plan:\n{plan}"
                );
            }
        }
    }

    #[test]
    fn compile_errors_surface_before_execution() {
        let c = catalog();
        let missing = PhysicalPlan::TableScan {
            table: "nope".into(),
        };
        assert!(StreamExecutor::new(&missing, &c, &PlannerConfig::default()).is_err());
        // A small divide whose divisor attribute is not in the dividend is
        // rejected at compile time, before any batch flows.
        let bad_divide = PhysicalPlan::Divide {
            dividend: Box::new(PhysicalPlan::TableScan {
                table: "supplies".into(),
            }),
            divisor: Box::new(PhysicalPlan::TableScan {
                table: "parts".into(),
            }),
            algorithm: crate::division::DivisionAlgorithm::HashDivision,
        };
        assert!(StreamExecutor::new(&bad_divide, &c, &PlannerConfig::default()).is_err());
    }

    #[test]
    fn schema_is_known_before_execution_and_empty_results_keep_it() {
        let c = catalog();
        let logical = PlanBuilder::scan("supplies")
            .select(div_algebra::Predicate::cmp_value("s#", CompareOp::Gt, 99))
            .project(["s#"])
            .build();
        let config = PlannerConfig::default();
        let plan = plan_query(&logical, &config).unwrap();
        let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
        assert_eq!(stream.schema().names(), vec!["s#"]);
        assert!(stream.next_batch().unwrap().is_none());
        let stats = stream.finish();
        assert_eq!(stats.output_rows, 0);
    }

    /// A big self-product: |big| × |big| = 4M output rows, the runaway shape
    /// governance exists to stop.
    fn runaway_product() -> (Catalog, div_expr::LogicalPlan) {
        let mut c = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..2_000).map(|i| vec![i]).collect();
        c.register("big", Relation::from_rows(["a"], rows.clone()).unwrap());
        c.register("big2", Relation::from_rows(["b"], rows).unwrap());
        let logical = PlanBuilder::scan("big")
            .product(PlanBuilder::scan("big2"))
            .build();
        (c, logical)
    }

    fn drain_to_error(stream: &mut StreamExecutor) -> ExprError {
        loop {
            match stream.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("stream finished without tripping the guard"),
                Err(err) => return err,
            }
        }
    }

    #[test]
    fn cancellation_aborts_mid_drain_and_residency_drains_to_zero() {
        let (c, logical) = runaway_product();
        let config = PlannerConfig::default().batch_size(64);
        let plan = plan_query(&logical, &config).unwrap();
        let token = CancelToken::new();
        let guard = QueryGuard::default().with_token(token.clone());
        let mut stream = StreamExecutor::with_guard(&plan, &c, &config, guard).unwrap();
        assert!(stream.next_batch().unwrap().is_some(), "runs until tripped");
        token.cancel();
        let err = drain_to_error(&mut stream);
        assert!(matches!(err, ExprError::Cancelled { .. }), "got {err}");
        // Fused after the error, and teardown releases every resident row.
        assert!(stream.next_batch().unwrap().is_none());
        let stats = stream.finish();
        assert_eq!(stats.resident_rows_on_finish, 0);
    }

    #[test]
    fn deadline_aborts_within_one_batch_boundary() {
        let (c, logical) = runaway_product();
        let config = PlannerConfig::default()
            .batch_size(64)
            .deadline(std::time::Duration::from_millis(50));
        let plan = plan_query(&logical, &config).unwrap();
        let started = std::time::Instant::now();
        let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
        let err = drain_to_error(&mut stream);
        assert!(
            matches!(err, ExprError::DeadlineExceeded { limit_ms: 50, .. }),
            "got {err}"
        );
        // 4M-row product at batch 64 takes far longer than 50ms; the trip
        // must come within one batch of the deadline, not at the end.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "took {:?}",
            started.elapsed()
        );
        let stats = stream.finish();
        assert_eq!(stats.resident_rows_on_finish, 0);
    }

    #[test]
    fn memory_budget_aborts_the_blocking_build_and_reports_the_operator() {
        let (c, logical) = runaway_product();
        // Budget below the drained input size: the product's buffered
        // inputs (2000 + 2000 rows) blow the 1000-row budget during build.
        let config = PlannerConfig::default()
            .batch_size(64)
            .memory_budget_rows(1_000);
        let plan = plan_query(&logical, &config).unwrap();
        let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
        let err = drain_to_error(&mut stream);
        match err {
            ExprError::MemoryBudget {
                operator,
                budget_rows,
                resident_rows,
            } => {
                assert_eq!(budget_rows, 1_000);
                assert!(resident_rows > 1_000);
                assert!(!operator.is_empty());
            }
            other => panic!("expected MemoryBudget, got {other}"),
        }
        let stats = stream.finish();
        assert_eq!(stats.resident_rows_on_finish, 0);
    }

    #[test]
    fn governed_but_untripped_stream_matches_the_ungoverned_result() {
        let c = catalog();
        let logical = PlanBuilder::scan("supplies")
            .natural_join(PlanBuilder::scan("parts"))
            .build();
        let ungoverned = PlannerConfig::default().batch_size(2);
        let governed = ungoverned
            .deadline(std::time::Duration::from_secs(60))
            .memory_budget_rows(1_000_000);
        let plan = plan_query(&logical, &ungoverned).unwrap();
        let mut base = StreamExecutor::new(&plan, &c, &ungoverned).unwrap();
        let expected = collect(&mut base);
        let mut stream = StreamExecutor::new(&plan, &c, &governed).unwrap();
        let got = collect(&mut stream);
        assert_eq!(got, expected);
        assert_eq!(stream.finish().resident_rows_on_finish, 0);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn failpoint_error_mid_stream_leaves_no_resident_rows() {
        let _serial = crate::failpoint::test_serial();
        crate::failpoint::disarm_all();
        let c = catalog();
        let logical = PlanBuilder::scan("supplies")
            .natural_join(PlanBuilder::scan("parts"))
            .build();
        let config = PlannerConfig::default().batch_size(2);
        let plan = plan_query(&logical, &config).unwrap();
        crate::failpoint::arm("HashJoin.next_batch", FailAction::Error("chaos".into()));
        let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
        let err = drain_to_error(&mut stream);
        crate::failpoint::disarm_all();
        assert!(err.to_string().contains("failpoint HashJoin.next_batch"));
        let stats = stream.finish();
        assert_eq!(stats.resident_rows_on_finish, 0);
    }
}
