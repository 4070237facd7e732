//! The streaming (Volcano-style pull) executor: `open`/`next_batch`/`close`
//! operators over [`ColumnarBatch`] chunks.
//!
//! This is the one executor of a [`LogicalPlan`]: it compiles the plan into
//! a tree of [`BatchStream`] operators — the classic Volcano iterator
//! protocol (Graefe), batch-at-a-time — so memory scales with the pipeline
//! depth rather than with the largest intermediate result. Its results are
//! checked against the reference evaluator [`div_expr::evaluate`]:
//!
//! * **the scan** emits the chunks of a [`div_expr::TableSource`] — the
//!   resident segments of a registered table, the decoded chunks of an
//!   attached file, an inline `Values` relation — in batches of at most
//!   [`PlannerConfig::batch_size`] rows, one pull at a time: an unconsumed
//!   stream never touches the rest of the table, and a pushed-down filter
//!   lets the source skip chunks its zone maps exclude;
//! * **pipelining operators** (filter, project, rename, union) transform
//!   one chunk at a time. Projection and union keep set semantics with a
//!   streaming distinct filter ([`div_columnar::StreamingDistinct`]) whose
//!   state is the distinct output, never the stream;
//! * **hash join / semi / anti** build their right side
//!   ([`div_columnar::kernels::JoinBuild`]) and stream the probe side
//!   through it chunk-at-a-time. **Intersection and difference** are the
//!   semi and anti join of union-compatible inputs, keyed on whole rows;
//! * **nested-loop theta-join and Cartesian product** are one operator: it
//!   retains its right side and crosses each streamed left chunk with it a
//!   few rows at a time, so every emission is at most
//!   `max(batch_size, |right|)` rows;
//! * **divide / great divide and aggregation** are one grouped operator:
//!   it *consumes* its input chunk-at-a-time into grouped state — the
//!   divide's group-id-based coverage state against its materialized
//!   divisor ([`div_columnar::kernels::StreamingGreatDivide`]), the
//!   aggregate's one accumulator row per group
//!   ([`div_columnar::kernels::StreamingAggregate`]); only its output is a
//!   blocking boundary.
//!
//! There is exactly one operator per plan node. Hash join (∩ and −
//! included), divide and grouped aggregation are *hybrid*: in memory until the [`QueryGuard`]
//! carries a spill budget ([`QueryGuard::spill_budget`]) that what they
//! keep approaches — the join's build input, the divide's coverage state
//! and the aggregate's groups (never their input, which streams under any
//! guard) — and from then on what does not fit is partitioned to disk and
//! served partition by partition (`spill.rs`). The guard — wherever its
//! budget came from: the config, a serving session's default, a caller — is
//! the only thing that decides; compilation never looks at it.
//!
//! One file per operator family: this file holds what every operator
//! shares (context, trait, `OpMeta`, `RetainedState`, `ChunkCursor`,
//! the blocking-boundary drain) and the [`StreamExecutor`]; `compile.rs`
//! maps plan nodes to operators; `scan.rs`, `pipeline.rs`, `join.rs` and
//! `grouped.rs` (divide, great divide and aggregation, one operator) are
//! the operators; `spill.rs` is the partition-file machinery and the one
//! split loop the hybrid ones share.
//!
//! Statistics are one [`ExecStats::record`] per operator (scans into
//! `rows_scanned`, the root into `output_rows`, kernel probes into
//! `probes`), and an operator records what it *actually did*: a consumer
//! that stops early (drop, `take(n)`) leaves `rows_scanned` strictly below
//! the table cardinality. In addition the
//! executor tracks every batch it materializes (in-flight chunks, blocking
//! buffers, build and distinct state — but not what a scan reads from: the
//! catalog's segments, or the one file chunk it is serving in pieces) and
//! reports the high-water mark as
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
use crate::planner::PlannerConfig;
use crate::stats::ExecStats;
use crate::trace::{operator_label, OperatorId, QueryTrace};
use crate::Result;
use div_algebra::Schema;
use div_columnar::{partition, ColumnarBatch};
use div_expr::{Catalog, LogicalPlan};

mod compile;
mod grouped;
mod join;
mod pipeline;
mod scan;
mod spill;

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
    /// High-water mark of `resident_rows` since the last guard check.
    unchecked_peak: usize,
    guard: QueryGuard,
}

impl StreamContext {
    fn new(plan: &LogicalPlan, config: &PlannerConfig, guard: QueryGuard) -> StreamContext {
        StreamContext {
            stats: ExecStats::default(),
            trace: QueryTrace::from_plan(plan).with_timing(config.tracing),
            batch_size: config.batch_size.max(1),
            resident_rows: 0,
            resident_batches: 0,
            unchecked_peak: 0,
            guard,
        }
    }

    /// The configured chunk size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Record kernel probes both in the aggregate and against the operator.
    fn add_probes(&mut self, id: OperatorId, probes: usize) {
        self.stats.add_probes(probes);
        self.trace.add_probes(id, probes);
    }

    /// Account for `rows` in `batches` newly materialized batches.
    fn acquire(&mut self, rows: usize, batches: usize) {
        self.resident_rows += rows;
        self.resident_batches += batches;
        self.unchecked_peak = self.unchecked_peak.max(self.resident_rows);
        self.stats
            .note_resident(self.resident_batches, self.resident_rows);
    }

    /// Account for the release of previously acquired batches.
    fn release(&mut self, rows: usize, batches: usize) {
        self.resident_rows = self.resident_rows.saturating_sub(rows);
        self.resident_batches = self.resident_batches.saturating_sub(batches);
    }

    /// Consult the query guard, attributing a trip to `label`. What the
    /// budget is held against is the footprint's high-water mark since the
    /// previous check, not just its current value: a transient excess
    /// between two boundaries (an input chunk and the copy of its rows in
    /// retained state, say) has already been recorded in
    /// [`ExecStats::peak_resident_rows`], so it must abort here rather than
    /// let a run report success with a peak above its budget.
    fn check_guard(&mut self, label: &str) -> Result<()> {
        // (`acquire` keeps the mark at or above the current footprint.)
        let peak = std::mem::replace(&mut self.unchecked_peak, self.resident_rows);
        self.guard.check(peak, label)
    }

    /// The resident-row threshold at which spilling operators should start
    /// partitioning to disk (see [`QueryGuard::spill_budget`]).
    fn spill_threshold(&self) -> Option<usize> {
        self.guard.spill_budget()
    }
}

/// A pull-based operator yielding [`ColumnarBatch`] chunks.
///
/// The streaming counterpart of one [`LogicalPlan`] node. An operator is
/// *opened* by construction (inside [`StreamExecutor::new`]), pulled with
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
struct OpMeta {
    id: OperatorId,
    label: String,
    emitted: usize,
    is_scan: bool,
    is_root: bool,
    closed: bool,
    /// Every row emitted so far (debug builds): streams are sets.
    #[cfg(debug_assertions)]
    emitted_rows: Option<div_columnar::StreamingDistinct>,
}

impl OpMeta {
    fn new(id: OperatorId, plan: &LogicalPlan, is_root: bool) -> OpMeta {
        OpMeta {
            id,
            label: operator_label(plan),
            emitted: 0,
            is_scan: matches!(plan, LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }),
            is_root,
            closed: false,
            #[cfg(debug_assertions)]
            emitted_rows: None,
        }
    }

    /// Account an emitted batch (acquiring it in the resident tracking) and
    /// pass it on — unless the query guard trips, in which case the batch
    /// is rolled back out of the accounting and the typed governance error
    /// propagates instead. This is the cooperative enforcement point: every
    /// operator's emissions funnel through here, so cancellation, deadline
    /// and budget are all observed within one batch boundary. The
    /// `{label}.next_batch` failpoint fires here too.
    ///
    /// Every stream is a set — scans read sets (a registered table is a
    /// relation; an attached file's writer refused every repeated row) and
    /// every operator keeps or restores distinctness — and the kernels rely
    /// on it (the aggregate counts every row it is shown). Debug builds
    /// check it here: each operator keeps every row it emitted and panics
    /// on a repeat, in every strategy, spill read-back included. Release
    /// builds pay nothing.
    fn emit(
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
        #[cfg(debug_assertions)]
        {
            let seen = self.emitted_rows.get_or_insert_with(|| {
                div_columnar::StreamingDistinct::new(batch.schema().clone())
            });
            let fresh = seen.push(&batch).num_rows();
            assert_eq!(
                fresh,
                rows,
                "{} emitted {} rows it had emitted before",
                self.label,
                rows - fresh
            );
        }
        Ok(Some(batch))
    }

    /// Record this operator's row total once — in the aggregate stats and
    /// against its node in the operator trace.
    fn record(&mut self, ctx: &mut StreamContext) {
        if !self.closed {
            self.closed = true;
            // Close-site failpoints can only delay (close is infallible);
            // an armed error action is deliberately swallowed.
            let _ = crate::failpoint::hit(&self.label, "close");
            ctx.stats.record(self.emitted, self.is_scan, self.is_root);
            ctx.trace.set_rows_out(self.id, self.emitted);
        }
    }
}

/// Release an input chunk after the operator is done with it.
fn consumed(ctx: &mut StreamContext, chunk: &ColumnarBatch) {
    ctx.release(chunk.num_rows(), 1);
}

/// Collect every (already acquired) chunk `next` yields. On an error the
/// chunks collected so far die here, so their accounting is rolled back
/// before the error propagates.
fn collect_chunks(
    ctx: &mut StreamContext,
    mut next: impl FnMut(&mut StreamContext) -> Result<Option<ColumnarBatch>>,
) -> Result<Vec<ColumnarBatch>> {
    let mut chunks = Vec::new();
    loop {
        match next(ctx) {
            Ok(Some(chunk)) => chunks.push(chunk),
            Ok(None) => return Ok(chunks),
            Err(err) => {
                for chunk in &chunks {
                    consumed(ctx, chunk);
                }
                return Err(err);
            }
        }
    }
}

/// Drain `child` completely and concatenate its chunks into one batch (the
/// blocking-boundary primitive). The chunks' resident accounting transfers
/// to the returned batch. `label` is the draining (parent) operator, which
/// the guard blames when the materialized buffer itself trips the budget —
/// the build-phase enforcement point of the blocking operators.
fn drain_to_batch(
    child: &mut Box<dyn BatchStream>,
    ctx: &mut StreamContext,
    label: &str,
) -> Result<ColumnarBatch> {
    let chunks = collect_chunks(ctx, |ctx| child.next_batch(ctx))?;
    consolidate(ctx, label, child.schema(), chunks)
}

/// Concatenate buffered chunks into one batch, transferring their resident
/// accounting to it; the guard blames `label` when the batch itself trips
/// the budget.
fn consolidate(
    ctx: &mut StreamContext,
    label: &str,
    schema: &Schema,
    chunks: Vec<ColumnarBatch>,
) -> Result<ColumnarBatch> {
    let batch =
        partition::concat_batches(&chunks).unwrap_or_else(|| ColumnarBatch::empty(schema.clone()));
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
struct ChunkCursor {
    batch: Option<ColumnarBatch>,
    pos: usize,
}

impl ChunkCursor {
    fn new(batch: ColumnarBatch) -> ChunkCursor {
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
    fn next(&mut self, ctx: &mut StreamContext) -> Option<ColumnarBatch> {
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

    fn release(&mut self, ctx: &mut StreamContext) {
        if let Some(batch) = self.batch.take() {
            ctx.release(batch.num_rows(), 1);
        }
    }
}

/// Tracks the rows retained by a cross-chunk state object (distinct store,
/// divide groups, join build) in the resident accounting.
#[derive(Debug, Default)]
struct RetainedState {
    rows: usize,
    counted_batch: bool,
}

impl RetainedState {
    /// Grow the retained footprint to `rows` (monotone), attributing the
    /// peak to operator `id` in the trace.
    fn grow_to(&mut self, ctx: &mut StreamContext, id: OperatorId, rows: usize) {
        ctx.trace.note_retained(id, rows);
        if rows > self.rows {
            let batches = usize::from(!self.counted_batch && rows > 0);
            self.counted_batch |= batches > 0;
            ctx.acquire(rows - self.rows, batches);
            self.rows = rows;
        }
    }

    fn release(&mut self, ctx: &mut StreamContext) {
        ctx.release(self.rows, usize::from(self.counted_batch));
        self.rows = 0;
        self.counted_batch = false;
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
/// use div_physical::{PlannerConfig, StreamExecutor};
///
/// let mut catalog = Catalog::new();
/// catalog.register(
///     "supplies",
///     div_algebra::relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] },
/// );
/// let plan = PlanBuilder::scan("supplies").project(["s#"]).build();
/// let config = PlannerConfig::default().batch_size(2);
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
        plan: &LogicalPlan,
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
        plan: &LogicalPlan,
        catalog: &Catalog,
        config: &PlannerConfig,
        guard: QueryGuard,
    ) -> Result<StreamExecutor> {
        let mut ctx = StreamContext::new(plan, config, guard);
        let root = compile::compile_root(plan, catalog, &mut ctx.trace)?;
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
mod tests;
