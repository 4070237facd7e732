//! Build-probe operators: a materialized right side, a streamed left side —
//! the hybrid hash join (natural, semi, anti, and so ∩ and −) and the
//! nested loop (⋈θ and ×). A hash join's build is fed chunk by chunk
//! ([`JoinBuilder`]); a semi or anti join, resident or per spilled
//! partition, keeps one bit per key if it can, and no rows at all when its
//! build side is its key alone.

use super::spill::{
    keeps_partition_resident, near_budget, next_resident_chunk, open_spill, spill_margin,
    spillable_rows, split_leaves, PartitionWriters, SpillInput,
};
use super::{consumed, drain_to_batch, BatchStream, OpMeta, RetainedState, StreamContext};
use crate::Result;
use div_algebra::{Predicate, Schema};
use div_columnar::kernels::{self, BuildChunks, JoinBuild, JoinBuilder, KernelOutput};
use div_columnar::ColumnarBatch;
use div_expr::ExprError;
use div_storage::{SpillHandle, SpillManager, TableScanCursor};

/// Which hash join a [`HashJoinStream`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum JoinKind {
    Natural,
    Semi,
    Anti,
}

/// The phases a hash join's traced wall-clock time is split into, in the
/// order of [`HashJoinStream`]'s `spent`: routing and writing partitions
/// (and re-splitting them), reading spilled partitions back, building, and
/// probing. Its children's time is in none of them.
const PHASES: [&str; 4] = ["partition", "read", "build", "probe"];
const PARTITION: usize = 0;
const READ: usize = 1;
const BUILD: usize = 2;
const PROBE: usize = 3;

/// Run `f`, adding its wall-clock time to `spent` when the trace is timed
/// (no clock read otherwise).
fn timed<R>(
    ctx: &mut StreamContext,
    spent: &mut u64,
    f: impl FnOnce(&mut StreamContext) -> R,
) -> R {
    let start = ctx.trace.span_start();
    let out = f(ctx);
    if let Some(start) = start {
        *spent += start.elapsed().as_nanos() as u64;
    }
    out
}

/// Where a [`HashJoinStream`] is in its work.
enum Stage {
    /// Nothing pulled yet.
    Start,
    /// The whole build side is resident, and the live left child streams
    /// through it.
    Resident(JoinBuild),
    /// The hybrid probe pass: the live left child is routed like the build
    /// side was. Rows of the resident partition are probed through `build`
    /// at once; the others go to `writers`, to meet `build_files` later.
    ProbePass {
        /// The resident partition's build; `None` when it was evicted.
        build: Option<JoinBuild>,
        writers: PartitionWriters,
        build_files: Vec<SpillHandle>,
    },
    /// A spilled leaf: its build, and its probe partition streaming off
    /// disk.
    Leaf {
        build: JoinBuild,
        probe: TableScanCursor,
    },
    /// Between leaves, or done.
    Leaves,
}

/// Hybrid hash natural/semi/anti join: the right (build) side is interned
/// chunk by chunk into a [`JoinBuilder`] and the left (probe) side streams
/// through the sealed [`JoinBuild`] one chunk at a time — unless the guard
/// carries a spill budget the statement nears while the build side is
/// still arriving ([`near_budget`]); a presence build that holds its bits
/// alone is charged its words. Then the join turns into Graefe's hybrid
/// hash join: the build rows held so far and the rest of the build side
/// are routed into [`PartitionWriters`] whose partition 0 stays *resident*
/// when the budget leaves it room ([`keeps_partition_resident`]) — its
/// rows are interned into a fresh in-memory build, the other partitions'
/// rows are written to disk. The
/// left side is then routed the same way: its partition-0 rows are probed
/// at once and never written, the others go to disk too, and the spilled
/// partition pairs are served one at a time afterwards (with per-partition
/// recursion). The resident partition shares the budget with the write
/// buffers; should it not fit even with every buffer written, it is
/// evicted to disk like the other partitions. Both sides are routed by the
/// *same* seeded hash of the common attributes (in identical attribute
/// order), so matching rows always land in the same partition pair.
///
/// Intersection and difference run here too, as the semi and anti join of
/// union-compatible inputs: every attribute is a common one, so the key is
/// the whole row in the left operand's attribute order.
pub(super) struct HashJoinStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    kind: JoinKind,
    schema: Schema,
    /// The key columns of the build (right) and probe (left) side.
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    stage: Stage,
    /// Owns the spill directory for the lifetime of the serve phase.
    manager: Option<SpillManager>,
    /// Remaining on-disk (build, probe) partition pairs.
    pairs: Vec<[SpillHandle; 2]>,
    retained: RetainedState,
    /// Traced nanoseconds per phase of [`PHASES`].
    spent: [u64; 4],
}

impl HashJoinStream {
    pub(super) fn new(
        meta: OpMeta,
        left: Box<dyn BatchStream>,
        right: Box<dyn BatchStream>,
        kind: JoinKind,
        schema: Schema,
    ) -> HashJoinStream {
        HashJoinStream {
            meta,
            left,
            right,
            kind,
            schema,
            build_keys: Vec::new(),
            probe_keys: Vec::new(),
            stage: Stage::Start,
            manager: None,
            pairs: Vec::new(),
            retained: RetainedState::default(),
            spent: [0; 4],
        }
    }

    /// An empty build of the right side — for a semi or anti join one its
    /// probes only test keys against.
    fn builder(&self) -> Result<JoinBuilder> {
        let natural = self.kind == JoinKind::Natural;
        JoinBuilder::new(self.left.schema(), self.right.schema(), natural).map_err(ExprError::from)
    }

    /// Intern one build chunk into `builder`, moving its accounting under
    /// the retained state.
    fn push(&mut self, ctx: &mut StreamContext, builder: &mut JoinBuilder, chunk: ColumnarBatch) {
        consumed(ctx, &chunk);
        timed(ctx, &mut self.spent[BUILD], |_| builder.push(chunk));
        self.retained
            .grow_to(ctx, self.meta.id, builder.held_rows());
    }

    /// [`HashJoinStream::push`] for a build that may still turn hybrid:
    /// when the presence bits cannot take `chunk` and the rows they would
    /// give back to a group index do not fit under the budget, the chunk
    /// is handed back, still accounted, for the build to be partitioned.
    fn try_push(
        &mut self,
        ctx: &mut StreamContext,
        builder: &mut JoinBuilder,
        chunk: ColumnarBatch,
    ) -> Option<ColumnarBatch> {
        let rows = chunk.num_rows();
        match timed(ctx, &mut self.spent[BUILD], |_| builder.try_push(chunk)) {
            Ok(()) => {
                ctx.release(rows, 1);
                self.retained
                    .grow_to(ctx, self.meta.id, builder.held_rows());
                None
            }
            Err(chunk) => {
                let given_back = builder.key_rows();
                let fits = ctx.spill_threshold().is_none_or(|threshold| {
                    ctx.resident_rows + given_back + spill_margin(ctx) <= threshold
                });
                if !fits {
                    return Some(chunk);
                }
                timed(ctx, &mut self.spent[BUILD], |_| builder.to_groups());
                self.push(ctx, builder, chunk);
                None
            }
        }
    }

    /// Seal a build, timed.
    fn seal(&mut self, ctx: &mut StreamContext, builder: JoinBuilder) -> JoinBuild {
        timed(ctx, &mut self.spent[BUILD], |_| builder.finish())
    }

    /// The build and probe inputs as the partitioning passes see them.
    fn inputs(&self) -> (String, [Schema; 2]) {
        let schemas = [self.right.schema().clone(), self.left.schema().clone()];
        (self.meta.label.clone(), schemas)
    }

    fn build(&mut self, ctx: &mut StreamContext) -> Result<()> {
        let left_schema = self.left.schema();
        let right_schema = self.right.schema();
        // The key attribute *order* must be identical on both sides so the
        // per-row key codes — and therefore the routing — agree.
        let key_names = left_schema.common_attributes(right_schema);
        let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
        self.build_keys = right_schema
            .projection_indices(&key_refs)
            .map_err(ExprError::from)?;
        self.probe_keys = left_schema
            .projection_indices(&key_refs)
            .map_err(ExprError::from)?;

        // Intern the build side until the statement nears its spill budget.
        let mut builder = self.builder()?;
        while let Some(chunk) = self.right.next_batch(ctx)? {
            if let Some(chunk) = self.try_push(ctx, &mut builder, chunk) {
                return self.spill_build(ctx, builder, Some(chunk));
            }
            if near_budget(ctx) {
                return self.spill_build(ctx, builder, None);
            }
        }
        self.right.close(ctx);
        let build = self.seal(ctx, builder);
        self.stage = Stage::Resident(build);
        Ok(())
    }

    /// Turn hybrid: route the build rows `builder` holds, then `next`
    /// (acquired), then the rest of the right side, keeping partition 0
    /// resident — and set up the probe pass. Chunks an error leaves
    /// unrouted are released here.
    fn spill_build(
        &mut self,
        ctx: &mut StreamContext,
        builder: JoinBuilder,
        next: Option<ColumnarBatch>,
    ) -> Result<()> {
        // The held rows go back in flight, to be routed with the rest.
        self.retained.release(ctx);
        let mut pending = Pending {
            held: builder.into_chunks(ctx.batch_size()),
            next,
        };
        for chunk in pending.held.kept() {
            ctx.acquire(chunk.num_rows(), 1);
        }
        let built = self.partition_build(ctx, &mut pending);
        pending.release(ctx);
        built
    }

    fn partition_build(&mut self, ctx: &mut StreamContext, pending: &mut Pending) -> Result<()> {
        let (label, [right_schema, left_schema]) = self.inputs();
        let input = |schema, key_cols| SpillInput {
            label: &label,
            schema,
            key_cols,
        };
        let (build_keys, probe_keys) = (self.build_keys.clone(), self.probe_keys.clone());
        let mut manager = SpillManager::new().map_err(ExprError::from)?;
        let mut writers = timed(ctx, &mut self.spent[PARTITION], |ctx| {
            let build = input(&right_schema, &build_keys);
            PartitionWriters::first_pass(&mut manager, ctx, build, keeps_partition_resident(ctx))
        })?;
        let mut resident = match keeps_partition_resident(ctx) {
            true => Some(self.builder()?),
            false => None,
        };
        loop {
            let chunk = match pending.pop(ctx) {
                Some(chunk) => chunk,
                None => match self.right.next_batch(ctx) {
                    Ok(Some(chunk)) => chunk,
                    Ok(None) => break,
                    Err(err) => {
                        writers.rollback(ctx);
                        return Err(err);
                    }
                },
            };
            consumed(ctx, &chunk);
            let routed = timed(ctx, &mut self.spent[PARTITION], |ctx| {
                writers.route(ctx, chunk)
            })?;
            if let Some(rows) = routed {
                let builder = resident
                    .as_mut()
                    .expect("an evicted partition 0 is routed to disk");
                // The routed rows are a copy nobody counts yet.
                ctx.acquire(rows.num_rows(), 1);
                if let Some(rows) = self.try_push(ctx, builder, rows) {
                    // The resident partition cannot take them as it is:
                    // it goes to disk with them.
                    consumed(ctx, &rows);
                    let held = resident.take().expect("pushed above");
                    self.evict(ctx, &mut manager, &mut writers, held, Some(rows))?;
                }
            }
            timed(ctx, &mut self.spent[PARTITION], |ctx| writers.relieve(ctx))?;
            // Rows still pending in memory leave it as they are routed, so
            // only once they are gone does pressure say anything about the
            // resident partition.
            let crowded = pending.drained() && near_budget(ctx);
            if crowded && resident.as_ref().is_some_and(|b| b.num_rows() > 0) {
                // Even with every buffer written the resident partition
                // does not fit: it goes to disk like the others.
                let held = resident.take().expect("checked above");
                self.evict(ctx, &mut manager, &mut writers, held, None)?;
            }
        }
        self.right.close(ctx);
        let build_files = timed(ctx, &mut self.spent[PARTITION], |ctx| writers.finish(ctx))?;
        // The probe side is routed with the same level-0 seed on the same
        // key attributes into as many partitions, partition 0 resident
        // exactly when the build side's is.
        let writers = timed(ctx, &mut self.spent[PARTITION], |ctx| {
            let probe = input(&left_schema, &probe_keys);
            PartitionWriters::first_pass(&mut manager, ctx, probe, resident.is_some())
        })?;
        let build = resident.map(|builder| self.seal(ctx, builder));
        self.manager = Some(manager);
        self.stage = Stage::ProbePass {
            build,
            writers,
            build_files,
        };
        Ok(())
    }

    /// Send the resident partition's build `held`, then `rows` (no longer
    /// accounted), to disk through partition 0 of `writers`.
    fn evict(
        &mut self,
        ctx: &mut StreamContext,
        manager: &mut SpillManager,
        writers: &mut PartitionWriters,
        held: JoinBuilder,
        rows: Option<ColumnarBatch>,
    ) -> Result<()> {
        let chunks = held.into_chunks(ctx.batch_size()).chain(rows);
        self.retained.release(ctx);
        timed(ctx, &mut self.spent[PARTITION], |ctx| {
            writers.evict(manager, ctx, chunks)
        })
    }

    /// The left side is routed: seal its files, drop the resident
    /// partition, and settle the partition pairs into leaves.
    fn end_probe_pass(&mut self, ctx: &mut StreamContext) -> Result<()> {
        let Stage::ProbePass {
            writers,
            build_files,
            ..
        } = std::mem::replace(&mut self.stage, Stage::Leaves)
        else {
            unreachable!("only the probe pass ends")
        };
        self.retained.release(ctx);
        let probe_files = timed(ctx, &mut self.spent[PARTITION], |ctx| writers.finish(ctx))?;
        let (label, [right_schema, left_schema]) = self.inputs();
        let inputs = [
            SpillInput {
                label: &label,
                schema: &right_schema,
                key_cols: &self.build_keys,
            },
            SpillInput {
                label: &label,
                schema: &left_schema,
                key_cols: &self.probe_keys,
            },
        ];
        // A pair is a leaf when its build side — what gets loaded — fits.
        // An anti-join emits every probe row of a partition whose build
        // side is empty, so only probe-empty pairs are skippable there.
        let anti = self.kind == JoinKind::Anti;
        let pairs = build_files.into_iter().zip(probe_files);
        let manager = self.manager.as_mut().expect("the build pass made one");
        self.pairs = timed(ctx, &mut self.spent[PARTITION], |ctx| {
            split_leaves(
                ctx,
                manager,
                inputs,
                pairs.map(|(build, probe)| [build, probe]).collect(),
                spillable_rows(ctx),
                |[build, probe]| probe.rows() == 0 || (!anti && build.rows() == 0),
            )
        })?;
        Ok(())
    }

    /// Load one partition pair: intern the build file chunk by chunk, open
    /// the probe file for streaming.
    fn load_leaf(
        &mut self,
        ctx: &mut StreamContext,
        [build, probe]: [SpillHandle; 2],
    ) -> Result<Stage> {
        let mut builder = self.builder()?;
        let mut cursor = timed(ctx, &mut self.spent[READ], |_| open_spill(&build))?;
        let label = self.meta.label.clone();
        while let Some(chunk) = timed(ctx, &mut self.spent[READ], |ctx| {
            next_resident_chunk(ctx, &label, &mut cursor)
        })? {
            self.push(ctx, &mut builder, chunk);
        }
        drop(cursor);
        build.delete();
        let cursor = timed(ctx, &mut self.spent[READ], |_| open_spill(&probe))?;
        // The cursor keeps its own open file descriptor; unlinking now keeps
        // peak disk usage flat across leaves.
        probe.delete();
        Ok(Stage::Leaf {
            build: self.seal(ctx, builder),
            probe: cursor,
        })
    }
}

/// The build rows a join that turns hybrid routes before the rest of its
/// right side: what its build held, then the chunk that turned it.
struct Pending {
    held: BuildChunks,
    next: Option<ColumnarBatch>,
}

impl Pending {
    /// The next pending chunk, acquired: a chunk the build kept or `next`
    /// is counted already, a row the presence bits give back as it is made.
    fn pop(&mut self, ctx: &mut StreamContext) -> Option<ColumnarBatch> {
        let made = self.held.kept().is_empty();
        match self.held.next() {
            Some(chunk) => {
                if made {
                    ctx.acquire(chunk.num_rows(), 1);
                }
                Some(chunk)
            }
            None => self.next.take(),
        }
    }

    /// Whether no pending chunk is held in memory any more.
    fn drained(&self) -> bool {
        self.held.kept().is_empty() && self.next.is_none()
    }

    /// Release the chunks an error left in memory unrouted.
    fn release(&self, ctx: &mut StreamContext) {
        for chunk in self.held.kept().iter().chain(&self.next) {
            consumed(ctx, chunk);
        }
    }
}

/// Probe one chunk through `build` as `kind` asks.
fn probe(kind: JoinKind, build: &JoinBuild, chunk: ColumnarBatch) -> Result<KernelOutput> {
    let probed = match kind {
        JoinKind::Natural => build.probe_natural(&chunk),
        JoinKind::Semi => build.probe_semi(chunk, false),
        JoinKind::Anti => build.probe_semi(chunk, true),
    };
    probed.map_err(ExprError::from)
}

impl BatchStream for HashJoinStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if matches!(self.stage, Stage::Start) {
            self.build(ctx)?;
        }
        loop {
            // The chunk to probe is released before a kernel error can
            // propagate past its accounting (a probe-pass chunk as soon as
            // it is routed: its resident rows are a copy nobody counts).
            let (build, chunk) = match &mut self.stage {
                Stage::Start => unreachable!("built above"),
                Stage::Resident(build) => match self.left.next_batch(ctx)? {
                    Some(chunk) => {
                        consumed(ctx, &chunk);
                        (&*build, chunk)
                    }
                    None => return Ok(None),
                },
                Stage::ProbePass { build, writers, .. } => {
                    let Some(chunk) = self.left.next_batch(ctx)? else {
                        self.end_probe_pass(ctx)?;
                        continue;
                    };
                    consumed(ctx, &chunk);
                    let spent = &mut self.spent[PARTITION];
                    let routed = timed(ctx, spent, |ctx| writers.route(ctx, chunk))?;
                    timed(ctx, spent, |ctx| writers.relieve(ctx))?;
                    match (routed, build.as_ref()) {
                        (Some(rows), Some(build)) => (build, rows),
                        _ => continue,
                    }
                }
                Stage::Leaf { build, probe } => {
                    let label = &self.meta.label;
                    let read = timed(ctx, &mut self.spent[READ], |ctx| {
                        next_resident_chunk(ctx, label, probe)
                    })?;
                    match read {
                        Some(chunk) => {
                            consumed(ctx, &chunk);
                            (&*build, chunk)
                        }
                        None => {
                            self.retained.release(ctx);
                            self.stage = Stage::Leaves;
                            continue;
                        }
                    }
                }
                Stage::Leaves => {
                    let Some(pair) = self.pairs.pop() else {
                        return Ok(None);
                    };
                    self.stage = self.load_leaf(ctx, pair)?;
                    continue;
                }
            };
            let kind = self.kind;
            let probed = timed(ctx, &mut self.spent[PROBE], |_| probe(kind, build, chunk));
            let KernelOutput { batch, probes } = probed?;
            ctx.add_probes(self.meta.id, probes);
            if batch.num_rows() > 0 {
                return self.meta.emit(ctx, batch);
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        if let Stage::ProbePass { writers, .. } = &mut self.stage {
            writers.rollback(ctx);
        }
        self.stage = Stage::Leaves;
        self.retained.release(ctx);
        self.pairs.clear();
        if self.spent.iter().any(|&ns| ns > 0) {
            ctx.trace
                .set_phases(self.meta.id, PHASES.into_iter().zip(self.spent).collect());
        }
        // Dropping the manager removes the spill directory (and any files
        // an abort left behind).
        self.manager = None;
        self.left.close(ctx);
        self.right.close(ctx);
    }
}

/// Nested-loop join `left ⋈_θ right = σ_θ(left × right)`, and with no
/// predicate the Cartesian product itself. The right side is drained and
/// retained; the left side streams, and each left chunk is crossed with the
/// right side `max(1, batch_size / |right|)` rows at a time
/// ([`kernels::cross_product_slice`]), the predicate filtering each slice.
/// An emitted batch is therefore at most `max(batch_size, |right|)` rows,
/// and a runaway product or join is stopped by the guard at the next such
/// slice instead of after a whole chunk's worth of pairs. One probe per
/// pair considered.
pub(super) struct NestedLoopStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    predicate: Option<Predicate>,
    schema: Schema,
    right_batch: Option<ColumnarBatch>,
    /// The left chunk being crossed and its next row to cross.
    chunk: Option<(ColumnarBatch, usize)>,
    retained: RetainedState,
}

impl NestedLoopStream {
    pub(super) fn new(
        meta: OpMeta,
        left: Box<dyn BatchStream>,
        right: Box<dyn BatchStream>,
        predicate: Option<Predicate>,
        schema: Schema,
    ) -> NestedLoopStream {
        NestedLoopStream {
            meta,
            left,
            right,
            predicate,
            schema,
            right_batch: None,
            chunk: None,
            retained: RetainedState::default(),
        }
    }
}

impl BatchStream for NestedLoopStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.right_batch.is_none() {
            let batch = drain_to_batch(&mut self.right, ctx, &self.meta.label)?;
            self.right.close(ctx);
            ctx.release(batch.num_rows(), 1);
            self.retained.grow_to(ctx, self.meta.id, batch.num_rows());
            self.right_batch = Some(batch);
        }
        let right = self.right_batch.as_ref().expect("drained above");
        let per_slice = (ctx.batch_size / right.num_rows().max(1)).max(1);
        loop {
            let Some((chunk, pos)) = self.chunk.as_mut() else {
                match self.left.next_batch(ctx)? {
                    Some(chunk) => self.chunk = Some((chunk, 0)),
                    None => return Ok(None),
                }
                continue;
            };
            let start = *pos;
            let end = (start + per_slice).min(chunk.num_rows());
            *pos = end;
            let crossed = kernels::cross_product_slice(chunk, start..end, right);
            // Release a finished chunk before a kernel error can propagate
            // past its accounting.
            if end == chunk.num_rows() {
                consumed(ctx, chunk);
                self.chunk = None;
            }
            let crossed = crossed.map_err(ExprError::from)?;
            ctx.add_probes(self.meta.id, crossed.num_rows());
            let batch = match &self.predicate {
                Some(predicate) => kernels::filter(&crossed, predicate).map_err(ExprError::from)?,
                None => crossed,
            };
            if batch.num_rows() > 0 {
                return self.meta.emit(ctx, batch);
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        if let Some((chunk, _)) = self.chunk.take() {
            consumed(ctx, &chunk);
        }
        self.retained.release(ctx);
        self.left.close(ctx);
        self.right.close(ctx);
    }
}
