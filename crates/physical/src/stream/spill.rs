//! The out-of-core half of the hybrid hash operators (join, divide / great
//! divide, grouped aggregation): the partition files and the buffered
//! writers that fill them, the join's sink that buffers or partitions its
//! build input, the grouped pass the divide and the aggregate share,
//! recursive re-partitioning and the leaf worklist those two serve from.
//!
//! This is Graefe's hybrid hash design, which the hash-division family this
//! workspace reproduces is explicitly built on:
//!
//! 1. **Spill what does not fit — and only that.** Every operator watches
//!    the thing it actually keeps. The join keeps its build input, so a
//!    [`SpillSink`] buffers it and, when the statement's resident footprint
//!    comes within a safety margin of the budget (two batches — the trigger
//!    must fire *before* a child emission would trip the
//!    [`crate::guard::QueryGuard`], whose check lives at the emit
//!    boundary), partitions everything buffered plus everything still
//!    arriving. The divide and the aggregate keep grouped *state* — the
//!    divide's divisor + quotient groups, the aggregate's one accumulator
//!    row per group — and read their input once, so their trigger
//!    ([`state_overflows`]) watches the state: when that nears the budget
//!    the resident groups are frozen, keep consuming their own rows, and
//!    only rows of groups the state has never met are partitioned. One
//!    loop, [`grouped_pass`], does this for both, over the
//!    [`GroupedState`] each kernel implements. With no spill budget on the
//!    guard ([`QueryGuard::spill_budget`](crate::guard::QueryGuard::spill_budget)
//!    is `None`) no trigger ever fires — that *is* the in-memory operator;
//!    with one, an input or a state that stays under it runs the same code
//!    path with no IO.
//! 2. **Partition at a budget-derived fan-out, in full chunks.** Rows are
//!    routed by the hash of the operator's key — the join's common
//!    attributes, the division's quotient attributes (Law 2: partitioning
//!    the dividend on the quotient attributes with the divisor replicated
//!    preserves the quotient), aggregation's grouping attributes — into
//!    [`level0_fanout`] files: as many as full-chunk write buffers fit in
//!    the budget (memory over buffer size, floor 4, cap 32).
//!    [`PartitionWriters`] coalesces the routed rows per partition and
//!    writes a chunk when it has `batch_size` rows; the buffers are counted
//!    as resident rows, and under pressure the largest is written early, so
//!    they shrink with the budget instead of breaking it. Key-disjoint
//!    partitions make per-partition results independent, so their union is
//!    the exact operator result.
//! 3. **Recurse per partition, by its size.** Each operator states its leaf
//!    bound as a row count (join: the build side fits; aggregate: one group
//!    per row fits; divide: divisor plus one group per row fit). A
//!    partition over the bound is re-partitioned from disk into
//!    [`split_fanout`] files — its row count over the bound, with headroom
//!    for skew — under a fresh level seed
//!    ([`div_columnar::partition::partition_rows`] — all rows of one
//!    partition share their level-0 routing hash, so recursion *must*
//!    re-seed), up to [`MAX_SPILL_LEVELS`]; a level-capped partition (every
//!    row sharing one key) is served anyway and the budget backstop aborts
//!    honestly if it truly cannot fit.
//!
//! Spill files use the `div-storage` table format (checksummed, columnar),
//! live in a per-operator [`SpillManager`] temp directory, and are deleted
//! eagerly as they are consumed; the manager's `Drop` removes the directory
//! on *every* exit path, including mid-spill errors. The `spill.write` /
//! `spill.read` failpoints fire before every file write / open and chunk
//! read, so the chaos suite can fault either direction of the traffic; a
//! chunk read back is acquired and guard-checked like any emitted chunk.
//! Spill volume is reported as [`ExecStats::spill_partitions`] /
//! [`ExecStats::spill_rows_written`] / [`ExecStats::spill_rows_read`].
//!
//! [`ExecStats::spill_partitions`]: crate::stats::ExecStats::spill_partitions
//! [`ExecStats::spill_rows_written`]: crate::stats::ExecStats::spill_rows_written
//! [`ExecStats::spill_rows_read`]: crate::stats::ExecStats::spill_rows_read

use super::{
    collect_chunks, consolidate, consumed, BatchStream, ChunkCursor, OpMeta, RetainedState,
    StreamContext,
};
use crate::Result;
use div_algebra::Schema;
use div_columnar::kernels::FrozenConsume;
use div_columnar::partition::{self, BatchAppender};
use div_columnar::ColumnarBatch;
use div_expr::ExprError;
use div_storage::{SpillHandle, SpillManager, SpillWriter, TableScanCursor};

/// Floor of a partitioning pass's fan-out: even a budget too small for four
/// full-chunk write buffers splits four ways (the buffers shrink instead),
/// so a tiny budget still reaches a fitting partition within a few levels.
const MIN_FANOUT: usize = 4;

/// Cap of a partitioning pass's fan-out: past this, more open files cost
/// more than a deeper recursion saves.
const MAX_FANOUT: usize = 32;

/// Recursion depth cap. A partition that still exceeds the budget after
/// this many re-partitionings is dominated by one key value; further
/// splitting cannot help, so it is served as-is and the budget backstop
/// decides.
pub(super) const MAX_SPILL_LEVELS: usize = 6;

/// Routing seed for recursion level `level` (level 0 — the first, in-line
/// partitioning pass — uses seed 0, the unseeded
/// [`partition::partition_rows`] routing). The odd multiplier is the
/// golden-ratio mixing constant.
pub(super) fn spill_seed(level: usize) -> u64 {
    (level as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Safety margin (in rows) kept between the resident footprint and the
/// budget: spilling triggers while at least this much headroom remains, so
/// the next child emission (≤ one batch) and one in-flight spill chunk
/// cannot trip the guard first.
pub(super) fn spill_margin(ctx: &StreamContext) -> usize {
    2 * ctx.batch_size()
}

/// The rows a hybrid operator can plan with: the spill budget less the
/// safety margin. Every leaf bound is a share of this.
pub(super) fn spillable_rows(ctx: &StreamContext) -> usize {
    ctx.spill_threshold()
        .unwrap_or(usize::MAX)
        .saturating_sub(spill_margin(ctx))
}

/// Fan-out of a first-level partitioning pass (the join's two sides, the
/// divide's and the aggregate's overflow): the number of full-chunk
/// (`batch_size`-row) write buffers that fit in [`spillable_rows`] —
/// Graefe's memory-over-buffer rule — within [`MIN_FANOUT`] and
/// [`MAX_FANOUT`]. Re-partitioning passes are sized from their file's row
/// count instead ([`split_fanout`]).
pub(super) fn level0_fanout(ctx: &StreamContext) -> usize {
    (spillable_rows(ctx) / ctx.batch_size()).clamp(MIN_FANOUT, MAX_FANOUT)
}

/// The grouped operators' overflow trigger: `true` once the statement's
/// resident rows — the pass's state (divisor and coverage groups, or
/// accumulator rows) plus whatever its neighbours hold — leave less than
/// the margin plus room for the overflow pass's write buffers under the
/// budget. That room is a quarter of
/// [`spillable_rows`] (no more than [`MAX_FANOUT`] full chunks): what
/// hybrid hashing sets aside for its output partitions before it hands the
/// rest to the resident one. The pass still fans out [`level0_fanout`]
/// ways — one pass over smaller chunks is cheaper than a second pass over
/// full ones — and its buffers flush under pressure, so a state that keeps
/// growing into the room costs chunk size, not correctness.
pub(super) fn state_overflows(ctx: &StreamContext) -> bool {
    let room = (spillable_rows(ctx) / 4).min(MAX_FANOUT * ctx.batch_size());
    ctx.spill_threshold()
        .is_some_and(|threshold| ctx.resident_rows + spill_margin(ctx) + room > threshold)
}

/// How many files an oversized partition of `rows` rows is re-partitioned
/// into so that each piece meets the operator's leaf bound: `rows / bound`
/// with half as much again for skew, at least 2 and at most a whole-input
/// pass's fan-out. The file's exact row count is known, so a partition
/// barely over the bound is halved, not split seventeen ways.
pub(super) fn split_fanout(ctx: &StreamContext, rows: usize, bound: usize) -> usize {
    (3 * rows)
        .div_ceil(2 * bound.max(1))
        .clamp(2, level0_fanout(ctx))
}

/// Write one batch to a spill file, counting it and honoring the
/// `spill.write` failpoint.
fn spill_write(
    ctx: &mut StreamContext,
    writer: &mut SpillWriter,
    batch: &ColumnarBatch,
) -> Result<()> {
    crate::failpoint::hit("spill", "write")?;
    writer.write(batch).map_err(ExprError::from)?;
    ctx.stats.spill_rows_written += batch.num_rows();
    Ok(())
}

/// Open a spill partition for chunk-at-a-time reading (`spill.read`
/// failpoint fires here and before every chunk).
pub(super) fn open_spill(handle: &SpillHandle) -> Result<TableScanCursor> {
    crate::failpoint::hit("spill", "read")?;
    let reader = handle.open().map_err(ExprError::from)?;
    reader.scan(None).map_err(ExprError::from)
}

/// Pull the next chunk off a spill cursor, counting the rows read. The
/// chunk is acquired and guard-checked like a chunk a child stream emitted
/// (`label` is the operator the guard blames): the leaf bounds only cover
/// the reading operator's own state, so next to a neighbour's an in-flight
/// chunk can be what no longer fits, and a long re-partitioning or
/// matchless probe emits nothing for a deadline or cancellation to be
/// noticed at.
pub(super) fn next_resident_chunk(
    ctx: &mut StreamContext,
    label: &str,
    cursor: &mut TableScanCursor,
) -> Result<Option<ColumnarBatch>> {
    crate::failpoint::hit("spill", "read")?;
    let chunk = cursor.next_chunk().map_err(ExprError::from)?;
    if let Some(chunk) = &chunk {
        ctx.stats.spill_rows_read += chunk.num_rows();
        ctx.acquire(chunk.num_rows(), 1);
        if let Err(err) = ctx.check_guard(label) {
            consumed(ctx, chunk);
            return Err(err);
        }
    }
    Ok(chunk)
}

/// Load a whole spill file into one consolidated, accounted batch (the
/// blocking-boundary hand-off of [`super::drain_to_batch`], from disk) and
/// delete the file. `label` is the operator the guard blames.
pub(super) fn load_spill_batch(
    ctx: &mut StreamContext,
    label: &str,
    schema: &Schema,
    handle: SpillHandle,
) -> Result<ColumnarBatch> {
    let mut cursor = open_spill(&handle)?;
    let chunks = collect_chunks(ctx, |ctx| next_resident_chunk(ctx, label, &mut cursor))?;
    drop(cursor);
    handle.delete();
    consolidate(ctx, label, schema, chunks)
}

/// One partitioned input of a hybrid operator: whose it is (the operator
/// label the guard blames), its schema, and the key columns it is routed on.
#[derive(Clone, Copy)]
pub(super) struct SpillInput<'a> {
    pub(super) label: &'a str,
    pub(super) schema: &'a Schema,
    pub(super) key_cols: &'a [usize],
}

/// One partition of a pass: its spill file and the rows routed to it that
/// have not been written yet.
struct Partition {
    writer: SpillWriter,
    buffer: BatchAppender,
}

/// One fan-out's worth of open spill files plus the routing that feeds
/// them: rows are distributed by the seeded hash of their key columns and
/// coalesced per partition, so what reaches a file is a full `batch_size`-row
/// chunk — or, when the statement's resident rows come within the margin of
/// the budget, the largest buffer there is. The buffered rows are resident
/// rows like any other: acquired as they are appended, released as they are
/// written, and rolled back by [`PartitionWriters::rollback`] when the pass
/// dies. Because the flush follows the *measured* footprint, the buffers
/// only ever use memory nobody else holds: under a tiny budget, or next to
/// a neighbour's state, they shrink towards unbuffered writes instead of
/// tripping the guard.
pub(super) struct PartitionWriters {
    parts: Vec<Partition>,
    key_cols: Vec<usize>,
    seed: u64,
}

impl PartitionWriters {
    pub(super) fn create(
        manager: &mut SpillManager,
        ctx: &mut StreamContext,
        input: SpillInput,
        seed: u64,
        fanout: usize,
    ) -> Result<PartitionWriters> {
        let mut parts = Vec::with_capacity(fanout);
        for _ in 0..fanout {
            parts.push(Partition {
                writer: manager
                    .create_file(input.schema.clone())
                    .map_err(ExprError::from)?,
                buffer: BatchAppender::new(input.schema.clone()),
            });
            ctx.stats.spill_partitions += 1;
        }
        Ok(PartitionWriters {
            parts,
            key_cols: input.key_cols.to_vec(),
            seed,
        })
    }

    /// Route one chunk into the partition buffers, writing out what is
    /// full. The chunk itself must no longer be accounted — a caller holding
    /// an acquired chunk releases it first, so a routed row is counted
    /// once, wherever it currently sits. On an error the buffers are rolled
    /// back here.
    pub(super) fn route(&mut self, ctx: &mut StreamContext, chunk: &ColumnarBatch) -> Result<()> {
        let routed = self.try_route(ctx, chunk);
        if routed.is_err() {
            self.rollback(ctx);
        }
        routed
    }

    fn try_route(&mut self, ctx: &mut StreamContext, chunk: &ColumnarBatch) -> Result<()> {
        let full = ctx.batch_size();
        let buckets = partition::partition_rows(chunk, &self.key_cols, self.parts.len(), self.seed);
        for (part, rows) in self.parts.iter_mut().zip(&buckets) {
            let mut rows = rows.as_slice();
            while !rows.is_empty() {
                let space = full - part.buffer.num_rows();
                let (fitting, rest) = rows.split_at(space.min(rows.len()));
                ctx.acquire(fitting.len(), usize::from(part.buffer.num_rows() == 0));
                part.buffer.append_rows(chunk, fitting);
                if part.buffer.num_rows() == full {
                    part.flush(ctx)?;
                }
                rows = rest;
            }
        }
        // Under pressure a partial chunk is better than a budget abort:
        // largest first, so what is written is as full as it can be.
        while ctx
            .spill_threshold()
            .is_some_and(|threshold| ctx.resident_rows + spill_margin(ctx) > threshold)
        {
            let Some(largest) = self
                .parts
                .iter_mut()
                .filter(|part| part.buffer.num_rows() > 0)
                .max_by_key(|part| part.buffer.num_rows())
            else {
                break;
            };
            largest.flush(ctx)?;
        }
        Ok(())
    }

    /// Route every (acquired) chunk `next` yields and seal the files; the
    /// buffers' accounting is rolled back whichever step fails.
    pub(super) fn drain(
        mut self,
        ctx: &mut StreamContext,
        mut next: impl FnMut(&mut StreamContext) -> Result<Option<ColumnarBatch>>,
    ) -> Result<Vec<SpillHandle>> {
        loop {
            match next(ctx) {
                Ok(Some(chunk)) => {
                    consumed(ctx, &chunk);
                    self.route(ctx, &chunk)?;
                }
                Ok(None) => return self.finish(ctx),
                Err(err) => {
                    self.rollback(ctx);
                    return Err(err);
                }
            }
        }
    }

    /// Write out what is still buffered and seal all files into readable
    /// handles (in partition order).
    pub(super) fn finish(mut self, ctx: &mut StreamContext) -> Result<Vec<SpillHandle>> {
        let flushed = self
            .parts
            .iter_mut()
            .filter(|part| part.buffer.num_rows() > 0)
            .try_for_each(|part| part.flush(ctx));
        if let Err(err) = flushed {
            self.rollback(ctx);
            return Err(err);
        }
        self.parts
            .into_iter()
            .map(|part| part.writer.finish().map_err(ExprError::from))
            .collect()
    }

    /// Drop whatever is buffered and release its accounting (error paths;
    /// idempotent).
    pub(super) fn rollback(&mut self, ctx: &mut StreamContext) {
        for part in &mut self.parts {
            let rows = part.buffer.take().num_rows();
            ctx.release(rows, usize::from(rows > 0));
        }
    }
}

impl Partition {
    /// Write the buffered rows as one chunk. They leave the buffer — and
    /// the accounting — whether or not the write succeeds.
    fn flush(&mut self, ctx: &mut StreamContext) -> Result<()> {
        let batch = self.buffer.take();
        ctx.release(batch.num_rows(), 1);
        spill_write(ctx, &mut self.writer, &batch)
    }
}

/// Re-partition one on-disk partition of `input` into `fanout` fresh files
/// with the given level seed, deleting the source file.
pub(super) fn repartition(
    ctx: &mut StreamContext,
    manager: &mut SpillManager,
    input: SpillInput,
    handle: SpillHandle,
    seed: u64,
    fanout: usize,
) -> Result<Vec<SpillHandle>> {
    let writers = PartitionWriters::create(manager, ctx, input, seed, fanout)?;
    let mut cursor = open_spill(&handle)?;
    let split = writers.drain(ctx, |ctx| {
        next_resident_chunk(ctx, input.label, &mut cursor)
    })?;
    drop(cursor);
    handle.delete();
    Ok(split)
}

/// The build-side accumulator of the hybrid join: buffers chunks in
/// memory (they remain under their emitters' resident accounting) until
/// the spill trigger fires, then becomes a disk router. Without a
/// `threshold` the trigger never fires. Chunks handed to
/// [`SpillSink::push`] are *always* balanced — buffered ones stay
/// accounted until consumed or rolled back, routed ones are accounted in
/// the partition buffers until they hit disk.
pub(super) struct SpillSink<'a> {
    input: SpillInput<'a>,
    threshold: Option<usize>,
    buffered: Vec<ColumnarBatch>,
    spill: Option<(SpillManager, PartitionWriters)>,
}

/// What a drained [`SpillSink`] hands its operator.
pub(super) enum Drained {
    /// The trigger never fired: the chunks, still accounted.
    Buffered(Vec<ColumnarBatch>),
    /// The spill directory and the sealed first-pass partition files.
    Spilled(SpillManager, Vec<SpillHandle>),
}

impl<'a> SpillSink<'a> {
    pub(super) fn new(input: SpillInput<'a>, threshold: Option<usize>) -> SpillSink<'a> {
        SpillSink {
            input,
            threshold,
            buffered: Vec::new(),
            spill: None,
        }
    }

    /// Accept one child-emitted chunk (already acquired by the emitter).
    fn push(&mut self, ctx: &mut StreamContext, chunk: ColumnarBatch) -> Result<()> {
        if let Some((_, writers)) = self.spill.as_mut() {
            consumed(ctx, &chunk);
            return writers.route(ctx, &chunk);
        }
        self.buffered.push(chunk);
        if let Some(threshold) = self.threshold {
            if ctx.resident_rows + spill_margin(ctx) > threshold {
                self.activate(ctx)?;
            }
        }
        Ok(())
    }

    /// Switch to disk: create the spill directory and move everything
    /// buffered through the partitioner. Accounting for every buffered
    /// chunk is released here whether routing succeeds or not.
    fn activate(&mut self, ctx: &mut StreamContext) -> Result<()> {
        let mut manager = SpillManager::new().map_err(ExprError::from)?;
        let fanout = level0_fanout(ctx);
        let mut writers =
            PartitionWriters::create(&mut manager, ctx, self.input, spill_seed(0), fanout)?;
        let mut first_err = None;
        for chunk in self.buffered.drain(..) {
            consumed(ctx, &chunk);
            if first_err.is_none() {
                first_err = writers.route(ctx, &chunk).err();
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        self.spill = Some((manager, writers));
        Ok(())
    }

    /// Release the accounting of anything still buffered — whole chunks
    /// before activation, the partition buffers after (error path).
    fn rollback(&mut self, ctx: &mut StreamContext) {
        for chunk in self.buffered.drain(..) {
            consumed(ctx, &chunk);
        }
        if let Some((_, writers)) = self.spill.as_mut() {
            writers.rollback(ctx);
        }
    }

    /// Drain `child` through this sink, keeping the accounting balanced on
    /// every error path.
    pub(super) fn drain(
        mut self,
        child: &mut Box<dyn BatchStream>,
        ctx: &mut StreamContext,
    ) -> Result<Drained> {
        loop {
            let pushed = match child.next_batch(ctx) {
                Ok(Some(chunk)) => self.push(ctx, chunk),
                Ok(None) => break,
                Err(err) => Err(err),
            };
            if let Err(err) = pushed {
                self.rollback(ctx);
                return Err(err);
            }
        }
        Ok(match self.spill {
            None => Drained::Buffered(self.buffered),
            Some((manager, writers)) => Drained::Spilled(manager, writers.finish(ctx)?),
        })
    }
}

/// A grouped state one pass of a hybrid divide or aggregate folds its input
/// into — the divide's coverage groups ([`StreamingGreatDivide`]), the
/// aggregate's accumulator rows ([`StreamingAggregate`]) — and that can be
/// *frozen*: from then on it takes only rows of the groups it holds, and
/// hands the others back. That is what lets [`grouped_pass`] overflow
/// without giving up the groups it already has.
///
/// [`StreamingGreatDivide`]: div_columnar::kernels::StreamingGreatDivide
/// [`StreamingAggregate`]: div_columnar::kernels::StreamingAggregate
pub(super) trait GroupedState {
    /// Fold one chunk in, adding the groups it introduces; the kernel
    /// probes it performed.
    fn consume(&mut self, chunk: &ColumnarBatch) -> Result<usize>;
    /// Fold in the rows of resident groups only; the rest are left over.
    fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> Result<FrozenConsume>;
    /// Groups held — the state's resident rows.
    fn groups(&self) -> usize;
    /// The pass's result, one row per qualifying group.
    fn finish(self) -> Result<ColumnarBatch>;
}

/// What an overflowed pass leaves on disk: the spill directory and the
/// sealed partition files of the rows its frozen state did not take.
pub(super) type Overflowed = (SpillManager, Vec<SpillHandle>);

/// One pass of a grouped operator: fold every (acquired) chunk
/// `next_chunk` yields into `state` and return the acquired result.
///
/// `kept_rows` are rows the operator holds next to the state for the whole
/// pass (the divide's divisor); they are counted with the groups under
/// `retained`, and stay there when more passes follow — after an overflow,
/// and after every leaf.
///
/// `overflow` — the pass's input, routed on its grouping columns — lets
/// the pass overflow: a state that approaches the spill budget
/// ([`state_overflows`]) is frozen, and the rows it does not take are
/// written to the partition files returned next to the result. Resident
/// and spilled groups are key-disjoint, so the results of the pass and of
/// the files are disjoint too and their union is the operator's. A leaf
/// pass gives `None`: its input was sized to fit, and the budget backstop
/// decides about a level-capped one that does not.
pub(super) fn grouped_pass(
    ctx: &mut StreamContext,
    meta: &OpMeta,
    retained: &mut RetainedState,
    mut state: impl GroupedState,
    kept_rows: usize,
    overflow: Option<SpillInput>,
    mut next_chunk: impl FnMut(&mut StreamContext) -> Result<Option<ColumnarBatch>>,
) -> Result<(ColumnarBatch, Option<Overflowed>)> {
    let mut writers: Option<(SpillManager, PartitionWriters)> = None;
    let mut consume_all = || -> Result<()> {
        while let Some(chunk) = next_chunk(ctx)? {
            // Each input row is folded in once, where it is consumed: here,
            // or in the leaf its partition file ends up in.
            let probes = match writers.as_mut() {
                None => {
                    let probes = state.consume(&chunk);
                    consumed(ctx, &chunk);
                    probes?
                }
                Some((_, writers)) => {
                    let frozen = state.consume_frozen(&chunk);
                    consumed(ctx, &chunk);
                    let FrozenConsume { probes, leftover } = frozen?;
                    if leftover.len() == chunk.num_rows() {
                        writers.route(ctx, &chunk)?;
                    } else if !leftover.is_empty() {
                        writers.route(ctx, &chunk.gather(&leftover))?;
                    }
                    probes
                }
            };
            ctx.add_probes(meta.id, probes);
            retained.grow_to(ctx, meta.id, kept_rows + state.groups());
            // The state itself can outgrow the budget even though each
            // consumed chunk passed its own check.
            ctx.check_guard(&meta.label)?;
            if let (None, Some(input)) = (writers.as_ref(), overflow) {
                if state_overflows(ctx) {
                    // Freeze: from here on the state takes only rows of
                    // the groups it already holds.
                    let mut manager = SpillManager::new().map_err(ExprError::from)?;
                    let fanout = level0_fanout(ctx);
                    let partitions =
                        PartitionWriters::create(&mut manager, ctx, input, spill_seed(0), fanout)?;
                    writers = Some((manager, partitions));
                }
            }
        }
        Ok(())
    };
    let spilled = match (consume_all(), writers) {
        (Ok(()), None) => None,
        (Ok(()), Some((manager, writers))) => Some((manager, writers.finish(ctx)?)),
        (Err(err), writers) => {
            // Rows still sitting in the write buffers die with the pass.
            if let Some((_, mut writers)) = writers {
                writers.rollback(ctx);
            }
            return Err(err);
        }
    };
    let result = state.finish()?;
    let keep = if overflow.is_none() || spilled.is_some() {
        kept_rows
    } else {
        0
    };
    retained.release(ctx);
    retained.grow_to(ctx, meta.id, keep);
    ctx.acquire(result.num_rows(), 1);
    Ok((result, spilled))
}

/// What a grouped operator (divide, aggregate) serves from once its input
/// is drained: the chunked result of the partition being served and a
/// worklist of on-disk leaf partitions — empty when the first pass never
/// overflowed.
#[derive(Default)]
pub(super) struct LeafOutput {
    /// Owns the spill directory for the lifetime of the serve phase.
    _manager: Option<SpillManager>,
    leaves: Vec<SpillHandle>,
    out: ChunkCursor,
}

impl LeafOutput {
    /// Serve the (acquired) `result` of a first [`grouped_pass`] — and, when
    /// it overflowed, the leaves its partition files of `input` split into:
    /// each is recursively re-partitioned until it holds at most `bound`
    /// rows — the operator's leaf bound — or the level cap is reached;
    /// empty partitions are dropped.
    pub(super) fn after_pass(
        ctx: &mut StreamContext,
        result: ColumnarBatch,
        spilled: Option<Overflowed>,
        input: SpillInput,
        bound: usize,
    ) -> Result<LeafOutput> {
        let mut output = LeafOutput {
            out: ChunkCursor::new(result),
            ..LeafOutput::default()
        };
        let Some((mut manager, first)) = spilled else {
            return Ok(output);
        };
        let mut work: Vec<(SpillHandle, usize)> = first.into_iter().map(|h| (h, 1)).collect();
        while let Some((handle, level)) = work.pop() {
            if handle.rows() == 0 {
                handle.delete();
            } else if handle.rows() <= bound || level >= MAX_SPILL_LEVELS {
                output.leaves.push(handle);
            } else {
                let seed = spill_seed(level);
                let fanout = split_fanout(ctx, handle.rows(), bound);
                match repartition(ctx, &mut manager, input, handle, seed, fanout) {
                    Ok(split) => work.extend(split.into_iter().map(|h| (h, level + 1))),
                    Err(err) => {
                        output.release(ctx);
                        return Err(err);
                    }
                }
            }
        }
        output._manager = Some(manager);
        Ok(output)
    }

    /// The next output chunk (for the caller to `emit`), running `leaf` on
    /// the next partition — it returns that partition's acquired result —
    /// whenever the current result is exhausted.
    pub(super) fn next(
        &mut self,
        ctx: &mut StreamContext,
        mut leaf: impl FnMut(&mut StreamContext, SpillHandle) -> Result<ColumnarBatch>,
    ) -> Result<Option<ColumnarBatch>> {
        loop {
            if let Some(chunk) = self.out.next(ctx) {
                return Ok(Some(chunk));
            }
            let Some(handle) = self.leaves.pop() else {
                return Ok(None);
            };
            self.out = ChunkCursor::new(leaf(ctx, handle)?);
        }
    }

    /// Release the accounting of a partly served result (close path).
    pub(super) fn release(&mut self, ctx: &mut StreamContext) {
        self.out.release(ctx);
    }
}
