//! The out-of-core half of the hybrid hash operators (join, divide / great
//! divide, grouped aggregation): the partition files and the buffered
//! writers that fill them, the triggers that open them, and the one split
//! loop that turns a first pass's files into leaves that fit.
//!
//! This is Graefe's hybrid hash design, which the hash-division family this
//! workspace reproduces is explicitly built on:
//!
//! 1. **Spill what does not fit — and only that.** Every operator watches
//!    the thing it actually keeps. The join keeps its build input,
//!    interned chunk by chunk (a semi or anti build whose build side is its
//!    key alone keeps presence bits and no rows), and when the statement's
//!    resident footprint comes within a safety margin of the budget
//!    ([`near_budget`]: two batches — the trigger must fire *before* a
//!    child emission would trip the [`crate::guard::QueryGuard`], whose
//!    check lives at the emit boundary) it turns hybrid: what it holds and
//!    everything still arriving are routed through [`PartitionWriters`]
//!    whose partition 0 stays resident ([`keeps_partition_resident`]) —
//!    built in memory, its probe rows probed at once and never written —
//!    while the other partitions go to disk. The divide and the aggregate keep
//!    grouped *state* — the divide's divisor + quotient groups, the
//!    aggregate's one accumulator row per group — and read their input
//!    once, so their trigger ([`state_overflows`]) watches the state: when
//!    that nears the budget the resident groups are frozen, keep consuming
//!    their own rows, and only rows of groups the state has never met are
//!    partitioned (`grouped.rs`). With no spill budget on the guard
//!    ([`QueryGuard::spill_budget`](crate::guard::QueryGuard::spill_budget)
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
//!    per row fits; divide: divisor plus one group per row fit), and
//!    [`split_leaves`] — the one split loop all three call — applies it: a
//!    partition over the bound is re-partitioned from disk into
//!    [`split_fanout`] files — its row count over the bound, with headroom
//!    for skew — under a fresh level seed
//!    ([`div_columnar::partition::Routing`] — all rows of one
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

use super::{consumed, StreamContext};
use crate::Result;
use div_algebra::Schema;
use div_columnar::partition::{BatchAppender, Routing};
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
const MAX_SPILL_LEVELS: usize = 6;

/// Routing seed for recursion level `level` (level 0 — the first, in-line
/// partitioning pass — uses seed 0, the unseeded
/// [`Routing::route`]). The odd multiplier is the
/// golden-ratio mixing constant.
fn spill_seed(level: usize) -> u64 {
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

/// Whether a hash join that turns hybrid keeps partition 0 resident: only
/// when the spill budget holds more than [`MIN_FANOUT`] full-chunk write
/// buffers. At the floor the buffers alone may take all of it, and a
/// resident partition would leave the operators above the join no room.
pub(super) fn keeps_partition_resident(ctx: &StreamContext) -> bool {
    spillable_rows(ctx) / ctx.batch_size() > MIN_FANOUT
}

/// The join's spill trigger, and the pressure at which [`PartitionWriters`]
/// writes a partial chunk: `true` once the statement's resident rows come
/// within [`spill_margin`] of the spill budget.
pub(super) fn near_budget(ctx: &StreamContext) -> bool {
    ctx.spill_threshold()
        .is_some_and(|threshold| ctx.resident_rows + spill_margin(ctx) > threshold)
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
fn split_fanout(ctx: &StreamContext, rows: usize, bound: usize) -> usize {
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

/// One partitioned input of a hybrid operator: whose it is (the operator
/// label the guard blames), its schema, and the key columns it is routed on.
#[derive(Clone, Copy)]
pub(super) struct SpillInput<'a> {
    pub(super) label: &'a str,
    pub(super) schema: &'a Schema,
    pub(super) key_cols: &'a [usize],
}

/// One partition of a pass: its spill file — none while the partition is
/// resident — and the rows routed to it that have not been written yet.
struct Partition {
    writer: Option<SpillWriter>,
    buffer: BatchAppender,
}

/// One fan-out's worth of partitions plus the routing that feeds them:
/// rows are distributed by the seeded hash of their key columns, once per
/// chunk ([`Routing`], reused chunk after chunk), and coalesced per
/// partition in buffers that keep their allocations from flush to flush,
/// so what reaches a file is a full `batch_size`-row chunk — or, when the
/// statement's resident rows come within the margin of the budget, the
/// largest buffer there is ([`PartitionWriters::relieve`]). The buffered
/// rows are resident rows like any other: acquired as they are appended,
/// released as they are written, and rolled back by
/// [`PartitionWriters::rollback`] when the pass dies. Because the flush
/// follows the *measured* footprint, the buffers only ever use memory
/// nobody else holds: under a tiny budget, or next to a neighbour's state,
/// they shrink towards unbuffered writes instead of tripping the guard.
///
/// A hybrid hash join's pass keeps partition 0 *resident*: it has no file
/// and no buffer, and [`PartitionWriters::route`] hands its rows back to the
/// operator, which builds or probes them in memory — until
/// [`PartitionWriters::evict`] sends it to disk like the others.
pub(super) struct PartitionWriters {
    parts: Vec<Partition>,
    key_cols: Vec<usize>,
    seed: u64,
    routing: Routing,
    schema: Schema,
}

impl PartitionWriters {
    /// `fanout` partitions of `input` routed under `seed`, each with a
    /// file in `manager` — but partition 0 when it is `resident`.
    fn create(
        manager: &mut SpillManager,
        ctx: &mut StreamContext,
        input: SpillInput,
        seed: u64,
        fanout: usize,
        resident: bool,
    ) -> Result<PartitionWriters> {
        let mut parts = Vec::with_capacity(fanout);
        for p in 0..fanout {
            let spilled = !(resident && p == 0);
            let writer = match spilled {
                true => Some(spill_file(manager, ctx, input.schema)?),
                false => None,
            };
            let capacity = if spilled { ctx.batch_size() } else { 0 };
            parts.push(Partition {
                writer,
                buffer: BatchAppender::with_capacity(input.schema.clone(), capacity),
            });
        }
        Ok(PartitionWriters {
            parts,
            key_cols: input.key_cols.to_vec(),
            seed,
            routing: Routing::default(),
            schema: input.schema.clone(),
        })
    }

    /// Route one chunk into the partition buffers, writing out what is
    /// full, and hand back the rows of a resident partition, if any —
    /// unaccounted, in chunk order. The chunk itself must no longer be
    /// accounted — a caller holding an acquired chunk releases it first, so
    /// a routed row is counted once, wherever it currently sits. Buffers
    /// are only written early by [`PartitionWriters::relieve`]. On an error
    /// the buffers are rolled back here.
    pub(super) fn route(
        &mut self,
        ctx: &mut StreamContext,
        chunk: ColumnarBatch,
    ) -> Result<Option<ColumnarBatch>> {
        let routed = self.try_route(ctx, chunk);
        if routed.is_err() {
            self.rollback(ctx);
        }
        routed
    }

    fn try_route(
        &mut self,
        ctx: &mut StreamContext,
        chunk: ColumnarBatch,
    ) -> Result<Option<ColumnarBatch>> {
        let routing = &mut self.routing;
        routing.route(&chunk, &self.key_cols, self.parts.len(), self.seed);
        let resident = self.parts[0].writer.is_none();
        if resident && routing.rows(0).len() == chunk.num_rows() {
            return Ok(Some(chunk));
        }
        for (p, part) in self.parts.iter_mut().enumerate() {
            if part.writer.is_some() {
                part.append(ctx, &chunk, routing.rows(p))?;
            }
        }
        let rows = routing.rows(0);
        Ok((resident && !rows.is_empty()).then(|| chunk.gather(rows)))
    }

    /// Under pressure a partial chunk is better than a budget abort: write
    /// the largest buffer there is while the statement's resident rows
    /// stay within the margin of the budget, so what is written is as full
    /// as it can be. On an error the buffers are rolled back here.
    pub(super) fn relieve(&mut self, ctx: &mut StreamContext) -> Result<()> {
        while near_budget(ctx) {
            let Some(largest) = self
                .parts
                .iter_mut()
                .filter(|part| part.buffer.num_rows() > 0)
                .max_by_key(|part| part.buffer.num_rows())
            else {
                break;
            };
            if let Err(err) = largest.flush(ctx) {
                self.rollback(ctx);
                return Err(err);
            }
        }
        Ok(())
    }

    /// Send a resident partition 0 to disk: give it a file in `manager` and
    /// write `chunks` — its rows so far, no longer accounted — through its
    /// buffer. From here on its rows are routed like any other partition's.
    /// On an error the buffers are rolled back here.
    pub(super) fn evict(
        &mut self,
        manager: &mut SpillManager,
        ctx: &mut StreamContext,
        chunks: impl IntoIterator<Item = ColumnarBatch>,
    ) -> Result<()> {
        let evicted = spill_file(manager, ctx, &self.schema).and_then(|writer| {
            let part = &mut self.parts[0];
            part.writer = Some(writer);
            chunks.into_iter().try_for_each(|chunk| {
                let rows: Vec<usize> = (0..chunk.num_rows()).collect();
                part.append(ctx, &chunk, &rows)
            })
        });
        if evicted.is_err() {
            self.rollback(ctx);
        }
        evicted
    }

    /// The writers of a first partitioning pass over `input`:
    /// [`level0_fanout`] partitions routed with the level-0 seed, partition
    /// 0 `resident` or with a file in `manager` like the others.
    /// Co-partitioned inputs (the join's two sides) each get their own.
    pub(super) fn first_pass(
        manager: &mut SpillManager,
        ctx: &mut StreamContext,
        input: SpillInput,
        resident: bool,
    ) -> Result<PartitionWriters> {
        let fanout = level0_fanout(ctx);
        PartitionWriters::create(manager, ctx, input, spill_seed(0), fanout, resident)
    }

    /// Route every (acquired) chunk `next` yields and seal the files; the
    /// buffers' accounting is rolled back whichever step fails. For passes
    /// with no resident partition.
    fn drain(
        mut self,
        ctx: &mut StreamContext,
        mut next: impl FnMut(&mut StreamContext) -> Result<Option<ColumnarBatch>>,
    ) -> Result<Vec<SpillHandle>> {
        loop {
            match next(ctx) {
                Ok(Some(chunk)) => {
                    consumed(ctx, &chunk);
                    let resident = self.route(ctx, chunk)?;
                    debug_assert!(resident.is_none(), "a drained pass spills every partition");
                    self.relieve(ctx)?;
                }
                Ok(None) => return self.finish(ctx),
                Err(err) => {
                    self.rollback(ctx);
                    return Err(err);
                }
            }
        }
    }

    /// Write out what is still buffered and seal the files into readable
    /// handles, in partition order — a resident partition has none.
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
            .filter_map(|part| part.writer)
            .map(|writer| writer.finish().map_err(ExprError::from))
            .collect()
    }

    /// Drop whatever is buffered and release its accounting (error paths;
    /// idempotent).
    pub(super) fn rollback(&mut self, ctx: &mut StreamContext) {
        for part in &mut self.parts {
            let rows = part.buffer.num_rows();
            part.buffer.clear();
            ctx.release(rows, usize::from(rows > 0));
        }
    }
}

/// A fresh partition file of `schema` in `manager`, counted.
fn spill_file(
    manager: &mut SpillManager,
    ctx: &mut StreamContext,
    schema: &Schema,
) -> Result<SpillWriter> {
    let writer = manager
        .create_file(schema.clone())
        .map_err(ExprError::from)?;
    ctx.stats.spill_partitions += 1;
    Ok(writer)
}

impl Partition {
    /// Append `rows` of `chunk` to the buffer, writing a chunk each time it
    /// holds `batch_size` rows.
    fn append(
        &mut self,
        ctx: &mut StreamContext,
        chunk: &ColumnarBatch,
        mut rows: &[usize],
    ) -> Result<()> {
        let full = ctx.batch_size();
        while !rows.is_empty() {
            let space = full - self.buffer.num_rows();
            let (fitting, rest) = rows.split_at(space.min(rows.len()));
            ctx.acquire(fitting.len(), usize::from(self.buffer.num_rows() == 0));
            self.buffer.append_rows(chunk, fitting);
            if self.buffer.num_rows() == full {
                self.flush(ctx)?;
            }
            rows = rest;
        }
        Ok(())
    }

    /// Write the buffered rows as one chunk. They leave the buffer — and
    /// the accounting — whether or not the write succeeds.
    fn flush(&mut self, ctx: &mut StreamContext) -> Result<()> {
        let writer = self
            .writer
            .as_mut()
            .expect("a resident partition buffers nothing");
        ctx.release(self.buffer.num_rows(), 1);
        self.buffer.flush(|batch| spill_write(ctx, writer, batch))
    }
}

/// Re-partition one on-disk partition of `input` into `fanout` fresh files
/// with the given level seed, deleting the source file.
fn repartition(
    ctx: &mut StreamContext,
    manager: &mut SpillManager,
    input: SpillInput,
    handle: SpillHandle,
    seed: u64,
    fanout: usize,
) -> Result<Vec<SpillHandle>> {
    let writers = PartitionWriters::create(manager, ctx, input, seed, fanout, false)?;
    let mut cursor = open_spill(&handle)?;
    let split = writers.drain(ctx, |ctx| {
        next_resident_chunk(ctx, input.label, &mut cursor)
    })?;
    drop(cursor);
    handle.delete();
    Ok(split)
}

/// The one split loop of the hybrid operators: settle a first pass's
/// co-partitioned spill files — one per partition for a grouped operator,
/// a (build, probe) pair for the join — into leaves, returned in the order
/// they are to be served from the back.
///
/// A partition `skip` accepts is deleted. One whose first file holds at
/// most `bound` rows (the operator's leaf bound, floored at one row: a file
/// of one row cannot shrink) or that reached [`MAX_SPILL_LEVELS`] is a leaf.
/// Any other is re-split from disk: every file of it with the same
/// next-level seed and [`split_fanout`] (sized from the first file), so the
/// pieces stay co-partitioned. The worklist is LIFO. On an error the files
/// still pending die with the manager.
pub(super) fn split_leaves<const N: usize>(
    ctx: &mut StreamContext,
    manager: &mut SpillManager,
    inputs: [SpillInput; N],
    first: Vec<[SpillHandle; N]>,
    bound: usize,
    skip: impl Fn(&[SpillHandle; N]) -> bool,
) -> Result<Vec<[SpillHandle; N]>> {
    let mut leaves = Vec::new();
    let mut work: Vec<([SpillHandle; N], usize)> =
        first.into_iter().map(|files| (files, 1)).collect();
    while let Some((files, level)) = work.pop() {
        let rows = files[0].rows();
        if skip(&files) {
            files.into_iter().for_each(SpillHandle::delete);
        } else if rows <= bound.max(1) || level >= MAX_SPILL_LEVELS {
            leaves.push(files);
        } else {
            let (seed, fanout) = (spill_seed(level), split_fanout(ctx, rows, bound));
            let mut splits = Vec::with_capacity(N);
            for (input, file) in inputs.into_iter().zip(files) {
                splits.push(repartition(ctx, manager, input, file, seed, fanout)?.into_iter());
            }
            for _ in 0..fanout {
                let files = std::array::from_fn(|i| splits[i].next().expect("one file per part"));
                work.push((files, level + 1));
            }
        }
    }
    Ok(leaves)
}
