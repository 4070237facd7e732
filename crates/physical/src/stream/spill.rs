//! The out-of-core half of the hybrid hash operators (join, divide / great
//! divide, grouped aggregation): the sink that buffers or partitions their
//! build input, the partition files, recursive re-partitioning and the leaf
//! worklist the operators serve from.
//!
//! This is Graefe's hybrid hash design, which the hash-division family this
//! workspace reproduces is explicitly built on:
//!
//! 1. **Stay in memory while it fits.** A [`SpillSink`] buffers the build
//!    input. With no spill budget on the guard
//!    ([`QueryGuard::spill_budget`](crate::guard::QueryGuard::spill_budget)
//!    is `None`) it never does anything else — that *is* the in-memory
//!    operator; with one, an input that ends before the budget is
//!    approached is fed to the same kernel — same code path, same result,
//!    no IO.
//! 2. **Partition to disk under pressure.** When the global resident
//!    footprint comes within a safety margin of the budget (two batches —
//!    the trigger must fire *before* a child emission would trip the
//!    [`crate::guard::QueryGuard`], whose check lives at the emit boundary),
//!    everything buffered plus everything still arriving is routed into
//!    [`SPILL_FANOUT`] spill files by the hash of the operator's key:
//!    the join's common attributes, the division's quotient attributes
//!    (Law 2: partitioning the dividend on the quotient attributes with the
//!    divisor replicated preserves the quotient), aggregation's grouping
//!    attributes. Key-disjoint partitions make per-partition results
//!    independent, so their union is the exact operator result.
//! 3. **Recurse per partition.** A partition that still does not fit is
//!    re-partitioned from disk with a fresh level seed
//!    ([`div_columnar::partition::hash_partition_seeded`] — all rows of one
//!    partition share their level-0 routing hash, so recursion *must*
//!    re-seed), up to [`MAX_SPILL_LEVELS`]; a level-capped partition (every
//!    row sharing one key) is served anyway and the budget backstop aborts
//!    honestly if it truly cannot fit.
//!
//! Spill files use the `div-storage` table format (checksummed, columnar),
//! live in a per-operator [`SpillManager`] temp directory, and are deleted
//! eagerly as they are consumed; the manager's `Drop` removes the directory
//! on *every* exit path, including mid-spill errors. The `spill.write` /
//! `spill.read` failpoints fire before every file write / chunk read, so
//! the chaos suite can fault either direction of the traffic. Spill volume
//! is reported as [`ExecStats::spill_partitions`] /
//! [`ExecStats::spill_rows_written`] / [`ExecStats::spill_rows_read`].
//!
//! [`ExecStats::spill_partitions`]: crate::stats::ExecStats::spill_partitions
//! [`ExecStats::spill_rows_written`]: crate::stats::ExecStats::spill_rows_written
//! [`ExecStats::spill_rows_read`]: crate::stats::ExecStats::spill_rows_read

use super::{collect_chunks, consolidate, consumed, BatchStream, ChunkCursor, StreamContext};
use crate::Result;
use div_algebra::Schema;
use div_columnar::{partition, ColumnarBatch};
use div_expr::ExprError;
use div_storage::{SpillHandle, SpillManager, SpillWriter, TableScanCursor};

/// Fan-out of every partitioning pass. Small on purpose: each level divides
/// the data by ~4, so even a tiny budget reaches a fitting partition within
/// a few levels, and the file count stays bounded.
const SPILL_FANOUT: usize = 4;

/// Recursion depth cap. A partition that still exceeds the budget after
/// this many re-partitionings is dominated by one key value; further
/// splitting cannot help, so it is served as-is and the budget backstop
/// decides.
pub(super) const MAX_SPILL_LEVELS: usize = 6;

/// Routing seed for recursion level `level` (level 0 — the first, in-line
/// partitioning pass — uses seed 0, the plain [`partition::hash_partition_keyed`]
/// routing). The odd multiplier is the golden-ratio mixing constant.
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
/// chunk is *not* acquired (re-partitioning routes it straight back out).
fn next_spill_chunk(
    ctx: &mut StreamContext,
    cursor: &mut TableScanCursor,
) -> Result<Option<ColumnarBatch>> {
    crate::failpoint::hit("spill", "read")?;
    let chunk = cursor.next_chunk().map_err(ExprError::from)?;
    ctx.stats.spill_rows_read += chunk.as_ref().map_or(0, ColumnarBatch::num_rows);
    Ok(chunk)
}

/// [`next_spill_chunk`] for an operator that keeps the chunk resident: it
/// is acquired, like a chunk a child stream emitted.
pub(super) fn next_resident_chunk(
    ctx: &mut StreamContext,
    cursor: &mut TableScanCursor,
) -> Result<Option<ColumnarBatch>> {
    let chunk = next_spill_chunk(ctx, cursor)?;
    if let Some(chunk) = &chunk {
        ctx.acquire(chunk.num_rows(), 1);
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
    let chunks = collect_chunks(ctx, |ctx| next_resident_chunk(ctx, &mut cursor))?;
    drop(cursor);
    handle.delete();
    consolidate(ctx, label, schema, chunks)
}

/// One fan-out's worth of open spill files plus the routing that feeds
/// them: rows are distributed by the seeded hash of their key columns.
pub(super) struct PartitionWriters {
    writers: Vec<SpillWriter>,
    key_cols: Vec<usize>,
    seed: u64,
}

impl PartitionWriters {
    pub(super) fn create(
        manager: &mut SpillManager,
        ctx: &mut StreamContext,
        schema: &Schema,
        key_cols: Vec<usize>,
        seed: u64,
    ) -> Result<PartitionWriters> {
        let mut writers = Vec::with_capacity(SPILL_FANOUT);
        for _ in 0..SPILL_FANOUT {
            writers.push(
                manager
                    .create_file(schema.clone())
                    .map_err(ExprError::from)?,
            );
            ctx.stats.spill_partitions += 1;
        }
        Ok(PartitionWriters {
            writers,
            key_cols,
            seed,
        })
    }

    /// Route one chunk into the partition files.
    pub(super) fn route(&mut self, ctx: &mut StreamContext, chunk: &ColumnarBatch) -> Result<()> {
        let parts =
            partition::hash_partition_seeded(chunk, &self.key_cols, self.writers.len(), self.seed);
        for (writer, (part, _keys)) in self.writers.iter_mut().zip(parts) {
            if part.num_rows() > 0 {
                spill_write(ctx, writer, &part)?;
            }
        }
        Ok(())
    }

    /// Seal all files into readable handles (in partition order).
    pub(super) fn finish(self) -> Result<Vec<SpillHandle>> {
        self.writers
            .into_iter()
            .map(|w| w.finish().map_err(ExprError::from))
            .collect()
    }
}

/// Re-partition one on-disk partition into [`SPILL_FANOUT`] fresh files
/// with the given level seed, deleting the source file.
pub(super) fn repartition(
    ctx: &mut StreamContext,
    manager: &mut SpillManager,
    schema: &Schema,
    key_cols: &[usize],
    handle: SpillHandle,
    seed: u64,
) -> Result<Vec<SpillHandle>> {
    let mut writers = PartitionWriters::create(manager, ctx, schema, key_cols.to_vec(), seed)?;
    let mut cursor = open_spill(&handle)?;
    while let Some(chunk) = next_spill_chunk(ctx, &mut cursor)? {
        writers.route(ctx, &chunk)?;
    }
    drop(cursor);
    handle.delete();
    writers.finish()
}

/// The build-side accumulator of every hybrid operator: buffers chunks in
/// memory (they remain under their emitters' resident accounting) until
/// the spill trigger fires, then becomes a disk router. Without a
/// `threshold` the trigger never fires. Chunks handed to
/// [`SpillSink::push`] are *always* balanced — buffered ones stay
/// accounted until consumed or rolled back, routed ones are released as
/// they hit disk.
pub(super) struct SpillSink {
    schema: Schema,
    key_cols: Vec<usize>,
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

impl SpillSink {
    pub(super) fn new(schema: Schema, key_cols: Vec<usize>, threshold: Option<usize>) -> SpillSink {
        SpillSink {
            schema,
            key_cols,
            threshold,
            buffered: Vec::new(),
            spill: None,
        }
    }

    /// Accept one child-emitted chunk (already acquired by the emitter).
    fn push(&mut self, ctx: &mut StreamContext, chunk: ColumnarBatch) -> Result<()> {
        if let Some((_, writers)) = self.spill.as_mut() {
            let routed = writers.route(ctx, &chunk);
            consumed(ctx, &chunk);
            return routed;
        }
        self.buffered.push(chunk);
        if let Some(threshold) = self.threshold {
            if ctx.resident_rows + spill_margin(ctx) > threshold {
                self.activate(ctx)?;
            }
        }
        Ok(())
    }

    /// Switch to disk: create the spill directory and flush everything
    /// buffered through the partitioner. Accounting for every buffered
    /// chunk is released here whether routing succeeds or not.
    fn activate(&mut self, ctx: &mut StreamContext) -> Result<()> {
        let mut manager = SpillManager::new().map_err(ExprError::from)?;
        let mut writers = PartitionWriters::create(
            &mut manager,
            ctx,
            &self.schema,
            self.key_cols.clone(),
            spill_seed(0),
        )?;
        let mut first_err = None;
        for chunk in self.buffered.drain(..) {
            if first_err.is_none() {
                first_err = writers.route(ctx, &chunk).err();
            }
            consumed(ctx, &chunk);
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        self.spill = Some((manager, writers));
        Ok(())
    }

    /// Release the accounting of anything still buffered (error path).
    fn rollback(&mut self, ctx: &mut StreamContext) {
        for chunk in self.buffered.drain(..) {
            consumed(ctx, &chunk);
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
            Some((manager, writers)) => Drained::Spilled(manager, writers.finish()?),
        })
    }
}

/// What a partitioned blocking operator (divide, aggregate) serves from
/// once its input is drained: a worklist of on-disk leaf partitions — empty
/// when the input never spilled — and the chunked result of the partition
/// being served.
#[derive(Default)]
pub(super) struct LeafOutput {
    /// Owns the spill directory for the lifetime of the serve phase.
    _manager: Option<SpillManager>,
    leaves: Vec<SpillHandle>,
    out: ChunkCursor,
}

impl LeafOutput {
    /// The whole (acquired) result of an input that stayed in memory.
    pub(super) fn in_memory(result: ColumnarBatch) -> LeafOutput {
        LeafOutput {
            out: ChunkCursor::new(result),
            ..LeafOutput::default()
        }
    }

    /// Recursively split the first-pass partitions until each satisfies
    /// `fits` (on its row count) or the level cap is reached; empty
    /// partitions are dropped. What remains is the leaf worklist.
    pub(super) fn plan(
        ctx: &mut StreamContext,
        mut manager: SpillManager,
        schema: &Schema,
        key_cols: &[usize],
        first: Vec<SpillHandle>,
        fits: impl Fn(usize) -> bool,
    ) -> Result<LeafOutput> {
        let mut work: Vec<(SpillHandle, usize)> = first.into_iter().map(|h| (h, 1)).collect();
        let mut leaves = Vec::new();
        while let Some((handle, level)) = work.pop() {
            if handle.rows() == 0 {
                handle.delete();
            } else if fits(handle.rows()) || level >= MAX_SPILL_LEVELS {
                leaves.push(handle);
            } else {
                let seed = spill_seed(level);
                let split = repartition(ctx, &mut manager, schema, key_cols, handle, seed)?;
                work.extend(split.into_iter().map(|h| (h, level + 1)));
            }
        }
        Ok(LeafOutput {
            _manager: Some(manager),
            leaves,
            out: ChunkCursor::default(),
        })
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
