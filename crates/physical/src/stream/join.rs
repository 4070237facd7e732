//! Build-probe operators: a materialized right side, a streamed left side —
//! the hybrid hash join (natural, semi, anti, and so ∩ and −) and the
//! nested loop (⋈θ and ×). A semi or anti join, resident or per spilled
//! partition, builds with [`JoinBuild::semi`]: one bit per key if it can.

use super::spill::{
    load_spill_batch, near_budget, next_resident_chunk, open_spill, spillable_rows, split_leaves,
    PartitionWriters, SpillInput,
};
use super::{
    collect_chunks, consolidate, consumed, drain_to_batch, BatchStream, OpMeta, RetainedState,
    StreamContext,
};
use crate::Result;
use div_algebra::{Predicate, Schema};
use div_columnar::kernels::{self, JoinBuild, KernelOutput};
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

/// A loaded build table and the probe input streaming through it.
struct JoinLeaf {
    build: JoinBuild,
    /// The probe partition streaming off disk; `None` when the build side
    /// never spilled and the live left child is probed directly.
    probe: Option<TableScanCursor>,
}

/// Hybrid hash natural/semi/anti join: the right (build) side is drained
/// into a [`JoinBuild`] and the left (probe) side streams through it one
/// chunk at a time — unless the guard carries a spill budget the build side
/// approaches, in which case both sides are partitioned to disk Grace-style
/// (with per-partition recursion) and served one partition pair at a time.
/// Both sides are routed by the *same* seeded hash of the common attributes
/// (in identical attribute order), so matching rows always land in the same
/// partition pair.
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
    built: bool,
    /// Owns the spill directory for the lifetime of the serve phase.
    manager: Option<SpillManager>,
    /// Remaining on-disk (build, probe) partition pairs.
    pairs: Vec<[SpillHandle; 2]>,
    current: Option<JoinLeaf>,
    retained: RetainedState,
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
            built: false,
            manager: None,
            pairs: Vec::new(),
            current: None,
            retained: RetainedState::default(),
        }
    }

    /// Move a consolidated (acquired) build batch into a [`JoinBuild`] —
    /// for a semi or anti join one its probes only test keys against —
    /// keeping its accounting under the retained state.
    fn load(&mut self, ctx: &mut StreamContext, batch: ColumnarBatch) -> Result<JoinBuild> {
        let rows = batch.num_rows();
        let build = match self.kind {
            JoinKind::Natural => JoinBuild::new(self.left.schema(), batch),
            JoinKind::Semi | JoinKind::Anti => JoinBuild::semi(self.left.schema(), batch),
        };
        ctx.release(rows, 1);
        let build = build.map_err(ExprError::from)?;
        self.retained.grow_to(ctx, self.meta.id, rows);
        Ok(build)
    }

    fn build(&mut self, ctx: &mut StreamContext) -> Result<()> {
        let left_schema = self.left.schema().clone();
        let right_schema = self.right.schema().clone();
        // The key attribute *order* must be identical on both sides so the
        // per-row key codes — and therefore the routing — agree.
        let key_names = left_schema.common_attributes(&right_schema);
        let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
        let build_keys = right_schema
            .projection_indices(&key_refs)
            .map_err(ExprError::from)?;
        let probe_keys = left_schema
            .projection_indices(&key_refs)
            .map_err(ExprError::from)?;

        let label = self.meta.label.clone();
        let build_input = SpillInput {
            label: &label,
            schema: &right_schema,
            key_cols: &build_keys,
        };
        let probe_input = SpillInput {
            label: &label,
            schema: &left_schema,
            key_cols: &probe_keys,
        };

        // Buffer the build side until the statement nears its spill budget.
        let mut spilling = false;
        let buffered = collect_chunks(ctx, |ctx| {
            if spilling {
                return Ok(None);
            }
            let chunk = self.right.next_batch(ctx)?;
            spilling = chunk.is_some() && near_budget(ctx);
            Ok(chunk)
        })?;
        if !spilling {
            self.right.close(ctx);
            let batch = consolidate(ctx, &label, &right_schema, buffered)?;
            let build = self.load(ctx, batch)?;
            self.current = Some(JoinLeaf { build, probe: None });
            return Ok(());
        }
        let (mut manager, build_first) = spill_build(ctx, &mut self.right, build_input, buffered)?;
        self.right.close(ctx);

        // Spilled: the probe side goes to disk too, routed with the same
        // level-0 seed on the same key attributes into as many files.
        let probe_first = PartitionWriters::first_pass(&mut manager, ctx, probe_input)?
            .drain(ctx, |ctx| self.left.next_batch(ctx))?;

        // A pair is a leaf when its build side — what gets loaded — fits.
        // An anti-join emits every probe row of a partition whose build
        // side is empty, so only probe-empty pairs are skippable there.
        let anti = self.kind == JoinKind::Anti;
        let first = build_first.into_iter().zip(probe_first);
        self.pairs = split_leaves(
            ctx,
            &mut manager,
            [build_input, probe_input],
            first.map(|(build, probe)| [build, probe]).collect(),
            spillable_rows(ctx),
            |[build, probe]| probe.rows() == 0 || (!anti && build.rows() == 0),
        )?;
        self.manager = Some(manager);
        Ok(())
    }

    /// Load one partition pair: materialize the build file into a
    /// [`JoinBuild`], open the probe file for streaming.
    fn load_leaf(
        &mut self,
        ctx: &mut StreamContext,
        [build, probe]: [SpillHandle; 2],
    ) -> Result<JoinLeaf> {
        let batch = load_spill_batch(ctx, &self.meta.label, self.right.schema(), build)?;
        let build = self.load(ctx, batch)?;
        let cursor = open_spill(&probe)?;
        // The cursor keeps its own open file descriptor; unlinking now keeps
        // peak disk usage flat across leaves.
        probe.delete();
        Ok(JoinLeaf {
            build,
            probe: Some(cursor),
        })
    }
}

/// Partition the join's build side to disk: the chunks `buffered` holds
/// first, then the rest of `right`, through a first pass's writers. Chunks
/// an error leaves in the buffer are released here.
fn spill_build(
    ctx: &mut StreamContext,
    right: &mut Box<dyn BatchStream>,
    input: SpillInput,
    buffered: Vec<ColumnarBatch>,
) -> Result<(SpillManager, Vec<SpillHandle>)> {
    let mut buffered = buffered.into_iter();
    let spilled = SpillManager::new()
        .map_err(ExprError::from)
        .and_then(|mut manager| {
            let first =
                PartitionWriters::first_pass(&mut manager, ctx, input)?.drain(ctx, |ctx| {
                    match buffered.next() {
                        Some(chunk) => Ok(Some(chunk)),
                        None => right.next_batch(ctx),
                    }
                })?;
            Ok((manager, first))
        });
    for chunk in buffered {
        consumed(ctx, &chunk);
    }
    spilled
}

impl BatchStream for HashJoinStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if !self.built {
            self.build(ctx)?;
            self.built = true;
        }
        loop {
            let Some(leaf) = self.current.as_mut() else {
                let Some(pair) = self.pairs.pop() else {
                    return Ok(None);
                };
                self.current = Some(self.load_leaf(ctx, pair)?);
                continue;
            };
            let chunk = match leaf.probe.as_mut() {
                // The in-memory build stays loaded until close.
                None => match self.left.next_batch(ctx)? {
                    Some(chunk) => chunk,
                    None => return Ok(None),
                },
                Some(cursor) => match next_resident_chunk(ctx, &self.meta.label, cursor)? {
                    Some(chunk) => chunk,
                    None => {
                        self.retained.release(ctx);
                        self.current = None;
                        continue;
                    }
                },
            };
            // The probed chunk is finished with either way — release it
            // before a kernel error can propagate past its accounting. A
            // semi or anti probe that keeps every row passes the chunk on.
            consumed(ctx, &chunk);
            let probed = match self.kind {
                JoinKind::Natural => leaf.build.probe_natural(&chunk),
                JoinKind::Semi => leaf.build.probe_semi(chunk, false),
                JoinKind::Anti => leaf.build.probe_semi(chunk, true),
            };
            let KernelOutput { batch, probes } = probed.map_err(ExprError::from)?;
            ctx.add_probes(self.meta.id, probes);
            if batch.num_rows() > 0 {
                return self.meta.emit(ctx, batch);
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.current = None;
        self.pairs.clear();
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
