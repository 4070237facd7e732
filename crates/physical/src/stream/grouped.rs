//! The grouped operators: division (small and great) and grouped
//! aggregation, one hybrid hash operator over a [`GroupedState`].

use super::spill::{
    next_resident_chunk, open_spill, spillable_rows, split_leaves, state_overflows,
    PartitionWriters, SpillInput,
};
use super::{
    consumed, drain_to_batch, BatchStream, ChunkCursor, OpMeta, RetainedState, StreamContext,
};
use crate::Result;
use div_algebra::{AggregateCall, Schema};
use div_columnar::kernels::{StreamingAggregate, StreamingGreatDivide};
use div_columnar::{ColumnarBatch, FrozenConsume};
use div_expr::ExprError;
use div_storage::{SpillHandle, SpillManager};

/// Hybrid hash division and aggregation. The input is *consumed*
/// chunk-at-a-time into grouped state under any guard — the divide's
/// coverage groups against its materialized divisor
/// ([`StreamingGreatDivide`]; memory ∝ divisor + quotient groups, never the
/// dividend), the aggregate's one accumulator row per group
/// ([`StreamingAggregate`]). The result is only known at the end, so the
/// output is a blocking boundary.
///
/// `StreamingGreatDivide` is the small divide when the divisor has no
/// attributes of its own — which is the schema precondition of
/// `LogicalPlan::SmallDivide`: the whole divisor is then its one divisor
/// group — so one state type serves both division nodes.
///
/// What can outgrow a spill budget is therefore the *state*, and that is
/// what the operator watches. When it approaches the budget
/// ([`state_overflows`]) the resident group set is frozen: rows of resident
/// groups are still consumed — every resident group has seen its whole
/// input by the end — and rows of groups the state has not met are
/// partitioned to disk on the grouping attributes (the divide's quotient
/// attributes), to be served leaf by leaf afterwards, each leaf a fresh
/// pass (against the replicated divisor). Every group lands wholly in
/// memory or wholly in one partition, so the union of the results is the
/// operator's (Law 2 of the division framework; the hybrid form of
/// Graefe's quotient partitioning). An input whose state fits is never
/// written anywhere, whatever its length; a global aggregate (no
/// `GROUP BY`) holds one group and never spills.
pub(super) struct GroupedStream {
    meta: OpMeta,
    input: Box<dyn BatchStream>,
    grouping: Grouping,
    schema: Schema,
    /// The partitioning key: the grouping (quotient) columns of the input.
    key_cols: Vec<usize>,
    built: bool,
    /// The result being served, a pass's at a time.
    out: ChunkCursor,
    /// On-disk leaves still to be served, and the directory that owns them.
    leaves: Vec<SpillHandle>,
    manager: Option<SpillManager>,
    /// The divisor plus the groups of the pass in progress.
    retained: RetainedState,
}

/// What a pass of a [`GroupedStream`] starts from.
enum Grouping {
    /// Never fed: every pass starts from a clone of it.
    Aggregate(StreamingAggregate),
    /// The divisor stream, and once the build drained it the divisor every
    /// pass divides by.
    Divide(Box<dyn BatchStream>, Option<ColumnarBatch>),
}

/// A grouped state one pass folds its input into — the divide's coverage
/// groups, the aggregate's accumulator rows — and that can be *frozen*:
/// from then on it takes only rows of the groups it holds, and hands the
/// others back. That is what lets [`grouped_pass`] overflow without giving
/// up the groups it already has.
trait GroupedState {
    /// Fold one chunk in, adding the groups it introduces; the kernel
    /// probes it performed.
    fn consume(&mut self, chunk: &ColumnarBatch) -> Result<usize>;
    /// Fold in the rows of resident groups only; the rest are left over.
    fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> Result<FrozenConsume>;
    /// Groups held — the state's resident rows.
    fn groups(&self) -> usize;
    /// The pass's result, one row per qualifying group.
    fn finish(self: Box<Self>) -> Result<ColumnarBatch>;
}

impl GroupedState for StreamingGreatDivide {
    fn consume(&mut self, chunk: &ColumnarBatch) -> Result<usize> {
        Ok(StreamingGreatDivide::consume(self, chunk))
    }

    fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> Result<FrozenConsume> {
        Ok(StreamingGreatDivide::consume_frozen(self, chunk))
    }

    fn groups(&self) -> usize {
        StreamingGreatDivide::groups(self)
    }

    fn finish(self: Box<Self>) -> Result<ColumnarBatch> {
        Ok(StreamingGreatDivide::finish(*self))
    }
}

impl GroupedState for StreamingAggregate {
    fn consume(&mut self, chunk: &ColumnarBatch) -> Result<usize> {
        // Probes count divisor and build-side lookups; grouping has none.
        StreamingAggregate::consume(self, chunk).map_err(ExprError::from)?;
        Ok(0)
    }

    fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> Result<FrozenConsume> {
        let frozen = StreamingAggregate::consume_frozen(self, chunk).map_err(ExprError::from)?;
        Ok(FrozenConsume {
            probes: 0,
            ..frozen
        })
    }

    fn groups(&self) -> usize {
        StreamingAggregate::groups(self)
    }

    fn finish(self: Box<Self>) -> Result<ColumnarBatch> {
        StreamingAggregate::finish(*self).map_err(ExprError::from)
    }
}

impl GroupedStream {
    pub(super) fn aggregate(
        meta: OpMeta,
        input: Box<dyn BatchStream>,
        schema: Schema,
        group_by: &[String],
        aggregates: &[AggregateCall],
    ) -> Result<GroupedStream> {
        let refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let blank =
            StreamingAggregate::new(input.schema(), &refs, aggregates).map_err(ExprError::from)?;
        let key_cols = blank.key_cols().to_vec();
        let grouping = Grouping::Aggregate(blank);
        Ok(GroupedStream::new(meta, input, grouping, schema, key_cols))
    }

    /// `schema` is the quotient's, `A` then `C`: the dividend's attributes
    /// in it are the grouping (quotient) attributes `A`.
    pub(super) fn divide(
        meta: OpMeta,
        dividend: Box<dyn BatchStream>,
        divisor: Box<dyn BatchStream>,
        schema: Schema,
    ) -> GroupedStream {
        let key_cols = schema
            .attributes()
            .filter_map(|a| dividend.schema().index_of(a.name()))
            .collect();
        let grouping = Grouping::Divide(divisor, None);
        GroupedStream::new(meta, dividend, grouping, schema, key_cols)
    }

    fn new(
        meta: OpMeta,
        input: Box<dyn BatchStream>,
        grouping: Grouping,
        schema: Schema,
        key_cols: Vec<usize>,
    ) -> GroupedStream {
        GroupedStream {
            meta,
            input,
            grouping,
            schema,
            key_cols,
            built: false,
            out: ChunkCursor::default(),
            leaves: Vec::new(),
            manager: None,
            retained: RetainedState::default(),
        }
    }

    /// The rows every pass holds next to its state: the divisor.
    fn kept_rows(&self) -> usize {
        match &self.grouping {
            Grouping::Divide(_, Some(divisor)) => divisor.num_rows(),
            _ => 0,
        }
    }

    /// A never-fed state for one pass.
    fn blank(&self) -> Result<Box<dyn GroupedState>> {
        Ok(match &self.grouping {
            Grouping::Aggregate(blank) => Box::new(blank.clone()),
            Grouping::Divide(_, divisor) => {
                let divisor = divisor.clone().expect("the build drains the divisor first");
                let state = StreamingGreatDivide::new(self.input.schema(), divisor);
                Box::new(state.map_err(ExprError::from)?)
            }
        })
    }

    /// Build phase: materialize the divisor, then run the live input
    /// through the first pass — and, past the budget, its unseen groups out
    /// to disk, split into leaves that fit.
    fn build(&mut self, ctx: &mut StreamContext) -> Result<()> {
        if let Grouping::Divide(child, divisor) = &mut self.grouping {
            let batch = drain_to_batch(child, ctx, &self.meta.label)?;
            child.close(ctx);
            ctx.release(batch.num_rows(), 1);
            self.retained.grow_to(ctx, self.meta.id, batch.num_rows());
            *divisor = Some(batch);
        }
        let (kept_rows, state) = (self.kept_rows(), self.blank()?);
        let schema = self.input.schema().clone();
        let input = SpillInput {
            label: &self.meta.label,
            schema: &schema,
            key_cols: &self.key_cols,
        };
        // A global aggregate has nothing to partition on.
        let overflow = (!input.key_cols.is_empty()).then_some(input);
        let (result, spilled) = grouped_pass(
            ctx,
            &self.meta,
            &mut self.retained,
            state,
            kept_rows,
            overflow,
            |ctx| self.input.next_batch(ctx),
        )?;
        self.out = ChunkCursor::new(result);
        if let Some((mut manager, first)) = spilled {
            // A leaf fits when the kept rows, the leaf's state (≤ its row
            // count) and one in-flight chunk stay under the budget together.
            let bound = spillable_rows(ctx).saturating_sub(kept_rows);
            let first = first.into_iter().map(|file| [file]).collect();
            let leaves = split_leaves(ctx, &mut manager, [input], first, bound, |[file]| {
                file.rows() == 0
            })?;
            self.leaves = leaves.into_iter().map(|[file]| file).collect();
            self.manager = Some(manager);
        }
        Ok(())
    }
}

impl BatchStream for GroupedStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if !self.built {
            self.build(ctx)?;
            self.built = true;
        }
        loop {
            if let Some(chunk) = self.out.next(ctx) {
                return self.meta.emit(ctx, chunk);
            }
            let Some(leaf) = self.leaves.pop() else {
                self.retained.release(ctx);
                return Ok(None);
            };
            let mut cursor = open_spill(&leaf)?;
            let (kept_rows, state) = (self.kept_rows(), self.blank()?);
            let (result, _) = grouped_pass(
                ctx,
                &self.meta,
                &mut self.retained,
                state,
                kept_rows,
                None,
                |ctx| next_resident_chunk(ctx, &self.meta.label, &mut cursor),
            )?;
            leaf.delete();
            self.out = ChunkCursor::new(result);
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.out.release(ctx);
        self.retained.release(ctx);
        self.leaves.clear();
        // Dropping the manager removes the spill directory.
        self.manager = None;
        self.input.close(ctx);
        if let Grouping::Divide(divisor, _) = &mut self.grouping {
            divisor.close(ctx);
        }
    }
}

/// What an overflowed pass leaves on disk: the spill directory and the
/// sealed partition files of the rows its frozen state did not take.
type Overflowed = (SpillManager, Vec<SpillHandle>);

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
fn grouped_pass(
    ctx: &mut StreamContext,
    meta: &OpMeta,
    retained: &mut RetainedState,
    mut state: Box<dyn GroupedState>,
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
                    let spilled = if leftover.len() == chunk.num_rows() {
                        Some(chunk)
                    } else {
                        (!leftover.is_empty()).then(|| chunk.gather(&leftover))
                    };
                    if let Some(spilled) = spilled {
                        writers.route(ctx, spilled)?;
                        writers.relieve(ctx)?;
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
                    let partitions = PartitionWriters::first_pass(&mut manager, ctx, input, false)?;
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
