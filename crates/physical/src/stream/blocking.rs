//! The blocking boundary of grouped aggregation: its first output row waits
//! for the end of its input, but it only keeps its groups — one accumulator
//! row each — and watches that state against the spill budget the way the
//! divide does.

use super::spill::{
    grouped_pass, next_resident_chunk, open_spill, spillable_rows, GroupedState, LeafOutput,
    SpillInput,
};
use super::StreamContext;
use super::{BatchStream, OpMeta, RetainedState};
use crate::Result;
use div_algebra::{AggregateCall, Schema};
use div_columnar::kernels::{FrozenConsume, StreamingAggregate};
use div_columnar::ColumnarBatch;
use div_expr::ExprError;

/// Hybrid hash aggregation: the input is *consumed* chunk-at-a-time into
/// one accumulator row per group ([`StreamingAggregate`]) under any guard,
/// so what is retained is the groups, never the input. The result is only
/// known at the end, so the output is a blocking boundary.
///
/// What can outgrow a spill budget is therefore the group set, and that is
/// what the operator watches, exactly like the divide: when it approaches
/// the budget ([`state_overflows`](super::spill::state_overflows)) the
/// resident groups are frozen and keep accumulating their own rows, and
/// rows of groups the state has not met are partitioned to disk on the
/// grouping attributes, to be aggregated leaf by leaf afterwards. Every
/// group lands wholly in memory or wholly in one partition, so the union of
/// the results is the aggregate. A global aggregate (no `GROUP BY`) holds
/// one group and never spills.
pub(super) struct AggregateStream {
    meta: OpMeta,
    child: Box<dyn BatchStream>,
    /// Never fed: it carries the output schema and the grouping columns
    /// (the partitioning key), and every pass starts from a clone of it.
    blank: StreamingAggregate,
    state: Option<LeafOutput>,
    /// The groups of the pass in progress.
    retained: RetainedState,
}

/// The accumulator rows are the grouped state of an aggregate pass.
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

    fn finish(self) -> Result<ColumnarBatch> {
        StreamingAggregate::finish(self).map_err(ExprError::from)
    }
}

impl AggregateStream {
    pub(super) fn new(
        meta: OpMeta,
        child: Box<dyn BatchStream>,
        group_by: &[String],
        aggregates: &[AggregateCall],
    ) -> Result<AggregateStream> {
        let refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let blank =
            StreamingAggregate::new(child.schema(), &refs, aggregates).map_err(ExprError::from)?;
        Ok(AggregateStream {
            meta,
            child,
            blank,
            state: None,
            retained: RetainedState::default(),
        })
    }

    /// Build phase: run the live input through the accumulators — and, past
    /// the budget, its unseen groups out to disk.
    fn build(&mut self, ctx: &mut StreamContext) -> Result<LeafOutput> {
        let AggregateStream {
            meta,
            child,
            blank,
            retained,
            ..
        } = self;
        let input_schema = child.schema().clone();
        let input = SpillInput {
            label: &meta.label,
            schema: &input_schema,
            key_cols: blank.key_cols(),
        };
        // A global aggregate has nothing to partition on.
        let overflow = (!input.key_cols.is_empty()).then_some(input);
        let (result, spilled) =
            grouped_pass(ctx, meta, retained, blank.clone(), 0, overflow, |ctx| {
                child.next_batch(ctx)
            })?;
        // A leaf's groups never outnumber its rows, so a leaf fits when its
        // rows and one in-flight chunk do.
        LeafOutput::after_pass(ctx, result, spilled, input, spillable_rows(ctx))
    }
}

impl BatchStream for AggregateStream {
    fn schema(&self) -> &Schema {
        self.blank.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.state.is_none() {
            self.state = Some(self.build(ctx)?);
        }
        let AggregateStream {
            meta,
            blank,
            state,
            retained,
            ..
        } = self;
        let chunk = state
            .as_mut()
            .expect("built above")
            .next(ctx, |ctx, leaf| {
                let mut cursor = open_spill(&leaf)?;
                let (result, _) =
                    grouped_pass(ctx, meta, retained, blank.clone(), 0, None, |ctx| {
                        next_resident_chunk(ctx, &meta.label, &mut cursor)
                    })?;
                leaf.delete();
                Ok(result)
            })?;
        match chunk {
            Some(chunk) => meta.emit(ctx, chunk),
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        if let Some(mut state) = self.state.take() {
            state.release(ctx);
        }
        self.retained.release(ctx);
        self.child.close(ctx);
    }
}
