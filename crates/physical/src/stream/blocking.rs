//! Blocking boundaries: operators whose first output row waits for the end
//! of their input. Set intersection / difference and the Cartesian product
//! buffer their inputs; grouped aggregation only keeps its groups — one
//! accumulator row each — and watches that state against the spill budget
//! the way the divide does.

use super::spill::{
    grouped_pass, next_resident_chunk, open_spill, spillable_rows, GroupedState, LeafOutput,
    SpillInput,
};
use super::StreamContext;
use super::{drain_to_batch, BatchStream, ChunkCursor, OpMeta, RetainedState};
use crate::Result;
use div_algebra::{AggregateCall, Schema};
use div_columnar::kernels::{self, FrozenConsume, StreamingAggregate};
use div_columnar::ColumnarBatch;
use div_expr::ExprError;

/// A whole-batch set kernel: [`kernels::intersect`] or
/// [`kernels::difference`].
pub(super) type SetKernel =
    fn(&ColumnarBatch, &ColumnarBatch) -> div_columnar::Result<ColumnarBatch>;

/// An explicit blocking boundary: drain both inputs, run the set kernel
/// once, serve the result in chunks. The Cartesian product is *not* here:
/// its output is quadratic, so it gets the incremental [`ProductStream`]
/// whose emissions stay guard-checkable.
pub(super) struct BlockingStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    kernel: SetKernel,
    out: Option<ChunkCursor>,
}

impl BlockingStream {
    /// The inputs must already be checked union-compatible.
    pub(super) fn new(
        meta: OpMeta,
        left: Box<dyn BatchStream>,
        right: Box<dyn BatchStream>,
        kernel: SetKernel,
    ) -> BlockingStream {
        BlockingStream {
            meta,
            left,
            right,
            kernel,
            out: None,
        }
    }
}

impl BatchStream for BlockingStream {
    fn schema(&self) -> &Schema {
        self.left.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.out.is_none() {
            let left = drain_to_batch(&mut self.left, ctx, &self.meta.label)?;
            let right = match drain_to_batch(&mut self.right, ctx, &self.meta.label) {
                Ok(batch) => batch,
                Err(err) => {
                    // The left side was already drained and acquired; roll
                    // it back before the error propagates.
                    ctx.release(left.num_rows(), 1);
                    return Err(err);
                }
            };
            let result = (self.kernel)(&left, &right);
            let buffered = left.num_rows() + right.num_rows();
            ctx.release(left.num_rows(), 1);
            ctx.release(right.num_rows(), 1);
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
        self.right.close(ctx);
    }
}

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

/// Cartesian product served incrementally: both inputs are drained (they
/// are genuinely blocking — every pair must be formed), but the quadratic
/// *output* is produced one bounded slice at a time —
/// [`kernels::cross_product_slice`] crosses a few left rows against the
/// whole right side per call, sized so each emitted chunk is about
/// `batch_size` rows. A runaway product under a deadline or budget is
/// therefore stopped at the next batch boundary instead of after
/// materializing |L|·|R| rows, which is the whole point of the governance
/// layer.
pub(super) struct ProductStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    schema: Schema,
    /// Drained `(left, right)` inputs, kept for the duration of the serve
    /// phase under `retained` accounting.
    inputs: Option<(ColumnarBatch, ColumnarBatch)>,
    /// Next left row to cross.
    pos: usize,
    retained: RetainedState,
}

impl ProductStream {
    pub(super) fn new(
        meta: OpMeta,
        left: Box<dyn BatchStream>,
        right: Box<dyn BatchStream>,
    ) -> Result<ProductStream> {
        let schema = left
            .schema()
            .concat(right.schema())
            .map_err(ExprError::from)?;
        Ok(ProductStream {
            meta,
            left,
            right,
            schema,
            inputs: None,
            pos: 0,
            retained: RetainedState::default(),
        })
    }
}

impl BatchStream for ProductStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.inputs.is_none() {
            let left = drain_to_batch(&mut self.left, ctx, &self.meta.label)?;
            let right = match drain_to_batch(&mut self.right, ctx, &self.meta.label) {
                Ok(batch) => batch,
                Err(err) => {
                    ctx.release(left.num_rows(), 1);
                    return Err(err);
                }
            };
            self.right.close(ctx);
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
            return Ok(None);
        }
        // Cross enough left rows that the chunk is about batch_size rows.
        let per_slice = (ctx.batch_size / r_rows.max(1)).max(1);
        let end = (self.pos + per_slice).min(l_rows);
        let chunk =
            kernels::cross_product_slice(left, self.pos..end, right).map_err(ExprError::from)?;
        self.pos = end;
        self.meta.emit(ctx, chunk)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.inputs = None;
        self.left.close(ctx);
        self.right.close(ctx);
    }
}
