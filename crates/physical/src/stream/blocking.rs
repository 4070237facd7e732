//! Blocking boundaries: operators that buffer whole inputs before their
//! first output row — set intersection / difference, grouped aggregation
//! and the Cartesian product.

use super::spill::{load_spill_batch, spillable_rows, Drained, LeafOutput, SpillInput, SpillSink};
use super::StreamContext;
use super::{consolidate, drain_to_batch, BatchStream, ChunkCursor, OpMeta, RetainedState};
use crate::Result;
use div_algebra::{AggregateCall, Schema};
use div_columnar::{kernels, ColumnarBatch};
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

/// Hybrid hash aggregation: buffer the input, run the batch kernel once,
/// serve the result in chunks. Under a spill budget the input is
/// partitioned on the *grouping* attributes when it approaches the budget,
/// so every group lands wholly inside one partition and the per-partition
/// aggregates are exact — their union is the full result. A global
/// aggregate (no `GROUP BY`) has nothing to partition on and never spills.
pub(super) struct AggregateStream {
    meta: OpMeta,
    child: Box<dyn BatchStream>,
    group_by: Vec<String>,
    /// Input columns of the grouping attributes: the partitioning key.
    key_cols: Vec<usize>,
    aggregates: Vec<AggregateCall>,
    schema: Schema,
    state: Option<LeafOutput>,
}

impl AggregateStream {
    pub(super) fn new(
        meta: OpMeta,
        child: Box<dyn BatchStream>,
        group_by: &[String],
        aggregates: &[AggregateCall],
    ) -> Result<AggregateStream> {
        let mut names = group_by.to_vec();
        for agg in aggregates {
            child
                .schema()
                .require(&agg.input)
                .map_err(ExprError::from)?;
            names.push(agg.output.clone());
        }
        let key_refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
        let key_cols = child
            .schema()
            .projection_indices(&key_refs)
            .map_err(ExprError::from)?;
        Ok(AggregateStream {
            meta,
            child,
            group_by: group_by.to_vec(),
            key_cols,
            aggregates: aggregates.to_vec(),
            schema: Schema::new(names).map_err(ExprError::from)?,
            state: None,
        })
    }

    fn build(&mut self, ctx: &mut StreamContext) -> Result<LeafOutput> {
        let input_schema = self.child.schema().clone();
        // A global aggregate has nothing to partition on.
        let threshold = ctx.spill_threshold().filter(|_| !self.key_cols.is_empty());
        let input = SpillInput {
            label: &self.meta.label,
            schema: &input_schema,
            key_cols: &self.key_cols,
        };
        match SpillSink::new(input, threshold).drain(&mut self.child, ctx)? {
            Drained::Buffered(chunks) => {
                let batch = consolidate(ctx, &self.meta.label, &input_schema, chunks)?;
                Ok(LeafOutput::in_memory(self.aggregate(ctx, batch)?))
            }
            Drained::Spilled(manager, first) => {
                // During a leaf both the consolidated input and its
                // aggregate (≤ input rows) are resident.
                let bound = spillable_rows(ctx) / 2;
                LeafOutput::plan(ctx, manager, input, first, bound)
            }
        }
    }

    /// Run the aggregation kernel over one consolidated (and already
    /// acquired) input batch, swapping the accounting to the result.
    fn aggregate(&self, ctx: &mut StreamContext, batch: ColumnarBatch) -> Result<ColumnarBatch> {
        let refs: Vec<&str> = self.group_by.iter().map(String::as_str).collect();
        let result = kernels::hash_aggregate(&batch, &refs, &self.aggregates);
        let input_rows = batch.num_rows();
        ctx.release(input_rows, 1);
        let result = result.map_err(ExprError::from)?;
        ctx.trace
            .note_retained(self.meta.id, input_rows + result.num_rows());
        ctx.acquire(result.num_rows(), 1);
        if let Err(err) = ctx.check_guard(&self.meta.label) {
            ctx.release(result.num_rows(), 1);
            return Err(err);
        }
        Ok(result)
    }
}

impl BatchStream for AggregateStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        let mut state = match self.state.take() {
            Some(state) => state,
            None => self.build(ctx)?,
        };
        let chunk = state.next(ctx, |ctx, leaf| {
            let batch = load_spill_batch(ctx, &self.meta.label, self.child.schema(), leaf)?;
            self.aggregate(ctx, batch)
        });
        self.state = Some(state);
        match chunk? {
            Some(chunk) => self.meta.emit(ctx, chunk),
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        if let Some(mut state) = self.state.take() {
            state.release(ctx);
        }
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
