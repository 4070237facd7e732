//! Division: the small and the great divide.

use super::spill::{
    grouped_pass, next_resident_chunk, open_spill, spillable_rows, GroupedState, LeafOutput,
    Overflowed, SpillInput,
};
use super::{drain_to_batch, BatchStream, OpMeta, RetainedState, StreamContext};
use crate::Result;
use div_algebra::Schema;
use div_columnar::kernels::{FrozenConsume, StreamingGreatDivide};
use div_columnar::ColumnarBatch;
use div_expr::ExprError;

/// Hybrid hash division (small and great). The divisor is always
/// materialized in memory; the dividend is *consumed* chunk-at-a-time into
/// coverage state (memory ∝ divisor + quotient groups, never the dividend)
/// under any guard. The quotient is only known at the end, so the output is
/// a blocking boundary.
///
/// `StreamingGreatDivide` degrades to the small divide exactly when the
/// divisor has no attributes of its own — which is the schema precondition
/// of `LogicalPlan::SmallDivide` — so one state type serves both division
/// nodes.
///
/// What can outgrow a spill budget is therefore the *state*, and that is
/// what the operator watches. When divisor + groups approach the budget
/// ([`state_overflows`]) the resident group set is frozen: rows of resident
/// groups are still consumed — every resident group has seen the whole
/// dividend by the end of input — and rows of groups the state has not
/// met are partitioned to disk on the quotient attributes, to be divided
/// leaf by leaf against the replicated divisor afterwards. Resident and
/// spilled groups are key-disjoint, so the union of their quotients is the
/// quotient (Law 2 of the division framework; the hybrid form of Graefe's
/// quotient partitioning). A dividend whose state fits is never written
/// anywhere, whatever its length.
pub(super) struct DivideStream {
    meta: OpMeta,
    dividend: Box<dyn BatchStream>,
    divisor: Box<dyn BatchStream>,
    schema: Schema,
    /// Set by the build phase.
    state: Option<LeafOutput>,
    /// The divisor replicated into every on-disk leaf (overflowed runs only).
    leaf_divisor: Option<ColumnarBatch>,
    /// Divisor rows plus the coverage groups of the pass in progress.
    retained: RetainedState,
    /// Quotient rows computed so far, over the resident part and all leaves.
    kernel_rows: usize,
}

/// The coverage state is the grouped state of a divide pass.
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

    fn finish(self) -> Result<ColumnarBatch> {
        StreamingGreatDivide::finish(self).map_err(ExprError::from)
    }
}

/// One division pass over the chunks `next_chunk` yields: a fresh coverage
/// state against `divisor`, which stays counted next to it.
fn divide_pass(
    ctx: &mut StreamContext,
    meta: &OpMeta,
    retained: &mut RetainedState,
    dividend_schema: &Schema,
    divisor: ColumnarBatch,
    overflow: Option<SpillInput>,
    next_chunk: impl FnMut(&mut StreamContext) -> Result<Option<ColumnarBatch>>,
) -> Result<(ColumnarBatch, Option<Overflowed>)> {
    let divisor_rows = divisor.num_rows();
    let state = StreamingGreatDivide::new(dividend_schema, divisor).map_err(ExprError::from)?;
    grouped_pass(
        ctx,
        meta,
        retained,
        state,
        divisor_rows,
        overflow,
        next_chunk,
    )
}

impl DivideStream {
    pub(super) fn new(
        meta: OpMeta,
        dividend: Box<dyn BatchStream>,
        divisor: Box<dyn BatchStream>,
        schema: Schema,
    ) -> DivideStream {
        DivideStream {
            meta,
            dividend,
            divisor,
            schema,
            state: None,
            leaf_divisor: None,
            retained: RetainedState::default(),
            kernel_rows: 0,
        }
    }

    /// Build phase: materialize the divisor, then run the live dividend
    /// through the coverage state — and, past the budget, its unseen groups
    /// out to disk.
    fn build(&mut self, ctx: &mut StreamContext) -> Result<LeafOutput> {
        let DivideStream {
            meta,
            dividend,
            divisor: divisor_child,
            leaf_divisor,
            retained,
            kernel_rows,
            ..
        } = self;
        let divisor = drain_to_batch(divisor_child, ctx, &meta.label)?;
        divisor_child.close(ctx);
        let divisor_rows = divisor.num_rows();
        ctx.release(divisor_rows, 1);
        retained.grow_to(ctx, meta.id, divisor_rows);
        let dividend_schema = dividend.schema().clone();
        // The quotient attributes: dividend attributes the divisor lacks.
        let key_names = dividend_schema.difference_attributes(divisor.schema());
        let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
        let key_cols = dividend_schema
            .projection_indices(&key_refs)
            .map_err(ExprError::from)?;

        let input = SpillInput {
            label: &meta.label,
            schema: &dividend_schema,
            key_cols: &key_cols,
        };
        let (quotient, spilled) = divide_pass(
            ctx,
            meta,
            retained,
            &dividend_schema,
            divisor.clone(),
            Some(input),
            |ctx| dividend.next_batch(ctx),
        )?;
        *kernel_rows = quotient.num_rows();
        if spilled.is_some() {
            *leaf_divisor = Some(divisor);
        }
        // A leaf fits when the replicated divisor, the leaf's coverage
        // state (≤ its row count) and one in-flight chunk stay under the
        // budget together.
        let bound = spillable_rows(ctx).saturating_sub(divisor_rows);
        LeafOutput::after_pass(ctx, quotient, spilled, input, bound)
    }
}

impl BatchStream for DivideStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        if self.state.is_none() {
            self.state = Some(self.build(ctx)?);
        }
        let DivideStream {
            meta,
            dividend,
            state,
            leaf_divisor,
            retained,
            kernel_rows,
            ..
        } = self;
        let chunk = state
            .as_mut()
            .expect("built above")
            .next(ctx, |ctx, leaf| {
                let divisor = leaf_divisor.as_ref().expect("leaves imply a divisor");
                let mut cursor = open_spill(&leaf)?;
                let (quotient, _) = divide_pass(
                    ctx,
                    meta,
                    retained,
                    dividend.schema(),
                    divisor.clone(),
                    None,
                    |ctx| next_resident_chunk(ctx, &meta.label, &mut cursor),
                )?;
                leaf.delete();
                *kernel_rows += quotient.num_rows();
                Ok(quotient)
            })?;
        match chunk {
            Some(chunk) => meta.emit(ctx, chunk),
            None => {
                retained.release(ctx);
                Ok(None)
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        // The hash-division kernel counts as an operator of its own, once
        // the build phase got as far as running it.
        if let Some(mut state) = self.state.take() {
            ctx.stats.record(self.kernel_rows, false, false);
            state.release(ctx);
        }
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.dividend.close(ctx);
        self.divisor.close(ctx);
    }
}
