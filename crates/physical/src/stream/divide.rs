//! Division: the small and the great divide.

use super::spill::{next_resident_chunk, open_spill, spill_margin, Drained, LeafOutput, SpillSink};
use super::{consumed, drain_to_batch, BatchStream, OpMeta, RetainedState, StreamContext};
use crate::Result;
use div_algebra::Schema;
use div_columnar::kernels::StreamingGreatDivide;
use div_columnar::ColumnarBatch;
use div_expr::ExprError;

/// Hybrid hash division (small and great). The divisor is always
/// materialized in memory; the dividend is *consumed* chunk-at-a-time into
/// coverage state (memory ∝ divisor + quotient groups, never the dividend).
/// The quotient is only known at the end, so the output is a blocking
/// boundary.
///
/// `StreamingGreatDivide` degrades to the small divide exactly when the
/// divisor has no attributes of its own — which is the planner's
/// precondition for `PhysicalPlan::Divide` — so one state type serves both
/// division nodes.
///
/// Under a spill budget the *dividend* is buffered and, when it approaches
/// the budget, partitioned to disk on the quotient attributes with the
/// divisor replicated into every partition. That preserves the quotient
/// (Law 2 of the division framework): each leaf's quotient rows are exactly
/// the full quotient's rows for the quotient-attribute values hashed into
/// that leaf.
pub(super) struct DivideStream {
    meta: OpMeta,
    dividend: Box<dyn BatchStream>,
    divisor: Box<dyn BatchStream>,
    schema: Schema,
    /// Set by the build phase.
    state: Option<LeafOutput>,
    /// The divisor replicated into every on-disk leaf (spilled runs only).
    leaf_divisor: Option<ColumnarBatch>,
    /// Divisor rows plus the coverage groups of the pass in progress.
    retained: RetainedState,
    /// Quotient rows computed so far, over all leaves.
    kernel_rows: usize,
}

/// The one consume loop: feed every (acquired) chunk `next_chunk` yields
/// through the coverage state of a fresh [`StreamingGreatDivide`] and
/// return the acquired quotient. `keep` rows of `retained` — a replicated
/// divisor — outlive the pass.
fn divide_chunks(
    ctx: &mut StreamContext,
    meta: &OpMeta,
    retained: &mut RetainedState,
    dividend_schema: &Schema,
    divisor: ColumnarBatch,
    keep: usize,
    mut next_chunk: impl FnMut(&mut StreamContext) -> Result<Option<ColumnarBatch>>,
) -> Result<ColumnarBatch> {
    let divisor_rows = divisor.num_rows();
    let mut state = StreamingGreatDivide::new(dividend_schema, divisor).map_err(ExprError::from)?;
    while let Some(chunk) = next_chunk(ctx)? {
        let probes = state.consume(&chunk);
        ctx.add_probes(meta.id, probes);
        consumed(ctx, &chunk);
        retained.grow_to(ctx, meta.id, divisor_rows + state.groups());
        // The coverage state itself can outgrow the budget even though
        // each consumed chunk passed its own check.
        ctx.check_guard(&meta.label)?;
    }
    let quotient = state.finish().map_err(ExprError::from)?;
    retained.release(ctx);
    retained.grow_to(ctx, meta.id, keep);
    ctx.acquire(quotient.num_rows(), 1);
    Ok(quotient)
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

    /// Build phase: materialize the divisor, then run the dividend through
    /// the coverage state — or, under pressure, out to disk.
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

        let quotient = if let Some(threshold) = ctx.spill_threshold() {
            // The quotient attributes: dividend attributes the divisor lacks.
            let key_names = dividend_schema.difference_attributes(divisor.schema());
            let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
            let key_cols = dividend_schema
                .projection_indices(&key_refs)
                .map_err(ExprError::from)?;
            let sink = SpillSink::new(dividend_schema.clone(), key_cols.clone(), Some(threshold));
            let mut chunks = match sink.drain(dividend, ctx)? {
                Drained::Buffered(chunks) => chunks.into_iter(),
                Drained::Spilled(manager, first) => {
                    let margin = spill_margin(ctx);
                    // A leaf fits when the replicated divisor, the leaf's
                    // coverage state (≤ its row count) and one in-flight
                    // chunk stay under the budget together.
                    let fits = move |rows: usize| divisor_rows + rows + margin <= threshold;
                    *leaf_divisor = Some(divisor);
                    return LeafOutput::plan(
                        ctx,
                        manager,
                        &dividend_schema,
                        &key_cols,
                        first,
                        fits,
                    );
                }
            };
            // The budget never triggered: the buffered chunks, in arrival
            // order, give the same quotient as the live stream.
            let quotient = divide_chunks(ctx, meta, retained, &dividend_schema, divisor, 0, |_| {
                Ok(chunks.next())
            });
            // Only an error leaves chunks behind.
            chunks.for_each(|chunk| consumed(ctx, &chunk));
            quotient?
        } else {
            // Nothing to spill against: stream the live dividend.
            divide_chunks(ctx, meta, retained, &dividend_schema, divisor, 0, |ctx| {
                dividend.next_batch(ctx)
            })?
        };
        *kernel_rows = quotient.num_rows();
        Ok(LeafOutput::in_memory(quotient))
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
                let quotient = divide_chunks(
                    ctx,
                    meta,
                    retained,
                    dividend.schema(),
                    divisor.clone(),
                    divisor.num_rows(),
                    |ctx| next_resident_chunk(ctx, &mut cursor),
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
