//! Division: the small and the great divide.

use super::spill::{
    level0_fanout, next_resident_chunk, open_spill, spill_seed, spillable_rows, state_overflows,
    LeafOutput, PartitionWriters, SpillInput,
};
use super::{consumed, drain_to_batch, BatchStream, OpMeta, RetainedState, StreamContext};
use crate::Result;
use div_algebra::Schema;
use div_columnar::kernels::{FrozenConsume, StreamingGreatDivide};
use div_columnar::ColumnarBatch;
use div_expr::ExprError;
use div_storage::{SpillHandle, SpillManager};

/// Hybrid hash division (small and great). The divisor is always
/// materialized in memory; the dividend is *consumed* chunk-at-a-time into
/// coverage state (memory ∝ divisor + quotient groups, never the dividend)
/// under any guard. The quotient is only known at the end, so the output is
/// a blocking boundary.
///
/// `StreamingGreatDivide` degrades to the small divide exactly when the
/// divisor has no attributes of its own — which is the planner's
/// precondition for `PhysicalPlan::Divide` — so one state type serves both
/// division nodes.
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

/// What an overflowed pass leaves on disk: the spill directory and the
/// sealed partition files of the rows its frozen state did not take.
type Overflowed = (SpillManager, Vec<SpillHandle>);

/// One pass of the division: feed every (acquired) chunk `next_chunk`
/// yields through the coverage state of a fresh [`StreamingGreatDivide`]
/// and return the acquired quotient.
///
/// `quotient_cols` — the dividend's quotient-attribute columns — lets the
/// pass overflow: given them (the live dividend), a state that approaches
/// the spill budget is frozen and the rows it does not take are written to
/// the partition files returned next to the quotient. A leaf pass gives
/// `None`: its input was sized to fit, and the budget backstop decides
/// about a level-capped one that does not.
///
/// The divisor's rows stay under `retained` when more passes follow: after
/// an overflow, and after every leaf.
fn divide_chunks(
    ctx: &mut StreamContext,
    meta: &OpMeta,
    retained: &mut RetainedState,
    dividend_schema: &Schema,
    divisor: ColumnarBatch,
    quotient_cols: Option<&[usize]>,
    mut next_chunk: impl FnMut(&mut StreamContext) -> Result<Option<ColumnarBatch>>,
) -> Result<(ColumnarBatch, Option<Overflowed>)> {
    let divisor_rows = divisor.num_rows();
    let mut state = StreamingGreatDivide::new(dividend_schema, divisor).map_err(ExprError::from)?;
    let mut overflow: Option<(SpillManager, PartitionWriters)> = None;
    let mut consume_all = || -> Result<()> {
        while let Some(chunk) = next_chunk(ctx)? {
            // Each dividend row is probed once, where it is consumed: here,
            // or in the leaf its partition file ends up in.
            let probes = match overflow.as_mut() {
                None => {
                    let probes = state.consume(&chunk);
                    consumed(ctx, &chunk);
                    probes
                }
                Some((_, writers)) => {
                    let FrozenConsume { probes, leftover } = state.consume_frozen(&chunk);
                    consumed(ctx, &chunk);
                    if leftover.len() == chunk.num_rows() {
                        writers.route(ctx, &chunk)?;
                    } else if !leftover.is_empty() {
                        writers.route(ctx, &chunk.gather(&leftover))?;
                    }
                    probes
                }
            };
            ctx.add_probes(meta.id, probes);
            retained.grow_to(ctx, meta.id, divisor_rows + state.groups());
            // The coverage state itself can outgrow the budget even though
            // each consumed chunk passed its own check.
            ctx.check_guard(&meta.label)?;
            if let (None, Some(key_cols)) = (overflow.as_ref(), quotient_cols) {
                if state_overflows(ctx) {
                    // Freeze: from here on the state takes only rows of
                    // the groups it already holds.
                    let mut manager = SpillManager::new().map_err(ExprError::from)?;
                    let fanout = level0_fanout(ctx);
                    let input = SpillInput {
                        label: &meta.label,
                        schema: dividend_schema,
                        key_cols,
                    };
                    let writers =
                        PartitionWriters::create(&mut manager, ctx, input, spill_seed(0), fanout)?;
                    overflow = Some((manager, writers));
                }
            }
        }
        Ok(())
    };
    let spilled = match (consume_all(), overflow) {
        (Ok(()), None) => None,
        (Ok(()), Some((manager, writers))) => Some((manager, writers.finish(ctx)?)),
        (Err(err), overflow) => {
            // Rows still sitting in the write buffers die with the pass.
            if let Some((_, mut writers)) = overflow {
                writers.rollback(ctx);
            }
            return Err(err);
        }
    };
    let quotient = state.finish().map_err(ExprError::from)?;
    let keep = if quotient_cols.is_none() || spilled.is_some() {
        divisor_rows
    } else {
        0
    };
    retained.release(ctx);
    retained.grow_to(ctx, meta.id, keep);
    ctx.acquire(quotient.num_rows(), 1);
    Ok((quotient, spilled))
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

        let (quotient, spilled) = divide_chunks(
            ctx,
            meta,
            retained,
            &dividend_schema,
            divisor.clone(),
            Some(&key_cols),
            |ctx| dividend.next_batch(ctx),
        )?;
        *kernel_rows = quotient.num_rows();
        let Some((manager, first)) = spilled else {
            return Ok(LeafOutput::in_memory(quotient));
        };
        *leaf_divisor = Some(divisor);
        // A leaf fits when the replicated divisor, the leaf's coverage
        // state (≤ its row count) and one in-flight chunk stay under the
        // budget together.
        let bound = spillable_rows(ctx).saturating_sub(divisor_rows);
        let input = SpillInput {
            label: &meta.label,
            schema: &dividend_schema,
            key_cols: &key_cols,
        };
        match LeafOutput::plan(ctx, manager, input, first, bound) {
            Ok(leaves) => Ok(leaves.with_result(quotient)),
            Err(err) => {
                ctx.release(quotient.num_rows(), 1);
                Err(err)
            }
        }
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
                let (quotient, _) = divide_chunks(
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
