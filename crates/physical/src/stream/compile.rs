//! Compilation: one [`BatchStream`] operator per [`LogicalPlan`] node.

use super::grouped::GroupedStream;
use super::join::{HashJoinStream, JoinKind, NestedLoopStream};
use super::pipeline::{FilterStream, ProjectStream, RenameStream, UnionStream};
use super::scan::ScanStream;
use super::{BatchStream, OpMeta, StreamContext};
use crate::trace::{OperatorId, QueryTrace};
use crate::Result;
use div_algebra::{AlgebraError, Predicate, Schema};
use div_columnar::{kernels, ColumnarBatch, TableSegments};
use div_expr::{Catalog, ExprError, LogicalPlan};
use std::sync::Arc;
use std::time::Instant;

/// Compile `plan` into a streaming operator tree rooted at a
/// [`BatchStream`], traced by `trace` (which must have been built from the
/// same plan). Schema inference and validation happen here, before any
/// batch flows; the returned stream shares the catalog's base tables
/// (registered rows are converted to columnar segments by the first scan
/// compiled over them; no file is opened and no chunk is copied until it is
/// actually pulled).
pub(super) fn compile_root(
    plan: &LogicalPlan,
    catalog: &Catalog,
    trace: &mut QueryTrace,
) -> Result<Box<dyn BatchStream>> {
    let mut compiler = Compiler {
        catalog,
        trace,
        next_id: 0,
    };
    compiler.compile(plan, true, None)
}

/// The state of one pre-order compilation walk.
struct Compiler<'a> {
    catalog: &'a Catalog,
    trace: &'a mut QueryTrace,
    next_id: usize,
}

impl Compiler<'_> {
    /// Compile a non-root node that takes no pushdown.
    fn child(&mut self, plan: &LogicalPlan) -> Result<Box<dyn BatchStream>> {
        self.compile(plan, false, None)
    }

    /// Compile one node. `pushdown` is a predicate the *immediate* plan
    /// node may push down — only the `Scan` arm consumes it (handing
    /// it to the table source, whose zone maps may then skip whole chunks);
    /// every other node ignores it, so a pushdown never crosses more than
    /// one plan edge.
    fn compile(
        &mut self,
        plan: &LogicalPlan,
        is_root: bool,
        pushdown: Option<&Predicate>,
    ) -> Result<Box<dyn BatchStream>> {
        // Ids are assigned at entry of this pre-order walk, so they match
        // the skeleton [`QueryTrace::from_plan`] built from the same plan.
        let id = OperatorId(self.next_id);
        self.next_id += 1;
        let meta = OpMeta::new(id, plan, is_root);
        crate::failpoint::hit(&meta.label, "open")?;
        let opened = self.trace.span_start();
        let stream = self.node(plan, meta, pushdown)?;
        if let Some(started) = opened {
            // Inclusive of the children compiled inside `node`.
            self.trace.add_open(id, started.elapsed());
            return Ok(Box::new(TimedStream { id, inner: stream }));
        }
        Ok(stream)
    }

    /// Both inputs of a set operation, checked union-compatible.
    fn set_inputs(
        &mut self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        operation: &'static str,
    ) -> Result<(Box<dyn BatchStream>, Box<dyn BatchStream>)> {
        let left = self.child(left)?;
        let right = self.child(right)?;
        if !left.schema().is_compatible_with(right.schema()) {
            return Err(ExprError::from(AlgebraError::SchemaMismatch {
                left: left.schema().to_string(),
                right: right.schema().to_string(),
                operation,
            }));
        }
        Ok((left, right))
    }

    fn node(
        &mut self,
        plan: &LogicalPlan,
        meta: OpMeta,
        pushdown: Option<&Predicate>,
    ) -> Result<Box<dyn BatchStream>> {
        Ok(match plan {
            LogicalPlan::Scan { table } => Box::new(ScanStream::new(
                meta,
                self.catalog.source(table)?,
                pushdown.cloned(),
            )),
            // Inline constants are owned by the plan, which does not outlive
            // compilation: the stream gets its own columnar copy.
            LogicalPlan::Values { relation } => Box::new(ScanStream::new(
                meta,
                Arc::new(TableSegments::from_relation(relation)),
                None,
            )),
            LogicalPlan::Select { input, predicate } => {
                // The filter's own predicate is offered to its child as a
                // pushdown (consumed only by table scans, whose zone maps
                // may then skip whole chunks). The filter still re-applies
                // the predicate — chunk skipping is conservative, not exact.
                let child = self.compile(input, false, Some(predicate))?;
                Box::new(FilterStream::new(meta, child, predicate.clone()))
            }
            LogicalPlan::Project { input, attributes } => {
                Box::new(ProjectStream::new(meta, self.child(input)?, attributes)?)
            }
            LogicalPlan::Rename { input, renames } => {
                Box::new(RenameStream::new(meta, self.child(input)?, renames)?)
            }
            LogicalPlan::Union { left, right } => {
                let (left, right) = self.set_inputs(left, right, "union")?;
                Box::new(UnionStream::new(meta, left, right))
            }
            // With union-compatible inputs every attribute is a common one,
            // so the semi / anti join keys whole rows: r ∩ s = r ⋉ s and
            // r − s = r ▷ s.
            LogicalPlan::Intersect { left, right } => {
                let (left, right) = self.set_inputs(left, right, "intersection")?;
                Box::new(HashJoinStream::new(meta, left, right, JoinKind::Semi))
            }
            LogicalPlan::Difference { left, right } => {
                let (left, right) = self.set_inputs(left, right, "difference")?;
                Box::new(HashJoinStream::new(meta, left, right, JoinKind::Anti))
            }
            // r × s is the predicate-free r ⋈_θ s.
            LogicalPlan::Product { left, right } => Box::new(NestedLoopStream::new(
                meta,
                self.child(left)?,
                self.child(right)?,
                None,
            )?),
            LogicalPlan::ThetaJoin {
                left,
                right,
                predicate,
            } => Box::new(NestedLoopStream::new(
                meta,
                self.child(left)?,
                self.child(right)?,
                Some(predicate.clone()),
            )?),
            LogicalPlan::NaturalJoin { left, right }
            | LogicalPlan::SemiJoin { left, right }
            | LogicalPlan::AntiSemiJoin { left, right } => {
                let (left, right) = (self.child(left)?, self.child(right)?);
                let kind = match plan {
                    LogicalPlan::NaturalJoin { .. } => {
                        natural_join_kind(left.schema(), right.schema())
                    }
                    LogicalPlan::SemiJoin { .. } => JoinKind::Semi,
                    _ => JoinKind::Anti,
                };
                Box::new(HashJoinStream::new(meta, left, right, kind))
            }
            LogicalPlan::GroupAggregate {
                input,
                group_by,
                aggregates,
            } => Box::new(GroupedStream::aggregate(
                meta,
                self.child(input)?,
                group_by,
                aggregates,
            )?),
            LogicalPlan::SmallDivide { dividend, divisor }
            | LogicalPlan::GreatDivide { dividend, divisor } => {
                let dividend = self.child(dividend)?;
                let divisor = self.child(divisor)?;
                let schema = if matches!(plan, LogicalPlan::GreatDivide { .. }) {
                    kernels::great_quotient_schema(dividend.schema(), divisor.schema())
                } else {
                    kernels::quotient_schema(dividend.schema(), divisor.schema())
                }
                .map_err(ExprError::from)?;
                Box::new(GroupedStream::divide(meta, dividend, divisor, schema)?)
            }
        })
    }
}

/// The hash join that evaluates `left ⋈ right`. A right side that adds no
/// attribute is keyed on all of its own, so a left row matches at most one
/// of its rows and the join only filters: under set semantics
/// `r ⋈ s = r ⋉ s` whenever attrs(s) ⊆ attrs(r), with the same schema and
/// row order, and the semi-join needs no row lists and no gather.
pub(super) fn natural_join_kind(left: &Schema, right: &Schema) -> JoinKind {
    if right.attributes().all(|a| left.contains(a.name())) {
        JoinKind::Semi
    } else {
        JoinKind::Natural
    }
}

/// Transparent timing wrapper installed around every operator when
/// [`PlannerConfig::tracing`] is on: one `Instant` pair per `next_batch` /
/// `close` call (never per row), accumulated into the operator's trace
/// node. Spans are inclusive — children run inside the wrapped call — and
/// the untraced path never constructs this type, so plain executions pay
/// no clock reads at all.
struct TimedStream {
    id: OperatorId,
    inner: Box<dyn BatchStream>,
}

impl BatchStream for TimedStream {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        let started = Instant::now();
        let out = self.inner.next_batch(ctx);
        ctx.trace.add_next(self.id, started.elapsed());
        out
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        let started = Instant::now();
        self.inner.close(ctx);
        ctx.trace.add_close(self.id, started.elapsed());
    }
}
