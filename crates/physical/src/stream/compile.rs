//! Compilation: one [`BatchStream`] operator per [`PhysicalPlan`] node.

use super::blocking::AggregateStream;
use super::divide::DivideStream;
use super::join::{HashJoinStream, JoinKind, NestedLoopStream};
use super::pipeline::{FilterStream, ProjectStream, RenameStream, UnionStream};
use super::scan::ScanStream;
use super::{BatchStream, OpMeta, StreamContext};
use crate::plan::PhysicalPlan;
use crate::planner::PlannerConfig;
use crate::trace::{OperatorId, QueryTrace};
use crate::Result;
use div_algebra::{AlgebraError, Predicate, Schema};
use div_columnar::{kernels, ColumnarBatch, TableSegments};
use div_expr::{Catalog, ExprError};
use std::sync::Arc;
use std::time::Instant;

/// Compile a physical plan into a streaming operator tree rooted at a
/// [`BatchStream`]. Schema inference and validation happen here, before any
/// batch flows; the returned stream shares the catalog's base tables
/// (registered rows are converted to columnar segments by the first scan
/// compiled over them; no file is opened and no chunk is copied until it is
/// actually pulled).
pub fn compile_stream(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> Result<Box<dyn BatchStream>> {
    // Standalone compilation (outside a `StreamExecutor`) discards the
    // open-phase spans; ids are still assigned so runtime attribution works.
    let mut trace = QueryTrace::from_plan(plan).with_timing(config.tracing);
    compile_root(plan, catalog, &mut trace)
}

/// Compile `plan` as the root of an execution traced by `trace` (which
/// must have been built from the same plan).
pub(super) fn compile_root(
    plan: &PhysicalPlan,
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
    fn child(&mut self, plan: &PhysicalPlan) -> Result<Box<dyn BatchStream>> {
        self.compile(plan, false, None)
    }

    /// Compile one node. `pushdown` is a predicate the *immediate* plan
    /// node may push down — only the `TableScan` arm consumes it (handing
    /// it to the table source, whose zone maps may then skip whole chunks);
    /// every other node ignores it, so a pushdown never crosses more than
    /// one plan edge.
    fn compile(
        &mut self,
        plan: &PhysicalPlan,
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
        left: &PhysicalPlan,
        right: &PhysicalPlan,
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
        plan: &PhysicalPlan,
        meta: OpMeta,
        pushdown: Option<&Predicate>,
    ) -> Result<Box<dyn BatchStream>> {
        Ok(match plan {
            PhysicalPlan::TableScan { table } => Box::new(ScanStream::new(
                meta,
                self.catalog.source(table)?,
                pushdown.cloned(),
            )),
            // Inline constants are owned by the plan, which does not outlive
            // compilation: the stream gets its own columnar copy.
            PhysicalPlan::Values { relation } => Box::new(ScanStream::new(
                meta,
                Arc::new(TableSegments::from_relation(relation)),
                None,
            )),
            PhysicalPlan::Filter { input, predicate } => {
                // The filter's own predicate is offered to its child as a
                // pushdown (consumed only by table scans, whose zone maps
                // may then skip whole chunks). The filter still re-applies
                // the predicate — chunk skipping is conservative, not exact.
                let child = self.compile(input, false, Some(predicate))?;
                Box::new(FilterStream::new(meta, child, predicate.clone()))
            }
            PhysicalPlan::Project { input, attributes } => {
                Box::new(ProjectStream::new(meta, self.child(input)?, attributes)?)
            }
            PhysicalPlan::Rename { input, renames } => {
                Box::new(RenameStream::new(meta, self.child(input)?, renames)?)
            }
            PhysicalPlan::Union { left, right } => {
                let (left, right) = self.set_inputs(left, right, "union")?;
                Box::new(UnionStream::new(meta, left, right))
            }
            // With union-compatible inputs every attribute is a common one,
            // so the semi / anti join keys whole rows: r ∩ s = r ⋉ s and
            // r − s = r ▷ s.
            PhysicalPlan::Intersect { left, right } => {
                let (left, right) = self.set_inputs(left, right, "intersection")?;
                Box::new(HashJoinStream::new(meta, left, right, JoinKind::Semi))
            }
            PhysicalPlan::Difference { left, right } => {
                let (left, right) = self.set_inputs(left, right, "difference")?;
                Box::new(HashJoinStream::new(meta, left, right, JoinKind::Anti))
            }
            // r × s is the predicate-free r ⋈_θ s.
            PhysicalPlan::CrossProduct { left, right } => Box::new(NestedLoopStream::new(
                meta,
                self.child(left)?,
                self.child(right)?,
                None,
            )?),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => Box::new(NestedLoopStream::new(
                meta,
                self.child(left)?,
                self.child(right)?,
                Some(predicate.clone()),
            )?),
            PhysicalPlan::HashJoin { left, right }
            | PhysicalPlan::HashSemiJoin { left, right }
            | PhysicalPlan::HashAntiSemiJoin { left, right } => {
                let kind = match plan {
                    PhysicalPlan::HashJoin { .. } => JoinKind::Natural,
                    PhysicalPlan::HashSemiJoin { .. } => JoinKind::Semi,
                    _ => JoinKind::Anti,
                };
                Box::new(HashJoinStream::new(
                    meta,
                    self.child(left)?,
                    self.child(right)?,
                    kind,
                ))
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggregates,
            } => Box::new(AggregateStream::new(
                meta,
                self.child(input)?,
                group_by,
                aggregates,
            )?),
            PhysicalPlan::Divide { dividend, divisor }
            | PhysicalPlan::GreatDivide { dividend, divisor } => {
                let dividend = self.child(dividend)?;
                let divisor = self.child(divisor)?;
                let schema = if matches!(plan, PhysicalPlan::GreatDivide { .. }) {
                    kernels::great_quotient_schema(dividend.schema(), divisor.schema())
                } else {
                    kernels::quotient_schema(dividend.schema(), divisor.schema())
                }
                .map_err(ExprError::from)?;
                Box::new(DivideStream::new(meta, dividend, divisor, schema))
            }
        })
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
