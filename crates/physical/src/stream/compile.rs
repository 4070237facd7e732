//! Compilation: one [`BatchStream`] operator per [`LogicalPlan`] node.

use super::grouped::GroupedStream;
use super::join::{HashJoinStream, JoinKind, NestedLoopStream};
use super::pipeline::{FilterStream, ProjectStream, RenameStream, UnionStream};
use super::scan::ScanStream;
use super::{BatchStream, OpMeta, StreamContext};
use crate::trace::{OperatorId, QueryTrace};
use crate::Result;
use div_algebra::{Predicate, Schema};
use div_columnar::{ColumnarBatch, TableSegments};
use div_expr::{node_schema, Catalog, LogicalPlan};
use std::sync::Arc;
use std::time::Instant;

/// Compile `plan` into a streaming operator tree rooted at a
/// [`BatchStream`], traced by `trace` (which must have been built from the
/// same plan). Every node is validated here, before any batch flows; the
/// returned stream shares the catalog's base tables
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

    /// Build a leaf's operator, whose schema is its source's; or compile an
    /// inner node's children, take the node's schema from theirs
    /// ([`node_schema`], the rule every layer shares, so a plan the
    /// reference refuses is refused here, before any batch flows) and build
    /// the node's operator over them.
    fn node(
        &mut self,
        plan: &LogicalPlan,
        meta: OpMeta,
        pushdown: Option<&Predicate>,
    ) -> Result<Box<dyn BatchStream>> {
        match plan {
            LogicalPlan::Scan { table } => {
                let source = self.catalog.source(table)?;
                return Ok(Box::new(ScanStream::new(meta, source, pushdown.cloned())));
            }
            // Inline constants are owned by the plan, which does not outlive
            // compilation: the stream gets its own columnar copy.
            LogicalPlan::Values { relation } => {
                let source = Arc::new(TableSegments::from_relation(relation));
                return Ok(Box::new(ScanStream::new(meta, source, None)));
            }
            _ => {}
        }
        // The filter's own predicate is offered to its child as a pushdown
        // (consumed only by table scans, whose zone maps may then skip
        // whole chunks). The filter still re-applies the predicate — chunk
        // skipping is conservative, not exact.
        let child_pushdown = match plan {
            LogicalPlan::Select { predicate, .. } => Some(predicate),
            _ => None,
        };
        let mut inputs = Vec::with_capacity(2);
        for child in plan.children() {
            inputs.push(self.compile(child, false, child_pushdown)?);
        }
        let schemas: Vec<&Schema> = inputs.iter().map(|input| input.schema()).collect();
        let schema = node_schema(plan, &schemas, self.catalog)?;
        let mut inputs = inputs.into_iter();
        let mut input = || inputs.next().expect("one stream per child");
        Ok(match plan {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => {
                unreachable!("leaves are built above")
            }
            LogicalPlan::Select { predicate, .. } => {
                Box::new(FilterStream::new(meta, input(), predicate.clone()))
            }
            LogicalPlan::Project { .. } => Box::new(ProjectStream::new(meta, input(), schema)?),
            LogicalPlan::Rename { .. } => Box::new(RenameStream::new(meta, input(), schema)),
            LogicalPlan::Union { .. } => Box::new(UnionStream::new(meta, input(), input(), schema)),
            // With union-compatible inputs every attribute is a common one,
            // so the semi / anti join keys whole rows: r ∩ s = r ⋉ s and
            // r − s = r ▷ s.
            LogicalPlan::Intersect { .. } | LogicalPlan::SemiJoin { .. } => Box::new(
                HashJoinStream::new(meta, input(), input(), JoinKind::Semi, schema),
            ),
            LogicalPlan::Difference { .. } | LogicalPlan::AntiSemiJoin { .. } => Box::new(
                HashJoinStream::new(meta, input(), input(), JoinKind::Anti, schema),
            ),
            LogicalPlan::NaturalJoin { .. } => {
                let (left, right) = (input(), input());
                let kind = natural_join_kind(left.schema(), right.schema());
                Box::new(HashJoinStream::new(meta, left, right, kind, schema))
            }
            // r × s is the predicate-free r ⋈_θ s.
            LogicalPlan::Product { .. } => {
                Box::new(NestedLoopStream::new(meta, input(), input(), None, schema))
            }
            LogicalPlan::ThetaJoin { predicate, .. } => Box::new(NestedLoopStream::new(
                meta,
                input(),
                input(),
                Some(predicate.clone()),
                schema,
            )),
            LogicalPlan::GroupAggregate {
                group_by,
                aggregates,
                ..
            } => Box::new(GroupedStream::aggregate(
                meta,
                input(),
                schema,
                group_by,
                aggregates,
            )?),
            LogicalPlan::SmallDivide { .. } | LogicalPlan::GreatDivide { .. } => {
                Box::new(GroupedStream::divide(meta, input(), input(), schema))
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
