//! The traced pass replays a statement stage by stage through the public
//! functions `Engine::query` is made of, with a span round each call, so
//! that a statement's time splits into layers without any span inside the
//! engine.
//!
//! Span tree of one statement:
//!
//! ```text
//! request
//! ├ server.parse_request      (statements that arrive over the wire)
//! ├ sql.parse, sql.lower      (SQL statements, unless the plan is cached)
//! ├ rewrite.optimize, physical.plan       (unless the plan is cached)
//! ├ sql.bind                  (prepared statements with parameters)
//! ├ physical.open             children: op.<kind> — operator open time
//! ├ physical.drain            children: op.<kind> — next + close time
//! └ server.encode_rows        (statements that arrive over the wire)
//! ```
//!
//! `physical.drain` covers every `next_batch` call plus `finish`. The time
//! to the first batch is kept as a number (`physical.first_batch.us`), not
//! as a span: the operator times of `ExecStats` accumulate over the whole
//! pull loop, and from outside the engine they cannot be cut at the first
//! batch, so a `first_batch` span could not hold its own operator children.

use crate::inputs::{Source, Statement};
use crate::spans::{Recorder, SpanId};
use div_columnar::ColumnarBatch;
use div_expr::Catalog;
use div_physical::{
    plan_query, ExecStats, OperatorStats, PhysicalPlan, PlannerConfig, QueryGuard, StreamExecutor,
};
use div_rewrite::{Optimizer, RewriteContext};
use div_server::protocol;
use div_sql::{parse_query, translate_query};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Operator kinds the per-operator self times are reported under.
pub const OPERATOR_KINDS: [&str; 8] = [
    "scan",
    "filter",
    "project",
    "join",
    "divide",
    "great_divide",
    "aggregate",
    "other",
];

/// Spans that make up the front end of a request (everything that is not
/// execution): `server.*`, `sql.*`, `rewrite.*` and `physical.plan`.
pub fn is_front_end(span_name: &str) -> bool {
    span_name.starts_with("server.")
        || span_name.starts_with("sql.")
        || span_name.starts_with("rewrite.")
        || span_name == "physical.plan"
}

pub fn operator_kind(label: &str) -> &'static str {
    const PREFIXES: [(&str, &str); 11] = [
        ("TableScan", "scan"),
        ("Values", "scan"),
        ("Filter", "filter"),
        ("Project", "project"),
        ("HashJoin", "join"),
        ("HashSemiJoin", "join"),
        ("HashAntiSemiJoin", "join"),
        ("NestedLoopJoin", "join"),
        ("Divide[", "divide"),
        ("GreatDivide[", "great_divide"),
        ("HashAggregate", "aggregate"),
    ];
    PREFIXES
        .iter()
        .find(|(prefix, _)| label.starts_with(prefix))
        .map_or("other", |(_, kind)| kind)
}

/// What the optimizer did to one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RewriteCounts {
    pub laws_fired: usize,
    pub alternatives_considered: usize,
    pub original_cost: f64,
    pub cost: f64,
}

/// One staged statement.
#[derive(Debug)]
pub struct Staged {
    pub request: SpanId,
    pub batches: Vec<ColumnarBatch>,
    pub stats: ExecStats,
    /// From the first `next_batch` call to the first batch handed out.
    pub first_batch_ns: u64,
    /// The compiled plan (parameters unbound) and the optimizer's counts,
    /// when this replay compiled; `None` when it ran a cached plan.
    pub compiled: Option<(PhysicalPlan, RewriteCounts)>,
}

/// Replay `statement` stage by stage against `catalog`.
///
/// `wire_line` is the request line a served statement arrives as; `cached`
/// is the plan a prepared statement already holds (the cache-hit path).
#[allow(clippy::too_many_arguments)]
pub fn replay(
    rec: &mut Recorder,
    statement_id: u32,
    statement: &Statement,
    wire_line: Option<&str>,
    cached: Option<&PhysicalPlan>,
    catalog: &Catalog,
    config: &PlannerConfig,
    optimizer: &Optimizer,
) -> Result<Staged, String> {
    let id = statement_id;
    let root = rec.start("request", None, id);
    let parent = Some(root);
    let fail = |stage: &str, err: &dyn std::fmt::Display| format!("{stage}: {err}");

    if let Some(line) = wire_line {
        rec.time("server.parse_request", parent, id, || {
            protocol::parse_request(black_box(line)).map(black_box)
        })
        .map_err(|e| fail("server.parse_request", &e.0))?;
    }

    let mut compiled = None;
    let template = match cached {
        Some(plan) => plan.clone(),
        None => {
            let logical = match &statement.source {
                Source::Sql(text) => {
                    let query = rec
                        .time("sql.parse", parent, id, || parse_query(black_box(text)))
                        .map_err(|e| fail("sql.parse", &e))?;
                    rec.time("sql.lower", parent, id, || translate_query(&query, catalog))
                        .map_err(|e| fail("sql.lower", &e))?
                }
                Source::Plan(plan) => plan.clone(),
            };
            let optimized = rec
                .time("rewrite.optimize", parent, id, || {
                    optimizer.optimize(&logical, &RewriteContext::with_catalog(catalog))
                })
                .map_err(|e| fail("rewrite.optimize", &e))?;
            let plan = rec
                .time("physical.plan", parent, id, || {
                    plan_query(&optimized.plan, config)
                })
                .map_err(|e| fail("physical.plan", &e))?;
            compiled = Some((
                plan.clone(),
                RewriteCounts {
                    laws_fired: optimized.applied.len(),
                    alternatives_considered: optimized.alternatives_considered,
                    original_cost: optimized.original_cost.value(),
                    cost: optimized.cost.value(),
                },
            ));
            plan
        }
    };
    let plan = if statement.params.is_empty() {
        template
    } else {
        let bindings: BTreeMap<String, div_algebra::Value> = statement
            .params
            .iter()
            .map(|(name, value)| (name.to_string(), value.clone()))
            .collect();
        rec.time("sql.bind", parent, id, || {
            template.bind_parameters(&bindings)
        })
    };

    let open = rec.start("physical.open", parent, id);
    let mut exec =
        StreamExecutor::with_guard(&plan, catalog, config, QueryGuard::from_config(config))
            .map_err(|e| fail("physical.open", &e))?;
    rec.end(open);

    let drain = rec.start("physical.drain", parent, id);
    let drain_start = rec.span(drain).start_ns;
    let mut batches = Vec::new();
    let mut first_batch_ns = None;
    while let Some(batch) = exec.next_batch().map_err(|e| fail("physical.drain", &e))? {
        first_batch_ns.get_or_insert_with(|| rec.now_ns() - drain_start);
        batches.push(batch);
    }
    let schema = exec.schema().clone();
    let stats = exec.finish();
    rec.end(drain);
    let first_batch_ns = first_batch_ns.unwrap_or_else(|| rec.span(drain).duration_ns());

    let by_kind = operator_self_times(&stats.operators);
    lay_out_operators(rec, open, id, by_kind.iter().map(|(k, t)| (*k, t.open_ns)));
    lay_out_operators(rec, drain, id, by_kind.iter().map(|(k, t)| (*k, t.pull_ns)));

    if wire_line.is_some() {
        rec.time("server.encode_rows", parent, id, || {
            let mut bytes = protocol::encode_schema(&schema.names()).len();
            for batch in &batches {
                for row in 0..batch.num_rows() {
                    bytes += protocol::encode_row(batch.row(row).values()).len();
                }
            }
            black_box(bytes)
        });
    }
    rec.end(root);
    Ok(Staged {
        request: root,
        batches,
        stats,
        first_batch_ns,
        compiled,
    })
}

/// Self time of one operator kind, split by executor phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTime {
    /// `open` phase (operator-tree compilation).
    pub open_ns: u64,
    /// `next_batch` and `close` phases.
    pub pull_ns: u64,
}

/// Per-kind self time from the span tree of `ExecStats` (whose times are
/// inclusive of children, hence the subtraction).
pub fn operator_self_times(operators: &[OperatorStats]) -> BTreeMap<&'static str, KindTime> {
    let mut by_kind: BTreeMap<&'static str, KindTime> = BTreeMap::new();
    for op in operators {
        let children = |f: fn(&OperatorStats) -> u64| -> u64 {
            op.children
                .iter()
                .map(|c| f(&operators[c.index()]))
                .sum::<u64>()
        };
        let open = |o: &OperatorStats| o.time_open_ns;
        let pull = |o: &OperatorStats| o.time_next_ns + o.time_close_ns;
        let entry = by_kind.entry(operator_kind(&op.label)).or_default();
        entry.open_ns += open(op).saturating_sub(children(open));
        entry.pull_ns += pull(op).saturating_sub(children(pull));
    }
    by_kind
}

/// Record one `op.<kind>` child span per kind under `parent`, back to back
/// from the parent's start. The durations are measured; the positions are
/// not (operators interleave batch by batch), so only the parent's self
/// time — executor overhead outside any operator — and the children's
/// lengths carry meaning.
fn lay_out_operators(
    rec: &mut Recorder,
    parent: SpanId,
    statement_id: u32,
    kinds: impl Iterator<Item = (&'static str, u64)>,
) {
    let mut at = rec.span(parent).start_ns;
    for (kind, ns) in kinds.filter(|(_, ns)| *ns > 0) {
        rec.add(
            &format!("op.{kind}"),
            Some(parent),
            statement_id,
            at,
            at + ns,
        );
        at += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{adhoc_rotation, churn_rotation, Scale, Tables};
    use div_physical::OperatorId;

    fn op(id: usize, label: &str, times: (u64, u64, u64), children: &[usize]) -> OperatorStats {
        OperatorStats {
            id: OperatorId(id),
            label: label.to_string(),
            time_open_ns: times.0,
            time_next_ns: times.1,
            time_close_ns: times.2,
            children: children.iter().map(|&c| OperatorId(c)).collect(),
            ..OperatorStats::default()
        }
    }

    #[test]
    fn operator_self_time_removes_children_and_groups_by_kind() {
        let tree = vec![
            op(0, "Divide[hash]", (10, 100, 5), &[1, 3]),
            op(1, "Project(s#, p#)", (4, 40, 1), &[2]),
            op(2, "TableScan(supplies)", (1, 30, 0), &[]),
            op(3, "TableScan(parts)", (2, 10, 1), &[]),
        ];
        let by_kind = operator_self_times(&tree);
        assert_eq!(
            by_kind["divide"],
            KindTime {
                open_ns: 4,
                pull_ns: 53
            }
        );
        assert_eq!(
            by_kind["project"],
            KindTime {
                open_ns: 3,
                pull_ns: 11
            }
        );
        assert_eq!(
            by_kind["scan"],
            KindTime {
                open_ns: 3,
                pull_ns: 41
            }
        );
        // Self times add up to the root's inclusive time.
        let total: u64 = by_kind.values().map(|t| t.open_ns + t.pull_ns).sum();
        assert_eq!(total, 115);
        assert_eq!(operator_kind("HashAntiSemiJoin"), "join");
        assert_eq!(operator_kind("Union"), "other");
    }

    #[test]
    fn replay_returns_the_reference_result_and_a_well_nested_tree() {
        let scale = Scale {
            suppliers: 30,
            parts: 8,
        };
        let catalog = Tables::generate(5, scale).catalog();
        let config = PlannerConfig::default().tracing(true);
        let optimizer = Optimizer::new();
        let mut rec = Recorder::new();
        for (i, statement) in adhoc_rotation(&catalog, scale).iter().enumerate() {
            let line = format!("QUERY {}", statement.sql_text().unwrap());
            let staged = replay(
                &mut rec,
                i as u32,
                statement,
                Some(&line),
                None,
                &catalog,
                &config,
                &optimizer,
            )
            .unwrap();
            let expected = crate::check::Expected::new(
                &div_expr::evaluate(&statement.reference, &catalog).unwrap(),
            );
            assert!(
                expected.matches_batches(&staged.batches),
                "{}",
                statement.class
            );
            assert!(staged.compiled.is_some());
        }
        // Every request's self times add up to its duration.
        let own = rec.self_times_ns();
        for (id, span) in rec
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "request")
        {
            let mut total = 0;
            let mut stack = vec![id];
            while let Some(s) = stack.pop() {
                total += own[s];
                stack.extend((0..rec.spans().len()).filter(|&c| rec.spans()[c].parent == Some(s)));
            }
            assert_eq!(total, span.duration_ns());
        }
    }

    #[test]
    fn cached_replay_skips_compilation_and_binds_parameters() {
        let scale = Scale {
            suppliers: 30,
            parts: 8,
        };
        let catalog = Tables::generate(5, scale).catalog();
        let config = PlannerConfig::default();
        let optimizer = Optimizer::new();
        let mut rec = Recorder::new();
        let rotation = churn_rotation(&catalog);
        let cold = replay(
            &mut rec,
            0,
            &rotation[0],
            None,
            None,
            &catalog,
            &config,
            &optimizer,
        )
        .unwrap();
        let (template, _) = cold.compiled.expect("a cold replay compiles");
        let before = rec.spans().len();
        let hit = replay(
            &mut rec,
            1,
            &rotation[1],
            None,
            Some(&template),
            &catalog,
            &config,
            &optimizer,
        )
        .unwrap();
        assert!(hit.compiled.is_none());
        let names: Vec<&str> = rec.spans()[before..]
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(names.contains(&"sql.bind") && !names.contains(&"rewrite.optimize"));
        let expected = crate::check::Expected::new(
            &div_expr::evaluate(&rotation[1].reference, &catalog).unwrap(),
        );
        assert!(expected.matches_batches(&hit.batches));
    }
}
