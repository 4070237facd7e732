//! Integration tests of the observability layer: the per-operator span tree
//! the streaming executor fills, the estimate-vs-actual `EXPLAIN ANALYZE`
//! report, and the engine's session metrics registry — exercised through
//! the public facade only.
//!
//! The span-tree consistency facts — one span per plan node, labelled by
//! `operator_label` in pre-order, each `rows_in` the sum of the children's
//! outputs, scans summing to `rows_scanned`, the root matching
//! `output_rows`, per-span probes summing to `probes` — are the oracle's
//! `check_stats` (`div_conformance::oracle`), which every differential run
//! makes; here every shape of the oracle's catalogue is also checked with
//! span timing on, which the oracle's matrix does not run.

use div_conformance::oracle::{check_stats, shape_catalog, shapes};
use division::prelude::*;
use std::sync::Arc;

/// Drain `plan` over the oracle's shape catalog through an optimizer-off
/// engine, with span timing on or off.
fn run_raw(plan: &LogicalPlan, tracing: bool) -> QueryOutput {
    Engine::builder(shape_catalog())
        .planner_config(PlannerConfig::default().tracing(tracing))
        .without_optimizer()
        .build()
        .run(Request::plan(plan))
        .unwrap()
        .collect()
        .unwrap()
}

#[test]
fn same_labelled_operators_keep_separate_spans() {
    // Two stacked identical filters: a label-keyed view would merge them
    // into one entry; the span tree must not.
    let (_, logical) = shapes()
        .into_iter()
        .find(|(name, _)| *name == "stacked_identical_filters")
        .unwrap();
    let output = run_raw(&logical, false);
    let ops = &output.stats.operators;
    assert_eq!(ops.len(), 3);
    assert_eq!(ops[0].label, ops[1].label);
    assert_ne!(ops[0].id, ops[1].id);
    // Both filters pass the same rows, but they are attributed per node…
    let passed = output.relation.len();
    assert!(passed > 0);
    assert_eq!(ops[0].rows_out, passed);
    assert_eq!(ops[1].rows_out, passed);
}

#[test]
fn early_terminated_cursors_report_partial_spans() {
    let mut c = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..10_000).map(|i| vec![i, i % 7]).collect();
    c.register("big", Relation::from_rows(["a", "b"], rows).unwrap());
    let engine = Engine::builder(c)
        .planner_config(PlannerConfig::default().batch_size(64))
        .build();
    let mut cursor = engine.query("SELECT a FROM big WHERE b = 3").unwrap();
    let first: Vec<_> = cursor.by_ref().take(1).collect();
    assert_eq!(first.len(), 1);
    let stats = cursor.finish_stats();
    assert!(stats.rows_scanned < 10_000, "take(1) stops the scan short");
    let scan = stats
        .operators
        .iter()
        .find(|op| op.label.starts_with("TableScan("))
        .expect("scan span exists");
    assert_eq!(scan.rows_out, stats.rows_scanned);
    assert!(scan.rows_out < 10_000, "the scan span is partial too");
    assert_eq!(stats.operators[0].rows_out, stats.output_rows);
}

#[test]
fn span_timing_is_gated_by_the_tracing_flag() {
    for (name, logical) in shapes() {
        let [untraced, traced] = [false, true].map(|tracing| {
            let output = run_raw(&logical, tracing);
            check_stats(&output.stats, &output.relation, Some(&logical))
                .unwrap_or_else(|e| panic!("{name}, tracing {tracing}: {e}"));
            output.stats
        });
        // Tracing off (the default): full attribution, zero clock reads.
        assert!(
            untraced.operators.iter().all(|op| !op.timed()),
            "{name}: tracing off must record no wall time"
        );
        assert!(untraced.operators.iter().any(|op| op.rows_out > 0));

        // Tracing on: the same tree, now with spans.
        assert!(
            traced.operators.iter().any(|op| op.timed()),
            "{name}: tracing on must record wall time"
        );
        // The wall-clock fields are excluded from equality, so the traced
        // and untraced trees compare equal node for node.
        assert_eq!(untraced.operators, traced.operators, "{name}");
    }
}

#[test]
fn engine_with_tracing_times_ordinary_queries() {
    let engine = Engine::builder(shape_catalog())
        .planner_config(PlannerConfig::default().tracing(true))
        .build();
    let output = engine
        .run("SELECT s# FROM supplies WHERE p# = 2")
        .unwrap()
        .collect()
        .unwrap();
    assert!(output.stats.operators.iter().any(|op| op.timed()));

    let plain = Engine::new(shape_catalog());
    let output = plain
        .run("SELECT s# FROM supplies WHERE p# = 2")
        .unwrap()
        .collect()
        .unwrap();
    assert!(
        output.stats.operators.iter().all(|op| !op.timed()),
        "plain queries default to tracing off"
    );
}

const Q2: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                  (SELECT p# FROM grouped WHERE c = 1) AS p ON s.p# = p.p#";

#[test]
fn explain_analyze_lines_up_estimates_and_actuals() {
    // Tracing stays off on the engine; explain_analyze forces it on for
    // its one execution.
    let engine = Engine::new(shape_catalog());
    let analyzed = engine.explain_analyze(Q2).unwrap();
    let stats = analyzed.stats.as_ref().expect("analyze measures stats");
    let operators = analyzed.operator_stats().expect("span tree present");
    assert_eq!(operators.len(), analyzed.optimized.node_count());
    assert_eq!(analyzed.estimated_rows.len(), operators.len());
    assert!(
        operators.iter().any(|op| op.timed()),
        "analyze always times"
    );
    assert!(operators.iter().any(|op| op.probes > 0), "divide probes");
    let errors = analyzed.estimation_errors().expect("errors computable");
    assert!(errors.iter().all(|&e| e >= 1.0), "q-error is ≥ 1");

    let rendered = analyzed.to_string();
    assert!(rendered.contains("execution stats:"));
    assert!(rendered.contains("executed via:        streaming executor (batch_size="));
    assert!(rendered.contains("operators executed:"));
    assert!(rendered.contains("per-operator stats (est from cost model, err = q-error):"));
    for (i, op) in operators.iter().enumerate() {
        assert!(
            rendered.contains(&format!(
                "{} rows={} est_rows={}",
                op.label,
                op.rows_out,
                analyzed.estimated_rows[i].round() as u64
            )),
            "annotated line for {} present",
            op.label
        );
    }
    assert!(rendered.contains(" time="));
    assert!(rendered.contains(" probes="));
    assert!(rendered.contains(" resident="));
    assert_eq!(stats.output_rows, 6);

    // Plain explain carries the estimates but no measured spans.
    let explained = engine.explain(Q2).unwrap();
    assert_eq!(
        explained.estimated_rows.len(),
        explained.optimized.node_count()
    );
    assert!(explained.operator_stats().is_none());
    assert!(explained.estimation_errors().is_none());
    assert!(!explained.to_string().contains("per-operator stats"));
}

#[test]
fn engine_metrics_count_queries_rows_and_laws() {
    let engine = Engine::new(shape_catalog());
    assert_eq!(engine.metrics().queries_executed, 0);

    let output = engine.run(Q2).unwrap().collect().unwrap();
    assert_eq!(output.relation.len(), 6);
    engine.query("SELECT s# FROM supplies").unwrap(); // dropped unread
    let snapshot = engine.metrics();
    assert_eq!(snapshot.queries_executed, 2);
    assert_eq!(snapshot.rows_returned, 6, "dropped cursor returned no rows");
    assert_eq!(
        snapshot.latency_buckets.iter().sum::<u64>(),
        2,
        "every execution lands in exactly one latency bucket"
    );
    assert!(snapshot.execute_ns > 0);
    assert!(snapshot.parse_ns > 0);

    // A rewriting query credits its laws.
    engine
        .run(
            "SELECT s#, c FROM supplies AS s DIVIDE BY grouped AS g ON s.p# = g.p# \
             WHERE c = 1",
        )
        .unwrap()
        .collect()
        .unwrap();
    let snapshot = engine.metrics();
    assert!(
        !snapshot.law_applications.is_empty(),
        "law applications are tallied"
    );
    assert!(snapshot.optimize_ns > 0);

    // JSON and text renderings agree on the headline counter.
    assert!(snapshot.to_json().contains("\"queries_executed\": 3"));
    assert!(snapshot.to_string().contains("queries executed:      3"));
}

#[test]
fn prepared_statement_cache_counts_hits_and_misses() {
    let engine = Engine::new(shape_catalog());
    let first = engine.prepare(Q2).unwrap();
    let second = engine.prepare(Q2).unwrap();
    assert_eq!(engine.compile_count(), 1, "second prepare is a cache hit");
    assert!(
        Arc::ptr_eq(first.plan(), second.plan()),
        "cached statements share one compiled plan"
    );
    let snapshot = engine.metrics();
    assert_eq!(snapshot.statements_prepared, 2);
    assert_eq!(snapshot.prepared_cache_hits, 1);
    assert_eq!(snapshot.prepared_cache_misses, 1);

    // Catalog mutation invalidates the cached entry: the next prepare
    // recompiles (a miss), and the stale statement refuses to run.
    engine.mutate_catalog(|c| {
        c.register("extra", relation! { ["x"] => [1] });
    });
    let third = engine.prepare(Q2).unwrap();
    assert_eq!(engine.compile_count(), 2);
    assert!(!Arc::ptr_eq(first.plan(), third.plan()));
    let snapshot = engine.metrics();
    assert_eq!(snapshot.prepared_cache_hits, 1);
    assert_eq!(snapshot.prepared_cache_misses, 2);
}
