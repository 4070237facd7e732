//! Integration tests of the observability layer: the per-operator span tree
//! the streaming executor fills, the estimate-vs-actual `EXPLAIN ANALYZE`
//! report, and the engine's session metrics registry — exercised through
//! the public facade only.
//!
//! The core consistency check: for every plan shape, the per-operator tree
//! must agree with the query-level aggregates the executor reports — scans
//! sum to `rows_scanned`, the root matches `output_rows`, per-node probes
//! sum to `probes` — and the tree must have exactly one node per physical
//! operator, labelled in `PhysicalPlan::explain` pre-order.

use division::prelude::*;
use std::sync::Arc;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "supplies",
        relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 2] },
    );
    c.register(
        "others",
        relation! { ["s#", "p#"] => [1, 1], [4, 2], [5, 3] },
    );
    c.register(
        "parts",
        relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
    );
    c.register("colors", relation! { ["color"] => ["blue"], ["red"] });
    c
}

/// The plan-shape sweep: one representative per operator family, plus the
/// collision shape (two identically-labelled filters) a label-keyed view
/// could not tell apart.
fn plan_shapes() -> Vec<(&'static str, LogicalPlan)> {
    let blue_parts = || {
        PlanBuilder::scan("parts")
            .select(Predicate::eq_value("color", "blue"))
            .project(["p#"])
    };
    vec![
        ("scan", PlanBuilder::scan("supplies").build()),
        (
            "filter",
            PlanBuilder::scan("supplies")
                .select(Predicate::eq_value("p#", 2))
                .build(),
        ),
        (
            "project",
            PlanBuilder::scan("supplies").project(["s#"]).build(),
        ),
        (
            "stacked_identical_filters",
            PlanBuilder::scan("supplies")
                .select(Predicate::eq_value("p#", 2))
                .select(Predicate::eq_value("p#", 2))
                .build(),
        ),
        (
            "union",
            PlanBuilder::scan("supplies")
                .union(PlanBuilder::scan("others"))
                .build(),
        ),
        (
            "intersect",
            PlanBuilder::scan("supplies")
                .intersect(PlanBuilder::scan("others"))
                .build(),
        ),
        (
            "difference",
            PlanBuilder::scan("supplies")
                .difference(PlanBuilder::scan("others"))
                .build(),
        ),
        (
            "product",
            PlanBuilder::scan("supplies")
                .product(PlanBuilder::scan("colors"))
                .build(),
        ),
        (
            "natural_join",
            PlanBuilder::scan("supplies")
                .natural_join(PlanBuilder::scan("parts"))
                .build(),
        ),
        (
            "semi_join",
            PlanBuilder::scan("supplies")
                .semi_join(blue_parts())
                .build(),
        ),
        (
            "divide",
            PlanBuilder::scan("supplies").divide(blue_parts()).build(),
        ),
        (
            "great_divide",
            PlanBuilder::scan("supplies")
                .great_divide(PlanBuilder::scan("parts"))
                .build(),
        ),
        (
            "aggregate",
            PlanBuilder::scan("supplies")
                .group_aggregate(["s#"], [AggregateCall::count("p#", "n")])
                .build(),
        ),
    ]
}

/// Pre-order `(label)` walk of a physical plan — the `OperatorId` order.
fn preorder_labels(plan: &division::physical::PhysicalPlan) -> Vec<String> {
    let mut out = vec![plan.label()];
    for child in plan.children() {
        out.extend(preorder_labels(child));
    }
    out
}

fn assert_tree_consistent(
    path: &str,
    shape: &str,
    physical: &division::physical::PhysicalPlan,
    stats: &division::physical::ExecStats,
) {
    let ops = &stats.operators;
    assert_eq!(
        ops.len(),
        physical.operator_count(),
        "{path}/{shape}: one span per operator"
    );
    let labels = preorder_labels(physical);
    for (i, op) in ops.iter().enumerate() {
        assert_eq!(op.id.index(), i, "{path}/{shape}: ids are pre-order");
        assert_eq!(op.label, labels[i], "{path}/{shape}: labels line up");
        // rows_in is derived: the sum of the children's outputs.
        let from_children: usize = op.children.iter().map(|c| ops[c.index()].rows_out).sum();
        assert_eq!(op.rows_in, from_children, "{path}/{shape}: rows_in");
    }
    let scanned: usize = ops
        .iter()
        .filter(|op| op.label.starts_with("TableScan(") || op.label.starts_with("Values("))
        .map(|op| op.rows_out)
        .sum();
    assert_eq!(
        scanned, stats.rows_scanned,
        "{path}/{shape}: scan spans sum to rows_scanned"
    );
    assert_eq!(
        ops[0].rows_out, stats.output_rows,
        "{path}/{shape}: root span matches output_rows"
    );
    let probes: usize = ops.iter().map(|op| op.probes).sum();
    assert_eq!(
        probes, stats.probes,
        "{path}/{shape}: per-span probes sum to the aggregate"
    );
}

/// Drain a streaming execution of `physical` and return its stats.
fn stream_stats(
    physical: &division::physical::PhysicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> division::physical::ExecStats {
    let mut exec = StreamExecutor::new(physical, catalog, config).unwrap();
    while exec.next_batch().unwrap().is_some() {}
    exec.finish()
}

#[test]
fn span_trees_reconcile_with_aggregates_on_every_path_and_shape() {
    let catalog = catalog();
    for (shape, logical) in plan_shapes() {
        let physical = plan_query(&logical, &PlannerConfig::default()).unwrap();
        let stats = stream_stats(&physical, &catalog, &PlannerConfig::default());
        assert_tree_consistent("streaming", shape, &physical, &stats);
    }
}

#[test]
fn same_labelled_operators_keep_separate_spans() {
    // Two stacked identical filters: a label-keyed view would merge them
    // into one entry; the span tree must not.
    let catalog = catalog();
    let logical = PlanBuilder::scan("supplies")
        .select(Predicate::eq_value("p#", 2))
        .select(Predicate::eq_value("p#", 2))
        .build();
    let physical = plan_query(&logical, &PlannerConfig::default()).unwrap();
    let stats = stream_stats(&physical, &catalog, &PlannerConfig::default());
    assert_eq!(stats.operators.len(), 3);
    assert_eq!(stats.operators[0].label, stats.operators[1].label);
    assert_ne!(stats.operators[0].id, stats.operators[1].id);
    // Both filters pass the same 3 rows, but they are attributed per node…
    assert_eq!(stats.operators[0].rows_out, 3);
    assert_eq!(stats.operators[1].rows_out, 3);
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
    let catalog = catalog();
    let logical = PlanBuilder::scan("supplies")
        .divide(
            PlanBuilder::scan("parts")
                .select(Predicate::eq_value("color", "blue"))
                .project(["p#"]),
        )
        .build();
    let physical = plan_query(&logical, &PlannerConfig::default()).unwrap();

    // Tracing off (the default): full attribution, zero clock reads.
    let untraced = stream_stats(&physical, &catalog, &PlannerConfig::default());
    assert!(
        untraced.operators.iter().all(|op| !op.timed()),
        "tracing off must record no wall time"
    );
    assert!(untraced.operators.iter().any(|op| op.rows_out > 0));

    // Tracing on: the same tree, now with spans.
    let traced = stream_stats(&physical, &catalog, &PlannerConfig::default().tracing(true));
    assert!(
        traced.operators.iter().any(|op| op.timed()),
        "tracing on must record wall time"
    );
    // The wall-clock fields are excluded from equality, so the traced and
    // untraced trees compare equal node for node.
    assert_eq!(untraced.operators, traced.operators);
}

#[test]
fn engine_with_tracing_times_ordinary_queries() {
    let engine = Engine::builder(catalog()).with_tracing(true).build();
    let output = engine
        .query_collect("SELECT s# FROM supplies WHERE p# = 2")
        .unwrap();
    assert!(output.stats.operators.iter().any(|op| op.timed()));

    let plain = Engine::new(catalog());
    let output = plain
        .query_collect("SELECT s# FROM supplies WHERE p# = 2")
        .unwrap();
    assert!(
        output.stats.operators.iter().all(|op| !op.timed()),
        "plain queries default to tracing off"
    );
}

const Q2: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                  (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";

#[test]
fn explain_analyze_lines_up_estimates_and_actuals() {
    // Tracing stays off on the engine; explain_analyze forces it on for
    // its one execution.
    let engine = Engine::new(catalog());
    let analyzed = engine.explain_analyze(Q2).unwrap();
    let stats = analyzed.stats.as_ref().expect("analyze measures stats");
    let operators = analyzed.operator_stats().expect("span tree present");
    assert_eq!(operators.len(), analyzed.physical.operator_count());
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
    assert_eq!(stats.output_rows, 2);

    // Plain explain carries the estimates but no measured spans.
    let explained = engine.explain(Q2).unwrap();
    assert_eq!(
        explained.estimated_rows.len(),
        explained.physical.operator_count()
    );
    assert!(explained.operator_stats().is_none());
    assert!(explained.estimation_errors().is_none());
    assert!(!explained.to_string().contains("per-operator stats"));
}

#[test]
fn engine_metrics_count_queries_rows_and_laws() {
    let engine = Engine::new(catalog());
    assert_eq!(engine.metrics().queries_executed, 0);

    let output = engine.query_collect(Q2).unwrap();
    assert_eq!(output.relation.len(), 2);
    engine.query("SELECT s# FROM supplies").unwrap(); // dropped unread
    let snapshot = engine.metrics();
    assert_eq!(snapshot.queries_executed, 2);
    assert_eq!(snapshot.rows_returned, 2, "dropped cursor returned no rows");
    assert_eq!(
        snapshot.latency_buckets.iter().sum::<u64>(),
        2,
        "every execution lands in exactly one latency bucket"
    );
    assert!(snapshot.execute_ns > 0);
    assert!(snapshot.parse_ns > 0);

    // A rewriting query credits its laws.
    engine
        .query_collect(
            "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# \
             WHERE color = 'blue'",
        )
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
    let engine = Engine::new(catalog());
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
