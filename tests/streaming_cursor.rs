//! Integration tests of the streaming execution API: the `Engine`'s
//! incremental `Cursor` and the peak-resident accounting of the streaming
//! executor — exercised through the public facade only.

use division::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "supplies",
        relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 2] },
    );
    c.register(
        "parts",
        relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
    );
    c
}

const Q2: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                  (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";

#[test]
fn cursor_schema_iteration_and_collect_agree() {
    let engine = Engine::builder(catalog())
        .planner_config(PlannerConfig::default().batch_size(1))
        .build();
    // One compile feeds the incremental path...
    let mut cursor = engine.query(Q2).unwrap();
    assert_eq!(cursor.schema().names(), vec!["s#"]);
    let mut streamed = Relation::empty(cursor.schema().clone());
    for batch in cursor.by_ref() {
        let batch = batch.unwrap();
        for i in 0..batch.num_rows() {
            streamed.insert(batch.row(i)).unwrap();
        }
    }
    let streamed_stats = cursor.finish_stats();
    // ...and another the one-call compatibility shim; both agree.
    let collected = engine.query_collect(Q2).unwrap();
    assert_eq!(streamed, collected.relation);
    assert_eq!(streamed, relation! { ["s#"] => [1], [2] });
    assert_eq!(streamed_stats.output_rows, collected.stats.output_rows);
    assert_eq!(streamed_stats.rows_scanned, collected.stats.rows_scanned);
}

#[test]
fn prepared_statements_stream_through_cursors() {
    let engine = Engine::new(catalog());
    let stmt = engine
        .prepare(
            "SELECT s# FROM supplies AS s DIVIDE BY \
             (SELECT p# FROM parts WHERE color = $color) AS p ON s.p# = p.p#",
        )
        .unwrap();
    let cursor = stmt
        .execute(&engine, &Params::new().bind("color", "blue"))
        .unwrap();
    assert_eq!(cursor.schema().names(), vec!["s#"]);
    assert_eq!(
        cursor.collect_relation().unwrap(),
        relation! { ["s#"] => [1], [2] }
    );
    assert_eq!(
        engine.compile_count(),
        1,
        "streaming executions don't compile"
    );
}

#[test]
fn dropping_a_cursor_early_is_safe_and_cheap() {
    let mut catalog = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..20_000).map(|i| vec![i, i % 5]).collect();
    catalog.register("big", Relation::from_rows(["a", "b"], rows).unwrap());
    let engine = Engine::builder(catalog)
        .planner_config(PlannerConfig::default().batch_size(256))
        .build();
    let mut cursor = engine.query("SELECT a FROM big WHERE b = 1").unwrap();
    let _first = cursor.next().unwrap().unwrap();
    drop(cursor); // no stats, no drain — upstream work simply never happens
}

#[test]
fn deep_pipeline_peak_is_bounded_by_batch_size_not_table_size() {
    // The streaming pitch end to end: a deep filter pipeline over a 30k-row
    // table with batch_size 128 keeps the executor's peak resident rows at
    // a small multiple of the batch size, while the materializing reference
    // evaluator's largest intermediate is table-sized.
    let table_rows = 30_000usize;
    let mut c = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..table_rows as i64).map(|i| vec![i, i % 13]).collect();
    c.register("big", Relation::from_rows(["a", "b"], rows).unwrap());
    let engine = Engine::builder(c.clone())
        .planner_config(PlannerConfig::default().batch_size(128))
        .build();
    let sql = "SELECT b FROM big WHERE b < 12";
    let output = engine.query_collect(sql).unwrap();
    assert_eq!(output.relation.len(), 12);
    assert!(
        output.stats.peak_resident_rows <= 8 * 128,
        "peak {} should be O(batch_size); the table has {} rows",
        output.stats.peak_resident_rows,
        table_rows
    );
    // Reference point: the materializing reference evaluator holds a
    // table-sized intermediate for the same plan.
    let logical = engine.explain(sql).unwrap().optimized;
    let (_, eval_stats) = div_expr::evaluate_with_stats(&logical, &c).unwrap();
    assert!(
        eval_stats.max_intermediate >= table_rows / 2,
        "the filter's materialized output ({} rows) is table-sized",
        eval_stats.max_intermediate
    );
}

#[test]
fn blocking_operators_still_stream_their_output_in_chunks() {
    // Aggregation is a blocking boundary, but its *output* still arrives in
    // batch_size chunks.
    let mut c = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..1_000).map(|i| vec![i, i % 2]).collect();
    c.register("big", Relation::from_rows(["a", "b"], rows).unwrap());
    let engine = Engine::builder(c)
        .planner_config(PlannerConfig::default().batch_size(64))
        .build();
    let logical = PlanBuilder::scan("big")
        .group_aggregate(["a"], [AggregateCall::count("b", "n")])
        .build();
    let mut cursor = engine.stream_logical(&logical).unwrap();
    let mut batches = 0usize;
    let mut rows = 0usize;
    for batch in cursor.by_ref() {
        let batch = batch.unwrap();
        assert!(batch.num_rows() <= 64, "chunks respect batch_size");
        batches += 1;
        rows += batch.num_rows();
    }
    assert_eq!(rows, 1_000);
    assert!(batches >= 1_000 / 64, "the blocking result is re-chunked");
    let stats = cursor.finish_stats();
    assert_eq!(stats.output_rows, 1_000);
    // Resident accounting across a blocking boundary: the aggregate keeps
    // one row per group (1000), never its input, and its result replaces
    // that state — plus a few in-flight chunks; served chunks must not be
    // double-counted or leak.
    let node = stats
        .operators
        .iter()
        .find(|op| op.label.starts_with("HashAggregate"))
        .expect("an aggregate node");
    assert_eq!(node.peak_retained_rows, 1_000, "groups, not input + result");
    assert!(
        stats.peak_resident_rows <= 1_300,
        "peak {} suggests leaked or double-counted chunks",
        stats.peak_resident_rows
    );
}

#[test]
fn budget_free_divide_never_buffers_its_dividend() {
    // 20,000 dividend rows in 200 quotient groups, batch 64, no budget: the
    // divide consumes the dividend into coverage state, so the executor
    // holds divisor + groups + a few in-flight chunks — never the dividend.
    let (groups, parts, batch_size) = (200, 100, 64);
    let (dividend, wanted) = div_bench::division_workload(groups as i64, parts as i64, 1);
    // A great-divide divisor over the same parts: 4 groups of 25.
    let (_, grouped) = div_bench::great_divide_workload(1, parts as i64, 4, 25);
    assert!(dividend.len() >= 20_000);
    let mut c = Catalog::new();
    c.register("supplies", dividend);
    c.register("wanted", wanted);
    c.register("grouped", grouped);
    let small = PlanBuilder::scan("supplies")
        .divide(PlanBuilder::scan("wanted"))
        .build();
    let great = PlanBuilder::scan("supplies")
        .great_divide(PlanBuilder::scan("grouped"))
        .build();
    let config = PlannerConfig::default().batch_size(batch_size);
    for (logical, label) in [(small, "Divide"), (great, "GreatDivide")] {
        let run = |config: PlannerConfig| {
            let plan = plan_query(&logical, &config).unwrap();
            let mut stream = StreamExecutor::new(&plan, &c, &config).unwrap();
            while stream.next_batch().unwrap().is_some() {}
            stream.finish()
        };
        let stats = run(config);
        assert_eq!(stats.rows_scanned, groups * parts + parts, "{label}");
        // (The great divide's quotient has one row per dividend group and
        // divisor group, so its output can outgrow its coverage state.)
        assert!(
            stats.peak_resident_rows <= parts + groups.max(stats.output_rows) + 4 * batch_size,
            "{label}: peak {} means the dividend was buffered",
            stats.peak_resident_rows
        );
        let node = &stats.operators[0];
        assert!(node.label.starts_with(label), "{}", node.label);
        assert_eq!(node.peak_retained_rows, parts + groups, "{label}");

        // Spilling armed against a budget that never triggers: the same
        // operator, the same definition of every per-node counter.
        let armed = run(config.spill_to_disk(true).memory_budget_rows(usize::MAX));
        assert_eq!(armed.spill_partitions, 0, "{label}");
        let armed_node = &armed.operators[0];
        assert_eq!(armed_node.rows_out, node.rows_out, "{label}");
        assert_eq!(armed_node.probes, node.probes, "{label}");
        assert_eq!(
            armed_node.peak_retained_rows, node.peak_retained_rows,
            "{label}"
        );
    }
}
