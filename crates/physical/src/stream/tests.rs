use super::*;
use crate::guard::CancelToken;
use div_algebra::{relation, CompareOp, Relation};
use div_expr::{evaluate, ExprError, LogicalPlan, PlanBuilder};

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

fn collect(stream: &mut StreamExecutor) -> Relation {
    let mut out = Relation::empty(stream.schema().clone());
    while let Some(batch) = stream.next_batch().unwrap() {
        for i in 0..batch.num_rows() {
            out.insert(batch.row(i)).unwrap();
        }
    }
    out
}

/// The streaming executor against the row-at-a-time reference evaluator.
#[test]
fn streamed_q2_matches_the_row_backend_including_stats_totals() {
    let c = catalog();
    let logical = PlanBuilder::scan("supplies")
        .divide(
            PlanBuilder::scan("parts")
                .select(div_algebra::Predicate::eq_value("color", "blue"))
                .project(["p#"]),
        )
        .build();
    let expected = evaluate(&logical, &c).unwrap();
    for batch_size in [1, 2, 1024] {
        let config = PlannerConfig::default().batch_size(batch_size);
        let mut stream = StreamExecutor::new(&logical, &c, &config).unwrap();
        let got = collect(&mut stream);
        let stats = stream.finish();
        assert_eq!(got, expected, "batch_size {batch_size}");
        assert_eq!(stats.output_rows, expected.len());
        assert_eq!(stats.rows_scanned, 6 + 3, "each table scanned once");
        assert_eq!(stats.operators[0].label, "Divide[hash]");
        assert_eq!(stats.operators_executed, logical.node_count());
        assert!(stats.peak_resident_batches > 0);
    }
}

#[test]
fn a_root_divide_counts_no_intermediate_tuples() {
    let mut c = catalog();
    c.register("wanted", relation! { ["p#"] => [1], [2] });
    let logical = PlanBuilder::scan("supplies")
        .divide(PlanBuilder::scan("wanted"))
        .build();
    let mut stream = StreamExecutor::new(&logical, &c, &PlannerConfig::default()).unwrap();
    assert_eq!(collect(&mut stream).len(), 2);
    let stats = stream.finish();
    // The quotient is the output; the scans' rows are scanned, not produced.
    assert_eq!(stats.intermediate_tuples, 0);
    assert_eq!(stats.operators_executed, 3);
}

/// `r ⋈ s = r ⋉ s` when attrs(s) ⊆ attrs(r): `r ⋈ r` and `r ⋈ π_A(r)`
/// compile onto the semi-join, a right side that adds a column keeps the
/// natural join, and all three match the reference in memory at every batch
/// size and under a spill budget — which only the natural join, whose build
/// keeps rows, spills under — with the probe count the natural join kernel
/// reports for the same inputs.
#[test]
fn a_natural_join_whose_right_side_adds_no_attribute_runs_as_a_semi_join() {
    use super::compile::natural_join_kind;
    use super::join::JoinKind;

    let mut c = Catalog::new();
    let pairs: Vec<(i64, i64)> = (0..300).map(|i| (i % 40, i / 40 + i % 3)).collect();
    let r = Relation::from_rows(["a", "b"], pairs.iter().map(|&(a, b)| vec![a, b])).unwrap();
    c.register("r", r);
    // Every row of `r` with a tag: the natural join adds column `t`.
    let tags = pairs.iter().map(|&(a, b)| vec![b, a, (a + b) % 5]);
    c.register("tags", Relation::from_rows(["b", "a", "t"], tags).unwrap());
    let scan = PlanBuilder::scan;
    let shapes = [
        (scan("r").natural_join(scan("r")).build(), JoinKind::Semi),
        (
            scan("r").natural_join(scan("r").project(["a"])).build(),
            JoinKind::Semi,
        ),
        (
            scan("r").natural_join(scan("tags")).build(),
            JoinKind::Natural,
        ),
    ];
    for (logical, kind) in shapes {
        let LogicalPlan::NaturalJoin { left, right } = &logical else {
            unreachable!("every shape is a natural join");
        };
        let schema = |plan: &LogicalPlan| div_expr::infer_schema(plan, &c).unwrap();
        let (left_schema, right_schema) = (schema(left), schema(right));
        assert_eq!(natural_join_kind(&left_schema, &right_schema), kind);
        let expected = evaluate(&logical, &c).unwrap();
        let out_schema = left_schema.natural_union(&right_schema);
        assert_eq!(expected.schema(), &out_schema);
        if kind == JoinKind::Natural {
            assert!(out_schema.arity() > left_schema.arity(), "adds a column");
        }
        let batch = |plan: &LogicalPlan| ColumnarBatch::from_relation(&evaluate(plan, &c).unwrap());
        let natural_probes = div_columnar::kernels::hash_natural_join(&batch(left), &batch(right))
            .unwrap()
            .probes;
        let budgeted = PlannerConfig::default()
            .batch_size(4)
            .memory_budget_rows(60)
            .spill_to_disk(true);
        let configs = [1, 3, 1024]
            .map(|size| PlannerConfig::default().batch_size(size))
            .into_iter()
            .chain([budgeted]);
        for config in configs {
            let mut stream = StreamExecutor::new(&logical, &c, &config).unwrap();
            assert_eq!(stream.schema(), &out_schema);
            let got = collect(&mut stream);
            let stats = stream.finish();
            let run = format!("{kind:?}, {config:?}, plan:\n{logical}");
            assert_eq!(got, expected, "{run}");
            assert_eq!(stats.operators[0].probes, natural_probes, "{run}");
            assert_eq!(stats.resident_rows_on_finish, 0, "{run}");
            if config.memory_budget_rows.is_some() {
                // The semi-join's build side is its key alone, so it holds a
                // few words of presence bits; the natural join keeps rows.
                let spilled = stats.spill_partitions > 0;
                assert_eq!(spilled, kind == JoinKind::Natural, "{run}");
                assert!(stats.peak_resident_rows <= 60, "{run}");
            }
        }
    }
}

#[test]
fn compile_errors_surface_before_execution() {
    let c = catalog();
    let missing = PlanBuilder::scan("nope").build();
    assert!(StreamExecutor::new(&missing, &c, &PlannerConfig::default()).is_err());
    // A small divide whose divisor attribute is not in the dividend is
    // rejected at compile time, before any batch flows.
    let bad_divide = PlanBuilder::scan("supplies")
        .divide(PlanBuilder::scan("parts"))
        .build();
    assert!(StreamExecutor::new(&bad_divide, &c, &PlannerConfig::default()).is_err());
}

/// Intersection and difference run as semi / anti joins, which need no
/// common schema; the compiler still insists on union-compatible inputs.
#[test]
fn set_operators_reject_incompatible_schemas() {
    let c = catalog();
    let scan = PlanBuilder::scan;
    for set_op in [
        scan("supplies").intersect(scan("parts")).build(),
        scan("supplies").difference(scan("parts")).build(),
    ] {
        let err = StreamExecutor::new(&set_op, &c, &PlannerConfig::default()).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }
}

#[test]
fn schema_is_known_before_execution_and_empty_results_keep_it() {
    let c = catalog();
    let logical = PlanBuilder::scan("supplies")
        .select(div_algebra::Predicate::cmp_value("s#", CompareOp::Gt, 99))
        .project(["s#"])
        .build();
    let config = PlannerConfig::default();
    let mut stream = StreamExecutor::new(&logical, &c, &config).unwrap();
    assert_eq!(stream.schema().names(), vec!["s#"]);
    assert!(stream.next_batch().unwrap().is_none());
    let stats = stream.finish();
    assert_eq!(stats.output_rows, 0);
}

/// A big self-product: |big| × |big| = 4M output rows, the runaway shape
/// governance exists to stop.
fn runaway_product() -> (Catalog, div_expr::LogicalPlan) {
    let mut c = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..2_000).map(|i| vec![i]).collect();
    c.register("big", Relation::from_rows(["a"], rows.clone()).unwrap());
    c.register("big2", Relation::from_rows(["b"], rows).unwrap());
    let logical = PlanBuilder::scan("big")
        .product(PlanBuilder::scan("big2"))
        .build();
    (c, logical)
}

/// `l` (2000 rows) ⋈_{a < b} `r` (500 rows): 124,750 result rows from
/// 1,000,000 pairs, most of them from every left chunk.
#[test]
fn nested_loop_emissions_are_bounded_by_the_batch_size_or_the_right_side() {
    let mut c = Catalog::new();
    let ints = |n: i64| (0..n).map(|i| vec![i]).collect::<Vec<_>>();
    c.register("l", Relation::from_rows(["a"], ints(2_000)).unwrap());
    c.register("r", Relation::from_rows(["b"], ints(500)).unwrap());
    let logical = PlanBuilder::scan("l")
        .theta_join(
            PlanBuilder::scan("r"),
            div_algebra::Predicate::cmp_attrs("a", CompareOp::Lt, "b"),
        )
        .build();
    let expected = evaluate(&logical, &c).unwrap();
    let config = PlannerConfig::default();
    let bound = config.batch_size.max(500);
    let mut stream = StreamExecutor::new(&logical, &c, &config).unwrap();
    let mut got = Relation::empty(stream.schema().clone());
    while let Some(batch) = stream.next_batch().unwrap() {
        assert!(
            batch.num_rows() <= bound,
            "a {}-row batch outgrew max(batch_size, |r|) = {bound}",
            batch.num_rows()
        );
        for i in 0..batch.num_rows() {
            got.insert(batch.row(i)).unwrap();
        }
    }
    assert_eq!(got, expected);
    assert_eq!(stream.finish().probes, 2_000 * 500);

    // Bounded emissions keep the footprint far below the result: a budget
    // of 5,000 rows holds without spilling.
    let budgeted = config.memory_budget_rows(5_000);
    let mut stream = StreamExecutor::new(&logical, &c, &budgeted).unwrap();
    let mut rows = 0;
    while let Some(batch) = stream.next_batch().unwrap() {
        rows += batch.num_rows();
    }
    let stats = stream.finish();
    assert_eq!(rows, expected.len());
    assert!(stats.peak_resident_rows <= 5_000);
    assert_eq!(stats.resident_rows_on_finish, 0);
}

fn drain_to_error(stream: &mut StreamExecutor) -> ExprError {
    loop {
        match stream.next_batch() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("stream finished without tripping the guard"),
            Err(err) => return err,
        }
    }
}

#[test]
fn cancellation_aborts_mid_drain_and_residency_drains_to_zero() {
    let (c, logical) = runaway_product();
    let config = PlannerConfig::default().batch_size(64);
    let token = CancelToken::new();
    let guard = QueryGuard::default().with_token(token.clone());
    let mut stream = StreamExecutor::with_guard(&logical, &c, &config, guard).unwrap();
    assert!(stream.next_batch().unwrap().is_some(), "runs until tripped");
    token.cancel();
    let err = drain_to_error(&mut stream);
    assert!(matches!(err, ExprError::Cancelled { .. }), "got {err}");
    // Fused after the error, and teardown releases every resident row.
    assert!(stream.next_batch().unwrap().is_none());
    let stats = stream.finish();
    assert_eq!(stats.resident_rows_on_finish, 0);
}

#[test]
fn deadline_aborts_within_one_batch_boundary() {
    let (c, logical) = runaway_product();
    let config = PlannerConfig::default()
        .batch_size(64)
        .deadline(std::time::Duration::from_millis(50));
    let mut stream = StreamExecutor::new(&logical, &c, &config).unwrap();
    // The deadline was armed at construction. Let it lapse before pulling,
    // so the trip does not depend on how fast the host drains the product:
    // the very first batch boundary must observe it.
    std::thread::sleep(std::time::Duration::from_millis(60));
    let err = stream.next_batch().unwrap_err();
    assert!(
        matches!(err, ExprError::DeadlineExceeded { limit_ms: 50, .. }),
        "got {err}"
    );
    let stats = stream.finish();
    assert_eq!(stats.resident_rows_on_finish, 0);
}

#[test]
fn memory_budget_aborts_the_blocking_build_and_reports_the_operator() {
    let (c, logical) = runaway_product();
    // Budget below the drained input size: the product's buffered
    // inputs (2000 + 2000 rows) blow the 1000-row budget during build.
    let config = PlannerConfig::default()
        .batch_size(64)
        .memory_budget_rows(1_000);
    let mut stream = StreamExecutor::new(&logical, &c, &config).unwrap();
    let err = drain_to_error(&mut stream);
    match err {
        ExprError::MemoryBudget {
            operator,
            budget_rows,
            resident_rows,
        } => {
            assert_eq!(budget_rows, 1_000);
            assert!(resident_rows > 1_000);
            assert!(!operator.is_empty());
        }
        other => panic!("expected MemoryBudget, got {other}"),
    }
    let stats = stream.finish();
    assert_eq!(stats.resident_rows_on_finish, 0);
}

#[test]
fn governed_but_untripped_stream_matches_the_ungoverned_result() {
    let c = catalog();
    let logical = PlanBuilder::scan("supplies")
        .natural_join(PlanBuilder::scan("parts"))
        .build();
    let ungoverned = PlannerConfig::default().batch_size(2);
    let governed = ungoverned
        .deadline(std::time::Duration::from_secs(60))
        .memory_budget_rows(1_000_000);
    let mut base = StreamExecutor::new(&logical, &c, &ungoverned).unwrap();
    let expected = collect(&mut base);
    let mut stream = StreamExecutor::new(&logical, &c, &governed).unwrap();
    let got = collect(&mut stream);
    assert_eq!(got, expected);
    assert_eq!(stream.finish().resident_rows_on_finish, 0);
}

/// Route `chunks` chunks of `batch_size` rows (997 distinct keys in column
/// `k`, a running row number in `v`) through a fresh
/// [`spill::PartitionWriters`] under `budget` and return, per file, its row
/// and chunk counts, plus the nominal flush size: a full chunk, or — when
/// the budget cannot hold one per partition — an even share of what it can.
fn route_and_count(
    batch_size: usize,
    budget: usize,
    chunks: usize,
) -> (Vec<(usize, usize)>, usize) {
    let config = PlannerConfig::default()
        .batch_size(batch_size)
        .memory_budget_rows(budget)
        .spill_to_disk(true);
    let plan = PlanBuilder::scan("supplies").build();
    let mut ctx = StreamContext::new(&plan, &config, QueryGuard::from_config(&config));
    let schema = Schema::of(["k", "v"]);
    let mut manager = div_storage::SpillManager::new().unwrap();
    let fanout = spill::level0_fanout(&ctx);
    let input = spill::SpillInput {
        label: "test",
        schema: &schema,
        key_cols: &[0],
    };
    let mut writers =
        spill::PartitionWriters::first_pass(&mut manager, &mut ctx, input, false).unwrap();
    let mut routed = Vec::new();
    for c in 0..chunks {
        let rows: Vec<Vec<i64>> = (0..batch_size)
            .map(|r| {
                vec![
                    ((c * batch_size + r) % 997) as i64,
                    (c * batch_size + r) as i64,
                ]
            })
            .collect();
        routed.extend(rows.iter().map(|row| row[1]));
        let chunk = ColumnarBatch::from_relation(&Relation::from_rows(["k", "v"], rows).unwrap());
        assert!(writers.route(&mut ctx, chunk).unwrap().is_none());
        writers.relieve(&mut ctx).unwrap();
        assert!(
            ctx.resident_rows + spill::spill_margin(&ctx) <= budget,
            "write buffers hold {} rows under budget {budget}",
            ctx.resident_rows
        );
    }
    let handles = writers.finish(&mut ctx).unwrap();
    assert_eq!(handles.len(), fanout);
    assert_eq!(ctx.resident_rows, 0, "finish left buffered rows accounted");
    assert_eq!(ctx.stats.spill_rows_written, chunks * batch_size);
    let mut read_back = Vec::new();
    let mut files = Vec::new();
    for handle in &handles {
        let reader = handle.open().unwrap();
        assert_eq!(reader.row_count(), handle.rows());
        files.push((handle.rows(), reader.chunk_count()));
        let mut cursor = reader.scan(None).unwrap();
        while let Some(chunk) = cursor.next_chunk().unwrap() {
            assert!(
                chunk.num_rows() <= batch_size,
                "a spill chunk outgrew the batch size"
            );
            let (values, _) = chunk.column(1).as_int_slice().unwrap();
            read_back.extend_from_slice(values);
        }
    }
    read_back.sort_unstable();
    assert_eq!(
        read_back, routed,
        "rows lost or invented on the way to disk"
    );
    let flush_rows = batch_size.min(spill::spillable_rows(&ctx) / fanout);
    (files, flush_rows)
}

#[test]
fn partition_writers_coalesce_routed_rows_into_full_chunks() {
    // Room for a full chunk per partition: 18 files, 64-row chunks.
    let (files, flush_rows) = route_and_count(64, 64 * 20, 64);
    assert_eq!((files.len(), flush_rows), (18, 64));
    // A budget that cannot hold four full chunks: the buffers shrink (the
    // largest is written whenever the footprint nears the budget), the
    // fan-out stays at its floor.
    let (tight, tight_flush) = route_and_count(64, 300, 64);
    assert_eq!((tight.len(), tight_flush), (4, 43));
    for (files, flush_rows) in [(files, flush_rows), (tight, tight_flush)] {
        for (rows, chunk_count) in files {
            assert!(rows > 0, "997 keys leave no partition empty");
            assert!(
                chunk_count <= rows.div_ceil(flush_rows) + 1,
                "{rows} rows in {chunk_count} chunks (flush size {flush_rows})"
            );
        }
    }
}
