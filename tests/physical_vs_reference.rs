//! Property tests: every member of the paper's division algorithm family —
//! the native divides, the basic-operator simulations and counting division
//! as plans, merge-sort division as a row function — agrees with the
//! reference set semantics of `div-algebra` on random inputs, and the
//! streaming executor at several batch sizes returns relations
//! byte-identical to the row-at-a-time reference evaluator
//! (`div_expr::evaluate`), with consistent `ExecStats` row accounting, on
//! every plan shape tested here.

use div_columnar::ColumnarBatch;
use div_physical::{merge, ExecStats, PhysicalPlan};
use division::prelude::*;
use proptest::prelude::*;

/// Drain a [`StreamExecutor`] over `physical` at `batch_size` into a relation.
fn drain_stream(
    physical: &PhysicalPlan,
    catalog: &Catalog,
    batch_size: usize,
) -> (Relation, ExecStats) {
    let config = PlannerConfig::with_batch_size(batch_size);
    let mut stream = StreamExecutor::new(physical, catalog, &config).unwrap();
    let mut out = Relation::empty(stream.schema().clone());
    while let Some(batch) = stream.next_batch().unwrap() {
        for row in 0..batch.num_rows() {
            out.insert(batch.row(row)).unwrap();
        }
    }
    (out, stream.finish())
}

fn ab_pairs(max_rows: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..8i64, 0..6i64), 0..max_rows)
}

fn rel_ab(pairs: &[(i64, i64)]) -> Relation {
    Relation::from_rows(["a", "b"], pairs.iter().map(|(a, b)| vec![*a, *b])).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every plan of the division family, small and great, returns the
    /// reference quotient on the streaming executor at batch sizes 1, 3 and
    /// 1024, for the drawn divisors and for empty ones.
    #[test]
    fn division_family_plans_match_reference(
        dividend in ab_pairs(40),
        divisor in prop::collection::vec(0..6i64, 0..6),
        groups in prop::collection::vec((0..6i64, 0..4i64), 0..12),
    ) {
        let dividend = rel_ab(&dividend);
        let small = Relation::from_rows(["b"], divisor.iter().map(|b| vec![*b])).unwrap();
        let great =
            Relation::from_rows(["b", "c"], groups.iter().map(|(b, c)| vec![*b, *c])).unwrap();
        for (small, great) in [
            (small, great),
            (Relation::empty(Schema::of(["b"])), Relation::empty(Schema::of(["b", "c"]))),
        ] {
            let expected_small = dividend.divide(&small).unwrap();
            let expected_great = dividend.great_divide(&great).unwrap();
            let mut catalog = Catalog::new();
            catalog.register("r1", dividend.clone());
            catalog.register("small", small);
            catalog.register("great", great);
            for (name, plan) in division_family_plans(&catalog) {
                let expected = if name.starts_with("great") {
                    &expected_great
                } else {
                    &expected_small
                };
                prop_assert_eq!(&evaluate(&plan, &catalog).unwrap(), expected, "{}", name);
                assert_backends_agree(&plan, &catalog);
            }
        }
    }

    /// Sort-merge division, small and great, returns the reference quotient.
    #[test]
    fn merge_division_matches_reference(
        dividend in ab_pairs(40),
        divisor in prop::collection::vec(0..6i64, 0..6),
        groups in prop::collection::vec((0..6i64, 0..4i64), 0..12),
    ) {
        let dividend = rel_ab(&dividend);
        let small = Relation::from_rows(["b"], divisor.iter().map(|b| vec![*b])).unwrap();
        let great =
            Relation::from_rows(["b", "c"], groups.iter().map(|(b, c)| vec![*b, *c])).unwrap();
        prop_assert_eq!(
            merge::divide(&dividend, &small).unwrap(),
            dividend.divide(&small).unwrap()
        );
        prop_assert_eq!(
            merge::great_divide(&dividend, &great).unwrap(),
            dividend.great_divide(&great).unwrap()
        );
    }

    /// Whole physical plans (planner + streaming executor) match the logical
    /// reference evaluator for the Q2 and great-divide query shapes.
    #[test]
    fn physical_plans_match_logical_evaluation(
        supplies in ab_pairs(40),
        wanted in prop::collection::vec(0..6i64, 0..6),
        groups in prop::collection::vec((0..6i64, 0..4i64), 0..12),
    ) {
        let mut catalog = Catalog::new();
        catalog.register(
            "supplies",
            Relation::from_rows(["s#", "p#"], supplies.iter().map(|(s, p)| vec![*s, *p])).unwrap(),
        );
        catalog.register(
            "wanted",
            Relation::from_rows(["p#"], wanted.iter().map(|p| vec![*p])).unwrap(),
        );
        catalog.register(
            "grouped",
            Relation::from_rows(["p#", "c"], groups.iter().map(|(b, c)| vec![*b, *c])).unwrap(),
        );
        let small = PlanBuilder::scan("supplies")
            .divide(PlanBuilder::scan("wanted"))
            .build();
        let expected = evaluate(&small, &catalog).unwrap();
        prop_assert_eq!(&run_plan(&small, &catalog), &expected);

        let great = PlanBuilder::scan("supplies")
            .great_divide(PlanBuilder::scan("grouped"))
            .build();
        let expected = evaluate(&great, &catalog).unwrap();
        prop_assert_eq!(&run_plan(&great, &catalog), &expected);
    }

    /// `Relation -> ColumnarBatch -> Relation` round-trips losslessly on
    /// random relations.
    #[test]
    fn columnar_roundtrip_is_lossless(rows in ab_pairs(40)) {
        let relation = rel_ab(&rows);
        let batch = ColumnarBatch::from_relation(&relation);
        prop_assert_eq!(batch.num_rows(), relation.len());
        prop_assert_eq!(batch.to_relation().unwrap(), relation);
    }

    /// The streaming columnar executor returns the row-at-a-time reference
    /// evaluator's relation (and reports cardinalities consistent with it)
    /// on every plan shape this file exercises, over random catalogs.
    #[test]
    fn columnar_backend_matches_row_backend(
        supplies in ab_pairs(40),
        wanted in prop::collection::vec(0..6i64, 0..6),
        groups in prop::collection::vec((0..6i64, 0..4i64), 0..12),
    ) {
        let mut catalog = Catalog::new();
        catalog.register(
            "supplies",
            Relation::from_rows(["s#", "p#"], supplies.iter().map(|(s, p)| vec![*s, *p])).unwrap(),
        );
        catalog.register(
            "wanted",
            Relation::from_rows(["p#"], wanted.iter().map(|p| vec![*p])).unwrap(),
        );
        catalog.register(
            "grouped",
            Relation::from_rows(["p#", "c"], groups.iter().map(|(b, c)| vec![*b, *c])).unwrap(),
        );
        for logical in differential_logical_plans() {
            assert_backends_agree(&logical, &catalog);
        }
    }
}

/// The division algorithm family as plans over `r1(a, b)` and the divisors
/// `small(b)` and `great(b, c)`: the native divides (hash-division on the
/// streaming executor), the two basic-operator simulations and the two
/// counting formulations. Great-divide plans are named `great…`.
fn division_family_plans(catalog: &Catalog) -> Vec<(&'static str, LogicalPlan)> {
    let r = || PlanBuilder::scan("r1");
    let small = || PlanBuilder::scan("small");
    let great = || PlanBuilder::scan("great");
    let k = catalog.row_count("small").unwrap();
    [
        ("native", r().divide(small())),
        ("difference", r().difference_plan(small(), &["a"], &["b"])),
        ("anti-join", r().anti_join_plan(small(), &["a"])),
        ("counting", r().counting_plan(small(), &["a"], &["b"], k)),
        ("great-native", r().great_divide(great())),
        (
            "great-counting",
            r().counting_grouped_plan(great(), &["a"], &["b"], &["c"]),
        ),
    ]
    .into_iter()
    .map(|(name, plan)| (name, plan.build()))
    .collect()
}

/// The plan shapes the executor-differential property sweeps: one per
/// vectorized operator family — the original seven, plus shapes centered on
/// intersection, difference, Cartesian product, theta-join and aggregation.
fn differential_logical_plans() -> Vec<LogicalPlan> {
    let q2 = PlanBuilder::scan("supplies")
        .divide(PlanBuilder::scan("wanted"))
        .build();
    let filtered_divide = PlanBuilder::scan("supplies")
        .select(Predicate::cmp_value("s#", CompareOp::Lt, 4))
        .divide(PlanBuilder::scan("wanted"))
        .project(["s#"])
        .build();
    let great = PlanBuilder::scan("supplies")
        .great_divide(PlanBuilder::scan("grouped"))
        .build();
    let join_project = PlanBuilder::scan("supplies")
        .natural_join(PlanBuilder::scan("wanted"))
        .project(["s#", "p#"])
        .build();
    let semi_union = PlanBuilder::scan("supplies")
        .semi_join(PlanBuilder::scan("wanted"))
        .union(PlanBuilder::scan("supplies").anti_semi_join(PlanBuilder::scan("wanted")))
        .build();
    let aggregate = PlanBuilder::scan("supplies")
        .group_aggregate(["s#"], [AggregateCall::count("p#", "n")])
        .project(["s#"])
        .build();
    let difference = PlanBuilder::scan("supplies")
        .rename([("p#", "x")])
        .difference(
            PlanBuilder::scan("supplies")
                .rename([("p#", "x")])
                .select(Predicate::cmp_value("x", CompareOp::GtEq, 3)),
        )
        .build();
    let intersect = PlanBuilder::scan("supplies")
        .intersect(PlanBuilder::scan("supplies").select(Predicate::cmp_value(
            "p#",
            CompareOp::Lt,
            3,
        )))
        .build();
    let product = PlanBuilder::scan("wanted")
        .rename([("p#", "x")])
        .product(PlanBuilder::scan("wanted").rename([("p#", "y")]))
        .build();
    let theta = PlanBuilder::scan("supplies")
        .theta_join(
            PlanBuilder::scan("wanted").rename([("p#", "w")]),
            Predicate::cmp_attrs("p#", CompareOp::LtEq, "w"),
        )
        .build();
    let sum_per_group = PlanBuilder::scan("supplies")
        .group_aggregate(
            ["s#"],
            [
                AggregateCall::count("p#", "n"),
                AggregateCall::sum("p#", "total"),
            ],
        )
        .build();
    vec![
        q2,
        filtered_divide,
        great,
        join_project,
        semi_union,
        aggregate,
        difference,
        intersect,
        product,
        theta,
        sum_per_group,
    ]
}

/// Rows of every `TableScan` / `Values` leaf of `plan`: what a full drain
/// scans when no zone map lets a scan skip a chunk.
fn leaf_rows(plan: &PhysicalPlan, catalog: &Catalog) -> usize {
    match plan {
        PhysicalPlan::TableScan { table } => catalog.row_count(table).unwrap(),
        PhysicalPlan::Values { relation } => relation.len(),
        _ => plan.children().iter().map(|c| leaf_rows(c, catalog)).sum(),
    }
}

/// Plan `logical` and drain it through the streaming executor.
fn run_plan(logical: &LogicalPlan, catalog: &Catalog) -> Relation {
    let physical = plan_query(logical, &PlannerConfig::default()).unwrap();
    drain_stream(&physical, catalog, PlannerConfig::DEFAULT_BATCH_SIZE).0
}

/// Evaluate `logical` with the reference evaluator, then run its physical
/// plan on a drained [`StreamExecutor`] at batch sizes that split, straddle
/// and exceed the inputs, and assert byte-identical relations and consistent
/// `ExecStats` row accounting: the output cardinality always, every leaf row
/// scanned whenever no zone map let a pushed-down filter skip a chunk, and
/// no resident row leaked.
fn assert_backends_agree(logical: &LogicalPlan, catalog: &Catalog) {
    let expected = evaluate(logical, catalog).unwrap();
    let physical = plan_query(logical, &PlannerConfig::default()).unwrap();
    for batch_size in [1usize, 3, 1024] {
        let name = format!("stream/b{batch_size}");
        let (result, stats) = drain_stream(&physical, catalog, batch_size);
        assert_eq!(result, expected, "{name} diverges on plan:\n{physical}");
        assert_eq!(
            stats.output_rows,
            expected.len(),
            "{name}: output_rows diverge on plan:\n{physical}"
        );
        if stats.chunks_skipped == 0 {
            assert_eq!(
                stats.rows_scanned,
                leaf_rows(&physical, catalog),
                "{name}: rows_scanned diverge on plan:\n{physical}"
            );
        }
        assert_eq!(
            stats.resident_rows_on_finish, 0,
            "{name}: resident rows leaked on plan:\n{physical}"
        );
    }
}

#[test]
fn cursor_streams_byte_identically_to_the_row_backend_on_every_shape() {
    // The streaming-API differential: for all eleven differential plan
    // shapes, across chunk geometries (batch sizes that divide, straddle
    // and exceed the inputs), the relation collected from an `Engine`
    // `Cursor` must be byte-identical to the reference evaluator's, with
    // matching `output_rows`.
    let mut catalog = Catalog::new();
    catalog.register(
        "supplies",
        relation! { ["s#", "p#"] => [1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [3, 2], [4, 1], [4, 3] },
    );
    catalog.register("wanted", relation! { ["p#"] => [1], [2] });
    catalog.register(
        "grouped",
        relation! { ["p#", "c"] => [1, 1], [2, 1], [1, 2], [3, 2], [2, 3] },
    );

    for (shape_idx, logical) in differential_logical_plans().into_iter().enumerate() {
        let physical = plan_query(&logical, &PlannerConfig::default()).unwrap();
        let expected = evaluate(&logical, &catalog).unwrap();
        for batch_size in [1usize, 3, 4096] {
            let engine = Engine::builder(catalog.clone())
                .planner_config(PlannerConfig::with_batch_size(batch_size))
                .without_optimizer() // differential: compare the raw plan
                .build();
            let cursor = engine.stream_logical(&logical).unwrap();
            let output = cursor.collect().unwrap();
            assert_eq!(
                output.relation, expected,
                "shape #{shape_idx} diverges at batch_size {batch_size}:\n{logical}"
            );
            assert_eq!(
                output.stats.output_rows,
                expected.len(),
                "shape #{shape_idx}: output_rows diverge at batch_size {batch_size}"
            );
            assert_eq!(
                output.stats.rows_scanned,
                leaf_rows(&physical, &catalog),
                "shape #{shape_idx}: fully drained cursors scan everything exactly once"
            );
        }
    }
}

#[test]
fn cursor_take_one_short_circuits_the_source_scan() {
    // The early-termination acceptance criterion: `cursor.take(1)` must
    // leave the scan's row counter strictly below the table cardinality.
    let table_rows = 50_000usize;
    let mut catalog = Catalog::new();
    let rows: Vec<Vec<i64>> = (0..table_rows as i64).map(|i| vec![i, i % 11]).collect();
    catalog.register("big", Relation::from_rows(["a", "b"], rows).unwrap());
    let engine = Engine::builder(catalog)
        .planner_config(PlannerConfig::default().batch_size(512))
        .build();
    let mut cursor = engine.query("SELECT a, b FROM big WHERE b < 10").unwrap();
    let first: Vec<_> = cursor.by_ref().take(1).collect();
    assert_eq!(first.len(), 1);
    assert!(first[0].as_ref().unwrap().num_rows() > 0);
    let stats = cursor.finish_stats();
    assert!(
        stats.rows_scanned < table_rows,
        "take(1) scanned {} of {} rows — the scan did not short-circuit",
        stats.rows_scanned,
        table_rows
    );
    // With batch_size 512 and a ~10/11 selective filter, one batch suffices.
    assert_eq!(stats.rows_scanned, 512);
}

#[test]
fn engine_optimizer_matches_raw_plans_on_every_shape_and_strategy() {
    // The optimizer-in-the-loop differential: for all eleven differential
    // plan shapes, `Engine::execute_logical` (rewrite optimizer ON, the
    // default; streaming executor) must return byte-identical relations to
    // the reference evaluator over the raw plan, at a batch size that splits
    // the inputs and one that exceeds them.
    let mut catalog = Catalog::new();
    catalog.register(
        "supplies",
        relation! { ["s#", "p#"] => [1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [3, 2], [4, 1], [4, 3] },
    );
    catalog.register("wanted", relation! { ["p#"] => [1], [2] });
    catalog.register(
        "grouped",
        relation! { ["p#", "c"] => [1, 1], [2, 1], [1, 2], [3, 2], [2, 3] },
    );

    for (shape_idx, logical) in differential_logical_plans().into_iter().enumerate() {
        let raw_relation = evaluate(&logical, &catalog).unwrap();
        for batch_size in [3usize, 1024] {
            let config = PlannerConfig::with_batch_size(batch_size);
            let optimizing = Engine::builder(catalog.clone())
                .planner_config(config)
                .build();
            assert!(
                optimizing.optimizer_enabled(),
                "optimizer must be the default"
            );
            let optimized_out = optimizing.execute_logical(&logical).unwrap();
            assert_eq!(
                optimized_out.relation, raw_relation,
                "shape #{shape_idx} diverges at batch_size {batch_size}:\n{logical}"
            );
            assert_eq!(
                optimized_out.stats.output_rows,
                raw_relation.len(),
                "shape #{shape_idx}: output_rows diverge at batch_size {batch_size}"
            );
        }
    }
}

#[test]
fn simulation_intermediates_grow_quadratically_but_special_purpose_do_not() {
    // The paper's core performance argument (Sections 1 and 6): the
    // basic-operator simulation materializes |π_A(r1)| · |r2| tuples
    // (quadratic in the scale factor when both inputs grow), while the
    // special-purpose hash-division produces nothing beyond the quotient
    // itself. Both run as plans on the streaming executor.
    for scale in [20i64, 40, 80] {
        let (dividend, divisor) = div_bench_workload(scale, scale / 2);
        let divisor_rows = divisor.len();
        let mut catalog = Catalog::new();
        catalog.register("r1", dividend);
        catalog.register("r2", divisor);
        let drain = |plan: LogicalPlan| {
            let physical = plan_query(&plan, &PlannerConfig::default()).unwrap();
            drain_stream(&physical, &catalog, PlannerConfig::DEFAULT_BATCH_SIZE)
        };
        let (simulated, sim) = drain(
            PlanBuilder::scan("r1")
                .difference_plan(PlanBuilder::scan("r2"), &["a"], &["b"])
                .build(),
        );
        let (native, hash) = drain(
            PlanBuilder::scan("r1")
                .divide(PlanBuilder::scan("r2"))
                .build(),
        );
        assert_eq!(simulated, native);
        // Exactly the quadratic product π_A(r1) × r2 ...
        assert_eq!(sim.max_intermediate, (scale as usize) * divisor_rows);
        // ... which dwarfs what the special-purpose operator materializes.
        assert!(
            sim.max_intermediate >= 10 * hash.max_intermediate.max(1),
            "scale {scale}: simulation {} vs hash-division {}",
            sim.max_intermediate,
            hash.max_intermediate
        );
    }
}

#[test]
fn columnar_roundtrip_covers_every_value_kind() {
    // Strings (dictionary-encoded), NULLs (validity masks), booleans, and
    // set values (the Mixed fallback) all survive the round trip exactly.
    let relation = Relation::new(
        Schema::of(["id", "color", "flag", "tags"]),
        [
            Tuple::new([
                Value::Int(1),
                Value::str("blue"),
                Value::Bool(true),
                Value::set([1, 2]),
            ]),
            Tuple::new([
                Value::Int(2),
                Value::str("red"),
                Value::Null,
                Value::set([3]),
            ]),
            Tuple::new([
                Value::Null,
                Value::str("blue"),
                Value::Bool(false),
                Value::Null,
            ]),
        ],
    )
    .unwrap();
    let batch = ColumnarBatch::from_relation(&relation);
    assert_eq!(batch.to_relation().unwrap(), relation);
}

#[test]
fn backends_agree_on_the_suppliers_parts_generator() {
    // The generated workload the benches sweep: Q2 with a string filter.
    let catalog = div_bench::suppliers_parts_catalog(120, 30, 0.5);
    let logical = PlanBuilder::scan("supplies")
        .divide(
            PlanBuilder::scan("parts")
                .select(Predicate::eq_value("color", "blue"))
                .project(["p#"]),
        )
        .build();
    assert_backends_agree(&logical, &catalog);
}

#[test]
fn all_strategies_agree_on_skewed_zipf_baskets() {
    // Skewed market baskets from `div-datagen` (Zipf item popularity,
    // s = 1.3): a handful of hot items dominate the dividend, so a few
    // quotient groups (Law 2's partitioning attribute) and divisor groups
    // (Law 13's) hold most of the rows — the adversarial case for the
    // group-id coverage state. The streaming executor must still return the
    // reference evaluator's bytes, with consistent row accounting.
    use division::datagen::baskets::{self, candidates_relation};
    use division::datagen::BasketConfig;

    let data = baskets::generate(&BasketConfig {
        transactions: 300,
        items: 40,
        avg_length: 6,
        skew: 1.3,
        planted_probability: 0.35,
        seed: 20_260_728,
        ..BasketConfig::default()
    });
    let mut catalog = Catalog::new();
    catalog.register("transactions", data.transactions);
    catalog.register("candidates", candidates_relation(&data.planted));

    // Law 13 workload: transactions ÷* candidates (which transactions
    // contain which candidate itemsets).
    let law13 = PlanBuilder::scan("transactions")
        .great_divide(PlanBuilder::scan("candidates"))
        .build();
    // Law 2 workload: transactions ÷ (one candidate itemset), quotient
    // attribute `tid`.
    let law2 = PlanBuilder::scan("transactions")
        .divide(
            PlanBuilder::scan("candidates")
                .select(Predicate::eq_value("itemset", 0))
                .project(["item"]),
        )
        .build();
    for logical in [law13, law2] {
        assert_backends_agree(&logical, &catalog);
    }
}

/// Local copy of the bench workload shape (kept independent of the bench
/// crate so the test exercises the public API only).
fn div_bench_workload(groups: i64, items: i64) -> (Relation, Relation) {
    let mut dividend_rows = Vec::new();
    for g in 0..groups {
        for i in 0..items {
            if g % 3 == 0 || i % 2 == 0 {
                dividend_rows.push(vec![g, i]);
            }
        }
    }
    let divisor_rows: Vec<Vec<i64>> = (0..items).map(|i| vec![i]).collect();
    (
        Relation::from_rows(["a", "b"], dividend_rows).unwrap(),
        Relation::from_rows(["b"], divisor_rows).unwrap(),
    )
}

#[test]
fn sum_overflow_is_a_typed_error_on_every_path() {
    use div_algebra::AlgebraError;
    use div_expr::ExprError;
    let over = relation! { ["g", "v"] => [1, i64::MAX], [1, 1], [2, 5] };
    let sum = [AggregateCall::sum("v", "total")];
    let is_overflow = |err: &AlgebraError| matches!(err, AlgebraError::InvalidAggregate { .. });

    let reference = over.group_aggregate(&["g"], &sum).unwrap_err();
    assert!(is_overflow(&reference), "reference: {reference}");

    let kernel =
        div_columnar::kernels::hash_aggregate(&ColumnarBatch::from_relation(&over), &["g"], &sum)
            .unwrap_err();
    assert!(is_overflow(&kernel), "hash_aggregate: {kernel}");

    let mut catalog = Catalog::new();
    catalog.register("over", over);
    let logical = PlanBuilder::scan("over")
        .group_aggregate(["g"], sum.clone())
        .build();
    for batch_size in [1, 1024] {
        let engine = Engine::builder(catalog.clone())
            .planner_config(PlannerConfig::with_batch_size(batch_size))
            .build();
        let err = engine
            .stream_logical(&logical)
            .unwrap()
            .collect()
            .unwrap_err();
        assert!(
            matches!(&err, SqlError::Plan(ExprError::Algebra(inner)) if is_overflow(inner)),
            "stream_logical at batch {batch_size}: {err}"
        );
    }
}
