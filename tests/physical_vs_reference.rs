//! Property tests: every member of the paper's division algorithm family —
//! the native divides, the basic-operator simulations and counting division
//! as plans, merge-sort division as a row function — agrees with the
//! reference set semantics of `div-algebra` on random inputs, and every plan
//! tested here — the division family and every shape of the oracle's
//! catalogue (`div_conformance::oracle::shapes`), over its fixed catalog and
//! over random ones — runs down the differential oracle's execution matrix
//! (`div_conformance::oracle::STRATEGIES`: the `Engine` with the optimizer
//! on and off at batch sizes 1024 and 3, a spilling budget, attached
//! `.divcol` tables, the reference evaluator over the optimized plan),
//! returning relations byte-identical to the row-at-a-time reference
//! evaluator (`div_expr::evaluate`) with the oracle's `ExecStats` checks.

use div_columnar::ColumnarBatch;
use div_conformance::oracle::{
    check_plan, check_stats, leaf_rows, shape_catalog, shapes, Catalogs,
};
use div_physical::merge;
use division::prelude::*;
use proptest::prelude::*;

/// Run `plan` down the oracle's whole execution matrix; panic on a mismatch.
fn check(plan: &LogicalPlan, catalogs: &Catalogs) {
    check_plan(catalogs, plan).unwrap_or_else(|e| panic!("{e}"));
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
    /// reference quotient under every strategy of the oracle, for the drawn
    /// divisors and for empty ones.
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
            let catalogs = Catalogs::new(&catalog).unwrap();
            for (name, plan) in division_family_plans(&catalog) {
                let expected = if name.starts_with("great") {
                    &expected_great
                } else {
                    &expected_small
                };
                prop_assert_eq!(&evaluate(&plan, &catalog).unwrap(), expected, "{}", name);
                check(&plan, &catalogs);
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

    /// `Relation -> ColumnarBatch -> Relation` round-trips losslessly on
    /// random relations.
    #[test]
    fn columnar_roundtrip_is_lossless(rows in ab_pairs(40)) {
        let relation = rel_ab(&rows);
        let batch = ColumnarBatch::from_relation(&relation);
        prop_assert_eq!(batch.num_rows(), relation.len());
        prop_assert_eq!(batch.to_relation().unwrap(), relation);
    }

    /// Every shape of the catalogue returns the row-at-a-time reference
    /// evaluator's relation under every strategy of the oracle, over random
    /// catalogs.
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
        let catalogs = Catalogs::new(&catalog).unwrap();
        for (name, logical) in shapes() {
            check_plan(&catalogs, &logical).unwrap_or_else(|e| panic!("{name}: {e}"));
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
fn cursor_streams_byte_identically_to_the_row_backend_on_every_shape() {
    // The streaming-API differential: for every shape of the catalogue,
    // across chunk geometries (batch sizes that divide, straddle and exceed
    // the inputs, including the one-row batch the oracle's matrix lacks),
    // the relation collected from an `Engine` `Cursor` must be
    // byte-identical to the reference evaluator's, with the oracle's
    // `ExecStats` / span-tree checks, and a fully drained cursor scans every
    // leaf row once.
    let catalog = shape_catalog();
    for (name, logical) in shapes() {
        let expected = evaluate(&logical, &catalog).unwrap();
        for batch_size in [1usize, 3, 4096] {
            let engine = Engine::builder(catalog.clone())
                .planner_config(PlannerConfig::with_batch_size(batch_size))
                .without_optimizer() // differential: compare the raw plan
                .build();
            let output = engine
                .run(Request::plan(&logical))
                .unwrap()
                .collect()
                .unwrap();
            assert_eq!(
                output.relation, expected,
                "{name} diverges at batch_size {batch_size}:\n{logical}"
            );
            check_stats(&output.stats, &output.relation, Some(&logical))
                .unwrap_or_else(|e| panic!("{name} at batch_size {batch_size}: {e}"));
            assert_eq!(
                output.stats.rows_scanned,
                leaf_rows(&logical, &catalog).unwrap(),
                "{name}: fully drained cursors scan everything exactly once"
            );
        }
    }
}

#[test]
fn the_shape_catalogue_reaches_every_operator_label() {
    // The sixteen labels `trace::tests::operator_labels_are_pinned_per_variant`
    // pins, one per plan variant, by the name before their arguments.
    let mut kinds = std::collections::BTreeSet::new();
    for (_, plan) in shapes() {
        plan.visit(&mut |node| {
            let label = operator_label(node);
            kinds.insert(label[..label.find(['(', '[']).unwrap_or(label.len())].to_string());
        });
    }
    let pinned = "CrossProduct Difference Divide Filter GreatDivide HashAggregate \
                  HashAntiSemiJoin HashJoin HashSemiJoin Intersect NestedLoopJoin Project \
                  Rename TableScan Union Values";
    assert!(kinds.iter().eq(pinned.split(' ')), "{kinds:?}");
}

#[test]
fn engine_optimizer_matches_raw_plans_on_every_shape_and_strategy() {
    // Every shape of the catalogue down the oracle's matrix: the `Engine`
    // with the optimizer on and off, at batch sizes that split and exceed
    // the inputs, spilling and over attached tables, and the reference
    // evaluator over the optimized plan, each against the reference
    // evaluator over the raw plan.
    let catalogs = Catalogs::new(&shape_catalog()).unwrap();
    for (name, logical) in shapes() {
        check_plan(&catalogs, &logical).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn simulation_intermediates_grow_quadratically_but_special_purpose_do_not() {
    // The paper's core performance argument (Sections 1 and 6), through the
    // engine: the basic-operator simulation materializes |π_A(r1)| · |r2|
    // tuples (quadratic in the scale factor when both inputs grow), while
    // hash-division builds nothing beyond the quotient itself.
    // `tests/complexity.rs` pins the growth exponents.
    for scale in [20i64, 40, 80] {
        let (dividend, divisor) = div_datagen::division_workload(scale, scale / 2, 3);
        let divisor_rows = divisor.len();
        let mut catalog = Catalog::new();
        catalog.register("r1", dividend).register("r2", divisor);
        let engine = Engine::builder(catalog).without_optimizer().build();
        let drain = |plan: PlanBuilder| {
            let output = engine
                .run(Request::plan(&plan.build()))
                .unwrap()
                .collect()
                .unwrap();
            (output.relation, output.stats)
        };
        let (r1, r2) = (|| PlanBuilder::scan("r1"), || PlanBuilder::scan("r2"));
        let (simulated, sim) = drain(r1().difference_plan(r2(), &["a"], &["b"]));
        let (native, hash) = drain(r1().divide(r2()));
        assert_eq!(simulated, native);
        // Exactly the quadratic product π_A(r1) × r2, which dwarfs what the
        // special-purpose operator materializes.
        assert_eq!(sim.max_intermediate, (scale as usize) * divisor_rows);
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
    let catalog = div_datagen::suppliers_parts_catalog(120, 30, 0.5);
    let logical = PlanBuilder::scan("supplies")
        .divide(
            PlanBuilder::scan("parts")
                .select(Predicate::eq_value("color", "blue"))
                .project(["p#"]),
        )
        .build();
    check(&logical, &Catalogs::new(&catalog).unwrap());
}

#[test]
fn all_strategies_agree_on_skewed_zipf_baskets() {
    // Skewed market baskets from `div-datagen` (Zipf item popularity,
    // s = 1.3): a handful of hot items dominate the dividend, so a few
    // quotient groups (Law 2's partitioning attribute) and divisor groups
    // (Law 13's) hold most of the rows — the adversarial case for the
    // group-id coverage state. Every strategy must still return the
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
    let catalogs = Catalogs::new(&catalog).unwrap();
    for logical in [law13, law2] {
        check(&logical, &catalogs);
    }
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
            .run(Request::plan(&logical))
            .unwrap()
            .collect()
            .unwrap_err();
        assert!(
            matches!(&err, SqlError::Plan(ExprError::Algebra(inner)) if is_overflow(inner)),
            "plan run at batch {batch_size}: {err}"
        );
    }
}

/// What one path made of a plan: its output schema, or its error.
type Outcome = Result<Schema, div_expr::ExprError>;

fn stream_outcome(plan: &LogicalPlan, catalog: &Catalog) -> Outcome {
    let mut stream = StreamExecutor::new(plan, catalog, &PlannerConfig::default())?;
    while stream.next_batch()?.is_some() {}
    Ok(stream.schema().clone())
}

fn engine_outcome(plan: &LogicalPlan, catalog: &Catalog) -> Outcome {
    let engine = Engine::new(catalog.clone());
    let run = || -> Result<Schema, SqlError> {
        let cursor = engine.run(Request::plan(plan))?;
        let schema = cursor.schema().clone();
        cursor.collect()?;
        Ok(schema)
    };
    run().map_err(|err| match err {
        SqlError::Plan(err) => err,
        other => panic!("engine: not a plan error: {other}"),
    })
}

#[test]
fn invalid_plans_are_refused_on_every_path() {
    use div_expr::infer_schema;
    let scan = PlanBuilder::scan;
    let no_attributes: [&str; 0] = [];
    // One valid plan per `LogicalPlan` variant.
    let valid: Vec<(&str, PlanBuilder)> = vec![
        ("scan", scan("r")),
        ("values", PlanBuilder::values(relation! { ["x"] => [1] })),
        ("select", scan("r").select(Predicate::eq_value("a", 1))),
        ("project", scan("r").project(["b"])),
        ("rename", scan("r").rename([("a", "x")])),
        ("union", scan("r").union(scan("r"))),
        ("intersect", scan("r").intersect(scan("r"))),
        ("difference", scan("r").difference(scan("r"))),
        ("product", scan("r").product(scan("p"))),
        (
            "theta join",
            scan("r").theta_join(scan("p"), Predicate::cmp_attrs("a", CompareOp::Lt, "c")),
        ),
        ("natural join", scan("r").natural_join(scan("q"))),
        ("semi join", scan("r").semi_join(scan("q"))),
        ("anti semi join", scan("r").anti_semi_join(scan("q"))),
        ("small divide", scan("r").divide(scan("s"))),
        ("great divide", scan("r").great_divide(scan("q"))),
        (
            "aggregate",
            scan("r").group_aggregate(["a"], [AggregateCall::count("b", "n")]),
        ),
    ];
    // At least one invalid plan per variant that can be invalid (a
    // `Values` node cannot): every schema precondition, and an invalid
    // input under each operator that has no precondition of its own.
    let invalid: Vec<(&str, PlanBuilder)> = vec![
        ("unknown table", scan("nope")),
        ("rename source", scan("r").rename([("zz", "q")])),
        ("rename target", scan("r").rename([("a", "b")])),
        (
            "selection attribute",
            scan("r").select(Predicate::eq_value("zz", 1)),
        ),
        ("projection attribute", scan("r").project(["zz"])),
        (
            "theta-join attribute",
            scan("r").theta_join(scan("p"), Predicate::eq_value("zz", 1)),
        ),
        (
            "theta-join shared name",
            scan("r").theta_join(scan("q"), Predicate::cmp_attrs("a", CompareOp::Lt, "c")),
        ),
        (
            "group-by attribute",
            scan("r").group_aggregate(["zz"], [AggregateCall::count("b", "n")]),
        ),
        (
            "aggregate input",
            scan("r").group_aggregate(["a"], [AggregateCall::sum("zz", "n")]),
        ),
        (
            "aggregate output",
            scan("r").group_aggregate(["a"], [AggregateCall::count("b", "a")]),
        ),
        ("union-incompatible", scan("r").union(scan("q"))),
        ("intersect-incompatible", scan("r").intersect(scan("q"))),
        ("difference-incompatible", scan("r").difference(scan("q"))),
        ("product shared name", scan("r").product(scan("q"))),
        (
            "join over an invalid input",
            scan("r").natural_join(scan("q").select(Predicate::eq_value("zz", 1))),
        ),
        (
            "semi join over an invalid input",
            scan("r").semi_join(scan("q").project(["zz"])),
        ),
        (
            "anti join over an invalid input",
            scan("r").anti_semi_join(scan("q").rename([("zz", "y")])),
        ),
        (
            "small divide: B empty",
            scan("r").divide(scan("s").project(no_attributes)),
        ),
        (
            "small divide: B outside the dividend",
            scan("r").divide(scan("q")),
        ),
        (
            "small divide: A empty",
            scan("r").project(["b"]).divide(scan("s")),
        ),
        ("great divide: B empty", scan("r").great_divide(scan("p"))),
        (
            "great divide: A empty",
            scan("r").project(["b"]).great_divide(scan("q")),
        ),
    ];
    let full = [
        ("r", relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1] }),
        ("s", relation! { ["b"] => [1], [2] }),
        ("q", relation! { ["b", "c"] => [1, 7], [2, 7], [1, 8] }),
        ("p", relation! { ["c", "d"] => [7, 0], [8, 1] }),
    ];
    let mut mismatches = Vec::new();
    for empty in [true, false] {
        let mut catalog = Catalog::new();
        for (name, rows) in &full {
            let rows = if empty {
                Relation::empty(rows.schema().clone())
            } else {
                rows.clone()
            };
            catalog.register(*name, rows);
        }
        let valid_cases = valid.iter().map(|case| (case, true));
        let cases = valid_cases.chain(invalid.iter().map(|case| (case, false)));
        for ((label, plan), is_valid) in cases {
            let plan = plan.clone().build();
            let inferred = infer_schema(&plan, &catalog);
            let evaluated = evaluate(&plan, &catalog).map(|rel| rel.schema().clone());
            let streamed = stream_outcome(&plan, &catalog);
            let served = engine_outcome(&plan, &catalog);
            let case = format!(
                "{label} over the {} catalog: {plan}",
                ["full", "empty"][usize::from(empty)]
            );
            for (path, outcome) in [
                ("evaluate", evaluated),
                ("StreamExecutor", streamed),
                ("Engine::run", served),
            ] {
                if outcome != inferred {
                    mismatches.push(format!(
                        "{path} {outcome:?} vs infer_schema {inferred:?}, {case}"
                    ));
                }
            }
            if inferred.is_ok() != is_valid {
                mismatches.push(format!("infer_schema {inferred:?}, {case}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
