//! End-to-end tests of the rewrite engine and the cost-based optimizer on
//! generated workloads: every law in the default rule set fires somewhere,
//! rewrites always preserve semantics, and the cost model prefers the plans
//! the paper argues for.

use div_bench::suppliers_parts_catalog;
use div_rewrite::laws::examples::example3_derivation;
use div_rewrite::laws::small_divide_union::partition_dividend_for_law2;
use division::prelude::*;
use std::collections::BTreeSet;

fn figure_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "r1",
        relation! {
            ["a", "b"] =>
            [1, 1], [1, 4],
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
            [4, 1], [4, 3],
        },
    );
    c.register("r2", relation! { ["b"] => [1], [3] });
    c.register("r2_prime", relation! { ["b"] => [1] });
    c.register("r2_double", relation! { ["b"] => [3] });
    c.register(
        "r2_groups",
        relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] },
    );
    c.register("r2_groups_hi", relation! { ["b", "c"] => [1, 7], [3, 7] });
    c.register("r3", relation! { ["a"] => [2], [4] });
    c.register("outer", relation! { ["a1"] => [2], [3] });
    c.register("factor", relation! { ["d"] => [10], [20] });
    c.register(
        "r0_agg",
        relation! { ["a", "x"] => [1, 1], [1, 2], [2, 3], [3, 1] },
    );
    c.register("single_b", relation! { ["b"] => [4] });
    // Figure 8 relations (Law 9).
    c.register(
        "r_star8",
        relation! {
            ["a", "b1"] =>
            [1, 1], [1, 2], [1, 3],
            [2, 2], [2, 3],
            [3, 1], [3, 3], [3, 4],
        },
    );
    c.register("r_star_star8", relation! { ["b2"] => [1], [2] });
    c.register("r2_8", relation! { ["b1", "b2"] => [1, 2], [3, 1], [3, 2] });
    c
}

/// A collection of plans that together exercise every rule in the default set.
fn law_exercising_plans() -> Vec<LogicalPlan> {
    let divide = || PlanBuilder::scan("r1").divide(PlanBuilder::scan("r2"));
    vec![
        // Law 1 + Law 13: unions as divisors.
        PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2_prime").union(PlanBuilder::scan("r2_double")))
            .build(),
        PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2_groups").union(PlanBuilder::scan("r2_groups_hi")))
            .build(),
        // Law 2: partitioned dividend (range partitions satisfy c2).
        PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::LtEq, 2))
            .union(PlanBuilder::scan("r1").select(Predicate::cmp_value("a", CompareOp::Gt, 2)))
            .divide(PlanBuilder::scan("r2"))
            .build(),
        // Laws 3, 4, 14, 15, 16: selections around divisions.
        divide().select(Predicate::eq_value("a", 2)).build(),
        PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2").select(Predicate::cmp_value("b", CompareOp::Lt, 3)))
            .build(),
        PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2_groups"))
            .select(Predicate::eq_value("a", 2))
            .build(),
        PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2_groups"))
            .select(Predicate::eq_value("c", 2))
            .build(),
        PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2_groups").select(Predicate::cmp_value(
                "b",
                CompareOp::Lt,
                3,
            )))
            .build(),
        // Laws 5, 6, 7: set operations.
        PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::LtEq, 3))
            .intersect(PlanBuilder::scan("r1").select(Predicate::cmp_value(
                "b",
                CompareOp::LtEq,
                3,
            )))
            .divide(PlanBuilder::scan("r2"))
            .build(),
        PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::Gt, 1))
            .difference(PlanBuilder::scan("r1").select(
                Predicate::cmp_value("a", CompareOp::Gt, 1).and(Predicate::cmp_value(
                    "a",
                    CompareOp::Gt,
                    3,
                )),
            ))
            .divide(PlanBuilder::scan("r2"))
            .build(),
        PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::LtEq, 2))
            .divide(PlanBuilder::scan("r2"))
            .difference(
                PlanBuilder::scan("r1")
                    .select(Predicate::cmp_value("a", CompareOp::Gt, 2))
                    .divide(PlanBuilder::scan("r2")),
            )
            .build(),
        // Laws 8, 9, 17 and Example 2: products.
        PlanBuilder::scan("factor")
            .product(PlanBuilder::scan("r1"))
            .divide(PlanBuilder::scan("r2"))
            .build(),
        PlanBuilder::scan("r_star8")
            .product(PlanBuilder::scan("r_star_star8"))
            .divide(PlanBuilder::scan("r2_8"))
            .build(),
        PlanBuilder::scan("factor")
            .product(PlanBuilder::scan("r1"))
            .divide(PlanBuilder::scan("r2").product(PlanBuilder::scan("factor")))
            .build(),
        PlanBuilder::scan("factor")
            .product(PlanBuilder::scan("r1"))
            .great_divide(PlanBuilder::scan("r2_groups"))
            .build(),
        // Law 10 and Example 4: joins against quotients.
        PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .semi_join(PlanBuilder::scan("r3"))
            .build(),
        PlanBuilder::scan("outer")
            .theta_join(
                PlanBuilder::scan("r1").great_divide(PlanBuilder::scan("r2_groups")),
                Predicate::eq_attrs("a1", "a"),
            )
            .build(),
        // Laws 11 and 12: aggregated dividends.
        PlanBuilder::scan("r0_agg")
            .group_aggregate(["a"], [AggregateCall::sum("x", "b")])
            .divide(PlanBuilder::scan("single_b"))
            .build(),
        PlanBuilder::scan("r0_agg")
            .rename([("a", "b"), ("x", "y")])
            .group_aggregate(["b"], [AggregateCall::sum("y", "a")])
            .divide(PlanBuilder::scan("r2"))
            .build(),
    ]
}

#[test]
fn every_default_rule_fires_on_some_plan_and_preserves_semantics() {
    let catalog = figure_catalog();
    let ctx = RewriteContext::with_catalog(&catalog);
    let engine = RewriteEngine::with_default_rules();
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for plan in law_exercising_plans() {
        let outcome = engine.rewrite(&plan, &ctx).unwrap();
        for applied in &outcome.applied {
            fired.insert(applied.rule.clone());
        }
        let report = plans_equivalent_on(&plan, &outcome.plan, &catalog).unwrap();
        assert!(
            report.equivalent,
            "rewrite changed semantics for plan:\n{plan}\n{}",
            report.describe()
        );
    }
    for law in [
        "law-01",
        "law-02",
        "law-03",
        "law-04",
        "law-05",
        "law-06",
        "law-07",
        "law-08",
        "law-09",
        "law-10",
        "law-11",
        "law-12",
        "law-13",
        "law-14",
        "law-15",
        "law-16",
        "law-17",
        "example-2",
        "example-4",
    ] {
        assert!(
            fired.iter().any(|name| name.starts_with(law)),
            "no plan triggered {law}; fired rules: {fired:?}"
        );
    }
}

#[test]
fn optimizer_never_makes_plans_worse_and_preserves_semantics() {
    let catalog = suppliers_parts_catalog(60, 20, 0.5);
    let ctx = RewriteContext::with_catalog(&catalog);
    let optimizer = Optimizer::new();
    let plans = vec![
        PlanBuilder::scan("supplies")
            .divide(
                PlanBuilder::scan("parts")
                    .select(Predicate::eq_value("color", "blue"))
                    .project(["p#"]),
            )
            .select(Predicate::cmp_value("s#", CompareOp::Lt, 10))
            .build(),
        PlanBuilder::scan("supplies")
            .great_divide(PlanBuilder::scan("parts"))
            .select(Predicate::eq_value("color", "blue"))
            .build(),
    ];
    for plan in plans {
        let optimized = optimizer.optimize(&plan, &ctx).unwrap();
        assert!(optimized.cost.value() <= optimized.original_cost.value());
        assert!(optimized.estimated_speedup() >= 1.0);
        // The chosen plan is labeled with the laws that produced it.
        if optimized.plan != plan {
            assert!(
                !optimized.applied.is_empty(),
                "a changed plan must report which rules fired"
            );
        }
        let report = plans_equivalent_on(&plan, &optimized.plan, &catalog).unwrap();
        assert!(report.equivalent, "{}", report.describe());
    }
}

#[test]
fn engine_pipeline_agrees_with_the_reference_evaluator_on_law_plans() {
    // Every law-exercising plan, executed end to end through the `Engine`
    // (optimizer in the loop), matches the reference evaluation of the
    // *original* plan — the session API must never change query semantics.
    let catalog = figure_catalog();
    let engine = Engine::new(catalog.clone());
    for plan in law_exercising_plans() {
        let expected = evaluate(&plan, &catalog).unwrap();
        let output = engine.run(Request::plan(&plan)).unwrap().collect().unwrap();
        assert_eq!(
            output.relation, expected,
            "engine diverges from the reference on plan:\n{plan}"
        );
    }
}

#[test]
fn law2_partitioning_helper_produces_equivalent_parallelizable_plans() {
    let catalog = suppliers_parts_catalog(50, 16, 0.6);
    let ctx = RewriteContext::with_catalog(&catalog);
    let dividend = PlanBuilder::scan("supplies").build();
    let divisor = PlanBuilder::scan("parts").project(["p#"]).build();
    let original = PlanBuilder::from_plan(dividend.clone())
        .divide(PlanBuilder::from_plan(divisor.clone()))
        .build();
    for n in [2, 3, 4] {
        let partitioned = partition_dividend_for_law2(&dividend, &divisor, n, &ctx)
            .unwrap()
            .expect("partitioning succeeds on generated data");
        let report = plans_equivalent_on(&original, &partitioned, &catalog).unwrap();
        assert!(report.equivalent, "n = {n}: {}", report.describe());
    }
}

#[test]
fn example3_derivation_holds_on_generated_data() {
    // Scale Figure 9 up: random r*1, a unique-key r**1 and a foreign-key r2.
    let mut catalog = Catalog::new();
    let mut r_star_rows = Vec::new();
    for a in 0..40i64 {
        for b1 in 0..10i64 {
            if (a + b1) % 3 != 0 {
                r_star_rows.push(vec![a, b1]);
            }
        }
    }
    catalog.register(
        "r_star",
        Relation::from_rows(["a", "b1"], r_star_rows).unwrap(),
    );
    catalog.register(
        "r_star_star",
        Relation::from_rows(["b2"], (0..12i64).map(|b2| vec![b2])).unwrap(),
    );
    catalog.register(
        "r2",
        Relation::from_rows(["b1", "b2"], (0..8i64).map(|i| vec![i % 10, (i * 3) % 12])).unwrap(),
    );
    let ctx = RewriteContext::with_catalog(&catalog);
    let steps = example3_derivation(
        &PlanBuilder::scan("r_star").build(),
        &PlanBuilder::scan("r_star_star").build(),
        &PlanBuilder::scan("r2").build(),
        &ctx,
    )
    .unwrap();
    let original = &steps[0].plan;
    for step in &steps[1..] {
        let report = plans_equivalent_on(original, &step.plan, &catalog).unwrap();
        assert!(
            report.equivalent,
            "step `{}` broke the derivation: {}",
            step.justification,
            report.describe()
        );
    }
}
