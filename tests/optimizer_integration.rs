//! End-to-end tests of the cost-based optimizer on generated workloads: the
//! optimized plan never costs more than the original and preserves
//! semantics, and the Law 2 partitioning helper and Example 3's derivation
//! hold on generated data.
//!
//! Per-law coverage lives in one place, the law registry
//! (`div_conformance::laws`): each of its shapes is a golden case in
//! `tests/golden/laws.slt` whose rule must be among the optimizer's
//! rewrites, every rewrite must preserve the result, and the shape runs
//! down every strategy of the differential oracle (`tests/conformance.rs`).

use div_datagen::suppliers_parts_catalog;
use div_rewrite::laws::examples::example3_derivation;
use div_rewrite::laws::small_divide_union::partition_dividend_for_law2;
use division::prelude::*;

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
