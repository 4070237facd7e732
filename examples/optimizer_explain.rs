//! Show the cost-based optimizer at work: the rewrites it enumerates from a
//! plan, the laws its greedy passes keep, the estimated costs, and the
//! step-by-step derivation of Example 3.
//!
//! Run with `cargo run --example optimizer_explain`.

use div_rewrite::laws::examples::example3_derivation;
use division::prelude::*;

fn main() {
    // A generated suppliers-parts database.
    let data = div_datagen::suppliers_parts::generate(&div_datagen::SuppliersPartsConfig {
        suppliers: 200,
        parts: 40,
        colors: 4,
        coverage: 0.5,
        full_suppliers: 0.05,
        seed: 17,
    });
    let catalog = data.catalog();

    // σ_{color='blue'}(supplies ÷* parts), the "suppliers of all parts per
    // color" query restricted to one color after the fact.
    let plan = PlanBuilder::scan("supplies")
        .great_divide(PlanBuilder::scan("parts"))
        .select(Predicate::eq_value("color", "blue"))
        .select(Predicate::cmp_value("s#", CompareOp::Lt, 50))
        .build();
    println!("original plan:\n{plan}");

    let ctx = RewriteContext::with_catalog(&catalog);
    let optimizer = Optimizer::new();
    let model = optimizer.cost_model();
    println!("rewrites one law application away (estimated cost):");
    for rewrite in optimizer.rewrites(&plan, &ctx).unwrap() {
        println!(
            "  {:<45} {:>8.0}",
            rewrite.rule,
            model.cost(&rewrite.plan, &ctx).value()
        );
    }

    let optimized = optimizer.optimize(&plan, &ctx).unwrap();
    println!("optimized plan:\n{}", optimized.plan);
    println!(
        "estimated cost: original {:.0}, optimized {:.0} (speed-up {:.1}x, {} alternatives considered)",
        optimized.original_cost.value(),
        optimized.cost.value(),
        optimized.estimated_speedup(),
        optimized.alternatives_considered,
    );
    println!(
        "optimizer trace (laws chosen per greedy pass):\n{}",
        optimized.trace()
    );
    let report = plans_equivalent_on(&plan, &optimized.plan, &catalog).unwrap();
    println!(
        "optimized plan equivalent to original: {}\n",
        report.equivalent
    );

    // Example 3: the derivation that removes the theta-join from the dividend.
    let mut figure9 = Catalog::new();
    figure9.register(
        "r_star",
        relation! {
            ["a", "b1"] =>
            [1, 1], [1, 2], [1, 3],
            [2, 2], [2, 3],
            [3, 1], [3, 3], [3, 4],
        },
    );
    figure9.register("r_star_star", relation! { ["b2"] => [1], [2], [4] });
    figure9.register("r2", relation! { ["b1", "b2"] => [1, 4], [3, 4] });
    let ctx9 = RewriteContext::with_catalog(&figure9);
    println!("Example 3 derivation (Figure 9):");
    let steps = example3_derivation(
        &PlanBuilder::scan("r_star").build(),
        &PlanBuilder::scan("r_star_star").build(),
        &PlanBuilder::scan("r2").build(),
        &ctx9,
    )
    .unwrap();
    for (i, step) in steps.iter().enumerate() {
        let result = evaluate(&step.plan, &figure9).unwrap();
        println!(
            "  step {i}: {:<70} -> {} tuple(s)",
            step.justification,
            result.len()
        );
    }
    println!("final plan:\n{}", steps.last().unwrap().plan);
}
