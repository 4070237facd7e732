//! Quickstart: build the paper's Figure 1 relations, run the small and great
//! divide, apply a law with the rewrite engine, execute the plan on the
//! streaming executor, and run one more member of the paper's division
//! algorithm family — counting division, a plan of its own — on the same
//! executor.
//!
//! Run with `cargo run --example quickstart`.

use division::prelude::*;

/// Plan `plan` and drain it on the streaming executor.
fn run(plan: &LogicalPlan, catalog: &Catalog) -> Relation {
    let config = PlannerConfig::default();
    let physical = plan_query(plan, &config).unwrap();
    let mut stream = StreamExecutor::new(&physical, catalog, &config).unwrap();
    let mut result = Relation::empty(stream.schema().clone());
    while let Some(batch) = stream.next_batch().unwrap() {
        result = result.union(&batch.to_relation().unwrap()).unwrap();
    }
    let stats = stream.finish();
    println!(
        "executed {} operators, scanned {} rows, peak {} resident rows",
        stats.operators_executed, stats.rows_scanned, stats.peak_resident_rows
    );
    result
}

fn main() {
    // Figure 1: r1 ÷ r2 = r3.
    let r1 = relation! {
        ["a", "b"] =>
        [1, 1], [1, 4],
        [2, 1], [2, 2], [2, 3], [2, 4],
        [3, 1], [3, 3], [3, 4],
    };
    let r2 = relation! { ["b"] => [1], [3] };
    println!("r1 (dividend):\n{r1}");
    println!("r2 (divisor):\n{r2}");
    println!("r1 ÷ r2 (small divide):\n{}", r1.divide(&r2).unwrap());

    // Figure 2: the great divide groups the divisor by c.
    let r2_groups = relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] };
    println!("r2 with groups (divisor):\n{r2_groups}");
    println!(
        "r1 ÷* r2 (great divide):\n{}",
        r1.great_divide(&r2_groups).unwrap()
    );

    // The same query as a logical plan, rewritten by the laws and executed by
    // the streaming executor.
    let divisor_count = r2.len();
    let mut catalog = Catalog::new();
    catalog.register("r1", r1);
    catalog.register("r2", r2);
    let plan = PlanBuilder::scan("r1")
        .divide(PlanBuilder::scan("r2"))
        .select(Predicate::eq_value("a", 2))
        .build();
    println!("original logical plan:\n{plan}");

    let engine = RewriteEngine::with_default_rules();
    let ctx = RewriteContext::with_catalog(&catalog);
    let outcome = engine.rewrite(&plan, &ctx).unwrap();
    println!("applied rules:\n{}\n", outcome.trace());
    println!(
        "rewritten logical plan (Law 3 pushed the filter down):\n{}",
        outcome.plan
    );

    println!(
        "physical plan:\n{}",
        plan_query(&outcome.plan, &PlannerConfig::default()).unwrap()
    );
    println!("result:\n{}", run(&outcome.plan, &catalog));

    // Counting division (Graefe & Cole): semi-join, count per group, keep
    // the groups that matched all |r2| divisor rows. The same executor runs
    // it; only the plan differs.
    let counting = PlanBuilder::scan("r1")
        .counting_plan(PlanBuilder::scan("r2"), &["a"], &["b"], divisor_count)
        .build();
    println!("counting division plan:\n{counting}");
    println!(
        "r1 ÷ r2 by counting division:\n{}",
        run(&counting, &catalog)
    );
}
