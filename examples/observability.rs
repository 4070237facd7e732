//! The observability layer end to end: per-operator timed spans, the
//! estimate-vs-actual EXPLAIN ANALYZE report, and the engine's session
//! metrics registry.
//!
//! Run with `cargo run --example observability`.

use division::prelude::*;

fn main() {
    // A generated suppliers-parts database behind one engine, with
    // per-operator wall-clock tracing enabled for ordinary queries too
    // (EXPLAIN ANALYZE always times, whatever this flag says).
    let data = div_datagen::suppliers_parts::generate(&div_datagen::SuppliersPartsConfig {
        suppliers: 300,
        parts: 60,
        colors: 5,
        coverage: 0.5,
        full_suppliers: 0.04,
        seed: 42,
    });
    let mut catalog = Catalog::new();
    catalog.register("supplies", data.supplies);
    catalog.register("parts", data.parts);
    let engine = Engine::builder(catalog)
        .planner_config(PlannerConfig::default().tracing(true))
        .build();

    // 1. EXPLAIN ANALYZE: the physical tree annotated per operator with
    //    actual rows, the cost model's estimated rows, the q-error between
    //    them, attributed wall time, probe counts and resident peaks.
    let q2 = "SELECT s# FROM supplies AS s DIVIDE BY \
              (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";
    let analyzed = engine.explain_analyze(q2).expect("Q2 analyzes");
    println!("{analyzed}");

    // The same data is available structurally: one `OperatorStats` span
    // per physical operator, in EXPLAIN pre-order.
    let spans = analyzed.operator_stats().expect("analyze fills spans");
    let errors = analyzed.estimation_errors().expect("estimates line up");
    let worst = errors
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("plan is non-empty");
    println!(
        "worst cardinality estimate: {} (q-error {:.2}, estimated {:.0}, actual {})\n",
        spans[worst.0].label, worst.1, analyzed.estimated_rows[worst.0], spans[worst.0].rows_out,
    );

    // 2. Ordinary queries on this engine carry timed spans too, because
    //    the builder enabled tracing; by default only attribution (rows,
    //    probes, resident peaks) is collected and the clocks stay cold.
    let output = engine
        .query("SELECT s# FROM supplies WHERE p# = 3")
        .expect("filter compiles")
        .collect()
        .expect("filter runs");
    for op in &output.stats.operators {
        println!(
            "operator {:>2}  {:<28} rows_out={:<6} time={}ns",
            op.id.index(),
            op.label,
            op.rows_out,
            op.total_time_ns(),
        );
    }
    println!();

    // 3. A prepared statement, executed for several bindings, to feed the
    //    session metrics: the second prepare of the same SQL is a cache hit.
    let stmt_sql = "SELECT s# FROM supplies AS s DIVIDE BY \
                    (SELECT p# FROM parts WHERE color = $color) AS p ON s.p# = p.p#";
    let stmt = engine.prepare(stmt_sql).expect("prepares");
    engine
        .prepare(stmt_sql)
        .expect("prepares again (cache hit)");
    for color in ["blue", "red", "green"] {
        let out = engine
            .run(Request::prepared(&stmt).params(Params::new().bind("color", color)))
            .expect("prepared query executes")
            .collect()
            .expect("prepared query executes");
        println!(
            "{color}: {} suppliers supply every part",
            out.relation.len()
        );
    }
    println!();

    // 4. The session metrics registry: queries, rows, the pipeline time
    //    split, a latency histogram and the rewrite laws that fired —
    //    as text and as JSON for scraping.
    let metrics = engine.metrics();
    println!("{metrics}");
    println!("as JSON:\n{}", metrics.to_json());
}
