//! The `Engine` session API end to end, on the streaming `Cursor` front
//! door: ad-hoc queries with the rewrite optimizer in the loop, incremental
//! batch consumption, prepared statements with `$name` parameters, and
//! structured EXPLAIN / EXPLAIN ANALYZE reports (now including the
//! streaming executor's peak-resident-batch footprint).
//!
//! Run with `cargo run --example engine`.

use division::prelude::*;

fn main() {
    // A generated suppliers-parts database behind one engine.
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
    let engine = Engine::new(catalog);

    // 1. Ad-hoc query: parse → translate → optimize (laws + cost model) →
    //    plan, then *stream* the execution. `collect()` drains the cursor
    //    into the classic (relation, stats) pair.
    let q2 = "SELECT s# FROM supplies AS s DIVIDE BY \
              (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";
    let output = engine
        .query(q2)
        .expect("Q2 compiles")
        .collect()
        .expect("Q2 runs");
    println!(
        "Q2 (collected): {} suppliers supply every blue part ({} rows scanned, \
         peak {} resident rows)\n",
        output.relation.len(),
        output.stats.rows_scanned,
        output.stats.peak_resident_rows,
    );

    // 2. The same query consumed incrementally: the cursor is an iterator
    //    of columnar batches, produced on demand.
    let mut cursor = engine.query(q2).expect("Q2 compiles");
    println!(
        "Q2 (streamed), result schema {:?}:",
        cursor.schema().names()
    );
    let mut batches = 0;
    for batch in cursor.by_ref() {
        let batch = batch.expect("batch streams");
        batches += 1;
        println!("  batch {batches}: {} rows", batch.num_rows());
    }
    let stats = cursor.finish_stats();
    println!(
        "  {} batches, {} output rows, peak {} resident rows",
        batches, stats.output_rows, stats.peak_resident_rows
    );
    // Repeated ad-hoc SQL is served from the engine's plan cache: the
    // second `query(q2)` did not parse, rewrite or plan again.
    let metrics = engine.metrics();
    println!(
        "  compilations so far: {} (plan cache: {} hit, {} miss)\n",
        engine.compile_count(),
        metrics.prepared_cache_hits,
        metrics.prepared_cache_misses
    );

    // 3. EXPLAIN: what would the engine do? The report shows the logical
    //    plan before and after the rewrite, the laws that fired, the cost
    //    estimates and the chosen physical operators.
    let filtered = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# \
                    WHERE color = 'red'";
    let explain = engine.explain(filtered).expect("explain compiles");
    println!("{explain}");

    // 4. EXPLAIN ANALYZE adds measured execution statistics from the
    //    streaming path (note the peak-resident lines).
    let analyzed = engine.explain_analyze(filtered).expect("analyze runs");
    println!("{analyzed}");

    // 5. Prepared statements: compile once, bind and stream many times.
    //    The color literal of Q2 becomes a `$color` parameter.
    let stmt = engine
        .prepare(
            "SELECT s# FROM supplies AS s DIVIDE BY \
             (SELECT p# FROM parts WHERE color = $color) AS p ON s.p# = p.p#",
        )
        .expect("Q2 prepares");
    println!(
        "prepared Q2: parameters {:?}, {} law(s) fired at prepare time",
        stmt.parameters(),
        stmt.laws_applied().len()
    );
    for color in ["blue", "red", "green", "yellow", "black"] {
        let out = stmt
            .execute_collect(&engine, &Params::new().bind("color", color))
            .expect("prepared Q2 executes");
        println!("  {color}: {} suppliers", out.relation.len());
    }
    println!(
        "compilations: {} (Q2 once, two EXPLAINs, one prepare; executions bind \
         into the cached plan)",
        engine.compile_count()
    );
}
