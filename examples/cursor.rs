//! Incremental result consumption with the streaming `Cursor`.
//!
//! Demonstrates the three things the streaming execution API buys over the
//! materializing `QueryOutput` shape:
//!
//! 1. **batch-at-a-time consumption** — results arrive as columnar batches
//!    while upstream operators are still running;
//! 2. **early termination** — `take(n)` (or dropping the cursor) stops the
//!    source scans short, visible in `rows_scanned`;
//! 3. **bounded memory** — a deep pipeline's peak resident rows stay at a
//!    small multiple of `batch_size`, not the table size.
//!
//! Run with `cargo run --example cursor`.

use division::prelude::*;

fn main() {
    // A wide generated workload: 60k supplies rows.
    let data = div_datagen::suppliers_parts::generate(&div_datagen::SuppliersPartsConfig {
        suppliers: 2_000,
        parts: 60,
        colors: 5,
        coverage: 0.5,
        full_suppliers: 0.05,
        seed: 7,
    });
    let table_rows = data.supplies.len();
    let catalog = data.catalog();
    let engine = Engine::builder(catalog)
        .planner_config(PlannerConfig::default().batch_size(1024))
        .build();

    // 1. Batch-at-a-time consumption: the cursor is an Iterator over
    //    Result<ColumnarBatch>.
    let sql = "SELECT s#, p# FROM supplies WHERE p# < 30";
    let mut cursor = engine.query(sql).expect("query compiles");
    println!("streaming `{sql}`");
    println!("result schema: {:?}", cursor.schema().names());
    let mut batches = 0usize;
    let mut rows = 0usize;
    for batch in cursor.by_ref() {
        let batch = batch.expect("batch streams");
        batches += 1;
        rows += batch.num_rows();
    }
    let stats = cursor.finish_stats();
    println!(
        "  drained: {batches} batches, {rows} rows \
         (scanned {} of {table_rows} table rows, peak {} resident rows)\n",
        stats.rows_scanned, stats.peak_resident_rows
    );

    // 2. Early termination: take only the first batch — the scan stops
    //    after one chunk instead of reading all 60k rows.
    let mut cursor = engine.query(sql).expect("query compiles");
    let first = cursor
        .by_ref()
        .take(1)
        .next()
        .expect("one batch")
        .expect("batch streams");
    let stats = cursor.finish_stats();
    println!(
        "take(1): got {} rows after scanning only {} of {table_rows} table rows \
         ({}x less I/O)\n",
        first.num_rows(),
        stats.rows_scanned,
        table_rows / stats.rows_scanned.max(1),
    );

    // 3. Bounded memory on a deep pipeline, vs the same plan materialized by
    //    the reference evaluator.
    let deep = "SELECT p# FROM supplies WHERE s# < 1500 AND p# < 50";
    let output = engine
        .run(deep)
        .expect("query runs")
        .collect()
        .expect("query runs");
    println!("deep pipeline `{deep}`");
    println!(
        "  streaming:     peak resident rows = {:>6} (batch_size = {})",
        output.stats.peak_resident_rows,
        engine.planner_config().batch_size,
    );
    let explain = engine.explain(deep).expect("explain compiles");
    let (_, mat) = div_expr::evaluate_with_stats(&explain.optimized, &engine.catalog())
        .expect("materializing run");
    println!(
        "  materializing: max intermediate  = {:>6} (whole filtered table)",
        mat.max_intermediate
    );
}
