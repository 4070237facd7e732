//! Experiment E12 (Section 4): executing Q1 through the `DIVIDE BY` syntax
//! (lowered to a first-class great-divide operator) vs the double
//! `NOT EXISTS` simulation executed naively as nested scans.
//!
//! The NOT EXISTS baseline is evaluated the way a system without division
//! support would: for every (supplier, color) pair, scan the parts of that
//! color and probe the supplier's parts — the nested-loops semantics of the
//! SQL formulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use div_bench::suppliers_parts_catalog;
use division::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const Q1: &str = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#";

/// Nested-loop evaluation of the double NOT EXISTS formulation (Q3).
fn not_exists_baseline(catalog: &Catalog) -> Relation {
    let supplies = catalog.table("supplies").unwrap();
    let parts = catalog.table("parts").unwrap();
    let mut supplier_parts: BTreeMap<Value, BTreeSet<Value>> = BTreeMap::new();
    for t in supplies.tuples() {
        supplier_parts
            .entry(t.values()[0].clone())
            .or_default()
            .insert(t.values()[1].clone());
    }
    let colors: BTreeSet<Value> = parts.tuples().map(|t| t.values()[1].clone()).collect();
    let mut out = Relation::empty(Schema::of(["s#", "color"]));
    for (supplier, owned) in &supplier_parts {
        'colors: for color in &colors {
            // NOT EXISTS a part of this color NOT supplied by the supplier.
            for part in parts.tuples() {
                if &part.values()[1] == color && !owned.contains(&part.values()[0]) {
                    continue 'colors;
                }
            }
            out.insert(Tuple::new([supplier.clone(), color.clone()]))
                .unwrap();
        }
    }
    out
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("E12_sql_divide_vs_not_exists");
    for (suppliers, parts) in [(100usize, 30usize), (400, 60)] {
        let catalog = suppliers_parts_catalog(suppliers, parts, 0.55);
        // The DIVIDE BY path runs as a prepared statement on the engine: the
        // plan (optimizer in the loop) is compiled once, outside the timing
        // loop.
        let engine = Engine::new(catalog.clone());
        let stmt = engine.prepare(Q1).unwrap();
        // Both strategies compute the same result.
        assert_eq!(
            engine
                .run(Request::prepared(&stmt))
                .unwrap()
                .collect()
                .unwrap()
                .relation,
            not_exists_baseline(&catalog)
        );
        let id = format!("{suppliers}x{parts}");
        group.bench_with_input(
            BenchmarkId::new("divide-by-first-class", &id),
            &suppliers,
            |b, _| {
                b.iter(|| {
                    engine
                        .run(Request::prepared(&stmt))
                        .unwrap()
                        .collect()
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("double-not-exists", &id),
            &suppliers,
            |b, _| b.iter(|| not_exists_baseline(&catalog)),
        );
    }
    group.finish();
}

criterion_group!(sql_divide, benches);
criterion_main!(sql_divide);
