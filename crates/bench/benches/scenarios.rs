//! Division over the generated workload families of `div_datagen::scenarios`
//! (RBAC, courses, feature flags): small divide with the optimizer on vs
//! off, and the great (grouped) divide, as cardinality and divisor
//! selectivity sweep.
//!
//! These are the same generators the conformance harness draws on
//! (`crates/conformance`), so the shapes measured here are the shapes the
//! differential fuzzer certifies for correctness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use div_datagen::scenarios::{generate, ScenarioConfig, ScenarioFamily};
use div_sql::{Engine, Request};

/// Entity counts the sweep covers.
const SCALES: [usize; 2] = [200, 1_000];

fn config_for(family: ScenarioFamily, entities: usize, selectivity: f64) -> ScenarioConfig {
    ScenarioConfig {
        family,
        entities,
        items: 40,
        groups: 4,
        membership: 0.55,
        skew: 0.8,
        divisor_selectivity: selectivity,
        null_density: 0.02,
        full_entities: 0.05,
        seed: 0xd1_71de,
    }
}

fn small_divide(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_small_divide");
    for family in ScenarioFamily::ALL {
        for entities in SCALES {
            let data = generate(&config_for(family, entities, 0.4));
            let sql = data.small_divide_sql();
            let optimized = Engine::new(data.catalog());
            let raw = Engine::builder(data.catalog()).without_optimizer().build();
            let id = format!("{}/{entities}", family.name());
            group.bench_with_input(BenchmarkId::new("optimized", &id), &sql, |b, sql| {
                b.iter(|| {
                    optimized
                        .run(Request::sql(sql))
                        .expect("query")
                        .collect()
                        .expect("query")
                        .relation
                        .len()
                })
            });
            group.bench_with_input(BenchmarkId::new("raw", &id), &sql, |b, sql| {
                b.iter(|| {
                    raw.run(Request::sql(sql))
                        .expect("query")
                        .collect()
                        .expect("query")
                        .relation
                        .len()
                })
            });
        }
    }
    group.finish();
}

fn great_divide(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_great_divide");
    for family in ScenarioFamily::ALL {
        for entities in SCALES {
            let data = generate(&config_for(family, entities, 0.5));
            let sql = data.great_divide_sql();
            let engine = Engine::new(data.catalog());
            let id = format!("{}/{entities}", family.name());
            group.bench_with_input(BenchmarkId::new("grouped", &id), &sql, |b, sql| {
                b.iter(|| {
                    engine
                        .run(Request::sql(sql))
                        .expect("query")
                        .collect()
                        .expect("query")
                        .relation
                        .len()
                })
            });
        }
    }
    group.finish();
}

fn selectivity_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_divisor_selectivity");
    for selectivity in [0.0, 0.2, 0.8] {
        let data = generate(&config_for(ScenarioFamily::Rbac, 500, selectivity));
        let sql = data.small_divide_sql();
        let engine = Engine::new(data.catalog());
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{selectivity:.1}")),
            &sql,
            |b, sql| {
                b.iter(|| {
                    engine
                        .run(Request::sql(sql))
                        .expect("query")
                        .collect()
                        .expect("query")
                        .relation
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, small_divide, great_divide, selectivity_sweep);
criterion_main!(benches);
