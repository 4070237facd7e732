//! Experiments E1 + E2: the paper's division algorithm family across
//! dividend sizes and divisor sizes. Hash-division (the streaming divide),
//! counting division and the two basic-operator simulations run as plans on
//! the streaming executor; merge-sort division runs as a row function.
//!
//! Paper claim (Sections 1, 6; Leinders & Van den Bussche): the simulation
//! materializes quadratic intermediate results and loses to every
//! special-purpose algorithm; among the special-purpose algorithms,
//! hash-division wins on unsorted inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use div_bench::division_workload;
use div_physical::{merge, ExecStats};
use division::prelude::*;

/// Every plan of the family over `r1 ÷ r2`.
fn family(catalog: &Catalog) -> Vec<(&'static str, LogicalPlan)> {
    let r = || PlanBuilder::scan("r1");
    let s = || PlanBuilder::scan("r2");
    let k = catalog.row_count("r2").unwrap();
    [
        ("hash-division", r().divide(s())),
        (
            "counting-division",
            r().counting_plan(s(), &["a"], &["b"], k),
        ),
        (
            "simulated-difference",
            r().difference_plan(s(), &["a"], &["b"]),
        ),
        ("simulated-anti-join", r().anti_join_plan(s(), &["a"])),
    ]
    .into_iter()
    .map(|(name, plan)| (name, plan.build()))
    .collect()
}

/// Drain `plan` on the streaming executor and return its statistics.
fn run(plan: &LogicalPlan, catalog: &Catalog) -> ExecStats {
    let config = PlannerConfig::default();
    let mut stream = StreamExecutor::new(plan, catalog, &config).unwrap();
    while stream.next_batch().unwrap().is_some() {}
    stream.finish()
}

fn workload_catalog(groups: i64, items: i64) -> (Catalog, Relation, Relation) {
    let (dividend, divisor) = division_workload(groups, items, 3);
    let mut catalog = Catalog::new();
    catalog.register("r1", dividend.clone());
    catalog.register("r2", divisor.clone());
    (catalog, dividend, divisor)
}

fn bench_sweep(
    c: &mut Criterion,
    name: &str,
    sizes: [(i64, i64); 3],
    parameter: fn(i64, i64) -> i64,
) {
    let mut group = c.benchmark_group(name);
    for (groups, items) in sizes {
        let (catalog, dividend, divisor) = workload_catalog(groups, items);
        let x = parameter(groups, items);
        for (algorithm, plan) in family(&catalog) {
            group.bench_with_input(BenchmarkId::new(algorithm, x), &x, |b, _| {
                b.iter(|| run(&plan, &catalog))
            });
        }
        group.bench_with_input(BenchmarkId::new("merge-sort-division", x), &x, |b, _| {
            b.iter(|| merge::divide(&dividend, &divisor).unwrap())
        });
    }
    group.finish();
}

/// Print the intermediate-result table the paper's argument is about (runs
/// once, as plain stdout before the timing loops), after checking that every
/// member of the family returns the reference quotient.
fn report_intermediate_sizes() {
    println!("\n# E1: largest intermediate result (rows), dividend groups x divisor 16");
    println!("groups  simulated-difference  hash-division");
    for groups in [100i64, 400, 1_600] {
        let (catalog, dividend, divisor) = workload_catalog(groups, 16);
        let expected = dividend.divide(&divisor).unwrap();
        let merged = merge::divide(&dividend, &divisor).unwrap();
        assert_eq!(merged, expected, "merge-sort-division");
        let mut max_intermediate = Vec::new();
        for (algorithm, plan) in family(&catalog) {
            let stats = run(&plan, &catalog);
            assert_eq!(stats.output_rows, expected.len(), "{algorithm}");
            max_intermediate.push(stats.max_intermediate);
        }
        println!(
            "{groups:>6}  {:>20}  {:>13}",
            max_intermediate[2], max_intermediate[0]
        );
    }
}

fn benches(c: &mut Criterion) {
    report_intermediate_sizes();
    bench_sweep(
        c,
        "E1_E2_division_algorithms/by_groups",
        [(100, 16), (400, 16), (1_600, 16)],
        |groups, _| groups,
    );
    bench_sweep(
        c,
        "E1_E2_division_algorithms/by_divisor",
        [(300, 4), (300, 16), (300, 64)],
        |_, items| items,
    );
}

criterion_group!(division_algorithms, benches);
criterion_main!(division_algorithms);
