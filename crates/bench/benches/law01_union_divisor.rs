//! Experiment E3 (Law 1): dividing by a union of divisor partitions directly
//! vs the pipelined form `(r1 ⋉ (r1 ÷ r'2)) ÷ r''2`, which shrinks the
//! dividend between the two divisions. Both forms divide with merge-sort
//! division, whose group-preserving output is what makes the pipelined form
//! pay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use div_bench::division_workload;
use div_physical::merge;
use division::prelude::*;

fn split_divisor(divisor: &Relation, parts: usize) -> Vec<Relation> {
    div_datagen::partition::round_robin_partition(divisor, parts).unwrap()
}

fn run_union_form(dividend: &Relation, partitions: &[Relation]) -> Relation {
    let mut divisor = partitions[0].clone();
    for p in &partitions[1..] {
        divisor = divisor.union(p).unwrap();
    }
    merge::divide(dividend, &divisor).unwrap()
}

fn run_pipelined_form(dividend: &Relation, partitions: &[Relation]) -> Relation {
    // Law 1 applied repeatedly: each intermediate quotient shrinks the
    // dividend via a semi-join before the next partition is processed.
    let mut current = dividend.clone();
    let mut quotient = merge::divide(&current, &partitions[0]).unwrap();
    for p in &partitions[1..] {
        current = current.semi_join(&quotient).unwrap();
        quotient = merge::divide(&current, p).unwrap();
    }
    quotient
}

fn benches(c: &mut Criterion) {
    let (dividend, divisor) = division_workload(600, 24, 4);
    let mut group = c.benchmark_group("E3_law01_divisor_union");
    for parts in [2usize, 4, 8] {
        let partitions = split_divisor(&divisor, parts);
        // Sanity: the two forms agree (Law 1).
        assert_eq!(
            run_union_form(&dividend, &partitions),
            run_pipelined_form(&dividend, &partitions)
        );
        group.bench_with_input(BenchmarkId::new("union-form", parts), &parts, |b, _| {
            b.iter(|| run_union_form(&dividend, &partitions))
        });
        group.bench_with_input(BenchmarkId::new("law1-pipelined", parts), &parts, |b, _| {
            b.iter(|| run_pipelined_form(&dividend, &partitions))
        });
    }
    group.finish();
}

criterion_group!(law01, benches);
criterion_main!(law01);
