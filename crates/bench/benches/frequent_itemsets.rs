//! Experiment E11 (Section 3): the full Apriori run, with support counted by
//! the engine (one great divide plus a group count per iteration, on the
//! streaming executor) against the per-candidate scan baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use div_datagen::baskets::{self, BasketConfig};
use div_mining::{mine_frequent_itemsets, AprioriConfig, SupportCounting};

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("E11_frequent_itemsets");
    for transactions in [500usize, 2_000] {
        let data = baskets::generate(&BasketConfig {
            transactions,
            items: 120,
            avg_length: 8,
            skew: 1.0,
            planted_itemsets: 4,
            planted_size: 3,
            planted_probability: 0.3,
            seed: 99,
        });
        let min_support = transactions / 10;
        for strategy in [
            SupportCounting::PerCandidateScan,
            SupportCounting::GreatDivide,
        ] {
            group.bench_with_input(
                BenchmarkId::new(strategy.name(), transactions),
                &transactions,
                |b, _| {
                    b.iter(|| {
                        mine_frequent_itemsets(
                            &data.transactions,
                            &AprioriConfig {
                                min_support,
                                max_size: 3,
                                counting: strategy,
                            },
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(frequent_itemsets, benches);
criterion_main!(frequent_itemsets);
