//! Frequent itemset discovery (Section 3): Apriori whose support-counting
//! phase is a single great divide per iteration.
//!
//! Run with `cargo run --example frequent_itemsets`.

use div_datagen::baskets::{self, BasketConfig};
use div_mining::{mine_frequent_itemsets, AprioriConfig, SupportCounting};

fn main() {
    let config = BasketConfig {
        transactions: 500,
        items: 80,
        avg_length: 7,
        skew: 1.1,
        planted_itemsets: 3,
        planted_size: 3,
        planted_probability: 0.35,
        seed: 2006,
    };
    let data = baskets::generate(&config);
    println!(
        "generated {} transaction rows over {} items; planted itemsets: {:?}",
        data.transactions.len(),
        config.items,
        data.planted
    );

    let min_support = config.transactions / 8;
    for counting in [
        SupportCounting::GreatDivide,
        SupportCounting::PerCandidateScan,
    ] {
        let result = mine_frequent_itemsets(
            &data.transactions,
            &AprioriConfig {
                min_support,
                max_size: 3,
                counting,
            },
        )
        .expect("mining succeeds");
        println!("------------------------------------------------------------------");
        println!(
            "strategy {:<28} iterations {:>2}  candidates counted {:>4}  frequent itemsets {:>4}",
            counting.name(),
            result.iterations,
            result.candidates_counted,
            result.itemsets.len()
        );
        println!("frequent 3-itemsets (support >= {min_support}):");
        for itemset in result.of_size(3) {
            println!("  {:?}  support {}", itemset.items, itemset.support);
        }
        for planted in &data.planted {
            println!(
                "  planted {:?} found: {}",
                planted,
                result.contains(planted)
            );
        }
    }
}
