//! End-to-end frequent itemset discovery (Section 3): the Apriori loop with
//! great-divide support counting finds the planted itemsets of the generated
//! market-basket workloads, and every counting strategy agrees.

use div_datagen::baskets::{self, BasketConfig};
use div_mining::{mine_frequent_itemsets, AprioriConfig, SupportCounting};
use division::prelude::*;

fn workload(seed: u64) -> (Relation, Vec<Vec<i64>>, usize) {
    let config = BasketConfig {
        transactions: 300,
        items: 60,
        avg_length: 6,
        skew: 1.0,
        planted_itemsets: 3,
        planted_size: 3,
        planted_probability: 0.4,
        seed,
    };
    let data = baskets::generate(&config);
    (data.transactions, data.planted, config.transactions)
}

#[test]
fn planted_itemsets_are_discovered_with_great_divide_counting() {
    let (transactions, planted, n_transactions) = workload(11);
    let result = mine_frequent_itemsets(
        &transactions,
        &AprioriConfig {
            min_support: n_transactions / 5,
            max_size: 3,
            counting: SupportCounting::GreatDivide,
        },
    )
    .unwrap();
    for itemset in &planted {
        assert!(
            result.contains(itemset),
            "planted itemset {itemset:?} not found; found {:?}",
            result.itemsets
        );
    }
    assert!(result.iterations >= 3);
    assert!(result.stats.probes > 0);
}

#[test]
fn all_counting_strategies_find_the_same_itemsets() {
    let (transactions, _, n_transactions) = workload(23);
    let config = |counting| AprioriConfig {
        min_support: n_transactions / 6,
        max_size: 3,
        counting,
    };
    let reference =
        mine_frequent_itemsets(&transactions, &config(SupportCounting::PerCandidateScan)).unwrap();
    assert!(!reference.itemsets.is_empty());
    let result =
        mine_frequent_itemsets(&transactions, &config(SupportCounting::GreatDivide)).unwrap();
    assert_eq!(result.itemsets, reference.itemsets);
}

#[test]
fn support_counting_is_a_single_great_divide_plus_group_count() {
    // The quotient-then-count formulation of Section 3 expressed as a logical
    // plan over the catalog, compared against the mining crate's counts, which
    // run the same plan on the streaming executor and report its span tree.
    let (transactions, planted, _) = workload(37);
    let mut catalog = Catalog::new();
    catalog.register("transactions", transactions.clone());
    catalog.register("candidates", baskets::candidates_relation(&planted));

    let plan = PlanBuilder::scan("transactions")
        .great_divide(PlanBuilder::scan("candidates"))
        .group_aggregate(["itemset"], [AggregateCall::count("tid", "support")])
        .build();
    let support_table = evaluate(&plan, &catalog).unwrap();

    let candidate_map: std::collections::BTreeMap<i64, Vec<i64>> = planted
        .iter()
        .enumerate()
        .map(|(i, items)| (i as i64, items.clone()))
        .collect();
    let (counts, stats) =
        div_mining::count_support(&transactions, &candidate_map, SupportCounting::GreatDivide)
            .unwrap();
    let labels: Vec<&str> = stats.operators.iter().map(|op| op.label.as_str()).collect();
    assert!(labels.contains(&"GreatDivide[hash]"), "{labels:?}");
    assert!(labels.contains(&"HashAggregate(itemset)"), "{labels:?}");
    for tuple in support_table.tuples() {
        let itemset = tuple.values()[0].as_int().unwrap();
        let support = tuple.values()[1].as_int().unwrap() as usize;
        assert_eq!(counts[&itemset], support);
    }
}

#[test]
fn raising_min_support_shrinks_the_result_monotonically() {
    let (transactions, _, n_transactions) = workload(51);
    let counting = SupportCounting::GreatDivide;
    let mut previous = usize::MAX;
    for divisor in [10, 5, 3, 2] {
        let result = mine_frequent_itemsets(
            &transactions,
            &AprioriConfig {
                min_support: n_transactions / divisor,
                max_size: 3,
                counting,
            },
        )
        .unwrap();
        assert!(result.itemsets.len() <= previous);
        previous = result.itemsets.len();
    }
}
