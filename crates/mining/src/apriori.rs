//! The Apriori frequent-itemset algorithm, parameterized by the support
//! counting strategy.
//!
//! Section 3 of the paper describes the two-phase structure: candidate
//! generation (join frequent (k−1)-itemsets that share a prefix, prune those
//! with an infrequent subset) and support counting. The counting phase is
//! delegated to [`crate::support`], which is where the great divide enters.

use crate::support::{count_support, SupportCounting};
use div_algebra::Relation;
use div_expr::ExprError;
use div_physical::ExecStats;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of a mining run.
#[derive(Debug, Clone, Copy)]
pub struct AprioriConfig {
    /// Minimum support as an absolute transaction count.
    pub min_support: usize,
    /// Upper bound on the itemset size explored (0 means unbounded).
    pub max_size: usize,
    /// Support counting strategy.
    pub counting: SupportCounting,
}

/// One discovered frequent itemset.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FrequentItemset {
    /// The items, sorted ascending.
    pub items: Vec<i64>,
    /// Number of transactions containing all of the items.
    pub support: usize,
}

/// The result of a mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// All frequent itemsets, sorted by (size, items).
    pub itemsets: Vec<FrequentItemset>,
    /// Number of Apriori iterations executed.
    pub iterations: usize,
    /// Total number of candidates whose support was counted.
    pub candidates_counted: usize,
    /// Merged execution statistics of every counting phase.
    pub stats: ExecStats,
}

impl MiningResult {
    /// The frequent itemsets of a specific size.
    pub fn of_size(&self, k: usize) -> Vec<&FrequentItemset> {
        self.itemsets
            .iter()
            .filter(|i| i.items.len() == k)
            .collect()
    }

    /// `true` if `items` (in any order) was found frequent.
    pub fn contains(&self, items: &[i64]) -> bool {
        let mut sorted = items.to_vec();
        sorted.sort_unstable();
        self.itemsets.iter().any(|i| i.items == sorted)
    }
}

/// Run Apriori over a vertical `transactions(tid, item)` relation.
pub fn mine_frequent_itemsets(
    transactions: &Relation,
    config: &AprioriConfig,
) -> Result<MiningResult, ExprError> {
    let mut stats = ExecStats::default();
    let mut itemsets: Vec<FrequentItemset> = Vec::new();
    let mut candidates_counted = 0usize;

    // Iteration 1: count individual items directly from the vertical table.
    let item_counts = single_item_counts(transactions)?;
    let mut frequent_prev: Vec<Vec<i64>> = item_counts
        .iter()
        .filter(|(_, &n)| n >= config.min_support)
        .map(|(item, _)| vec![*item])
        .collect();
    frequent_prev.sort();
    for items in &frequent_prev {
        itemsets.push(FrequentItemset {
            items: items.clone(),
            support: item_counts[&items[0]],
        });
    }
    let mut iterations = 1usize;

    // Iterations k = 2, 3, …
    let mut k = 2usize;
    while !frequent_prev.is_empty() && (config.max_size == 0 || k <= config.max_size) {
        let candidates = generate_candidates(&frequent_prev);
        if candidates.is_empty() {
            break;
        }
        iterations += 1;
        candidates_counted += candidates.len();
        let candidate_map: BTreeMap<i64, Vec<i64>> = candidates
            .iter()
            .enumerate()
            .map(|(i, items)| (i as i64, items.clone()))
            .collect();
        let (counts, phase_stats) = count_support(transactions, &candidate_map, config.counting)?;
        stats.merge(&phase_stats);

        let mut frequent_now: Vec<(Vec<i64>, usize)> = Vec::new();
        for (id, items) in &candidate_map {
            let support = counts.get(id).copied().unwrap_or(0);
            if support >= config.min_support {
                frequent_now.push((items.clone(), support));
            }
        }
        frequent_now.sort();
        frequent_prev = frequent_now
            .iter()
            .map(|(items, _)| items.clone())
            .collect();
        for (items, support) in frequent_now {
            itemsets.push(FrequentItemset { items, support });
        }
        k += 1;
    }

    itemsets.sort_by(|a, b| (a.items.len(), &a.items).cmp(&(b.items.len(), &b.items)));
    Ok(MiningResult {
        itemsets,
        iterations,
        candidates_counted,
        stats,
    })
}

/// Count the support of every single item with one pass over the vertical
/// transactions table (iteration 1 of Apriori).
fn single_item_counts(transactions: &Relation) -> Result<BTreeMap<i64, usize>, ExprError> {
    let mut seen: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
    let tid_idx = transactions
        .schema()
        .require("tid")
        .map_err(ExprError::from)?;
    let item_idx = transactions
        .schema()
        .require("item")
        .map_err(ExprError::from)?;
    for t in transactions.tuples() {
        let tid = t.values()[tid_idx]
            .as_int()
            .ok_or_else(|| ExprError::invalid("transactions.tid must be an integer attribute"))?;
        let item = t.values()[item_idx]
            .as_int()
            .ok_or_else(|| ExprError::invalid("transactions.item must be an integer attribute"))?;
        seen.entry(item).or_default().insert(tid);
    }
    Ok(seen
        .into_iter()
        .map(|(item, tids)| (item, tids.len()))
        .collect())
}

/// Apriori candidate generation: join frequent (k−1)-itemsets sharing the
/// first k−2 items, then prune candidates with an infrequent (k−1)-subset.
fn generate_candidates(frequent_prev: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let previous: BTreeSet<&Vec<i64>> = frequent_prev.iter().collect();
    let mut candidates = Vec::new();
    for (i, a) in frequent_prev.iter().enumerate() {
        for b in &frequent_prev[i + 1..] {
            let k = a.len();
            if a[..k - 1] != b[..k - 1] {
                continue;
            }
            let mut candidate = a.clone();
            candidate.push(b[k - 1]);
            candidate.sort_unstable();
            // Prune: every (k−1)-subset must be frequent.
            let all_subsets_frequent = (0..candidate.len()).all(|skip| {
                let subset: Vec<i64> = candidate
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| *idx != skip)
                    .map(|(_, v)| *v)
                    .collect();
                previous.contains(&subset)
            });
            if all_subsets_frequent {
                candidates.push(candidate);
            }
        }
    }
    candidates.sort();
    candidates.dedup();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn transactions() -> Relation {
        // Classic toy dataset: {10,20,30} frequent together, 40 rare.
        relation! {
            ["tid", "item"] =>
            [1, 10], [1, 20], [1, 30],
            [2, 10], [2, 20], [2, 30],
            [3, 10], [3, 20],
            [4, 20], [4, 30],
            [5, 10], [5, 20], [5, 30], [5, 40],
        }
    }

    fn config(counting: SupportCounting) -> AprioriConfig {
        AprioriConfig {
            min_support: 3,
            max_size: 0,
            counting,
        }
    }

    #[test]
    fn finds_expected_itemsets_with_great_divide_counting() {
        let result =
            mine_frequent_itemsets(&transactions(), &config(SupportCounting::GreatDivide)).unwrap();
        assert!(result.contains(&[10]));
        assert!(result.contains(&[20]));
        assert!(result.contains(&[30]));
        assert!(!result.contains(&[40]));
        assert!(result.contains(&[10, 20]));
        assert!(result.contains(&[20, 30]));
        assert!(result.contains(&[10, 30]));
        assert!(result.contains(&[10, 20, 30]));
        assert_eq!(result.of_size(3).len(), 1);
        assert_eq!(result.of_size(3)[0].support, 3);
        assert!(result.iterations >= 3);
        assert!(result.candidates_counted >= 4);
    }

    #[test]
    fn all_counting_strategies_agree() {
        let reference =
            mine_frequent_itemsets(&transactions(), &config(SupportCounting::PerCandidateScan))
                .unwrap();
        let result =
            mine_frequent_itemsets(&transactions(), &config(SupportCounting::GreatDivide)).unwrap();
        assert_eq!(result.itemsets, reference.itemsets);
    }

    #[test]
    fn min_support_above_data_size_yields_nothing() {
        let result = mine_frequent_itemsets(
            &transactions(),
            &AprioriConfig {
                min_support: 100,
                max_size: 0,
                counting: SupportCounting::PerCandidateScan,
            },
        )
        .unwrap();
        assert!(result.itemsets.is_empty());
        assert_eq!(result.iterations, 1);
    }

    #[test]
    fn max_size_caps_the_exploration() {
        let result = mine_frequent_itemsets(
            &transactions(),
            &AprioriConfig {
                min_support: 3,
                max_size: 2,
                counting: SupportCounting::PerCandidateScan,
            },
        )
        .unwrap();
        assert!(result.of_size(3).is_empty());
        assert!(!result.of_size(2).is_empty());
    }

    #[test]
    fn candidate_generation_prunes_infrequent_subsets() {
        // {1,2} and {1,3} frequent but {2,3} not: no candidate {1,2,3}.
        let candidates = generate_candidates(&[vec![1, 2], vec![1, 3]]);
        assert!(candidates.is_empty());
        // With {2,3} present the triple is generated.
        let candidates = generate_candidates(&[vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert_eq!(candidates, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn invalid_transaction_schema_is_reported() {
        let bad = relation! { ["a", "b"] => [1, 1] };
        assert!(mine_frequent_itemsets(&bad, &config(SupportCounting::PerCandidateScan)).is_err());
    }
}
