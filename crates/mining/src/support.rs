//! Support counting strategies.

use div_algebra::{AggregateCall, Relation, Value};
use div_expr::{Catalog, ExprError, PlanBuilder};
use div_physical::{ExecStats, PlannerConfig, StreamExecutor};
use std::collections::{BTreeMap, BTreeSet};

/// How to count candidate supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupportCounting {
    /// One great divide of `transactions(tid, item)` by
    /// `candidates(item, itemset)` followed by a group count — the strategy
    /// Section 3 of the paper advocates — run as one plan on the streaming
    /// executor.
    GreatDivide,
    /// The SQL-style baseline: for each candidate itemset, a k-way
    /// self-join-like containment test per transaction (implemented as a scan
    /// over per-transaction item sets), counting matches candidate by
    /// candidate.
    PerCandidateScan,
}

impl SupportCounting {
    /// Short display name for benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            SupportCounting::GreatDivide => "great-divide",
            SupportCounting::PerCandidateScan => "per-candidate-scan",
        }
    }
}

/// Count, for every candidate itemset, the number of transactions containing
/// all of its items.
///
/// * `transactions` must have schema `(tid, item)`.
/// * `candidates` maps a candidate id to its item list.
///
/// Returns a map from candidate id to support count, plus execution
/// statistics for the chosen strategy.
pub fn count_support(
    transactions: &Relation,
    candidates: &BTreeMap<i64, Vec<i64>>,
    strategy: SupportCounting,
) -> Result<(BTreeMap<i64, usize>, ExecStats), ExprError> {
    match strategy {
        SupportCounting::GreatDivide => count_with_great_divide(transactions, candidates),
        SupportCounting::PerCandidateScan => count_with_scan(transactions, candidates),
    }
}

/// Build the vertical `candidates(item, itemset)` relation of Section 3.
pub fn candidates_to_relation(candidates: &BTreeMap<i64, Vec<i64>>) -> Result<Relation, ExprError> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for (id, items) in candidates {
        for item in items {
            rows.push(vec![Value::Int(*item), Value::Int(*id)]);
        }
    }
    Relation::from_rows(["item", "itemset"], rows).map_err(ExprError::from)
}

fn count_with_great_divide(
    transactions: &Relation,
    candidates: &BTreeMap<i64, Vec<i64>>,
) -> Result<(BTreeMap<i64, usize>, ExecStats), ExprError> {
    if candidates.is_empty() {
        return Ok((BTreeMap::new(), ExecStats::default()));
    }
    // support(itemset, n) = γ_{itemset; count(tid)→n}(transactions ÷* candidates).
    let plan = PlanBuilder::values(transactions.clone())
        .great_divide(PlanBuilder::values(candidates_to_relation(candidates)?))
        .group_aggregate(["itemset"], [AggregateCall::count("tid", "n")])
        .build();
    let config = PlannerConfig::default();
    let catalog = Catalog::new();
    let mut stream = StreamExecutor::new(&plan, &catalog, &config)?;
    let mut out: BTreeMap<i64, usize> = candidates.keys().map(|id| (*id, 0)).collect();
    while let Some(batch) = stream.next_batch()? {
        for row in 0..batch.num_rows() {
            let t = batch.row(row);
            let id = t.values()[0].as_int().expect("itemset ids are integers");
            let n = t.values()[1].as_int().expect("counts are integers") as usize;
            out.insert(id, n);
        }
    }
    Ok((out, stream.finish()))
}

fn count_with_scan(
    transactions: &Relation,
    candidates: &BTreeMap<i64, Vec<i64>>,
) -> Result<(BTreeMap<i64, usize>, ExecStats), ExprError> {
    let mut stats = ExecStats::default();
    // Materialize each transaction's item set.
    let mut baskets: BTreeMap<i64, BTreeSet<i64>> = BTreeMap::new();
    for t in transactions.tuples() {
        let tid = t.values()[0].as_int().expect("tid is an integer");
        let item = t.values()[1].as_int().expect("item is an integer");
        baskets.entry(tid).or_default().insert(item);
    }
    stats.record(baskets.len(), false, false);
    let mut out: BTreeMap<i64, usize> = BTreeMap::new();
    let mut probes = 0usize;
    for (id, items) in candidates {
        let mut count = 0usize;
        for basket in baskets.values() {
            probes += items.len();
            if items.iter().all(|i| basket.contains(i)) {
                count += 1;
            }
        }
        out.insert(*id, count);
    }
    stats.add_probes(probes);
    stats.record(out.len(), false, false);
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn transactions() -> Relation {
        relation! {
            ["tid", "item"] =>
            [1, 10], [1, 20], [1, 30],
            [2, 10], [2, 30],
            [3, 20], [3, 30],
            [4, 10], [4, 20], [4, 30], [4, 40],
        }
    }

    fn candidates() -> BTreeMap<i64, Vec<i64>> {
        BTreeMap::from([
            (0, vec![10, 30]),
            (1, vec![20, 30]),
            (2, vec![40]),
            (3, vec![10, 20, 30]),
            (4, vec![99]),
        ])
    }

    #[test]
    fn all_strategies_agree_on_support_counts() {
        let expected = BTreeMap::from([(0i64, 3usize), (1, 3), (2, 1), (3, 2), (4, 0)]);
        let transactions = transactions();
        let candidates = candidates();
        for strategy in [
            SupportCounting::PerCandidateScan,
            SupportCounting::GreatDivide,
        ] {
            let (counts, _) = count_support(&transactions, &candidates, strategy).unwrap();
            assert_eq!(counts, expected, "strategy {}", strategy.name());
        }
    }

    #[test]
    fn mixed_size_candidates_are_counted_in_one_pass() {
        // The paper highlights that the great divide does not require all
        // candidates to have the same size k.
        let (counts, _) =
            count_support(&transactions(), &candidates(), SupportCounting::GreatDivide).unwrap();
        assert_eq!(counts[&2], 1); // singleton
        assert_eq!(counts[&3], 2); // triple
    }

    #[test]
    fn great_divide_counting_reports_the_executed_plan() {
        let (_, stats) =
            count_support(&transactions(), &candidates(), SupportCounting::GreatDivide).unwrap();
        let labels: Vec<&str> = stats.operators.iter().map(|op| op.label.as_str()).collect();
        assert!(labels.contains(&"GreatDivide[hash]"), "{labels:?}");
        assert!(labels.contains(&"HashAggregate(itemset)"), "{labels:?}");
        assert!(stats.probes > 0);
    }

    #[test]
    fn empty_candidates_yield_empty_counts() {
        let (counts, _) = count_support(
            &transactions(),
            &BTreeMap::new(),
            SupportCounting::GreatDivide,
        )
        .unwrap();
        assert!(counts.is_empty());
    }

    #[test]
    fn candidates_relation_has_vertical_layout() {
        let rel = candidates_to_relation(&candidates()).unwrap();
        assert_eq!(rel.schema().names(), vec!["item", "itemset"]);
        assert_eq!(rel.len(), 9);
    }
}
