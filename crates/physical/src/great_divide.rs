//! Physical algorithms for the great divide.
//!
//! The great divide tests every divisor group (defined by the `C` attributes)
//! against every dividend group (defined by the `A` attributes). Three
//! strategies are provided, mirroring the algorithm families of Rantzau et
//! al. (Information Systems 2003):
//!
//! * [`GreatDivideAlgorithm::GroupLoop`] — the literal reading of
//!   Definition 4: loop over the divisor groups and run a hash-division per
//!   group, tagging each quotient with the group value.
//! * [`GreatDivideAlgorithm::HashSets`] — materialize the `B`-set of every
//!   dividend group and every divisor group once, then run the pairwise
//!   subset tests on the hashed sets.
//! * [`GreatDivideAlgorithm::SortMerge`] — keep both collections of `B`-sets
//!   as sorted vectors and perform merge-based subset tests; group-preserving
//!   in `(A, C)` order.

use crate::division::{self, DivisionAlgorithm};
use crate::stats::ExecStats;
use crate::Result;
use div_algebra::{Relation, Schema, Tuple};
use div_expr::ExprError;
use std::collections::{BTreeMap, HashSet};

/// The available great-divide algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GreatDivideAlgorithm {
    /// One small divide per divisor group (Definition 4 executed literally).
    GroupLoop,
    /// Hash-set based pairwise containment tests.
    HashSets,
    /// Sorted-vector, merge-based containment tests.
    SortMerge,
}

impl GreatDivideAlgorithm {
    /// All algorithms, for exhaustive comparisons.
    pub const ALL: [GreatDivideAlgorithm; 3] = [
        GreatDivideAlgorithm::GroupLoop,
        GreatDivideAlgorithm::HashSets,
        GreatDivideAlgorithm::SortMerge,
    ];

    /// Short display name (used in benchmark output).
    pub fn name(&self) -> &'static str {
        match self {
            GreatDivideAlgorithm::GroupLoop => "group-loop",
            GreatDivideAlgorithm::HashSets => "hash-sets",
            GreatDivideAlgorithm::SortMerge => "sort-merge",
        }
    }
}

/// Pre-resolved attribute information for a great divide.
#[derive(Debug, Clone)]
pub struct GreatDivisionContext {
    /// Quotient attribute names `A`.
    pub quotient_names: Vec<String>,
    /// Shared attribute names `B`.
    pub shared_names: Vec<String>,
    /// Divisor group attribute names `C`.
    pub group_names: Vec<String>,
    dividend_a: Vec<usize>,
    dividend_b: Vec<usize>,
    divisor_b: Vec<usize>,
    divisor_c: Vec<usize>,
    output_schema: Schema,
}

impl GreatDivisionContext {
    /// Resolve the attribute partition for `dividend ÷* divisor`.
    pub fn resolve(dividend: &Relation, divisor: &Relation) -> Result<Self> {
        let attrs = dividend
            .great_division_attributes(divisor)
            .map_err(ExprError::from)?;
        let a_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
        let b_refs: Vec<&str> = attrs.shared.iter().map(String::as_str).collect();
        let c_refs: Vec<&str> = attrs.group.iter().map(String::as_str).collect();
        let dividend_a = dividend
            .schema()
            .projection_indices(&a_refs)
            .map_err(ExprError::from)?;
        let dividend_b = dividend
            .schema()
            .projection_indices(&b_refs)
            .map_err(ExprError::from)?;
        let divisor_b = divisor
            .schema()
            .projection_indices(&b_refs)
            .map_err(ExprError::from)?;
        let divisor_c = divisor
            .schema()
            .projection_indices(&c_refs)
            .map_err(ExprError::from)?;
        let mut out_names: Vec<&str> = a_refs.clone();
        out_names.extend(c_refs.iter().copied());
        let output_schema = Schema::new(out_names).map_err(ExprError::from)?;
        Ok(GreatDivisionContext {
            quotient_names: attrs.quotient,
            shared_names: attrs.shared,
            group_names: attrs.group,
            dividend_a,
            dividend_b,
            divisor_b,
            divisor_c,
            output_schema,
        })
    }

    /// `true` when the divisor has no group attributes `C` (the operator then
    /// degenerates to the small divide).
    pub fn degenerates_to_small_divide(&self) -> bool {
        self.group_names.is_empty()
    }
}

/// Execute `dividend ÷* divisor` with the chosen algorithm.
pub fn great_divide_with(
    dividend: &Relation,
    divisor: &Relation,
    algorithm: GreatDivideAlgorithm,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let ctx = GreatDivisionContext::resolve(dividend, divisor)?;
    if ctx.degenerates_to_small_divide() {
        // Darwen & Date: great divide with C = ∅ is the small divide.
        return division::divide_with(dividend, divisor, DivisionAlgorithm::HashDivision, stats);
    }
    match algorithm {
        GreatDivideAlgorithm::GroupLoop => group_loop(&ctx, dividend, divisor, stats),
        GreatDivideAlgorithm::HashSets => hash_sets(&ctx, dividend, divisor, stats),
        GreatDivideAlgorithm::SortMerge => sort_merge(&ctx, dividend, divisor, stats),
    }
}

fn group_loop(
    ctx: &GreatDivisionContext,
    dividend: &Relation,
    divisor: &Relation,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let mut out = Relation::empty(ctx.output_schema.clone());
    let b_refs: Vec<&str> = ctx.shared_names.iter().map(String::as_str).collect();
    for (c_value, members) in divisor.group_by_indices(&ctx.divisor_c) {
        // Build the per-group divisor relation over B.
        let mut group =
            Relation::empty(divisor.schema().project(&b_refs).map_err(ExprError::from)?);
        for t in &members {
            group
                .insert(t.project(&ctx.divisor_b))
                .map_err(ExprError::from)?;
        }
        stats.record(group.len(), false, false);
        let quotient =
            division::divide_with(dividend, &group, DivisionAlgorithm::HashDivision, stats)?;
        for a_value in quotient.tuples() {
            out.insert(a_value.concat(&c_value))
                .map_err(ExprError::from)?;
        }
    }
    stats.record(out.len(), false, false);
    Ok(out)
}

fn hash_sets(
    ctx: &GreatDivisionContext,
    dividend: &Relation,
    divisor: &Relation,
    stats: &mut ExecStats,
) -> Result<Relation> {
    // Dividend group B-sets.
    let mut dividend_groups: BTreeMap<Tuple, HashSet<Tuple>> = BTreeMap::new();
    for t in dividend.tuples() {
        dividend_groups
            .entry(t.project(&ctx.dividend_a))
            .or_default()
            .insert(t.project(&ctx.dividend_b));
    }
    // Divisor group B-sets.
    let mut divisor_groups: BTreeMap<Tuple, HashSet<Tuple>> = BTreeMap::new();
    for t in divisor.tuples() {
        divisor_groups
            .entry(t.project(&ctx.divisor_c))
            .or_default()
            .insert(t.project(&ctx.divisor_b));
    }
    let mut probes = 0usize;
    let mut out = Relation::empty(ctx.output_schema.clone());
    for (c_value, needed) in &divisor_groups {
        for (a_value, have) in &dividend_groups {
            probes += needed.len();
            if needed.iter().all(|b| have.contains(b)) {
                out.insert(a_value.concat(c_value))
                    .map_err(ExprError::from)?;
            }
        }
    }
    stats.add_probes(probes);
    stats.record(out.len(), false, false);
    Ok(out)
}

fn sort_merge(
    ctx: &GreatDivisionContext,
    dividend: &Relation,
    divisor: &Relation,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let collect_sorted = |groups: BTreeMap<Tuple, Vec<Tuple>>| -> Vec<(Tuple, Vec<Tuple>)> {
        groups
            .into_iter()
            .map(|(k, mut v)| {
                v.sort();
                v.dedup();
                (k, v)
            })
            .collect()
    };
    let mut dividend_groups: BTreeMap<Tuple, Vec<Tuple>> = BTreeMap::new();
    for t in dividend.tuples() {
        dividend_groups
            .entry(t.project(&ctx.dividend_a))
            .or_default()
            .push(t.project(&ctx.dividend_b));
    }
    let mut divisor_groups: BTreeMap<Tuple, Vec<Tuple>> = BTreeMap::new();
    for t in divisor.tuples() {
        divisor_groups
            .entry(t.project(&ctx.divisor_c))
            .or_default()
            .push(t.project(&ctx.divisor_b));
    }
    let dividend_sorted = collect_sorted(dividend_groups);
    let divisor_sorted = collect_sorted(divisor_groups);

    let mut probes = 0usize;
    let mut out = Relation::empty(ctx.output_schema.clone());
    for (c_value, needed) in &divisor_sorted {
        for (a_value, have) in &dividend_sorted {
            // Merge-based subset test over two sorted vectors.
            let mut hi = 0usize;
            let mut contained = true;
            for n in needed {
                probes += 1;
                while hi < have.len() && &have[hi] < n {
                    hi += 1;
                }
                if hi >= have.len() || &have[hi] != n {
                    contained = false;
                    break;
                }
            }
            if contained {
                out.insert(a_value.concat(c_value))
                    .map_err(ExprError::from)?;
            }
        }
    }
    stats.add_probes(probes);
    stats.record(out.len(), false, false);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn figure2_inputs() -> (Relation, Relation) {
        (
            relation! {
                ["a", "b"] =>
                [1, 1], [1, 4],
                [2, 1], [2, 2], [2, 3], [2, 4],
                [3, 1], [3, 3], [3, 4],
            },
            relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] },
        )
    }

    #[test]
    fn all_algorithms_agree_on_figure_2() {
        let (dividend, divisor) = figure2_inputs();
        let expected = relation! { ["a", "c"] => [2, 1], [2, 2], [3, 2] };
        for algorithm in GreatDivideAlgorithm::ALL {
            let mut stats = ExecStats::default();
            let result = great_divide_with(&dividend, &divisor, algorithm, &mut stats).unwrap();
            assert_eq!(result, expected, "algorithm {}", algorithm.name());
        }
    }

    #[test]
    fn all_algorithms_agree_on_the_mining_workload() {
        // Transactions ÷* candidate itemsets (Section 3).
        let transactions = relation! {
            ["tid", "item"] =>
            [1, 10], [1, 20], [1, 30],
            [2, 10], [2, 30],
            [3, 20], [3, 30],
            [4, 10], [4, 20], [4, 30], [4, 40],
        };
        let candidates = relation! {
            ["item", "itemset"] =>
            [10, 1], [30, 1],
            [20, 2], [30, 2],
            [40, 3],
        };
        let expected = transactions.great_divide(&candidates).unwrap();
        for algorithm in GreatDivideAlgorithm::ALL {
            let mut stats = ExecStats::default();
            let result =
                great_divide_with(&transactions, &candidates, algorithm, &mut stats).unwrap();
            assert_eq!(result, expected, "algorithm {}", algorithm.name());
        }
    }

    #[test]
    fn degenerate_divisor_without_group_attributes_is_small_divide() {
        let dividend = relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1] };
        let divisor = relation! { ["b"] => [1], [2] };
        for algorithm in GreatDivideAlgorithm::ALL {
            let mut stats = ExecStats::default();
            let result = great_divide_with(&dividend, &divisor, algorithm, &mut stats).unwrap();
            assert_eq!(result, relation! { ["a"] => [1] });
        }
    }

    #[test]
    fn empty_divisor_produces_empty_quotient() {
        let (dividend, _) = figure2_inputs();
        let divisor = Relation::empty(Schema::of(["b", "c"]));
        for algorithm in GreatDivideAlgorithm::ALL {
            let mut stats = ExecStats::default();
            let result = great_divide_with(&dividend, &divisor, algorithm, &mut stats).unwrap();
            assert!(result.is_empty(), "algorithm {}", algorithm.name());
        }
    }

    #[test]
    fn invalid_schemas_are_rejected() {
        let dividend = relation! { ["a", "b"] => [1, 1] };
        let disjoint = relation! { ["x", "y"] => [1, 1] };
        let mut stats = ExecStats::default();
        assert!(great_divide_with(
            &dividend,
            &disjoint,
            GreatDivideAlgorithm::HashSets,
            &mut stats
        )
        .is_err());
    }
}
