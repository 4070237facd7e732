//! Sort-merge division: the order-based member of the paper's algorithm
//! family — Graefe's merge-sort division (ICDE 1989) and the sort-merge great
//! divide of Rantzau et al. (Information Systems 2003) — as row functions
//! over whole relations.
//!
//! Both inputs are grouped and sorted: the dividend's `B`-values per `A`
//! group, the divisor's per `C` group. Every (divisor group, dividend group)
//! pair is tested for containment by merging the two sorted runs. The small
//! divide is the great divide with a single divisor group, the whole divisor,
//! so both share one loop. Quotient rows come out group by group in sorted
//! order, the property the pipelined evaluation of Law 1 relies on.
//!
//! No executor runs these functions: the streaming divide is Graefe's
//! hash-division. They stand in for an order-aware streaming operator until
//! one exists. The other members of the family are plans
//! (`div_expr::division`) that the streaming executor runs.

use crate::Result;
use div_algebra::{DivisionPartition, Relation, Tuple};
use div_expr::ExprError;
use std::collections::BTreeMap;

/// `dividend ÷ divisor` by merge-sort division.
pub fn divide(dividend: &Relation, divisor: &Relation) -> Result<Relation> {
    let partition = dividend.schema().divide_partition(divisor.schema());
    merge_divide(dividend, divisor, &partition.map_err(ExprError::from)?)
}

/// `dividend ÷* divisor` by sort-merge containment tests, one per pair of
/// divisor group and dividend group. A divisor without group attributes `C`
/// makes it the small divide.
pub fn great_divide(dividend: &Relation, divisor: &Relation) -> Result<Relation> {
    let partition = dividend.schema().great_divide_partition(divisor.schema());
    merge_divide(dividend, divisor, &partition.map_err(ExprError::from)?)
}

fn merge_divide(
    dividend: &Relation,
    divisor: &Relation,
    partition: &DivisionPartition,
) -> Result<Relation> {
    let (a, b, c) = (&partition.quotient, &partition.shared, &partition.group);
    let dividend_groups = sorted_runs(dividend, a, b)?;
    let mut divisor_groups = sorted_runs(divisor, c, b)?;
    if c.is_empty() {
        // The small divide: one divisor group, even when the divisor is
        // empty (then every dividend group qualifies).
        divisor_groups.entry(Tuple::empty()).or_default();
    }
    let mut out = Relation::empty(partition.output());
    for (c_value, needed) in &divisor_groups {
        for (a_value, have) in &dividend_groups {
            // Merge-based subset test over two sorted runs.
            let mut hi = 0usize;
            let contained = needed.iter().all(|n| {
                while hi < have.len() && &have[hi] < n {
                    hi += 1;
                }
                hi < have.len() && &have[hi] == n
            });
            if contained {
                out.insert(a_value.concat(c_value))
                    .map_err(ExprError::from)?;
            }
        }
    }
    Ok(out)
}

/// The sorted `value` attributes of `relation`, one run per `key` group.
/// Both inputs of a division consist of exactly their key and value
/// attributes, so a set holds no repeated (key, value) pair.
fn sorted_runs(
    relation: &Relation,
    key: &[String],
    value: &[String],
) -> Result<BTreeMap<Tuple, Vec<Tuple>>> {
    let indices = |names: &[String]| {
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        relation
            .schema()
            .projection_indices(&refs)
            .map_err(ExprError::from)
    };
    let (key, value) = (indices(key)?, indices(value)?);
    let mut runs: BTreeMap<Tuple, Vec<Tuple>> = BTreeMap::new();
    for t in relation.tuples() {
        runs.entry(t.project(&key))
            .or_default()
            .push(t.project(&value));
    }
    for run in runs.values_mut() {
        run.sort_unstable();
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::{relation, Schema};

    fn figure1_dividend() -> Relation {
        relation! {
            ["a", "b"] =>
            [1, 1], [1, 4],
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
        }
    }

    #[test]
    fn matches_reference_on_figures_1_and_2() {
        let small = divide(&figure1_dividend(), &relation! { ["b"] => [1], [3] }).unwrap();
        assert_eq!(small, relation! { ["a"] => [2], [3] });
        let divisor = relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] };
        let great = great_divide(&figure1_dividend(), &divisor).unwrap();
        assert_eq!(great, relation! { ["a", "c"] => [2, 1], [2, 2], [3, 2] });
    }

    #[test]
    fn empty_divisor_keeps_every_group_but_has_no_divisor_group() {
        let empty_b = Relation::empty(Schema::of(["b"]));
        let all = divide(&figure1_dividend(), &empty_b).unwrap();
        assert_eq!(all, figure1_dividend().project(&["a"]).unwrap());
        let degenerate = great_divide(&figure1_dividend(), &empty_b).unwrap();
        assert_eq!(degenerate, all);
        let empty_bc = Relation::empty(Schema::of(["b", "c"]));
        let none = great_divide(&figure1_dividend(), &empty_bc).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn invalid_schemas_are_rejected() {
        let disjoint = relation! { ["x", "y"] => [1, 1] };
        assert!(divide(&figure1_dividend(), &disjoint).is_err());
        assert!(great_divide(&figure1_dividend(), &disjoint).is_err());
    }
}
