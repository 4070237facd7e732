//! Merge-sort (sort-based) division.
//!
//! Sort the dividend on `(A, B)` and the divisor on `B`, then merge: for each
//! dividend group (run of equal `A`-values) walk the group and the sorted
//! divisor in lockstep; the group qualifies when every divisor value is
//! matched. The algorithm is *group-preserving* — quotient tuples are emitted
//! in sorted `A` order as soon as their group ends — which is exactly the
//! property the paper exploits for the pipelined evaluation of Law 1.

use super::DivisionContext;
use crate::stats::ExecStats;
use crate::Result;
use div_algebra::{Relation, Tuple};
use div_expr::ExprError;

/// Execute merge-sort division.
pub fn divide(
    ctx: &DivisionContext,
    dividend: &Relation,
    divisor: &Relation,
    stats: &mut ExecStats,
) -> Result<Relation> {
    // "Sort" phase: project to (A, B) pairs and sort lexicographically.
    let mut pairs: Vec<(Tuple, Tuple)> = dividend
        .tuples()
        .map(|t| (t.project(&ctx.dividend_a), t.project(&ctx.dividend_b)))
        .collect();
    pairs.sort();
    pairs.dedup();
    let divisor_sorted = ctx.divisor_b_tuples(divisor); // already sorted + deduped

    let mut out = Relation::empty(ctx.output_schema.clone());
    let mut probes = 0usize;

    let mut i = 0;
    while i < pairs.len() {
        let group_key = pairs[i].0.clone();
        // Merge this group's B-run against the sorted divisor.
        let mut matched = 0usize;
        let mut d = 0usize;
        while i < pairs.len() && pairs[i].0 == group_key {
            probes += 1;
            let b = &pairs[i].1;
            while d < divisor_sorted.len() && &divisor_sorted[d] < b {
                d += 1;
            }
            if d < divisor_sorted.len() && &divisor_sorted[d] == b {
                matched += 1;
                d += 1;
            }
            i += 1;
        }
        if matched == divisor_sorted.len() {
            out.insert(group_key).map_err(ExprError::from)?;
        }
    }
    stats.add_probes(probes);
    stats.record(out.len(), false, false);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::DivisionContext;
    use super::*;

    #[test]
    fn matches_reference_on_figure_1() {
        let dividend = figure1_dividend();
        let divisor = figure1_divisor();
        let ctx = DivisionContext::resolve(&dividend, &divisor).unwrap();
        let mut stats = ExecStats::default();
        let result = divide(&ctx, &dividend, &divisor, &mut stats).unwrap();
        assert_eq!(result, figure1_quotient());
    }

    #[test]
    fn quotient_is_emitted_in_sorted_group_order() {
        let (dividend, divisor) = synthetic(12, 5);
        let ctx = DivisionContext::resolve(&dividend, &divisor).unwrap();
        let mut stats = ExecStats::default();
        let result = divide(&ctx, &dividend, &divisor, &mut stats).unwrap();
        let values: Vec<_> = result.tuples().cloned().collect();
        let mut sorted = values.clone();
        sorted.sort();
        assert_eq!(values, sorted);
        assert_eq!(result, dividend.divide(&divisor).unwrap());
    }

    #[test]
    fn handles_divisor_values_missing_from_a_group() {
        let dividend = div_algebra::relation! { ["a", "b"] => [1, 5], [2, 5], [2, 9] };
        let divisor = div_algebra::relation! { ["b"] => [5], [9] };
        let ctx = DivisionContext::resolve(&dividend, &divisor).unwrap();
        let mut stats = ExecStats::default();
        let result = divide(&ctx, &dividend, &divisor, &mut stats).unwrap();
        assert_eq!(result, div_algebra::relation! { ["a"] => [2] });
    }
}
