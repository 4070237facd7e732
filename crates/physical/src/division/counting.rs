//! Counting-based division.
//!
//! The indirect, aggregation-based strategy described by Graefe & Cole (TODS
//! 1995) and reproduced in footnote 1 of the paper:
//!
//! ```text
//! r1 ÷ r2 = π_A( Aγcount(B)→c(r1 ⋉ r2) ⋈ γcount(B)→c(r2) )
//! ```
//!
//! Semi-join the dividend with the divisor, count the surviving `B`-values per
//! quotient candidate, and keep the candidates whose count equals the divisor
//! cardinality. With set semantics the count comparison is exact.

use super::DivisionContext;
use crate::stats::ExecStats;
use crate::Result;
use div_algebra::{Relation, Tuple};
use div_expr::ExprError;
use std::collections::{HashMap, HashSet};

/// Execute counting division.
pub fn divide(
    ctx: &DivisionContext,
    dividend: &Relation,
    divisor: &Relation,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let divisor_set: HashSet<Tuple> = ctx.divisor_b_tuples(divisor).into_iter().collect();
    let divisor_size = divisor_set.len();

    // Semi-join + per-candidate counting in one pass.
    let mut counts: HashMap<Tuple, usize> = HashMap::new();
    let mut probes = 0usize;
    for t in dividend.tuples() {
        probes += 1;
        let a = t.project(&ctx.dividend_a);
        // Make sure every candidate appears even if nothing matches (needed
        // for the empty-divisor case where every candidate qualifies).
        let entry = counts.entry(a).or_insert(0);
        let b = t.project(&ctx.dividend_b);
        if divisor_set.contains(&b) {
            *entry += 1;
        }
    }
    stats.add_probes(probes);

    let mut out = Relation::empty(ctx.output_schema.clone());
    for (candidate, count) in counts {
        if count == divisor_size {
            out.insert(candidate).map_err(ExprError::from)?;
        }
    }
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
    fn counts_are_not_fooled_by_extra_values() {
        // Candidate 1 has extra b-values outside the divisor; they must not
        // inflate its count.
        let dividend = div_algebra::relation! {
            ["a", "b"] =>
            [1, 7], [1, 8], [1, 1],
            [2, 1], [2, 3],
        };
        let divisor = div_algebra::relation! { ["b"] => [1], [3] };
        let ctx = DivisionContext::resolve(&dividend, &divisor).unwrap();
        let mut stats = ExecStats::default();
        let result = divide(&ctx, &dividend, &divisor, &mut stats).unwrap();
        assert_eq!(result, div_algebra::relation! { ["a"] => [2] });
    }

    #[test]
    fn empty_divisor_keeps_every_candidate() {
        let dividend = figure1_dividend();
        let divisor = Relation::empty(div_algebra::Schema::of(["b"]));
        let ctx = DivisionContext::resolve(&dividend, &divisor).unwrap();
        let mut stats = ExecStats::default();
        let result = divide(&ctx, &dividend, &divisor, &mut stats).unwrap();
        assert_eq!(result, dividend.project(&["a"]).unwrap());
    }
}
