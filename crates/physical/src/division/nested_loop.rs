//! Naive nested-loop division.
//!
//! For every quotient candidate (distinct `A`-value of the dividend) and every
//! divisor tuple, scan the dividend for a witness tuple. No preprocessing, no
//! auxiliary memory beyond the candidate list — and `O(|A| · |r2| · |r1|)`
//! probes, which is why the paper's cited algorithm studies treat it as the
//! baseline special-purpose operator.

use super::DivisionContext;
use crate::stats::ExecStats;
use crate::Result;
use div_algebra::{Relation, Tuple};
use div_expr::ExprError;

/// Execute the division by brute-force probing.
pub fn divide(
    ctx: &DivisionContext,
    dividend: &Relation,
    divisor: &Relation,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let divisor_tuples = ctx.divisor_b_tuples(divisor);
    // Distinct quotient candidates.
    let candidates: Vec<Tuple> = {
        let mut c: Vec<Tuple> = dividend
            .tuples()
            .map(|t| t.project(&ctx.dividend_a))
            .collect();
        c.sort();
        c.dedup();
        c
    };

    let mut out = Relation::empty(ctx.output_schema.clone());
    let mut probes = 0usize;
    'candidates: for candidate in candidates {
        for required in &divisor_tuples {
            // Scan the dividend for a tuple matching (candidate, required).
            let mut found = false;
            for t in dividend.tuples() {
                probes += 1;
                if t.project(&ctx.dividend_a) == candidate
                    && &t.project(&ctx.dividend_b) == required
                {
                    found = true;
                    break;
                }
            }
            if !found {
                continue 'candidates;
            }
        }
        out.insert(candidate).map_err(ExprError::from)?;
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
        assert!(stats.probes > 0);
    }

    #[test]
    fn probe_count_grows_with_all_three_factors() {
        let (d1, v1) = synthetic(10, 4);
        let (d2, v2) = synthetic(20, 8);
        let ctx1 = DivisionContext::resolve(&d1, &v1).unwrap();
        let ctx2 = DivisionContext::resolve(&d2, &v2).unwrap();
        let mut s1 = ExecStats::default();
        let mut s2 = ExecStats::default();
        divide(&ctx1, &d1, &v1, &mut s1).unwrap();
        divide(&ctx2, &d2, &v2, &mut s2).unwrap();
        assert!(s2.probes > 4 * s1.probes, "{} vs {}", s2.probes, s1.probes);
    }
}
