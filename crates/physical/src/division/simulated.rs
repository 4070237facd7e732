//! Division simulated with basic relational operators.
//!
//! This is the *negative baseline*: Healy's Definition 2,
//! `r1 ÷ r2 = π_A(r1) − π_A((π_A(r1) × r2) − r1)`, executed literally with the
//! basic set operators. The Cartesian product `π_A(r1) × r2` materializes
//! `|π_A(r1)| · |r2|` tuples regardless of the result size — the quadratic
//! intermediate result that Leinders & Van den Bussche prove is unavoidable
//! for *any* basic-algebra simulation, and the reason the paper insists that
//! division be a first-class operator. The executor records those
//! intermediate sizes so the benchmarks (experiment E1) can plot the blow-up.

use super::DivisionContext;
use crate::stats::ExecStats;
use crate::Result;
use div_algebra::Relation;
use div_expr::ExprError;

/// Execute the basic-operator simulation.
pub fn divide(
    ctx: &DivisionContext,
    dividend: &Relation,
    divisor: &Relation,
    stats: &mut ExecStats,
) -> Result<Relation> {
    let quotient_refs: Vec<&str> = ctx.quotient_names.iter().map(String::as_str).collect();
    // π_A(r1)
    let candidates = dividend.project(&quotient_refs).map_err(ExprError::from)?;
    stats.record(candidates.len(), false, false);

    // π_A(r1) × r2  — the quadratic step.
    let all_pairs = candidates.product(divisor).map_err(ExprError::from)?;
    stats.record(all_pairs.len(), false, false);

    // (π_A(r1) × r2) − r1
    let conformed_dividend = dividend
        .conform_to(all_pairs.schema())
        .map_err(ExprError::from)?;
    let missing = all_pairs
        .difference(&conformed_dividend)
        .map_err(ExprError::from)?;
    stats.record(missing.len(), false, false);

    // π_A(...)
    let disqualified = missing.project(&quotient_refs).map_err(ExprError::from)?;
    stats.record(disqualified.len(), false, false);

    // π_A(r1) − π_A(...)
    let result = candidates
        .difference(&disqualified)
        .map_err(ExprError::from)?;
    stats.record(result.len(), false, false);
    Ok(result)
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
    fn intermediate_size_is_candidates_times_divisor() {
        let (dividend, divisor) = synthetic(40, 10);
        let ctx = DivisionContext::resolve(&dividend, &divisor).unwrap();
        let mut stats = ExecStats::default();
        divide(&ctx, &dividend, &divisor, &mut stats).unwrap();
        let candidates = dividend.project(&["a"]).unwrap().len();
        // `π_A(r1) × r2` is the largest intermediate, and it dwarfs the
        // actual quotient.
        assert_eq!(stats.max_intermediate, candidates * divisor.len());
    }
}
