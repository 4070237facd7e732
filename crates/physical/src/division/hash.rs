//! Graefe's hash-division.
//!
//! The classic special-purpose algorithm (Graefe, ICDE 1989): build a hash
//! table over the divisor assigning each divisor tuple a dense index, then
//! scan the dividend exactly once. For every dividend tuple whose `B`-value is
//! a divisor member, look up (or create) the bitmap of its quotient candidate
//! and set the corresponding bit. Candidates whose bitmap is full at the end
//! form the quotient. One pass over each input, memory proportional to
//! `|r2| + |candidates| · |r2|` bits.

use super::DivisionContext;
use crate::stats::ExecStats;
use crate::Result;
use div_algebra::{Relation, Tuple};
use div_expr::ExprError;
use std::collections::HashMap;

/// Execute hash-division.
pub fn divide(
    ctx: &DivisionContext,
    dividend: &Relation,
    divisor: &Relation,
    stats: &mut ExecStats,
) -> Result<Relation> {
    // Divisor hash table: B-tuple -> dense bit index.
    let divisor_tuples = ctx.divisor_b_tuples(divisor);
    let divisor_index: HashMap<&Tuple, usize> = divisor_tuples
        .iter()
        .enumerate()
        .map(|(i, t)| (t, i))
        .collect();
    let divisor_size = divisor_index.len();

    // Quotient candidate table: A-tuple -> bitmap of seen divisor members.
    let mut candidates: HashMap<Tuple, (Vec<bool>, usize)> = HashMap::new();
    let mut probes = 0usize;
    for t in dividend.tuples() {
        probes += 1;
        let a = t.project(&ctx.dividend_a);
        let entry = candidates
            .entry(a)
            .or_insert_with(|| (vec![false; divisor_size], 0));
        if divisor_size == 0 {
            continue;
        }
        let b = t.project(&ctx.dividend_b);
        if let Some(&idx) = divisor_index.get(&b) {
            if !entry.0[idx] {
                entry.0[idx] = true;
                entry.1 += 1;
            }
        }
    }
    stats.add_probes(probes);

    let mut out = Relation::empty(ctx.output_schema.clone());
    for (candidate, (_bitmap, count)) in candidates {
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
    fn single_pass_over_the_dividend() {
        let (dividend, divisor) = synthetic(30, 8);
        let ctx = DivisionContext::resolve(&dividend, &divisor).unwrap();
        let mut stats = ExecStats::default();
        divide(&ctx, &dividend, &divisor, &mut stats).unwrap();
        // Exactly one probe per dividend tuple.
        assert_eq!(stats.probes, dividend.len());
    }

    #[test]
    fn duplicate_divisor_hits_are_counted_once() {
        // A dividend group that contains the same B value twice (under
        // different representation this cannot happen with set semantics, but
        // the bitmap logic must still count each divisor member once).
        let dividend = div_algebra::relation! {
            ["a", "b", "c"] =>
            [1, 1, 10], [1, 1, 20], [1, 2, 10],
        };
        let divisor = div_algebra::relation! { ["b"] => [1], [2] };
        let ctx = DivisionContext::resolve(&dividend, &divisor).unwrap();
        let mut stats = ExecStats::default();
        let result = divide(&ctx, &dividend, &divisor, &mut stats).unwrap();
        // Quotient attributes are (a, c): (1,10) has b∈{1,2} ✓, (1,20) only b=1.
        assert_eq!(result, div_algebra::relation! { ["a", "c"] => [1, 10] });
    }
}
