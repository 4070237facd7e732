//! Section 5.1.1 — union laws for the small divide (Laws 1 and 2).

use crate::context::RewriteContext;
use crate::preconditions;
use crate::rule::RewriteRule;
use crate::Result;
use div_expr::LogicalPlan;

/// **Law 1**: `r1 ÷ (r'2 ∪ r''2) = (r1 ⋉ (r1 ÷ r'2)) ÷ r''2`.
///
/// Applied left-to-right: when the divisor is a union of two partitions (which
/// may overlap, as Figure 4 shows), divide by the first partition, use the
/// intermediate quotient to shrink the dividend with a semi-join, and divide
/// the rest by the second partition. The paper motivates this as a
/// pipeline-parallel strategy for group-preserving division algorithms.
pub struct Law1DivisorUnionToPipeline;

impl RewriteRule for Law1DivisorUnionToPipeline {
    fn name(&self) -> &'static str {
        "law-01-divisor-union-pipeline"
    }

    fn reference(&self) -> &'static str {
        "Law 1, Section 5.1.1"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Union { left, right } = divisor.as_ref() else {
            return Ok(None);
        };
        // Validate that both halves are usable divisors for this dividend.
        if ctx.divide_partition(dividend, left).is_none()
            || ctx.divide_partition(dividend, right).is_none()
        {
            return Ok(None);
        }
        let inner_quotient = LogicalPlan::SmallDivide {
            dividend: dividend.clone(),
            divisor: left.clone(),
        };
        let shrunk_dividend = LogicalPlan::SemiJoin {
            left: dividend.clone(),
            right: Box::new(inner_quotient),
        };
        Ok(Some(LogicalPlan::SmallDivide {
            dividend: Box::new(shrunk_dividend),
            divisor: right.clone(),
        }))
    }
}

/// **Law 2**: `(r'1 ∪ r''1) ÷ r2 = (r'1 ÷ r2) ∪ (r''1 ÷ r2)` provided
/// condition `c1(r'1, r''1)` holds.
///
/// Applied left-to-right: when the dividend is a union of partitions that
/// satisfy the precondition, divide each partition independently — the
/// degree-n parallel strategy of Section 5.1.1. Because testing `c1` "can be
/// expensive", the rule follows the paper's advice and checks the stricter
/// condition `c2` (disjoint quotient prefixes) first, falling back to the full
/// `c1` test; both require data access, so the rule only fires when the
/// context allows data checks.
pub struct Law2DividendUnionSplit;

impl RewriteRule for Law2DividendUnionSplit {
    fn name(&self) -> &'static str {
        "law-02-dividend-union-split"
    }

    fn reference(&self) -> &'static str {
        "Law 2, Section 5.1.1 (preconditions c1/c2)"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Union { left, right } = dividend.as_ref() else {
            return Ok(None);
        };
        if ctx.divide_partition(left, divisor).is_none()
            || ctx.divide_partition(right, divisor).is_none()
        {
            return Ok(None);
        }
        // Data-dependent precondition.
        let (Some(left_rel), Some(right_rel), Some(divisor_rel)) = (
            ctx.try_evaluate(left)?,
            ctx.try_evaluate(right)?,
            ctx.try_evaluate(divisor)?,
        ) else {
            return Ok(None);
        };
        let c2_holds = preconditions::c2(&left_rel, &right_rel, &divisor_rel)
            .map_err(div_expr::ExprError::from)?;
        let holds = c2_holds
            || preconditions::c1(&left_rel, &right_rel, &divisor_rel)
                .map_err(div_expr::ExprError::from)?;
        if !holds {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::Union {
            left: Box::new(LogicalPlan::SmallDivide {
                dividend: left.clone(),
                divisor: divisor.clone(),
            }),
            right: Box::new(LogicalPlan::SmallDivide {
                dividend: right.clone(),
                divisor: divisor.clone(),
            }),
        }))
    }
}

/// Split a dividend plan into `n` union branches by range-partitioning on the
/// first quotient attribute, so that Law 2 (under `c2`) applies by
/// construction. Returns `None` when the partition bounds cannot be derived
/// (no data access) or `n < 2`.
///
/// This is the "two parallel scans over an index on A" strategy the paper
/// sketches, expressed as a plan: each branch is `σ_{lo ≤ a < hi}(dividend)`.
pub fn partition_dividend_for_law2(
    dividend: &LogicalPlan,
    divisor: &LogicalPlan,
    n: usize,
    ctx: &RewriteContext<'_>,
) -> Result<Option<LogicalPlan>> {
    use div_algebra::{CompareOp, Predicate, Value};
    if n < 2 {
        return Ok(None);
    }
    let Some(attrs) = ctx.divide_partition(dividend, divisor) else {
        return Ok(None);
    };
    let Some(dividend_rel) = ctx.try_evaluate(dividend)? else {
        return Ok(None);
    };
    let first_a = &attrs.quotient[0];
    let values: Vec<Value> = dividend_rel
        .column(first_a)
        .map_err(div_expr::ExprError::from)?
        .into_iter()
        .collect();
    if values.len() < n {
        return Ok(None);
    }
    // Range bounds at equi-depth positions over the sorted distinct values.
    let mut branches: Vec<LogicalPlan> = Vec::with_capacity(n);
    let chunk = values.len().div_ceil(n);
    for i in 0..n {
        let lo = i * chunk;
        if lo >= values.len() {
            break;
        }
        let hi = ((i + 1) * chunk).min(values.len());
        let lower = &values[lo];
        let mut predicate = Predicate::cmp_value(first_a.clone(), CompareOp::GtEq, lower.clone());
        if hi < values.len() {
            let upper = &values[hi];
            predicate = predicate.and(Predicate::cmp_value(
                first_a.clone(),
                CompareOp::Lt,
                upper.clone(),
            ));
        }
        branches.push(LogicalPlan::Select {
            input: Box::new(dividend.clone()),
            predicate,
        });
    }
    let mut iter = branches.into_iter();
    let first = iter.next().expect("n >= 2 guarantees at least one branch");
    let unioned = iter.fold(first, |acc, branch| LogicalPlan::Union {
        left: Box::new(acc),
        right: Box::new(branch),
    });
    Ok(Some(LogicalPlan::SmallDivide {
        dividend: Box::new(unioned),
        divisor: Box::new(divisor.clone()),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;
    use div_expr::{evaluate, Catalog, PlanBuilder};

    fn figure4_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "r1",
            relation! {
                ["a", "b"] =>
                [1, 1], [1, 4],
                [2, 1], [2, 2], [2, 3], [2, 4],
                [3, 1], [3, 3], [3, 4],
                [4, 1], [4, 3],
            },
        );
        c.register("r2_prime", relation! { ["b"] => [1], [3] });
        c
    }

    #[test]
    fn law1_ignores_non_union_divisors() {
        let catalog = figure4_catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2_prime"))
            .build();
        assert!(Law1DivisorUnionToPipeline
            .apply(&plan, &ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn partitioning_helper_builds_equivalent_plan() {
        let catalog = figure4_catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let dividend = PlanBuilder::scan("r1").build();
        let divisor = PlanBuilder::scan("r2_prime").build();
        let partitioned = partition_dividend_for_law2(&dividend, &divisor, 2, &ctx)
            .unwrap()
            .expect("partitioning should succeed");
        let original = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2_prime"))
            .build();
        assert_eq!(
            evaluate(&partitioned, &catalog).unwrap(),
            evaluate(&original, &catalog).unwrap()
        );
        // After partitioning, Law 2 fires (the branches are range-disjoint).
        let rewritten = Law2DividendUnionSplit.apply(&partitioned, &ctx).unwrap();
        assert!(rewritten.is_some());
    }
}
