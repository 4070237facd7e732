//! Sections 5.1.3 and 5.1.4 — intersection and difference laws for the small
//! divide (Laws 5, 6 and 7).

use super::helpers::{divisor_known_nonempty, refs};
use crate::context::RewriteContext;
use crate::preconditions;
use crate::rule::RewriteRule;
use crate::Result;
use div_expr::{ExprError, LogicalPlan};

/// **Law 5**: `(r'1 ∩ r''1) ÷ r2 = (r'1 ÷ r2) ∩ (r''1 ÷ r2)`.
///
/// Applied left-to-right: a division whose dividend is an intersection is
/// split into an intersection of two (typically much cheaper, independently
/// executable) divisions. The law fails on an empty divisor, so the rule
/// fires only when the data shows `r2` non-empty.
pub struct Law5IntersectionSplit;

impl RewriteRule for Law5IntersectionSplit {
    fn name(&self) -> &'static str {
        "law-05-intersection-split"
    }

    fn reference(&self) -> &'static str {
        "Law 5, Section 5.1.3"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Intersect { left, right } = dividend.as_ref() else {
            return Ok(None);
        };
        if ctx.divide_partition(left, divisor).is_none()
            || ctx.divide_partition(right, divisor).is_none()
        {
            return Ok(None);
        }
        // With r2 = ∅ the law does not hold.
        if !divisor_known_nonempty(ctx, divisor)? {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::Intersect {
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

/// **Law 6**: if `r'1 = σ_{p'(A)}(r1) ⊇ σ_{p''(A)}(r1) = r''1` then
/// `(r'1 − r''1) ÷ r2 = (r'1 ÷ r2) − (r''1 ÷ r2)`.
///
/// Applied left-to-right. The rule recognizes the shape the paper describes —
/// two selections over the *same* input with predicates over quotient
/// attributes only — and establishes the containment either syntactically
/// (`p''` is a conjunction extending `p'`) or, when data checks are allowed,
/// by evaluating both selections. Either way it needs the data to show the
/// divisor non-empty, as Law 5 does.
pub struct Law6DifferenceSplit;

impl RewriteRule for Law6DifferenceSplit {
    fn name(&self) -> &'static str {
        "law-06-difference-split"
    }

    fn reference(&self) -> &'static str {
        "Law 6, Section 5.1.4"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Difference { left, right } = dividend.as_ref() else {
            return Ok(None);
        };
        let Some(attrs) = ctx.divide_partition(left, divisor) else {
            return Ok(None);
        };
        if ctx.divide_partition(right, divisor).is_none() {
            return Ok(None);
        }
        // Recognize σ_{p'(A)}(r) and σ_{p''(A)}(r) over the same input.
        let (
            LogicalPlan::Select {
                input: in_l,
                predicate: p_prime,
            },
            LogicalPlan::Select {
                input: in_r,
                predicate: p_double,
            },
        ) = (left.as_ref(), right.as_ref())
        else {
            return Ok(None);
        };
        if in_l != in_r {
            return Ok(None);
        }
        let a = refs(&attrs.quotient);
        if !p_prime.only_references(&a) || !p_double.only_references(&a) {
            return Ok(None);
        }
        // Establish r''1 ⊆ r'1.
        let contained = if p_double.conjuncts().contains(&p_prime) && p_double.conjuncts().len() > 1
        {
            // p'' = p' ∧ … ⇒ σ_{p''} ⊆ σ_{p'}.
            true
        } else {
            match (ctx.try_evaluate(left)?, ctx.try_evaluate(right)?) {
                (Some(l), Some(r)) => preconditions::subset_of(&r, &l).map_err(ExprError::from)?,
                _ => false,
            }
        };
        if !contained {
            return Ok(None);
        }
        // With r2 = ∅ the law does not hold, as for Laws 4 and 5.
        if !divisor_known_nonempty(ctx, divisor)? {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::Difference {
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

/// **Law 7**: if `π_A(r'1) ∩ π_A(r''1) = ∅` then
/// `(r'1 ÷ r2) − (r''1 ÷ r2) = r'1 ÷ r2`.
///
/// Applied left-to-right: the entire right division — potentially the
/// expensive half of the query — is skipped. The disjointness precondition is
/// data-dependent, so the rule only fires when data checks are allowed.
pub struct Law7DisjointDifference;

impl RewriteRule for Law7DisjointDifference {
    fn name(&self) -> &'static str {
        "law-07-disjoint-difference-elimination"
    }

    fn reference(&self) -> &'static str {
        "Law 7, Section 5.1.4"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::Difference { left, right } = plan else {
            return Ok(None);
        };
        let (
            LogicalPlan::SmallDivide {
                dividend: d1,
                divisor: v1,
            },
            LogicalPlan::SmallDivide {
                dividend: d2,
                divisor: v2,
            },
        ) = (left.as_ref(), right.as_ref())
        else {
            return Ok(None);
        };
        // Both divisions must use the same divisor expression.
        if v1 != v2 {
            return Ok(None);
        }
        let Some(attrs) = ctx.divide_partition(d1, v1) else {
            return Ok(None);
        };
        if ctx.divide_partition(d2, v2).is_none() {
            return Ok(None);
        }
        let (Some(left_rel), Some(right_rel)) = (ctx.try_evaluate(d1)?, ctx.try_evaluate(d2)?)
        else {
            return Ok(None);
        };
        let disjoint =
            preconditions::projections_disjoint(&left_rel, &right_rel, &refs(&attrs.quotient))
                .map_err(ExprError::from)?;
        if !disjoint {
            return Ok(None);
        }
        Ok(Some(left.as_ref().clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::{relation, CompareOp, Predicate};
    use div_expr::{evaluate, Catalog, PlanBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "r1",
            relation! {
                ["a", "b"] =>
                [1, 1], [1, 3],
                [2, 1], [2, 2], [2, 3],
                [3, 1], [3, 3],
                [10, 1], [10, 3],
                [11, 1],
            },
        );
        c.register("r2", relation! { ["b"] => [1], [3] });
        c
    }

    #[test]
    fn law5_splits_intersection_dividends() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let lhs = PlanBuilder::scan("r1").select(Predicate::cmp_value("a", CompareOp::LtEq, 5));
        let rhs = PlanBuilder::scan("r1").select(Predicate::cmp_value("b", CompareOp::LtEq, 3));
        let plan = lhs.intersect(rhs).divide(PlanBuilder::scan("r2")).build();
        let rewritten = Law5IntersectionSplit
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 5 should apply");
        assert!(matches!(rewritten, LogicalPlan::Intersect { .. }));
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
    }

    #[test]
    fn law6_splits_nested_selections_syntactically() {
        let catalog = catalog();
        // The syntactic implication (p'' = p' ∧ …) establishes the
        // containment; only the empty-divisor check reads the data, so
        // without data access the rule declines.
        let ctx = RewriteContext::with_catalog(&catalog);
        let p_prime = Predicate::cmp_value("a", CompareOp::Gt, 1);
        let p_double = p_prime
            .clone()
            .and(Predicate::cmp_value("a", CompareOp::Gt, 9));
        let plan = PlanBuilder::scan("r1")
            .select(p_prime)
            .difference(PlanBuilder::scan("r1").select(p_double))
            .divide(PlanBuilder::scan("r2"))
            .build();
        let rewritten = Law6DifferenceSplit
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 6 should apply");
        assert!(matches!(rewritten, LogicalPlan::Difference { .. }));
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
        let meta_ctx = RewriteContext::with_metadata_only(&catalog);
        assert!(Law6DifferenceSplit
            .apply(&plan, &meta_ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn law6_uses_data_when_predicates_are_unrelated() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // a > 9 selects {10, 11}; a = 10 selects {10} ⊆ {10, 11} but only the
        // data can tell.
        let plan = PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::Gt, 9))
            .difference(PlanBuilder::scan("r1").select(Predicate::eq_value("a", 10)))
            .divide(PlanBuilder::scan("r2"))
            .build();
        assert!(Law6DifferenceSplit.apply(&plan, &ctx).unwrap().is_some());
        // Without data access the rule must decline for these predicates.
        let meta_ctx = RewriteContext::with_metadata_only(&catalog);
        assert!(Law6DifferenceSplit
            .apply(&plan, &meta_ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn law6_declines_when_not_contained() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // a <= 2 is not contained in a > 1.
        let plan = PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::Gt, 1))
            .difference(PlanBuilder::scan("r1").select(Predicate::cmp_value(
                "a",
                CompareOp::LtEq,
                2,
            )))
            .divide(PlanBuilder::scan("r2"))
            .build();
        assert!(Law6DifferenceSplit.apply(&plan, &ctx).unwrap().is_none());
    }

    #[test]
    fn law7_skips_the_second_division() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // The paper's example: σ_{a≤10}(r1) ÷ r2 − σ_{a>10}(r1) ÷ r2.
        let low = PlanBuilder::scan("r1").select(Predicate::cmp_value("a", CompareOp::LtEq, 10));
        let high = PlanBuilder::scan("r1").select(Predicate::cmp_value("a", CompareOp::Gt, 10));
        let plan = low
            .clone()
            .divide(PlanBuilder::scan("r2"))
            .difference(high.divide(PlanBuilder::scan("r2")))
            .build();
        let rewritten = Law7DisjointDifference
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 7 should apply");
        // The rewritten plan is just the left division.
        assert!(matches!(rewritten, LogicalPlan::SmallDivide { .. }));
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
    }

    #[test]
    fn law7_declines_on_overlapping_prefixes_or_different_divisors() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // Overlapping quotient prefixes.
        let overlapping = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .difference(
                PlanBuilder::scan("r1")
                    .select(Predicate::eq_value("a", 2))
                    .divide(PlanBuilder::scan("r2")),
            )
            .build();
        assert!(Law7DisjointDifference
            .apply(&overlapping, &ctx)
            .unwrap()
            .is_none());
        // Different divisors.
        let different = PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::LtEq, 10))
            .divide(PlanBuilder::scan("r2"))
            .difference(
                PlanBuilder::scan("r1")
                    .select(Predicate::cmp_value("a", CompareOp::Gt, 10))
                    .divide(PlanBuilder::scan("r2").select(Predicate::eq_value("b", 1))),
            )
            .build();
        assert!(Law7DisjointDifference
            .apply(&different, &ctx)
            .unwrap()
            .is_none());
    }
}
