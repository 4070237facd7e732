//! Section 5.1.6 — join laws for the small divide (Law 10).
//!
//! The worked derivation of Example 3 (eliminating the theta-join from the
//! dividend) lives in [`super::examples`].

use super::helpers::refs;
use crate::context::RewriteContext;
use crate::rule::RewriteRule;
use crate::Result;
use div_expr::LogicalPlan;

/// **Law 10**: `(r1 ÷ r2) ⋉ r3 = (r1 ⋉ r3) ÷ r2`, where `R3(A)`.
///
/// Applied left-to-right: when the quotient is immediately semi-joined with a
/// small relation `r3`, the semi-join is performed *before* the division. The
/// paper motivates this for a highly selective `r3`: one scan over `r1`
/// removes most tuples and the subsequent division is cheap.
///
/// The rule accepts `R3 ⊆ A` (the semi-join then acts as a selection on a
/// subset of the quotient attributes, which commutes with the division for the
/// same reason Law 3 does); the paper's statement is the special case
/// `R3 = A`.
pub struct Law10SemiJoinCommute;

impl RewriteRule for Law10SemiJoinCommute {
    fn name(&self) -> &'static str {
        "law-10-semijoin-commute"
    }

    fn reference(&self) -> &'static str {
        "Law 10, Section 5.1.6"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SemiJoin { left, right } = plan else {
            return Ok(None);
        };
        let LogicalPlan::SmallDivide { dividend, divisor } = left.as_ref() else {
            return Ok(None);
        };
        let Some(attrs) = ctx.divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        let Some(r3_schema) = ctx.schema_of(right) else {
            return Ok(None);
        };
        // R3 must consist of quotient attributes only (and at least one, so
        // the semi-join actually correlates with the quotient).
        let a = refs(&attrs.quotient);
        if r3_schema.is_empty() || !r3_schema.names().iter().all(|n| a.contains(n)) {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::SmallDivide {
            dividend: Box::new(LogicalPlan::SemiJoin {
                left: dividend.clone(),
                right: right.clone(),
            }),
            divisor: divisor.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;
    use div_expr::{evaluate, Catalog, PlanBuilder};

    fn catalog() -> Catalog {
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
        c.register("r2", relation! { ["b"] => [1], [3] });
        c.register("r3", relation! { ["a"] => [3], [4], [99] });
        c.register("r3_other", relation! { ["z"] => [3] });
        c
    }

    #[test]
    fn law10_commutes_semi_join_below_division() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .semi_join(PlanBuilder::scan("r3"))
            .build();
        let rewritten = Law10SemiJoinCommute
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 10 should apply");
        match &rewritten {
            LogicalPlan::SmallDivide { dividend, .. } => {
                assert!(matches!(dividend.as_ref(), LogicalPlan::SemiJoin { .. }));
            }
            other => panic!("unexpected rewrite {other:?}"),
        }
        // (r1 ÷ r2) ⋉ r3 = {2, 3, 4} ⋉ {3, 4, 99} = {3, 4}.
        let expected = relation! { ["a"] => [3], [4] };
        assert_eq!(evaluate(&plan, &catalog).unwrap(), expected);
        assert_eq!(evaluate(&rewritten, &catalog).unwrap(), expected);
    }

    #[test]
    fn law10_declines_when_r3_is_not_over_quotient_attributes() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .semi_join(PlanBuilder::scan("r3_other"))
            .build();
        assert!(Law10SemiJoinCommute.apply(&plan, &ctx).unwrap().is_none());
    }

    #[test]
    fn law10_declines_when_left_is_not_a_division() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .semi_join(PlanBuilder::scan("r3"))
            .build();
        assert!(Law10SemiJoinCommute.apply(&plan, &ctx).unwrap().is_none());
    }

    #[test]
    fn law10_works_without_data_access() {
        let catalog = catalog();
        let ctx = RewriteContext::with_metadata_only(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .semi_join(PlanBuilder::scan("r3"))
            .build();
        assert!(Law10SemiJoinCommute.apply(&plan, &ctx).unwrap().is_some());
    }
}
