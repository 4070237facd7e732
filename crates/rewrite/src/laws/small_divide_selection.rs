//! Section 5.1.2 — selection laws for the small divide (Laws 3 and 4).

use super::helpers::{divisor_known_nonempty, refs};
use crate::context::RewriteContext;
use crate::rule::RewriteRule;
use crate::Result;
use div_expr::LogicalPlan;

/// **Law 3** (selection push-down): `σ_{p(A)}(r1 ÷ r2) = σ_{p(A)}(r1) ÷ r2`.
///
/// Applied left-to-right: a filter on quotient attributes above a division is
/// pushed into the dividend, so the division processes fewer groups.
pub struct Law3SelectionPushdown;

impl RewriteRule for Law3SelectionPushdown {
    fn name(&self) -> &'static str {
        "law-03-selection-pushdown"
    }

    fn reference(&self) -> &'static str {
        "Law 3, Section 5.1.2"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::Select { input, predicate } = plan else {
            return Ok(None);
        };
        let LogicalPlan::SmallDivide { dividend, divisor } = input.as_ref() else {
            return Ok(None);
        };
        let Some(attrs) = ctx.divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        if !predicate.only_references(&refs(&attrs.quotient)) {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::SmallDivide {
            dividend: Box::new(LogicalPlan::Select {
                input: dividend.clone(),
                predicate: predicate.clone(),
            }),
            divisor: divisor.clone(),
        }))
    }
}

/// **Law 4** (replicate selection): `r1 ÷ σ_{p(B)}(r2) = σ_{p(B)}(r1) ÷ σ_{p(B)}(r2)`.
///
/// Applied left-to-right: when the divisor is filtered on the shared
/// attributes `B`, the same filter can be replicated onto the dividend —
/// dividend tuples failing it can never match a divisor tuple, so removing
/// them early shrinks the expensive input. The rule declines when the dividend
/// is already wrapped in exactly this selection, which keeps the fixpoint loop
/// of the engine terminating, and unless the data shows the filtered divisor
/// non-empty: on `σ_{p(B)}(r2) = ∅` the two sides differ.
pub struct Law4DivisorSelectionReplication;

impl RewriteRule for Law4DivisorSelectionReplication {
    fn name(&self) -> &'static str {
        "law-04-divisor-selection-replication"
    }

    fn reference(&self) -> &'static str {
        "Law 4, Section 5.1.2"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Select {
            input: divisor_input,
            predicate,
        } = divisor.as_ref()
        else {
            return Ok(None);
        };
        let Some(attrs) = ctx.divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        // p must be a p(B): it may only mention divisor attributes. Because the
        // selection sits on the divisor this is almost automatic, but a
        // predicate could mention attributes of a wider divisor subtree that
        // were projected away; validate against B explicitly.
        if !predicate.only_references(&refs(&attrs.shared)) {
            return Ok(None);
        }
        // The inner divisor (before selection) must still be a valid divisor.
        if ctx.divide_partition(dividend, divisor_input).is_none() {
            return Ok(None);
        }
        // Termination guard: don't re-apply if the dividend already carries
        // exactly this filter.
        if let LogicalPlan::Select {
            predicate: existing,
            ..
        } = dividend.as_ref()
        {
            if existing == predicate {
                return Ok(None);
            }
        }
        // With σ_{p(B)}(r2) = ∅ the two sides differ.
        if !divisor_known_nonempty(ctx, divisor)? {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::SmallDivide {
            dividend: Box::new(LogicalPlan::Select {
                input: dividend.clone(),
                predicate: predicate.clone(),
            }),
            divisor: divisor.clone(),
        }))
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
                [1, 1], [1, 4],
                [2, 1], [2, 2], [2, 3], [2, 4],
                [3, 1], [3, 3], [3, 4],
                [4, 1], [4, 3],
            },
        );
        c.register("r2", relation! { ["b"] => [1], [3], [4] });
        c
    }

    #[test]
    fn law3_pushes_quotient_selection_into_dividend() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .select(Predicate::cmp_value("a", CompareOp::Gt, 2))
            .build();
        let rewritten = Law3SelectionPushdown
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 3 should apply");
        // Division is now the root; the selection moved below it.
        assert!(matches!(rewritten, LogicalPlan::SmallDivide { .. }));
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
    }

    #[test]
    fn law3_declines_for_divisor_attribute_predicates() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // p references b (a divisor attribute) — that is Example 1 territory,
        // not Law 3, and the naive push-down would be wrong.
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .select(Predicate::eq_value("b", 1))
            .build();
        assert!(Law3SelectionPushdown.apply(&plan, &ctx).unwrap().is_none());
    }

    #[test]
    fn law3_works_without_data_access() {
        let catalog = catalog();
        let ctx = RewriteContext::with_metadata_only(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .select(Predicate::eq_value("a", 2))
            .build();
        assert!(Law3SelectionPushdown.apply(&plan, &ctx).unwrap().is_some());
    }

    #[test]
    fn law4_replicates_divisor_selection_to_dividend() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2").select(Predicate::cmp_value("b", CompareOp::Lt, 3)))
            .build();
        let rewritten = Law4DivisorSelectionReplication
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 4 should apply");
        match &rewritten {
            LogicalPlan::SmallDivide { dividend, .. } => {
                assert!(matches!(dividend.as_ref(), LogicalPlan::Select { .. }));
            }
            other => panic!("unexpected rewrite {other:?}"),
        }
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
    }

    #[test]
    fn law4_does_not_loop_forever() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2").select(Predicate::eq_value("b", 1)))
            .build();
        let once = Law4DivisorSelectionReplication
            .apply(&plan, &ctx)
            .unwrap()
            .unwrap();
        // Applying the rule to its own output must be a no-op.
        assert!(Law4DivisorSelectionReplication
            .apply(&once, &ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn law4_declines_when_no_selection_on_divisor() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .build();
        assert!(Law4DivisorSelectionReplication
            .apply(&plan, &ctx)
            .unwrap()
            .is_none());
    }
}
