//! Section 5.2 — laws for the great divide (Laws 13–17) and the join push-in
//! rewrite of Example 4.

use super::helpers::refs;
use crate::context::RewriteContext;
use crate::preconditions;
use crate::rule::RewriteRule;
use crate::Result;
use div_expr::{ExprError, LogicalPlan};

/// **Law 13**: if `π_C(r'2) ∩ π_C(r''2) = ∅` then
/// `r1 ÷* (r'2 ∪ r''2) = (r1 ÷* r'2) ∪ (r1 ÷* r''2)`.
///
/// Applied left-to-right: the divisor groups are partitioned (e.g. by hashing
/// on `C`, as the paper's parallelization strategy suggests) and each
/// partition is divided independently.
pub struct Law13DivisorUnionSplit;

impl RewriteRule for Law13DivisorUnionSplit {
    fn name(&self) -> &'static str {
        "law-13-great-divisor-union-split"
    }

    fn reference(&self) -> &'static str {
        "Law 13, Section 5.2.1"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::GreatDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Union { left, right } = divisor.as_ref() else {
            return Ok(None);
        };
        let Some(attrs) = ctx.great_divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        if attrs.group.is_empty() {
            return Ok(None);
        }
        if ctx.great_divide_partition(dividend, left).is_none()
            || ctx.great_divide_partition(dividend, right).is_none()
        {
            return Ok(None);
        }
        let (Some(left_rel), Some(right_rel)) = (ctx.try_evaluate(left)?, ctx.try_evaluate(right)?)
        else {
            return Ok(None);
        };
        let disjoint =
            preconditions::projections_disjoint(&left_rel, &right_rel, &refs(&attrs.group))
                .map_err(ExprError::from)?;
        if !disjoint {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::Union {
            left: Box::new(LogicalPlan::GreatDivide {
                dividend: dividend.clone(),
                divisor: left.clone(),
            }),
            right: Box::new(LogicalPlan::GreatDivide {
                dividend: dividend.clone(),
                divisor: right.clone(),
            }),
        }))
    }
}

/// **Law 14**: `σ_{p(A)}(r1 ÷* r2) = σ_{p(A)}(r1) ÷* r2` — push a filter on
/// quotient attributes into the dividend (the great-divide analogue of Law 3).
pub struct Law14SelectionPushdownQuotient;

impl RewriteRule for Law14SelectionPushdownQuotient {
    fn name(&self) -> &'static str {
        "law-14-great-selection-pushdown-quotient"
    }

    fn reference(&self) -> &'static str {
        "Law 14, Section 5.2.2"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::Select { input, predicate } = plan else {
            return Ok(None);
        };
        let LogicalPlan::GreatDivide { dividend, divisor } = input.as_ref() else {
            return Ok(None);
        };
        let Some(attrs) = ctx.great_divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        if !predicate.only_references(&refs(&attrs.quotient)) {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::GreatDivide {
            dividend: Box::new(LogicalPlan::Select {
                input: dividend.clone(),
                predicate: predicate.clone(),
            }),
            divisor: divisor.clone(),
        }))
    }
}

/// **Law 15**: `σ_{p(C)}(r1 ÷* r2) = r1 ÷* σ_{p(C)}(r2)` — push a filter on
/// divisor-group attributes into the divisor.
pub struct Law15SelectionPushdownGroup;

impl RewriteRule for Law15SelectionPushdownGroup {
    fn name(&self) -> &'static str {
        "law-15-great-selection-pushdown-group"
    }

    fn reference(&self) -> &'static str {
        "Law 15, Section 5.2.2"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::Select { input, predicate } = plan else {
            return Ok(None);
        };
        let LogicalPlan::GreatDivide { dividend, divisor } = input.as_ref() else {
            return Ok(None);
        };
        let Some(attrs) = ctx.great_divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        if attrs.group.is_empty() || !predicate.only_references(&refs(&attrs.group)) {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::GreatDivide {
            dividend: dividend.clone(),
            divisor: Box::new(LogicalPlan::Select {
                input: divisor.clone(),
                predicate: predicate.clone(),
            }),
        }))
    }
}

/// **Law 16**: `r1 ÷* σ_{p(B)}(r2) = σ_{p(B)}(r1) ÷* σ_{p(B)}(r2)` — replicate
/// a divisor filter on the shared attributes to the dividend (the great-divide
/// analogue of Law 4). The same termination guard as Law 4 applies.
pub struct Law16DivisorSelectionReplication;

impl RewriteRule for Law16DivisorSelectionReplication {
    fn name(&self) -> &'static str {
        "law-16-great-divisor-selection-replication"
    }

    fn reference(&self) -> &'static str {
        "Law 16, Section 5.2.2"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::GreatDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Select {
            input: divisor_input,
            predicate,
        } = divisor.as_ref()
        else {
            return Ok(None);
        };
        let Some(attrs) = ctx.great_divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        if !predicate.only_references(&refs(&attrs.shared)) {
            return Ok(None);
        }
        if ctx
            .great_divide_partition(dividend, divisor_input)
            .is_none()
        {
            return Ok(None);
        }
        if let LogicalPlan::Select {
            predicate: existing,
            ..
        } = dividend.as_ref()
        {
            if existing == predicate {
                return Ok(None);
            }
        }
        Ok(Some(LogicalPlan::GreatDivide {
            dividend: Box::new(LogicalPlan::Select {
                input: dividend.clone(),
                predicate: predicate.clone(),
            }),
            divisor: divisor.clone(),
        }))
    }
}

/// **Law 17**: `(r*1 × r**1) ÷* r2 = r*1 × (r**1 ÷* r2)` — the great-divide
/// analogue of Law 8: the division moves onto the product factor that carries
/// the shared attributes.
pub struct Law17ProductPushthrough;

impl RewriteRule for Law17ProductPushthrough {
    fn name(&self) -> &'static str {
        "law-17-great-product-pushthrough"
    }

    fn reference(&self) -> &'static str {
        "Law 17, Section 5.2.3"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::GreatDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Product { left, right } = dividend.as_ref() else {
            return Ok(None);
        };
        let (Some(left_schema), Some(divisor_schema)) =
            (ctx.schema_of(left), ctx.schema_of(divisor))
        else {
            return Ok(None);
        };
        // The left factor must not share any attribute with the divisor.
        if divisor_schema
            .names()
            .iter()
            .any(|b| left_schema.contains(b))
        {
            return Ok(None);
        }
        // The right factor alone must still form a valid great divide.
        if ctx.great_divide_partition(right, divisor).is_none() {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::Product {
            left: left.clone(),
            right: Box::new(LogicalPlan::GreatDivide {
                dividend: right.clone(),
                divisor: divisor.clone(),
            }),
        }))
    }
}

/// **Example 4**: `r*1 ⋈_{a1=a2} (r**1 ÷* r2) = (r*1 ⋈_{a1=a2} r**1) ÷* r2`.
///
/// Applied left-to-right: a selective join against the quotient is pushed
/// *into* the dividend so that far fewer dividend groups have to be tested
/// against the divisor. The derivation in the paper composes Law 17 and
/// Law 14; the rule matches the composed shape directly. The join predicate
/// may reference only attributes of the outer relation and quotient attributes
/// `A` of the divide.
pub struct Example4JoinPushIn;

impl RewriteRule for Example4JoinPushIn {
    fn name(&self) -> &'static str {
        "example-4-join-push-in"
    }

    fn reference(&self) -> &'static str {
        "Example 4, Section 5.2.4 (composition of Laws 17 and 14)"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::ThetaJoin {
            left,
            right,
            predicate,
        } = plan
        else {
            return Ok(None);
        };
        let LogicalPlan::GreatDivide { dividend, divisor } = right.as_ref() else {
            return Ok(None);
        };
        let (Some(outer_schema), Some(attrs)) = (
            ctx.schema_of(left),
            ctx.great_divide_partition(dividend, divisor),
        ) else {
            return Ok(None);
        };
        // The outer relation must be attribute-disjoint from the divisor (so
        // the rewritten dividend's quotient attributes are attrs(outer) ∪ A
        // and the group attributes C are untouched).
        let Some(divisor_schema) = ctx.schema_of(divisor) else {
            return Ok(None);
        };
        if !outer_schema.is_disjoint_from(&divisor_schema) {
            return Ok(None);
        }
        // The predicate may only mention outer attributes and quotient
        // attributes of the divide.
        let mut allowed: Vec<&str> = outer_schema.names();
        let quotient_refs = refs(&attrs.quotient);
        allowed.extend(quotient_refs.iter().copied());
        if !predicate.only_references(&allowed) {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::GreatDivide {
            dividend: Box::new(LogicalPlan::ThetaJoin {
                left: left.clone(),
                right: dividend.clone(),
                predicate: predicate.clone(),
            }),
            divisor: divisor.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::{relation, Predicate};
    use div_expr::{evaluate, Catalog, PlanBuilder};

    /// Figure 2 data plus the extra relations used by the great-divide laws.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "r1",
            relation! {
                ["a", "b"] =>
                [1, 1], [1, 4],
                [2, 1], [2, 2], [2, 3], [2, 4],
                [3, 1], [3, 3], [3, 4],
            },
        );
        c.register(
            "r2",
            relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] },
        );
        c.register("outer", relation! { ["a1"] => [2], [99] });
        c.register("factor", relation! { ["d"] => [10], [20] });
        c
    }

    #[test]
    fn law14_pushes_quotient_filter_into_dividend() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2"))
            .select(Predicate::eq_value("a", 2))
            .build();
        let rewritten = Law14SelectionPushdownQuotient
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 14 should apply");
        assert!(matches!(rewritten, LogicalPlan::GreatDivide { .. }));
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
    }

    #[test]
    fn law15_pushes_group_filter_into_divisor() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2"))
            .select(Predicate::eq_value("c", 2))
            .build();
        let rewritten = Law15SelectionPushdownGroup
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 15 should apply");
        match &rewritten {
            LogicalPlan::GreatDivide { divisor, .. } => {
                assert!(matches!(divisor.as_ref(), LogicalPlan::Select { .. }));
            }
            other => panic!("unexpected rewrite {other:?}"),
        }
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
    }

    #[test]
    fn law15_declines_for_shared_attribute_predicates() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2"))
            .select(Predicate::eq_value("b", 1))
            .build();
        // b is a shared attribute; neither Law 14 nor Law 15 applies (and b is
        // not even in the output schema — the plan is invalid, so both rules
        // must simply decline).
        assert!(Law15SelectionPushdownGroup
            .apply(&plan, &ctx)
            .unwrap()
            .is_none());
        assert!(Law14SelectionPushdownQuotient
            .apply(&plan, &ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn law16_replicates_divisor_filter_and_terminates() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2").select(Predicate::eq_value("b", 1)))
            .build();
        let rewritten = Law16DivisorSelectionReplication
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 16 should apply");
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
        // Re-applying to the output is a no-op (termination guard).
        assert!(Law16DivisorSelectionReplication
            .apply(&rewritten, &ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn law17_pushes_division_into_product_factor() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("factor")
            .product(PlanBuilder::scan("r1"))
            .great_divide(PlanBuilder::scan("r2"))
            .build();
        let rewritten = Law17ProductPushthrough
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 17 should apply");
        assert!(matches!(rewritten, LogicalPlan::Product { .. }));
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap()
        );
    }

    #[test]
    fn example4_pushes_selective_join_into_dividend() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("outer")
            .theta_join(
                PlanBuilder::scan("r1").great_divide(PlanBuilder::scan("r2")),
                Predicate::eq_attrs("a1", "a"),
            )
            .build();
        let rewritten = Example4JoinPushIn
            .apply(&plan, &ctx)
            .unwrap()
            .expect("example 4 should apply");
        match &rewritten {
            LogicalPlan::GreatDivide { dividend, .. } => {
                assert!(matches!(dividend.as_ref(), LogicalPlan::ThetaJoin { .. }));
            }
            other => panic!("unexpected rewrite {other:?}"),
        }
        let expected = relation! { ["a1", "a", "c"] => [2, 2, 1], [2, 2, 2] };
        assert_eq!(evaluate(&plan, &catalog).unwrap(), expected);
        assert_eq!(evaluate(&rewritten, &catalog).unwrap(), expected);
    }

    #[test]
    fn example4_declines_when_predicate_touches_group_attributes() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("outer")
            .theta_join(
                PlanBuilder::scan("r1").great_divide(PlanBuilder::scan("r2")),
                Predicate::eq_attrs("a1", "c"),
            )
            .build();
        assert!(Example4JoinPushIn.apply(&plan, &ctx).unwrap().is_none());
    }
}
