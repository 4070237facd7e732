//! Section 5.1.7 — grouping laws for the small divide (Laws 11 and 12).
//!
//! Both laws apply when the dividend is the output of the grouping operator,
//! which guarantees — *by construction* — that its groups are singletons:
//!
//! * Law 11: the dividend is `Aγf(X)→B(r0)`, so every quotient-candidate group
//!   holds exactly one tuple. The division can only produce a quotient when
//!   the divisor has at most one tuple, and in that case it degenerates to a
//!   semi-join plus projection.
//! * Law 12: the dividend is `Bγf(X)→A(r0)` and `r2.B` is a foreign key into
//!   the dividend, so every divisor value matches exactly one dividend tuple.
//!   The quotient is `π_A(r1 ⋉ r2)` if that projection has exactly one value
//!   and empty otherwise.
//!
//! The cardinality case analysis is data-dependent; the rules resolve it
//! through the context (like an optimizer consulting exact statistics on a
//! small divisor) and otherwise decline. The paper itself notes that these
//! laws have "rather restrictive prerequisites" and are aimed at special
//! purpose systems.

use super::helpers::refs;
use crate::context::RewriteContext;
use crate::preconditions;
use crate::rule::RewriteRule;
use crate::Result;
use div_algebra::Relation;
use div_expr::{ExprError, LogicalPlan};

/// **Law 11**: for a dividend `r1 = Aγf(X)→B(r0)`,
///
/// ```text
/// r1 ÷ r2 = π_A(r1)            if |r2| = 0
///         = π_A(r1 ⋉ r2)       if |r2| = 1
///         = ∅                   otherwise
/// ```
///
/// (The paper writes the first case as `r1`; since the quotient schema is `A`
/// and the groups are singletons, `π_A(r1)` is the schema-correct reading and
/// has the same cardinality.)
pub struct Law11SingleTupleGroups;

impl RewriteRule for Law11SingleTupleGroups {
    fn name(&self) -> &'static str {
        "law-11-singleton-quotient-groups"
    }

    fn reference(&self) -> &'static str {
        "Law 11, Section 5.1.7"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::GroupAggregate {
            group_by,
            aggregates,
            ..
        } = dividend.as_ref()
        else {
            return Ok(None);
        };
        let Some(attrs) = ctx.divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        // Law 11 shape: the grouping attributes are the quotient attributes A,
        // and the divisor attributes B are exactly the aggregate outputs.
        if group_by.len() != attrs.quotient.len()
            || !group_by.iter().all(|g| attrs.quotient.contains(g))
        {
            return Ok(None);
        }
        if aggregates.len() != attrs.shared.len()
            || !aggregates
                .iter()
                .all(|agg| attrs.shared.contains(&agg.output))
        {
            return Ok(None);
        }
        // Cardinality case analysis on the divisor.
        let Some(divisor_rel) = ctx.try_evaluate(divisor)? else {
            return Ok(None);
        };
        let quotient_attrs = attrs.quotient.clone();
        let rewritten = match divisor_rel.len() {
            0 => LogicalPlan::Project {
                input: dividend.clone(),
                attributes: quotient_attrs,
            },
            1 => LogicalPlan::Project {
                input: Box::new(LogicalPlan::SemiJoin {
                    left: dividend.clone(),
                    right: divisor.clone(),
                }),
                attributes: quotient_attrs,
            },
            _ => empty_quotient(ctx, dividend, &refs(&attrs.quotient))?,
        };
        Ok(Some(rewritten))
    }
}

/// **Law 12**: for a dividend `r1 = Bγf(X)→A(r0)` with `r2.B ⊆ π_B(r1)`,
///
/// ```text
/// r1 ÷ r2 = π_A(r1)        if |r2| = 0
///         = π_A(r1 ⋉ r2)   if that relation has exactly one tuple
///         = ∅               otherwise
/// ```
///
/// (The paper states only the last two cases; `r1 ÷ ∅ = π_A(r1)` in
/// `div_algebra`, as in Law 11's first case.)
pub struct Law12SingleTupleDivisorGroups;

impl RewriteRule for Law12SingleTupleDivisorGroups {
    fn name(&self) -> &'static str {
        "law-12-singleton-divisor-groups"
    }

    fn reference(&self) -> &'static str {
        "Law 12, Section 5.1.7"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::GroupAggregate {
            group_by,
            aggregates,
            ..
        } = dividend.as_ref()
        else {
            return Ok(None);
        };
        let Some(attrs) = ctx.divide_partition(dividend, divisor) else {
            return Ok(None);
        };
        // Law 12 shape: the grouping attributes are the shared attributes B,
        // and the quotient attributes A are exactly the aggregate outputs.
        if group_by.len() != attrs.shared.len()
            || !group_by.iter().all(|g| attrs.shared.contains(g))
        {
            return Ok(None);
        }
        if aggregates.len() != attrs.quotient.len()
            || !aggregates
                .iter()
                .all(|agg| attrs.quotient.contains(&agg.output))
        {
            return Ok(None);
        }
        // Preconditions and the final cardinality test are data-dependent.
        let (Some(dividend_rel), Some(divisor_rel)) =
            (ctx.try_evaluate(dividend)?, ctx.try_evaluate(divisor)?)
        else {
            return Ok(None);
        };
        let fk_ok = preconditions::divisor_references_dividend(&dividend_rel, &divisor_rel)
            .map_err(ExprError::from)?;
        if !fk_ok {
            return Ok(None);
        }
        let semi = LogicalPlan::Project {
            input: Box::new(LogicalPlan::SemiJoin {
                left: dividend.clone(),
                right: divisor.clone(),
            }),
            attributes: attrs.quotient.clone(),
        };
        // |π_A(r1 ⋉ r2)| — cheap: at most |r2| tuples survive the semi-join.
        let semi_rel = dividend_rel
            .semi_join(&divisor_rel)
            .and_then(|r| r.project(&refs(&attrs.quotient)))
            .map_err(ExprError::from)?;
        let rewritten = if divisor_rel.is_empty() {
            LogicalPlan::Project {
                input: dividend.clone(),
                attributes: attrs.quotient.clone(),
            }
        } else if semi_rel.len() == 1 {
            semi
        } else {
            empty_quotient(ctx, dividend, &refs(&attrs.quotient))?
        };
        Ok(Some(rewritten))
    }
}

/// An always-empty plan with the quotient schema (the `∅` case of both laws).
fn empty_quotient(
    ctx: &RewriteContext<'_>,
    dividend: &LogicalPlan,
    quotient: &[&str],
) -> Result<LogicalPlan> {
    let schema = ctx
        .schema_of(dividend)
        .ok_or_else(|| ExprError::invalid("cannot infer dividend schema for empty quotient"))?
        .project(quotient)
        .map_err(ExprError::from)?;
    Ok(LogicalPlan::Values {
        relation: Relation::empty(schema),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::{relation, AggregateCall};
    use div_expr::{evaluate, Catalog, PlanBuilder};

    /// Figure 10 / Figure 11 base data.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "r0_fig10",
            relation! {
                ["a", "x"] =>
                [1, 1], [1, 2], [1, 3],
                [2, 1], [2, 3],
                [3, 1], [3, 3], [3, 4],
            },
        );
        c.register("r2_fig10", relation! { ["b"] => [4] });
        c.register(
            "r0_fig11",
            relation! {
                ["x", "b"] =>
                [1, 1], [1, 2], [1, 3],
                [2, 1], [2, 3],
                [3, 1], [3, 3], [3, 4],
            },
        );
        c.register("r2_fig11", relation! { ["b"] => [1], [3] });
        c.register("r2_fig11_bad", relation! { ["b"] => [1], [9] });
        c.register("r2_fig11_mixed", relation! { ["b"] => [1], [2] });
        c
    }

    fn figure10_dividend() -> PlanBuilder {
        PlanBuilder::scan("r0_fig10").group_aggregate(["a"], [AggregateCall::sum("x", "b")])
    }

    fn figure11_dividend() -> PlanBuilder {
        PlanBuilder::scan("r0_fig11").group_aggregate(["b"], [AggregateCall::sum("x", "a")])
    }

    #[test]
    fn law11_requires_data_access_and_matching_shape() {
        let catalog = catalog();
        let meta_ctx = RewriteContext::with_metadata_only(&catalog);
        let plan = figure10_dividend()
            .divide(PlanBuilder::scan("r2_fig10"))
            .build();
        assert!(Law11SingleTupleGroups
            .apply(&plan, &meta_ctx)
            .unwrap()
            .is_none());
        // A non-aggregated dividend never matches.
        let ctx = RewriteContext::with_catalog(&catalog);
        let plain = PlanBuilder::scan("r0_fig10")
            .rename([("x", "b")])
            .divide(PlanBuilder::scan("r2_fig10"))
            .build();
        assert!(Law11SingleTupleGroups
            .apply(&plain, &ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn law12_matches_figure_11() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = figure11_dividend()
            .divide(PlanBuilder::scan("r2_fig11"))
            .build();
        let rewritten = Law12SingleTupleDivisorGroups
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 12 should apply");
        // Figure 11(e): quotient = {6}.
        let expected = relation! { ["a"] => [6] };
        assert_eq!(evaluate(&plan, &catalog).unwrap(), expected);
        assert_eq!(evaluate(&rewritten, &catalog).unwrap(), expected);
        assert!(!rewritten.contains_division());
    }

    #[test]
    fn law12_empty_when_quotient_candidates_disagree() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // Divisor {1, 2}: group b=1 has a=6, group b=2 has a=1 — no single
        // a value covers both, so the quotient is empty.
        let plan = figure11_dividend()
            .divide(PlanBuilder::scan("r2_fig11_mixed"))
            .build();
        let rewritten = Law12SingleTupleDivisorGroups
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 12 should apply");
        assert!(evaluate(&plan, &catalog).unwrap().is_empty());
        assert!(evaluate(&rewritten, &catalog).unwrap().is_empty());
    }

    #[test]
    fn law12_declines_without_foreign_key() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // Divisor value 9 does not reference any dividend group.
        let plan = figure11_dividend()
            .divide(PlanBuilder::scan("r2_fig11_bad"))
            .build();
        assert!(Law12SingleTupleDivisorGroups
            .apply(&plan, &ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn law12_declines_for_law11_shape() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = figure10_dividend()
            .divide(PlanBuilder::scan("r2_fig10"))
            .build();
        assert!(Law12SingleTupleDivisorGroups
            .apply(&plan, &ctx)
            .unwrap()
            .is_none());
    }
}
