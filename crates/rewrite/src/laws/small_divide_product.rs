//! Section 5.1.5 — Cartesian-product laws for the small divide
//! (Laws 8 and 9, plus the common-factor elimination of Example 2).

use crate::context::RewriteContext;
use crate::preconditions;
use crate::rule::RewriteRule;
use crate::Result;
use div_expr::{ExprError, LogicalPlan};

/// **Law 8**: `(r*1 × r**1) ÷ r2 = r*1 × (r**1 ÷ r2)` where the divisor
/// attributes `B` all belong to `r**1`.
///
/// Applied left-to-right: the division is pushed onto the product factor that
/// actually carries the divisor attributes, so the (potentially huge) product
/// is divided only after the quotient of the small factor has been computed —
/// or, as Figure 7 shows, the product need not be materialized at all.
pub struct Law8ProductPushthrough;

impl RewriteRule for Law8ProductPushthrough {
    fn name(&self) -> &'static str {
        "law-08-product-pushthrough"
    }

    fn reference(&self) -> &'static str {
        "Law 8, Section 5.1.5"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
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
        // Every divisor attribute must come from the right factor, i.e. none
        // from the left factor (A1 ∩ B = ∅).
        if divisor_schema
            .names()
            .iter()
            .any(|b| left_schema.contains(b))
        {
            return Ok(None);
        }
        // The right factor must itself be a valid dividend for the divisor
        // (this also ensures its own quotient attribute set A2 is nonempty).
        if ctx.divide_partition(right, divisor).is_none() {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::Product {
            left: left.clone(),
            right: Box::new(LogicalPlan::SmallDivide {
                dividend: right.clone(),
                divisor: divisor.clone(),
            }),
        }))
    }
}

/// **Law 9**: if `π_{B2}(r2) ⊆ r**1` then
/// `(r*1 × r**1) ÷ r2 = r*1 ÷ π_{B1}(r2)`, where `R*1(A ∪ B1)` and
/// `R**1(B2)`.
///
/// Applied left-to-right: the product factor `r**1` and the `B2` part of the
/// divisor disappear entirely. The containment precondition is established
/// either from a declared foreign key (`r2.B2 → r**1`) or, when permitted, by
/// checking the data. The law also needs `r**1 ≠ ∅` when the divisor is empty
/// (`tests/law_small_scope.rs::law9_product_elimination` finds the small
/// databases where it fails without, and the `tests/mutants.toml` entry "Law
/// 9 without its containment / r**1 != {} check" drops the check); the rule
/// therefore additionally verifies that `r**1` is nonempty (a foreign key
/// with at least one referencing row, or a data check).
pub struct Law9ProductElimination;

impl RewriteRule for Law9ProductElimination {
    fn name(&self) -> &'static str {
        "law-09-product-elimination"
    }

    fn reference(&self) -> &'static str {
        "Law 9, Section 5.1.5"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let LogicalPlan::Product { left, right } = dividend.as_ref() else {
            return Ok(None);
        };
        let (Some(left_schema), Some(right_schema), Some(divisor_schema)) = (
            ctx.schema_of(left),
            ctx.schema_of(right),
            ctx.schema_of(divisor),
        ) else {
            return Ok(None);
        };
        // r**1's attributes are exactly B2: all of them must occur in the
        // divisor.
        let b2: Vec<&str> = right_schema.names();
        if b2.is_empty() || !b2.iter().all(|n| divisor_schema.contains(n)) {
            return Ok(None);
        }
        // B1 = divisor attributes minus B2; they must be nonempty and belong
        // to r*1, and r*1 must keep a nonempty quotient attribute set A.
        let b1: Vec<String> = divisor_schema.difference_attributes(&right_schema);
        if b1.is_empty() || !b1.iter().all(|n| left_schema.contains(n)) {
            return Ok(None);
        }
        if left_schema
            .names()
            .iter()
            .filter(|n| !b1.iter().any(|b| b == *n))
            .count()
            == 0
        {
            return Ok(None);
        }
        // Precondition π_{B2}(r2) ⊆ r**1, plus the r**1 ≠ ∅ guard.
        let precondition_ok = match ctx.try_evaluate(right)? {
            Some(right_rel) => {
                if right_rel.is_empty() {
                    false
                } else {
                    match ctx.try_evaluate(divisor)? {
                        Some(divisor_rel) => {
                            preconditions::law9_projection_contained(&right_rel, &divisor_rel)
                                .map_err(ExprError::from)?
                        }
                        None => false,
                    }
                }
            }
            None => {
                // Without data access fall back to a declared foreign key
                // divisor.B2 → r**1.B2 (which also implies r**1 is nonempty
                // only if the divisor is nonempty; accept it as the paper does
                // for Example 3, where the foreign key is given).
                let b2_owned: Vec<&str> = b2.clone();
                ctx.has_foreign_key(divisor, &b2_owned, right, &b2_owned)
            }
        };
        if !precondition_ok {
            return Ok(None);
        }
        Ok(Some(LogicalPlan::SmallDivide {
            dividend: left.clone(),
            divisor: Box::new(LogicalPlan::Project {
                input: divisor.clone(),
                attributes: b1,
            }),
        }))
    }
}

/// **Example 2**: `(r1 × s) ÷ (r2 × s) = r1 ÷ r2`.
///
/// The paper derives this from Law 9; the rule recognizes a dividend and a
/// divisor that share a *structurally identical* factor `s` and cancels it.
/// Like Law 9 it needs `s ≠ ∅` (checked via data or declined).
pub struct Example2CommonFactorElimination;

impl RewriteRule for Example2CommonFactorElimination {
    fn name(&self) -> &'static str {
        "example-2-common-factor-elimination"
    }

    fn reference(&self) -> &'static str {
        "Example 2, Section 5.1.5 (derived from Law 9)"
    }

    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>> {
        let LogicalPlan::SmallDivide { dividend, divisor } = plan else {
            return Ok(None);
        };
        let (
            LogicalPlan::Product {
                left: d_left,
                right: d_right,
            },
            LogicalPlan::Product {
                left: v_left,
                right: v_right,
            },
        ) = (dividend.as_ref(), divisor.as_ref())
        else {
            return Ok(None);
        };
        // The shared factor may appear on either side of each product; try the
        // four combinations and cancel the first structural match.
        let candidates = [
            (d_left, d_right, v_left, v_right),
            (d_left, d_right, v_right, v_left),
            (d_right, d_left, v_left, v_right),
            (d_right, d_left, v_right, v_left),
        ];
        for (keep_dividend, shared_dividend, keep_divisor, shared_divisor) in candidates {
            if shared_dividend != shared_divisor {
                continue;
            }
            // The remaining operands must still form a valid division.
            if ctx.divide_partition(keep_dividend, keep_divisor).is_none() {
                continue;
            }
            // s must be nonempty for the cancellation to be sound.
            match ctx.try_evaluate(shared_dividend)? {
                Some(s) if !s.is_empty() => {}
                _ => continue,
            }
            return Ok(Some(LogicalPlan::SmallDivide {
                dividend: keep_dividend.clone(),
                divisor: keep_divisor.clone(),
            }));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;
    use div_expr::{evaluate, Catalog, PlanBuilder};

    /// Figure 7 data (Law 8) and Figure 8 data (Law 9).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        // Figure 7.
        c.register("r_star_7", relation! { ["a1"] => [1], [2] });
        c.register(
            "r_star_star_7",
            relation! {
                ["a2", "b"] =>
                [1, 1], [1, 2], [1, 3],
                [2, 1], [2, 3],
                [3, 2], [3, 3],
            },
        );
        c.register("r2_7", relation! { ["b"] => [2], [3] });
        // Figure 8.
        c.register(
            "r_star_8",
            relation! {
                ["a", "b1"] =>
                [1, 1], [1, 2], [1, 3],
                [2, 2], [2, 3],
                [3, 1], [3, 3], [3, 4],
            },
        );
        c.register("r_star_star_8", relation! { ["b2"] => [1], [2] });
        c.register("r2_8", relation! { ["b1", "b2"] => [1, 2], [3, 1], [3, 2] });
        c
    }

    #[test]
    fn law8_pushes_division_into_the_product_factor() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r_star_7")
            .product(PlanBuilder::scan("r_star_star_7"))
            .divide(PlanBuilder::scan("r2_7"))
            .build();
        let rewritten = Law8ProductPushthrough
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 8 should apply");
        assert!(matches!(rewritten, LogicalPlan::Product { .. }));
        // Figure 7(f): the result is {1, 2} × {1, 3}.
        let expected = relation! { ["a1", "a2"] => [1, 1], [1, 3], [2, 1], [2, 3] };
        assert_eq!(evaluate(&plan, &catalog).unwrap(), expected);
        assert_eq!(evaluate(&rewritten, &catalog).unwrap(), expected);
    }

    #[test]
    fn law8_declines_when_divisor_spans_both_factors() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // Divisor r2_8 references b1 (left factor) and b2 (right factor).
        let plan = PlanBuilder::scan("r_star_8")
            .product(PlanBuilder::scan("r_star_star_8"))
            .divide(PlanBuilder::scan("r2_8"))
            .build();
        assert!(Law8ProductPushthrough.apply(&plan, &ctx).unwrap().is_none());
    }

    #[test]
    fn law9_eliminates_the_product_and_projects_the_divisor() {
        let catalog = catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r_star_8")
            .product(PlanBuilder::scan("r_star_star_8"))
            .divide(PlanBuilder::scan("r2_8"))
            .build();
        let rewritten = Law9ProductElimination
            .apply(&plan, &ctx)
            .unwrap()
            .expect("law 9 should apply");
        // The rewritten dividend no longer contains the product.
        match &rewritten {
            LogicalPlan::SmallDivide { dividend, divisor } => {
                assert!(matches!(dividend.as_ref(), LogicalPlan::Scan { .. }));
                assert!(matches!(divisor.as_ref(), LogicalPlan::Project { .. }));
            }
            other => panic!("unexpected rewrite {other:?}"),
        }
        // Figure 8(g): r3 = {1, 3}.
        let expected = relation! { ["a"] => [1], [3] };
        assert_eq!(evaluate(&plan, &catalog).unwrap(), expected);
        assert_eq!(evaluate(&rewritten, &catalog).unwrap(), expected);
    }

    #[test]
    fn law9_fires_from_foreign_key_metadata_without_data_access() {
        let mut catalog = catalog();
        catalog
            .declare_foreign_key("r2_8", &["b2"], "r_star_star_8", &["b2"])
            .unwrap();
        let ctx = RewriteContext::with_metadata_only(&catalog);
        let plan = PlanBuilder::scan("r_star_8")
            .product(PlanBuilder::scan("r_star_star_8"))
            .divide(PlanBuilder::scan("r2_8"))
            .build();
        assert!(Law9ProductElimination.apply(&plan, &ctx).unwrap().is_some());
    }

    #[test]
    fn law9_declines_when_projection_not_contained() {
        let mut catalog = catalog();
        // Divisor contains b2 = 9, which r**1 does not.
        catalog.register("r2_bad", relation! { ["b1", "b2"] => [1, 9] });
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r_star_8")
            .product(PlanBuilder::scan("r_star_star_8"))
            .divide(PlanBuilder::scan("r2_bad"))
            .build();
        assert!(Law9ProductElimination.apply(&plan, &ctx).unwrap().is_none());
    }

    #[test]
    fn example2_cancels_the_common_factor() {
        let mut catalog = Catalog::new();
        catalog.register("r1", relation! { ["a", "b1"] => [1, 1], [1, 2], [2, 1] });
        catalog.register("r2", relation! { ["b1"] => [1], [2] });
        catalog.register("s", relation! { ["b2"] => [7], [8] });
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .product(PlanBuilder::scan("s"))
            .divide(PlanBuilder::scan("r2").product(PlanBuilder::scan("s")))
            .build();
        let rewritten = Example2CommonFactorElimination
            .apply(&plan, &ctx)
            .unwrap()
            .expect("example 2 should apply");
        let expected = relation! { ["a"] => [1] };
        assert_eq!(evaluate(&plan, &catalog).unwrap(), expected);
        assert_eq!(evaluate(&rewritten, &catalog).unwrap(), expected);
        // The cancelled plan is exactly r1 ÷ r2.
        assert_eq!(
            rewritten,
            PlanBuilder::scan("r1")
                .divide(PlanBuilder::scan("r2"))
                .build()
        );
    }

    #[test]
    fn example2_declines_for_empty_shared_factor() {
        let mut catalog = Catalog::new();
        catalog.register("r1", relation! { ["a", "b1"] => [1, 1] });
        catalog.register("r2", relation! { ["b1"] => [1] });
        catalog.register("s", relation! { ["b2"] => });
        let ctx = RewriteContext::with_catalog(&catalog);
        let plan = PlanBuilder::scan("r1")
            .product(PlanBuilder::scan("s"))
            .divide(PlanBuilder::scan("r2").product(PlanBuilder::scan("s")))
            .build();
        assert!(Example2CommonFactorElimination
            .apply(&plan, &ctx)
            .unwrap()
            .is_none());
    }
}
