//! The worked rewrite derivations of Examples 1 and 3.
//!
//! The paper deliberately does *not* state these equivalences as laws —
//! Example 1 because it covers "a rather extreme case", Example 3 because it
//! is a multi-step derivation that composes Example 1 with Laws 4 and 9 — but
//! both are important: Example 3 is the paper's showcase of how the rule set
//! removes a theta-join from the dividend entirely. They are provided here as
//! plan constructors (and, for Example 3, as a step-by-step derivation) so the
//! examples, tests and benchmarks can reproduce Figures 6 and 9.

use super::helpers::refs;
use crate::context::RewriteContext;
use crate::Result;
use div_algebra::{CompareOp, Predicate};
use div_expr::{ExprError, LogicalPlan};

/// **Example 1** (Section 5.1.2): for a predicate `p` over the divisor
/// attributes `B`,
///
/// ```text
/// σ_{p(B)}(r1) ÷ r2 =
///     (σ_{p(B)}(r1) ÷ σ_{p(B)}(r2)) − π_A(π_A(r1) × σ_{¬p(B)}(r2))
/// ```
///
/// The Cartesian product on the right merely "switches `π_A(r1)` on or off":
/// if `σ_{¬p(B)}(r2)` is nonempty the whole quotient is forced to be empty.
///
/// Given the original plan `σ_{p(B)}(dividend) ÷ divisor`, this function
/// builds the right-hand side. It returns `None` when the shape or the
/// attribute sets do not match.
pub fn example1_rewrite(
    dividend: &LogicalPlan,
    predicate: &Predicate,
    divisor: &LogicalPlan,
    ctx: &RewriteContext<'_>,
) -> Result<Option<LogicalPlan>> {
    let Some(attrs) = ctx.divide_partition(dividend, divisor) else {
        return Ok(None);
    };
    if !predicate.only_references(&refs(&attrs.shared)) {
        return Ok(None);
    }
    let filtered_dividend = LogicalPlan::Select {
        input: Box::new(dividend.clone()),
        predicate: predicate.clone(),
    };
    let filtered_divisor = LogicalPlan::Select {
        input: Box::new(divisor.clone()),
        predicate: predicate.clone(),
    };
    let positive = LogicalPlan::SmallDivide {
        dividend: Box::new(filtered_dividend),
        divisor: Box::new(filtered_divisor),
    };
    // π_A(π_A(r1) × σ_{¬p(B)}(r2)) — nonempty exactly when σ_{¬p}(r2) is.
    let switch = LogicalPlan::Project {
        input: Box::new(LogicalPlan::Product {
            left: Box::new(LogicalPlan::Project {
                input: Box::new(dividend.clone()),
                attributes: attrs.quotient.clone(),
            }),
            right: Box::new(LogicalPlan::Select {
                input: Box::new(divisor.clone()),
                predicate: predicate.negate(),
            }),
        }),
        attributes: attrs.quotient.clone(),
    };
    Ok(Some(LogicalPlan::Difference {
        left: Box::new(positive),
        right: Box::new(switch),
    }))
}

/// One step of the Example 3 derivation: a named plan.
#[derive(Debug, Clone)]
pub struct DerivationStep {
    /// Which rule or definition justified this step.
    pub justification: &'static str,
    /// The plan after the step.
    pub plan: LogicalPlan,
}

/// **Example 3** (Section 5.1.6): rewrite
/// `(r*1 ⋈_{b1<b2} r**1) ÷ r2` into
/// `(r*1 ÷ π_{b1}(σ_{b1<b2}(r2))) − π_a(π_a(r*1) × σ_{b1≥b2}(r2))`,
/// eliminating the theta-join from the dividend.
///
/// The inputs are the three scans of Figure 9: `r*1(a, b1)`, `r**1(b2)` and
/// `r2(b1, b2)`; the paper's preconditions are that `r**1.b2` is unique and
/// `r2.b2` is a foreign key referencing `r**1` (so that Law 9 applies).
///
/// Returns the full derivation: the original plan followed by one entry per
/// rewrite step, exactly mirroring the chain of equalities in the paper. The
/// final step's plan is the fully rewritten expression.
pub fn example3_derivation(
    r_star: &LogicalPlan,
    r_star_star: &LogicalPlan,
    r2: &LogicalPlan,
    ctx: &RewriteContext<'_>,
) -> Result<Vec<DerivationStep>> {
    let Some(star_schema) = ctx.schema_of(r_star) else {
        return Err(ExprError::invalid("cannot infer schema of r*1"));
    };
    let Some(star_star_schema) = ctx.schema_of(r_star_star) else {
        return Err(ExprError::invalid("cannot infer schema of r**1"));
    };
    // Attribute names of Figure 9: a and b1 from r*1, b2 from r**1.
    let a_attrs: Vec<String> = star_schema
        .names()
        .into_iter()
        .filter(|n| *n != "b1")
        .map(|s| s.to_string())
        .collect();
    if !star_schema.contains("b1") || !star_star_schema.contains("b2") || a_attrs.is_empty() {
        return Err(ExprError::invalid(
            "example 3 expects r*1(a…, b1) and r**1(b2) as in Figure 9",
        ));
    }
    let join_pred = Predicate::cmp_attrs("b1", CompareOp::Lt, "b2");
    let anti_pred = join_pred.negate();

    // Step 0 — the original expression: (r*1 ⋈_{b1<b2} r**1) ÷ r2.
    let original = LogicalPlan::SmallDivide {
        dividend: Box::new(LogicalPlan::ThetaJoin {
            left: Box::new(r_star.clone()),
            right: Box::new(r_star_star.clone()),
            predicate: join_pred.clone(),
        }),
        divisor: Box::new(r2.clone()),
    };
    let mut steps = vec![DerivationStep {
        justification: "original expression",
        plan: original,
    }];

    // Step 1 — definition of theta-join: σ_{b1<b2}(r*1 × r**1) ÷ r2.
    let product = LogicalPlan::Product {
        left: Box::new(r_star.clone()),
        right: Box::new(r_star_star.clone()),
    };
    let step1 = LogicalPlan::SmallDivide {
        dividend: Box::new(LogicalPlan::Select {
            input: Box::new(product.clone()),
            predicate: join_pred.clone(),
        }),
        divisor: Box::new(r2.clone()),
    };
    steps.push(DerivationStep {
        justification: "definition of theta-join (⋈θ ≡ σθ ∘ ×)",
        plan: step1,
    });

    // Step 2 — Example 1 applied to the selection on B attributes.
    let step2 = LogicalPlan::Difference {
        left: Box::new(LogicalPlan::SmallDivide {
            dividend: Box::new(LogicalPlan::Select {
                input: Box::new(product.clone()),
                predicate: join_pred.clone(),
            }),
            divisor: Box::new(LogicalPlan::Select {
                input: Box::new(r2.clone()),
                predicate: join_pred.clone(),
            }),
        }),
        right: Box::new(LogicalPlan::Project {
            input: Box::new(LogicalPlan::Product {
                left: Box::new(LogicalPlan::Project {
                    input: Box::new(product.clone()),
                    attributes: a_attrs.clone(),
                }),
                right: Box::new(LogicalPlan::Select {
                    input: Box::new(r2.clone()),
                    predicate: anti_pred.clone(),
                }),
            }),
            attributes: a_attrs.clone(),
        }),
    };
    steps.push(DerivationStep {
        justification: "Example 1 (selection on dividend B attributes)",
        plan: step2,
    });

    // Step 3 — Law 4: drop the replicated selection from the dividend.
    let step3 = LogicalPlan::Difference {
        left: Box::new(LogicalPlan::SmallDivide {
            dividend: Box::new(product.clone()),
            divisor: Box::new(LogicalPlan::Select {
                input: Box::new(r2.clone()),
                predicate: join_pred.clone(),
            }),
        }),
        right: Box::new(LogicalPlan::Project {
            input: Box::new(LogicalPlan::Product {
                left: Box::new(LogicalPlan::Project {
                    input: Box::new(product.clone()),
                    attributes: a_attrs.clone(),
                }),
                right: Box::new(LogicalPlan::Select {
                    input: Box::new(r2.clone()),
                    predicate: anti_pred.clone(),
                }),
            }),
            attributes: a_attrs.clone(),
        }),
    };
    steps.push(DerivationStep {
        justification: "Law 4 (divisor selection replication, applied right-to-left)",
        plan: step3,
    });

    // Step 4 — Law 9: eliminate the product from the dividend.
    let step4 = LogicalPlan::Difference {
        left: Box::new(LogicalPlan::SmallDivide {
            dividend: Box::new(r_star.clone()),
            divisor: Box::new(LogicalPlan::Project {
                input: Box::new(LogicalPlan::Select {
                    input: Box::new(r2.clone()),
                    predicate: join_pred.clone(),
                }),
                attributes: vec!["b1".to_string()],
            }),
        }),
        right: Box::new(LogicalPlan::Project {
            input: Box::new(LogicalPlan::Product {
                left: Box::new(LogicalPlan::Project {
                    input: Box::new(product),
                    attributes: a_attrs.clone(),
                }),
                right: Box::new(LogicalPlan::Select {
                    input: Box::new(r2.clone()),
                    predicate: anti_pred.clone(),
                }),
            }),
            attributes: a_attrs.clone(),
        }),
    };
    steps.push(DerivationStep {
        justification: "Law 9 (product elimination; π_{b2}(r2) ⊆ r**1)",
        plan: step4,
    });

    // Step 5 — since a ∈ R*1 but a ∉ R**1: π_a(r*1 × r**1) = π_a(r*1)
    // (provided r**1 ≠ ∅, which the foreign key of the precondition gives us
    // whenever r2 is nonempty; for r2 = ∅ both sides are the full quotient).
    let final_plan = LogicalPlan::Difference {
        left: Box::new(LogicalPlan::SmallDivide {
            dividend: Box::new(r_star.clone()),
            divisor: Box::new(LogicalPlan::Project {
                input: Box::new(LogicalPlan::Select {
                    input: Box::new(r2.clone()),
                    predicate: join_pred,
                }),
                attributes: vec!["b1".to_string()],
            }),
        }),
        right: Box::new(LogicalPlan::Project {
            input: Box::new(LogicalPlan::Product {
                left: Box::new(LogicalPlan::Project {
                    input: Box::new(r_star.clone()),
                    attributes: a_attrs.clone(),
                }),
                right: Box::new(LogicalPlan::Select {
                    input: Box::new(r2.clone()),
                    predicate: anti_pred,
                }),
            }),
            attributes: a_attrs,
        }),
    };
    steps.push(DerivationStep {
        justification:
            "projection simplification (a ∈ R*1, a ∉ R**1) — final plan, no join on the dividend",
        plan: final_plan,
    });
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RewriteContext;
    use div_algebra::relation;
    use div_expr::{evaluate, Catalog, PlanBuilder};

    /// Figure 6 data (Example 1).
    fn figure6_catalog() -> Catalog {
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
        c.register("r2_small", relation! { ["b"] => [1], [2] });
        c
    }

    /// Figure 9 data (Example 3).
    fn figure9_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "r_star",
            relation! {
                ["a", "b1"] =>
                [1, 1], [1, 2], [1, 3],
                [2, 2], [2, 3],
                [3, 1], [3, 3], [3, 4],
            },
        );
        c.register("r_star_star", relation! { ["b2"] => [1], [2], [4] });
        c.register("r2", relation! { ["b1", "b2"] => [1, 4], [3, 4] });
        c
    }

    #[test]
    fn example1_reproduces_figure_6() {
        let catalog = figure6_catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let dividend = PlanBuilder::scan("r1").build();
        let divisor = PlanBuilder::scan("r2").build();
        let p = Predicate::cmp_value("b", CompareOp::Lt, 3);

        let original = LogicalPlan::SmallDivide {
            dividend: Box::new(LogicalPlan::Select {
                input: Box::new(dividend.clone()),
                predicate: p.clone(),
            }),
            divisor: Box::new(divisor.clone()),
        };
        let rewritten = example1_rewrite(&dividend, &p, &divisor, &ctx)
            .unwrap()
            .expect("example 1 should apply");
        // Figure 6(e)/(i): both sides are empty because σ_{b≥3}(r2) ≠ ∅.
        assert!(evaluate(&original, &catalog).unwrap().is_empty());
        assert!(evaluate(&rewritten, &catalog).unwrap().is_empty());
    }

    #[test]
    fn example1_nonempty_case() {
        // With divisor {1, 2} the negated selection is empty and the rewrite
        // must agree with the original non-empty quotient.
        let catalog = figure6_catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let dividend = PlanBuilder::scan("r1").build();
        let divisor = PlanBuilder::scan("r2_small").build();
        let p = Predicate::cmp_value("b", CompareOp::Lt, 3);
        let original = LogicalPlan::SmallDivide {
            dividend: Box::new(LogicalPlan::Select {
                input: Box::new(dividend.clone()),
                predicate: p.clone(),
            }),
            divisor: Box::new(divisor.clone()),
        };
        let rewritten = example1_rewrite(&dividend, &p, &divisor, &ctx)
            .unwrap()
            .unwrap();
        let expected = relation! { ["a"] => [2] };
        assert_eq!(evaluate(&original, &catalog).unwrap(), expected);
        assert_eq!(evaluate(&rewritten, &catalog).unwrap(), expected);
    }

    #[test]
    fn example1_declines_for_non_divisor_predicates() {
        let catalog = figure6_catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let dividend = PlanBuilder::scan("r1").build();
        let divisor = PlanBuilder::scan("r2").build();
        let p = Predicate::eq_value("a", 1);
        assert!(example1_rewrite(&dividend, &p, &divisor, &ctx)
            .unwrap()
            .is_none());
    }

    #[test]
    fn example3_every_derivation_step_is_equivalent() {
        let catalog = figure9_catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        let steps = example3_derivation(
            &PlanBuilder::scan("r_star").build(),
            &PlanBuilder::scan("r_star_star").build(),
            &PlanBuilder::scan("r2").build(),
            &ctx,
        )
        .unwrap();
        assert_eq!(steps.len(), 6);
        // Figure 9(f): r3 = {1, 3}.
        let expected = relation! { ["a"] => [1], [3] };
        for step in &steps {
            assert_eq!(
                evaluate(&step.plan, &catalog).unwrap(),
                expected,
                "step `{}` is not equivalent",
                step.justification
            );
        }
        // The final plan no longer touches r**1 at all and contains no join.
        let final_plan = &steps.last().unwrap().plan;
        assert!(!final_plan
            .scanned_tables()
            .contains(&"r_star_star".to_string()));
        assert!(!format!("{final_plan}").contains("ThetaJoin"));
    }

    #[test]
    fn example3_rejects_wrong_shapes() {
        let catalog = figure9_catalog();
        let ctx = RewriteContext::with_catalog(&catalog);
        // r*1 without the expected b1 attribute.
        let bad = example3_derivation(
            &PlanBuilder::scan("r_star_star").build(),
            &PlanBuilder::scan("r_star_star").build(),
            &PlanBuilder::scan("r2").build(),
            &ctx,
        );
        assert!(bad.is_err());
    }
}
