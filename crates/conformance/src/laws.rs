//! One named logical-plan shape per rewrite law of the paper.
//!
//! The golden corpus pins coverage of all 17 laws (plus the two worked
//! examples that ship as extra rules) by replaying these shapes — the same
//! catalogs the rule unit tests use, so each shape is known to satisfy its
//! law's precondition — through the full differential matrix and asserting
//! that the optimizer's rewrite enumeration ([`Optimizer::rewrites`]) yields
//! the law and that every rewrite it yields preserves the result. Golden
//! files reference a shape by key through their `plan <key>` directive.

use div_algebra::{relation, AggregateCall, CompareOp, Predicate, Relation};
use div_expr::{Catalog, LogicalPlan, PlanBuilder};
use div_rewrite::{Optimizer, RewriteContext, RuleSet};

/// A named law-trigger shape: catalog plus plan.
pub struct LawCase {
    /// Registry key (`law01` … `law17`, `example2`, `example4`).
    pub key: &'static str,
    /// The rewrite-rule name the shape must trigger.
    pub rule: &'static str,
    /// Paper law number (`None` for the worked examples).
    pub law_number: Option<u8>,
    /// Base tables the plan reads.
    pub tables: Vec<(&'static str, Relation)>,
    /// The plan, built over those tables.
    pub plan: LogicalPlan,
}

impl LawCase {
    /// A catalog holding this case's tables.
    pub fn catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        for (name, relation) in &self.tables {
            catalog.register(*name, relation.clone());
        }
        catalog
    }
}

/// Look a shape up by key.
pub fn find(key: &str) -> Option<LawCase> {
    law_cases().into_iter().find(|c| c.key == key)
}

/// Apply the case's named rule directly to the root of its plan. The shape
/// is built to satisfy the rule's precondition, so this must return a
/// rewritten plan. It forces one law where [`check_rewrites`] walks the
/// rewrites the optimizer would consider.
pub fn apply_rule(case: &LawCase) -> Result<LogicalPlan, String> {
    let catalog = case.catalog();
    let ctx = RewriteContext::with_catalog(&catalog);
    let rules = RuleSet::default_rules();
    let rule = rules
        .find(case.rule)
        .ok_or_else(|| format!("{}: no rule named `{}`", case.key, case.rule))?;
    rule.apply(&case.plan, &ctx)
        .map_err(|e| format!("{}: `{}` errored: {e}", case.key, case.rule))?
        .ok_or_else(|| {
            format!(
                "{}: `{}` did not match its trigger shape",
                case.key, case.rule
            )
        })
}

/// Walk [`Optimizer::rewrites`] of the case's plan over `catalog`: the
/// case's named rule must be among the rules that fire, and every rewrite
/// must evaluate to `expected`, the original plan's result. (A shape matched
/// by more than one law — Example 2's is also a Law 9 match — yields one
/// candidate per law, so no other law can hide the case's own.)
pub fn check_rewrites(
    case: &LawCase,
    catalog: &Catalog,
    expected: &Relation,
) -> Result<(), String> {
    let ctx = RewriteContext::with_catalog(catalog);
    let rewrites = Optimizer::new()
        .rewrites(&case.plan, &ctx)
        .map_err(|e| format!("{}: rewrite enumeration failed: {e}", case.key))?;
    if !rewrites.iter().any(|r| r.rule == case.rule) {
        let fired: Vec<&str> = rewrites.iter().map(|r| r.rule.as_str()).collect();
        return Err(format!(
            "{}: `{}` is not among the optimizer's rewrites {fired:?}",
            case.key, case.rule
        ));
    }
    for rewrite in &rewrites {
        let got = div_expr::evaluate(&rewrite.plan, catalog).map_err(|e| {
            format!(
                "{}: `{}` rewrite evaluation failed: {e}",
                case.key, rewrite.rule
            )
        })?;
        if &got != expected {
            return Err(format!(
                "{}: `{}` changed the result",
                case.key, rewrite.rule
            ));
        }
    }
    Ok(())
}

/// Figure 2's dividend/divisor pair, shared by the great-divide laws.
fn great_tables() -> Vec<(&'static str, Relation)> {
    vec![
        (
            "r1",
            relation! {
                ["a", "b"] =>
                [1, 1], [1, 4],
                [2, 1], [2, 2], [2, 3], [2, 4],
                [3, 1], [3, 3], [3, 4],
            },
        ),
        (
            "r2",
            relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] },
        ),
    ]
}

/// The selection/join catalog (Figure 4's dividend with an extra tuple).
fn select_tables() -> Vec<(&'static str, Relation)> {
    vec![
        (
            "r1",
            relation! {
                ["a", "b"] =>
                [1, 1], [1, 4],
                [2, 1], [2, 2], [2, 3], [2, 4],
                [3, 1], [3, 3], [3, 4],
                [4, 1], [4, 3],
            },
        ),
        ("r2", relation! { ["b"] => [1], [3], [4] }),
    ]
}

/// The set-operation catalog of the Law 5–7 unit tests.
fn set_ops_tables() -> Vec<(&'static str, Relation)> {
    vec![
        (
            "r1",
            relation! {
                ["a", "b"] =>
                [1, 1], [1, 3],
                [2, 1], [2, 2], [2, 3],
                [3, 1], [3, 3],
                [10, 1], [10, 3],
                [11, 1],
            },
        ),
        ("r2", relation! { ["b"] => [1], [3] }),
    ]
}

/// All law-trigger shapes, in law order.
pub fn law_cases() -> Vec<LawCase> {
    let mut cases = Vec::new();

    // Law 1: r1 ÷ (r'2 ∪ r''2) pipelines the divisor union (Figure 4).
    cases.push(LawCase {
        key: "law01",
        rule: "law-01-divisor-union-pipeline",
        law_number: Some(1),
        tables: vec![
            (
                "r1",
                relation! {
                    ["a", "b"] =>
                    [1, 1], [1, 4],
                    [2, 1], [2, 2], [2, 3], [2, 4],
                    [3, 1], [3, 3], [3, 4],
                    [4, 1], [4, 3],
                },
            ),
            ("r2_prime", relation! { ["b"] => [1], [3] }),
            ("r2_double", relation! { ["b"] => [3], [4] }),
        ],
        plan: PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2_prime").union(PlanBuilder::scan("r2_double")))
            .build(),
    });

    // Law 2: (r'1 ∪ r''1) ÷ r2 splits when the dividend partitions on A.
    cases.push(LawCase {
        key: "law02",
        rule: "law-02-dividend-union-split",
        law_number: Some(2),
        tables: vec![
            ("low", relation! { ["a", "b"] => [1, 1], [1, 3], [2, 1] }),
            ("high", relation! { ["a", "b"] => [3, 1], [3, 3] }),
            ("r2", relation! { ["b"] => [1], [3] }),
        ],
        plan: PlanBuilder::scan("low")
            .union(PlanBuilder::scan("high"))
            .divide(PlanBuilder::scan("r2"))
            .build(),
    });

    // Law 3: σ_{p(A)} above the division pushes into the dividend.
    cases.push(LawCase {
        key: "law03",
        rule: "law-03-selection-pushdown",
        law_number: Some(3),
        tables: select_tables(),
        plan: PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .select(Predicate::cmp_value("a", CompareOp::Gt, 2))
            .build(),
    });

    // Law 4: a divisor selection replicates into the dividend (Example 1).
    cases.push(LawCase {
        key: "law04",
        rule: "law-04-divisor-selection-replication",
        law_number: Some(4),
        tables: select_tables(),
        plan: PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2").select(Predicate::cmp_value("b", CompareOp::Lt, 3)))
            .build(),
    });

    // Law 5: an intersection dividend splits into intersected quotients.
    cases.push(LawCase {
        key: "law05",
        rule: "law-05-intersection-split",
        law_number: Some(5),
        tables: set_ops_tables(),
        plan: PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::LtEq, 5))
            .intersect(PlanBuilder::scan("r1").select(Predicate::cmp_value(
                "b",
                CompareOp::LtEq,
                3,
            )))
            .divide(PlanBuilder::scan("r2"))
            .build(),
    });

    // Law 6: a difference of nested selections splits syntactically.
    let p_prime = Predicate::cmp_value("a", CompareOp::Gt, 1);
    let p_double = p_prime
        .clone()
        .and(Predicate::cmp_value("a", CompareOp::Gt, 9));
    cases.push(LawCase {
        key: "law06",
        rule: "law-06-difference-split",
        law_number: Some(6),
        tables: set_ops_tables(),
        plan: PlanBuilder::scan("r1")
            .select(p_prime)
            .difference(PlanBuilder::scan("r1").select(p_double))
            .divide(PlanBuilder::scan("r2"))
            .build(),
    });

    // Law 7: disjoint quotient prefixes make the subtraction a no-op.
    cases.push(LawCase {
        key: "law07",
        rule: "law-07-disjoint-difference-elimination",
        law_number: Some(7),
        tables: set_ops_tables(),
        plan: PlanBuilder::scan("r1")
            .select(Predicate::cmp_value("a", CompareOp::LtEq, 10))
            .divide(PlanBuilder::scan("r2"))
            .difference(
                PlanBuilder::scan("r1")
                    .select(Predicate::cmp_value("a", CompareOp::Gt, 10))
                    .divide(PlanBuilder::scan("r2")),
            )
            .build(),
    });

    // Law 8: the division pushes into the product factor holding B (Fig 7).
    cases.push(LawCase {
        key: "law08",
        rule: "law-08-product-pushthrough",
        law_number: Some(8),
        tables: vec![
            ("r_star", relation! { ["a1"] => [1], [2] }),
            (
                "r_star_star",
                relation! {
                    ["a2", "b"] =>
                    [1, 1], [1, 2], [1, 3],
                    [2, 1], [2, 3],
                    [3, 2], [3, 3],
                },
            ),
            ("r2", relation! { ["b"] => [2], [3] }),
        ],
        plan: PlanBuilder::scan("r_star")
            .product(PlanBuilder::scan("r_star_star"))
            .divide(PlanBuilder::scan("r2"))
            .build(),
    });

    // Law 9: the product is eliminated entirely (Figure 8).
    cases.push(LawCase {
        key: "law09",
        rule: "law-09-product-elimination",
        law_number: Some(9),
        tables: vec![
            (
                "r_star",
                relation! {
                    ["a", "b1"] =>
                    [1, 1], [1, 2], [1, 3],
                    [2, 2], [2, 3],
                    [3, 1], [3, 3], [3, 4],
                },
            ),
            ("r_star_star", relation! { ["b2"] => [1], [2] }),
            ("r2", relation! { ["b1", "b2"] => [1, 2], [3, 1], [3, 2] }),
        ],
        plan: PlanBuilder::scan("r_star")
            .product(PlanBuilder::scan("r_star_star"))
            .divide(PlanBuilder::scan("r2"))
            .build(),
    });

    // Law 10: (r1 ÷ r2) ⋉ r3 commutes to (r1 ⋉ r3) ÷ r2 (Example 3).
    cases.push(LawCase {
        key: "law10",
        rule: "law-10-semijoin-commute",
        law_number: Some(10),
        tables: {
            let mut tables = select_tables();
            tables[1] = ("r2", relation! { ["b"] => [1], [3] });
            tables.push(("r3", relation! { ["a"] => [3], [4], [99] }));
            tables
        },
        plan: PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .semi_join(PlanBuilder::scan("r3"))
            .build(),
    });

    // Law 11: single-tuple quotient groups (γ dividend, Figure 10).
    cases.push(LawCase {
        key: "law11",
        rule: "law-11-singleton-quotient-groups",
        law_number: Some(11),
        tables: vec![
            (
                "r0",
                relation! {
                    ["a", "x"] =>
                    [1, 1], [1, 2], [1, 3],
                    [2, 1], [2, 3],
                    [3, 1], [3, 3], [3, 4],
                },
            ),
            ("r2", relation! { ["b"] => [4] }),
        ],
        plan: PlanBuilder::scan("r0")
            .group_aggregate(["a"], [AggregateCall::sum("x", "b")])
            .divide(PlanBuilder::scan("r2"))
            .build(),
    });

    // Law 12: single-tuple divisor groups with the divisor referencing the
    // dividend (γ dividend grouped on B, Figure 11).
    cases.push(LawCase {
        key: "law12",
        rule: "law-12-singleton-divisor-groups",
        law_number: Some(12),
        tables: vec![
            (
                "r0",
                relation! {
                    ["x", "b"] =>
                    [1, 1], [1, 2], [1, 3],
                    [2, 1], [2, 3],
                    [3, 1], [3, 3], [3, 4],
                },
            ),
            ("r2", relation! { ["b"] => [1], [3] }),
        ],
        plan: PlanBuilder::scan("r0")
            .group_aggregate(["b"], [AggregateCall::sum("x", "a")])
            .divide(PlanBuilder::scan("r2"))
            .build(),
    });

    // Law 13: a divisor union with disjoint groups splits the great divide.
    cases.push(LawCase {
        key: "law13",
        rule: "law-13-great-divisor-union-split",
        law_number: Some(13),
        tables: {
            let mut tables = great_tables();
            tables.push(("r2_c1", relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1] }));
            tables.push(("r2_c2", relation! { ["b", "c"] => [1, 2], [3, 2] }));
            tables
        },
        plan: PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2_c1").union(PlanBuilder::scan("r2_c2")))
            .build(),
    });

    // Law 14: σ on quotient attributes pushes into the dividend.
    cases.push(LawCase {
        key: "law14",
        rule: "law-14-great-selection-pushdown-quotient",
        law_number: Some(14),
        tables: great_tables(),
        plan: PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2"))
            .select(Predicate::eq_value("a", 2))
            .build(),
    });

    // Law 15: σ on group attributes pushes into the divisor.
    cases.push(LawCase {
        key: "law15",
        rule: "law-15-great-selection-pushdown-group",
        law_number: Some(15),
        tables: great_tables(),
        plan: PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2"))
            .select(Predicate::eq_value("c", 2))
            .build(),
    });

    // Law 16: a divisor selection on B replicates into the dividend.
    cases.push(LawCase {
        key: "law16",
        rule: "law-16-great-divisor-selection-replication",
        law_number: Some(16),
        tables: great_tables(),
        plan: PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2").select(Predicate::eq_value("b", 1)))
            .build(),
    });

    // Law 17: the great divide pushes into the product factor (Example 4's
    // product form).
    cases.push(LawCase {
        key: "law17",
        rule: "law-17-great-product-pushthrough",
        law_number: Some(17),
        tables: {
            let mut tables = great_tables();
            tables.push(("factor", relation! { ["d"] => [10], [20] }));
            tables
        },
        plan: PlanBuilder::scan("factor")
            .product(PlanBuilder::scan("r1"))
            .great_divide(PlanBuilder::scan("r2"))
            .build(),
    });

    // Example 2: common product factor cancels on both sides.
    cases.push(LawCase {
        key: "example2",
        rule: "example-2-common-factor-elimination",
        law_number: None,
        tables: vec![
            ("r1", relation! { ["a", "b1"] => [1, 1], [1, 2], [2, 1] }),
            ("r2", relation! { ["b1"] => [1], [2] }),
            ("s", relation! { ["b2"] => [7], [8] }),
        ],
        plan: PlanBuilder::scan("r1")
            .product(PlanBuilder::scan("s"))
            .divide(PlanBuilder::scan("r2").product(PlanBuilder::scan("s")))
            .build(),
    });

    // Example 4: a selective join pushes inside the great divide.
    cases.push(LawCase {
        key: "example4",
        rule: "example-4-join-push-in",
        law_number: None,
        tables: {
            let mut tables = great_tables();
            tables.push(("outer", relation! { ["a1"] => [2], [99] }));
            tables
        },
        plan: PlanBuilder::scan("outer")
            .theta_join(
                PlanBuilder::scan("r1").great_divide(PlanBuilder::scan("r2")),
                Predicate::eq_attrs("a1", "a"),
            )
            .build(),
    });

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_law_shape_fires_its_law_and_preserves_semantics() {
        for case in law_cases() {
            let catalog = case.catalog();
            let before = div_expr::evaluate(&case.plan, &catalog)
                .unwrap_or_else(|e| panic!("{}: original evaluation failed: {e}", case.key));

            // The named rule itself must match and preserve the result.
            let direct = apply_rule(&case).unwrap_or_else(|e| panic!("{e}"));
            let after_direct = div_expr::evaluate(&direct, &catalog)
                .unwrap_or_else(|e| panic!("{}: direct rewrite evaluation failed: {e}", case.key));
            assert_eq!(
                before, after_direct,
                "{}: `{}` changed the result",
                case.key, case.rule
            );

            // The optimizer must enumerate it, every rewrite it enumerates
            // must agree, and so must the plan its greedy search keeps.
            check_rewrites(&case, &catalog, &before).unwrap_or_else(|e| panic!("{e}"));
            let ctx = RewriteContext::with_catalog(&catalog);
            let optimized = Optimizer::new()
                .optimize(&case.plan, &ctx)
                .unwrap_or_else(|e| panic!("{}: optimize failed: {e}", case.key));
            let after = div_expr::evaluate(&optimized.plan, &catalog)
                .unwrap_or_else(|e| panic!("{}: optimized evaluation failed: {e}", case.key));
            assert_eq!(before, after, "{}: optimizer changed the result", case.key);
        }
    }

    #[test]
    fn registry_covers_all_seventeen_laws() {
        let cases = law_cases();
        for n in 1..=17u8 {
            assert!(
                cases.iter().any(|c| c.law_number == Some(n)),
                "law {n} has no registry shape"
            );
        }
        assert!(find("law01").is_some());
        assert!(find("example4").is_some());
        assert!(find("nope").is_none());
    }
}
