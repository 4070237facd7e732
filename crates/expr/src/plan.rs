//! The logical plan tree.

use crate::Result;
use div_algebra::{AggregateCall, Predicate, Relation};
use std::fmt;

/// A logical relational-algebra expression.
///
/// Every operator of the paper's Appendix A is a node variant; in particular
/// the two division operators are *first-class* variants so that the rewrite
/// rules of `div-rewrite` can match on them directly. Plans are immutable
/// trees; the transformation helpers ([`LogicalPlan::transform_up`],
/// [`LogicalPlan::transform_down`]) rebuild the tree as needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalPlan {
    /// Scan of a named base relation registered in the catalog.
    Scan {
        /// Table name.
        table: String,
    },
    /// An inline relation literal. Used for one-tuple relations in proofs,
    /// for tests, and by rewrites that materialize small constants.
    Values {
        /// The literal relation.
        relation: Relation,
    },
    /// Selection `σ_predicate(input)`.
    Select {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Filter predicate.
        predicate: Predicate,
    },
    /// Projection `π_attributes(input)` (set semantics).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Attributes to keep, in output order.
        attributes: Vec<String>,
    },
    /// Rename attributes of the input (`ρ`).
    Rename {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Pairs of `(old_name, new_name)`.
        renames: Vec<(String, String)>,
    },
    /// Set union.
    Union {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// Set intersection.
    Intersect {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// Set difference.
    Difference {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// Cartesian product.
    Product {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// Theta-join `left ⋈_θ right`.
    ThetaJoin {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
        /// Join predicate over the concatenated schema.
        predicate: Predicate,
    },
    /// Natural join on all common attribute names.
    NaturalJoin {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// Left semi-join `left ⋉ right`.
    SemiJoin {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// Left anti-semi-join `left ▷ right`.
    AntiSemiJoin {
        /// Left operand.
        left: Box<LogicalPlan>,
        /// Right operand.
        right: Box<LogicalPlan>,
    },
    /// Small divide `dividend ÷ divisor`.
    SmallDivide {
        /// Dividend (schema `A ∪ B`).
        dividend: Box<LogicalPlan>,
        /// Divisor (schema `B`).
        divisor: Box<LogicalPlan>,
    },
    /// Great divide `dividend ÷* divisor`.
    GreatDivide {
        /// Dividend (schema `A ∪ B`).
        dividend: Box<LogicalPlan>,
        /// Divisor (schema `B ∪ C`).
        divisor: Box<LogicalPlan>,
    },
    /// Grouping with aggregation `GγF(input)`.
    GroupAggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping attributes `G`.
        group_by: Vec<String>,
        /// Aggregate list `F`.
        aggregates: Vec<AggregateCall>,
    },
}

/// Result of a single transformation attempt: either a rewritten plan or the
/// statement that nothing changed. Mirrors the convention of production
/// optimizers (e.g. DataFusion's `Transformed`) so rule application can stop
/// at a fixpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transformed {
    /// The rule produced a new plan.
    Yes(LogicalPlan),
    /// The rule did not apply.
    No(LogicalPlan),
}

impl Transformed {
    /// The contained plan, regardless of whether it was rewritten.
    pub fn into_plan(self) -> LogicalPlan {
        match self {
            Transformed::Yes(p) | Transformed::No(p) => p,
        }
    }

    /// `true` if the rule produced a new plan.
    pub fn is_transformed(&self) -> bool {
        matches!(self, Transformed::Yes(_))
    }
}

impl LogicalPlan {
    /// Short operator name used by displays and statistics.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Values { .. } => "Values",
            LogicalPlan::Select { .. } => "Select",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Rename { .. } => "Rename",
            LogicalPlan::Union { .. } => "Union",
            LogicalPlan::Intersect { .. } => "Intersect",
            LogicalPlan::Difference { .. } => "Difference",
            LogicalPlan::Product { .. } => "Product",
            LogicalPlan::ThetaJoin { .. } => "ThetaJoin",
            LogicalPlan::NaturalJoin { .. } => "NaturalJoin",
            LogicalPlan::SemiJoin { .. } => "SemiJoin",
            LogicalPlan::AntiSemiJoin { .. } => "AntiSemiJoin",
            LogicalPlan::SmallDivide { .. } => "SmallDivide",
            LogicalPlan::GreatDivide { .. } => "GreatDivide",
            LogicalPlan::GroupAggregate { .. } => "GroupAggregate",
        }
    }

    /// The children of this node, left to right.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Rename { input, .. }
            | LogicalPlan::GroupAggregate { input, .. } => vec![input],
            LogicalPlan::Union { left, right }
            | LogicalPlan::Intersect { left, right }
            | LogicalPlan::Difference { left, right }
            | LogicalPlan::Product { left, right }
            | LogicalPlan::ThetaJoin { left, right, .. }
            | LogicalPlan::NaturalJoin { left, right }
            | LogicalPlan::SemiJoin { left, right }
            | LogicalPlan::AntiSemiJoin { left, right } => vec![left, right],
            LogicalPlan::SmallDivide { dividend, divisor }
            | LogicalPlan::GreatDivide { dividend, divisor } => vec![dividend, divisor],
        }
    }

    /// Rebuild this node with new children (same arity and order as
    /// [`LogicalPlan::children`]).
    pub fn with_children(&self, mut children: Vec<LogicalPlan>) -> LogicalPlan {
        let mut next = || Box::new(children.remove(0));
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => self.clone(),
            LogicalPlan::Select { predicate, .. } => LogicalPlan::Select {
                input: next(),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { attributes, .. } => LogicalPlan::Project {
                input: next(),
                attributes: attributes.clone(),
            },
            LogicalPlan::Rename { renames, .. } => LogicalPlan::Rename {
                input: next(),
                renames: renames.clone(),
            },
            LogicalPlan::GroupAggregate {
                group_by,
                aggregates,
                ..
            } => LogicalPlan::GroupAggregate {
                input: next(),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            },
            LogicalPlan::Union { .. } => LogicalPlan::Union {
                left: next(),
                right: next(),
            },
            LogicalPlan::Intersect { .. } => LogicalPlan::Intersect {
                left: next(),
                right: next(),
            },
            LogicalPlan::Difference { .. } => LogicalPlan::Difference {
                left: next(),
                right: next(),
            },
            LogicalPlan::Product { .. } => LogicalPlan::Product {
                left: next(),
                right: next(),
            },
            LogicalPlan::ThetaJoin { predicate, .. } => LogicalPlan::ThetaJoin {
                left: next(),
                right: next(),
                predicate: predicate.clone(),
            },
            LogicalPlan::NaturalJoin { .. } => LogicalPlan::NaturalJoin {
                left: next(),
                right: next(),
            },
            LogicalPlan::SemiJoin { .. } => LogicalPlan::SemiJoin {
                left: next(),
                right: next(),
            },
            LogicalPlan::AntiSemiJoin { .. } => LogicalPlan::AntiSemiJoin {
                left: next(),
                right: next(),
            },
            LogicalPlan::SmallDivide { .. } => LogicalPlan::SmallDivide {
                dividend: next(),
                divisor: next(),
            },
            LogicalPlan::GreatDivide { .. } => LogicalPlan::GreatDivide {
                dividend: next(),
                divisor: next(),
            },
        }
    }

    /// Apply `f` to every node bottom-up (children first), rebuilding the tree.
    /// `f` receives each (already-rewritten-below) node and may replace it.
    pub fn transform_up(
        &self,
        f: &mut impl FnMut(LogicalPlan) -> Result<Transformed>,
    ) -> Result<Transformed> {
        let mut any = false;
        let mut new_children = Vec::new();
        for child in self.children() {
            let t = child.transform_up(f)?;
            any |= t.is_transformed();
            new_children.push(t.into_plan());
        }
        let rebuilt = if new_children.is_empty() {
            self.clone()
        } else {
            self.with_children(new_children)
        };
        let result = f(rebuilt)?;
        Ok(if any || result.is_transformed() {
            Transformed::Yes(result.into_plan())
        } else {
            Transformed::No(result.into_plan())
        })
    }

    /// Apply `f` to every node top-down (node first, then its — possibly new —
    /// children), rebuilding the tree.
    pub fn transform_down(
        &self,
        f: &mut impl FnMut(LogicalPlan) -> Result<Transformed>,
    ) -> Result<Transformed> {
        let result = f(self.clone())?;
        let transformed_here = result.is_transformed();
        let plan = result.into_plan();
        let mut any = transformed_here;
        let mut new_children = Vec::new();
        for child in plan.children() {
            let t = child.transform_down(f)?;
            any |= t.is_transformed();
            new_children.push(t.into_plan());
        }
        let rebuilt = if new_children.is_empty() {
            plan.clone()
        } else {
            plan.with_children(new_children)
        };
        Ok(if any {
            Transformed::Yes(rebuilt)
        } else {
            Transformed::No(rebuilt)
        })
    }

    /// Visit every node pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&LogicalPlan)) {
        f(self);
        for child in self.children() {
            child.visit(f);
        }
    }

    /// Number of nodes in the plan tree.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// `true` when the plan contains a small or great divide node.
    pub fn contains_division(&self) -> bool {
        let mut found = false;
        self.visit(&mut |node| {
            if matches!(
                node,
                LogicalPlan::SmallDivide { .. } | LogicalPlan::GreatDivide { .. }
            ) {
                found = true;
            }
        });
        found
    }

    /// The set of `$parameter` placeholder names occurring in any predicate
    /// of the plan (prepared-statement support; empty for ordinary plans).
    pub fn parameters(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.visit(&mut |node| match node {
            LogicalPlan::Select { predicate, .. } | LogicalPlan::ThetaJoin { predicate, .. } => {
                out.extend(predicate.parameters());
            }
            _ => {}
        });
        out
    }

    /// `true` when the plan contains at least one unbound `$parameter`
    /// placeholder; such plans cannot be evaluated until the placeholders are
    /// bound.
    pub fn contains_parameters(&self) -> bool {
        // Allocation-free short-circuit: this runs inside the optimizer's
        // per-candidate precondition checks.
        match self {
            LogicalPlan::Select { input, predicate } => {
                predicate.has_parameters() || input.contains_parameters()
            }
            LogicalPlan::ThetaJoin {
                left,
                right,
                predicate,
            } => {
                predicate.has_parameters()
                    || left.contains_parameters()
                    || right.contains_parameters()
            }
            other => other
                .children()
                .iter()
                .any(|child| child.contains_parameters()),
        }
    }

    /// Substitute every `$parameter` placeholder whose name appears in
    /// `bindings` with the bound constant (see
    /// [`div_algebra::Predicate::bind_parameters`]); placeholders without a
    /// binding are left in place.
    ///
    /// This is the cheap half of prepared-statement execution: the
    /// expensive parse → translate → optimize pipeline ran once, and binding
    /// is one structural copy of the cached template.
    pub fn bind_parameters(
        &self,
        bindings: &std::collections::BTreeMap<String, div_algebra::Value>,
    ) -> LogicalPlan {
        let bind = |child: &LogicalPlan| Box::new(child.bind_parameters(bindings));
        match self {
            LogicalPlan::Select { input, predicate } => LogicalPlan::Select {
                input: bind(input),
                predicate: predicate.bind_parameters(bindings),
            },
            LogicalPlan::ThetaJoin {
                left,
                right,
                predicate,
            } => LogicalPlan::ThetaJoin {
                left: bind(left),
                right: bind(right),
                predicate: predicate.bind_parameters(bindings),
            },
            other => other.with_children(
                other
                    .children()
                    .into_iter()
                    .map(|child| child.bind_parameters(bindings))
                    .collect(),
            ),
        }
    }

    /// The names of all base tables scanned by the plan (with duplicates, in
    /// scan order) — useful for statistics and tests.
    pub fn scanned_tables(&self) -> Vec<String> {
        let mut tables = Vec::new();
        self.visit(&mut |node| {
            if let LogicalPlan::Scan { table } = node {
                tables.push(table.clone());
            }
        });
        tables
    }

    /// Render the plan as an indented explain tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn label(&self) -> String {
        match self {
            LogicalPlan::Scan { table } => format!("Scan: {table}"),
            LogicalPlan::Values { relation } => {
                format!(
                    "Values: {} tuple(s), schema {}",
                    relation.len(),
                    relation.schema()
                )
            }
            LogicalPlan::Select { predicate, .. } => format!("Select: {predicate}"),
            LogicalPlan::Project { attributes, .. } => {
                format!("Project: {}", attributes.join(", "))
            }
            LogicalPlan::Rename { renames, .. } => {
                let pairs: Vec<String> = renames
                    .iter()
                    .map(|(from, to)| format!("{from} -> {to}"))
                    .collect();
                format!("Rename: {}", pairs.join(", "))
            }
            LogicalPlan::Union { .. } => "Union".to_string(),
            LogicalPlan::Intersect { .. } => "Intersect".to_string(),
            LogicalPlan::Difference { .. } => "Difference".to_string(),
            LogicalPlan::Product { .. } => "Product".to_string(),
            LogicalPlan::ThetaJoin { predicate, .. } => format!("ThetaJoin: {predicate}"),
            LogicalPlan::NaturalJoin { .. } => "NaturalJoin".to_string(),
            LogicalPlan::SemiJoin { .. } => "SemiJoin".to_string(),
            LogicalPlan::AntiSemiJoin { .. } => "AntiSemiJoin".to_string(),
            LogicalPlan::SmallDivide { .. } => "SmallDivide (÷)".to_string(),
            LogicalPlan::GreatDivide { .. } => "GreatDivide (÷*)".to_string(),
            LogicalPlan::GroupAggregate {
                group_by,
                aggregates,
                ..
            } => {
                let aggs: Vec<String> = aggregates.iter().map(|a| a.to_string()).collect();
                format!(
                    "GroupAggregate: group by [{}], aggregates [{}]",
                    group_by.join(", "),
                    aggs.join(", ")
                )
            }
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.label());
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanBuilder;
    use div_algebra::Predicate;

    fn sample_plan() -> LogicalPlan {
        PlanBuilder::scan("supplies")
            .select(Predicate::eq_value("color", "blue"))
            .divide(PlanBuilder::scan("parts"))
            .project(["s#"])
            .build()
    }

    #[test]
    fn children_and_with_children_round_trip() {
        let plan = sample_plan();
        let children: Vec<LogicalPlan> = plan.children().into_iter().cloned().collect();
        let rebuilt = plan.with_children(children);
        assert_eq!(plan, rebuilt);
    }

    /// `supplies ÷ σ[color = blue](parts)`, projected onto `s#`.
    fn divide_sample() -> LogicalPlan {
        PlanBuilder::scan("supplies")
            .divide(PlanBuilder::scan("parts").select(Predicate::eq_value("color", "blue")))
            .project(["s#"])
            .build()
    }

    #[test]
    fn labels_and_counts() {
        let plan = divide_sample();
        assert_eq!(plan.node_count(), 5);
        assert!(plan.label().starts_with("Project"));
        assert!(plan.explain().contains("SmallDivide (÷)"));
        assert!(plan.to_string().contains("Scan: parts"));
    }

    #[test]
    fn children_are_ordered_left_to_right() {
        let plan = divide_sample();
        let divide = plan.children()[0];
        let kids = divide.children();
        assert_eq!(kids[0].label(), "Scan: supplies");
        assert!(kids[1].label().starts_with("Select"));
    }

    #[test]
    fn node_count_and_scanned_tables() {
        let plan = sample_plan();
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.scanned_tables(), vec!["supplies", "parts"]);
        assert!(plan.contains_division());
        assert!(!PlanBuilder::scan("x").build().contains_division());
    }

    #[test]
    fn transform_up_replaces_nodes() {
        // Replace every Scan of "parts" with a scan of "blue_parts".
        let plan = sample_plan();
        let rewritten = plan
            .transform_up(&mut |node| {
                Ok(match node {
                    LogicalPlan::Scan { table } if table == "parts" => {
                        Transformed::Yes(LogicalPlan::Scan {
                            table: "blue_parts".to_string(),
                        })
                    }
                    other => Transformed::No(other),
                })
            })
            .unwrap();
        assert!(rewritten.is_transformed());
        assert_eq!(
            rewritten.into_plan().scanned_tables(),
            vec!["supplies", "blue_parts"]
        );
    }

    #[test]
    fn transform_up_reports_no_change() {
        let plan = sample_plan();
        let result = plan
            .transform_up(&mut |node| Ok(Transformed::No(node)))
            .unwrap();
        assert!(!result.is_transformed());
        assert_eq!(result.into_plan(), plan);
    }

    #[test]
    fn transform_down_sees_parent_before_children() {
        let plan = sample_plan();
        let mut order = Vec::new();
        plan.transform_down(&mut |node| {
            order.push(node.name());
            Ok(Transformed::No(node))
        })
        .unwrap();
        assert_eq!(order[0], "Project");
        assert!(order.contains(&"SmallDivide"));
    }

    #[test]
    fn explain_is_indented_tree() {
        let plan = sample_plan();
        let text = plan.explain();
        assert!(text.starts_with("Project: s#"));
        assert!(text.contains("\n  SmallDivide"));
        assert!(text.contains("\n      Scan: supplies"));
        // Display delegates to explain.
        assert_eq!(plan.to_string(), text);
    }

    #[test]
    fn bind_parameters_instantiates_a_template() {
        use div_algebra::{CompareOp, Value};
        use std::collections::BTreeMap;
        let template = PlanBuilder::scan("parts")
            .select(Predicate::cmp_param("color", CompareOp::Eq, "color"))
            .theta_join(
                PlanBuilder::scan("supplies"),
                Predicate::cmp_param("s#", CompareOp::Lt, "max"),
            )
            .build();
        assert_eq!(
            template.parameters().into_iter().collect::<Vec<_>>(),
            vec!["color".to_string(), "max".to_string()]
        );
        let bound = template.bind_parameters(&BTreeMap::from([
            ("color".to_string(), Value::str("blue")),
            ("max".to_string(), Value::Int(3)),
        ]));
        assert!(!bound.contains_parameters());
        let text = bound.explain();
        assert!(text.contains("ThetaJoin: s# < 3"), "{text}");
        assert!(text.contains("Select: color = blue"), "{text}");
        // The template itself is untouched and reusable.
        assert_eq!(template.parameters().len(), 2);
        // Unknown bindings leave the placeholder in place.
        let still =
            template.bind_parameters(&BTreeMap::from([("other".to_string(), Value::Int(1))]));
        assert_eq!(still, template);
    }

    #[test]
    fn transformed_accessors() {
        let p = LogicalPlan::Scan { table: "t".into() };
        assert!(Transformed::Yes(p.clone()).is_transformed());
        assert!(!Transformed::No(p.clone()).is_transformed());
        assert_eq!(Transformed::Yes(p.clone()).into_plan(), p);
    }
}
