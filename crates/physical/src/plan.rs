//! The physical plan tree.

use div_algebra::{AggregateCall, Predicate, Relation, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A physical execution plan.
///
/// The shape mirrors [`div_expr::LogicalPlan`], but every node is a concrete
/// algorithm — the paper's "mapping of logical operators to physical
/// operators" (Section 7): joins are hash- or nested-loop based, and both
/// division nodes run the streaming hash division of
/// [`crate::stream`] (labelled `Divide[hash]` / `GreatDivide[hash]`).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Scan of a catalog table.
    TableScan {
        /// Table name.
        table: String,
    },
    /// An inline constant relation.
    Values {
        /// The relation.
        relation: Relation,
    },
    /// Predicate filter.
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Filter predicate.
        predicate: Predicate,
    },
    /// Projection with duplicate elimination.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Output attributes.
        attributes: Vec<String>,
    },
    /// Attribute renaming.
    Rename {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// `(old, new)` pairs.
        renames: Vec<(String, String)>,
    },
    /// Set union.
    Union {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Set intersection.
    Intersect {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Set difference.
    Difference {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Cartesian product.
    CrossProduct {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Nested-loop theta-join.
    NestedLoopJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// Join predicate over the concatenated schema.
        predicate: Predicate,
    },
    /// Hash-based natural join on all common attributes.
    HashJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Hash-based left semi-join.
    HashSemiJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Hash-based left anti-semi-join.
    HashAntiSemiJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Hash aggregation.
    HashAggregate {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Grouping attributes.
        group_by: Vec<String>,
        /// Aggregate list.
        aggregates: Vec<AggregateCall>,
    },
    /// Small divide (hash division).
    Divide {
        /// Dividend input.
        dividend: Box<PhysicalPlan>,
        /// Divisor input.
        divisor: Box<PhysicalPlan>,
    },
    /// Great divide (hash division per divisor group).
    GreatDivide {
        /// Dividend input.
        dividend: Box<PhysicalPlan>,
        /// Divisor input.
        divisor: Box<PhysicalPlan>,
    },
}

impl PhysicalPlan {
    /// Operator label used in statistics and explain output.
    pub fn label(&self) -> String {
        match self {
            PhysicalPlan::TableScan { table } => format!("TableScan({table})"),
            PhysicalPlan::Values { relation } => format!("Values({} rows)", relation.len()),
            PhysicalPlan::Filter { predicate, .. } => format!("Filter({predicate})"),
            PhysicalPlan::Project { attributes, .. } => {
                format!("Project({})", attributes.join(", "))
            }
            PhysicalPlan::Rename { .. } => "Rename".to_string(),
            PhysicalPlan::Union { .. } => "Union".to_string(),
            PhysicalPlan::Intersect { .. } => "Intersect".to_string(),
            PhysicalPlan::Difference { .. } => "Difference".to_string(),
            PhysicalPlan::CrossProduct { .. } => "CrossProduct".to_string(),
            PhysicalPlan::NestedLoopJoin { predicate, .. } => {
                format!("NestedLoopJoin({predicate})")
            }
            PhysicalPlan::HashJoin { .. } => "HashJoin".to_string(),
            PhysicalPlan::HashSemiJoin { .. } => "HashSemiJoin".to_string(),
            PhysicalPlan::HashAntiSemiJoin { .. } => "HashAntiSemiJoin".to_string(),
            PhysicalPlan::HashAggregate { group_by, .. } => {
                format!("HashAggregate({})", group_by.join(", "))
            }
            PhysicalPlan::Divide { .. } => "Divide[hash]".to_string(),
            PhysicalPlan::GreatDivide { .. } => "GreatDivide[hash]".to_string(),
        }
    }

    /// Children of this node, left to right.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::TableScan { .. } | PhysicalPlan::Values { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Rename { input, .. }
            | PhysicalPlan::HashAggregate { input, .. } => vec![input],
            PhysicalPlan::Union { left, right }
            | PhysicalPlan::Intersect { left, right }
            | PhysicalPlan::Difference { left, right }
            | PhysicalPlan::CrossProduct { left, right }
            | PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right }
            | PhysicalPlan::HashSemiJoin { left, right }
            | PhysicalPlan::HashAntiSemiJoin { left, right } => vec![left, right],
            PhysicalPlan::Divide { dividend, divisor }
            | PhysicalPlan::GreatDivide { dividend, divisor } => vec![dividend, divisor],
        }
    }

    /// Number of operators in the plan.
    pub fn operator_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.operator_count())
            .sum::<usize>()
    }

    /// The set of `$parameter` placeholder names still unbound in any
    /// predicate of the plan.
    ///
    /// Prepared statements cache a plan *template* containing placeholders;
    /// [`PhysicalPlan::bind_parameters`] instantiates the template. A plan
    /// with unbound parameters fails at execution with
    /// [`div_algebra::AlgebraError::UnboundParameter`].
    pub fn parameters(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_parameters(&mut out);
        out
    }

    fn collect_parameters(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            PhysicalPlan::Filter { predicate, .. }
            | PhysicalPlan::NestedLoopJoin { predicate, .. } => {
                out.extend(predicate.parameters());
            }
            _ => {}
        }
        for child in self.children() {
            child.collect_parameters(out);
        }
    }

    /// Allocation-free short-circuiting variant of
    /// [`PhysicalPlan::parameters`]`.is_empty()` — this runs on every
    /// prepared-statement execution.
    pub fn has_parameters(&self) -> bool {
        match self {
            PhysicalPlan::Filter { predicate, .. }
            | PhysicalPlan::NestedLoopJoin { predicate, .. }
                if predicate.has_parameters() =>
            {
                true
            }
            _ => self.children().iter().any(|child| child.has_parameters()),
        }
    }

    /// Instantiate a plan template: substitute every `$parameter` placeholder
    /// whose name appears in `bindings` with the bound constant, leaving the
    /// rest of the tree (and any unbound placeholders) untouched.
    ///
    /// This is the cheap half of prepared-statement execution: the expensive
    /// parse → translate → optimize → plan pipeline ran once at prepare time;
    /// binding is a structural copy.
    pub fn bind_parameters(&self, bindings: &BTreeMap<String, Value>) -> PhysicalPlan {
        match self {
            PhysicalPlan::TableScan { .. } | PhysicalPlan::Values { .. } => self.clone(),
            PhysicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
                input: Box::new(input.bind_parameters(bindings)),
                predicate: predicate.bind_parameters(bindings),
            },
            PhysicalPlan::Project { input, attributes } => PhysicalPlan::Project {
                input: Box::new(input.bind_parameters(bindings)),
                attributes: attributes.clone(),
            },
            PhysicalPlan::Rename { input, renames } => PhysicalPlan::Rename {
                input: Box::new(input.bind_parameters(bindings)),
                renames: renames.clone(),
            },
            PhysicalPlan::Union { left, right } => PhysicalPlan::Union {
                left: Box::new(left.bind_parameters(bindings)),
                right: Box::new(right.bind_parameters(bindings)),
            },
            PhysicalPlan::Intersect { left, right } => PhysicalPlan::Intersect {
                left: Box::new(left.bind_parameters(bindings)),
                right: Box::new(right.bind_parameters(bindings)),
            },
            PhysicalPlan::Difference { left, right } => PhysicalPlan::Difference {
                left: Box::new(left.bind_parameters(bindings)),
                right: Box::new(right.bind_parameters(bindings)),
            },
            PhysicalPlan::CrossProduct { left, right } => PhysicalPlan::CrossProduct {
                left: Box::new(left.bind_parameters(bindings)),
                right: Box::new(right.bind_parameters(bindings)),
            },
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => PhysicalPlan::NestedLoopJoin {
                left: Box::new(left.bind_parameters(bindings)),
                right: Box::new(right.bind_parameters(bindings)),
                predicate: predicate.bind_parameters(bindings),
            },
            PhysicalPlan::HashJoin { left, right } => PhysicalPlan::HashJoin {
                left: Box::new(left.bind_parameters(bindings)),
                right: Box::new(right.bind_parameters(bindings)),
            },
            PhysicalPlan::HashSemiJoin { left, right } => PhysicalPlan::HashSemiJoin {
                left: Box::new(left.bind_parameters(bindings)),
                right: Box::new(right.bind_parameters(bindings)),
            },
            PhysicalPlan::HashAntiSemiJoin { left, right } => PhysicalPlan::HashAntiSemiJoin {
                left: Box::new(left.bind_parameters(bindings)),
                right: Box::new(right.bind_parameters(bindings)),
            },
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggregates,
            } => PhysicalPlan::HashAggregate {
                input: Box::new(input.bind_parameters(bindings)),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            },
            PhysicalPlan::Divide { dividend, divisor } => PhysicalPlan::Divide {
                dividend: Box::new(dividend.bind_parameters(bindings)),
                divisor: Box::new(divisor.bind_parameters(bindings)),
            },
            PhysicalPlan::GreatDivide { dividend, divisor } => PhysicalPlan::GreatDivide {
                dividend: Box::new(dividend.bind_parameters(bindings)),
                divisor: Box::new(divisor.bind_parameters(bindings)),
            },
        }
    }

    /// Render the plan as an indented explain tree.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
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

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PhysicalPlan {
        PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Divide {
                dividend: Box::new(PhysicalPlan::TableScan {
                    table: "supplies".into(),
                }),
                divisor: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::TableScan {
                        table: "parts".into(),
                    }),
                    predicate: Predicate::eq_value("color", "blue"),
                }),
            }),
            attributes: vec!["s#".into()],
        }
    }

    #[test]
    fn labels_and_counts() {
        let plan = sample();
        assert_eq!(plan.operator_count(), 5);
        assert!(plan.label().starts_with("Project"));
        assert!(plan.explain().contains("Divide[hash]"));
        assert!(plan.to_string().contains("TableScan(parts)"));
    }

    #[test]
    fn children_are_ordered_left_to_right() {
        let plan = sample();
        let divide = plan.children()[0];
        let kids = divide.children();
        assert_eq!(kids[0].label(), "TableScan(supplies)");
        assert!(kids[1].label().starts_with("Filter"));
    }

    #[test]
    fn bind_parameters_instantiates_a_template() {
        use div_algebra::CompareOp;
        let template = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::TableScan {
                table: "parts".into(),
            }),
            predicate: Predicate::cmp_param("color", CompareOp::Eq, "color"),
        };
        assert_eq!(
            template.parameters().into_iter().collect::<Vec<_>>(),
            vec!["color".to_string()]
        );
        let bound =
            template.bind_parameters(&BTreeMap::from([("color".to_string(), Value::str("blue"))]));
        assert!(bound.parameters().is_empty());
        assert!(bound.label().contains("color = blue"));
        // The template itself is untouched and reusable.
        assert_eq!(template.parameters().len(), 1);
        // Unknown bindings leave the placeholder in place.
        let still =
            template.bind_parameters(&BTreeMap::from([("other".to_string(), Value::Int(1))]));
        assert_eq!(still.parameters().len(), 1);
    }
}
