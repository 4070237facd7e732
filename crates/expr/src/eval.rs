//! The reference interpreter: evaluate a [`LogicalPlan`] against a [`Catalog`]
//! using the set-semantics operators of `div-algebra`.
//!
//! This evaluator is deliberately naive — every node fully materializes its
//! result — because its role is to be an *oracle*: the laws of `div-rewrite`
//! and the physical algorithms of `div-physical` are tested against it. It
//! additionally records per-operator statistics ([`EvalStats`]) so tests and
//! benches can observe intermediate result sizes, the quantity at the heart of
//! the paper's argument that division must be a first-class operator
//! (simulations produce quadratic intermediates, see Section 6 and \[25\]).

use crate::{node_schema, Catalog, LogicalPlan, Result};
use div_algebra::{Relation, Schema};
use std::collections::BTreeMap;

/// Execution statistics of one [`evaluate_with_stats`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of plan nodes evaluated.
    pub nodes_evaluated: usize,
    /// Total number of tuples produced across all intermediate results
    /// (excluding base-table scans).
    pub intermediate_tuples: usize,
    /// The largest single intermediate result produced.
    pub max_intermediate: usize,
    /// Tuples produced per operator kind.
    pub tuples_per_operator: BTreeMap<&'static str, usize>,
}

impl EvalStats {
    fn record(&mut self, plan: &LogicalPlan, result: &Relation) {
        self.nodes_evaluated += 1;
        if !matches!(plan, LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) {
            self.intermediate_tuples += result.len();
            self.max_intermediate = self.max_intermediate.max(result.len());
        }
        *self.tuples_per_operator.entry(plan.name()).or_insert(0) += result.len();
    }
}

/// Evaluate `plan` against `catalog`, returning the result relation.
pub fn evaluate(plan: &LogicalPlan, catalog: &Catalog) -> Result<Relation> {
    let mut stats = EvalStats::default();
    eval_node(plan, catalog, &mut stats)
}

/// Evaluate `plan` against `catalog`, returning the result relation and the
/// execution statistics.
pub fn evaluate_with_stats(plan: &LogicalPlan, catalog: &Catalog) -> Result<(Relation, EvalStats)> {
    let mut stats = EvalStats::default();
    let result = eval_node(plan, catalog, &mut stats)?;
    Ok((result, stats))
}

/// Evaluate `plan`'s children, validate the node over their schemas
/// ([`node_schema`]) and only then compute it — so an invalid plan is
/// refused whatever its data, empty inputs included.
fn eval_node(plan: &LogicalPlan, catalog: &Catalog, stats: &mut EvalStats) -> Result<Relation> {
    let inputs = plan
        .children()
        .into_iter()
        .map(|child| eval_node(child, catalog, stats))
        .collect::<Result<Vec<_>>>()?;
    let schemas: Vec<&Schema> = inputs.iter().map(Relation::schema).collect();
    node_schema(plan, &schemas, catalog)?;
    let result = match (plan, inputs.as_slice()) {
        (LogicalPlan::Scan { table }, []) => catalog.table(table)?.clone(),
        (LogicalPlan::Values { relation }, []) => relation.clone(),
        (LogicalPlan::Select { predicate, .. }, [input]) => input.select(predicate)?,
        (LogicalPlan::Project { attributes, .. }, [input]) => input.project_owned(attributes)?,
        (LogicalPlan::Rename { renames, .. }, [input]) => input.rename(renames)?,
        (LogicalPlan::Union { .. }, [left, right]) => left.union(right)?,
        (LogicalPlan::Intersect { .. }, [left, right]) => left.intersect(right)?,
        (LogicalPlan::Difference { .. }, [left, right]) => left.difference(right)?,
        (LogicalPlan::Product { .. }, [left, right]) => left.product(right)?,
        (LogicalPlan::ThetaJoin { predicate, .. }, [left, right]) => {
            left.theta_join(right, predicate)?
        }
        (LogicalPlan::NaturalJoin { .. }, [left, right]) => left.natural_join(right)?,
        (LogicalPlan::SemiJoin { .. }, [left, right]) => left.semi_join(right)?,
        (LogicalPlan::AntiSemiJoin { .. }, [left, right]) => left.anti_semi_join(right)?,
        (LogicalPlan::SmallDivide { .. }, [dividend, divisor]) => dividend.divide(divisor)?,
        (LogicalPlan::GreatDivide { .. }, [dividend, divisor]) => dividend.great_divide(divisor)?,
        (
            LogicalPlan::GroupAggregate {
                group_by,
                aggregates,
                ..
            },
            [input],
        ) => {
            let refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
            input.group_aggregate(&refs, aggregates)?
        }
        _ => unreachable!("one input per child"),
    };
    stats.record(plan, &result);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanBuilder;
    use div_algebra::{relation, AggregateCall, CompareOp, Predicate};

    fn suppliers_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "supplies",
            relation! {
                ["s#", "p#"] =>
                [1, 1], [1, 2],
                [2, 1], [2, 2], [2, 3],
                [3, 2],
            },
        );
        c.register(
            "parts",
            relation! {
                ["p#", "color"] =>
                [1, "blue"], [2, "blue"], [3, "red"],
            },
        );
        c
    }

    #[test]
    fn q2_suppliers_of_all_blue_parts() {
        // Query Q2 of the paper: suppliers that supply all blue parts.
        let catalog = suppliers_catalog();
        let plan = PlanBuilder::scan("supplies")
            .divide(
                PlanBuilder::scan("parts")
                    .select(Predicate::eq_value("color", "blue"))
                    .project(["p#"]),
            )
            .build();
        let result = evaluate(&plan, &catalog).unwrap();
        assert_eq!(result, relation! { ["s#"] => [1], [2] });
    }

    #[test]
    fn q1_great_divide_by_color_groups() {
        // Query Q1: for each color, the suppliers supplying all parts of that
        // color — a great divide of supplies by parts(p#, color).
        let catalog = suppliers_catalog();
        let plan = PlanBuilder::scan("supplies")
            .great_divide(PlanBuilder::scan("parts"))
            .build();
        let result = evaluate(&plan, &catalog).unwrap();
        let expected = relation! {
            ["s#", "color"] =>
            [1, "blue"], [2, "blue"],
            [2, "red"],
        };
        assert_eq!(result, expected);
    }

    #[test]
    fn evaluation_uses_all_operator_kinds() {
        let catalog = suppliers_catalog();
        let plan = PlanBuilder::scan("supplies")
            .natural_join(PlanBuilder::scan("parts"))
            .select(Predicate::eq_value("color", "blue"))
            .project(["s#", "p#"])
            .group_aggregate(["s#"], [AggregateCall::count("p#", "n")])
            .select(Predicate::cmp_value("n", CompareOp::GtEq, 2))
            .project(["s#"])
            .build();
        let result = evaluate(&plan, &catalog).unwrap();
        assert_eq!(result, relation! { ["s#"] => [1], [2] });
    }

    #[test]
    fn stats_track_intermediate_sizes() {
        let catalog = suppliers_catalog();
        // The basic-operator simulation of division (Healy's definition)
        // produces a product of size |π_A(r1)| * |r2|.
        let simulation = PlanBuilder::scan("supplies")
            .project(["s#"])
            .product(
                PlanBuilder::scan("parts")
                    .project(["p#"])
                    .rename([("p#", "pp")]),
            )
            .build();
        let (_, stats) = evaluate_with_stats(&simulation, &catalog).unwrap();
        assert_eq!(stats.tuples_per_operator["Product"], 9);
        assert!(stats.max_intermediate >= 9);
        assert_eq!(stats.nodes_evaluated, 6);

        // The first-class divide touches far fewer intermediate tuples.
        let divide = PlanBuilder::scan("supplies")
            .divide(PlanBuilder::scan("parts").project(["p#"]))
            .build();
        let (_, divide_stats) = evaluate_with_stats(&divide, &catalog).unwrap();
        assert!(divide_stats.max_intermediate < stats.max_intermediate);
    }

    #[test]
    fn unknown_table_and_bad_rename_error() {
        let catalog = suppliers_catalog();
        let plan = PlanBuilder::scan("nope").build();
        assert!(evaluate(&plan, &catalog).is_err());
        let bad_rename = PlanBuilder::scan("parts").rename([("zz", "q")]).build();
        assert!(evaluate(&bad_rename, &catalog).is_err());
    }

    #[test]
    fn rename_then_union_combines_compatible_tables() {
        let mut catalog = Catalog::new();
        catalog.register("r1", relation! { ["a"] => [1], [2] });
        catalog.register("r2", relation! { ["b"] => [2], [3] });
        let plan = PlanBuilder::scan("r1")
            .union(PlanBuilder::scan("r2").rename([("b", "a")]))
            .build();
        let result = evaluate(&plan, &catalog).unwrap();
        assert_eq!(result, relation! { ["a"] => [1], [2], [3] });
    }

    #[test]
    fn values_node_evaluates_to_itself() {
        let catalog = Catalog::new();
        let rel = relation! { ["x"] => [42] };
        let plan = PlanBuilder::values(rel.clone()).build();
        assert_eq!(evaluate(&plan, &catalog).unwrap(), rel);
    }
}
