//! Output schema inference for logical plans: the one per-node rule
//! ([`node_schema`]) and its recursion ([`infer_schema`]).

use crate::{ExprError, LogicalPlan, Result};
use div_algebra::{Predicate, Schema};
use std::borrow::Borrow;

/// Source of base-table schemas, implemented by [`Catalog`](crate::Catalog)
/// and by the planner test fixtures.
pub trait SchemaProvider {
    /// The schema of the named base table, if it exists.
    fn table_schema(&self, name: &str) -> Option<Schema>;
}

/// A schema provider with no tables (useful for plans built purely from
/// [`LogicalPlan::Values`] nodes).
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyProvider;

impl SchemaProvider for EmptyProvider {
    fn table_schema(&self, _name: &str) -> Option<Schema> {
        None
    }
}

/// Infer the output schema of `plan`: [`node_schema`] over every node,
/// bottom-up, so the first invalid node (children first, left before right)
/// is the one reported.
pub fn infer_schema(plan: &LogicalPlan, provider: &dyn SchemaProvider) -> Result<Schema> {
    match plan.children()[..] {
        [] => node_schema::<Schema>(plan, &[], provider),
        [child] => node_schema(plan, &[infer_schema(child, provider)?], provider),
        [left, right] => {
            let left = infer_schema(left, provider)?;
            node_schema(plan, &[left, infer_schema(right, provider)?], provider)
        }
        _ => unreachable!("a plan node has at most two children"),
    }
}

/// The output schema of one plan node, given the output schemas of its
/// children (`inputs`, in [`LogicalPlan::children`] order), or the error
/// that makes the node invalid. This is the one plan-validity rule: schema
/// inference and the reference evaluator call it on every node, the
/// streaming executor on every inner node (a scan's schema is its table's),
/// before they compute anything.
///
/// The operators' own rules — projection, renaming, set operations,
/// product, grouping and the division partitions of Section 2 — are
/// [`Schema`]'s, and their errors are [`ExprError::Algebra`]. The one rule
/// a plan adds on top — a predicate names attributes of its input — is an
/// [`ExprError::InvalidPlan`].
///
/// # Panics
///
/// If `inputs` holds fewer schemas than `node` has children.
pub fn node_schema<S: Borrow<Schema>>(
    node: &LogicalPlan,
    inputs: &[S],
    provider: &dyn SchemaProvider,
) -> Result<Schema> {
    let input = |i: usize| inputs[i].borrow();
    Ok(match node {
        LogicalPlan::Scan { table } => {
            provider
                .table_schema(table)
                .ok_or_else(|| ExprError::UnknownTable {
                    table: table.clone(),
                })?
        }
        LogicalPlan::Values { relation } => relation.schema().clone(),
        LogicalPlan::Select { predicate, .. } => {
            check_predicate(predicate, input(0), "selection predicate", "input")?;
            input(0).clone()
        }
        LogicalPlan::Project { attributes, .. } => {
            let refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
            input(0).project(&refs)?
        }
        LogicalPlan::Rename { renames, .. } => input(0).rename(renames)?,
        LogicalPlan::Union { .. } => input(0).set_operation(input(1), "union")?,
        LogicalPlan::Intersect { .. } => input(0).set_operation(input(1), "intersection")?,
        LogicalPlan::Difference { .. } => input(0).set_operation(input(1), "difference")?,
        LogicalPlan::Product { .. } => input(0).concat(input(1))?,
        LogicalPlan::ThetaJoin { predicate, .. } => {
            let combined = input(0).concat(input(1))?;
            check_predicate(predicate, &combined, "join predicate", "combined")?;
            combined
        }
        LogicalPlan::NaturalJoin { .. } => input(0).natural_union(input(1)),
        // The right operand only filters.
        LogicalPlan::SemiJoin { .. } | LogicalPlan::AntiSemiJoin { .. } => input(0).clone(),
        LogicalPlan::SmallDivide { .. } => input(0).divide_partition(input(1))?.output(),
        LogicalPlan::GreatDivide { .. } => input(0).great_divide_partition(input(1))?.output(),
        LogicalPlan::GroupAggregate {
            group_by,
            aggregates,
            ..
        } => {
            let refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
            input(0).aggregate(&refs, aggregates)?
        }
    })
}

/// Every attribute `predicate` names must be in `schema`.
fn check_predicate(predicate: &Predicate, schema: &Schema, what: &str, whose: &str) -> Result<()> {
    let mut missing = None;
    predicate.all_attributes(&mut |attr| {
        let found = schema.contains(attr);
        if !found {
            missing = Some(attr.to_string());
        }
        found
    });
    match missing {
        Some(attr) => Err(ExprError::invalid(format!(
            "{what} references `{attr}` which is not in the {whose} schema {schema}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, PlanBuilder};
    use div_algebra::{relation, AggregateCall, Predicate};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("supplies", relation! { ["s#", "p#"] => [1, 1] });
        c.register("parts", relation! { ["p#", "color"] => [1, "blue"] });
        c
    }

    #[test]
    fn scan_and_project_schema() {
        let c = catalog();
        let plan = PlanBuilder::scan("supplies").project(["s#"]).build();
        assert_eq!(infer_schema(&plan, &c).unwrap().names(), vec!["s#"]);
        let missing = PlanBuilder::scan("nope").build();
        assert!(matches!(
            infer_schema(&missing, &c).unwrap_err(),
            ExprError::UnknownTable { .. }
        ));
    }

    #[test]
    fn select_validates_predicate_attributes() {
        let c = catalog();
        let good = PlanBuilder::scan("parts")
            .select(Predicate::eq_value("color", "blue"))
            .build();
        assert!(infer_schema(&good, &c).is_ok());
        let bad = PlanBuilder::scan("parts")
            .select(Predicate::eq_value("weight", 1))
            .build();
        assert!(infer_schema(&bad, &c).is_err());
    }

    #[test]
    fn small_divide_schema_is_quotient_attributes() {
        let c = catalog();
        let plan = PlanBuilder::scan("supplies")
            .divide(PlanBuilder::scan("parts").project(["p#"]))
            .build();
        assert_eq!(infer_schema(&plan, &c).unwrap().names(), vec!["s#"]);
    }

    #[test]
    fn small_divide_rejects_bad_schemas() {
        let c = catalog();
        // Divisor attribute `color` not in dividend.
        let bad = PlanBuilder::scan("supplies")
            .divide(PlanBuilder::scan("parts"))
            .build();
        assert!(infer_schema(&bad, &c).is_err());
        // Quotient would be empty.
        let empty_quotient = PlanBuilder::scan("supplies")
            .project(["p#"])
            .divide(PlanBuilder::scan("parts").project(["p#"]))
            .build();
        assert!(infer_schema(&empty_quotient, &c).is_err());
    }

    #[test]
    fn great_divide_schema_is_a_union_c() {
        let mut c = Catalog::new();
        c.register("transactions", relation! { ["tid", "item"] => [1, 1] });
        c.register("candidates", relation! { ["item", "itemset"] => [1, 10] });
        let plan = PlanBuilder::scan("transactions")
            .great_divide(PlanBuilder::scan("candidates"))
            .build();
        assert_eq!(
            infer_schema(&plan, &c).unwrap().names(),
            vec!["tid", "itemset"]
        );
    }

    #[test]
    fn set_operations_require_union_compatibility() {
        let c = catalog();
        let bad = PlanBuilder::scan("supplies")
            .union(PlanBuilder::scan("parts"))
            .build();
        assert!(infer_schema(&bad, &c).is_err());
        let good = PlanBuilder::scan("supplies")
            .union(PlanBuilder::scan("supplies"))
            .build();
        assert!(infer_schema(&good, &c).is_ok());
    }

    #[test]
    fn rename_and_aggregate_schemas() {
        let c = catalog();
        let plan = PlanBuilder::scan("supplies")
            .rename([("p#", "part")])
            .group_aggregate(["s#"], [AggregateCall::count("part", "n")])
            .build();
        assert_eq!(infer_schema(&plan, &c).unwrap().names(), vec!["s#", "n"]);
        let bad = PlanBuilder::scan("supplies").rename([("zz", "q")]).build();
        assert!(infer_schema(&bad, &c).is_err());
    }

    #[test]
    fn semi_join_keeps_left_schema() {
        let c = catalog();
        let plan = PlanBuilder::scan("supplies")
            .semi_join(PlanBuilder::scan("parts"))
            .build();
        assert_eq!(infer_schema(&plan, &c).unwrap().names(), vec!["s#", "p#"]);
    }

    #[test]
    fn values_nodes_need_no_provider() {
        let plan = PlanBuilder::values(relation! { ["x"] => [1] }).build();
        assert_eq!(
            infer_schema(&plan, &EmptyProvider).unwrap().names(),
            vec!["x"]
        );
    }
}
