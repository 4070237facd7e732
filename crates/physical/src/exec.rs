//! The *materializing* row executor — the reference executor.
//!
//! This executor evaluates every operator on its fully materialized input
//! and returns one whole [`Relation`]: the right tool for measuring
//! algorithms and intermediate-result volumes, and the reference the
//! differential tests compare the streaming executor against. The *default
//! execution path* of the system, however, is the streaming executor of
//! [`crate::stream`] (Volcano-style `open`/`next_batch`/`close` over
//! columnar chunks), which `div_sql`'s `Engine` serves through its
//! incremental `Cursor` — use [`crate::stream::StreamExecutor`] when memory
//! should scale with the pipeline depth instead of the largest
//! intermediate.
//!
//! The *algorithms* inside the operators here are the real ones: hash joins
//! build hash tables, the division nodes dispatch to the special-purpose
//! algorithms of [`crate::division`] and [`crate::great_divide`], and the
//! executor records per-operator row counts into [`ExecStats`].

use crate::division;
use crate::great_divide;
use crate::guard::QueryGuard;
use crate::plan::PhysicalPlan;
use crate::planner::PlannerConfig;
use crate::stats::ExecStats;
use crate::trace::{OperatorId, QueryTrace};
use crate::Result;
use div_algebra::{Relation, Tuple};
use div_expr::{Catalog, ExprError};
use std::collections::HashMap;

/// Execute a physical plan against a catalog.
pub fn execute(plan: &PhysicalPlan, catalog: &Catalog) -> Result<Relation> {
    execute_with_stats(plan, catalog).map(|(relation, _)| relation)
}

/// Execute a physical plan and return the execution statistics as well.
pub fn execute_with_stats(plan: &PhysicalPlan, catalog: &Catalog) -> Result<(Relation, ExecStats)> {
    exec_root(plan, catalog, false, &QueryGuard::default())
}

/// The one entry point behind every `execute*`: runs the plan with a
/// per-operator trace (wall-clock spans only when `timing` is on) and
/// publishes the finished tree as [`ExecStats::operators`]. The guard is consulted once per
/// operator, after its output materializes — coarser than the streaming
/// executor's per-batch checks, but enough to stop a runaway plan between
/// operators.
fn exec_root(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    timing: bool,
    guard: &QueryGuard,
) -> Result<(Relation, ExecStats)> {
    let mut stats = ExecStats::default();
    let mut trace = QueryTrace::from_plan(plan).with_timing(timing);
    let mut next_id = 0;
    let result = exec_node(
        plan,
        catalog,
        &mut stats,
        &mut trace,
        &mut next_id,
        true,
        guard,
    )?;
    stats.operators = trace.finish();
    Ok((result, stats))
}

/// Execute a physical plan honouring the [`PlannerConfig`]'s governance
/// limits (deadline, memory budget) and its `tracing` flag.
///
/// This is the *materializing* entry point: the whole result (and every
/// intermediate) is built before anything is returned. Code that wants
/// memory bounded by the pipeline, incremental consumption or early
/// termination drives a [`StreamExecutor`](crate::stream::StreamExecutor)
/// instead.
#[doc(alias = "StreamExecutor")]
#[doc(alias = "compile_stream")]
pub fn execute_with_config(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
) -> Result<(Relation, ExecStats)> {
    exec_root(
        plan,
        catalog,
        config.tracing,
        &QueryGuard::from_config(config),
    )
}

fn exec_node(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    stats: &mut ExecStats,
    trace: &mut QueryTrace,
    next_id: &mut usize,
    is_root: bool,
    guard: &QueryGuard,
) -> Result<Relation> {
    // Pre-order id assignment, matching the skeleton built from the plan.
    let id = OperatorId(*next_id);
    *next_id += 1;
    let started = trace.span_start();
    let result = match plan {
        PhysicalPlan::TableScan { table } => catalog.table(table)?.clone(),
        PhysicalPlan::Values { relation } => relation.clone(),
        PhysicalPlan::Filter { input, predicate } => {
            exec_node(input, catalog, stats, trace, next_id, false, guard)?.select(predicate)?
        }
        PhysicalPlan::Project { input, attributes } => {
            exec_node(input, catalog, stats, trace, next_id, false, guard)?
                .project_owned(attributes)?
        }
        PhysicalPlan::Rename { input, renames } => {
            let rel = exec_node(input, catalog, stats, trace, next_id, false, guard)?;
            rel.rename_with(|name| {
                renames
                    .iter()
                    .find(|(from, _)| from == name)
                    .map(|(_, to)| to.clone())
                    .unwrap_or_else(|| name.to_string())
            })?
        }
        PhysicalPlan::Union { left, right } => {
            exec_node(left, catalog, stats, trace, next_id, false, guard)?.union(&exec_node(
                right, catalog, stats, trace, next_id, false, guard,
            )?)?
        }
        PhysicalPlan::Intersect { left, right } => {
            exec_node(left, catalog, stats, trace, next_id, false, guard)?.intersect(&exec_node(
                right, catalog, stats, trace, next_id, false, guard,
            )?)?
        }
        PhysicalPlan::Difference { left, right } => {
            exec_node(left, catalog, stats, trace, next_id, false, guard)?.difference(
                &exec_node(right, catalog, stats, trace, next_id, false, guard)?,
            )?
        }
        PhysicalPlan::CrossProduct { left, right } => {
            exec_node(left, catalog, stats, trace, next_id, false, guard)?.product(&exec_node(
                right, catalog, stats, trace, next_id, false, guard,
            )?)?
        }
        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let l = exec_node(left, catalog, stats, trace, next_id, false, guard)?;
            let r = exec_node(right, catalog, stats, trace, next_id, false, guard)?;
            stats.add_probes(l.len() * r.len());
            trace.add_probes(id, l.len() * r.len());
            l.theta_join(&r, predicate)?
        }
        PhysicalPlan::HashJoin { left, right } => {
            let l = exec_node(left, catalog, stats, trace, next_id, false, guard)?;
            let r = exec_node(right, catalog, stats, trace, next_id, false, guard)?;
            kernel_probes(stats, trace, id, |stats| hash_natural_join(&l, &r, stats))?
        }
        PhysicalPlan::HashSemiJoin { left, right } => {
            let l = exec_node(left, catalog, stats, trace, next_id, false, guard)?;
            let r = exec_node(right, catalog, stats, trace, next_id, false, guard)?;
            kernel_probes(stats, trace, id, |stats| {
                hash_semi_join(&l, &r, stats, false)
            })?
        }
        PhysicalPlan::HashAntiSemiJoin { left, right } => {
            let l = exec_node(left, catalog, stats, trace, next_id, false, guard)?;
            let r = exec_node(right, catalog, stats, trace, next_id, false, guard)?;
            kernel_probes(stats, trace, id, |stats| {
                hash_semi_join(&l, &r, stats, true)
            })?
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggregates,
        } => {
            let rel = exec_node(input, catalog, stats, trace, next_id, false, guard)?;
            let refs: Vec<&str> = group_by.iter().map(String::as_str).collect();
            rel.group_aggregate(&refs, aggregates)?
        }
        PhysicalPlan::Divide {
            dividend,
            divisor,
            algorithm,
        } => {
            let d = exec_node(dividend, catalog, stats, trace, next_id, false, guard)?;
            let v = exec_node(divisor, catalog, stats, trace, next_id, false, guard)?;
            kernel_probes(stats, trace, id, |stats| {
                division::divide_with(&d, &v, *algorithm, stats)
            })?
        }
        PhysicalPlan::GreatDivide {
            dividend,
            divisor,
            algorithm,
        } => {
            let d = exec_node(dividend, catalog, stats, trace, next_id, false, guard)?;
            let v = exec_node(divisor, catalog, stats, trace, next_id, false, guard)?;
            kernel_probes(stats, trace, id, |stats| {
                great_divide::great_divide_with(&d, &v, *algorithm, stats)
            })?
        }
    };
    let is_scan = matches!(
        plan,
        PhysicalPlan::TableScan { .. } | PhysicalPlan::Values { .. }
    );
    // On the materializing executor the operator's whole output is the
    // resident quantity the budget meters.
    guard.check(result.len(), &plan.label())?;
    stats.record(result.len(), is_scan, is_root);
    trace.set_rows_out(id, result.len());
    if let Some(started) = started {
        // One inclusive execution span per operator — the materializing
        // counterpart of the streaming open/next/close split.
        trace.add_next(id, started.elapsed());
    }
    Ok(result)
}

/// Run a kernel that records probes into the aggregate counter and
/// attribute the delta to operator `id` in the trace. The children of `id`
/// have already executed when the kernel runs, so the delta is exactly the
/// operator's own work.
fn kernel_probes<T>(
    stats: &mut ExecStats,
    trace: &mut QueryTrace,
    id: OperatorId,
    kernel: impl FnOnce(&mut ExecStats) -> Result<T>,
) -> Result<T> {
    let before = stats.probes;
    let out = kernel(stats)?;
    trace.add_probes(id, stats.probes - before);
    Ok(out)
}

/// Hash-based natural join: build a hash table over the right input keyed by
/// the common attributes, probe with the left input.
fn hash_natural_join(left: &Relation, right: &Relation, stats: &mut ExecStats) -> Result<Relation> {
    let common = left.schema().common_attributes(right.schema());
    let common_refs: Vec<&str> = common.iter().map(String::as_str).collect();
    let left_key = left
        .schema()
        .projection_indices(&common_refs)
        .map_err(ExprError::from)?;
    let right_key = right
        .schema()
        .projection_indices(&common_refs)
        .map_err(ExprError::from)?;
    let right_extra: Vec<&str> = right
        .schema()
        .names()
        .into_iter()
        .filter(|n| !left.schema().contains(n))
        .collect();
    let right_extra_idx = right
        .schema()
        .projection_indices(&right_extra)
        .map_err(ExprError::from)?;

    // Build.
    let mut table: HashMap<Tuple, Vec<Tuple>> = HashMap::new();
    for t in right.tuples() {
        table
            .entry(t.project(&right_key))
            .or_default()
            .push(t.project(&right_extra_idx));
    }
    // Probe.
    let out_schema = left.schema().natural_union(right.schema());
    let mut out = Relation::empty(out_schema);
    let mut probes = 0usize;
    for t in left.tuples() {
        probes += 1;
        if let Some(matches) = table.get(&t.project(&left_key)) {
            for extra in matches {
                out.insert(t.concat(extra)).map_err(ExprError::from)?;
            }
        }
    }
    stats.add_probes(probes);
    Ok(out)
}

/// Hash-based semi-join (`anti = false`) or anti-semi-join (`anti = true`).
fn hash_semi_join(
    left: &Relation,
    right: &Relation,
    stats: &mut ExecStats,
    anti: bool,
) -> Result<Relation> {
    let common = left.schema().common_attributes(right.schema());
    let common_refs: Vec<&str> = common.iter().map(String::as_str).collect();
    let left_key = left
        .schema()
        .projection_indices(&common_refs)
        .map_err(ExprError::from)?;
    let right_key = right
        .schema()
        .projection_indices(&common_refs)
        .map_err(ExprError::from)?;
    let keys: std::collections::HashSet<Tuple> =
        right.tuples().map(|t| t.project(&right_key)).collect();
    let mut out = Relation::empty(left.schema().clone());
    let mut probes = 0usize;
    for t in left.tuples() {
        probes += 1;
        let matched = keys.contains(&t.project(&left_key));
        if matched != anti {
            out.insert(t.clone()).map_err(ExprError::from)?;
        }
    }
    stats.add_probes(probes);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::division::DivisionAlgorithm;
    use crate::great_divide::GreatDivideAlgorithm;
    use div_algebra::{relation, AggregateCall, CompareOp, Predicate};

    fn catalog() -> Catalog {
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
            relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
        );
        c
    }

    #[test]
    fn hash_join_matches_reference_natural_join() {
        let c = catalog();
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::TableScan {
                table: "supplies".into(),
            }),
            right: Box::new(PhysicalPlan::TableScan {
                table: "parts".into(),
            }),
        };
        let result = execute(&plan, &c).unwrap();
        let expected = c
            .table("supplies")
            .unwrap()
            .natural_join(c.table("parts").unwrap())
            .unwrap();
        assert_eq!(result, expected);
    }

    #[test]
    fn semi_and_anti_joins_partition_the_left_input() {
        let c = catalog();
        let semi = PhysicalPlan::HashSemiJoin {
            left: Box::new(PhysicalPlan::TableScan {
                table: "supplies".into(),
            }),
            right: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::TableScan {
                    table: "parts".into(),
                }),
                predicate: Predicate::eq_value("color", "red"),
            }),
        };
        let anti = PhysicalPlan::HashAntiSemiJoin {
            left: Box::new(PhysicalPlan::TableScan {
                table: "supplies".into(),
            }),
            right: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::TableScan {
                    table: "parts".into(),
                }),
                predicate: Predicate::eq_value("color", "red"),
            }),
        };
        let semi_result = execute(&semi, &c).unwrap();
        let anti_result = execute(&anti, &c).unwrap();
        assert_eq!(semi_result.len() + anti_result.len(), 6);
        assert_eq!(semi_result, relation! { ["s#", "p#"] => [2, 3] });
    }

    #[test]
    fn full_query_with_division_and_aggregation() {
        // Suppliers supplying all blue parts, counted per supplier-less query:
        // π_{s#}(supplies ÷ π_{p#}(σ_{color=blue}(parts))).
        let c = catalog();
        let plan = PhysicalPlan::Divide {
            dividend: Box::new(PhysicalPlan::TableScan {
                table: "supplies".into(),
            }),
            divisor: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::TableScan {
                        table: "parts".into(),
                    }),
                    predicate: Predicate::eq_value("color", "blue"),
                }),
                attributes: vec!["p#".into()],
            }),
            algorithm: DivisionAlgorithm::MergeSortDivision,
        };
        let (result, stats) = execute_with_stats(&plan, &c).unwrap();
        assert_eq!(result, relation! { ["s#"] => [1], [2] });
        assert_eq!(stats.output_rows, 2);
        assert!(stats.rows_scanned >= 9);
        assert_eq!(stats.operators[0].label, "Divide[merge-sort-division]");

        // Aggregate the quotient (how many qualifying suppliers?).
        let agg = PhysicalPlan::HashAggregate {
            input: Box::new(plan),
            group_by: vec![],
            aggregates: vec![AggregateCall::count("s#", "n")],
        };
        let result = execute(&agg, &c).unwrap();
        assert_eq!(result, relation! { ["n"] => [2] });
    }

    #[test]
    fn great_divide_node_executes() {
        let c = catalog();
        let plan = PhysicalPlan::GreatDivide {
            dividend: Box::new(PhysicalPlan::TableScan {
                table: "supplies".into(),
            }),
            divisor: Box::new(PhysicalPlan::TableScan {
                table: "parts".into(),
            }),
            algorithm: GreatDivideAlgorithm::HashSets,
        };
        let result = execute(&plan, &c).unwrap();
        let expected = relation! {
            ["s#", "color"] =>
            [1, "blue"], [2, "blue"], [2, "red"],
        };
        assert_eq!(result, expected);
    }

    #[test]
    fn set_operators_and_filters_compose() {
        let c = catalog();
        let plan = PhysicalPlan::Difference {
            left: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::TableScan {
                    table: "supplies".into(),
                }),
                attributes: vec!["s#".into()],
            }),
            right: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::TableScan {
                        table: "supplies".into(),
                    }),
                    predicate: Predicate::cmp_value("p#", CompareOp::GtEq, 3),
                }),
                attributes: vec!["s#".into()],
            }),
        };
        let result = execute(&plan, &c).unwrap();
        assert_eq!(result, relation! { ["s#"] => [1], [3] });
    }

    #[test]
    fn unknown_table_errors() {
        let c = catalog();
        let plan = PhysicalPlan::TableScan {
            table: "nope".into(),
        };
        assert!(execute(&plan, &c).is_err());
    }
}
