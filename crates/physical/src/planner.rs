//! Lowering logical plans to physical plans.
//!
//! This is the second half of query optimization in the paper's terminology
//! (Section 7): after the logical rewrite (done by `div-rewrite`), each
//! logical operator is mapped to a physical operator. The mapping is driven by
//! a [`PlannerConfig`], which most importantly selects the division
//! algorithms; the benchmark harness sweeps that choice to reproduce the
//! algorithm comparisons.

use crate::division::DivisionAlgorithm;
use crate::great_divide::GreatDivideAlgorithm;
use crate::plan::PhysicalPlan;
use crate::Result;
use div_expr::LogicalPlan;
use std::time::Duration;

/// Configuration of the logical-to-physical mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Algorithm used for every small-divide node.
    pub division_algorithm: DivisionAlgorithm,
    /// Algorithm used for every great-divide node.
    pub great_divide_algorithm: GreatDivideAlgorithm,
    /// Chunk size of the streaming executor ([`crate::stream`]): scans emit
    /// base tables in batches of at most this many rows, and every
    /// pipelining operator processes one such batch at a time. Clamped to
    /// ≥ 1; defaults to [`PlannerConfig::DEFAULT_BATCH_SIZE`]. Ignored by
    /// the row executor.
    pub batch_size: usize,
    /// Record wall-clock spans in the per-operator trace
    /// ([`crate::trace`]). Row, probe and retained-state attribution is
    /// always on (it is O(1) bookkeeping the executors do anyway); this
    /// flag only gates the `Instant` reads. Defaults to `false`; the
    /// `Engine` turns it on for `explain_analyze`.
    pub tracing: bool,
    /// Wall-clock deadline for query execution, measured from cursor open.
    /// Enforced cooperatively by [`crate::guard::QueryGuard`] at every
    /// batch boundary of the streaming executor and at every operator
    /// boundary of the row executor; a trip surfaces
    /// [`div_expr::ExprError::DeadlineExceeded`]. `None` (the default)
    /// disables the check.
    pub deadline: Option<Duration>,
    /// Resident-row memory budget: the maximum rows the streaming executor
    /// may hold resident (in-flight batches plus blocking-operator state,
    /// the quantity tracked as `peak_resident_rows`) at any batch boundary.
    /// The row executor checks each operator's output cardinality against
    /// the same ceiling. A trip surfaces
    /// [`div_expr::ExprError::MemoryBudget`]. `None` (the default) disables
    /// the check.
    pub memory_budget_rows: Option<usize>,
    /// Spill to disk instead of aborting when a memory budget would trip.
    /// Read only by [`QueryGuard::from_config`](crate::guard::QueryGuard::from_config),
    /// which passes it on as the guard's spill preference; the streaming
    /// executor's hash join, divide and grouped aggregation are hybrid
    /// partitioned-hash operators that consult the *guard*: they stay in
    /// memory while their build input fits, partition it to disk (via
    /// `div-storage` spill files) when any budget the guard carries —
    /// [`PlannerConfig::memory_budget_rows`], a serving session's default,
    /// a caller's own — would trip, and recurse per partition (Graefe's
    /// hybrid hash-division design). Without a budget the flag is inert.
    /// Defaults to `false`: a budget aborts with
    /// [`div_expr::ExprError::MemoryBudget`].
    pub spill_to_disk: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            division_algorithm: DivisionAlgorithm::HashDivision,
            great_divide_algorithm: GreatDivideAlgorithm::HashSets,
            batch_size: PlannerConfig::DEFAULT_BATCH_SIZE,
            tracing: false,
            deadline: None,
            memory_budget_rows: None,
            spill_to_disk: false,
        }
    }
}

impl PlannerConfig {
    /// Default streaming batch size: large enough to amortize per-batch key
    /// normalization, small enough that a handful of resident batches stay
    /// cache-friendly.
    pub const DEFAULT_BATCH_SIZE: usize = 1024;

    /// Default configuration with a specific small-divide algorithm.
    pub fn with_division_algorithm(algorithm: DivisionAlgorithm) -> Self {
        PlannerConfig {
            division_algorithm: algorithm,
            ..PlannerConfig::default()
        }
    }

    /// Default configuration with a specific great-divide algorithm.
    pub fn with_great_divide_algorithm(algorithm: GreatDivideAlgorithm) -> Self {
        PlannerConfig {
            great_divide_algorithm: algorithm,
            ..PlannerConfig::default()
        }
    }

    /// Default configuration with a specific streaming batch size.
    pub fn with_batch_size(batch_size: usize) -> Self {
        PlannerConfig::default().batch_size(batch_size)
    }

    /// This configuration with the streaming batch size replaced (clamped
    /// to ≥ 1).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// This configuration with wall-clock span recording switched on or
    /// off (see [`PlannerConfig::tracing`]).
    pub fn tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// This configuration with a wall-clock execution deadline (see
    /// [`PlannerConfig::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This configuration with a resident-row memory budget, clamped to
    /// ≥ 1 (see [`PlannerConfig::memory_budget_rows`]).
    pub fn memory_budget_rows(mut self, budget: usize) -> Self {
        self.memory_budget_rows = Some(budget.max(1));
        self
    }

    /// This configuration spilling to disk instead of aborting on memory
    /// pressure (see [`PlannerConfig::spill_to_disk`]).
    pub fn spill_to_disk(mut self, spill: bool) -> Self {
        self.spill_to_disk = spill;
        self
    }

    /// Whether any governance limit (deadline or memory budget) is set.
    pub fn is_governed(&self) -> bool {
        self.deadline.is_some() || self.memory_budget_rows.is_some()
    }
}

/// Map a logical plan to a physical plan under the given configuration.
pub fn plan_query(logical: &LogicalPlan, config: &PlannerConfig) -> Result<PhysicalPlan> {
    let physical = match logical {
        LogicalPlan::Scan { table } => PhysicalPlan::TableScan {
            table: table.clone(),
        },
        LogicalPlan::Values { relation } => PhysicalPlan::Values {
            relation: relation.clone(),
        },
        LogicalPlan::Select { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(plan_query(input, config)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project { input, attributes } => PhysicalPlan::Project {
            input: Box::new(plan_query(input, config)?),
            attributes: attributes.clone(),
        },
        LogicalPlan::Rename { input, renames } => PhysicalPlan::Rename {
            input: Box::new(plan_query(input, config)?),
            renames: renames.clone(),
        },
        LogicalPlan::Union { left, right } => PhysicalPlan::Union {
            left: Box::new(plan_query(left, config)?),
            right: Box::new(plan_query(right, config)?),
        },
        LogicalPlan::Intersect { left, right } => PhysicalPlan::Intersect {
            left: Box::new(plan_query(left, config)?),
            right: Box::new(plan_query(right, config)?),
        },
        LogicalPlan::Difference { left, right } => PhysicalPlan::Difference {
            left: Box::new(plan_query(left, config)?),
            right: Box::new(plan_query(right, config)?),
        },
        LogicalPlan::Product { left, right } => PhysicalPlan::CrossProduct {
            left: Box::new(plan_query(left, config)?),
            right: Box::new(plan_query(right, config)?),
        },
        LogicalPlan::ThetaJoin {
            left,
            right,
            predicate,
        } => PhysicalPlan::NestedLoopJoin {
            left: Box::new(plan_query(left, config)?),
            right: Box::new(plan_query(right, config)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::NaturalJoin { left, right } => PhysicalPlan::HashJoin {
            left: Box::new(plan_query(left, config)?),
            right: Box::new(plan_query(right, config)?),
        },
        LogicalPlan::SemiJoin { left, right } => PhysicalPlan::HashSemiJoin {
            left: Box::new(plan_query(left, config)?),
            right: Box::new(plan_query(right, config)?),
        },
        LogicalPlan::AntiSemiJoin { left, right } => PhysicalPlan::HashAntiSemiJoin {
            left: Box::new(plan_query(left, config)?),
            right: Box::new(plan_query(right, config)?),
        },
        LogicalPlan::SmallDivide { dividend, divisor } => PhysicalPlan::Divide {
            dividend: Box::new(plan_query(dividend, config)?),
            divisor: Box::new(plan_query(divisor, config)?),
            algorithm: config.division_algorithm,
        },
        LogicalPlan::GreatDivide { dividend, divisor } => PhysicalPlan::GreatDivide {
            dividend: Box::new(plan_query(dividend, config)?),
            divisor: Box::new(plan_query(divisor, config)?),
            algorithm: config.great_divide_algorithm,
        },
        LogicalPlan::GroupAggregate {
            input,
            group_by,
            aggregates,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(plan_query(input, config)?),
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
        },
    };
    Ok(physical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use div_algebra::{relation, Predicate};
    use div_expr::{evaluate, Catalog, PlanBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "supplies",
            relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 2] },
        );
        c.register(
            "parts",
            relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
        );
        c
    }

    fn q2_plan() -> div_expr::LogicalPlan {
        PlanBuilder::scan("supplies")
            .divide(
                PlanBuilder::scan("parts")
                    .select(Predicate::eq_value("color", "blue"))
                    .project(["p#"]),
            )
            .build()
    }

    #[test]
    fn planner_maps_division_algorithm_choice() {
        let logical = q2_plan();
        for algorithm in DivisionAlgorithm::ALL {
            let physical =
                plan_query(&logical, &PlannerConfig::with_division_algorithm(algorithm)).unwrap();
            assert!(physical.explain().contains(algorithm.name()));
        }
    }

    #[test]
    fn physical_results_match_logical_evaluation_for_every_algorithm() {
        let c = catalog();
        let logical = q2_plan();
        let expected = evaluate(&logical, &c).unwrap();
        for algorithm in DivisionAlgorithm::ALL {
            let physical =
                plan_query(&logical, &PlannerConfig::with_division_algorithm(algorithm)).unwrap();
            assert_eq!(
                execute(&physical, &c).unwrap(),
                expected,
                "{}",
                algorithm.name()
            );
        }
    }

    #[test]
    fn natural_join_lowers_to_hash_join() {
        let logical = PlanBuilder::scan("supplies")
            .natural_join(PlanBuilder::scan("parts"))
            .build();
        let hash = plan_query(&logical, &PlannerConfig::default()).unwrap();
        assert!(matches!(hash, PhysicalPlan::HashJoin { .. }));
        // The physical join produces the same rows as the reference semantics.
        let c = catalog();
        assert_eq!(execute(&hash, &c).unwrap(), evaluate(&logical, &c).unwrap());
    }

    #[test]
    fn great_divide_lowering_covers_all_algorithms() {
        let c = catalog();
        let logical = PlanBuilder::scan("supplies")
            .great_divide(PlanBuilder::scan("parts"))
            .build();
        let expected = evaluate(&logical, &c).unwrap();
        for algorithm in GreatDivideAlgorithm::ALL {
            let physical = plan_query(
                &logical,
                &PlannerConfig::with_great_divide_algorithm(algorithm),
            )
            .unwrap();
            assert_eq!(
                execute(&physical, &c).unwrap(),
                expected,
                "{}",
                algorithm.name()
            );
        }
    }

    #[test]
    fn every_logical_operator_kind_lowers() {
        let c = catalog();
        let logical = PlanBuilder::scan("supplies")
            .rename([("p#", "part")])
            .project(["s#", "part"])
            .union(PlanBuilder::scan("supplies").rename([("p#", "part")]))
            .intersect(PlanBuilder::scan("supplies").rename([("p#", "part")]))
            .difference(PlanBuilder::values(
                relation! { ["s#", "part"] => [99, 99] },
            ))
            .semi_join(PlanBuilder::scan("parts").rename([("p#", "part")]))
            .anti_semi_join(PlanBuilder::values(relation! { ["s#"] => [3] }))
            .group_aggregate(["s#"], [div_algebra::AggregateCall::count("part", "n")])
            .build();
        let physical = plan_query(&logical, &PlannerConfig::default()).unwrap();
        assert_eq!(
            execute(&physical, &c).unwrap(),
            evaluate(&logical, &c).unwrap()
        );
    }
}
