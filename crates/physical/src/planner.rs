//! Lowering logical plans to physical plans.
//!
//! This is the second half of query optimization in the paper's terminology
//! (Section 7): after the logical rewrite (done by `div-rewrite`), each
//! logical operator is mapped to a physical operator. Each logical operator
//! has exactly one physical operator today, so the mapping is fixed; the
//! [`PlannerConfig`] carries the execution settings of the streaming
//! executor (chunk size, tracing, governance, spilling) that travel with a
//! plan. The paper's algorithm comparison is not a planner choice: the
//! family's other members are logical plans of their own
//! (`div_expr::division`), planned like any other.

use crate::plan::PhysicalPlan;
use crate::Result;
use div_expr::LogicalPlan;
use std::time::Duration;

/// Configuration of the logical-to-physical mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Chunk size of the streaming executor ([`crate::stream`]): scans emit
    /// base tables in batches of at most this many rows, and every
    /// pipelining operator processes one such batch at a time. Clamped to
    /// ≥ 1; defaults to [`PlannerConfig::DEFAULT_BATCH_SIZE`].
    pub batch_size: usize,
    /// Record wall-clock spans in the per-operator trace
    /// ([`crate::trace`]). Row, probe and retained-state attribution is
    /// always on (it is O(1) bookkeeping the executor does anyway); this
    /// flag only gates the `Instant` reads. Defaults to `false`; the
    /// `Engine` turns it on for `explain_analyze`.
    pub tracing: bool,
    /// Wall-clock deadline for query execution, measured from cursor open.
    /// Enforced cooperatively by [`crate::guard::QueryGuard`] at every
    /// batch boundary of the streaming executor; a trip surfaces
    /// [`div_expr::ExprError::DeadlineExceeded`]. `None` (the default)
    /// disables the check.
    pub deadline: Option<Duration>,
    /// Resident-row memory budget: the maximum rows the streaming executor
    /// may hold resident (in-flight batches plus blocking-operator state,
    /// the quantity tracked as `peak_resident_rows`) at any batch boundary.
    /// A trip surfaces
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

/// Map a logical plan to a physical plan. No lowering decision depends on
/// the configuration: it is accepted so that a plan and the settings it will
/// run under travel through one call.
pub fn plan_query(logical: &LogicalPlan, _config: &PlannerConfig) -> Result<PhysicalPlan> {
    lower(logical)
}

fn lower(logical: &LogicalPlan) -> Result<PhysicalPlan> {
    let physical = match logical {
        LogicalPlan::Scan { table } => PhysicalPlan::TableScan {
            table: table.clone(),
        },
        LogicalPlan::Values { relation } => PhysicalPlan::Values {
            relation: relation.clone(),
        },
        LogicalPlan::Select { input, predicate } => PhysicalPlan::Filter {
            input: Box::new(lower(input)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::Project { input, attributes } => PhysicalPlan::Project {
            input: Box::new(lower(input)?),
            attributes: attributes.clone(),
        },
        LogicalPlan::Rename { input, renames } => PhysicalPlan::Rename {
            input: Box::new(lower(input)?),
            renames: renames.clone(),
        },
        LogicalPlan::Union { left, right } => PhysicalPlan::Union {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        LogicalPlan::Intersect { left, right } => PhysicalPlan::Intersect {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        LogicalPlan::Difference { left, right } => PhysicalPlan::Difference {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        LogicalPlan::Product { left, right } => PhysicalPlan::CrossProduct {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        LogicalPlan::ThetaJoin {
            left,
            right,
            predicate,
        } => PhysicalPlan::NestedLoopJoin {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
            predicate: predicate.clone(),
        },
        LogicalPlan::NaturalJoin { left, right } => PhysicalPlan::HashJoin {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        LogicalPlan::SemiJoin { left, right } => PhysicalPlan::HashSemiJoin {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        LogicalPlan::AntiSemiJoin { left, right } => PhysicalPlan::HashAntiSemiJoin {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
        },
        LogicalPlan::SmallDivide { dividend, divisor } => PhysicalPlan::Divide {
            dividend: Box::new(lower(dividend)?),
            divisor: Box::new(lower(divisor)?),
        },
        LogicalPlan::GreatDivide { dividend, divisor } => PhysicalPlan::GreatDivide {
            dividend: Box::new(lower(dividend)?),
            divisor: Box::new(lower(divisor)?),
        },
        LogicalPlan::GroupAggregate {
            input,
            group_by,
            aggregates,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(lower(input)?),
            group_by: group_by.clone(),
            aggregates: aggregates.clone(),
        },
    };
    Ok(physical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamExecutor;
    use div_algebra::{relation, Relation};
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

    /// Drain the streaming execution of `plan` into a relation.
    fn run(plan: &PhysicalPlan, catalog: &Catalog) -> Relation {
        let config = PlannerConfig::default();
        let mut stream = StreamExecutor::new(plan, catalog, &config).unwrap();
        let mut out = Relation::empty(stream.schema().clone());
        while let Some(batch) = stream.next_batch().unwrap() {
            out = out.union(&batch.to_relation().unwrap()).unwrap();
        }
        out
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
        assert_eq!(run(&hash, &c), evaluate(&logical, &c).unwrap());
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
        assert_eq!(run(&physical, &c), evaluate(&logical, &c).unwrap());
    }
}
