//! The execution settings a plan runs under.
//!
//! The streaming executor compiles the optimized [`div_expr::LogicalPlan`]
//! directly, one operator per node ([`crate::trace::operator_label`] names
//! them); [`PlannerConfig`] carries how that operator tree executes — chunk
//! size, tracing, governance and spilling. The paper's algorithm comparison
//! is not a configuration choice: the family's other members are logical
//! plans of their own (`div_expr::division`).

use std::time::Duration;

/// Configuration of plan execution on the streaming executor.
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
    /// [`PlannerConfig::memory_budget_rows`] (served statements included)
    /// or a caller's own — would trip, and recurse per partition (Graefe's
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamExecutor;
    use div_algebra::{relation, Relation};
    use div_expr::{evaluate, Catalog, PlanBuilder};

    #[test]
    fn natural_join_lowers_to_hash_join() {
        let mut c = Catalog::new();
        c.register(
            "supplies",
            relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [3, 3] },
        );
        c.register(
            "parts",
            relation! { ["p#", "color"] => [1, "blue"], [2, "red"] },
        );
        let logical = PlanBuilder::scan("supplies")
            .natural_join(PlanBuilder::scan("parts"))
            .build();
        let mut stream = StreamExecutor::new(&logical, &c, &PlannerConfig::default()).unwrap();
        let mut got = Relation::empty(stream.schema().clone());
        while let Some(batch) = stream.next_batch().unwrap() {
            for i in 0..batch.num_rows() {
                got.insert(batch.row(i)).unwrap();
            }
        }
        // The natural join runs as the executor's hash join operator ...
        assert_eq!(stream.finish().operators[0].label, "HashJoin");
        // ... and produces the same rows as the reference semantics.
        assert_eq!(got, evaluate(&logical, &c).unwrap());
    }
}
