//! Execution statistics: query-level aggregates plus the per-operator
//! span tree.
//!
//! The metric the paper cares about is the *size of intermediate results*
//! (Section 6: any basic-algebra simulation of division must produce
//! quadratic intermediates), and the aggregate counters here measure exactly
//! that — tuples scanned, intermediate volume, peak intermediate, probes.
//! Two later layers extended the picture:
//!
//! * **resident accounting** for the streaming executor
//!   ([`crate::stream`]): `peak_resident_batches` / `peak_resident_rows`
//!   track the executor-materialized footprint, the O(pipeline depth ×
//!   batch size) memory claim streaming exists to make;
//! * **per-operator attribution** ([`crate::trace`]): `operators` holds an
//!   [`OperatorStats`] node per plan operator, keyed by its pre-order
//!   [`OperatorId`](crate::trace::OperatorId), with that operator's own
//!   rows in/out, probes, retained peak and (when tracing is enabled)
//!   wall-clock spans. This is the tree `EXPLAIN ANALYZE` renders.

use crate::trace::OperatorStats;

/// Aggregated execution statistics for one plan execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples read from base tables.
    pub rows_scanned: usize,
    /// Tuples produced by intermediate (non-root, non-scan) operators.
    pub intermediate_tuples: usize,
    /// Largest single intermediate result.
    pub max_intermediate: usize,
    /// Tuples produced by the root operator (the query result size).
    pub output_rows: usize,
    /// Total tuple comparisons / hash probes performed by division and join
    /// algorithms (a proxy for CPU work). Hash joins count one per probe
    /// row — intersection and difference included — and the nested loop
    /// one per row pair it considers, Cartesian products included.
    pub probes: usize,
    /// Number of operator executions recorded (one per plan operator;
    /// summed across merged executions).
    pub operators_executed: usize,
    /// The per-operator span tree: one [`OperatorStats`] node per plan
    /// operator, indexed by its pre-order
    /// [`OperatorId`](crate::trace::OperatorId) (`operators[i].id.0 == i`).
    /// Row/probe/retained counters are always filled; the wall-clock fields
    /// are non-zero only when tracing was enabled
    /// ([`PlannerConfig::tracing`](crate::PlannerConfig::tracing)). Empty
    /// for statistics recorded without running a plan.
    pub operators: Vec<OperatorStats>,
    /// Peak number of executor-materialized batches simultaneously resident
    /// during a *streaming* execution ([`crate::stream`]): in-flight chunks
    /// plus blocking-operator state (build sides, buffered inputs, distinct
    /// stores). Base-table snapshots held by scans are excluded — they
    /// belong to the catalog, not the pipeline.
    pub peak_resident_batches: usize,
    /// Peak number of rows across the resident batches above. For a
    /// pipeline of streaming operators this is O(pipeline depth ×
    /// batch size), not O(table) — the memory claim the streaming executor
    /// exists to make.
    pub peak_resident_rows: usize,
    /// Rows still resident when the streaming executor finished (after the
    /// root pipeline was closed). Must be `0`: any other value means an
    /// operator leaked accounting on an abort path. The governance
    /// regression tests assert on this after cancelled / deadline-tripped /
    /// budget-tripped drains.
    pub resident_rows_on_finish: usize,
    /// Chunks a streaming scan skipped without emitting — resident segments
    /// of an in-memory table, on-disk chunks of an attached one (those are
    /// not even read) — because the chunk's zone maps proved the pushed-down
    /// filter cannot match any row in it. Their rows are not in
    /// `rows_scanned`.
    pub chunks_skipped: usize,
    /// Spill partition files created by the hybrid hash operators (every
    /// recursion level counts its own files).
    pub spill_partitions: usize,
    /// Rows written to spill files. With multi-level recursion a row is
    /// counted once per level it is rewritten at, so this exceeding the
    /// input cardinality is evidence of recursive re-partitioning.
    pub spill_rows_written: usize,
    /// Rows read back from spill files.
    pub spill_rows_read: usize,
}

impl ExecStats {
    /// Record one operator execution (per-operator attribution lives in
    /// [`ExecStats::operators`]).
    pub fn record(&mut self, output_rows: usize, is_scan: bool, is_root: bool) {
        self.operators_executed += 1;
        if is_scan {
            self.rows_scanned += output_rows;
        } else if !is_root {
            self.intermediate_tuples += output_rows;
            self.max_intermediate = self.max_intermediate.max(output_rows);
        }
        if is_root {
            self.output_rows = output_rows;
        }
    }

    /// Record probe/comparison work done inside an operator.
    pub fn add_probes(&mut self, probes: usize) {
        self.probes += probes;
    }

    /// Record the current resident-batch footprint of a streaming
    /// execution; peaks are kept, lower values are ignored.
    pub fn note_resident(&mut self, batches: usize, rows: usize) {
        self.peak_resident_batches = self.peak_resident_batches.max(batches);
        self.peak_resident_rows = self.peak_resident_rows.max(rows);
    }

    /// Merge statistics from another execution (e.g. one phase of a
    /// multi-plan run such as Apriori's support counting).
    ///
    /// Aggregates are summed (peaks maxed) as before. The operator trees
    /// merge structurally: if `self` has no tree, `other`'s is adopted; if
    /// both trees describe the same plan shape (same length and labels),
    /// nodes are combined pairwise (rows and probes summed, retained peaks
    /// and times maxed); trees of different
    /// shapes keep `self`'s.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.intermediate_tuples += other.intermediate_tuples;
        self.max_intermediate = self.max_intermediate.max(other.max_intermediate);
        self.probes += other.probes;
        self.output_rows += other.output_rows;
        self.operators_executed += other.operators_executed;
        self.peak_resident_batches = self.peak_resident_batches.max(other.peak_resident_batches);
        self.peak_resident_rows = self.peak_resident_rows.max(other.peak_resident_rows);
        // A leak in any sub-execution is a leak of the whole execution.
        self.resident_rows_on_finish = self
            .resident_rows_on_finish
            .max(other.resident_rows_on_finish);
        self.chunks_skipped += other.chunks_skipped;
        self.spill_partitions += other.spill_partitions;
        self.spill_rows_written += other.spill_rows_written;
        self.spill_rows_read += other.spill_rows_read;
        if self.operators.is_empty() {
            self.operators = other.operators.clone();
        } else if same_shape(&self.operators, &other.operators) {
            for (mine, theirs) in self.operators.iter_mut().zip(&other.operators) {
                mine.rows_in += theirs.rows_in;
                mine.rows_out += theirs.rows_out;
                mine.probes += theirs.probes;
                mine.peak_retained_rows = mine.peak_retained_rows.max(theirs.peak_retained_rows);
                mine.time_open_ns = mine.time_open_ns.max(theirs.time_open_ns);
                mine.time_next_ns = mine.time_next_ns.max(theirs.time_next_ns);
                mine.time_close_ns = mine.time_close_ns.max(theirs.time_close_ns);
                if mine.phases.is_empty() {
                    mine.phases = theirs.phases.clone();
                } else if mine.phases.len() == theirs.phases.len() {
                    for ((_, mine), (_, theirs)) in mine.phases.iter_mut().zip(&theirs.phases) {
                        *mine = (*mine).max(*theirs);
                    }
                }
            }
        }
    }
}

fn same_shape(a: &[OperatorStats], b: &[OperatorStats]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.label == y.label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OperatorId, QueryTrace};
    use div_expr::LogicalPlan;

    #[test]
    fn record_distinguishes_scans_intermediates_and_root() {
        let mut stats = ExecStats::default();
        stats.record(100, true, false);
        stats.record(40, false, false);
        stats.record(10, false, true);
        assert_eq!(stats.rows_scanned, 100);
        assert_eq!(stats.intermediate_tuples, 40);
        assert_eq!(stats.max_intermediate, 40);
        assert_eq!(stats.output_rows, 10);
        assert_eq!(stats.operators_executed, 3);
    }

    #[test]
    fn merge_accumulates_and_takes_max() {
        let mut a = ExecStats::default();
        a.record(10, true, false);
        a.record(5, false, false);
        a.record(3, false, true);
        a.add_probes(7);
        a.note_resident(2, 100);
        let mut b = ExecStats::default();
        b.record(20, true, false);
        b.record(50, false, false);
        b.record(4, false, true);
        b.add_probes(3);
        b.note_resident(5, 60);
        a.merge(&b);
        assert_eq!(a.rows_scanned, 30);
        assert_eq!(a.intermediate_tuples, 55);
        assert_eq!(a.max_intermediate, 50);
        assert_eq!(a.probes, 10);
        assert_eq!(a.output_rows, 7);
        assert_eq!(a.peak_resident_batches, 5);
        assert_eq!(a.peak_resident_rows, 100);
    }

    #[test]
    fn note_resident_keeps_peaks_only() {
        let mut stats = ExecStats::default();
        stats.note_resident(3, 300);
        stats.note_resident(1, 50);
        assert_eq!(stats.peak_resident_batches, 3);
        assert_eq!(stats.peak_resident_rows, 300);
    }

    fn scan_tree(rows: usize) -> Vec<OperatorStats> {
        let plan = LogicalPlan::Scan { table: "t".into() };
        let mut trace = QueryTrace::from_plan(&plan);
        trace.set_rows_out(OperatorId(0), rows);
        trace.finish()
    }

    fn with_tree(rows: usize) -> ExecStats {
        ExecStats {
            operators: scan_tree(rows),
            ..ExecStats::default()
        }
    }

    #[test]
    fn merge_adopts_a_tree_when_self_has_none() {
        let mut a = ExecStats::default();
        let b = with_tree(7);
        a.merge(&b);
        assert_eq!(a.operators.len(), 1);
        assert_eq!(a.operators[0].rows_out, 7);
    }

    #[test]
    fn merge_combines_same_shape_trees_nodewise() {
        let mut a = with_tree(7);
        a.operators[0].peak_retained_rows = 10;
        let mut b = with_tree(5);
        b.operators[0].probes = 3;
        b.operators[0].peak_retained_rows = 4;
        a.merge(&b);
        assert_eq!(a.operators[0].rows_out, 12);
        assert_eq!(a.operators[0].probes, 3);
        assert_eq!(a.operators[0].peak_retained_rows, 10);
    }

    #[test]
    fn merge_keeps_own_tree_on_shape_mismatch() {
        let mut a = with_tree(7);
        let mut b = with_tree(5);
        b.operators[0].label = "SomethingElse".into();
        a.merge(&b);
        assert_eq!(a.operators[0].rows_out, 7);
    }
}
