//! Query tracing: the per-operator span tree behind `EXPLAIN ANALYZE`.
//!
//! The aggregate counters of [`ExecStats`](crate::ExecStats) answer *how
//! much* a query did; this module answers *where*. Every node of a
//! [`LogicalPlan`] compiles to one operator, which gets a stable
//! [`OperatorId`] — its position in a pre-order depth-first walk of the plan
//! tree — a name ([`operator_label`]) and an
//! [`OperatorStats`] node recording what that one operator did: rows in and
//! out, hash probes, peak retained rows, and wall-clock time. Operators are
//! identified by position, not by label, so two operators with the same
//! label (two identical `Filter`s, say) stay two entries.
//!
//! The streaming executor ([`crate::stream`]) splits wall-clock time into
//! the Volcano phases `open` (operator-tree compilation), `next_batch`
//! (cumulative across all pulls) and `close`. Deltas are accumulated with
//! one [`Instant`] pair per call, never per row, and only when tracing is
//! enabled ([`PlannerConfig::tracing`](crate::PlannerConfig::tracing)).
//!
//! All recorded times are *inclusive*: an operator's span contains its
//! children's spans, exactly like `EXPLAIN ANALYZE` output in mainstream
//! systems.
//!
//! A [`QueryTrace`] is the recorder used during one execution; its
//! finished node list lands in
//! [`ExecStats::operators`](crate::ExecStats::operators). Equality on
//! [`OperatorStats`] deliberately ignores the time fields so that
//! differential tests can compare statistics across executions without
//! tripping over wall-clock noise.

use div_expr::LogicalPlan;
use std::fmt;
use std::time::{Duration, Instant};

/// Stable identifier of one operator in a plan: its index in a pre-order
/// depth-first walk (the root is `0`, a node's id precedes all of its
/// descendants' ids, and siblings number left to right).
///
/// The trace skeleton and the stream compiler assign ids with the same
/// walk, so the id of an operator matches the line order of EXPLAIN's
/// physical plan section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OperatorId(pub usize);

impl OperatorId {
    /// The id as a plain index into [`ExecStats::operators`](crate::ExecStats::operators).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What one operator did during one execution: the per-node counterpart of
/// the query-level aggregates in [`ExecStats`](crate::ExecStats).
///
/// `PartialEq`/`Eq` ignore the `time_*_ns` fields and the `phases`: row
/// counts, probes and retained state are deterministic and comparable
/// across executions, wall time is not.
#[derive(Debug, Clone, Default)]
pub struct OperatorStats {
    /// Pre-order position of the operator in the plan tree.
    pub id: OperatorId,
    /// The operator's display label ([`operator_label`]).
    pub label: String,
    /// Rows this operator consumed: the sum of its children's `rows_out`
    /// (`0` for scans, whose input is the catalog).
    pub rows_in: usize,
    /// Rows this operator produced (for an early-terminated execution:
    /// rows it *actually* produced before the consumer stopped).
    pub rows_out: usize,
    /// Hash probes / tuple comparisons performed by this operator's kernel.
    pub probes: usize,
    /// Peak rows retained in cross-batch state (build sides, distinct
    /// stores, coverage state, blocking buffers). `0` for pure pipeline
    /// operators.
    pub peak_retained_rows: usize,
    /// Nanoseconds spent constructing the operator (streaming `open`
    /// phase, inclusive of children). `0` when tracing is off.
    pub time_open_ns: u64,
    /// Nanoseconds spent producing batches, cumulative over every
    /// `next_batch` call, inclusive of children. `0` when tracing is off.
    pub time_next_ns: u64,
    /// Nanoseconds spent closing the operator, inclusive of children.
    /// `0` when tracing is off.
    pub time_close_ns: u64,
    /// Named parts of this operator's own work, in nanoseconds, when
    /// tracing is on and the operator splits its time (a hash join:
    /// `partition`, `read`, `build`, `probe`); empty otherwise. Its
    /// children's time is in none of them.
    pub phases: Vec<(&'static str, u64)>,
    /// Ids of this operator's children, left to right.
    pub children: Vec<OperatorId>,
}

impl OperatorStats {
    fn new(id: OperatorId, label: String) -> OperatorStats {
        OperatorStats {
            id,
            label,
            ..OperatorStats::default()
        }
    }

    /// Total recorded wall time in nanoseconds (open + next + close),
    /// inclusive of children.
    pub fn total_time_ns(&self) -> u64 {
        self.time_open_ns + self.time_next_ns + self.time_close_ns
    }

    /// `true` when a timed execution recorded wall time for this node.
    pub fn timed(&self) -> bool {
        self.total_time_ns() > 0
    }
}

impl PartialEq for OperatorStats {
    fn eq(&self, other: &Self) -> bool {
        // Wall-clock fields are excluded on purpose: differential tests
        // assert statistics equality across executions.
        self.id == other.id
            && self.label == other.label
            && self.rows_in == other.rows_in
            && self.rows_out == other.rows_out
            && self.probes == other.probes
            && self.peak_retained_rows == other.peak_retained_rows
            && self.children == other.children
    }
}

impl Eq for OperatorStats {}

/// The name of the streaming operator `plan`'s root node compiles to — the
/// one place operators are named. The trace skeleton, the executor's
/// failpoint sites (`{label}.open`, `{label}.next_batch`, `{label}.close`),
/// `EXPLAIN`'s physical plan section and plan signatures all use it.
pub fn operator_label(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { table } => format!("TableScan({table})"),
        LogicalPlan::Values { relation } => format!("Values({} rows)", relation.len()),
        LogicalPlan::Select { predicate, .. } => format!("Filter({predicate})"),
        LogicalPlan::Project { attributes, .. } => format!("Project({})", attributes.join(", ")),
        LogicalPlan::Rename { .. } => "Rename".to_string(),
        LogicalPlan::Union { .. } => "Union".to_string(),
        LogicalPlan::Intersect { .. } => "Intersect".to_string(),
        LogicalPlan::Difference { .. } => "Difference".to_string(),
        LogicalPlan::Product { .. } => "CrossProduct".to_string(),
        LogicalPlan::ThetaJoin { predicate, .. } => format!("NestedLoopJoin({predicate})"),
        LogicalPlan::NaturalJoin { .. } => "HashJoin".to_string(),
        LogicalPlan::SemiJoin { .. } => "HashSemiJoin".to_string(),
        LogicalPlan::AntiSemiJoin { .. } => "HashAntiSemiJoin".to_string(),
        LogicalPlan::GroupAggregate { group_by, .. } => {
            format!("HashAggregate({})", group_by.join(", "))
        }
        LogicalPlan::SmallDivide { .. } => "Divide[hash]".to_string(),
        LogicalPlan::GreatDivide { .. } => "GreatDivide[hash]".to_string(),
    }
}

/// The span-tree recorder for one query execution.
///
/// Built from the plan before execution starts ([`QueryTrace::from_plan`]),
/// filled in by the executor as operators run, and finalized into the
/// flat, id-indexed node list stored in
/// [`ExecStats::operators`](crate::ExecStats::operators). Recording row
/// counts, probes and retained state is always on (it is O(1) bookkeeping
/// the executor already does in aggregate); the `Instant`-based wall-clock
/// spans are taken only when timing is enabled.
#[derive(Debug, Default)]
pub struct QueryTrace {
    timing: bool,
    nodes: Vec<OperatorStats>,
}

impl QueryTrace {
    /// A trace skeleton for `plan`: one node per operator, ids assigned in
    /// pre-order, timing disabled.
    pub fn from_plan(plan: &LogicalPlan) -> QueryTrace {
        let mut nodes = Vec::with_capacity(plan.node_count());
        build_skeleton(plan, &mut nodes);
        QueryTrace {
            timing: false,
            nodes,
        }
    }

    /// This trace with wall-clock timing switched on or off.
    pub fn with_timing(mut self, timing: bool) -> QueryTrace {
        self.timing = timing;
        self
    }

    /// Start a span: `Some(now)` when timing is enabled, `None` (and no
    /// clock read) otherwise. Pair with one of the `add_*` phase methods.
    pub fn span_start(&self) -> Option<Instant> {
        self.timing.then(Instant::now)
    }

    /// Number of operators in the trace.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the trace tracks no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn node(&mut self, id: OperatorId) -> Option<&mut OperatorStats> {
        self.nodes.get_mut(id.0)
    }

    /// Set the rows this operator produced.
    pub fn set_rows_out(&mut self, id: OperatorId, rows: usize) {
        if let Some(node) = self.node(id) {
            node.rows_out = rows;
        }
    }

    /// Add kernel probes to this operator.
    pub fn add_probes(&mut self, id: OperatorId, probes: usize) {
        if let Some(node) = self.node(id) {
            node.probes += probes;
        }
    }

    /// Record this operator's current retained-state footprint (peaks are
    /// kept, lower values ignored).
    pub fn note_retained(&mut self, id: OperatorId, rows: usize) {
        if let Some(node) = self.node(id) {
            node.peak_retained_rows = node.peak_retained_rows.max(rows);
        }
    }

    /// Accumulate time into the `open` phase of this operator.
    pub fn add_open(&mut self, id: OperatorId, elapsed: Duration) {
        if let Some(node) = self.node(id) {
            node.time_open_ns += elapsed.as_nanos() as u64;
        }
    }

    /// Accumulate time into the `next_batch` phase of this operator.
    pub fn add_next(&mut self, id: OperatorId, elapsed: Duration) {
        if let Some(node) = self.node(id) {
            node.time_next_ns += elapsed.as_nanos() as u64;
        }
    }

    /// Set the named parts of this operator's own work (see
    /// [`OperatorStats::phases`]).
    pub fn set_phases(&mut self, id: OperatorId, phases: Vec<(&'static str, u64)>) {
        if let Some(node) = self.node(id) {
            node.phases = phases;
        }
    }

    /// Accumulate time into the `close` phase of this operator.
    pub fn add_close(&mut self, id: OperatorId, elapsed: Duration) {
        if let Some(node) = self.node(id) {
            node.time_close_ns += elapsed.as_nanos() as u64;
        }
    }

    /// Finalize and take the node list: derives every `rows_in` as the sum
    /// of the node's children's `rows_out` and leaves the trace empty.
    pub fn finish(&mut self) -> Vec<OperatorStats> {
        let mut nodes = std::mem::take(&mut self.nodes);
        for i in 0..nodes.len() {
            let rows_in: usize = nodes[i]
                .children
                .clone()
                .into_iter()
                .map(|c| nodes[c.0].rows_out)
                .sum();
            nodes[i].rows_in = rows_in;
        }
        nodes
    }
}

fn build_skeleton(plan: &LogicalPlan, nodes: &mut Vec<OperatorStats>) -> OperatorId {
    let id = OperatorId(nodes.len());
    nodes.push(OperatorStats::new(id, operator_label(plan)));
    let children: Vec<OperatorId> = plan
        .children()
        .into_iter()
        .map(|child| build_skeleton(child, nodes))
        .collect();
    nodes[id.0].children = children;
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::{relation, AggregateCall, CompareOp, Predicate};
    use div_expr::PlanBuilder;

    fn sample() -> LogicalPlan {
        PlanBuilder::scan("supplies")
            .divide(PlanBuilder::scan("parts").select(Predicate::eq_value("color", "blue")))
            .project(["s#"])
            .build()
    }

    /// The labels are failpoint names and the benchmark's operator kinds:
    /// one node per plan variant, each pinned to its exact string.
    #[test]
    fn operator_labels_are_pinned_per_variant() {
        let scan = || PlanBuilder::scan("t");
        let root = |plan: PlanBuilder| operator_label(&plan.build());
        let cases = [
            (root(scan()), "TableScan(t)"),
            (
                root(PlanBuilder::values(relation! { ["a"] => [1], [2] })),
                "Values(2 rows)",
            ),
            (
                root(scan().select(Predicate::cmp_value("a", CompareOp::Lt, 3))),
                "Filter(a < 3)",
            ),
            (root(scan().project(["a", "b"])), "Project(a, b)"),
            (root(scan().rename([("a", "x")])), "Rename"),
            (root(scan().union(scan())), "Union"),
            (root(scan().intersect(scan())), "Intersect"),
            (root(scan().difference(scan())), "Difference"),
            (root(scan().product(scan())), "CrossProduct"),
            (
                root(scan().theta_join(scan(), Predicate::cmp_attrs("a", CompareOp::Lt, "b"))),
                "NestedLoopJoin(a < b)",
            ),
            (root(scan().natural_join(scan())), "HashJoin"),
            (root(scan().semi_join(scan())), "HashSemiJoin"),
            (root(scan().anti_semi_join(scan())), "HashAntiSemiJoin"),
            (
                root(scan().group_aggregate(["g"], [AggregateCall::count("a", "n")])),
                "HashAggregate(g)",
            ),
            (root(scan().divide(scan())), "Divide[hash]"),
            (root(scan().great_divide(scan())), "GreatDivide[hash]"),
        ];
        for (label, expected) in cases {
            assert_eq!(label, expected);
        }
    }

    #[test]
    fn skeleton_ids_follow_pre_order() {
        let trace = QueryTrace::from_plan(&sample());
        assert_eq!(trace.len(), 5);
        let labels: Vec<&str> = trace.nodes.iter().map(|n| n.label.as_str()).collect();
        assert!(labels[0].starts_with("Project"));
        assert!(labels[1].starts_with("Divide"));
        assert_eq!(labels[2], "TableScan(supplies)");
        assert!(labels[3].starts_with("Filter"));
        assert_eq!(labels[4], "TableScan(parts)");
        assert_eq!(trace.nodes[0].children, vec![OperatorId(1)]);
        assert_eq!(trace.nodes[1].children, vec![OperatorId(2), OperatorId(3)]);
        assert_eq!(trace.nodes[3].children, vec![OperatorId(4)]);
    }

    #[test]
    fn finish_derives_rows_in_from_children() {
        let mut trace = QueryTrace::from_plan(&sample());
        for (id, rows) in [(0, 2), (1, 2), (2, 6), (3, 2), (4, 3)] {
            trace.set_rows_out(OperatorId(id), rows);
        }
        let nodes = trace.finish();
        assert_eq!(nodes[0].rows_in, 2); // Project consumes the quotient
        assert_eq!(nodes[1].rows_in, 6 + 2); // Divide consumes both inputs
        assert_eq!(nodes[2].rows_in, 0); // scans have no plan input
        assert_eq!(nodes[3].rows_in, 3); // Filter consumes the scan
    }

    #[test]
    fn equality_ignores_wall_time() {
        let mut a = OperatorStats::new(OperatorId(0), "Filter".into());
        let mut b = a.clone();
        a.time_next_ns = 1_000_000;
        b.time_next_ns = 2;
        assert_eq!(a, b);
        b.rows_out = 1;
        assert_ne!(a, b);
    }

    #[test]
    fn span_start_reads_the_clock_only_when_timing() {
        let off = QueryTrace::from_plan(&sample());
        assert!(off.span_start().is_none());
        let on = QueryTrace::from_plan(&sample()).with_timing(true);
        assert!(on.span_start().is_some());
    }
}
