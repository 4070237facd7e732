//! Session-wide engine metrics: cheap atomic counters the
//! [`Engine`](crate::Engine) maintains across every query it serves.
//!
//! Where [`div_physical::trace`] answers *"where did this one query spend
//! its time?"*, this module answers *"what has this engine been doing?"* —
//! the registry aggregates over the whole session:
//!
//! * throughput counters: queries executed, rows returned, statements
//!   prepared, prepared-plan cache hits and misses;
//! * the pipeline time split: cumulative wall time spent parsing,
//!   optimizing (rewrite-law search), physical planning and executing;
//! * a fixed-bucket histogram of per-query execution latency;
//! * per-rewrite-law application counts (how often each of the paper's
//!   laws actually fired on this workload).
//!
//! Everything is lock-free atomics except the law-count map, which takes a
//! short mutex only when the optimizer reports applications at compile
//! time — the per-batch execution hot path never touches this module.
//!
//! Read the registry with [`Engine::metrics`](crate::Engine::metrics),
//! which returns a coherent-enough [`MetricsSnapshot`] (each counter is
//! read atomically; the set is not a transaction). The snapshot renders as
//! text via [`fmt::Display`] and as JSON via [`MetricsSnapshot::to_json`]
//! (hand-rolled — no serialization dependency).
//!
//! ```
//! use div_algebra::relation;
//! use div_expr::Catalog;
//! use div_sql::Engine;
//!
//! let mut catalog = Catalog::new();
//! catalog.register("parts", relation! { ["p#"] => [1], [2] });
//! let engine = Engine::new(catalog);
//! engine.query("SELECT p# FROM parts")?.collect_relation()?;
//! let snapshot = engine.metrics();
//! assert_eq!(snapshot.queries_executed, 1);
//! assert_eq!(snapshot.rows_returned, 2);
//! assert!(snapshot.to_json().contains("\"queries_executed\": 1"));
//! # Ok::<(), div_sql::Error>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Inclusive upper bounds of the execution-latency histogram buckets, in
/// nanoseconds. The last bucket is unbounded (`u64::MAX` catches the rest).
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 6] = [
    100_000,       // ≤ 100µs
    1_000_000,     // ≤ 1ms
    10_000_000,    // ≤ 10ms
    100_000_000,   // ≤ 100ms
    1_000_000_000, // ≤ 1s
    u64::MAX,      // > 1s
];

/// The engine's metrics registry: atomic counters updated as queries flow
/// through the pipeline. Owned by the [`Engine`](crate::Engine); shared
/// references are handed to in-flight [`Cursor`](crate::Cursor)s so each
/// records its completion exactly once (on collect, finish or drop).
#[derive(Debug, Default)]
pub struct EngineMetrics {
    queries_executed: AtomicU64,
    rows_returned: AtomicU64,
    statements_prepared: AtomicU64,
    prepared_cache_hits: AtomicU64,
    prepared_cache_misses: AtomicU64,
    parse_ns: AtomicU64,
    optimize_ns: AtomicU64,
    plan_ns: AtomicU64,
    execute_ns: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKET_BOUNDS_NS.len()],
    law_applications: Mutex<BTreeMap<String, u64>>,
    queries_spilled: AtomicU64,
    spill_partitions: AtomicU64,
    spill_rows_written: AtomicU64,
    spill_rows_read: AtomicU64,
    chunks_skipped: AtomicU64,
}

fn saturating_ns(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

impl EngineMetrics {
    pub(crate) fn add_parse(&self, elapsed: Duration) {
        self.parse_ns
            .fetch_add(saturating_ns(elapsed), Ordering::Relaxed);
    }

    pub(crate) fn add_optimize(&self, elapsed: Duration) {
        self.optimize_ns
            .fetch_add(saturating_ns(elapsed), Ordering::Relaxed);
    }

    pub(crate) fn add_plan(&self, elapsed: Duration) {
        self.plan_ns
            .fetch_add(saturating_ns(elapsed), Ordering::Relaxed);
    }

    /// One query execution finished (successfully or not): bump the query
    /// counter, account the returned rows and place the latency in its
    /// histogram bucket.
    pub(crate) fn record_execution(&self, rows: u64, elapsed: Duration) {
        let ns = saturating_ns(elapsed);
        self.queries_executed.fetch_add(1, Ordering::Relaxed);
        self.rows_returned.fetch_add(rows, Ordering::Relaxed);
        self.execute_ns.fetch_add(ns, Ordering::Relaxed);
        let bucket = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .expect("last bound is u64::MAX");
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one finished execution's out-of-core statistics into the
    /// session counters: spill traffic from the hybrid hash operators and
    /// zone-map chunk skips from table scans.
    pub(crate) fn record_exec_stats(&self, stats: &div_physical::ExecStats) {
        if stats.spill_partitions > 0 {
            self.queries_spilled.fetch_add(1, Ordering::Relaxed);
            self.spill_partitions
                .fetch_add(stats.spill_partitions as u64, Ordering::Relaxed);
            self.spill_rows_written
                .fetch_add(stats.spill_rows_written as u64, Ordering::Relaxed);
            self.spill_rows_read
                .fetch_add(stats.spill_rows_read as u64, Ordering::Relaxed);
        }
        if stats.chunks_skipped > 0 {
            self.chunks_skipped
                .fetch_add(stats.chunks_skipped as u64, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_prepare(&self) {
        self.statements_prepared.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_prepared_cache(&self, hit: bool) {
        if hit {
            self.prepared_cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.prepared_cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Credit the rewrite laws the optimizer reports for one compilation.
    pub(crate) fn record_laws(&self, applied: &[div_rewrite::engine::AppliedRule]) {
        if applied.is_empty() {
            return;
        }
        let counts = div_rewrite::engine::count_applications(applied);
        let mut laws = self.law_applications.lock().expect("metrics lock");
        for (rule, n) in counts {
            *laws.entry(rule).or_insert(0) += n;
        }
    }

    /// Read every counter into a [`MetricsSnapshot`].
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_executed: self.queries_executed.load(Ordering::Relaxed),
            rows_returned: self.rows_returned.load(Ordering::Relaxed),
            statements_prepared: self.statements_prepared.load(Ordering::Relaxed),
            prepared_cache_hits: self.prepared_cache_hits.load(Ordering::Relaxed),
            prepared_cache_misses: self.prepared_cache_misses.load(Ordering::Relaxed),
            parse_ns: self.parse_ns.load(Ordering::Relaxed),
            optimize_ns: self.optimize_ns.load(Ordering::Relaxed),
            plan_ns: self.plan_ns.load(Ordering::Relaxed),
            execute_ns: self.execute_ns.load(Ordering::Relaxed),
            latency_buckets: self
                .latency_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            law_applications: self.law_applications.lock().expect("metrics lock").clone(),
            queries_spilled: self.queries_spilled.load(Ordering::Relaxed),
            spill_partitions: self.spill_partitions.load(Ordering::Relaxed),
            spill_rows_written: self.spill_rows_written.load(Ordering::Relaxed),
            spill_rows_read: self.spill_rows_read.load(Ordering::Relaxed),
            chunks_skipped: self.chunks_skipped.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of an engine's [`EngineMetrics`] counters, produced
/// by [`Engine::metrics`](crate::Engine::metrics).
///
/// All counters are cumulative since the engine was built. Renders as
/// human-readable text via [`fmt::Display`] and as JSON via
/// [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Number of query executions that completed (collected, finished or
    /// dropped mid-stream) — prepared-statement executions included.
    pub queries_executed: u64,
    /// Total rows delivered to consumers across all executions.
    pub rows_returned: u64,
    /// Number of [`Engine::prepare`](crate::Engine::prepare) calls.
    pub statements_prepared: u64,
    /// Prepare calls answered from the engine's prepared-plan cache.
    pub prepared_cache_hits: u64,
    /// Prepare calls that had to compile (cold or invalidated cache entry).
    pub prepared_cache_misses: u64,
    /// Cumulative wall time spent in the SQL parser, nanoseconds.
    pub parse_ns: u64,
    /// Cumulative wall time spent in the rewrite-law optimizer, nanoseconds.
    pub optimize_ns: u64,
    /// Cumulative wall time spent in the physical planner, nanoseconds.
    pub plan_ns: u64,
    /// Cumulative wall time spent executing queries (cursor open to finish),
    /// nanoseconds.
    pub execute_ns: u64,
    /// Execution-latency histogram: `latency_buckets[i]` executions took at
    /// most [`LATENCY_BUCKET_BOUNDS_NS`]`[i]` nanoseconds (and more than the
    /// previous bound).
    pub latency_buckets: Vec<u64>,
    /// How often each rewrite law fired at compile time, keyed by rule name.
    pub law_applications: BTreeMap<String, u64>,
    /// Executions in which at least one hybrid hash operator spilled to
    /// disk.
    pub queries_spilled: u64,
    /// Total spill partition files created across all executions.
    pub spill_partitions: u64,
    /// Total rows written to spill files (rows rewritten by recursive
    /// re-partitioning count once per level).
    pub spill_rows_written: u64,
    /// Total rows read back from spill files.
    pub spill_rows_read: u64,
    /// Total table chunks (resident segments and attached-file chunks)
    /// skipped via zone maps under pushed-down filters.
    pub chunks_skipped: u64,
}

/// Render `ns` with a human unit (ns/µs/ms/s).
pub(crate) fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Human label of latency bucket `i` (e.g. `"<=1ms"`, `">1s"`).
fn bucket_label(i: usize) -> String {
    let bound = LATENCY_BUCKET_BOUNDS_NS[i];
    if bound == u64::MAX {
        format!(">{}", fmt_ns(LATENCY_BUCKET_BOUNDS_NS[i - 1]))
    } else {
        format!("<={}", fmt_ns(bound))
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Serialize the snapshot as a JSON object (hand-rolled; the workspace
    /// deliberately carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let buckets = self
            .latency_buckets
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let bounds = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let laws = self
            .law_applications
            .iter()
            .map(|(rule, n)| format!("\"{}\": {n}", escape_json(rule)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            concat!(
                "{{\"queries_executed\": {}, \"rows_returned\": {}, ",
                "\"statements_prepared\": {}, \"prepared_cache_hits\": {}, ",
                "\"prepared_cache_misses\": {}, \"parse_ns\": {}, ",
                "\"optimize_ns\": {}, \"plan_ns\": {}, \"execute_ns\": {}, ",
                "\"latency_bucket_bounds_ns\": [{}], \"latency_buckets\": [{}], ",
                "\"queries_spilled\": {}, \"spill_partitions\": {}, ",
                "\"spill_rows_written\": {}, \"spill_rows_read\": {}, ",
                "\"chunks_skipped\": {}, ",
                "\"law_applications\": {{{}}}}}"
            ),
            self.queries_executed,
            self.rows_returned,
            self.statements_prepared,
            self.prepared_cache_hits,
            self.prepared_cache_misses,
            self.parse_ns,
            self.optimize_ns,
            self.plan_ns,
            self.execute_ns,
            bounds,
            buckets,
            self.queries_spilled,
            self.spill_partitions,
            self.spill_rows_written,
            self.spill_rows_read,
            self.chunks_skipped,
            laws,
        )
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "engine metrics:")?;
        writeln!(f, "  queries executed:      {}", self.queries_executed)?;
        writeln!(f, "  rows returned:         {}", self.rows_returned)?;
        writeln!(f, "  statements prepared:   {}", self.statements_prepared)?;
        writeln!(
            f,
            "  prepared cache:        {} hit(s), {} miss(es)",
            self.prepared_cache_hits, self.prepared_cache_misses
        )?;
        writeln!(
            f,
            "  time split:            parse {} | optimize {} | plan {} | execute {}",
            fmt_ns(self.parse_ns),
            fmt_ns(self.optimize_ns),
            fmt_ns(self.plan_ns),
            fmt_ns(self.execute_ns)
        )?;
        writeln!(f, "  execution latency histogram:")?;
        for (i, count) in self.latency_buckets.iter().enumerate() {
            writeln!(f, "    {:>8}: {count}", bucket_label(i))?;
        }
        writeln!(
            f,
            "  out-of-core:           {} spilled quer{}, {} partition(s), \
             {} row(s) written, {} row(s) read, {} chunk(s) skipped",
            self.queries_spilled,
            if self.queries_spilled == 1 {
                "y"
            } else {
                "ies"
            },
            self.spill_partitions,
            self.spill_rows_written,
            self.spill_rows_read,
            self.chunks_skipped
        )?;
        if self.law_applications.is_empty() {
            writeln!(f, "  rewrite laws applied:  none")?;
        } else {
            writeln!(f, "  rewrite laws applied:")?;
            for (rule, n) in &self.law_applications {
                writeln!(f, "    {rule}: {n}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_recording_fills_counters_and_histogram() {
        let metrics = EngineMetrics::default();
        metrics.record_execution(10, Duration::from_micros(50)); // ≤100µs bucket
        metrics.record_execution(5, Duration::from_millis(5)); // ≤10ms bucket
        let snap = metrics.snapshot();
        assert_eq!(snap.queries_executed, 2);
        assert_eq!(snap.rows_returned, 15);
        assert_eq!(snap.latency_buckets[0], 1);
        assert_eq!(snap.latency_buckets[2], 1);
        assert_eq!(snap.latency_buckets.iter().sum::<u64>(), 2);
        assert!(snap.execute_ns >= 5_000_000);
    }

    #[test]
    fn law_applications_accumulate_across_compilations() {
        let mk = |rule: &str| div_rewrite::engine::AppliedRule {
            rule: rule.to_string(),
            reference: "Law".to_string(),
            pass: 1,
            nodes_before: 1,
            nodes_after: 1,
        };
        let metrics = EngineMetrics::default();
        metrics.record_laws(&[mk("law-15"), mk("law-15"), mk("law-14")]);
        metrics.record_laws(&[mk("law-15")]);
        let snap = metrics.snapshot();
        assert_eq!(snap.law_applications.get("law-15"), Some(&3));
        assert_eq!(snap.law_applications.get("law-14"), Some(&1));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let metrics = EngineMetrics::default();
        metrics.record_execution(3, Duration::from_micros(10));
        metrics.record_prepare();
        metrics.record_prepared_cache(false);
        let json = metrics.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"queries_executed\": 1"));
        assert!(json.contains("\"rows_returned\": 3"));
        assert!(json.contains("\"statements_prepared\": 1"));
        assert!(json.contains("\"prepared_cache_misses\": 1"));
        assert!(json.contains("\"latency_buckets\": [1, 0, 0, 0, 0, 0]"));
        assert!(json.contains("\"law_applications\": {}"));
        // Balanced braces/brackets — a cheap well-formedness check that
        // catches concat!-format slips without a JSON parser dependency.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn display_lists_every_section() {
        let metrics = EngineMetrics::default();
        metrics.record_execution(1, Duration::from_secs(2)); // >1s bucket
        let text = metrics.snapshot().to_string();
        assert!(text.contains("queries executed:      1"));
        assert!(text.contains("execution latency histogram:"));
        assert!(text.contains(">1.00s"));
        assert!(text.contains("rewrite laws applied:  none"));
    }
}
