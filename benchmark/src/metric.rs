//! Metric names, units and the line formats the workload processes print.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use crate::json;
use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// The reported number: a median for timings, the number itself for
    /// counts and ratios.
    pub value: f64,
    /// Quartiles of the samples behind `value` (both equal `value` when
    /// there is a single number).
    pub q1: f64,
    pub q3: f64,
    /// Samples behind `value`.
    pub n: usize,
}

impl Metric {
    /// Median and quartiles of `samples`.
    pub fn from_samples(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, q3) = stats::quartiles(samples);
        Metric {
            name: name.to_string(),
            unit,
            value: stats::median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    pub fn scalar(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// `value` reported next to quartiles taken elsewhere (a pooled
    /// percentile next to the per-window percentiles, say).
    pub fn with_quartiles(mut self, samples: &[f64], n: usize) -> Metric {
        (self.q1, self.q3) = stats::quartiles(samples);
        self.n = n;
        self
    }

    /// The tab-separated line a workload process prints per metric (and
    /// the suite reads back).
    pub fn line(&self) -> String {
        format!(
            "metric\t{}\t{}\t{}\t{}\t{}\t{}",
            self.name,
            json::number(self.value),
            self.unit,
            json::number(self.q1),
            json::number(self.q3),
            self.n
        )
    }

    pub fn parse_line(line: &str) -> Option<Metric> {
        let mut fields = line.split('\t');
        if fields.next()? != "metric" {
            return None;
        }
        let name = fields.next()?.to_string();
        let value = fields.next()?.parse().ok()?;
        let unit = unit_of(&name, fields.next()?)?;
        Some(Metric {
            name,
            unit,
            value,
            q1: fields.next()?.parse().ok()?,
            q3: fields.next()?.parse().ok()?,
            n: fields.next()?.parse().ok()?,
        })
    }
}

/// The `'static` unit of a known metric (checked against the printed one).
fn unit_of(name: &str, printed: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain([("error_rate", "fraction")])
        .chain(PER_LAYER.iter().copied())
        .find(|(n, u)| *n == name && *u == printed)
        .map(|(_, u)| u)
}

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the earlier median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
/// `error_rate` travels beside them as `failed / attempted` (its bound is
/// zero, absolute). The timing bounds are the widest the contract allows:
/// ten runs on the development host spread by 4–12 % of their median even
/// at reference speed, and a bound should be about three spreads.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
];

/// The per-layer metrics every workload reports with `--trace 1`, prefixed
/// by the crate they measure. A metric that does not apply to a workload
/// (`server.*` on an embedded one) reads 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("server.parse_request.us", "us"),
    ("server.encode_rows.us", "us"),
    ("server.wire_overhead.us", "us"),
    ("server.mutate.p50_ms", "ms"),
    ("server.requests_served", "count"),
    ("server.requests_failed", "count"),
    ("server.stale_replans", "count"),
    ("server.connections_rejected", "count"),
    ("sql.parse.us", "us"),
    ("sql.lower.us", "us"),
    ("sql.prepare.us", "us"),
    ("sql.bind_execute_open.us", "us"),
    ("sql.compiles_per_statement", "ratio"),
    ("sql.prepared_cache_hit_rate", "fraction"),
    ("sql.engine.great_divide.p50_ms", "ms"),
    ("sql.engine.small_divide.p50_ms", "ms"),
    ("sql.engine.not_exists.p50_ms", "ms"),
    ("sql.engine.join.p50_ms", "ms"),
    ("sql.engine.aggregate.p50_ms", "ms"),
    ("sql.engine.filter_scan.p50_ms", "ms"),
    ("rewrite.optimize.us", "us"),
    ("rewrite.laws_fired", "count"),
    ("rewrite.alternatives_considered", "count"),
    ("rewrite.cost_ratio", "ratio"),
    ("physical.plan.us", "us"),
    ("physical.open.us", "us"),
    ("physical.first_batch.us", "us"),
    ("physical.drain.us", "us"),
    ("physical.op.scan.self_ms", "ms"),
    ("physical.op.filter.self_ms", "ms"),
    ("physical.op.project.self_ms", "ms"),
    ("physical.op.join.self_ms", "ms"),
    ("physical.op.divide.self_ms", "ms"),
    ("physical.op.great_divide.self_ms", "ms"),
    ("physical.op.aggregate.self_ms", "ms"),
    ("physical.op.other.self_ms", "ms"),
    ("physical.rows_scanned", "count"),
    ("physical.peak_resident_rows", "count"),
    ("physical.spill_partitions", "count"),
    ("physical.spill_rows_written", "count"),
    ("physical.spill_rows_read", "count"),
    ("physical.chunks_skipped", "count"),
    ("columnar.from_relation.ns_per_row", "ns/row"),
    ("columnar.key_vector.ns_per_row", "ns/row"),
    ("columnar.hash_divide.ns_per_row", "ns/row"),
    ("columnar.hash_great_divide.ns_per_row", "ns/row"),
    ("columnar.hash_natural_join.ns_per_row", "ns/row"),
    ("columnar.hash_aggregate.ns_per_row", "ns/row"),
    ("storage.write.ns_per_row", "ns/row"),
    ("storage.bytes_per_row", "B/row"),
    ("storage.scan_full.ns_per_row", "ns/row"),
    ("storage.scan_zonemap.chunks_skipped_frac", "fraction"),
    ("storage.spill_roundtrip.ns_per_row", "ns/row"),
    ("trace.reconcile_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.front_end_share", "fraction"),
    ("trace.execution_share", "fraction"),
    ("raw.setup_s", "s"),
    ("raw.throughput_qps", "1/s"),
    ("raw.latency_p50_ms", "ms"),
    ("raw.latency_p95_ms", "ms"),
    ("host.speed_factor", "ratio"),
];

/// Per-layer counts that must repeat exactly from run to run on the
/// single-threaded (`embedded_*`) workloads.
pub const EXACT_COUNTS: [&str; 9] = [
    "rewrite.laws_fired",
    "rewrite.alternatives_considered",
    "physical.rows_scanned",
    "physical.peak_resident_rows",
    "physical.spill_partitions",
    "physical.spill_rows_written",
    "physical.spill_rows_read",
    "physical.chunks_skipped",
    "storage.scan_zonemap.chunks_skipped_frac",
];

/// The contract's result line: the last line a workload process prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// `reported` reordered to `names`, with 0 for a metric that does not
/// apply to the workload.
pub fn in_contract_order(names: &[(&str, &'static str)], reported: &[Metric]) -> Vec<Metric> {
    names
        .iter()
        .map(|(name, unit)| {
            reported
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .unwrap_or_else(|| Metric::scalar(name, unit, 0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::from_samples("latency_p50_ms", "ms", &[1.5, 0.25, 2.0, 4.0]);
        assert_eq!(Metric::parse_line(&m.line()), Some(m));
        assert_eq!(
            Metric::parse_line("metric\tnot_a_metric\t1\tms\t1\t1\t1"),
            None
        );
        assert_eq!(Metric::parse_line("info\tattempted\t3"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 12, 0, &[Metric::scalar("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` names every workload and metric this package
    /// prints, each once, with the same unit and bound.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut names = 0;
        for workload in crate::workload::Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
            names += 1;
        }
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(text.contains(&entry), "missing {entry}");
            names += 1;
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(text.contains(&entry), "missing {entry}");
            names += 1;
        }
        assert_eq!(text.matches("\"name\": ").count(), names);
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name));
        }
    }
}
