//! The traced pass: after the timed run, every workload replays passes of
//! its rotation stage by stage ([`crate::staged`]) and, interleaved with
//! that, through an untraced and a tracing `Engine` in-process, so that
//! the layer timings, their reconciliation with the untraced statement
//! and the cost of tracing itself are measured under the same conditions.

use crate::inputs::{Scale, Source, Statement, Tables};
use crate::kernels;
use crate::metric::Metric;
use crate::spans::Recorder;
use crate::staged::{self, RewriteCounts, OPERATOR_KINDS};
use crate::stats;
use crate::workload::{Options, Report};
use div_columnar::ColumnarBatch;
use div_expr::Catalog;
use div_physical::{PhysicalPlan, PlannerConfig};
use div_rewrite::Optimizer;
use div_server::Client;
use div_sql::{Engine, Params, PreparedStatement};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Passes of the rotation a full traced pass replays.
pub const FULL_PASSES: usize = 20;

pub struct TraceInput<'a> {
    pub statements: &'a [Statement],
    /// Order in which a pass visits the statements.
    pub order: &'a [usize],
    /// Row count + checksum check of statement `i`'s result.
    pub check: &'a dyn Fn(usize, &[ColumnarBatch]) -> bool,
    /// The request line each statement arrives as (served workloads).
    pub wire_lines: Option<Vec<String>>,
    /// Statements run prepared: one statement per pass finds the plan
    /// stale (as after a catalog write) and compiles, the rest reuse it.
    pub prepared: bool,
    pub catalog: Catalog,
    /// The workload's planner configuration (tracing off).
    pub config: PlannerConfig,
    /// A connection to the workload's server, for `client.roundtrip`.
    pub client: Option<&'a mut Client>,
    pub budget: Duration,
    pub max_passes: usize,
}

pub struct TraceOutput {
    pub metrics: Vec<Metric>,
    pub recorder: Recorder,
    pub passes: usize,
    /// Checks that failed, by description.
    pub failures: Vec<String>,
    /// The per-pass counts were the same on every pass.
    pub counts_repeat: bool,
}

/// Counts of one pass of the rotation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PassCounts {
    rewrite: RewriteCounts,
    rows_scanned: usize,
    peak_resident_rows: usize,
    spill_partitions: usize,
    spill_rows_written: usize,
    spill_rows_read: usize,
    chunks_skipped: usize,
}

fn bindings(statement: &Statement) -> Params {
    statement
        .params
        .iter()
        .fold(Params::new(), |p, (k, v)| p.bind(*k, v.clone()))
}

/// Run `statement` through `engine` and drain the cursor.
pub fn run_in_process(
    engine: &Engine,
    statement: &Statement,
    prepared: Option<&PreparedStatement>,
) -> Result<Vec<ColumnarBatch>, String> {
    let cursor = match (&statement.source, prepared) {
        (_, Some(prepared)) => prepared.execute(engine, &bindings(statement)),
        (Source::Sql(text), None) => engine.query(text),
        (Source::Plan(plan), None) => engine.stream_logical(plan),
    }
    .map_err(|e| e.to_string())?;
    // (`Cursor::collect` is its own method; this is the iterator's.)
    Iterator::collect::<Result<Vec<_>, _>>(cursor).map_err(|e| e.to_string())
}

/// Fold a finished traced pass into the workload's report: its metrics,
/// the kernel measurements over the same tables, and the trace file.
pub fn report_trace(
    opts: &Options,
    report: &mut Report,
    traced: TraceOutput,
    tables: &Tables,
    scale: Scale,
) -> Result<(), String> {
    report.correct &= traced.failures.is_empty();
    for failure in &traced.failures {
        report.info("check_failed", failure);
    }
    report.info("traced_passes", traced.passes);
    report.info("counts_repeat_across_passes", traced.counts_repeat);
    report.metrics.extend(traced.metrics);
    report
        .metrics
        .extend(kernels::columnar_metrics(tables, opts.kernel_reps())?);
    report.metrics.extend(kernels::storage_metrics(
        tables,
        scale,
        &opts.out_dir,
        opts.kernel_reps(),
    )?);
    let path = opts
        .out_dir
        .join(format!("{}.trace.json", opts.workload.name()));
    traced
        .recorder
        .write_json(&path, opts.workload.name(), opts.seed)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.info("trace_file", path.display());
    Ok(())
}

fn prepare_all(
    engine: &Engine,
    statements: &[Statement],
    prepared: bool,
) -> Result<Vec<Option<PreparedStatement>>, String> {
    statements
        .iter()
        .map(|s| match s.sql_text() {
            Some(sql) if prepared => engine.prepare(sql).map(Some).map_err(|e| e.to_string()),
            _ => Ok(None),
        })
        .collect()
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

pub fn traced_pass(mut input: TraceInput<'_>) -> Result<TraceOutput, String> {
    let n = input.statements.len();
    let engine_over = |config: PlannerConfig| {
        Engine::builder(input.catalog.clone())
            .planner_config(config)
            .build()
    };
    let untraced = engine_over(input.config);
    let tracing = engine_over(input.config.tracing(true));
    let untraced_prepared = prepare_all(&untraced, input.statements, input.prepared)?;
    let tracing_prepared = prepare_all(&tracing, input.statements, input.prepared)?;
    let optimizer = Optimizer::new();
    let staged_config = input.config.tracing(true);

    let mut rec = Recorder::new();
    let mut failures = Vec::new();
    // Per statement, one entry per pass (ms).
    let mut in_process = vec![Vec::new(); n];
    let mut with_tracing = vec![Vec::new(); n];
    let mut staged_engine = vec![Vec::new(); n];
    let mut round_trip = vec![Vec::new(); n];
    let (mut prepare_us, mut execute_open_us, mut first_batch_us) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut op_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut counts: Vec<PassCounts> = Vec::new();

    let started = Instant::now();
    let mut statement_id = 0u32;
    let mut cached: Option<PhysicalPlan> = None;
    while counts.len() < input.max_passes && (counts.is_empty() || started.elapsed() < input.budget)
    {
        let mut pass = PassCounts::default();
        let mut pass_ops: BTreeMap<&str, u64> = BTreeMap::new();
        // A prepared workload compiles once and then reuses the plan; one
        // statement per pass (a different one each pass) finds it stale,
        // as after a catalog write, and compiles again.
        let stale_slot = counts.len() % n;
        for (slot, &i) in input.order.iter().enumerate() {
            if slot == stale_slot || !input.prepared {
                cached = None;
            }
            let statement = &input.statements[i];
            let mut check = |what: &str, batches: &[ColumnarBatch]| {
                if !(input.check)(i, batches) {
                    failures.push(format!(
                        "{what}: statement {i} ({}) returned a wrong result",
                        statement.class
                    ));
                }
            };

            // The three in-process variants take turns going first, so
            // that none of them always runs on the coldest cache.
            for turn in 0..3 {
                match (turn + counts.len()) % 3 {
                    0 => {
                        let t0 = Instant::now();
                        let batches =
                            run_in_process(&untraced, statement, untraced_prepared[i].as_ref())?;
                        in_process[i].push(ms(t0.elapsed().as_nanos()));
                        check("untraced engine", &batches);
                    }
                    1 => {
                        let t0 = Instant::now();
                        let batches =
                            run_in_process(&tracing, statement, tracing_prepared[i].as_ref())?;
                        with_tracing[i].push(ms(t0.elapsed().as_nanos()));
                        check("tracing engine", &batches);
                    }
                    _ => {
                        let line = input.wire_lines.as_ref().map(|lines| lines[i].as_str());
                        let staged = staged::replay(
                            &mut rec,
                            statement_id,
                            statement,
                            line,
                            cached.as_ref(),
                            &input.catalog,
                            &staged_config,
                            &optimizer,
                        )?;
                        check("staged replay", &staged.batches);
                        let server_ns: u64 = rec.spans()[staged.request..]
                            .iter()
                            .filter(|s| {
                                s.parent == Some(staged.request) && s.name.starts_with("server.")
                            })
                            .map(|s| s.duration_ns())
                            .sum();
                        // The untraced engine never recompiles a prepared
                        // statement: compare like with like.
                        if staged.compiled.is_none() || !input.prepared {
                            let request_ns = rec.span(staged.request).duration_ns();
                            staged_engine[i].push(ms(u128::from(request_ns - server_ns)));
                        }
                        first_batch_us.push(staged.first_batch_ns as f64 / 1e3);
                        for (kind, time) in staged::operator_self_times(&staged.stats.operators) {
                            *pass_ops.entry(kind).or_default() += time.open_ns + time.pull_ns;
                        }
                        if let Some((plan, rewrite)) = staged.compiled {
                            pass.rewrite.laws_fired += rewrite.laws_fired;
                            pass.rewrite.alternatives_considered += rewrite.alternatives_considered;
                            pass.rewrite.original_cost += rewrite.original_cost;
                            pass.rewrite.cost += rewrite.cost;
                            cached = Some(plan);
                        }
                        let stats = &staged.stats;
                        pass.rows_scanned += stats.rows_scanned;
                        pass.peak_resident_rows =
                            pass.peak_resident_rows.max(stats.peak_resident_rows);
                        pass.spill_partitions += stats.spill_partitions;
                        pass.spill_rows_written += stats.spill_rows_written;
                        pass.spill_rows_read += stats.spill_rows_read;
                        pass.chunks_skipped += stats.chunks_skipped;
                    }
                }
            }

            if let (Some(client), Some(sql)) = (input.client.as_deref_mut(), statement.sql_text()) {
                let span = rec.start("client.roundtrip", None, statement_id);
                let result = if input.prepared {
                    client.execute(crate::served::PREPARED_NAME, &statement.params)
                } else {
                    client.query(sql)
                };
                rec.end(span);
                round_trip[i].push(ms(u128::from(rec.span(span).duration_ns())));
                if let Err(err) = result {
                    failures.push(format!("client.roundtrip: statement {i}: {err}"));
                }
            }

            if let Some(sql) = statement.sql_text() {
                // A fresh engine has an empty plan cache: a cold prepare.
                let cold = engine_over(input.config);
                let t0 = Instant::now();
                let prepared = cold.prepare(sql).map_err(|e| e.to_string())?;
                prepare_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                let params = statement
                    .params
                    .iter()
                    .fold(Params::new(), |p, (k, v)| p.bind(*k, v.clone()));
                let t0 = Instant::now();
                let cursor = prepared
                    .execute(&cold, &params)
                    .map_err(|e| e.to_string())?;
                execute_open_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                drop(cursor);
            }
            statement_id += 1;
        }
        for kind in OPERATOR_KINDS {
            op_ms
                .entry(kind)
                .or_default()
                .push(ms(u128::from(pass_ops.get(kind).copied().unwrap_or(0))));
        }
        counts.push(pass);
    }

    let mut metrics = Vec::new();
    let span_us = |name: &str| -> Vec<f64> {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    };
    for name in [
        "server.parse_request",
        "server.encode_rows",
        "sql.parse",
        "sql.lower",
        "rewrite.optimize",
        "physical.plan",
        "physical.open",
        "physical.drain",
    ] {
        let samples = span_us(name);
        if !samples.is_empty() {
            metrics.push(Metric::from_samples(&format!("{name}.us"), "us", &samples));
        }
    }
    metrics.push(Metric::from_samples(
        "physical.first_batch.us",
        "us",
        &first_batch_us,
    ));
    if !prepare_us.is_empty() {
        metrics.push(Metric::from_samples("sql.prepare.us", "us", &prepare_us));
        metrics.push(Metric::from_samples(
            "sql.bind_execute_open.us",
            "us",
            &execute_open_us,
        ));
    }
    for kind in OPERATOR_KINDS {
        metrics.push(Metric::from_samples(
            &format!("physical.op.{kind}.self_ms"),
            "ms",
            &op_ms[kind],
        ));
    }

    let first = counts[0];
    let count = |name: &str, v: usize| Metric::scalar(name, "count", v as f64);
    metrics.extend([
        count("rewrite.laws_fired", first.rewrite.laws_fired),
        count(
            "rewrite.alternatives_considered",
            first.rewrite.alternatives_considered,
        ),
        Metric::scalar(
            "rewrite.cost_ratio",
            "ratio",
            first.rewrite.original_cost / first.rewrite.cost,
        ),
        count("physical.rows_scanned", first.rows_scanned),
        count("physical.peak_resident_rows", first.peak_resident_rows),
        count("physical.spill_partitions", first.spill_partitions),
        count("physical.spill_rows_written", first.spill_rows_written),
        count("physical.spill_rows_read", first.spill_rows_read),
        count("physical.chunks_skipped", first.chunks_skipped),
    ]);

    // Medians per statement, summed over the rotation: time-weighted, as
    // throughput is.
    let pass_ms = |per_statement: &[Vec<f64>]| -> f64 {
        per_statement.iter().map(|v| stats::median(v)).sum()
    };
    let untraced_ms = pass_ms(&in_process);
    metrics.push(Metric::scalar(
        "trace.reconcile_ratio",
        "ratio",
        pass_ms(&staged_engine) / untraced_ms,
    ));
    metrics.push(Metric::scalar(
        "trace.overhead_ratio",
        "ratio",
        pass_ms(&with_tracing) / untraced_ms,
    ));
    if input.client.is_some() {
        let overhead_us: Vec<f64> = (0..n)
            .map(|i| (stats::median(&round_trip[i]) - stats::median(&in_process[i])) * 1e3)
            .collect();
        metrics.push(Metric::from_samples(
            "server.wire_overhead.us",
            "us",
            &overhead_us,
        ));
    }

    let requests: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.duration_ns())
        .sum();
    let share = |pick: &dyn Fn(&str) -> bool| -> f64 {
        let picked: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.parent.is_some_and(|p| rec.span(p).name == "request") && pick(&s.name))
            .map(|s| s.duration_ns())
            .sum();
        picked as f64 / requests.max(1) as f64
    };
    metrics.push(Metric::scalar(
        "trace.front_end_share",
        "fraction",
        share(&staged::is_front_end),
    ));
    metrics.push(Metric::scalar(
        "trace.execution_share",
        "fraction",
        share(&|name| name == "physical.open" || name == "physical.drain"),
    ));

    Ok(TraceOutput {
        metrics,
        passes: counts.len(),
        counts_repeat: counts.iter().all(|c| *c == first),
        failures,
        recorder: rec,
    })
}
