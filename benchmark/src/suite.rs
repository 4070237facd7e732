//! The runner: every workload in a fresh child process (so that peak RSS
//! is per workload), once for the end-to-end metrics and once for the
//! per-layer trace; prints every metric by name with its unit, writes
//! `out/result.json`, and can run the whole set twice to check that the
//! benchmark agrees with itself.

use crate::json;
use crate::metric::{Metric, END_TO_END, EXACT_COUNTS};
use crate::workload::Workload;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

pub struct SuiteOptions {
    /// The benchmark's own directory (`out/` and `results/` live in it).
    pub home: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub check_repeat: bool,
    pub record: bool,
}

/// What one workload printed, both runs merged.
#[derive(Debug, Default)]
struct WorkloadResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    info: Vec<(String, String)>,
    metrics: Vec<Metric>,
    /// Metrics of further end-to-end runs of the same set.
    repeats: Vec<Vec<Metric>>,
}

impl WorkloadResult {
    /// Replace each metric by its median over this run and the repeats
    /// (with the quartiles over them); a single run stays as it is.
    fn take_medians_over_repeats(&mut self) {
        if self.repeats.is_empty() {
            return;
        }
        for metric in &mut self.metrics {
            let values: Vec<f64> = std::iter::once(metric.value)
                .chain(
                    self.repeats
                        .iter()
                        .filter_map(|run| run.iter().find(|m| m.name == metric.name))
                        .map(|m| m.value),
                )
                .collect();
            *metric = Metric::from_samples(&metric.name, metric.unit, &values);
        }
        self.repeats.clear();
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn info(&self, key: &str) -> Option<&str> {
        self.info
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Run one workload process and read its `info` and `metric` lines.
fn run_child(
    opts: &SuiteOptions,
    workload: Workload,
    trace: bool,
    seed: u64,
) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("--home")
        .arg(&opts.home)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(opts.quick.then_some("--quick"))
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "{} (--trace {}) exited with {}: {}",
            workload.name(),
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut result = WorkloadResult::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some(metric) = Metric::parse_line(line) {
            result.metrics.push(metric);
        } else if let Some(rest) = line.strip_prefix("info\t") {
            if let Some((key, value)) = rest.split_once('\t') {
                result.info.push((key.to_string(), value.to_string()));
            }
        }
    }
    let number = |key: &str| -> Result<u64, String> {
        result
            .info(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{} printed no `{key}`", workload.name()))
    };
    (result.attempted, result.failed) = (number("attempted")?, number("failed")?);
    result.correct = result.info("correct") == Some("true");
    Ok(result)
}

/// End-to-end runs per workload in each set of `--check-repeat`: a single
/// 20-second run on a shared host can be off by more than a bound on its
/// own, the median of three rarely is.
const CHECK_REPEAT_RUNS: u64 = 3;

/// One set: every workload, `runs` end-to-end runs (seeds `seed`,
/// `seed + 1`, …; their medians are reported) and then one traced run.
fn run_set(opts: &SuiteOptions, runs: u64) -> Result<Vec<(Workload, WorkloadResult)>, String> {
    let mut set = Vec::new();
    for workload in Workload::ALL {
        eprintln!("running {} ...", workload.name());
        let mut result = run_child(opts, workload, false, opts.seed)?;
        for run in 1..runs {
            let again = run_child(opts, workload, false, opts.seed + run)?;
            result.correct &= again.correct;
            result.attempted += again.attempted;
            result.failed += again.failed;
            result.repeats.push(again.metrics);
        }
        result.take_medians_over_repeats();
        let traced = run_child(opts, workload, true, opts.seed)?;
        result.correct &= traced.correct;
        // The traced run's own (half-length) end-to-end numbers are not
        // the ones reported; keep its per-layer metrics and notes only.
        let seen: Vec<String> = result.metrics.iter().map(|m| m.name.clone()).collect();
        result.metrics.extend(
            traced
                .metrics
                .into_iter()
                .filter(|m| !seen.contains(&m.name)),
        );
        for (key, value) in traced.info {
            if result.info(&key).is_none() {
                result.info.push((key, value));
            }
        }
        set.push((workload, result));
    }
    Ok(set)
}

fn print_set(set: &[(Workload, WorkloadResult)]) {
    for (workload, result) in set {
        println!("\n== {} ==", workload.name());
        for (key, value) in &result.info {
            println!("  {key}: {value}");
        }
        println!(
            "  {:<44} {:>14} {:<8} {:>14} {:>14} {:>7}",
            "metric", "value", "unit", "q1", "q3", "n"
        );
        for m in &result.metrics {
            println!(
                "  {:<44} {:>14.4} {:<8} {:>14.4} {:>14.4} {:>7}",
                m.name, m.value, m.unit, m.q1, m.q3, m.n
            );
        }
    }
}

/// Compare two sets of the same build; returns what disagreed.
fn compare_sets(
    first: &[(Workload, WorkloadResult)],
    second: &[(Workload, WorkloadResult)],
) -> Vec<String> {
    let mut disagreements = Vec::new();
    println!(
        "\n== check-repeat: two sets of the same build, medians of {CHECK_REPEAT_RUNS} runs each =="
    );
    println!(
        "  {:<22} {:<18} {:<7} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "better", "set 1", "set 2", "differ", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(second) {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (a.metric(m.name), b.metric(m.name)) else {
                disagreements.push(format!("{}: {} missing", workload.name(), m.name));
                continue;
            };
            let differ = (y.value - x.value).abs() / x.value.abs().max(f64::MIN_POSITIVE);
            let ok = differ <= m.bound;
            println!(
                "  {:<22} {:<18} {:<7} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%  {}",
                workload.name(),
                m.name,
                m.better,
                x.value,
                y.value,
                differ * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "DIFFERS" }
            );
            if !ok {
                disagreements.push(format!(
                    "{}: {} differs by {:.1}% (bound {:.0}%)",
                    workload.name(),
                    m.name,
                    differ * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        for (set, result) in [(1, a), (2, b)] {
            if result.failed > 0 || !result.correct {
                disagreements.push(format!(
                    "{}: set {set} had {} failed of {} (error_rate bound is 0)",
                    workload.name(),
                    result.failed,
                    result.attempted
                ));
            }
        }
        if workload.single_threaded() {
            for name in EXACT_COUNTS {
                let (x, y) = (
                    a.metric(name).map(|m| m.value),
                    b.metric(name).map(|m| m.value),
                );
                let ok = x.is_some() && x == y;
                println!(
                    "  {:<22} {:<41} {:>12} {:>12}  {}",
                    workload.name(),
                    name,
                    x.map_or("-".into(), json::number),
                    y.map_or("-".into(), json::number),
                    if ok { "exact" } else { "DIFFERS" }
                );
                if !ok {
                    disagreements.push(format!("{}: count {name} did not repeat", workload.name()));
                }
            }
        }
    }
    disagreements
}

fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The result record: host, build, settings and every metric of every
/// workload with its quartiles, as one JSON line.
fn result_record(opts: &SuiteOptions, set: &[(Workload, WorkloadResult)], valid: bool) -> String {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let recorded = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\": 1, \"recorded_at_unix\": {recorded}, \"host\": {{\"nproc\": {}, \
         \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}}}, \"git_rev\": {}, \"seed\": {}, \
         \"run_seconds\": {}, \"quick\": {}, \"valid_for_claims\": {valid}, \"workloads\": {{",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json::string(&cpu_model),
        json::string(&read_trimmed("/proc/sys/kernel/osrelease")),
        json::string(&first_line(Command::new("rustc").arg("-V"))),
        json::string(&first_line(
            Command::new("git")
                .arg("-C")
                .arg(&opts.home)
                .args(["rev-parse", "HEAD"])
        )),
        opts.seed,
        json::number(opts.seconds),
        opts.quick,
    );
    for (w, (workload, result)) in set.iter().enumerate() {
        let number = |key: &str| result.info(key).unwrap_or("0").to_string();
        let _ = write!(
            out,
            "{}{}: {{\"input_rows\": {}, \"input_bytes\": {}, \"timed_samples\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            if w > 0 { ", " } else { "" },
            json::string(workload.name()),
            number("input_rows"),
            number("input_bytes"),
            number("timed_samples"),
            result.correct,
            result.attempted,
            result.failed,
        );
        for (i, m) in result.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                if i > 0 { ", " } else { "" },
                json::string(&m.name),
                json::number(m.value),
                json::string(m.unit),
                json::number(m.q1),
                json::number(m.q3),
                m.n
            );
        }
        out.push_str("}}");
    }
    out.push_str("}}");
    out
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// Run the suite; `Ok(false)` when a check failed.
pub fn run(opts: &SuiteOptions) -> Result<bool, String> {
    let runs = if opts.check_repeat {
        CHECK_REPEAT_RUNS
    } else {
        1
    };
    let first = run_set(opts, runs)?;
    print_set(&first);
    let mut passed = first.iter().all(|(_, r)| r.correct && r.failed == 0);
    let valid = !opts.quick
        && first.iter().all(|(_, r)| {
            r.info("timed_samples")
                .and_then(|v| v.parse::<usize>().ok())
                .is_some_and(|n| n >= crate::stats::MIN_TIMED_SAMPLES)
        });
    if !valid {
        println!(
            "\nINVALID FOR CLAIMS: {}",
            if opts.quick {
                "--quick is a smoke run (small tables, 1 s per workload)"
            } else {
                "a timed run completed fewer than 200 statements"
            }
        );
    }

    let record = result_record(opts, &first, valid);
    let result_path = opts.home.join("out").join("result.json");
    std::fs::write(&result_path, format!("{record}\n"))
        .map_err(|e| format!("write {}: {e}", result_path.display()))?;
    println!("\nresult record: {}", result_path.display());
    if opts.record {
        let history = opts.home.join("results").join("history.jsonl");
        append_line(&history, &record).map_err(|e| format!("append {}: {e}", history.display()))?;
        println!("appended to:   {}", history.display());
    }

    if opts.check_repeat {
        let second = run_set(opts, runs)?;
        let disagreements = compare_sets(&first, &second);
        for d in &disagreements {
            println!("  FAIL {d}");
        }
        passed &= disagreements.is_empty();
        println!(
            "check-repeat: {}",
            if disagreements.is_empty() {
                "the two sets agree within every bound"
            } else {
                "the two sets disagree"
            }
        );
    }
    Ok(passed)
}
