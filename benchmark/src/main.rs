//! `divbench`: the repository's benchmark (see `benchmark/README.md`).
//!
//! With `--workload` it is one workload process and prints the contract's
//! result line last; without, it is the runner of the whole suite.

mod calib;
mod check;
mod embedded;
mod inputs;
mod json;
mod kernels;
mod metric;
mod served;
mod spans;
mod staged;
mod stats;
mod suite;
mod traced;
mod workload;

use metric::{in_contract_order, result_line, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Options, Report, Workload};

/// Seconds one run measures unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
                     [--quick] [--check-repeat] [--record]";

#[derive(Debug)]
struct Cli {
    home: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    check_repeat: bool,
    record: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        home: PathBuf::from("benchmark"),
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        check_repeat: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let flag01 = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("{flag} takes 0 or 1, not `{other}`")),
        };
        match flag.as_str() {
            "--home" => cli.home = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => cli.trace = flag01(value()?)?,
            "--quick" => cli.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            "--record" => cli.record = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn run_workload(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    match opts.workload {
        Workload::ServedAdhoc | Workload::ServedPreparedChurn => served::run(opts),
        Workload::EmbeddedRam | Workload::EmbeddedSpill => embedded::run(opts),
    }
}

fn print_report(opts: &Options, report: &Report) {
    println!("workload\t{}", opts.workload.name());
    for (key, value) in [
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("correct", report.correct.to_string()),
        ("attempted", report.attempted.to_string()),
        ("failed", report.failed.to_string()),
    ] {
        println!("info\t{key}\t{value}");
    }
    for (key, value) in &report.info {
        println!("info\t{key}\t{value}");
    }
    let timed_ok = report.attempted - report.failed >= stats::MIN_TIMED_SAMPLES as u64;
    if opts.quick || (!opts.trace && !timed_ok) {
        println!("info\tvalid_for_claims\tfalse");
    }
    if let Some(p) =
        stats::highest_supported_percentile((report.attempted - report.failed) as usize)
    {
        println!("info\thighest_supported_percentile\t{p}");
    }
    for metric in &report.metrics {
        println!("{}", metric.line());
    }
    let contract: Vec<(&str, &'static str)> = if opts.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    println!(
        "{}",
        result_line(
            report.correct,
            report.attempted.max(1),
            report.failed,
            &in_contract_order(&contract, &report.metrics),
        )
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.workload {
        Some(workload) => {
            let opts = Options {
                workload,
                seed: cli.seed,
                seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
                trace: cli.trace,
                quick: cli.quick,
                out_dir: cli.home.join("out"),
            };
            run_workload(&opts).map(|report| {
                print_report(&opts, &report);
                true
            })
        }
        None => suite::run(&suite::SuiteOptions {
            seconds: cli
                .seconds
                .unwrap_or(if cli.quick { 1.0 } else { DEFAULT_SECONDS }),
            home: cli.home,
            seed: cli.seed,
            quick: cli.quick,
            check_repeat: cli.check_repeat,
            record: cli.record,
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_arguments_parse() {
        let c = cli(&[
            "--workload",
            "embedded_ram",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::EmbeddedRam));
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.quick),
            (7, Some(3.0), true, false)
        );
        let c = cli(&["--quick", "--check-repeat"]).unwrap();
        assert!(c.quick && c.check_repeat && c.workload.is_none());
        assert_eq!(c.seed, inputs::DEFAULT_SEED);
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
    }
}
