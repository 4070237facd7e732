//! Standalone differential fuzz driver.
//!
//! ```text
//! conformance_fuzz [--cases N] [--seed S] [--artifact PATH]
//! ```
//!
//! Flags override the `CONFORMANCE_CASES` / `CONFORMANCE_SEED` /
//! `CONFORMANCE_ARTIFACT` environment variables, which override the
//! defaults (2,000 cases, seed `0xd171de`). Exits non-zero on the first
//! differential mismatch, after shrinking and printing the replay seed.

use div_conformance::fuzzer::{parse_seed, run, FuzzConfig};

fn main() {
    let mut config = FuzzConfig::from_env(2_000);
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--cases" => {
                let value = argv.next().unwrap_or_default();
                match value.trim().parse::<u64>() {
                    Ok(cases) => config.cases = cases,
                    Err(_) => return usage(&format!("bad --cases value: {value}")),
                }
            }
            "--seed" => {
                let value = argv.next().unwrap_or_default();
                match parse_seed(&value) {
                    Some(seed) => config.seed = seed,
                    None => return usage(&format!("bad --seed value: {value}")),
                }
            }
            "--artifact" => match argv.next() {
                Some(path) => config.artifact = Some(path.into()),
                None => return usage("--artifact needs a path"),
            },
            "--help" | "-h" => {
                println!("usage: conformance_fuzz [--cases N] [--seed S] [--artifact PATH]");
                return;
            }
            other => return usage(&format!("unknown flag: {other}")),
        }
    }

    eprintln!(
        "conformance fuzz: {} cases from seed {:#x}",
        config.cases, config.seed
    );
    match run(&config) {
        Ok(report) => {
            println!(
                "ok: {} cases, {} formulations, {} executions compared \
                 ({} great divides, {} empty divisors, {} parameterized)",
                report.cases,
                report.formulations,
                report.executions,
                report.great_divides,
                report.empty_divisors,
                report.parameterized
            );
            println!("per strategy: {}", report.strategy_summary());
        }
        Err(mismatch) => {
            eprintln!("FAIL: {mismatch}");
            std::process::exit(1);
        }
    }
}

fn usage(problem: &str) {
    eprintln!("conformance_fuzz: {problem}");
    eprintln!("usage: conformance_fuzz [--cases N] [--seed S] [--artifact PATH]");
    std::process::exit(2);
}
