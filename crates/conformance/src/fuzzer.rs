//! The seeded differential fuzz loop.
//!
//! Each iteration derives a per-case seed from the base seed, generates a
//! [`CaseSpec`], and runs it through the [`oracle`](crate::oracle). On the
//! first mismatch the failing case is [shrunk](crate::shrink), rendered to a
//! replay artifact (when `CONFORMANCE_ARTIFACT` points at a path) and
//! returned — with the seed printed so CI failures replay locally byte for
//! byte:
//!
//! ```text
//! CONFORMANCE_SEED=0x1234 CONFORMANCE_CASES=1 cargo test -q --test conformance fuzz
//! ```
//!
//! Environment knobs (all optional):
//!
//! | variable               | meaning                              | default |
//! |------------------------|--------------------------------------|---------|
//! | `CONFORMANCE_SEED`     | base seed (decimal or `0x…`)         | 0xd1v1  |
//! | `CONFORMANCE_CASES`    | number of generated cases            | caller's |
//! | `CONFORMANCE_ARTIFACT` | path for the failing-case repro file | none    |

use crate::grammar::CaseSpec;
use crate::oracle::{absorb_all, check_case, Mismatch, Tallies, STRATEGIES};
use crate::shrink::shrink;
use std::path::PathBuf;

/// Default base seed ("divide" in hexspeak).
pub const DEFAULT_SEED: u64 = 0xd1_71de;

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; per-case seeds derive from it deterministically.
    pub seed: u64,
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Where to write the failing-case replay artifact.
    pub artifact: Option<PathBuf>,
}

impl FuzzConfig {
    /// A config with the given case count and the default seed.
    pub fn new(cases: u64) -> Self {
        FuzzConfig {
            seed: DEFAULT_SEED,
            cases,
            artifact: None,
        }
    }

    /// Apply the `CONFORMANCE_SEED` / `CONFORMANCE_CASES` /
    /// `CONFORMANCE_ARTIFACT` environment overrides.
    pub fn from_env(default_cases: u64) -> Self {
        let mut config = FuzzConfig::new(default_cases);
        if let Some(seed) = std::env::var("CONFORMANCE_SEED")
            .ok()
            .and_then(|s| parse_seed(&s))
        {
            config.seed = seed;
        }
        if let Some(cases) = std::env::var("CONFORMANCE_CASES")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
        {
            config.cases = cases;
        }
        if let Ok(path) = std::env::var("CONFORMANCE_ARTIFACT") {
            if !path.trim().is_empty() {
                config.artifact = Some(PathBuf::from(path));
            }
        }
        config
    }
}

/// Parse a seed in decimal or `0x` hexadecimal.
pub fn parse_seed(text: &str) -> Option<u64> {
    let text = text.trim();
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        text.parse::<u64>().ok()
    }
}

/// Summary of a clean fuzz run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: u64,
    /// Formulations checked across all cases.
    pub formulations: usize,
    /// Strategy executions compared across all cases.
    pub executions: usize,
    /// Cases that were great divides.
    pub great_divides: u64,
    /// Cases with an empty (possibly filtered-empty) divisor.
    pub empty_divisors: u64,
    /// Cases carrying a `$param`.
    pub parameterized: u64,
    /// Executed / declined / spilled executions per strategy.
    pub strategies: Tallies,
}

impl FuzzReport {
    /// One `name executed/declined/spilled` entry per strategy — the line
    /// the fuzz drivers print, so a budgeted strategy that declines
    /// everything (or never spills) is visible in the log.
    pub fn strategy_summary(&self) -> String {
        STRATEGIES
            .iter()
            .zip(&self.strategies)
            .map(|(s, t)| {
                format!(
                    "{} {} executed / {} declined / {} spilled",
                    s.name, t.executed, t.declined, t.spilled
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// The per-case seed for case `index` of a run based on `base`. Case 0 uses
/// the base seed itself, so `CONFORMANCE_SEED=<failing seed>` with one case
/// replays a failure directly.
pub fn case_seed(base: u64, index: u64) -> u64 {
    if index == 0 {
        return base;
    }
    // SplitMix64 finalizer over the (base, index) pair.
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run the fuzz loop. On mismatch the failing case is shrunk first; the
/// returned [`Mismatch`] describes the *shrunk* case (same seed).
pub fn run(config: &FuzzConfig) -> Result<FuzzReport, Box<Mismatch>> {
    let mut report = FuzzReport::default();
    for index in 0..config.cases {
        let seed = case_seed(config.seed, index);
        let spec = CaseSpec::generate(seed);
        match check_case(&spec) {
            Ok(case_report) => {
                report.cases += 1;
                report.formulations += case_report.formulations;
                report.executions += case_report.executions;
                absorb_all(&mut report.strategies, &case_report.strategies);
                if spec.is_great() {
                    report.great_divides += 1;
                }
                if spec.divisor_count() == 0 {
                    report.empty_divisors += 1;
                }
                if spec
                    .divisor_filter
                    .as_ref()
                    .is_some_and(|f| f.param.is_some())
                {
                    report.parameterized += 1;
                }
            }
            Err(first) => {
                let shrunk = shrink(&spec, |candidate| check_case(candidate).is_err());
                let mismatch = match check_case(&shrunk) {
                    Err(m) => m,
                    Ok(_) => first, // shrink budget raced past the failure
                };
                eprintln!("{mismatch}");
                eprintln!(
                    "replay: CONFORMANCE_SEED={seed:#x} CONFORMANCE_CASES=1 \
                     cargo test -q --test conformance fuzz"
                );
                if let Some(path) = &config.artifact {
                    let body = format!(
                        "{mismatch}\nbase seed: {:#x}\ncase index: {index}\ncase seed: {seed:#x}\n",
                        config.seed
                    );
                    if let Err(e) = std::fs::write(path, body) {
                        eprintln!("could not write artifact {}: {e}", path.display());
                    } else {
                        eprintln!("failing-case artifact: {}", path.display());
                    }
                }
                return Err(mismatch);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_zero_replays_the_base_seed() {
        assert_eq!(case_seed(0xabcd, 0), 0xabcd);
        assert_ne!(case_seed(0xabcd, 1), case_seed(0xabcd, 2));
        assert_ne!(case_seed(0xabcd, 1), case_seed(0xabce, 1));
    }

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2a"), Some(42));
        assert_eq!(parse_seed(" 0X2A "), Some(42));
        assert_eq!(parse_seed("nope"), None);
    }

    #[test]
    fn a_short_run_is_clean_and_covers_the_space() {
        let report = run(&FuzzConfig::new(60)).unwrap_or_else(|m| panic!("{m}"));
        assert_eq!(report.cases, 60);
        assert!(
            report.great_divides > 5,
            "great divides: {}",
            report.great_divides
        );
        // Every unbudgeted strategy answers every formulation, at least one
        // formulation per case.
        let unbudgeted = STRATEGIES.iter().filter(|s| s.budget.is_none()).count();
        assert!(report.executions > unbudgeted * 60);
        let summary = report.strategy_summary();
        for (strategy, tally) in STRATEGIES.iter().zip(&report.strategies) {
            if strategy.attached {
                // Attached tables answer every formulation registered ones
                // answer, declining only under a budget.
                assert_eq!(
                    tally.executed + tally.declined,
                    report.formulations,
                    "{summary}"
                );
            }
            if strategy.budget.is_some() {
                // A budgeted strategy must do all three: answer in memory,
                // answer after spilling, and decline.
                assert!(tally.spilled > 0, "{summary}");
                assert!(tally.executed > tally.spilled, "{summary}");
                assert!(tally.declined > 0, "{summary}");
            } else {
                assert_eq!(tally.declined, 0, "{summary}");
            }
        }
    }
}
