//! The conformance suite: golden corpus, differential fuzz smoke, and
//! engine-metrics reconciliation under generated workloads.
//!
//! The golden corpus is the checked-in `tests/golden/*.slt` files and
//! nothing else; `div_conformance::golden` documents the format and how
//! to add a case.
//!
//! Environment knobs (see `crates/conformance`):
//!
//! * `CONFORMANCE_SEED` — base fuzz seed (decimal or `0x…`); a failing run
//!   prints the exact value to replay.
//! * `CONFORMANCE_CASES` — fuzz case count (default here: 300; CI's smoke
//!   job and `scripts/fuzz_smoke.sh` run far more).
//! * `CONFORMANCE_ARTIFACT` — where to write the failing-case repro file.
//! * `CONFORMANCE_BLESS=1` — re-record the golden `expect` blocks in place
//!   (the one way to record them: `CONFORMANCE_BLESS=1 cargo test -q
//!   --test conformance golden_suite_passes_and_covers_all_laws`).

use div_conformance::fuzzer::{run, FuzzConfig};
use div_conformance::golden::{self, parse_file, render_file};
use div_conformance::grammar::CaseSpec;
use div_conformance::laws;
use div_conformance::oracle::{absorb_all, StrategyTally, Tallies, STRATEGIES};
use div_rewrite::RuleSet;
use div_sql::{Cursor, Engine, Params, Request};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// What each budgeted strategy does over the golden corpus's 109 cases:
/// answers in memory, answers after spilling, or declines. A changed spill
/// decision on a recorded case fails here, as `tests/out_of_core.rs` pins
/// the spill counters of its own shapes.
const GOLDEN_BUDGETED_TALLY: StrategyTally = StrategyTally {
    executed: 98,
    declined: 11,
    spilled: 33,
};

/// Every checked-in golden file parses, replays under every strategy of the
/// oracle's table, and matches its recorded expectations; the corpus holds
/// at least 100 cases and covers all 17 laws, every unbudgeted strategy
/// answers every case, and each budgeted one reads
/// [`GOLDEN_BUDGETED_TALLY`].
#[test]
fn golden_suite_passes_and_covers_all_laws() {
    let files = golden::golden_files(&golden_dir());
    assert!(
        files.len() >= 6,
        "expected the full golden corpus under tests/golden/, found {} files",
        files.len()
    );
    let mut cases = 0;
    let mut laws_covered = BTreeSet::new();
    let mut tallies = Tallies::default();
    for path in files {
        let report = golden::run_file(&path).unwrap_or_else(|e| panic!("{e}"));
        cases += report.cases;
        laws_covered.extend(report.laws);
        absorb_all(&mut tallies, &report.strategies);
    }
    for (strategy, tally) in STRATEGIES.iter().zip(&tallies) {
        eprintln!(
            "golden {}: {} executed / {} declined / {} spilled",
            strategy.name, tally.executed, tally.declined, tally.spilled
        );
    }
    for (strategy, tally) in STRATEGIES.iter().zip(&tallies) {
        let expected = match strategy.budget {
            Some(_) => GOLDEN_BUDGETED_TALLY,
            None => StrategyTally {
                executed: cases,
                ..StrategyTally::default()
            },
        };
        assert_eq!(*tally, expected, "{}", strategy.name);
    }
    assert!(cases >= 100, "golden corpus has only {cases} cases");
    for law in 1..=17u8 {
        assert!(
            laws_covered.contains(&law),
            "law {law} is not covered by any golden case"
        );
    }
}

/// Every law-registry shape has exactly one golden case in `laws.slt`,
/// `plan <key>`, annotated `law <n>` exactly when the shape is the paper's
/// law `n`: a shape added to [`laws::law_cases`] without a recorded case
/// fails here.
#[test]
fn every_law_registry_shape_has_one_golden_case() {
    let path = golden_dir().join("laws.slt");
    let text = std::fs::read_to_string(&path).unwrap();
    let file = parse_file("laws.slt", &text).unwrap_or_else(|e| panic!("{e}"));
    for law in laws::law_cases() {
        let cases: Vec<_> = file
            .cases
            .iter()
            .filter(|c| c.plan_key.as_deref() == Some(law.key))
            .collect();
        assert_eq!(cases.len(), 1, "laws.slt: cases with `plan {}`", law.key);
        let annotated: Vec<u8> = law.law_number.into_iter().collect();
        assert_eq!(cases[0].laws, annotated, "laws.slt: `law` of {}", law.key);
    }
}

/// The law registry and the optimizer's default rule set name the same
/// rules: a rule added without a registry shape (and so without a golden
/// case that makes it fire) fails here, as does a shape for a rule that is
/// gone.
#[test]
fn the_law_registry_covers_exactly_the_default_rules() {
    let cases = laws::law_cases();
    let registry: BTreeSet<&str> = cases.iter().map(|law| law.rule).collect();
    assert_eq!(registry.len(), cases.len(), "one shape per rule");
    let rules = RuleSet::default_rules();
    let default_rules: BTreeSet<&str> = rules.rules().map(|rule| rule.name()).collect();
    assert_eq!(registry, default_rules);
}

/// Golden files are a rendering fixpoint: parse → render reproduces the
/// exact on-disk bytes, so hand edits that would be lost by a bless run
/// are caught here.
#[test]
fn golden_files_are_canonically_rendered() {
    for path in golden::golden_files(&golden_dir()) {
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_file(&name, &text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            render_file(&parsed),
            text,
            "{name}: not in canonical rendering (run a CONFORMANCE_BLESS=1 pass)"
        );
    }
}

/// Differential fuzz smoke: generated division queries agree across every
/// formulation and execution strategy. Scale with `CONFORMANCE_CASES`.
#[test]
fn fuzz_differential_smoke() {
    let config = FuzzConfig::from_env(300);
    let report = run(&config)
        .unwrap_or_else(|m| panic!("differential mismatch (replay with CONFORMANCE_SEED):\n{m}"));
    eprintln!(
        "fuzz smoke: {} cases, {} formulations, {} executions, \
         {} great divides, {} empty divisors, {} parameterized",
        report.cases,
        report.formulations,
        report.executions,
        report.great_divides,
        report.empty_divisors,
        report.parameterized
    );
    eprintln!("per strategy: {}", report.strategy_summary());
    assert_eq!(report.cases, config.cases);
    // The grammar must keep exercising the interesting corners.
    if config.cases >= 300 {
        assert!(report.great_divides > 0, "no great divides generated");
        assert!(report.empty_divisors > 0, "no empty divisors generated");
        assert!(report.parameterized > 0, "no parameterized cases generated");
    }
}

/// The engine's metrics registry reconciles with what the caller consumed,
/// through every source a [`Request`] can name — SQL, SQL with bindings, a
/// prepared statement, a logical plan, `run_fresh` of a stale statement and
/// `explain_analyze` — each consumed collected, iterated and dropped after
/// its first batch. Per mode the deltas of executions, returned rows,
/// explicit prepares, plan-cache hits / misses and compilations are pinned.
#[test]
fn engine_metrics_reconcile_under_generated_workloads() {
    #[derive(Debug, PartialEq)]
    struct Counts {
        executed: u64,
        rows: u64,
        prepared: u64,
        hits: u64,
        misses: u64,
        compiles: u64,
    }
    fn counts(engine: &Engine) -> Counts {
        let m = engine.metrics();
        Counts {
            executed: m.queries_executed,
            rows: m.rows_returned,
            prepared: m.statements_prepared,
            hits: m.prepared_cache_hits,
            misses: m.prepared_cache_misses,
            compiles: engine.compile_count(),
        }
    }
    /// Consume `cursor` the `way`-th way; the rows the caller saw.
    fn consume(cursor: Cursor, way: usize) -> u64 {
        match way {
            0 => {
                let output = cursor.collect().expect("collect");
                assert_eq!(output.stats.output_rows, output.relation.len());
                output.relation.len() as u64
            }
            1 => cursor.map(|batch| batch.unwrap().num_rows() as u64).sum(),
            _ => {
                let mut cursor = cursor;
                cursor
                    .next()
                    .map_or(0, |batch| batch.unwrap().num_rows() as u64)
            }
        }
    }

    // The first generated spec whose divisor filter is a `$parameter`.
    let spec = (0x5eed..)
        .map(CaseSpec::generate)
        .find(|spec| {
            spec.divisor_filter
                .as_ref()
                .is_some_and(|f| f.param.is_some())
        })
        .expect("a parameterized spec");
    let filter = spec.divisor_filter.clone().unwrap();
    let params = Params::new().bind(filter.param.unwrap(), filter.value);
    let engine = Engine::new(spec.catalog());
    let adhoc_sql = spec.divide_by_sql(false);
    let sql = spec.divide_by_sql(true);
    assert_ne!(adhoc_sql, sql);
    let query = div_sql::parse_query(&adhoc_sql).unwrap();
    let plan = div_sql::translate_query(&query, &engine.catalog()).unwrap();

    let check = |mode: &str, run: &mut dyn FnMut(usize) -> u64, expected: Counts| {
        let before = counts(&engine);
        let rows = (0..3).map(&mut *run).sum::<u64>();
        let after = counts(&engine);
        let delta = Counts {
            executed: after.executed - before.executed,
            rows: after.rows - before.rows,
            prepared: after.prepared - before.prepared,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            compiles: after.compiles - before.compiles,
        };
        assert_eq!(delta, Counts { rows, ..expected }, "mode {mode}");
    };
    let counted = |executed, prepared, hits, misses, compiles| Counts {
        executed,
        rows: 0,
        prepared,
        hits,
        misses,
        compiles,
    };

    // Ad-hoc SQL: one miss compiles the text, the rest are cache hits.
    check(
        "sql",
        &mut |way| consume(engine.run(adhoc_sql.as_str()).unwrap(), way),
        counted(3, 0, 2, 1, 1),
    );
    // Bound SQL compiles every time and never touches the cache.
    check(
        "sql+params",
        &mut |way| {
            let request = Request::sql(&sql).params(params.clone());
            consume(engine.run(request).unwrap(), way)
        },
        counted(3, 0, 0, 0, 3),
    );
    // One explicit prepare (a miss that compiles); executions compile nothing.
    let stmt = engine.prepare(&sql).unwrap();
    check(
        "prepared",
        &mut |way| {
            let request = Request::prepared(&stmt).params(params.clone());
            consume(engine.run(request).unwrap(), way)
        },
        counted(3, 0, 0, 0, 0),
    );
    assert_eq!(counts(&engine).prepared, 1);
    // A plan compiles (optimizes) on every run.
    check(
        "plan",
        &mut |way| consume(engine.run(Request::plan(&plan)).unwrap(), way),
        counted(3, 0, 0, 0, 3),
    );
    // After a mutation the statement is stale: `run` refuses it untouched,
    // `run_fresh` re-plans its text through the cache — a miss, then hits —
    // and is no explicit prepare.
    engine.mutate_catalog(|c| {
        c.register("unrelated", div_algebra::relation! { ["x"] => [1] });
    });
    check(
        "stale run",
        &mut |_| {
            let request = Request::prepared(&stmt).params(params.clone());
            let err = engine.run(request).unwrap_err();
            assert!(matches!(err, div_sql::Error::StalePlan { .. }), "{err}");
            0
        },
        counted(0, 0, 0, 0, 0),
    );
    check(
        "run_fresh",
        &mut |way| {
            let request = Request::prepared(&stmt).params(params.clone());
            let (cursor, fresh) = engine.run_fresh(request).unwrap();
            assert!(fresh.is_some(), "the stale statement was re-planned");
            consume(cursor, way)
        },
        counted(3, 0, 2, 1, 1),
    );
    // EXPLAIN ANALYZE compiles afresh and collects its one execution.
    check(
        "explain_analyze",
        &mut |_| {
            let request = Request::sql(&sql).params(params.clone());
            let explain = engine.explain_analyze(request).unwrap();
            explain.stats.expect("analyzed").output_rows as u64
        },
        counted(3, 0, 0, 0, 3),
    );
}

/// Regression: preparing a query whose divisor filter is `$parameterized`
/// must not let a data-dependent law (Law 4's replication) fire at prepare
/// time — a later binding can empty the divisor, where the law is unsound.
#[test]
fn prepared_statements_stay_sound_when_a_binding_empties_the_divisor() {
    use div_algebra::relation;
    let mut catalog = div_expr::Catalog::new();
    catalog.register(
        "r",
        relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1], [3, 2] },
    );
    catalog.register("s", relation! { ["b"] => [1], [2] });
    let engine = Engine::new(catalog);
    let sql = "SELECT * FROM r DIVIDE BY (SELECT * FROM s WHERE s.b = $p) AS d ON r.b = d.b";
    let prepared = engine.prepare(sql).expect("prepare");
    for bound in [1i64, 99, 2, 99] {
        let got = engine
            .run(Request::prepared(&prepared).params(Params::new().bind("p", bound)))
            .expect("prepared execution")
            .collect()
            .expect("prepared execution")
            .relation;
        let literal = engine
            .run(Request::sql(&sql.replace("$p", &bound.to_string())))
            .expect("literal execution")
            .collect()
            .expect("literal execution")
            .relation;
        assert_eq!(
            got, literal,
            "binding p={bound} diverged from the literal query"
        );
    }
}

/// The optimizer-on/off plan-comparison hook: `Explain::plan_signature`
/// distinguishes physical shapes, so a law that fires shows up as a
/// signature change against an optimizer-off engine.
#[test]
fn plan_signatures_expose_optimizer_effects() {
    let case = laws::find("law04").expect("registry shape");
    let catalog = case.catalog();
    // Render Law 4's SQL shape over the registry catalog.
    let sql = "SELECT * FROM r1 DIVIDE BY (SELECT * FROM r2 WHERE r2.b < 3) AS d ON r1.b = d.b";
    let optimizing = Engine::new(catalog.clone());
    let raw = Engine::builder(catalog).without_optimizer().build();
    let opt_explain = optimizing.explain(sql).expect("explain");
    let raw_explain = raw.explain(sql).expect("explain");
    assert!(
        opt_explain.rewritten(),
        "law 4 should fire on its registry shape"
    );
    assert_ne!(
        opt_explain.plan_signature(),
        raw_explain.plan_signature(),
        "a fired law must change the physical signature"
    );
    // And the signature is stable across repeated compilations.
    assert_eq!(
        opt_explain.plan_signature(),
        optimizing.explain(sql).expect("explain").plan_signature()
    );
}
