//! The conformance suite: golden corpus, differential fuzz smoke, and
//! engine-metrics reconciliation under generated workloads.
//!
//! Environment knobs (see `crates/conformance`):
//!
//! * `CONFORMANCE_SEED` — base fuzz seed (decimal or `0x…`); a failing run
//!   prints the exact value to replay.
//! * `CONFORMANCE_CASES` — fuzz case count (default here: 300; CI's smoke
//!   job and `scripts/fuzz_smoke.sh` run far more).
//! * `CONFORMANCE_ARTIFACT` — where to write the failing-case repro file.
//! * `CONFORMANCE_BLESS=1` — re-record the golden `expect` blocks in place.

use div_conformance::fuzzer::{run, FuzzConfig};
use div_conformance::golden::{self, parse_file, render_file};
use div_conformance::grammar::CaseSpec;
use div_conformance::laws;
use div_sql::{Engine, Params};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Every checked-in golden file parses, replays through the full
/// differential matrix, and matches its recorded expectations; the corpus
/// holds at least 100 cases and covers all 17 laws.
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
    for path in files {
        let report = golden::run_file(&path).unwrap_or_else(|e| panic!("{e}"));
        cases += report.cases;
        laws_covered.extend(report.laws);
    }
    assert!(cases >= 100, "golden corpus has only {cases} cases");
    for law in 1..=17u8 {
        assert!(
            laws_covered.contains(&law),
            "law {law} is not covered by any golden case"
        );
    }
}

/// The checked-in corpus stays in sync with the code-defined skeleton in
/// `div_conformance::golden::default_corpus` — same files, same case names
/// in the same order. (Re-record with `CONFORMANCE_BLESS=1` after editing
/// the skeleton.)
#[test]
fn golden_corpus_matches_the_code_defined_skeleton() {
    for skeleton in golden::default_corpus() {
        let path = golden_dir().join(&skeleton.name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless the corpus first)", path.display()));
        let on_disk = parse_file(&skeleton.name, &text).unwrap_or_else(|e| panic!("{e}"));
        let disk_names: Vec<&str> = on_disk.cases.iter().map(|c| c.name.as_str()).collect();
        let skeleton_names: Vec<&str> = skeleton.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            disk_names, skeleton_names,
            "{}: case list diverged from default_corpus()",
            skeleton.name
        );
    }
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

/// The engine's metrics registry reconciles with per-cursor stats under a
/// generated workload: one query per generated case, counting executions,
/// returned rows, prepared statements and plan-cache hits (every SQL entry
/// point looks its text up in the one plan cache, ad-hoc `query` included).
#[test]
fn engine_metrics_reconcile_under_generated_workloads() {
    // One shared catalog: the first generated spec's tables.
    let spec = CaseSpec::generate(0x5eed);
    let engine = Engine::new(spec.catalog());
    let base = engine.metrics();

    let mut executed = 0u64;
    let mut rows = 0u64;
    let adhoc_sql = spec.divide_by_sql(false);
    for round in 0..8u64 {
        let output = engine
            .query_collect(&adhoc_sql)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        executed += 1;
        rows += output.relation.len() as u64;
        // Per-cursor stats must agree with the materialized relation.
        assert_eq!(output.stats.output_rows, output.relation.len());
    }

    // Prepared path: same SQL prepared twice → at most one miss (none when
    // the text is the ad-hoc one, already cached), the rest cache hits.
    let sql = spec.divide_by_sql(true);
    let has_params = sql.contains('$');
    let params = match spec.divisor_filter.as_ref().and_then(|f| f.param.clone()) {
        Some(name) => {
            let value = spec.divisor_filter.as_ref().unwrap().value.clone();
            Params::new().bind(name, value)
        }
        None => Params::new(),
    };
    let first = engine.prepare(&sql).expect("prepare");
    let second = engine.prepare(&sql).expect("re-prepare");
    for prepared in [&first, &second] {
        let output = prepared
            .execute_collect(&engine, &params)
            .expect("prepared execution");
        executed += 1;
        rows += output.relation.len() as u64;
        assert_eq!(output.stats.output_rows, output.relation.len());
    }
    let _ = has_params;

    let snapshot = engine.metrics();
    assert_eq!(
        snapshot.queries_executed - base.queries_executed,
        executed,
        "queries_executed diverged from the cursors actually collected"
    );
    assert_eq!(
        snapshot.rows_returned - base.rows_returned,
        rows,
        "rows_returned diverged from the relations actually materialized"
    );
    assert_eq!(snapshot.statements_prepared - base.statements_prepared, 2);
    // Ten plan-cache lookups (8 ad-hoc + 2 prepares): one miss per distinct
    // SQL text, everything else a hit.
    let distinct_texts = if sql == adhoc_sql { 1 } else { 2 };
    assert_eq!(
        snapshot.prepared_cache_misses - base.prepared_cache_misses,
        distinct_texts
    );
    assert_eq!(
        snapshot.prepared_cache_hits - base.prepared_cache_hits,
        10 - distinct_texts
    );
    assert_eq!(engine.compile_count(), distinct_texts);
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
        let got = prepared
            .execute_collect(&engine, &Params::new().bind("p", bound))
            .expect("prepared execution")
            .relation;
        let literal = engine
            .query_collect(&sql.replace("$p", &bound.to_string()))
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
