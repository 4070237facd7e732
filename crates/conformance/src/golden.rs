//! The SQLLogicTest-style golden-file format and runner.
//!
//! Golden files live under `tests/golden/*.slt`. A file is a sequence of
//! blank-line-separated *case blocks*; a block is a run of line directives:
//!
//! ```text
//! case law04-divisor-selection        # begins a case; names must be unique
//! law 4                               # paper law(s) the case covers
//! table r1 a b                        # declare a base table (column names)
//! row r1 1|2                          # one tuple; values are |-separated
//! scenario rbac seed=7 entities=30 …  # or: catalog from a datagen scenario
//! plan law04                          # or: catalog + plan from the law registry
//! query SELECT * FROM r1 DIVIDE BY …  # SQL to run (rest of the line)
//! param p0 3                          # bind $p0 for parameterized queries
//! expect a b                          # expected result columns …
//! 1|1                                 # … followed by expected rows, in the
//! 2|3                                 # relation's deterministic sort order
//! ```
//!
//! Values render as `NULL`, `true`/`false`, decimal integers, or
//! double-quoted strings. Exactly one of `plan`, `query` or `scenario` (whose
//! `divide=small|great` key implies the query) drives the case.
//!
//! The runner executes each case across the differential matrix — streaming
//! engine with and without the optimizer at batch sizes 1024 and 3 —
//! asserts every strategy agrees,
//! and compares the agreed result against the `expect` block. Running with
//! `CONFORMANCE_BLESS=1` re-records the `expect` blocks in place instead.

use crate::grammar::CaseSpec;
use crate::laws;
use div_algebra::{Relation, Value};
use div_datagen::scenarios::{self, ScenarioConfig, ScenarioFamily};
use div_expr::Catalog;
use div_physical::PlannerConfig;
use div_rewrite::{RewriteContext, RewriteEngine};
use div_sql::{Engine, Params};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Which division query a scenario case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioDivide {
    /// The small divide (`÷`): entities holding *all* items of the divisor.
    Small,
    /// The great divide (`÷*`): per-group containment.
    Great,
}

/// The expected result block of a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Result column names, in schema order.
    pub columns: Vec<String>,
    /// Result rows in the relation's deterministic (sorted) order.
    pub rows: Vec<Vec<Value>>,
}

impl Expected {
    /// Capture a relation as an expectation.
    pub fn from_relation(relation: &Relation) -> Expected {
        Expected {
            columns: relation
                .schema()
                .names()
                .iter()
                .map(|n| n.to_string())
                .collect(),
            rows: relation.tuples().map(|t| t.values().to_vec()).collect(),
        }
    }
}

/// A declared base table.
#[derive(Debug, Clone)]
pub struct GoldenTable {
    /// Table name in the catalog.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Tuples.
    pub rows: Vec<Vec<Value>>,
}

/// One golden case.
#[derive(Debug, Clone)]
pub struct GoldenCase {
    /// Unique (per corpus) case name.
    pub name: String,
    /// Paper laws the case covers (coverage bookkeeping only).
    pub laws: Vec<u8>,
    /// Inline base tables.
    pub tables: Vec<GoldenTable>,
    /// Scenario-generated catalog plus which division query to run.
    pub scenario: Option<(ScenarioConfig, ScenarioDivide)>,
    /// Law-registry key supplying both catalog and plan.
    pub plan_key: Option<String>,
    /// SQL to run against the catalog.
    pub query: Option<String>,
    /// `$name` parameter bindings.
    pub params: Vec<(String, Value)>,
    /// Expected result; `None` until recorded.
    pub expected: Option<Expected>,
}

impl GoldenCase {
    fn new(name: &str) -> GoldenCase {
        GoldenCase {
            name: name.to_string(),
            laws: Vec::new(),
            tables: Vec::new(),
            scenario: None,
            plan_key: None,
            query: None,
            params: Vec::new(),
            expected: None,
        }
    }
}

/// A corpus file: name plus its cases.
#[derive(Debug, Clone)]
pub struct GoldenFile {
    /// File name (relative to `tests/golden/`).
    pub name: String,
    /// Leading comment describing the file.
    pub comment: String,
    /// The cases, in file order.
    pub cases: Vec<GoldenCase>,
}

// ---------------------------------------------------------------------------
// Value syntax
// ---------------------------------------------------------------------------

/// Render a value in golden-file syntax.
pub fn fmt_value(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        other => format!("{other:?}"),
    }
}

/// Parse a value in golden-file syntax.
pub fn parse_value(text: &str) -> Result<Value, String> {
    let text = text.trim();
    if text == "NULL" {
        return Ok(Value::Null);
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string: {text}"))?;
        return Ok(Value::from(
            inner.replace("\\\"", "\"").replace("\\\\", "\\").as_str(),
        ));
    }
    text.parse::<i64>()
        .map(Value::from)
        .map_err(|_| format!("unparseable value: {text}"))
}

fn fmt_row(row: &[Value]) -> String {
    row.iter().map(fmt_value).collect::<Vec<_>>().join("|")
}

fn parse_row(line: &str) -> Result<Vec<Value>, String> {
    line.split('|').map(parse_value).collect()
}

// ---------------------------------------------------------------------------
// Parsing and rendering
// ---------------------------------------------------------------------------

/// Parse a golden file.
pub fn parse_file(name: &str, text: &str) -> Result<GoldenFile, String> {
    let mut file = GoldenFile {
        name: name.to_string(),
        comment: String::new(),
        cases: Vec::new(),
    };
    let mut current: Option<GoldenCase> = None;
    let mut in_expect = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let at = |msg: String| format!("{name}:{}: {msg}", idx + 1);
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if current.is_none() && file.cases.is_empty() {
                if !file.comment.is_empty() {
                    file.comment.push('\n');
                }
                file.comment.push_str(comment.trim());
            }
            continue;
        }
        let (keyword, rest) = match line.split_once(' ') {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        if keyword == "case" {
            if let Some(done) = current.take() {
                file.cases.push(done);
            }
            if rest.is_empty() {
                return Err(at("`case` needs a name".to_string()));
            }
            current = Some(GoldenCase::new(rest));
            in_expect = false;
            continue;
        }
        let case = current
            .as_mut()
            .ok_or_else(|| at(format!("directive outside a case: {line}")))?;
        if in_expect {
            // Everything after `expect` (until the next `case`) is a result row.
            let row = parse_row(line).map_err(&at)?;
            let expected = case.expected.as_mut().expect("in expect block");
            if row.len() != expected.columns.len() {
                return Err(at(format!(
                    "row arity {} != {} columns",
                    row.len(),
                    expected.columns.len()
                )));
            }
            expected.rows.push(row);
            continue;
        }
        match keyword {
            "law" => {
                let n: u8 = rest
                    .parse()
                    .map_err(|_| at(format!("bad law number: {rest}")))?;
                case.laws.push(n);
            }
            "table" => {
                let mut parts = rest.split_whitespace();
                let tname = parts
                    .next()
                    .ok_or_else(|| at("`table` needs a name".to_string()))?;
                let columns: Vec<String> = parts.map(|c| c.to_string()).collect();
                if columns.is_empty() {
                    return Err(at(format!("table {tname} has no columns")));
                }
                case.tables.push(GoldenTable {
                    name: tname.to_string(),
                    columns,
                    rows: Vec::new(),
                });
            }
            "row" => {
                let (tname, values) = rest
                    .split_once(' ')
                    .ok_or_else(|| at("`row` needs a table and values".to_string()))?;
                let table = case
                    .tables
                    .iter_mut()
                    .find(|t| t.name == tname)
                    .ok_or_else(|| at(format!("row for undeclared table {tname}")))?;
                let row = parse_row(values.trim()).map_err(&at)?;
                if row.len() != table.columns.len() {
                    return Err(at(format!(
                        "row arity {} != {} columns of {tname}",
                        row.len(),
                        table.columns.len()
                    )));
                }
                table.rows.push(row);
            }
            "scenario" => {
                case.scenario = Some(parse_scenario(rest).map_err(&at)?);
            }
            "plan" => {
                case.plan_key = Some(rest.to_string());
            }
            "query" => {
                case.query = Some(rest.to_string());
            }
            "param" => {
                let (pname, value) = rest
                    .split_once(' ')
                    .ok_or_else(|| at("`param` needs a name and a value".to_string()))?;
                case.params
                    .push((pname.to_string(), parse_value(value).map_err(&at)?));
            }
            "expect" => {
                case.expected = Some(Expected {
                    columns: rest.split_whitespace().map(|c| c.to_string()).collect(),
                    rows: Vec::new(),
                });
                in_expect = true;
            }
            other => return Err(at(format!("unknown directive: {other}"))),
        }
    }
    if let Some(done) = current.take() {
        file.cases.push(done);
    }
    Ok(file)
}

fn parse_scenario(rest: &str) -> Result<(ScenarioConfig, ScenarioDivide), String> {
    let mut parts = rest.split_whitespace();
    let family_name = parts.next().ok_or("`scenario` needs a family")?;
    let family = ScenarioFamily::parse(family_name)
        .ok_or_else(|| format!("unknown scenario family: {family_name}"))?;
    let mut config = ScenarioConfig {
        family,
        ..ScenarioConfig::default()
    };
    let mut divide = ScenarioDivide::Small;
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {part}"))?;
        let int = || {
            value
                .parse::<usize>()
                .map_err(|_| format!("bad {key}: {value}"))
        };
        let float = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("bad {key}: {value}"))
        };
        match key {
            "seed" => config.seed = value.parse().map_err(|_| format!("bad seed: {value}"))?,
            "entities" => config.entities = int()?,
            "items" => config.items = int()?,
            "groups" => config.groups = int()?,
            "membership" => config.membership = float()?,
            "skew" => config.skew = float()?,
            "selectivity" => config.divisor_selectivity = float()?,
            "nulls" => config.null_density = float()?,
            "full" => config.full_entities = float()?,
            "divide" => {
                divide = match value {
                    "small" => ScenarioDivide::Small,
                    "great" => ScenarioDivide::Great,
                    other => return Err(format!("bad divide: {other}")),
                }
            }
            other => return Err(format!("unknown scenario key: {other}")),
        }
    }
    Ok((config, divide))
}

fn render_scenario(config: &ScenarioConfig, divide: ScenarioDivide) -> String {
    format!(
        "scenario {} seed={} entities={} items={} groups={} membership={:.2} \
         skew={:.2} selectivity={:.2} nulls={:.2} full={:.2} divide={}",
        config.family.name(),
        config.seed,
        config.entities,
        config.items,
        config.groups,
        config.membership,
        config.skew,
        config.divisor_selectivity,
        config.null_density,
        config.full_entities,
        match divide {
            ScenarioDivide::Small => "small",
            ScenarioDivide::Great => "great",
        }
    )
}

/// Render a golden file to its on-disk text.
pub fn render_file(file: &GoldenFile) -> String {
    let mut out = String::new();
    for line in file.comment.lines() {
        let _ = writeln!(out, "# {line}");
    }
    for case in &file.cases {
        let _ = writeln!(out);
        let _ = writeln!(out, "case {}", case.name);
        for law in &case.laws {
            let _ = writeln!(out, "law {law}");
        }
        for table in &case.tables {
            let _ = writeln!(out, "table {} {}", table.name, table.columns.join(" "));
            for row in &table.rows {
                let _ = writeln!(out, "row {} {}", table.name, fmt_row(row));
            }
        }
        if let Some((config, divide)) = &case.scenario {
            let _ = writeln!(out, "{}", render_scenario(config, *divide));
        }
        if let Some(key) = &case.plan_key {
            let _ = writeln!(out, "plan {key}");
        }
        if let Some(query) = &case.query {
            let _ = writeln!(out, "query {query}");
        }
        for (name, value) in &case.params {
            let _ = writeln!(out, "param {name} {}", fmt_value(value));
        }
        if let Some(expected) = &case.expected {
            let _ = writeln!(out, "expect {}", expected.columns.join(" "));
            for row in &expected.rows {
                let _ = writeln!(out, "{}", fmt_row(row));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

fn catalog_and_sql(case: &GoldenCase) -> Result<(Catalog, Option<String>), String> {
    if let Some(key) = &case.plan_key {
        let law = laws::find(key).ok_or_else(|| format!("unknown law key: {key}"))?;
        return Ok((law.catalog(), None));
    }
    if let Some((config, divide)) = &case.scenario {
        let data = scenarios::generate(config);
        let sql = match divide {
            ScenarioDivide::Small => data.small_divide_sql(),
            ScenarioDivide::Great => data.great_divide_sql(),
        };
        return Ok((data.catalog(), Some(sql)));
    }
    let mut catalog = Catalog::new();
    for table in &case.tables {
        let relation = Relation::from_rows(
            table.columns.iter().map(|c| c.as_str()),
            table.rows.iter().cloned(),
        )
        .map_err(|e| format!("{}: bad table {}: {e}", case.name, table.name))?;
        catalog.register(table.name.as_str(), relation);
    }
    let sql = case
        .query
        .clone()
        .ok_or_else(|| format!("{}: no plan, scenario or query", case.name))?;
    Ok((catalog, Some(sql)))
}

/// Run one case through the differential matrix; all strategies must agree.
/// Returns the agreed result relation.
pub fn run_case(case: &GoldenCase) -> Result<Relation, String> {
    let (catalog, sql) = catalog_and_sql(case)?;
    match sql {
        Some(sql) => run_sql_matrix(case, &catalog, &sql),
        None => run_plan_matrix(case, &catalog),
    }
}

fn run_plan_matrix(case: &GoldenCase, catalog: &Catalog) -> Result<Relation, String> {
    let key = case.plan_key.as_deref().expect("plan case");
    let law = laws::find(key).expect("checked in catalog_and_sql");
    let reference = div_expr::evaluate(&law.plan, catalog)
        .map_err(|e| format!("{}: evaluation failed: {e}", case.name))?;

    // The case's law must match its trigger shape and preserve the result.
    let direct = laws::apply_rule(&law)?;
    let after_direct = div_expr::evaluate(&direct, catalog)
        .map_err(|e| format!("{}: direct rewrite evaluation failed: {e}", case.name))?;
    if after_direct != reference {
        return Err(format!("{}: `{}` changed the result", case.name, law.rule));
    }

    // The full heuristic engine must also preserve the result, whichever
    // rules it picks on this shape.
    let ctx = RewriteContext::with_catalog(catalog);
    let outcome = RewriteEngine::with_default_rules()
        .rewrite(&law.plan, &ctx)
        .map_err(|e| format!("{}: rewrite failed: {e}", case.name))?;
    let rewritten = div_expr::evaluate(&outcome.plan, catalog)
        .map_err(|e| format!("{}: rewritten evaluation failed: {e}", case.name))?;
    if rewritten != reference {
        return Err(format!("{}: rewrite changed the result", case.name));
    }

    // Engine paths, optimizer on and off.
    for optimize in [true, false] {
        let mut builder = Engine::builder(catalog.clone());
        if !optimize {
            builder = builder.without_optimizer();
        }
        let engine = builder.build();
        let output = engine
            .execute_logical(&law.plan)
            .map_err(|e| format!("{}: engine (optimize={optimize}) failed: {e}", case.name))?;
        if output.relation != reference {
            return Err(format!(
                "{}: engine (optimize={optimize}) result diverged",
                case.name
            ));
        }
    }
    Ok(reference)
}

fn run_sql_matrix(case: &GoldenCase, catalog: &Catalog, sql: &str) -> Result<Relation, String> {
    let mut params = Params::new();
    for (name, value) in &case.params {
        params = params.bind(name.clone(), value.clone());
    }
    let mut reference: Option<Relation> = None;
    let mut check = |label: &str, relation: Relation| -> Result<(), String> {
        match &reference {
            None => {
                reference = Some(relation);
                Ok(())
            }
            Some(r) if *r == relation => Ok(()),
            Some(r) => Err(format!(
                "{}: strategy {label} diverged ({} vs {} rows)",
                case.name,
                relation.len(),
                r.len()
            )),
        }
    };

    // Streaming engine: optimizer {on, off} × batch size {1024, 3}.
    for (optimize, batch) in [(true, 1024), (true, 3), (false, 3), (false, 1024)] {
        let mut builder =
            Engine::builder(catalog.clone()).planner_config(PlannerConfig::with_batch_size(batch));
        if !optimize {
            builder = builder.without_optimizer();
        }
        let engine = builder.build();
        let label = format!("stream/opt={optimize}/b={batch}");
        let output = engine
            .query_collect_with_params(sql, &params)
            .map_err(|e| format!("{}: {label} failed: {e}", case.name))?;
        check(&label, output.relation)?;
    }

    Ok(reference.expect("at least one strategy ran"))
}

// ---------------------------------------------------------------------------
// The file runner
// ---------------------------------------------------------------------------

/// Outcome of checking one golden file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Cases checked.
    pub cases: usize,
    /// Laws covered by the file's `law` annotations.
    pub laws: BTreeSet<u8>,
}

/// `true` when `CONFORMANCE_BLESS` requests re-recording.
pub fn blessing() -> bool {
    std::env::var("CONFORMANCE_BLESS").is_ok_and(|v| !v.trim().is_empty() && v != "0")
}

/// Check (or, under `CONFORMANCE_BLESS=1`, re-record) one golden file.
pub fn run_file(path: &Path) -> Result<FileReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("golden")
        .to_string();
    let mut file = parse_file(&name, &text)?;
    let bless = blessing();
    let mut report = FileReport::default();
    let mut seen = BTreeSet::new();
    for case in &mut file.cases {
        if !seen.insert(case.name.clone()) {
            return Err(format!("{name}: duplicate case name {}", case.name));
        }
        let actual = run_case(case)?;
        let actual = Expected::from_relation(&actual);
        if bless {
            case.expected = Some(actual);
        } else {
            match &case.expected {
                None => return Err(format!("{name}: case {} has no expect block", case.name)),
                Some(expected) if *expected != actual => {
                    return Err(format!(
                        "{name}: case {} mismatch\n  expected cols {:?} rows {:?}\n  \
                         actual   cols {:?} rows {:?}",
                        case.name,
                        expected.columns,
                        expected.rows.iter().map(|r| fmt_row(r)).collect::<Vec<_>>(),
                        actual.columns,
                        actual.rows.iter().map(|r| fmt_row(r)).collect::<Vec<_>>(),
                    ));
                }
                Some(_) => {}
            }
        }
        report.cases += 1;
        report.laws.extend(case.laws.iter().copied());
    }
    if bless {
        std::fs::write(path, render_file(&file)).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}

/// All `.slt` files under a golden directory, sorted.
pub fn golden_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "slt"))
        .collect();
    files.sort();
    files
}

// ---------------------------------------------------------------------------
// The default corpus
// ---------------------------------------------------------------------------

/// The code-defined corpus skeleton (no `expect` blocks — those are recorded
/// by a bless run). `tests/golden/` holds the blessed rendering.
pub fn default_corpus() -> Vec<GoldenFile> {
    let mut corpus = Vec::new();
    corpus.push(laws_file());
    corpus.push(edge_cases_file());
    corpus.push(params_file());
    for family in ScenarioFamily::ALL {
        corpus.push(scenario_file(family));
    }
    corpus.push(fuzz_seeds_file());
    corpus
}

fn laws_file() -> GoldenFile {
    let mut cases = Vec::new();
    for law in laws::law_cases() {
        let mut case = GoldenCase::new(law.key);
        case.laws = law.law_number.into_iter().collect();
        case.plan_key = Some(law.key.to_string());
        cases.push(case);
    }
    GoldenFile {
        name: "laws.slt".to_string(),
        comment: "One case per rewrite law (plus the worked examples): the \
                  registry shape must fire its law under the heuristic engine \
                  and evaluate identically before and after."
            .to_string(),
        cases,
    }
}

fn table(name: &str, columns: &[&str], rows: &[&[i64]]) -> GoldenTable {
    GoldenTable {
        name: name.to_string(),
        columns: columns.iter().map(|c| c.to_string()).collect(),
        rows: rows
            .iter()
            .map(|r| r.iter().map(|&v| Value::from(v)).collect())
            .collect(),
    }
}

fn sql_case(name: &str, tables: Vec<GoldenTable>, query: &str) -> GoldenCase {
    let mut case = GoldenCase::new(name);
    case.tables = tables;
    case.query = Some(query.to_string());
    case
}

fn edge_cases_file() -> GoldenFile {
    let mut cases = Vec::new();
    let r = |rows: &[&[i64]]| table("r", &["a", "b"], rows);
    let s = |rows: &[&[i64]]| table("s", &["b"], rows);
    let small = "SELECT * FROM r DIVIDE BY s ON r.b = s.b";

    // Small divide with an empty divisor: every entity qualifies (π_A(r)).
    cases.push(sql_case(
        "empty-divisor-small",
        vec![r(&[&[1, 1], &[2, 1], &[2, 2]]), s(&[])],
        small,
    ));
    // Great divide with an empty divisor: empty quotient.
    {
        let mut case = sql_case(
            "empty-divisor-great",
            vec![
                table("r", &["a", "b"], &[&[1, 1], &[2, 2]]),
                table("s", &["b", "c"], &[]),
            ],
            "SELECT * FROM r DIVIDE BY s ON r.b = s.b",
        );
        case.laws.push(13);
        cases.push(case);
    }
    cases.push(sql_case(
        "empty-dividend",
        vec![r(&[]), s(&[&[1], &[2]])],
        small,
    ));
    cases.push(sql_case("empty-both", vec![r(&[]), s(&[])], small));
    cases.push(sql_case(
        "single-row-match",
        vec![r(&[&[7, 3]]), s(&[&[3]])],
        small,
    ));
    cases.push(sql_case(
        "single-row-miss",
        vec![r(&[&[7, 3]]), s(&[&[4]])],
        small,
    ));
    // All join keys NULL on the dividend side: no entity can cover a
    // non-NULL divisor.
    {
        let mut t = table("r", &["a", "b"], &[]);
        t.rows = vec![
            vec![Value::from(1), Value::Null],
            vec![Value::from(2), Value::Null],
        ];
        cases.push(sql_case("all-null-keys", vec![t, s(&[&[1]])], small));
    }
    // NULL keys on both sides: tuple equality treats NULL = NULL as a match.
    {
        let mut dividend = table("r", &["a", "b"], &[]);
        dividend.rows = vec![
            vec![Value::from(1), Value::Null],
            vec![Value::from(1), Value::from(3)],
            vec![Value::from(2), Value::from(3)],
        ];
        let mut divisor = table("s", &["b"], &[&[3]]);
        divisor.rows.push(vec![Value::Null]);
        cases.push(sql_case(
            "null-matches-null",
            vec![dividend, divisor],
            small,
        ));
    }
    // Duplicates collapse under set semantics; DISTINCT is a no-op on top.
    cases.push(sql_case(
        "distinct-idempotent",
        vec![r(&[&[1, 1], &[1, 2], &[2, 1], &[2, 2]]), s(&[&[1], &[2]])],
        "SELECT DISTINCT r.a FROM r DIVIDE BY s ON r.b = s.b",
    ));
    // Divisor strictly larger than any entity's item set.
    cases.push(sql_case(
        "divisor-superset",
        vec![r(&[&[1, 1], &[2, 2]]), s(&[&[1], &[2], &[3]])],
        small,
    ));
    // Every entity covers the divisor.
    cases.push(sql_case(
        "all-qualify",
        vec![r(&[&[1, 1], &[1, 2], &[2, 1], &[2, 2]]), s(&[&[1], &[2]])],
        small,
    ));
    // Quotient-side selection above the division (Law 3's SQL shape).
    {
        let mut case = sql_case(
            "selection-above",
            vec![
                r(&[&[1, 1], &[1, 2], &[2, 1], &[2, 2], &[3, 1]]),
                s(&[&[1], &[2]]),
            ],
            "SELECT * FROM r DIVIDE BY s ON r.b = s.b WHERE r.a >= 2",
        );
        case.laws.push(3);
        cases.push(case);
    }
    // Divisor-side selection (Law 4's SQL shape), via a derived table.
    {
        let mut case = sql_case(
            "selection-divisor",
            vec![r(&[&[1, 1], &[1, 2], &[2, 1]]), s(&[&[1], &[2], &[9]])],
            "SELECT * FROM r DIVIDE BY (SELECT * FROM s WHERE s.b <= 2) AS d ON r.b = d.b",
        );
        case.laws.push(4);
        cases.push(case);
    }
    // Great divide, single group, matching the small divide on that group.
    {
        let mut case = sql_case(
            "great-single-group",
            vec![
                table("r", &["a", "b"], &[&[1, 1], &[1, 2], &[2, 1]]),
                table("s", &["b", "c"], &[&[1, 5], &[2, 5]]),
            ],
            "SELECT * FROM r DIVIDE BY s ON r.b = s.b",
        );
        case.laws.push(14);
        cases.push(case);
    }
    // Double NOT EXISTS — the classic Query 3 formulation.
    {
        let case = sql_case(
            "not-exists-q3",
            vec![
                table(
                    "enrolled",
                    &["student", "course"],
                    &[&[1, 10], &[1, 11], &[2, 10], &[3, 10], &[3, 11]],
                ),
                table(
                    "required",
                    &["course", "program"],
                    &[&[10, 1], &[11, 1], &[10, 2]],
                ),
            ],
            "SELECT DISTINCT x1.student, y1.program FROM enrolled AS x1, required AS y1 \
             WHERE NOT EXISTS (SELECT * FROM required AS y2 WHERE y2.program = y1.program \
             AND NOT EXISTS (SELECT * FROM enrolled AS x2 WHERE x2.course = y2.course \
             AND x2.student = x1.student))",
        );
        cases.push(case);
    }
    GoldenFile {
        name: "edge_cases.slt".to_string(),
        comment: "Hand-written boundary cases: empty divisor/dividend, NULL \
                  join keys, single rows, duplicate collapsing, selections on \
                  either side, and the double-NOT-EXISTS formulation."
            .to_string(),
        cases,
    }
}

fn params_file() -> GoldenFile {
    let mut cases = Vec::new();
    let catalog = || {
        vec![
            table(
                "r",
                &["a", "b"],
                &[&[1, 1], &[1, 2], &[1, 3], &[2, 1], &[2, 2], &[3, 1]],
            ),
            table("s", &["b"], &[&[1], &[2], &[3]]),
        ]
    };
    let query = "SELECT * FROM r DIVIDE BY (SELECT * FROM s WHERE s.b <= $p0) AS d ON r.b = d.b";
    for (idx, bound) in [0i64, 1, 2, 3].into_iter().enumerate() {
        let mut case = sql_case(&format!("rebind-int-{idx}"), catalog(), query);
        case.params.push(("p0".to_string(), Value::from(bound)));
        cases.push(case);
    }
    // String-typed parameter against a string item column.
    let flags = || {
        let mut service = table("service_flag", &["service", "flag"], &[]);
        for (s, f) in [("api", 1), ("api", 2), ("web", 1), ("web", 3), ("cron", 2)] {
            service.rows.push(vec![Value::from(s), Value::from(f)]);
        }
        let mut wanted = table("wanted", &["service"], &[]);
        for s in ["api", "web"] {
            wanted.rows.push(vec![Value::from(s)]);
        }
        vec![service, wanted]
    };
    for (idx, flag) in [1i64, 3].into_iter().enumerate() {
        let mut case = sql_case(
            &format!("rebind-divisor-{idx}"),
            flags(),
            "SELECT * FROM service_flag DIVIDE BY \
             (SELECT * FROM wanted WHERE wanted.service != $svc) AS d \
             ON service_flag.service = d.service",
        );
        case.params.push((
            "svc".to_string(),
            Value::from(if flag == 1 { "cron" } else { "api" }),
        ));
        cases.push(case);
    }
    GoldenFile {
        name: "params.slt".to_string(),
        comment: "Parameterized divisor filters: the same prepared shape \
                  re-blessed under different bindings (rebinding within one \
                  prepared statement is covered by the fuzz oracle)."
            .to_string(),
        cases,
    }
}

fn scenario_file(family: ScenarioFamily) -> GoldenFile {
    let mut cases = Vec::new();
    let configs = [
        (7u64, 24usize, 6usize, 0.5f64, 0.0f64),
        (8, 30, 8, 0.7, 0.0),
        (9, 18, 5, 0.4, 0.2),
        (10, 36, 7, 0.6, 0.1),
    ];
    for (idx, (seed, entities, items, membership, nulls)) in configs.into_iter().enumerate() {
        for divide in [ScenarioDivide::Small, ScenarioDivide::Great] {
            let config = ScenarioConfig {
                family,
                entities,
                items,
                groups: 3,
                membership,
                skew: 0.8,
                divisor_selectivity: 0.5,
                null_density: nulls,
                full_entities: 0.15,
                seed,
            };
            let suffix = match divide {
                ScenarioDivide::Small => "small",
                ScenarioDivide::Great => "great",
            };
            let mut case = GoldenCase::new(&format!("{}-{idx}-{suffix}", family.name()));
            case.scenario = Some((config, divide));
            cases.push(case);
        }
    }
    GoldenFile {
        name: format!("scenarios_{}.slt", family.name()),
        comment: format!(
            "The `{}` workload family from div-datagen, small and great \
             divides over varying cardinality, membership and null density.",
            family.name()
        ),
        cases,
    }
}

fn fuzz_seeds_file() -> GoldenFile {
    let mut cases = Vec::new();
    let mut seed = 9000u64;
    while cases.len() < 45 {
        let spec = CaseSpec::generate(seed);
        seed += 1;
        let mut case = GoldenCase::new(&format!("seed-{:#x}", spec.seed));
        for t in [&spec.dividend, &spec.divisor] {
            case.tables.push(GoldenTable {
                name: t.name.clone(),
                columns: t.columns.iter().map(|c| c.name.clone()).collect(),
                rows: t.rows.clone(),
            });
        }
        case.query = Some(spec.divide_by_sql(false));
        cases.push(case);
    }
    GoldenFile {
        name: "fuzz_seeds.slt".to_string(),
        comment: "Pinned grammar-generated cases (seeds 0x2328…): the fuzzer's \
                  DIVIDE BY rendering frozen against regressions. Re-record \
                  with CONFORMANCE_BLESS=1."
            .to_string(),
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        for v in [
            Value::Null,
            Value::from(true),
            Value::from(-42i64),
            Value::from("x y \"q\""),
        ] {
            assert_eq!(parse_value(&fmt_value(&v)).unwrap(), v);
        }
    }

    #[test]
    fn files_round_trip_through_render_and_parse() {
        for file in default_corpus() {
            let text = render_file(&file);
            let parsed = parse_file(&file.name, &text).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(parsed.cases.len(), file.cases.len(), "{}", file.name);
            // Render → parse → render is a fixpoint.
            assert_eq!(render_file(&parsed), text, "{}", file.name);
        }
    }

    #[test]
    fn corpus_is_large_and_covers_every_law() {
        let corpus = default_corpus();
        let total: usize = corpus.iter().map(|f| f.cases.len()).sum();
        assert!(total >= 100, "corpus has only {total} cases");
        let laws: BTreeSet<u8> = corpus
            .iter()
            .flat_map(|f| f.cases.iter())
            .flat_map(|c| c.laws.iter().copied())
            .collect();
        for n in 1..=17u8 {
            assert!(laws.contains(&n), "law {n} uncovered by corpus annotations");
        }
    }

    #[test]
    fn a_recorded_case_checks_clean_and_detects_tampering() {
        let mut case = sql_case(
            "t",
            vec![
                table("r", &["a", "b"], &[&[1, 1], &[1, 2], &[2, 1]]),
                table("s", &["b"], &[&[1], &[2]]),
            ],
            "SELECT * FROM r DIVIDE BY s ON r.b = s.b",
        );
        let relation = run_case(&case).unwrap_or_else(|e| panic!("{e}"));
        let expected = Expected::from_relation(&relation);
        assert_eq!(expected.columns, vec!["a".to_string()]);
        assert_eq!(expected.rows, vec![vec![Value::from(1i64)]]);
        case.expected = Some(expected);
        // And a tampered expectation must not be equal.
        let mut tampered = case.expected.clone().unwrap();
        tampered.rows.push(vec![Value::from(9i64)]);
        assert_ne!(Some(tampered), case.expected);
    }
}
