//! The SQLLogicTest-style golden-file format and runner.
//!
//! The checked-in files under `tests/golden/*.slt` are the golden corpus:
//! nothing in code defines or regenerates its cases. A file is a sequence
//! of blank-line-separated *case blocks*; a block is a run of line
//! directives:
//!
//! ```text
//! case law04-divisor-selection        # begins a case; names are unique per file
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
//! double-quoted strings. [`parse_file`] refuses, with a `file:line`
//! error, any block that breaks these rules:
//!
//! * case names are unique within a file;
//! * exactly one of `plan`, `query` or `scenario` (whose
//!   `divide=small|great` key implies the query) gives the case its
//!   statement;
//! * `table` / `row` and `param` appear only in a `query` case;
//! * each table name is declared once per case;
//! * `law` is a paper law number, `1..=17`.
//!
//! The runner executes each case under every strategy of the oracle's one
//! execution matrix ([`oracle::STRATEGIES`]: optimizer on and off, batch
//! sizes 1024 and 3, a spilling memory budget, attached `.divcol` files),
//! asserts every strategy equals the reference evaluator, and compares the
//! reference result against the `expect` block. Running with
//! `CONFORMANCE_BLESS=1` re-records the `expect` blocks in place instead,
//! in canonical rendering ([`render_file`]).
//!
//! To add a case:
//!
//! 1. write its block in the right file, without an `expect`;
//! 2. run `CONFORMANCE_BLESS=1 cargo test -q --test conformance
//!    golden_suite_passes_and_covers_all_laws`;
//! 3. review the diff, and update `GOLDEN_BUDGETED_TALLY` in
//!    `tests/conformance.rs` if it moved.

use crate::laws;
use crate::oracle::{self, absorb_all, Catalogs, Tallies};
use div_algebra::{Relation, Value};
use div_datagen::scenarios::{self, ScenarioConfig, ScenarioFamily};
use div_expr::{Catalog, LogicalPlan};
use div_rewrite::RewriteContext;
use div_sql::Request;
use std::collections::{BTreeMap, BTreeSet};
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
#[derive(Debug, Clone, Default)]
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

/// The directive that gives `case` its statement — `plan`, `query` or
/// `scenario` — if one has been read.
fn statement_kind(case: &GoldenCase) -> Option<&'static str> {
    [
        ("plan", case.plan_key.is_some()),
        ("query", case.query.is_some()),
        ("scenario", case.scenario.is_some()),
    ]
    .into_iter()
    .find_map(|(directive, set)| set.then_some(directive))
}

/// Parse a golden file, refusing anything outside the documented format
/// with a `file:line` error (see the module doc for the rules).
pub fn parse_file(name: &str, text: &str) -> Result<GoldenFile, String> {
    let mut file = GoldenFile {
        name: name.to_string(),
        comment: String::new(),
        cases: Vec::new(),
    };
    // The open case and the line of its `case` directive.
    let mut current: Option<(GoldenCase, usize)> = None;
    let mut in_expect = false;
    let close = |open: Option<(GoldenCase, usize)>, cases: &mut Vec<GoldenCase>| match open {
        Some((case, _)) if statement_kind(&case).is_some() => {
            cases.push(case);
            Ok(())
        }
        Some((case, line)) => Err(format!(
            "{name}:{line}: case {} has none of `plan`, `query` or `scenario`",
            case.name
        )),
        None => Ok(()),
    };
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
            close(current.take(), &mut file.cases)?;
            if rest.is_empty() {
                return Err(at("`case` needs a name".to_string()));
            }
            if file.cases.iter().any(|c| c.name == rest) {
                return Err(at(format!("case {rest} is named twice")));
            }
            let case = GoldenCase {
                name: rest.to_string(),
                ..GoldenCase::default()
            };
            current = Some((case, idx + 1));
            in_expect = false;
            continue;
        }
        let (case, _) = current
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
        if matches!(keyword, "plan" | "query" | "scenario") {
            if let Some(first) = statement_kind(case) {
                return Err(at(format!(
                    "`{keyword}` after `{first}`: a case has exactly one of \
                     `plan`, `query` or `scenario`"
                )));
            }
        }
        match keyword {
            "law" => {
                let n = rest
                    .parse::<u8>()
                    .ok()
                    .filter(|n| (1..=17).contains(n))
                    .ok_or_else(|| at(format!("bad law number: {rest} (not 1..=17)")))?;
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
                if case.tables.iter().any(|t| t.name == tname) {
                    return Err(at(format!("table {tname} is declared twice")));
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
        // Inline tables and parameters belong to a `query` case; checked
        // after every directive, so either order of the two lines fails.
        if let Some(kind @ ("plan" | "scenario")) = statement_kind(case) {
            if !case.tables.is_empty() || !case.params.is_empty() {
                return Err(at(format!(
                    "`table` and `param` need a `query` case, not a `{kind}` one"
                )));
            }
        }
    }
    close(current.take(), &mut file.cases)?;
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

/// The case's catalog and the plan it checks, with the SQL the engine runs
/// (`None`: the engine runs the plan itself, a law-registry shape).
fn statement(case: &GoldenCase) -> Result<(Catalog, LogicalPlan, Option<String>), String> {
    if let Some(key) = &case.plan_key {
        let law = laws::find(key).ok_or_else(|| format!("unknown law key: {key}"))?;
        return Ok((law.catalog(), law.plan, None));
    }
    let (catalog, sql) = match &case.scenario {
        Some((config, divide)) => {
            let data = scenarios::generate(config);
            let sql = match divide {
                ScenarioDivide::Small => data.small_divide_sql(),
                ScenarioDivide::Great => data.great_divide_sql(),
            };
            (data.catalog(), sql)
        }
        None => {
            let mut catalog = Catalog::new();
            for table in &case.tables {
                let relation = Relation::from_rows(
                    table.columns.iter().map(|c| c.as_str()),
                    table.rows.iter().cloned(),
                )
                .map_err(|e| format!("bad table {}: {e}", table.name))?;
                catalog.register(table.name.as_str(), relation);
            }
            let sql = case.query.clone().ok_or("no plan, scenario or query")?;
            (catalog, sql)
        }
    };
    let query = div_sql::parse_query(&sql).map_err(|e| format!("`{sql}`: {e}"))?;
    let bindings: BTreeMap<String, Value> = case.params.iter().cloned().collect();
    let plan = div_sql::translate_query(&query, &catalog)
        .map_err(|e| format!("`{sql}`: {e}"))?
        .bind_parameters(&bindings);
    Ok((catalog, plan, Some(sql)))
}

/// Run one case under every strategy of the oracle's table
/// ([`oracle::check_statement`]); every strategy must equal the reference
/// evaluator over the case's plan, its parameters bound. A `plan` case's
/// law must also be among the rewrites the optimizer enumerates on the
/// shape, each of which must preserve the result ([`laws::check_rewrites`]).
/// Returns the reference result and the per-strategy tallies.
pub fn run_case(case: &GoldenCase) -> Result<(Relation, Tallies), String> {
    let fail = |detail: String| format!("{}: {detail}", case.name);
    let (catalog, plan, sql) = statement(case).map_err(fail)?;
    let expected =
        div_expr::evaluate(&plan, &catalog).map_err(|e| fail(format!("evaluation failed: {e}")))?;
    if let Some(law) = case.plan_key.as_deref().and_then(laws::find) {
        let ctx = RewriteContext::with_catalog(&catalog);
        let fired = laws::check_rewrites(&law, &ctx, &expected)?;
        if !fired.iter().any(|rule| rule == law.rule) {
            return Err(fail(format!(
                "`{}` is not among the optimizer's rewrites {fired:?}",
                law.rule
            )));
        }
    }

    let catalogs = Catalogs::new(&catalog).map_err(fail)?;
    let params = oracle::bind(&case.params);
    let request = || match &sql {
        Some(sql) => Request::sql(sql).params(params.clone()),
        None => Request::plan(&plan),
    };
    let tallies = oracle::check_statement(&catalogs, &plan, request, &expected)
        .map_err(|(strategy, detail)| fail(format!("strategy {strategy}: {detail}")))?;
    Ok((expected, tallies))
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
    /// Executed / declined / spilled runs per strategy over the file.
    pub strategies: Tallies,
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
    for case in &mut file.cases {
        let (actual, tallies) = run_case(case)?;
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
        absorb_all(&mut report.strategies, &tallies);
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
    fn a_recorded_case_checks_clean_and_detects_tampering() {
        let text = "case t\ntable r a b\nrow r 1|1\nrow r 1|2\nrow r 2|1\n\
                    table s b\nrow s 1\nrow s 2\nquery SELECT * FROM r DIVIDE BY s ON r.b = s.b\n";
        let mut case = parse_file("t.slt", text).unwrap().cases.remove(0);
        let (relation, _) = run_case(&case).unwrap_or_else(|e| panic!("{e}"));
        let expected = Expected::from_relation(&relation);
        assert_eq!(expected.columns, vec!["a".to_string()]);
        assert_eq!(expected.rows, vec![vec![Value::from(1i64)]]);
        case.expected = Some(expected);
        // And a tampered expectation must not be equal.
        let mut tampered = case.expected.clone().unwrap();
        tampered.rows.push(vec![Value::from(9i64)]);
        assert_ne!(Some(tampered), case.expected);
    }

    /// `parse_file`'s error for `text`, which must name `line`.
    fn refusal(text: &str, line: usize) -> String {
        let err = parse_file("bad.slt", text).expect_err("the parser must refuse this case");
        assert!(err.starts_with(&format!("bad.slt:{line}: ")), "{err}");
        err
    }

    #[test]
    fn a_case_with_two_statements_is_refused() {
        let err = refusal("case c\nplan law01\nquery SELECT * FROM r1\n", 3);
        assert!(err.contains("exactly one of"), "{err}");
        refusal("case c\nscenario rbac seed=7\nplan law01\n", 3);
        refusal("case c\nplan law01\nplan law02\n", 3);
    }

    #[test]
    fn a_case_with_no_statement_is_refused() {
        let err = refusal("case ok\nplan law01\n\ncase c\nlaw 1\nexpect a\n", 4);
        assert!(err.contains("none of"), "{err}");
    }

    #[test]
    fn a_repeated_case_name_is_refused() {
        let err = refusal("case c\nplan law01\n\ncase c\nplan law02\n", 4);
        assert!(err.contains("case c is named twice"), "{err}");
    }

    #[test]
    fn a_table_declared_twice_is_refused() {
        let err = refusal(
            "case c\ntable r a b\nrow r 1|1\ntable r a b\nquery SELECT * FROM r\n",
            4,
        );
        assert!(err.contains("table r is declared twice"), "{err}");
        // The same name in two cases is two tables.
        let text = "case c1\ntable r a\nquery SELECT * FROM r\n\n\
                    case c2\ntable r a\nquery SELECT * FROM r\n";
        assert_eq!(parse_file("ok.slt", text).unwrap().cases.len(), 2);
    }

    #[test]
    fn a_param_outside_a_query_case_is_refused() {
        let err = refusal("case c\nplan law01\nparam p0 3\n", 3);
        assert!(err.contains("need a `query` case"), "{err}");
        // Either order of the two lines.
        refusal("case c\nparam p0 3\nscenario rbac seed=7\n", 3);
        refusal("case c\ntable r a\nplan law01\n", 3);
    }

    #[test]
    fn a_law_outside_the_papers_seventeen_is_refused() {
        for bad in ["0", "18", "99", "x"] {
            let err = refusal(&format!("case c\nlaw {bad}\nplan law01\n"), 2);
            assert!(err.contains("bad law number"), "{err}");
        }
        let text = "case c\nlaw 17\nplan law17\n";
        assert_eq!(parse_file("ok.slt", text).unwrap().cases[0].laws, [17]);
    }
}
