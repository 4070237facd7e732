//! The differential oracle.
//!
//! For one [`CaseSpec`] the oracle computes the reference quotient with the
//! interpreting evaluator ([`div_expr::evaluate`]), then executes **every
//! formulation** of the case across the full execution matrix
//!
//! ```text
//! {optimizer-on, optimizer-off} × {streaming at batch_size 1024, streaming at batch_size 3}
//! ```
//!
//! (streaming through [`div_sql::Engine`]) plus one optimizer-only check —
//! the reference evaluator over the plan a manually-run optimizer rewrote,
//! so an optimizer bug shows apart from an executor bug — one out-of-core
//! strategy — the raw plan, streaming at batch_size 3 under a
//! [`SPILL_BUDGET_ROWS`]-row memory budget with `spill_to_disk` — and one
//! attached-residency strategy — the raw plan, streaming at batch_size 3,
//! over a catalog whose tables are `.divcol` files with
//! [`ATTACHED_CHUNK_ROWS`]-row chunks instead of registered rows — and
//! demands:
//!
//! * byte-identical relations from every strategy — the budgeted one may
//!   instead *decline* with the typed memory-budget error (a plan whose
//!   state cannot spill: a distinct set, a product), which is tallied, never
//!   compared; when it answers, its peak stays within the budget and nothing
//!   is left resident; the attached one leaves no table loaded in its
//!   catalog,
//! * cross-formulation agreement up to column order,
//! * `ExecStats` / span-tree consistency: pre-order ids, tree-shaped child
//!   links, `rows_out` monotonicity through Filter/Project/Rename/Intersect,
//!   probe aggregation, and a nonzero resident peak for every run that
//!   produced rows,
//! * parameter rebinding stability on prepared statements,
//! * plan-cache transparency: a parameter-free SQL formulation run twice on
//!   one engine (cold, then cached) and once more after a catalog mutation
//!   that replaces a table it reads equals the reference evaluator on the
//!   matching snapshot every time.

use crate::grammar::{CaseSpec, QueryForm};
use div_algebra::{Relation, Value};
use div_expr::{Catalog, LogicalPlan};
use div_physical::{ExecStats, PlannerConfig};
use div_rewrite::{Optimizer, RewriteContext};
use div_sql::{Engine, Params};
use div_storage::{TableReader, TableWriter};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A differential mismatch or invariant violation, with everything needed
/// to replay it.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Seed of the failing case.
    pub seed: u64,
    /// Formulation that failed.
    pub formulation: String,
    /// Execution strategy that failed (or `reference` / `invariant`).
    pub strategy: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The full case, rendered for replay.
    pub case: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conformance mismatch (seed {:#x}, formulation `{}`, strategy `{}`)",
            self.seed, self.formulation, self.strategy
        )?;
        writeln!(f, "{}", self.detail)?;
        writeln!(f, "replay: CONFORMANCE_SEED={:#x} (case 0)", self.seed)?;
        write!(f, "case:\n{}", self.case)
    }
}

/// What one execution strategy did over a case (or, summed, a fuzz run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyTally {
    /// Executions that produced a result, which was compared.
    pub executed: usize,
    /// Executions that ended in the typed memory-budget error instead —
    /// only a budgeted strategy may decline.
    pub declined: usize,
    /// Executed runs that wrote spill partitions.
    pub spilled: usize,
}

impl StrategyTally {
    /// Add `other`'s counts to this tally.
    pub fn absorb(&mut self, other: &StrategyTally) {
        self.executed += other.executed;
        self.declined += other.declined;
        self.spilled += other.spilled;
    }
}

/// Tally of what one case exercised.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseReport {
    /// Number of formulations checked.
    pub formulations: usize,
    /// Number of strategy executions compared.
    pub executions: usize,
    /// Executed / declined / spilled per strategy, in [`STRATEGY_NAMES`]
    /// order.
    pub strategies: [StrategyTally; STRATEGY_NAMES.len()],
}

struct Strategy {
    name: &'static str,
    optimize: bool,
    /// Batch size of the SQL engine's streaming cursor; `None` evaluates the
    /// optimized plan with the reference evaluator instead.
    batch_size: Option<usize>,
    /// Resident-row budget, with spilling to disk enabled under it.
    budget: Option<usize>,
    /// Run over the [`AttachedCatalog`] instead of the registered rows.
    attached: bool,
}

/// The resident-row budget of the `stream/raw/b3/spill` strategy: with
/// 3-row batches the hybrid operators start spilling at a handful of rows
/// of state, which the generated cases (up to 28 dividend and 6 divisor
/// rows) reach often, while the smallest ones still run in memory.
pub const SPILL_BUDGET_ROWS: usize = 16;

/// Rows per chunk of the `stream/raw/b3/attached` strategy's files: small
/// enough that the generated tables (up to 28 rows) span several chunks,
/// so zone maps skip some, and larger than the strategy's 3-row batches, so
/// chunks are served in pieces.
pub const ATTACHED_CHUNK_ROWS: usize = 4;

const fn strategy(
    name: &'static str,
    optimize: bool,
    batch_size: Option<usize>,
    budget: Option<usize>,
) -> Strategy {
    Strategy {
        name,
        optimize,
        batch_size,
        budget,
        attached: false,
    }
}

const STRATEGIES: [Strategy; 7] = [
    strategy("stream/opt", true, Some(1024), None),
    strategy("stream/opt/b3", true, Some(3), None),
    strategy("stream/raw/b3", false, Some(3), None),
    strategy("stream/raw", false, Some(1024), None),
    strategy(
        "stream/raw/b3/spill",
        false,
        Some(3),
        Some(SPILL_BUDGET_ROWS),
    ),
    Strategy {
        attached: true,
        ..strategy("stream/raw/b3/attached", false, Some(3), None)
    },
    strategy("reference/opt", true, None, None),
];

/// The execution strategies' names, in the order
/// [`CaseReport::strategies`] is indexed.
pub const STRATEGY_NAMES: [&str; STRATEGIES.len()] = {
    let mut names = [""; STRATEGIES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = STRATEGIES[i].name;
        i += 1;
    }
    names
};

/// A catalog's tables, each written to a `.divcol` file with
/// [`ATTACHED_CHUNK_ROWS`]-row chunks in a directory of its own and attached
/// under its name. The directory is removed when this is dropped — on
/// every exit path of the case that made it.
struct AttachedCatalog {
    catalog: Catalog,
    dir: PathBuf,
}

impl AttachedCatalog {
    fn of(registered: &Catalog) -> Result<AttachedCatalog, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let mut attached = AttachedCatalog {
            catalog: Catalog::new(),
            dir: std::env::temp_dir().join(format!(
                "div_conformance_{}_{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            )),
        };
        std::fs::create_dir_all(&attached.dir).map_err(|e| e.to_string())?;
        for (name, relation) in registered.tables() {
            let path = attached.dir.join(format!("{name}.divcol"));
            TableWriter::write_relation(&path, relation, ATTACHED_CHUNK_ROWS)
                .and_then(|()| TableReader::open(&path))
                .map(|reader| attached.catalog.register_external(name, Arc::new(reader)))
                .map_err(|e| format!("attaching {name}: {e}"))?;
        }
        Ok(attached)
    }
}

impl Drop for AttachedCatalog {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run one case through the full matrix. `Ok` carries execution tallies;
/// `Err` carries the first mismatch found.
pub fn check_case(spec: &CaseSpec) -> Result<CaseReport, Box<Mismatch>> {
    let catalog = spec.catalog();
    let mismatch = |formulation: &str, strategy: &str, detail: String| {
        Box::new(Mismatch {
            seed: spec.seed,
            formulation: formulation.to_string(),
            strategy: strategy.to_string(),
            detail,
            case: format!("{spec}"),
        })
    };

    let reference = div_expr::evaluate(&spec.native_plan(), &catalog).map_err(|e| {
        mismatch(
            "native",
            "reference",
            format!("reference evaluation failed: {e}"),
        )
    })?;
    let canonical_reference = canonicalize(&reference);
    let attached = AttachedCatalog::of(&catalog)
        .map_err(|e| mismatch("native", "stream/raw/b3/attached", e))?;

    let mut report = CaseReport::default();
    for formulation in spec.formulations() {
        report.formulations += 1;

        // The formulation's own logical plan (parameters substituted): its
        // evaluation is the exact expected result, and its optimized form
        // is what the `reference/opt` strategy evaluates.
        let logical = match &formulation.form {
            QueryForm::Sql { params, .. } => {
                // Translate the literal-substituted rendering: the engine
                // paths still run the `$param` text where present.
                let literal_sql = if params.is_empty() {
                    match &formulation.form {
                        QueryForm::Sql { sql, .. } => sql.clone(),
                        QueryForm::Logical(_) => unreachable!(),
                    }
                } else {
                    spec.divide_by_sql(false)
                };
                let query = div_sql::parse_query(&literal_sql).map_err(|e| {
                    mismatch(formulation.name, "parse", format!("`{literal_sql}`: {e}"))
                })?;
                div_sql::translate_query(&query, &catalog).map_err(|e| {
                    mismatch(
                        formulation.name,
                        "translate",
                        format!("`{literal_sql}`: {e}"),
                    )
                })?
            }
            QueryForm::Logical(plan) => plan.clone(),
        };
        let expected = div_expr::evaluate(&logical, &catalog).map_err(|e| {
            mismatch(
                formulation.name,
                "reference",
                format!("evaluation failed: {e}"),
            )
        })?;
        if canonicalize(&expected) != canonical_reference {
            return Err(mismatch(
                formulation.name,
                "reference",
                format!(
                    "formulation disagrees with the native reference\nexpected (canonical): {}\nactual (canonical): {}",
                    render(&canonicalize(&reference)),
                    render(&canonicalize(&expected)),
                ),
            ));
        }

        let optimized = optimize(&logical, &catalog);
        for (strategy, tally) in STRATEGIES.iter().zip(&mut report.strategies) {
            let Some(batch_size) = strategy.batch_size else {
                let relation = div_expr::evaluate(&optimized, &catalog).map_err(|e| {
                    mismatch(
                        formulation.name,
                        strategy.name,
                        format!("evaluation of the optimized plan failed: {e}"),
                    )
                })?;
                report.executions += 1;
                tally.executed += 1;
                if relation != expected {
                    return Err(mismatch(
                        formulation.name,
                        strategy.name,
                        format!(
                            "the optimized plan disagrees with the original\nexpected: {}\nactual: {}",
                            render(&expected),
                            render(&relation),
                        ),
                    ));
                }
                continue;
            };
            let mut config = PlannerConfig::with_batch_size(batch_size);
            if let Some(budget) = strategy.budget {
                config = config.memory_budget_rows(budget).spill_to_disk(true);
            }
            let tables = if strategy.attached {
                &attached.catalog
            } else {
                &catalog
            };
            let mut builder = Engine::builder(tables.clone()).planner_config(config);
            if !strategy.optimize {
                builder = builder.without_optimizer();
            }
            let engine = builder.build();
            let outcome = match &formulation.form {
                QueryForm::Sql { sql, params } if params.is_empty() => {
                    engine.query_collect(sql).map(|o| (o.relation, o.stats))
                }
                QueryForm::Sql { sql, params } => engine
                    .query_collect_with_params(sql, &bind(params))
                    .map(|o| (o.relation, o.stats)),
                QueryForm::Logical(plan) => {
                    engine.execute_logical(plan).map(|o| (o.relation, o.stats))
                }
            };
            let (relation, stats) = match outcome {
                Ok(output) => output,
                // State that cannot spill (a distinct set, a product) may
                // honestly not fit: the typed budget error is the one
                // acceptable non-answer, and only under a budget.
                Err(div_sql::Error::MemoryBudget { .. }) if strategy.budget.is_some() => {
                    tally.declined += 1;
                    continue;
                }
                Err(e) => {
                    return Err(mismatch(
                        formulation.name,
                        strategy.name,
                        format!("execution failed: {e}"),
                    ))
                }
            };
            report.executions += 1;
            tally.executed += 1;
            tally.spilled += usize::from(stats.spill_partitions > 0);
            if relation != expected {
                return Err(mismatch(
                    formulation.name,
                    strategy.name,
                    format!(
                        "result disagrees with the reference evaluator\nexpected: {}\nactual: {}",
                        render(&expected),
                        render(&relation),
                    ),
                ));
            }
            if let Err(detail) = check_stats(&stats, &relation) {
                return Err(mismatch(formulation.name, strategy.name, detail));
            }
            if let Some(budget) = strategy.budget {
                if stats.peak_resident_rows > budget || stats.resident_rows_on_finish != 0 {
                    return Err(mismatch(
                        formulation.name,
                        strategy.name,
                        format!(
                            "budget {budget}: peak_resident_rows = {}, resident_rows_on_finish = {}",
                            stats.peak_resident_rows, stats.resident_rows_on_finish
                        ),
                    ));
                }
            }
            // The engine's catalog shares its entries with this one, so a
            // table it had materialized would show up here.
            if strategy.attached {
                if let Some((name, _)) = attached.catalog.tables().next() {
                    return Err(mismatch(
                        formulation.name,
                        strategy.name,
                        format!("attached table {name} was loaded into the catalog"),
                    ));
                }
            }
        }

        // Prepared-statement rebinding: bind, execute, rebind a different
        // value, rebind the original — each run must match a literal query.
        if let QueryForm::Sql { sql, params } = &formulation.form {
            if !params.is_empty() {
                report.executions += check_rebinding(spec, &catalog, sql, params)
                    .map_err(|detail| mismatch(formulation.name, "prepared/rebind", detail))?;
            } else {
                report.executions += check_plan_cache(spec, &catalog, sql)
                    .map_err(|detail| mismatch(formulation.name, "plan-cache", detail))?;
            }
        }
    }
    Ok(report)
}

/// Prepared-statement rebinding check; returns the number of executions.
fn check_rebinding(
    spec: &CaseSpec,
    catalog: &Catalog,
    sql: &str,
    params: &[(String, Value)],
) -> Result<usize, String> {
    let engine = Engine::new(catalog.clone());
    let prepared = engine
        .prepare(sql)
        .map_err(|e| format!("prepare failed: {e}"))?;
    let mut executions = 0;
    let (name, original) = &params[0];
    let alternates = alternate_values(original);
    for value in [original.clone(), alternates.clone(), original.clone()] {
        let literal_sql = sql.replace(&format!("${name}"), &crate::grammar::sql_literal(&value));
        let expected = engine
            .query_collect(&literal_sql)
            .map_err(|e| format!("literal query `{literal_sql}` failed: {e}"))?
            .relation;
        let bound = Params::new().bind(name.clone(), value.clone());
        let got = prepared
            .execute_collect(&engine, &bound)
            .map_err(|e| format!("prepared execution failed for {value:?}: {e}"))?
            .relation;
        if got != expected {
            return Err(format!(
                "prepared rebinding of {name}={value:?} disagrees with the literal query\nexpected: {}\nactual: {}\ncase:\n{spec}",
                render(&expected),
                render(&got),
            ));
        }
        executions += 2;
    }
    Ok(executions)
}

/// Plan-cache check of one parameter-free SQL statement; returns the number
/// of executions. The mutation halves the divisor, so a one-row divisor
/// becomes empty — the case where a cached plan that relied on a
/// data-dependent law would be unsound if it outlived its snapshot.
fn check_plan_cache(spec: &CaseSpec, catalog: &Catalog, sql: &str) -> Result<usize, String> {
    let reference = |catalog: &Catalog| {
        let query = div_sql::parse_query(sql).map_err(|e| format!("parse failed: {e}"))?;
        let logical = div_sql::translate_query(&query, catalog)
            .map_err(|e| format!("translate failed: {e}"))?;
        div_expr::evaluate(&logical, catalog).map_err(|e| format!("evaluation failed: {e}"))
    };
    let engine = Engine::new(catalog.clone());
    let run = |round: &str, expected: &Relation| {
        let got = engine
            .query_collect(sql)
            .map_err(|e| format!("{round} run failed: {e}"))?
            .relation;
        if &got != expected {
            return Err(format!(
                "{round} run disagrees with the reference evaluator\nexpected: {}\nactual: {}",
                render(expected),
                render(&got),
            ));
        }
        Ok(())
    };
    let expected = reference(catalog)?;
    run("cold", &expected)?;
    run("cached", &expected)?;
    if engine.compile_count() != 1 {
        return Err(format!(
            "the repeated statement compiled {} times",
            engine.compile_count()
        ));
    }

    let mut divisor = spec.divisor.clone();
    divisor.rows.truncate(divisor.rows.len() / 2);
    engine.mutate_catalog(|c| {
        c.register(divisor.name.as_str(), divisor.relation());
    });
    run("post-mutation", &reference(&engine.catalog())?)?;
    Ok(3)
}

fn alternate_values(original: &Value) -> Value {
    match original {
        Value::Int(i) => Value::from((i + 1) % 5),
        Value::Str(s) => Value::from(if &**s == "x" { "y" } else { "x" }),
        other => other.clone(),
    }
}

fn bind(params: &[(String, Value)]) -> Params {
    let mut bound = Params::new();
    for (name, value) in params {
        bound = bound.bind(name.clone(), value.clone());
    }
    bound
}

fn optimize(plan: &LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let ctx = RewriteContext::with_catalog(catalog);
    Optimizer::new()
        .optimize(plan, &ctx)
        .map(|o| o.plan)
        .unwrap_or_else(|_| plan.clone())
}

/// `ExecStats` / span-tree invariants shared by every executing strategy.
pub fn check_stats(stats: &ExecStats, relation: &Relation) -> Result<(), String> {
    if stats.output_rows != relation.len() {
        return Err(format!(
            "output_rows = {} but the result has {} tuples",
            stats.output_rows,
            relation.len()
        ));
    }
    if stats.output_rows > 0 && stats.peak_resident_batches == 0 {
        return Err("streaming run produced rows with peak_resident_batches = 0".to_string());
    }

    let ops = &stats.operators;
    if ops.is_empty() {
        return Ok(());
    }
    let max_probe = ops.iter().map(|o| o.probes).max().unwrap_or(0);
    if stats.probes < max_probe {
        return Err(format!(
            "aggregate probes ({}) below a single operator's probes ({max_probe})",
            stats.probes
        ));
    }
    let mut seen_as_child = vec![false; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        if op.id.0 != i {
            return Err(format!("operator {i} carries id {}", op.id.0));
        }
        for child in &op.children {
            if child.0 <= i || child.0 >= ops.len() {
                return Err(format!(
                    "operator {i} ({}) links child {} outside pre-order range",
                    op.label, child.0
                ));
            }
            if seen_as_child[child.0] {
                return Err(format!("operator {} has two parents", child.0));
            }
            seen_as_child[child.0] = true;
        }
    }
    if ops[0].rows_out != stats.output_rows {
        return Err(format!(
            "root operator {} reports rows_out = {} but output_rows = {}",
            ops[0].label, ops[0].rows_out, stats.output_rows
        ));
    }
    for op in ops {
        let monotone = ["Filter", "Project", "Rename", "Intersect"]
            .iter()
            .any(|p| op.label.starts_with(p));
        if monotone && op.rows_out > op.rows_in {
            return Err(format!(
                "operator {} grew its input: rows_in = {}, rows_out = {}",
                op.label, op.rows_in, op.rows_out
            ));
        }
    }
    Ok(())
}

fn canonicalize(relation: &Relation) -> Relation {
    let mut names = relation.schema().names();
    names.sort_unstable();
    relation
        .project(&names)
        .expect("projection onto a relation's own columns")
}

fn render(relation: &Relation) -> String {
    let rows: Vec<String> = relation
        .tuples()
        .map(|t| {
            t.values()
                .iter()
                .map(crate::grammar::render_value)
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    format!(
        "[{}] {{{}}}",
        relation.schema().names().join(", "),
        rows.join("; ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::CaseSpec;

    #[test]
    fn a_spread_of_seeds_passes_the_full_matrix() {
        for seed in 0..40u64 {
            let spec = CaseSpec::generate(seed);
            if let Err(m) = check_case(&spec) {
                panic!("{m}");
            }
        }
    }

    #[test]
    fn reports_count_formulations_and_executions() {
        let spec = CaseSpec::generate(3);
        let report = check_case(&spec).expect("seed 3 conforms");
        assert!(report.formulations >= 2);
        // Every unbudgeted strategy answers every formulation; the budgeted
        // one answers or declines.
        assert!(report.executions >= 6 * report.formulations);
        for (name, tally) in STRATEGY_NAMES.iter().zip(&report.strategies) {
            assert_eq!(
                tally.executed + tally.declined,
                report.formulations,
                "{name}"
            );
            assert!(
                tally.declined == 0 || *name == "stream/raw/b3/spill",
                "{name} declined"
            );
        }
    }
}
