//! The [`Engine`] facade: the paper's whole pipeline behind one session API.
//!
//! Wiring the parser straight into the physical planner would *skip the
//! contribution of the paper* — the seventeen rewrite laws and the cost
//! model that picks among the plans they generate. [`Engine::query`] runs
//! the full pipeline with the optimizer in the loop by default:
//!
//! ```text
//! SQL text ──parse──► AST ──translate──► LogicalPlan
//!          ──optimize (laws + cost model)──► LogicalPlan
//!          ──plan──► PhysicalPlan ──stream──► Cursor (batches, ExecStats)
//! ```
//!
//! Execution is *streaming by default*: [`Engine::query`] returns a
//! [`Cursor`] — an iterator of [`ColumnarBatch`]es driven by the pull-based
//! executor of [`div_physical::stream`]. Pipelineable operators run
//! chunk-at-a-time, only genuinely blocking operators buffer, and a
//! consumer that stops early (drop, `take(n)`) short-circuits the source
//! scans. [`Engine::query_collect`] keeps the pre-cursor one-call shape
//! ([`QueryOutput`]) for callers that want the whole relation at once.
//!
//! On top of the pipeline the engine adds the session features a system
//! serving repeated traffic needs:
//!
//! * **A plan cache behind every SQL entry point**: the optimized physical
//!   plan is a pure function of (SQL text, catalog snapshot), so it is
//!   compiled once and cached under the SQL text. A repeated ad-hoc
//!   [`Engine::query`] and an explicit [`Engine::prepare`] are answered
//!   from the same bounded cache; each statement takes one catalog snapshot
//!   and both validates and executes its plan against it.
//! * **Prepared statements** ([`Engine::prepare`]): every execution re-binds
//!   the statement's `$name` parameters and streams the cached plan,
//!   skipping parse, translate, optimization and planning entirely. The
//!   statement records the catalog version it was compiled against and
//!   refuses to run against a mutated catalog ([`Error::StalePlan`]).
//! * **EXPLAIN** ([`Engine::explain`], [`Engine::explain_analyze`]): a
//!   structured [`Explain`] report — logical plan before and after the
//!   rewrite, the laws that fired, cost estimates, the chosen physical
//!   operators, and (for `explain_analyze`) the measured [`ExecStats`],
//!   including a per-operator span tree that lines cost-model estimates up
//!   against actual row counts, wall time, hash probes and resident rows.
//!
//! The engine is also **observable**: every query updates the session-wide
//! [`EngineMetrics`] registry (throughput
//! counters, pipeline time split, latency histogram, per-law application
//! counts — read it with [`Engine::metrics`]), and per-operator wall-clock
//! tracing can be switched on for ordinary queries with
//! [`EngineBuilder::with_tracing`] (`explain_analyze` always traces).
//!
//! ```
//! use div_algebra::relation;
//! use div_expr::Catalog;
//! use div_sql::{Engine, Params};
//!
//! let mut catalog = Catalog::new();
//! catalog.register("supplies", relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] });
//! catalog.register("parts", relation! { ["p#", "color"] => [1, "blue"], [2, "blue"] });
//! let engine = Engine::new(catalog);
//!
//! // Ad-hoc query, optimizer in the loop; the cursor streams batches.
//! let cursor = engine.query(
//!     "SELECT s# FROM supplies AS s DIVIDE BY \
//!      (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#",
//! )?;
//! assert_eq!(cursor.collect_relation()?, relation! { ["s#"] => [1] });
//!
//! // Compile once, run many: the color literal becomes a parameter.
//! let stmt = engine.prepare(
//!     "SELECT s# FROM supplies AS s DIVIDE BY \
//!      (SELECT p# FROM parts WHERE color = $color) AS p ON s.p# = p.p#",
//! )?;
//! let blue = stmt.execute_collect(&engine, &Params::new().bind("color", "blue"))?;
//! assert_eq!(blue.relation, relation! { ["s#"] => [1] });
//! # Ok::<(), div_sql::Error>(())
//! ```

use crate::error::Error;
use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::{parse_query, translate_query};
use div_algebra::{Relation, Schema, Value};
use div_columnar::ColumnarBatch;
use div_expr::{Catalog, LogicalPlan};
use div_physical::{
    plan_query, ExecStats, OperatorStats, PhysicalPlan, PlannerConfig, QueryGuard, StreamExecutor,
};
use div_rewrite::engine::AppliedRule;
use div_rewrite::optimizer::{CostEstimate, CostModel};
use div_rewrite::{OptimizedPlan, Optimizer, RewriteContext, RuleSet};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Result alias of the engine API.
pub type Result<T> = std::result::Result<T, Error>;

/// Values for the `$name` parameters of a statement.
///
/// ```
/// use div_sql::Params;
/// let params = Params::new().bind("color", "blue").bind("min", 3i64);
/// assert_eq!(params.len(), 2);
/// assert!(params.get("color").is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    values: BTreeMap<String, Value>,
}

impl Params {
    /// No bindings.
    pub fn new() -> Self {
        Params::default()
    }

    /// This set of bindings with `name` bound to `value` (builder style).
    pub fn bind(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.values.insert(name.into(), value.into());
        self
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no parameter is bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over the bound names.
    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.values.keys().map(String::as_str)
    }

    pub(crate) fn map(&self) -> &BTreeMap<String, Value> {
        &self.values
    }
}

/// The result of collecting a whole statement: the relation plus the
/// executor's statistics. Produced by [`Cursor::collect`] and the
/// `*_collect` compatibility shims ([`Engine::query_collect`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The result relation.
    pub relation: Relation,
    /// Per-operator row counts and intermediate-result sizes.
    pub stats: ExecStats,
}

/// An incrementally consumable query result: a handle on a running
/// streaming execution ([`div_physical::stream`]).
///
/// A cursor is an `Iterator` over columnar result batches. Batches are
/// produced on demand — upstream operators run only as far as the consumer
/// pulls, so dropping the cursor early (or taking only the first `n`
/// batches) short-circuits the source scans. The result schema is known
/// up front via [`Cursor::schema`]; [`Cursor::collect_relation`] /
/// [`Cursor::collect`] drain the stream into a whole [`Relation`], and
/// [`Cursor::finish_stats`] closes the execution and reports what it
/// actually did (for an early-terminated cursor, `rows_scanned` stays below
/// the table cardinality).
///
/// ```
/// use div_algebra::relation;
/// use div_expr::Catalog;
/// use div_sql::Engine;
///
/// let mut catalog = Catalog::new();
/// catalog.register("parts", relation! { ["p#", "color"] => [1, "blue"], [2, "red"] });
/// let engine = Engine::new(catalog);
/// let cursor = engine.query("SELECT p# FROM parts WHERE color = 'blue'")?;
/// let mut rows = 0;
/// for batch in cursor {
///     rows += batch?.num_rows();
/// }
/// assert_eq!(rows, 1);
/// # Ok::<(), div_sql::Error>(())
/// ```
/// A cursor is **self-contained**: the streaming operator tree inside it
/// holds shared snapshot handles to the tables it scans (not borrows of the
/// engine's catalog), so an open cursor keeps streaming consistent
/// pre-mutation data even while [`Engine::mutate_catalog`] swaps the
/// catalog underneath it — the snapshot-isolation contract concurrent
/// serving relies on.
#[derive(Debug)]
pub struct Cursor {
    exec: Option<StreamExecutor>,
    schema: Schema,
    failed: bool,
    rows: u64,
    opened: Instant,
    metrics: Option<Arc<EngineMetrics>>,
}

impl Cursor {
    /// Start a streaming execution of `physical` over `catalog` — the one
    /// constructor, behind [`Engine::query`], [`Engine::query_guarded`] and
    /// [`PreparedStatement::execute`]; it does *not* check for unbound
    /// parameters (the engine does). The compiled operator tree captures
    /// shared handles to the scanned tables, so the returned cursor does
    /// not borrow `catalog`. The guard's deadline (if any) was armed when
    /// the guard was built, so callers should build it immediately before
    /// opening the cursor.
    pub(crate) fn over_guarded(
        physical: &PhysicalPlan,
        catalog: &Catalog,
        config: &PlannerConfig,
        guard: QueryGuard,
    ) -> Result<Cursor> {
        let exec = StreamExecutor::with_guard(physical, catalog, config, guard)?;
        let schema = exec.schema().clone();
        Ok(Cursor {
            exec: Some(exec),
            schema,
            failed: false,
            rows: 0,
            opened: Instant::now(),
            metrics: None,
        })
    }

    /// Attach the engine's metrics registry: the cursor reports its row
    /// count and execution latency there exactly once, when it finishes
    /// (collect, `finish_stats` or drop — whichever comes first).
    pub(crate) fn with_metrics(mut self, metrics: Arc<EngineMetrics>) -> Cursor {
        self.metrics = Some(metrics);
        self
    }

    /// Report this execution to the metrics registry (idempotent: the
    /// registry reference is taken on first use; [`Drop`] calls this too).
    fn record_metrics(&mut self) {
        if let Some(metrics) = self.metrics.take() {
            metrics.record_execution(self.rows, self.opened.elapsed());
        }
    }

    /// The result schema (available before any batch is pulled).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Drain the remaining batches into a relation and discard the
    /// statistics. See [`Cursor::collect`] to keep both.
    pub fn collect_relation(self) -> Result<Relation> {
        Ok(self.collect()?.relation)
    }

    /// Drain the remaining batches into a [`QueryOutput`] (relation plus
    /// the execution statistics, including the streaming executor's
    /// peak-resident-batch accounting).
    pub fn collect(mut self) -> Result<QueryOutput> {
        let mut relation = Relation::empty(self.schema.clone());
        let mut exec = self.exec.take().expect("cursor not yet finished");
        loop {
            match exec.next_batch() {
                Ok(Some(batch)) => {
                    self.rows += batch.num_rows() as u64;
                    for i in 0..batch.num_rows() {
                        relation
                            .insert(batch.row(i))
                            .map_err(div_expr::ExprError::from)?;
                    }
                }
                Ok(None) => break,
                Err(err) => return Err(err.into()),
            }
        }
        let stats = exec.finish();
        if let Some(metrics) = &self.metrics {
            metrics.record_exec_stats(&stats);
        }
        self.record_metrics();
        Ok(QueryOutput { relation, stats })
    }

    /// Close the execution without consuming further batches and return
    /// the statistics of what actually ran — after `take(n)`-style early
    /// termination, `rows_scanned` stays strictly below the scanned
    /// tables' cardinality.
    pub fn finish_stats(mut self) -> ExecStats {
        let stats = self.exec.take().expect("cursor not yet finished").finish();
        if let Some(metrics) = &self.metrics {
            metrics.record_exec_stats(&stats);
        }
        self.record_metrics();
        stats
    }
}

impl Iterator for Cursor {
    type Item = Result<ColumnarBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.exec.as_mut()?.next_batch() {
            Ok(Some(batch)) => {
                self.rows += batch.num_rows() as u64;
                Some(Ok(batch))
            }
            Ok(None) => None,
            Err(err) => {
                self.failed = true;
                Some(Err(err.into()))
            }
        }
    }
}

impl Drop for Cursor {
    fn drop(&mut self) {
        // An abandoned cursor (early drop, error mid-stream) still counts
        // as one execution; `record_metrics` is a no-op when the cursor
        // already reported on collect/finish.
        self.record_metrics();
    }
}

/// Builder for a customized [`Engine`].
///
/// ```
/// use div_expr::Catalog;
/// use div_physical::PlannerConfig;
/// use div_rewrite::optimizer::CostModel;
/// use div_rewrite::RuleSet;
/// use div_sql::Engine;
///
/// let engine = Engine::builder(Catalog::new())
///     .planner_config(PlannerConfig::with_batch_size(256))
///     .rule_set(RuleSet::default_rules())
///     .cost_model(CostModel::default())
///     .build();
/// assert_eq!(engine.planner_config().batch_size, 256);
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    catalog: Catalog,
    config: PlannerConfig,
    rules: RuleSet,
    cost_model: CostModel,
    optimize: bool,
}

impl EngineBuilder {
    /// Replace the planner configuration (streaming `batch_size`, tracing,
    /// governance limits). The engine always executes through
    /// the streaming path.
    pub fn planner_config(mut self, config: PlannerConfig) -> Self {
        self.config = config;
        self
    }

    /// Replace the rewrite rule set the optimizer searches over.
    pub fn rule_set(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Replace the cost model the optimizer ranks plans with.
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Disable the rewrite optimizer: plans go from the translator straight
    /// to the physical planner, like the pre-engine pipeline. Useful for
    /// differential testing and for measuring what the laws buy.
    pub fn without_optimizer(mut self) -> Self {
        self.optimize = false;
        self
    }

    /// Set a default wall-clock deadline for every query this engine runs —
    /// shorthand for [`PlannerConfig::deadline`]. The clock starts when each
    /// cursor opens; a query that outlives it aborts at its next batch
    /// boundary with [`Error::DeadlineExceeded`]. Per-query guards
    /// ([`Engine::query_guarded`]) override this default.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.config = self.config.deadline(deadline);
        self
    }

    /// Set a default resident-row memory budget for every query this engine
    /// runs — shorthand for [`PlannerConfig::memory_budget_rows`]. A query
    /// whose executor-resident footprint (in-flight batches plus blocking
    /// state) exceeds the budget aborts with [`Error::MemoryBudget`].
    /// Per-query guards ([`Engine::query_guarded`]) override this default.
    pub fn with_memory_budget(mut self, budget_rows: usize) -> Self {
        self.config = self.config.memory_budget_rows(budget_rows);
        self
    }

    /// Let blocking hash operators spill to disk instead of aborting when
    /// the memory budget would trip — shorthand for
    /// [`PlannerConfig::spill_to_disk`]. It applies to any budget a
    /// statement's guard carries — [`EngineBuilder::with_memory_budget`],
    /// a serving session's default, a caller's guard built with
    /// `QueryGuard::from_config(engine.planner_config())` — and is inert
    /// without one: there is no pressure signal. Results are byte-identical
    /// to the in-memory run; `ExecStats::spill_partitions` (and the
    /// `spill` counters in [`crate::MetricsSnapshot`]) show whether a query
    /// actually spilled.
    pub fn with_spill_to_disk(mut self, spill: bool) -> Self {
        self.config = self.config.spill_to_disk(spill);
        self
    }

    /// Switch per-operator wall-clock tracing on (or off) for ordinary
    /// queries — shorthand for setting [`PlannerConfig::tracing`].
    ///
    /// With tracing on, every execution's [`ExecStats::operators`] span tree
    /// carries open/next/close wall time per operator. Row, probe and
    /// resident-row attribution is always on regardless of this flag; it
    /// only gates the clock reads. Defaults to `false`;
    /// [`Engine::explain_analyze`] always traces its execution.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.config.tracing = tracing;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Engine {
        Engine {
            catalog: RwLock::new(Arc::new(self.catalog)),
            config: self.config,
            optimizer: Optimizer::new()
                .with_rules(self.rules)
                .with_cost_model(self.cost_model),
            optimize: self.optimize,
            compile_count: AtomicU64::new(0),
            metrics: Arc::new(EngineMetrics::default()),
            plan_cache: Mutex::new(PlanCache::default()),
        }
    }
}

/// A SQL session: a catalog plus the configured optimize-and-execute
/// pipeline. See the [module documentation](self) for an overview.
///
/// The engine is `Send + Sync` and designed to be shared (`Arc<Engine>`)
/// across threads: the catalog lives behind a snapshot scheme — readers
/// take a cheap [`Arc<Catalog>`] snapshot ([`Engine::catalog`]) that every
/// step of one statement (compile, version check, execute) runs against,
/// while [`Engine::mutate_catalog`] applies writes to a copy and swaps the
/// snapshot in atomically. A statement therefore never observes a
/// half-applied mutation, and open [`Cursor`]s keep streaming their
/// pre-mutation snapshot.
#[derive(Debug)]
pub struct Engine {
    /// The current catalog snapshot. Readers clone the `Arc` (read lock held
    /// only for the clone); `mutate_catalog` briefly takes the write lock to
    /// swap in the successor snapshot.
    catalog: RwLock<Arc<Catalog>>,
    config: PlannerConfig,
    optimizer: Optimizer,
    optimize: bool,
    compile_count: AtomicU64,
    metrics: Arc<EngineMetrics>,
    /// The one way SQL text becomes a physical plan: see [`PlanCache`].
    plan_cache: Mutex<PlanCache>,
}

/// Maximum number of statements the engine's plan cache retains.
const PREPARED_CACHE_CAPACITY: usize = 128;

/// Compiled statements keyed by exact SQL text. An entry answers a lookup
/// only for the catalog version it was compiled against, so a catalog
/// mutation invalidates every entry without touching the cache. Bounded by
/// [`PREPARED_CACHE_CAPACITY`]; on overflow the least recently used entry
/// goes, so a stream of one-off statements cannot evict the hot set.
#[derive(Debug, Default)]
struct PlanCache {
    entries: HashMap<String, CacheEntry>,
    /// Logical clock of the recency order: bumped on every hit and insert.
    tick: u64,
}

#[derive(Debug)]
struct CacheEntry {
    statement: PreparedStatement,
    last_used: u64,
}

impl PlanCache {
    /// The cached statement for `sql`, if it was compiled against
    /// `catalog_version`.
    fn get(&mut self, sql: &str, catalog_version: u64) -> Option<PreparedStatement> {
        let entry = self.entries.get_mut(sql)?;
        if entry.statement.catalog_version() != catalog_version {
            return None;
        }
        self.tick += 1;
        entry.last_used = self.tick;
        Some(entry.statement.clone())
    }

    fn insert(&mut self, statement: PreparedStatement) {
        if let Some(entry) = self.entries.get(statement.sql()) {
            // Version stamps only grow: a compilation that raced a catalog
            // mutation must not replace the plan of the newer snapshot.
            if entry.statement.catalog_version() > statement.catalog_version() {
                return;
            }
        } else if self.entries.len() >= PREPARED_CACHE_CAPACITY {
            let coldest = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(sql, _)| sql.clone());
            if let Some(coldest) = coldest {
                self.entries.remove(&coldest);
            }
        }
        self.tick += 1;
        self.entries.insert(
            statement.sql().to_string(),
            CacheEntry {
                statement,
                last_used: self.tick,
            },
        );
    }
}

/// A statement compiled down to its optimized physical plan.
///
/// Produced by [`Engine::prepare`]; executed with
/// [`PreparedStatement::execute`]. The expensive pipeline (parse → translate
/// → optimize → plan) ran exactly once, at prepare time; each execution only
/// substitutes the `$name` parameter bindings into a copy of the cached plan
/// template and runs it.
///
/// The statement is a handle: clones (and the engine's plan cache) share one
/// compiled value.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    inner: Arc<StatementInner>,
}

#[derive(Debug)]
struct StatementInner {
    sql: String,
    template: Arc<PhysicalPlan>,
    parameters: BTreeSet<String>,
    catalog_version: u64,
    applied: Vec<AppliedRule>,
}

/// What one compilation produced (shared by `query`, `prepare`, `explain`).
struct Compiled {
    logical: LogicalPlan,
    optimized: LogicalPlan,
    applied: Vec<AppliedRule>,
    cost_before: CostEstimate,
    cost_after: CostEstimate,
    alternatives_considered: usize,
    physical: PhysicalPlan,
}

impl Engine {
    /// An engine over `catalog` with the default planner configuration, the
    /// full default rule set and the default cost model — the optimizer is
    /// **in the loop by default**.
    pub fn new(catalog: Catalog) -> Engine {
        Engine::builder(catalog).build()
    }

    /// Start building a customized engine.
    pub fn builder(catalog: Catalog) -> EngineBuilder {
        EngineBuilder {
            catalog,
            config: PlannerConfig::default(),
            rules: RuleSet::default_rules(),
            cost_model: CostModel::default(),
            optimize: true,
        }
    }

    /// The current catalog snapshot.
    ///
    /// The returned handle is immutable and stable: concurrent
    /// [`Engine::mutate_catalog`] calls swap the engine's snapshot but never
    /// change a handle already taken, so a caller that binds the snapshot
    /// once sees one consistent catalog version across any number of reads.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read())
    }

    /// Apply a catalog mutation atomically and swap in the successor
    /// snapshot.
    ///
    /// The closure runs on a private copy of the current catalog (cheap:
    /// tables are shared `Arc` handles, so the copy is metadata-sized);
    /// statements compiled against the old snapshot keep executing it, and
    /// every statement that starts after `mutate_catalog` returns sees the
    /// whole mutation. Mutations that change the catalog (register, drop,
    /// constraint declarations) bump the catalog version, which invalidates
    /// prepared statements ([`Error::StalePlan`]) and the engine's prepared
    /// cache entries.
    ///
    /// ```
    /// use div_algebra::relation;
    /// use div_expr::Catalog;
    /// use div_sql::Engine;
    ///
    /// let engine = Engine::new(Catalog::new());
    /// engine.mutate_catalog(|catalog| {
    ///     catalog.register("parts", relation! { ["p#"] => [1], [2] });
    /// });
    /// assert_eq!(engine.query("SELECT p# FROM parts")?.collect_relation()?.len(), 2);
    /// # Ok::<(), div_sql::Error>(())
    /// ```
    pub fn mutate_catalog<R>(&self, mutate: impl FnOnce(&mut Catalog) -> R) -> R {
        let mut slot = self.catalog.write();
        let mut next = Catalog::clone(&slot);
        let out = mutate(&mut next);
        *slot = Arc::new(next);
        out
    }

    /// The planner configuration in use.
    pub fn planner_config(&self) -> &PlannerConfig {
        &self.config
    }

    /// `true` when the rewrite optimizer runs inside [`Engine::query`] /
    /// [`Engine::prepare`] (the default).
    pub fn optimizer_enabled(&self) -> bool {
        self.optimize
    }

    /// How many compilations (parse → translate → optimize → plan) this
    /// engine has really run. Executing a [`PreparedStatement`] does *not*
    /// compile, which is the point of preparing — and neither does a
    /// repeated ad-hoc [`Engine::query`] of the same SQL text against an
    /// unchanged catalog, which is answered from the plan cache. What still
    /// compiles every time: the first sight of a text, any text after a
    /// catalog mutation, [`Engine::query_with_params`] with bindings,
    /// [`Engine::stream_logical`] and `EXPLAIN`.
    ///
    /// ```
    /// use div_algebra::relation;
    /// use div_expr::Catalog;
    /// use div_sql::{Engine, Params};
    ///
    /// let mut catalog = Catalog::new();
    /// catalog.register("parts", relation! { ["p#", "color"] => [1, "blue"], [2, "red"] });
    /// let engine = Engine::new(catalog);
    /// let stmt = engine.prepare("SELECT p# FROM parts WHERE color = $color")?;
    /// assert_eq!(engine.compile_count(), 1);
    /// for color in ["blue", "red", "blue"] {
    ///     stmt.execute_collect(&engine, &Params::new().bind("color", color))?;
    /// }
    /// assert_eq!(engine.compile_count(), 1); // still one compilation
    /// engine.query("SELECT p# FROM parts")?;
    /// engine.query("SELECT p# FROM parts")?; // served from the plan cache
    /// assert_eq!(engine.compile_count(), 2);
    /// # Ok::<(), div_sql::Error>(())
    /// ```
    pub fn compile_count(&self) -> u64 {
        self.compile_count.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of the session-wide metrics registry:
    /// queries executed, rows returned, the parse/optimize/plan/execute
    /// time split, the execution-latency histogram, plan-cache hits and
    /// misses, and per-rewrite-law application counts.
    ///
    /// The snapshot renders as text ([`fmt::Display`]) or JSON
    /// ([`MetricsSnapshot::to_json`]).
    ///
    /// ```
    /// use div_algebra::relation;
    /// use div_expr::Catalog;
    /// use div_sql::Engine;
    ///
    /// let mut catalog = Catalog::new();
    /// catalog.register("parts", relation! { ["p#"] => [1], [2], [3] });
    /// let engine = Engine::new(catalog);
    /// engine.query("SELECT p# FROM parts")?.collect_relation()?;
    /// let metrics = engine.metrics();
    /// assert_eq!(metrics.queries_executed, 1);
    /// assert_eq!(metrics.rows_returned, 3);
    /// # Ok::<(), div_sql::Error>(())
    /// ```
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Parse `sql`, crediting the time to the metrics registry.
    fn parse_timed(&self, sql: &str) -> Result<crate::Query> {
        let started = Instant::now();
        let query = parse_query(sql)?;
        self.metrics.add_parse(started.elapsed());
        Ok(query)
    }

    /// Open a streaming [`Cursor`] over the result of `sql`.
    ///
    /// The plan comes from the engine's plan cache: the first sight of a
    /// SQL text (and the first after a catalog mutation) parses, translates,
    /// optimizes and plans it; a repeated text is served the cached plan.
    ///
    /// The cursor is an iterator of columnar batches: execution proceeds
    /// only as far as the consumer pulls, so `cursor.take(1)` or an early
    /// drop stops the source scans short. Collect everything with
    /// [`Cursor::collect_relation`], or use [`Engine::query_collect`] for
    /// the one-call materializing form.
    ///
    /// ```
    /// use div_algebra::relation;
    /// use div_expr::Catalog;
    /// use div_sql::Engine;
    ///
    /// let mut catalog = Catalog::new();
    /// catalog.register(
    ///     "supplies",
    ///     relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [3, 1], [3, 2] },
    /// );
    /// let engine = Engine::new(catalog);
    /// let mut cursor = engine.query("SELECT s# FROM supplies WHERE p# = 1")?;
    /// assert_eq!(cursor.schema().names(), vec!["s#"]);
    /// // Batch-at-a-time consumption; each batch is a ColumnarBatch.
    /// let mut rows = 0;
    /// while let Some(batch) = cursor.next() {
    ///     rows += batch?.num_rows();
    /// }
    /// assert_eq!(rows, 3);
    /// let stats = cursor.finish_stats();
    /// assert_eq!(stats.output_rows, 3);
    /// # Ok::<(), div_sql::Error>(())
    /// ```
    ///
    /// Statements with `$name` parameters cannot run ad hoc — prepare them
    /// and bind values, or use [`Engine::query_with_params`].
    pub fn query(&self, sql: &str) -> Result<Cursor> {
        self.open(sql, &Params::new(), None)
    }

    /// [`Engine::query`] with `$name` parameter bindings applied.
    ///
    /// Unlike the prepare/execute path — which must optimize with the
    /// placeholders still unresolved — the bindings are known here, so they
    /// are substituted into the logical plan *before* the optimizer runs and
    /// the query gets the same rewrite search as its all-literal equivalent.
    /// Such a plan depends on the bound values, so it is compiled for this
    /// call alone and never cached; with no bindings this is
    /// [`Engine::query`].
    pub fn query_with_params(&self, sql: &str, params: &Params) -> Result<Cursor> {
        self.open(sql, params, None)
    }

    /// [`Engine::query_with_params`] under an explicit [`QueryGuard`]:
    /// the caller-supplied guard *replaces* the engine's config-derived
    /// default (deadline / budget set at build time), so a serving session
    /// can attach its own [`CancelToken`](div_physical::CancelToken) and
    /// per-session limits. Build the guard immediately before this call —
    /// deadlines are armed at guard construction.
    ///
    /// ```
    /// use div_algebra::relation;
    /// use div_expr::Catalog;
    /// use div_sql::{CancelToken, Engine, Params, QueryGuard};
    ///
    /// let mut catalog = Catalog::new();
    /// catalog.register("parts", relation! { ["p#"] => [1], [2] });
    /// let engine = Engine::new(catalog);
    /// let token = CancelToken::new();
    /// let guard = QueryGuard::default().with_token(token.clone());
    /// let cursor = engine.query_guarded("SELECT p# FROM parts", &Params::new(), guard)?;
    /// token.cancel();
    /// // The next pull observes the trip.
    /// let err = cursor.collect().unwrap_err();
    /// assert!(matches!(err, div_sql::Error::Cancelled { .. }));
    /// # Ok::<(), div_sql::Error>(())
    /// ```
    pub fn query_guarded(&self, sql: &str, params: &Params, guard: QueryGuard) -> Result<Cursor> {
        self.open(sql, params, Some(guard))
    }

    /// The body of every ad-hoc entry point. One snapshot for the whole
    /// statement: the plan is validated (or compiled) against the same
    /// catalog it then executes on, even under concurrent `mutate_catalog`.
    /// Without a caller's `guard` the config-derived one is armed when the
    /// cursor opens.
    fn open(&self, sql: &str, params: &Params, guard: Option<QueryGuard>) -> Result<Cursor> {
        let catalog = self.catalog();
        let guard = || guard.unwrap_or_else(|| QueryGuard::from_config(&self.config));
        if params.is_empty() {
            return self
                .plan_on(sql, &catalog)?
                .open_on(self, &catalog, params, guard());
        }
        // Known bindings go into the logical plan before the optimizer runs,
        // where data-dependent laws may rely on their values: such a plan is
        // this call's alone.
        let query = self.parse_timed(sql)?;
        check_bindings(params, &query.parameters())?;
        let compiled = self.compile_parsed(&query, params, &catalog)?;
        self.cursor_guarded(&compiled.physical, &catalog, &self.config, guard())
    }

    /// The one way SQL text becomes a physical plan: the cached statement
    /// for exactly this text if it was compiled against `catalog`'s version,
    /// else a fresh compilation against `catalog`, which replaces it. The
    /// caller must execute the statement on the same `catalog`.
    fn plan_on(&self, sql: &str, catalog: &Arc<Catalog>) -> Result<PreparedStatement> {
        let catalog_version = catalog.version();
        let cached = self.plan_cache.lock().get(sql, catalog_version);
        self.metrics.record_prepared_cache(cached.is_some());
        if let Some(statement) = cached {
            return Ok(statement);
        }
        // Compile outside the lock. Two threads that miss on one text both
        // compile it: a compilation is shorter than parking the second.
        let query = self.parse_timed(sql)?;
        let parameters = query.parameters();
        let compiled = self.compile_parsed(&query, &Params::new(), catalog)?;
        let statement = PreparedStatement {
            inner: Arc::new(StatementInner {
                sql: sql.to_string(),
                template: Arc::new(compiled.physical),
                parameters,
                catalog_version,
                applied: compiled.applied,
            }),
        };
        self.plan_cache.lock().insert(statement.clone());
        Ok(statement)
    }

    /// [`Engine::query`], fully collected: the compatibility shim that
    /// returns the pre-cursor [`QueryOutput`] (whole relation plus
    /// statistics) in one call.
    pub fn query_collect(&self, sql: &str) -> Result<QueryOutput> {
        self.query(sql)?.collect()
    }

    /// [`Engine::query_with_params`], fully collected (see
    /// [`Engine::query_collect`]).
    pub fn query_collect_with_params(&self, sql: &str, params: &Params) -> Result<QueryOutput> {
        self.query_with_params(sql, params)?.collect()
    }

    /// Optimize, plan and execute an already-translated logical plan,
    /// collecting the whole result.
    ///
    /// This is the tail of [`Engine::query_collect`] without the SQL front
    /// end, for callers that build [`LogicalPlan`]s programmatically; use
    /// [`Engine::stream_logical`] for the incremental form.
    pub fn execute_logical(&self, logical: &LogicalPlan) -> Result<QueryOutput> {
        self.stream_logical(logical)?.collect()
    }

    /// Optimize and plan an already-translated logical plan, and open a
    /// streaming [`Cursor`] over the result — the tail of [`Engine::query`]
    /// without the SQL front end.
    pub fn stream_logical(&self, logical: &LogicalPlan) -> Result<Cursor> {
        let catalog = self.catalog();
        self.compile_count.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let optimized = self.optimize_plan(logical, &catalog)?;
        self.metrics.add_optimize(started.elapsed());
        self.metrics.record_laws(&optimized.applied);
        let started = Instant::now();
        let physical = plan_query(&optimized.plan, &self.config)?;
        self.metrics.add_plan(started.elapsed());
        let guard = QueryGuard::from_config(&self.config);
        self.cursor_guarded(&physical, &catalog, &self.config, guard)
    }

    /// Compile `sql` into a [`PreparedStatement`] holding the optimized
    /// physical plan. See [`PreparedStatement`] for the execution contract.
    ///
    /// The statement comes from the same bounded plan cache that serves
    /// [`Engine::query`]: a text already compiled against the unchanged
    /// catalog — by an earlier `prepare` or an ad-hoc query — is not
    /// compiled again (the returned statements share one plan `Arc`);
    /// catalog mutations invalidate cached entries. Hits and misses are
    /// counted in [`Engine::metrics`].
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        self.metrics.record_prepare();
        self.plan_on(sql, &self.catalog())
    }

    /// [`Engine::prepare`] and [`PreparedStatement::execute_guarded`] on
    /// one catalog snapshot: the statement is current for exactly the
    /// catalog the cursor reads, so — unlike the two calls made separately
    /// — this cannot fail with [`Error::StalePlan`], however many
    /// mutations land meanwhile. A serving session re-prepares a stale
    /// statement through this entry.
    pub fn prepare_execute_guarded(
        &self,
        sql: &str,
        params: &Params,
        guard: QueryGuard,
    ) -> Result<(PreparedStatement, Cursor)> {
        let catalog = self.catalog();
        let statement = self.plan_on(sql, &catalog)?;
        let cursor = statement.open_on(self, &catalog, params, guard)?;
        Ok((statement, cursor))
    }

    /// Compile `sql` and report the whole pipeline without executing it.
    pub fn explain(&self, sql: &str) -> Result<Explain> {
        let catalog = self.catalog();
        let compiled = self.compile(sql, &catalog)?;
        Ok(self.explain_from(sql, compiled, None, &catalog))
    }

    /// [`Engine::explain`] plus an actual execution: the report additionally
    /// carries the measured [`ExecStats`]. The execution runs through the
    /// streaming path with per-operator tracing forced **on** (regardless of
    /// [`EngineBuilder::with_tracing`]), so the report annotates every
    /// physical operator with its actual row count, wall time, hash probes
    /// and resident-row peak next to the cost-model estimate. Statements
    /// with parameters cannot be analyzed without bindings — pass them via
    /// [`Engine::explain_analyze_with_params`].
    pub fn explain_analyze(&self, sql: &str) -> Result<Explain> {
        self.explain_analyze_with_params(sql, &Params::new())
    }

    /// [`Engine::explain_analyze`] with `$name` parameter bindings applied.
    pub fn explain_analyze_with_params(&self, sql: &str, params: &Params) -> Result<Explain> {
        let catalog = self.catalog();
        let query = self.parse_timed(sql)?;
        check_bindings(params, &query.parameters())?;
        let compiled = self.compile_parsed(&query, params, &catalog)?;
        // Analysis is explicitly about per-operator behaviour: force the
        // span-timing flag on for this one execution.
        let mut config = self.config;
        config.tracing = true;
        let guard = QueryGuard::from_config(&config);
        let output = self
            .cursor_guarded(&compiled.physical, &catalog, &config, guard)?
            .collect()?;
        Ok(self.explain_from(sql, compiled, Some(output.stats), &catalog))
    }

    fn explain_from(
        &self,
        sql: &str,
        compiled: Compiled,
        stats: Option<ExecStats>,
        catalog: &Catalog,
    ) -> Explain {
        // Cardinality estimates per operator, in the same pre-order the
        // physical plan (and the executors' OperatorId numbering) uses:
        // `plan_query` maps logical nodes to physical operators 1:1, so a
        // pre-order walk of the optimized logical plan lines up with the
        // physical tree.
        let ctx = RewriteContext::with_catalog(catalog);
        let model = self.optimizer.cost_model();
        let mut estimated_rows = Vec::with_capacity(compiled.physical.operator_count());
        compiled
            .optimized
            .visit(&mut |node| estimated_rows.push(model.cardinality(node, &ctx)));
        debug_assert_eq!(estimated_rows.len(), compiled.physical.operator_count());
        Explain {
            sql: sql.to_string(),
            logical: compiled.logical,
            optimized: compiled.optimized,
            applied: compiled.applied,
            cost_before: compiled.cost_before,
            cost_after: compiled.cost_after,
            alternatives_considered: compiled.alternatives_considered,
            physical: compiled.physical,
            estimated_rows,
            batch_size: self.config.batch_size,
            stats,
        }
    }

    fn compile(&self, sql: &str, catalog: &Catalog) -> Result<Compiled> {
        let query = self.parse_timed(sql)?;
        self.compile_parsed(&query, &Params::new(), catalog)
    }

    /// The shared compile pipeline over one catalog snapshot. Known
    /// `params` are bound into the logical plan before optimization (empty
    /// for `prepare`, whose placeholders must survive into the cached
    /// template).
    fn compile_parsed(
        &self,
        query: &crate::Query,
        params: &Params,
        catalog: &Catalog,
    ) -> Result<Compiled> {
        self.compile_count.fetch_add(1, Ordering::Relaxed);
        let mut logical = translate_query(query, catalog)?;
        if !params.is_empty() {
            logical = logical.bind_parameters(params.map());
        }
        let started = Instant::now();
        let optimized = self.optimize_plan(&logical, catalog)?;
        self.metrics.add_optimize(started.elapsed());
        self.metrics.record_laws(&optimized.applied);
        let started = Instant::now();
        let physical = plan_query(&optimized.plan, &self.config)?;
        self.metrics.add_plan(started.elapsed());
        Ok(Compiled {
            logical,
            optimized: optimized.plan,
            applied: optimized.applied,
            cost_before: optimized.original_cost,
            cost_after: optimized.cost,
            alternatives_considered: optimized.alternatives_considered,
            physical,
        })
    }

    fn optimize_plan(&self, logical: &LogicalPlan, catalog: &Catalog) -> Result<OptimizedPlan> {
        let ctx = RewriteContext::with_catalog(catalog);
        if !self.optimize {
            let cost = self.optimizer.cost_model().cost(logical, &ctx);
            return Ok(OptimizedPlan {
                plan: logical.clone(),
                cost,
                original_cost: cost,
                alternatives_considered: 0,
                applied: Vec::new(),
            });
        }
        Ok(self.optimizer.optimize(logical, &ctx)?)
    }

    /// The cursor opener every execution path funnels into: streams a fully
    /// bound physical plan over one catalog snapshot, rejecting plans that
    /// still carry `$name` placeholders. Build `guard` immediately before
    /// the call — its deadline is already running.
    fn cursor_guarded(
        &self,
        physical: &PhysicalPlan,
        catalog: &Catalog,
        config: &PlannerConfig,
        guard: QueryGuard,
    ) -> Result<Cursor> {
        if physical.has_parameters() {
            let parameter = physical
                .parameters()
                .into_iter()
                .next()
                .expect("has_parameters implies at least one name");
            return Err(Error::UnboundParameter { parameter });
        }
        Ok(Cursor::over_guarded(physical, catalog, config, guard)?
            .with_metrics(Arc::clone(&self.metrics)))
    }
}

/// Reject bindings for parameters the statement does not declare.
fn check_bindings(params: &Params, declared: &BTreeSet<String>) -> Result<()> {
    for name in params.names() {
        if !declared.contains(name) {
            return Err(Error::UnknownParameter {
                parameter: name.to_string(),
                expected: declared.iter().cloned().collect(),
            });
        }
    }
    Ok(())
}

impl PreparedStatement {
    /// The SQL text the statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.inner.sql
    }

    /// The `$name` parameters the statement declares.
    pub fn parameters(&self) -> &BTreeSet<String> {
        &self.inner.parameters
    }

    /// The cached physical plan template (parameters still unbound). The
    /// `Arc` is shared, not copied, across [`PreparedStatement::clone`] —
    /// pointer identity demonstrates that executions reuse one compilation.
    pub fn plan(&self) -> &Arc<PhysicalPlan> {
        &self.inner.template
    }

    /// The rewrite laws the optimizer applied when the statement was
    /// prepared.
    pub fn laws_applied(&self) -> &[AppliedRule] {
        &self.inner.applied
    }

    /// Catalog version the statement was compiled against.
    pub fn catalog_version(&self) -> u64 {
        self.inner.catalog_version
    }

    /// Bind `params` into a copy of the cached plan and open a streaming
    /// [`Cursor`] over it on `engine` — no parsing, translation,
    /// optimization or planning happens here. Use
    /// [`PreparedStatement::execute_collect`] for the one-call
    /// materializing form.
    ///
    /// # Errors
    ///
    /// * [`Error::StalePlan`] when the engine's catalog has been mutated
    ///   since [`Engine::prepare`];
    /// * [`Error::UnknownParameter`] when `params` binds a name the
    ///   statement does not declare;
    /// * [`Error::UnboundParameter`] when a declared parameter has no
    ///   binding.
    pub fn execute(&self, engine: &Engine, params: &Params) -> Result<Cursor> {
        let guard = QueryGuard::from_config(engine.planner_config());
        self.execute_guarded(engine, params, guard)
    }

    /// [`PreparedStatement::execute`] under an explicit [`QueryGuard`] —
    /// the caller's guard replaces the engine's config-derived default,
    /// exactly as in [`Engine::query_guarded`].
    pub fn execute_guarded(
        &self,
        engine: &Engine,
        params: &Params,
        guard: QueryGuard,
    ) -> Result<Cursor> {
        // One snapshot for the version check *and* the execution: a
        // concurrent `mutate_catalog` between the two cannot slip a changed
        // catalog under a plan that just passed validation.
        let catalog = engine.catalog();
        let catalog_version = catalog.version();
        if catalog_version != self.inner.catalog_version {
            return Err(Error::StalePlan {
                prepared_version: self.inner.catalog_version,
                catalog_version,
            });
        }
        self.open_on(engine, &catalog, params, guard)
    }

    /// Bind `params` and stream the plan over `catalog`, which the caller
    /// has established to be the snapshot the statement was compiled
    /// against.
    fn open_on(
        &self,
        engine: &Engine,
        catalog: &Catalog,
        params: &Params,
        guard: QueryGuard,
    ) -> Result<Cursor> {
        debug_assert_eq!(catalog.version(), self.inner.catalog_version);
        check_bindings(params, &self.inner.parameters)?;
        let config = engine.planner_config();
        if params.is_empty() {
            // Nothing to substitute — stream the cached template directly
            // (`cursor_guarded` still rejects unbound placeholders).
            return engine.cursor_guarded(&self.inner.template, catalog, config, guard);
        }
        let bound = self.inner.template.bind_parameters(params.map());
        engine.cursor_guarded(&bound, catalog, config, guard)
    }

    /// [`PreparedStatement::execute`], fully collected into a
    /// [`QueryOutput`].
    pub fn execute_collect(&self, engine: &Engine, params: &Params) -> Result<QueryOutput> {
        self.execute(engine, params)?.collect()
    }
}

/// The structured report produced by [`Engine::explain`] /
/// [`Engine::explain_analyze`].
///
/// The [`fmt::Display`] rendering is stable: section headers and their order
/// are part of the API contract (tools may parse them).
#[derive(Debug, Clone)]
pub struct Explain {
    /// The SQL text.
    pub sql: String,
    /// Logical plan as translated from the SQL, before any rewrite.
    pub logical: LogicalPlan,
    /// Logical plan after the cost-based rewrite (equal to `logical` when no
    /// law fired or the optimizer is disabled).
    pub optimized: LogicalPlan,
    /// The law applications the optimizer chose, pass by pass.
    pub applied: Vec<AppliedRule>,
    /// Estimated cost of the original plan.
    pub cost_before: CostEstimate,
    /// Estimated cost of the chosen plan.
    pub cost_after: CostEstimate,
    /// Number of alternative plans the greedy search costed.
    pub alternatives_considered: usize,
    /// The physical plan the engine would execute (parameters unbound).
    pub physical: PhysicalPlan,
    /// Cost-model cardinality estimate per physical operator, indexed by
    /// the operator's pre-order (depth-first) position — the same numbering
    /// as [`div_physical::OperatorId`] and the lines of
    /// [`PhysicalPlan::explain`]. `explain_analyze` lines these up against
    /// the measured per-operator row counts.
    pub estimated_rows: Vec<f64>,
    /// Chunk size of the streaming execution.
    pub batch_size: usize,
    /// Measured execution statistics — `Some` only for
    /// [`Engine::explain_analyze`].
    pub stats: Option<ExecStats>,
}

impl Explain {
    /// Names of the laws that fired, in application order.
    pub fn laws_fired(&self) -> Vec<&str> {
        self.applied.iter().map(|a| a.rule.as_str()).collect()
    }

    /// `true` when the optimizer changed the plan.
    pub fn rewritten(&self) -> bool {
        !self.applied.is_empty()
    }

    /// The measured per-operator span tree, in [`div_physical::OperatorId`]
    /// pre-order — `Some` only for [`Engine::explain_analyze`] reports.
    pub fn operator_stats(&self) -> Option<&[OperatorStats]> {
        self.stats
            .as_ref()
            .filter(|s| !s.operators.is_empty())
            .map(|s| s.operators.as_slice())
    }

    /// A canonical one-line signature of the physical plan: operator labels
    /// in pre-order with children parenthesized, e.g.
    /// `HashDivide(Scan r1, Scan r2)`. Two compilations of the same query
    /// produce equal signatures iff they chose the same physical shape, so
    /// differential harnesses can compare optimizer-on vs optimizer-off
    /// plans (or assert a rewrite actually changed the shape) without
    /// string-diffing the full multi-line rendering.
    pub fn plan_signature(&self) -> String {
        fn walk(plan: &PhysicalPlan, out: &mut String) {
            out.push_str(&plan.label());
            let children = plan.children();
            if children.is_empty() {
                return;
            }
            out.push('(');
            for (i, child) in children.into_iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                walk(child, out);
            }
            out.push(')');
        }
        let mut out = String::new();
        walk(&self.physical, &mut out);
        out
    }

    /// Per-operator estimation error (the *q-error*: the larger of
    /// estimate and actual divided by the smaller, both clamped to ≥ 1, so
    /// a perfect estimate scores 1.0) — `Some` only when the report carries
    /// measured stats whose span tree matches the physical plan.
    ///
    /// This is the feedback signal an adaptive re-optimizer would consume;
    /// see the roadmap's "learned/adaptive re-optimization" item.
    pub fn estimation_errors(&self) -> Option<Vec<f64>> {
        let operators = self.operator_stats()?;
        if operators.len() != self.estimated_rows.len() {
            return None;
        }
        Some(
            operators
                .iter()
                .zip(&self.estimated_rows)
                .map(|(op, &est)| q_error(est, op.rows_out))
                .collect(),
        )
    }
}

/// The q-error of one cardinality estimate: `max(est, actual) / min(est,
/// actual)` with both sides clamped to at least one tuple. Symmetric, and
/// 1.0 means the estimate was exact.
fn q_error(estimated: f64, actual: usize) -> f64 {
    let est = estimated.max(1.0);
    let act = (actual as f64).max(1.0);
    est.max(act) / est.min(act)
}

/// Pre-order walk of the physical tree collecting `(depth, label)` pairs —
/// the same numbering the executors assign [`div_physical::OperatorId`]s in.
fn physical_preorder(plan: &PhysicalPlan, depth: usize, out: &mut Vec<(usize, String)>) {
    out.push((depth, plan.label()));
    for child in plan.children() {
        physical_preorder(child, depth + 1, out);
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXPLAIN {}", self.sql)?;
        writeln!(f, "logical plan (before rewrite):")?;
        for line in self.logical.explain().lines() {
            writeln!(f, "  {line}")?;
        }
        if self.applied.is_empty() {
            writeln!(f, "rewrite: no laws fired")?;
        } else {
            writeln!(f, "rewrite: {} law(s) fired", self.applied.len())?;
            for a in &self.applied {
                writeln!(f, "  pass {}: {} ({})", a.pass, a.rule, a.reference)?;
            }
            writeln!(f, "logical plan (after rewrite):")?;
            for line in self.optimized.explain().lines() {
                writeln!(f, "  {line}")?;
            }
        }
        writeln!(
            f,
            "estimated cost: {:.0} -> {:.0} tuples ({} alternatives considered)",
            self.cost_before.value(),
            self.cost_after.value(),
            self.alternatives_considered
        )?;
        writeln!(
            f,
            "physical plan (execution=streaming, batch_size={}):",
            self.batch_size,
        )?;
        for line in self.physical.explain().lines() {
            writeln!(f, "  {line}")?;
        }
        if let Some(stats) = &self.stats {
            writeln!(f, "execution stats:")?;
            writeln!(
                f,
                "  executed via:        streaming executor (batch_size={})",
                self.batch_size
            )?;
            writeln!(f, "  output rows:         {}", stats.output_rows)?;
            writeln!(f, "  rows scanned:        {}", stats.rows_scanned)?;
            writeln!(f, "  intermediate tuples: {}", stats.intermediate_tuples)?;
            writeln!(f, "  max intermediate:    {}", stats.max_intermediate)?;
            writeln!(f, "  operators executed:  {}", stats.operators_executed)?;
            writeln!(f, "  peak resident rows:  {}", stats.peak_resident_rows)?;
            writeln!(
                f,
                "  peak resident batches: {}",
                stats.peak_resident_batches
            )?;
            if stats.chunks_skipped > 0 {
                writeln!(f, "  chunks skipped:      {}", stats.chunks_skipped)?;
            }
            if stats.spill_partitions > 0 {
                writeln!(f, "  spill partitions:    {}", stats.spill_partitions)?;
                writeln!(f, "  spill rows written:  {}", stats.spill_rows_written)?;
                writeln!(f, "  spill rows read:     {}", stats.spill_rows_read)?;
            }
            self.fmt_operator_tree(f, stats)?;
        }
        Ok(())
    }
}

impl Explain {
    /// Render the annotated per-operator tree of an analyzed report:
    /// actual rows next to the cost-model estimate (with the q-error),
    /// wall-clock time, hash probes and peak resident rows per operator.
    fn fmt_operator_tree(&self, f: &mut fmt::Formatter<'_>, stats: &ExecStats) -> fmt::Result {
        if stats.operators.is_empty() {
            return Ok(());
        }
        let mut shape = Vec::with_capacity(stats.operators.len());
        physical_preorder(&self.physical, 0, &mut shape);
        if shape.len() != stats.operators.len() {
            // A span tree from a different plan shape (should not happen
            // through the engine API); skip the annotation rather than
            // mislabel it.
            return Ok(());
        }
        writeln!(
            f,
            "per-operator stats (est from cost model, err = q-error):"
        )?;
        for (i, (depth, _)) in shape.iter().enumerate() {
            let op = &stats.operators[i];
            let est = self.estimated_rows.get(i).copied();
            write!(
                f,
                "  {}{} rows={}",
                "  ".repeat(*depth),
                op.label,
                op.rows_out
            )?;
            if let Some(est) = est {
                write!(
                    f,
                    " est_rows={} err={:.2}",
                    est.round() as u64,
                    q_error(est, op.rows_out)
                )?;
            }
            writeln!(
                f,
                " time={} probes={} resident={}",
                crate::metrics::fmt_ns(op.total_time_ns()),
                op.probes,
                op.peak_retained_rows
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    const Q2: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                      (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";
    const Q2_PARAM: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                            (SELECT p# FROM parts WHERE color = $color) AS p ON s.p# = p.p#";

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "supplies",
            relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 2] },
        );
        c.register(
            "parts",
            relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
        );
        c
    }

    #[test]
    fn query_runs_the_full_pipeline() {
        let engine = Engine::new(catalog());
        let output = engine.query_collect(Q2).unwrap();
        assert_eq!(output.relation, relation! { ["s#"] => [1], [2] });
        assert_eq!(output.stats.output_rows, 2);
        assert_eq!(engine.compile_count(), 1);
    }

    #[test]
    fn query_rejects_unbound_and_unknown_parameters() {
        let engine = Engine::new(catalog());
        let err = engine.query(Q2_PARAM).unwrap_err();
        assert_eq!(
            err,
            Error::UnboundParameter {
                parameter: "color".into()
            }
        );
        let err = engine
            .query_with_params(Q2_PARAM, &Params::new().bind("colour", "blue"))
            .unwrap_err();
        assert!(matches!(err, Error::UnknownParameter { .. }));
        let ok = engine
            .query_collect_with_params(Q2_PARAM, &Params::new().bind("color", "blue"))
            .unwrap();
        assert_eq!(ok.relation, relation! { ["s#"] => [1], [2] });
    }

    #[test]
    fn parse_errors_surface_as_the_parse_variant() {
        let engine = Engine::new(catalog());
        let err = engine.query("SELECT FROM WHERE").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        let err = engine.query("SELECT x FROM missing").unwrap_err();
        assert!(matches!(
            err,
            Error::Plan(div_expr::ExprError::UnknownTable { .. })
        ));
    }

    #[test]
    fn prepared_statements_skip_recompilation() {
        let engine = Engine::new(catalog());
        let stmt = engine.prepare(Q2_PARAM).unwrap();
        assert_eq!(engine.compile_count(), 1);
        assert_eq!(stmt.parameters().iter().collect::<Vec<_>>(), vec!["color"]);
        let blue = stmt
            .execute_collect(&engine, &Params::new().bind("color", "blue"))
            .unwrap();
        assert_eq!(blue.relation, relation! { ["s#"] => [1], [2] });
        let red = stmt
            .execute_collect(&engine, &Params::new().bind("color", "red"))
            .unwrap();
        assert_eq!(red.relation, relation! { ["s#"] => [2] });
        assert_eq!(engine.compile_count(), 1, "executions must not recompile");
        // Missing binding → error, template unchanged.
        assert!(matches!(
            stmt.execute(&engine, &Params::new()),
            Err(Error::UnboundParameter { .. })
        ));
        assert_eq!(stmt.plan().parameters().len(), 1);
    }

    #[test]
    fn repeated_ad_hoc_queries_are_served_from_the_plan_cache() {
        let engine = Engine::new(catalog());
        let first = engine.query_collect(Q2).unwrap();
        let second = engine.query_collect(Q2).unwrap();
        assert_eq!(first.relation, second.relation);
        assert_eq!(engine.compile_count(), 1, "the second query is a hit");
        // `prepare` is answered from the entry the ad-hoc query filled.
        let stmt = engine.prepare(Q2).unwrap();
        assert!(Arc::ptr_eq(stmt.plan(), engine.prepare(Q2).unwrap().plan()));
        assert_eq!(engine.compile_count(), 1);
        let metrics = engine.metrics();
        assert_eq!(metrics.prepared_cache_misses, 1);
        assert_eq!(metrics.prepared_cache_hits, 3);
        assert_eq!(metrics.statements_prepared, 2, "explicit prepares only");
        assert_eq!(metrics.queries_executed, 2);
    }

    #[test]
    fn catalog_mutation_invalidates_cached_ad_hoc_plans() {
        let engine = Engine::new(catalog());
        let before = engine.query_collect(Q2).unwrap().relation;
        assert_eq!(before, relation! { ["s#"] => [1], [2] });
        engine.mutate_catalog(|c| {
            c.register(
                "parts",
                relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "blue"] },
            );
        });
        let after = engine.query_collect(Q2).unwrap().relation;
        assert_eq!(after, relation! { ["s#"] => [2] }, "the new rows are seen");
        assert_eq!(engine.compile_count(), 2, "the stale entry was recompiled");
        engine.query_collect(Q2).unwrap();
        assert_eq!(engine.compile_count(), 2, "and cached again");
    }

    #[test]
    fn cached_parameterized_plans_still_reject_a_missing_binding() {
        let engine = Engine::new(catalog());
        for _ in 0..2 {
            assert_eq!(
                engine.query(Q2_PARAM).unwrap_err(),
                Error::UnboundParameter {
                    parameter: "color".into()
                }
            );
        }
        assert_eq!(
            engine.compile_count(),
            1,
            "the second call ran the cached plan"
        );
    }

    #[test]
    fn bound_ad_hoc_queries_bypass_the_plan_cache() {
        // Law 4's registry shape: the selection on the divisor is replicated
        // onto the dividend — sound only for a divisor known to be non-empty,
        // so it may fire on a bound literal but never on a cached `$p` plan.
        let mut c = Catalog::new();
        c.register(
            "r1",
            relation! { ["a", "b"] =>
            [1, 1], [1, 4], [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4], [4, 1], [4, 3] },
        );
        c.register("r2", relation! { ["b"] => [1], [3], [4] });
        let engine = Engine::new(c);
        let sql = "SELECT * FROM r1 DIVIDE BY (SELECT * FROM r2 WHERE r2.b < $p) AS d \
                   ON r1.b = d.b";
        let law_4 = |engine: &Engine| {
            let laws = engine.metrics().law_applications;
            laws.iter()
                .filter(|(rule, _)| rule.starts_with("law-04"))
                .map(|(_, n)| *n)
                .sum::<u64>()
        };
        for round in 1..=2u64 {
            let out = engine
                .query_collect_with_params(sql, &Params::new().bind("p", 3i64))
                .unwrap();
            assert_eq!(out.relation, relation! { ["a"] => [1], [2], [3], [4] });
            assert_eq!(
                engine.compile_count(),
                round,
                "bound queries always compile"
            );
            assert_eq!(law_4(&engine), round, "Law 4 fires on the bound literal");
        }
        let metrics = engine.metrics();
        assert_eq!(
            (metrics.prepared_cache_hits, metrics.prepared_cache_misses),
            (0, 0),
            "the cache was not consulted"
        );
        // Nor filled: the cached plan of the same text is compiled now, with
        // `$p` unresolved, and Law 4 stays out of it.
        let stmt = engine.prepare(sql).unwrap();
        assert_eq!(engine.metrics().prepared_cache_misses, 1);
        assert!(stmt
            .laws_applied()
            .iter()
            .all(|a| !a.rule.starts_with("law-04")));
    }

    #[test]
    fn one_off_statements_cannot_evict_the_hot_statement() {
        let engine = Engine::new(catalog());
        engine.query_collect(Q2).unwrap();
        for i in 0..200 {
            let one_off = format!("SELECT s# FROM supplies WHERE p# = {i}");
            engine.query_collect(&one_off).unwrap();
            if i % 100 == 99 {
                // Touched once per 100 one-offs: recent enough to survive a
                // cache of 128 under LRU, whatever its key sorts like.
                engine.query_collect(Q2).unwrap();
            }
        }
        assert_eq!(
            engine.compile_count(),
            201,
            "the hot statement compiled once"
        );
        assert_eq!(
            engine.plan_cache.lock().entries.len(),
            PREPARED_CACHE_CAPACITY,
            "the cache stays bounded"
        );
        assert_eq!(engine.metrics().prepared_cache_hits, 2);
    }

    #[test]
    fn prepare_execute_binds_plan_and_cursor_to_one_snapshot() {
        let engine = Engine::new(catalog());
        let stale = engine.prepare(Q2_PARAM).unwrap();
        engine.mutate_catalog(|c| {
            c.register("new_table", relation! { ["x"] => [1] });
        });
        let blue = Params::new().bind("color", "blue");
        assert!(matches!(
            stale.execute(&engine, &blue),
            Err(Error::StalePlan { .. })
        ));
        let guard = QueryGuard::from_config(engine.planner_config());
        let (fresh, cursor) = engine
            .prepare_execute_guarded(stale.sql(), &blue, guard)
            .unwrap();
        assert_eq!(
            cursor.collect_relation().unwrap(),
            relation! { ["s#"] => [1], [2] }
        );
        assert_eq!(fresh.catalog_version(), engine.catalog().version());
        assert_eq!(
            engine.metrics().statements_prepared,
            1,
            "not an explicit prepare"
        );
    }

    #[test]
    fn prepared_statements_detect_catalog_mutation() {
        let engine = Engine::new(catalog());
        let stmt = engine.prepare(Q2).unwrap();
        assert_eq!(stmt.catalog_version(), engine.catalog().version());
        engine.mutate_catalog(|c| {
            c.register("new_table", relation! { ["x"] => [1] });
        });
        let err = stmt.execute(&engine, &Params::new()).unwrap_err();
        assert!(matches!(err, Error::StalePlan { .. }));
        // Re-preparing against the mutated catalog works again.
        let stmt = engine.prepare(Q2).unwrap();
        assert!(stmt.execute(&engine, &Params::new()).is_ok());
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        fn assert_sendable<T: Send>() {}
        assert_shareable::<Engine>();
        assert_shareable::<PreparedStatement>();
        // A cursor is a single-consumer handle: it moves across threads
        // (sessions) but is never shared.
        assert_sendable::<Cursor>();
    }

    #[test]
    fn open_cursors_stream_their_snapshot_across_mutations() {
        let engine = Engine::builder(catalog())
            .planner_config(PlannerConfig::default().batch_size(1))
            .build();
        let expected = engine.query_collect(Q2).unwrap().relation;
        let mut cursor = engine.query(Q2).unwrap();
        // Pull one batch, then drop every table the plan scans.
        let first = cursor.next().unwrap().unwrap();
        assert_eq!(first.num_rows(), 1);
        engine.mutate_catalog(|c| {
            c.unregister("supplies").unwrap();
            c.unregister("parts").unwrap();
        });
        assert!(engine.query(Q2).is_err(), "new statements see the drop");
        let mut streamed = Relation::empty(cursor.schema().clone());
        streamed.insert(first.row(0)).unwrap();
        for batch in cursor.by_ref() {
            let batch = batch.unwrap();
            for i in 0..batch.num_rows() {
                streamed.insert(batch.row(i)).unwrap();
            }
        }
        assert_eq!(streamed, expected, "snapshot isolation for open cursors");
    }

    #[test]
    fn concurrent_queries_and_mutations_never_mix_catalog_states() {
        use std::sync::atomic::AtomicBool;
        // Two known catalog states: divisor = {1} (state A, answer {1, 2})
        // vs divisor = {1, 2, 3} (state B, answer {2}). Concurrent readers
        // must always see exactly one of the two answers.
        // Every reader issues the same SQL text, so they share one plan-cache
        // entry that the mutator keeps invalidating under them.
        let engine = Arc::new(Engine::new(catalog()));
        let expected_a = engine.query_collect(Q2).unwrap().relation;
        let expected_b = relation! { ["s#"] => [2] };
        let stop = Arc::new(AtomicBool::new(false));
        let mutator = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let blue = relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] };
                let all_blue =
                    relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "blue"] };
                let mut flip = false;
                while !stop.load(Ordering::Relaxed) {
                    let next = if flip { all_blue.clone() } else { blue.clone() };
                    engine.mutate_catalog(|c| {
                        c.unregister("parts").unwrap();
                        c.register("parts", next);
                    });
                    flip = !flip;
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let (a, b) = (expected_a.clone(), expected_b.clone());
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let got = engine.query_collect(Q2).unwrap().relation;
                        assert!(got == a || got == b, "torn catalog state observed: {got:?}");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        mutator.join().unwrap();
        let metrics = engine.metrics();
        assert_eq!(
            metrics.prepared_cache_hits + metrics.prepared_cache_misses,
            1 + 4 * 50,
            "every query went through the plan cache"
        );
    }

    #[test]
    fn prepared_statements_refuse_to_run_on_a_different_engine() {
        // Catalog version stamps are process-globally unique, so a statement
        // prepared on one engine cannot silently execute against another
        // engine's catalog — even when both catalogs were built with the
        // same number of mutations.
        let engine_a = Engine::new(catalog());
        let engine_b = Engine::new(catalog());
        let stmt = engine_a.prepare(Q2).unwrap();
        assert!(stmt.execute(&engine_a, &Params::new()).is_ok());
        assert!(matches!(
            stmt.execute(&engine_b, &Params::new()),
            Err(Error::StalePlan { .. })
        ));
        // An engine over a clone of the same catalog shares the stamp (the
        // data is identical), so the statement remains valid there.
        let engine_c = Engine::new(engine_a.catalog().as_ref().clone());
        assert!(stmt.execute(&engine_c, &Params::new()).is_ok());
    }

    #[test]
    fn explain_reports_pipeline_and_analyze_adds_stats() {
        let engine = Engine::new(catalog());
        let sql = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# \
                   WHERE color = 'blue'";
        let explain = engine.explain(sql).unwrap();
        assert!(explain.rewritten(), "the law should fire on this shape");
        assert!(explain
            .laws_fired()
            .iter()
            .any(|l| l.contains("law-15") || l.contains("law-14")));
        assert!(explain.stats.is_none());
        let rendered = explain.to_string();
        assert!(rendered.contains("logical plan (before rewrite):"));
        assert!(rendered.contains("rewrite:"));
        assert!(rendered.contains("physical plan (execution=streaming, batch_size=1024):"));
        assert!(!rendered.contains("execution stats:"));

        let analyzed = engine.explain_analyze(sql).unwrap();
        let stats = analyzed.stats.as_ref().expect("analyze measures stats");
        assert!(stats.output_rows > 0);
        assert!(analyzed.to_string().contains("execution stats:"));
    }

    #[test]
    fn builder_without_optimizer_disables_rewrites() {
        let engine = Engine::builder(catalog()).without_optimizer().build();
        assert!(!engine.optimizer_enabled());
        let sql = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# \
                   WHERE color = 'blue'";
        let explain = engine.explain(sql).unwrap();
        assert!(!explain.rewritten());
        assert_eq!(explain.logical, explain.optimized);
        // Results agree with the optimizing engine.
        let optimizing = Engine::new(catalog());
        assert_eq!(
            engine.query_collect(sql).unwrap().relation,
            optimizing.query_collect(sql).unwrap().relation
        );
    }

    #[test]
    fn execute_logical_runs_plans_without_the_sql_front_end() {
        use div_expr::PlanBuilder;
        let engine = Engine::new(catalog());
        let plan = PlanBuilder::scan("supplies")
            .divide(
                PlanBuilder::scan("parts")
                    .select(div_algebra::Predicate::eq_value("color", "blue"))
                    .project(["p#"]),
            )
            .build();
        let output = engine.execute_logical(&plan).unwrap();
        assert_eq!(output.relation, relation! { ["s#"] => [1], [2] });
    }

    #[test]
    fn cursor_batches_concatenate_to_the_collected_relation() {
        let engine = Engine::builder(catalog())
            .planner_config(PlannerConfig::default().batch_size(2))
            .build();
        let expected = engine.query_collect(Q2).unwrap().relation;
        let mut cursor = engine.query(Q2).unwrap();
        assert_eq!(cursor.schema().names(), vec!["s#"]);
        let mut streamed = Relation::empty(cursor.schema().clone());
        for batch in cursor.by_ref() {
            let batch = batch.unwrap();
            assert!(batch.num_rows() > 0, "cursors never emit empty batches");
            for i in 0..batch.num_rows() {
                streamed.insert(batch.row(i)).unwrap();
            }
        }
        assert_eq!(streamed, expected);
        let stats = cursor.finish_stats();
        assert_eq!(stats.output_rows, expected.len());
    }

    #[test]
    fn early_terminated_cursor_short_circuits_the_scan() {
        let mut catalog = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..5_000).map(|i| vec![i, i % 3]).collect();
        catalog.register(
            "big",
            div_algebra::Relation::from_rows(["a", "b"], rows).unwrap(),
        );
        let engine = Engine::builder(catalog)
            .planner_config(PlannerConfig::default().batch_size(128))
            .build();
        let mut cursor = engine.query("SELECT a FROM big WHERE b = 0").unwrap();
        let first: Vec<_> = cursor.by_ref().take(1).collect();
        assert_eq!(first.len(), 1);
        let stats = cursor.finish_stats();
        assert!(
            stats.rows_scanned < 5_000,
            "take(1) must stop the scan short, scanned {}",
            stats.rows_scanned
        );
    }

    #[test]
    fn explain_analyze_reports_streaming_peaks() {
        let engine = Engine::new(catalog());
        let analyzed = engine.explain_analyze(Q2).unwrap();
        let stats = analyzed.stats.as_ref().expect("analyze measures stats");
        assert!(stats.peak_resident_batches > 0, "streaming path sets peaks");
        assert!(stats.peak_resident_rows > 0);
        let rendered = analyzed.to_string();
        assert!(rendered.contains("peak resident rows:"));
        assert!(rendered.contains("peak resident batches:"));
    }

    /// A catalog whose self-product is far too large to finish under a tight
    /// limit — the governance tests' runaway workload.
    fn runaway_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..1_500).map(|i| vec![i]).collect();
        catalog.register(
            "l",
            div_algebra::Relation::from_rows(["a"], rows.clone()).unwrap(),
        );
        catalog.register("r", div_algebra::Relation::from_rows(["b"], rows).unwrap());
        catalog
    }

    const RUNAWAY: &str = "SELECT a, b FROM l, r";

    #[test]
    fn engine_default_deadline_aborts_runaway_queries_and_frees_the_session() {
        let engine = Engine::builder(runaway_catalog())
            .planner_config(PlannerConfig::default().batch_size(64))
            .with_deadline(std::time::Duration::from_millis(50))
            .build();
        let err = engine.query(RUNAWAY).unwrap().collect().unwrap_err();
        assert!(
            matches!(err, Error::DeadlineExceeded { limit_ms: 50, .. }),
            "got {err}"
        );
        // The engine is untouched by the abort: a follow-up query under the
        // same default deadline succeeds.
        let out = engine
            .query("SELECT a FROM l WHERE a < 3")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(out.relation.len(), 3);
    }

    #[test]
    fn engine_default_memory_budget_aborts_runaway_queries() {
        let engine = Engine::builder(runaway_catalog())
            .planner_config(PlannerConfig::default().batch_size(64))
            .with_memory_budget(1_000)
            .build();
        let err = engine.query(RUNAWAY).unwrap().collect().unwrap_err();
        assert!(
            matches!(
                err,
                Error::MemoryBudget {
                    budget_rows: 1_000,
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn cancellation_token_aborts_an_open_cursor() {
        let engine = Engine::new(runaway_catalog());
        let token = div_physical::CancelToken::new();
        let guard = QueryGuard::default().with_token(token.clone());
        let mut cursor = engine
            .query_guarded(RUNAWAY, &Params::new(), guard)
            .unwrap();
        assert!(cursor.next().unwrap().is_ok(), "runs until cancelled");
        token.cancel();
        let err = cursor
            .find_map(|batch| batch.err())
            .expect("cancellation must surface");
        assert!(matches!(err, Error::Cancelled { .. }), "got {err}");
    }

    #[test]
    fn aborted_drain_releases_resident_rows_like_a_disconnect() {
        // The satellite-f regression: a deadline/budget abort mid-drain must
        // leave the cursor's resident accounting exactly where a client
        // disconnect would — drained to zero once the cursor closes.
        let engine = Engine::builder(runaway_catalog())
            .planner_config(PlannerConfig::default().batch_size(64))
            .with_memory_budget(1_000)
            .build();
        let mut cursor = engine.query(RUNAWAY).unwrap();
        let err = cursor
            .find_map(|batch| batch.err())
            .expect("budget must trip");
        assert!(matches!(err, Error::MemoryBudget { .. }));
        let stats = cursor.finish_stats();
        assert_eq!(
            stats.resident_rows_on_finish, 0,
            "aborted drain leaked resident accounting"
        );
    }

    #[test]
    fn guarded_prepared_statement_observes_its_token() {
        let engine = Engine::new(runaway_catalog());
        let stmt = engine.prepare(RUNAWAY).unwrap();
        let token = div_physical::CancelToken::new();
        token.cancel();
        let guard = QueryGuard::default().with_token(token);
        let err = stmt
            .execute_guarded(&engine, &Params::new(), guard)
            .unwrap()
            .collect()
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled { .. }), "got {err}");
    }

    #[test]
    fn ungoverned_queries_are_unaffected_by_the_governance_plumbing() {
        let engine = Engine::new(catalog());
        let out = engine.query_collect(Q2).unwrap();
        assert_eq!(out.stats.resident_rows_on_finish, 0);
    }
}
