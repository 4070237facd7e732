//! The [`Engine`] facade: the paper's whole pipeline behind one session API.
//!
//! Wiring the parser straight into the executor would *skip the
//! contribution of the paper* — the seventeen rewrite laws and the cost
//! model that picks among the plans they generate. Every statement enters
//! through one front door, [`Engine::run`], which runs the full pipeline
//! with the optimizer in the loop by default:
//!
//! ```text
//! SQL text ──parse──► AST ──translate──► LogicalPlan
//!          ──optimize (laws + cost model)──► LogicalPlan
//!          ──compile to streams──► Cursor (batches, ExecStats)
//! ```
//!
//! A [`Request`] names what to run — SQL text, a [`PreparedStatement`] or a
//! [`LogicalPlan`] — plus optional `$name` bindings and a [`QueryGuard`].
//! `run` returns a [`Cursor`], an iterator of [`ColumnarBatch`]es pulled
//! from the streaming executor of [`div_physical::stream`]: only blocking
//! operators buffer, and a consumer that stops early (drop, `take(n)`)
//! short-circuits the source scans. [`Cursor::collect`] drains it into a
//! [`QueryOutput`].
//!
//! On top of the pipeline the engine adds the session features a system
//! serving repeated traffic needs:
//!
//! * **A plan cache behind SQL text**: the optimized logical plan is a pure
//!   function of (SQL text, catalog snapshot), so a repeated ad-hoc
//!   statement and an explicit [`Engine::prepare`] are answered from one
//!   bounded cache; each statement validates and executes its plan against
//!   one catalog snapshot.
//! * **Prepared statements** ([`Engine::prepare`]): every execution re-binds
//!   the statement's `$name` parameters and streams the cached plan,
//!   skipping parse, translate and optimization entirely. A statement
//!   refuses to run against a mutated catalog ([`Error::StalePlan`]);
//!   [`Engine::run_fresh`] re-plans it instead.
//! * **EXPLAIN** ([`Engine::explain`], [`Engine::explain_analyze`]): a
//!   structured [`Explain`] report — logical plan before and after the
//!   rewrite, the laws that fired, cost estimates, the physical operators
//!   the plan compiles to, and (for `explain_analyze`) the measured
//!   [`ExecStats`] with a per-operator span tree next to the estimates.
//!
//! Every statement updates the session-wide [`EngineMetrics`] registry
//! ([`Engine::metrics`]); per-operator wall-clock tracing is switched on
//! with [`PlannerConfig::tracing`] (`explain_analyze` always traces).
//!
//! ```
//! use div_algebra::relation;
//! use div_expr::Catalog;
//! use div_sql::{Engine, Params, Request};
//!
//! let mut catalog = Catalog::new();
//! catalog.register("supplies", relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] });
//! catalog.register("parts", relation! { ["p#", "color"] => [1, "blue"], [2, "blue"] });
//! let engine = Engine::new(catalog);
//!
//! // Ad-hoc query, optimizer in the loop; the cursor streams batches.
//! let cursor = engine.run(
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
//! let blue = Params::new().bind("color", "blue");
//! let blue = engine.run(Request::prepared(&stmt).params(blue))?.collect()?;
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
    operator_label, ExecStats, OperatorStats, PlannerConfig, QueryGuard, StreamExecutor,
};
use div_rewrite::optimizer::CostEstimate;
use div_rewrite::{AppliedRule, OptimizedPlan, Optimizer, RewriteContext};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
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
/// executor's statistics. Produced by [`Cursor::collect`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The result relation.
    pub relation: Relation,
    /// Per-operator row counts and intermediate-result sizes.
    pub stats: ExecStats,
}

/// One statement for [`Engine::run`]: what to run, its `$name` bindings and
/// the guard it runs under.
///
/// ```
/// use div_algebra::relation;
/// use div_expr::Catalog;
/// use div_sql::{CancelToken, Engine, Error, QueryGuard, Request};
///
/// let mut catalog = Catalog::new();
/// catalog.register("parts", relation! { ["p#"] => [1], [2] });
/// let engine = Engine::new(catalog);
/// // A caller's guard replaces the engine's default one.
/// let token = CancelToken::new();
/// let guard = QueryGuard::default().with_token(token.clone());
/// let cursor = engine.run(Request::sql("SELECT p# FROM parts").guard(guard))?;
/// token.cancel();
/// // The next pull observes the trip.
/// assert!(matches!(cursor.collect(), Err(Error::Cancelled { .. })));
/// # Ok::<(), div_sql::Error>(())
/// ```
#[derive(Debug)]
pub struct Request<'a> {
    source: Source<'a>,
    params: Params,
    guard: Option<QueryGuard>,
}

/// What a [`Request`] runs.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    Sql(&'a str),
    Prepared(&'a PreparedStatement),
    Plan(&'a LogicalPlan),
}

impl<'a> Request<'a> {
    fn new(source: Source<'a>) -> Self {
        Request {
            source,
            params: Params::new(),
            guard: None,
        }
    }

    /// Run SQL text, planned through the plan cache — or, with
    /// [`Request::params`], compiled for this request alone with the values
    /// bound before the optimizer runs (and never cached).
    pub fn sql(sql: &'a str) -> Self {
        Request::new(Source::Sql(sql))
    }

    /// Run a prepared statement's cached plan with its parameters bound;
    /// [`Error::StalePlan`] once the catalog changed ([`Engine::run_fresh`]
    /// re-plans instead).
    pub fn prepared(statement: &'a PreparedStatement) -> Self {
        Request::new(Source::Prepared(statement))
    }

    /// Optimize and run a logical plan built without SQL; each run counts
    /// as one compilation.
    pub fn plan(plan: &'a LogicalPlan) -> Self {
        Request::new(Source::Plan(plan))
    }

    /// Bind the statement's `$name` parameters.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Run under `guard` instead of the default one armed from the
    /// [`PlannerConfig`] when the cursor opens. Build it immediately before
    /// the run: its deadline is already running.
    pub fn guard(mut self, guard: QueryGuard) -> Self {
        self.guard = Some(guard);
        self
    }
}

impl<'a> From<&'a str> for Request<'a> {
    fn from(sql: &'a str) -> Self {
        Request::sql(sql)
    }
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
/// the table cardinality). However it ends — collected, finished, dropped
/// early or failed mid-stream — the execution reports its rows, latency
/// and [`ExecStats`] to the engine's [`EngineMetrics`] exactly once.
///
/// ```
/// use div_algebra::relation;
/// use div_expr::Catalog;
/// use div_sql::Engine;
///
/// let mut catalog = Catalog::new();
/// catalog.register("parts", relation! { ["p#", "color"] => [1, "blue"], [2, "red"] });
/// let engine = Engine::new(catalog);
/// let cursor = engine.run("SELECT p# FROM parts WHERE color = 'blue'")?;
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
    /// `None` once the execution finished and reported.
    exec: Option<StreamExecutor>,
    schema: Schema,
    failed: bool,
    rows: u64,
    opened: Instant,
    metrics: Arc<EngineMetrics>,
}

impl Cursor {
    /// Close the execution and report it to the metrics registry — the one
    /// point a cursor reports, whichever of collect, `finish_stats` or drop
    /// comes first. `None` when it already did.
    fn finish(&mut self) -> Option<ExecStats> {
        let stats = self.exec.take()?.finish();
        self.metrics
            .record_execution(self.rows, self.opened.elapsed(), &stats);
        Some(stats)
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
        for batch in self.by_ref() {
            let batch = batch?;
            for i in 0..batch.num_rows() {
                relation
                    .insert(batch.row(i))
                    .map_err(div_expr::ExprError::from)?;
            }
        }
        let stats = self.finish().expect("cursor not yet finished");
        Ok(QueryOutput { relation, stats })
    }

    /// Close the execution without consuming further batches and return
    /// the statistics of what actually ran — after `take(n)`-style early
    /// termination, `rows_scanned` stays strictly below the scanned
    /// tables' cardinality.
    pub fn finish_stats(mut self) -> ExecStats {
        self.finish().expect("cursor not yet finished")
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
        // as one execution, spill and chunk-skip counters included.
        self.finish();
    }
}

/// Builder for a customized [`Engine`].
///
/// ```
/// use div_expr::Catalog;
/// use div_physical::PlannerConfig;
/// use div_sql::Engine;
///
/// let engine = Engine::builder(Catalog::new())
///     .planner_config(PlannerConfig::with_batch_size(256))
///     .build();
/// assert_eq!(engine.planner_config().batch_size, 256);
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    catalog: Catalog,
    config: PlannerConfig,
    optimize: bool,
}

impl EngineBuilder {
    /// Replace the planner configuration — the one place an engine's
    /// execution knobs are set: streaming `batch_size`, tracing, and the
    /// default deadline, memory budget and spill preference of every
    /// statement. Per-query guards ([`Request::guard`]) override those
    /// defaults. The engine always executes through the streaming path.
    pub fn planner_config(mut self, config: PlannerConfig) -> Self {
        self.config = config;
        self
    }

    /// Disable the rewrite optimizer: plans go from the translator straight
    /// to the executor, like the pre-engine pipeline. Useful for
    /// differential testing and for measuring what the laws buy.
    pub fn without_optimizer(mut self) -> Self {
        self.optimize = false;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Engine {
        Engine {
            catalog: RwLock::new(Arc::new(self.catalog)),
            config: self.config,
            optimizer: Optimizer::new(),
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
    /// The one way SQL text becomes an executable plan: see [`PlanCache`].
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

/// A statement compiled down to its optimized logical plan.
///
/// Produced by [`Engine::prepare`]; run with [`Request::prepared`]. The
/// expensive pipeline (parse → translate → optimize) ran exactly once, at
/// prepare time; each execution only substitutes the `$name` parameter
/// bindings into a copy of the cached plan template and runs it.
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
    template: Arc<LogicalPlan>,
    parameters: BTreeSet<String>,
    catalog_version: u64,
    applied: Vec<AppliedRule>,
}

/// What one compilation produced: the translated (and bound) logical plan,
/// and what the optimizer made of it.
type Compiled = (LogicalPlan, OptimizedPlan);

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
        Arc::clone(&self.catalog.read().unwrap_or_else(PoisonError::into_inner))
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
    /// assert_eq!(engine.run("SELECT p# FROM parts")?.collect_relation()?.len(), 2);
    /// # Ok::<(), div_sql::Error>(())
    /// ```
    pub fn mutate_catalog<R>(&self, mutate: impl FnOnce(&mut Catalog) -> R) -> R {
        let mut slot = self.catalog.write().unwrap_or_else(PoisonError::into_inner);
        let mut next = Catalog::clone(&slot);
        let out = mutate(&mut next);
        *slot = Arc::new(next);
        out
    }

    /// The planner configuration in use.
    pub fn planner_config(&self) -> &PlannerConfig {
        &self.config
    }

    /// `true` when the rewrite optimizer runs inside [`Engine::run`] /
    /// [`Engine::prepare`] (the default).
    pub fn optimizer_enabled(&self) -> bool {
        self.optimize
    }

    /// How many compilations (parse → translate → optimize) this
    /// engine has really run. Executing a [`PreparedStatement`] does *not*
    /// compile, which is the point of preparing — and neither does a
    /// repeated ad-hoc run of the same SQL text against an unchanged
    /// catalog, which is answered from the plan cache. What still compiles
    /// every time: the first sight of a text, any text after a catalog
    /// mutation, SQL with bound [`Request::params`], a [`Request::plan`]
    /// and `EXPLAIN`.
    ///
    /// ```
    /// use div_algebra::relation;
    /// use div_expr::Catalog;
    /// use div_sql::{Engine, Params, Request};
    ///
    /// let mut catalog = Catalog::new();
    /// catalog.register("parts", relation! { ["p#", "color"] => [1, "blue"], [2, "red"] });
    /// let engine = Engine::new(catalog);
    /// let stmt = engine.prepare("SELECT p# FROM parts WHERE color = $color")?;
    /// assert_eq!(engine.compile_count(), 1);
    /// for color in ["blue", "red", "blue"] {
    ///     let color = Params::new().bind("color", color);
    ///     engine.run(Request::prepared(&stmt).params(color))?.collect()?;
    /// }
    /// assert_eq!(engine.compile_count(), 1); // still one compilation
    /// engine.run("SELECT p# FROM parts")?;
    /// engine.run("SELECT p# FROM parts")?; // served from the plan cache
    /// assert_eq!(engine.compile_count(), 2);
    /// # Ok::<(), div_sql::Error>(())
    /// ```
    pub fn compile_count(&self) -> u64 {
        self.compile_count.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of the session-wide metrics registry:
    /// queries executed, rows returned, the parse/optimize/execute time
    /// split, the execution-latency histogram, plan-cache hits and
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
    /// engine.run("SELECT p# FROM parts")?.collect_relation()?;
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

    /// Run one statement — the engine's one front door — and open a
    /// streaming [`Cursor`] over its result.
    ///
    /// The statement resolves its plan (see [`Request`]) against one catalog
    /// snapshot and streams that same snapshot, even under concurrent
    /// [`Engine::mutate_catalog`]. A plan left with an unbound `$name` is
    /// refused ([`Error::UnboundParameter`]). Execution proceeds only as far
    /// as the consumer pulls, so `cursor.take(1)` or an early drop stops the
    /// source scans short.
    ///
    /// ```
    /// use div_algebra::relation;
    /// use div_expr::Catalog;
    /// use div_sql::Engine;
    ///
    /// let mut catalog = Catalog::new();
    /// catalog.register("supplies", relation! { ["s#", "p#"] => [1, 1], [2, 1], [3, 2] });
    /// let engine = Engine::new(catalog);
    /// let mut cursor = engine.run("SELECT s# FROM supplies WHERE p# = 1")?;
    /// assert_eq!(cursor.schema().names(), vec!["s#"]);
    /// // Batch-at-a-time consumption; each batch is a ColumnarBatch.
    /// let mut rows = 0;
    /// while let Some(batch) = cursor.next() {
    ///     rows += batch?.num_rows();
    /// }
    /// assert_eq!(rows, 2);
    /// let stats = cursor.finish_stats();
    /// assert_eq!(stats.output_rows, 2);
    /// # Ok::<(), div_sql::Error>(())
    /// ```
    pub fn run<'a>(&self, request: impl Into<Request<'a>>) -> Result<Cursor> {
        Ok(self.run_on(request.into(), false)?.0)
    }

    /// [`Engine::run`], except that a stale [`Request::prepared`] statement
    /// is re-planned instead of failing with [`Error::StalePlan`]: its text
    /// goes through the plan cache against the snapshot the cursor reads,
    /// and the fresh statement comes back with the cursor (`None` when
    /// nothing was re-planned). A re-plan is not an explicit prepare.
    pub fn run_fresh<'a>(
        &self,
        request: impl Into<Request<'a>>,
    ) -> Result<(Cursor, Option<PreparedStatement>)> {
        self.run_on(request.into(), true)
    }

    /// The body of [`Engine::run`] and [`Engine::run_fresh`]: resolve the
    /// request's plan against one catalog snapshot and open it there.
    fn run_on(
        &self,
        request: Request<'_>,
        replan_stale: bool,
    ) -> Result<(Cursor, Option<PreparedStatement>)> {
        let Request {
            source,
            params,
            guard,
        } = request;
        let catalog = self.catalog();
        let mut fresh = None;
        let plan = match source {
            Source::Sql(sql) if params.is_empty() => {
                Arc::clone(self.plan_on(sql, &catalog)?.plan())
            }
            Source::Prepared(stale)
                if replan_stale && stale.catalog_version() != catalog.version() =>
            {
                let statement = fresh.insert(self.plan_on(stale.sql(), &catalog)?);
                statement.bind(&catalog, &params)?
            }
            Source::Prepared(statement) => statement.bind(&catalog, &params)?,
            _ => Arc::new(self.compile(source, &params, &catalog)?.1.plan),
        };
        Ok((self.open(&plan, &catalog, &self.config, guard)?, fresh))
    }

    /// Open a cursor over a fully bound `plan` on `catalog`: the one place
    /// a statement starts executing. Rejects plans that still carry `$name`
    /// placeholders; without a caller's `guard`, arms the one `config`
    /// describes.
    fn open(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        config: &PlannerConfig,
        guard: Option<QueryGuard>,
    ) -> Result<Cursor> {
        if plan.contains_parameters() {
            let parameter = plan.parameters().into_iter().next().unwrap_or_default();
            return Err(Error::UnboundParameter { parameter });
        }
        let guard = guard.unwrap_or_else(|| QueryGuard::from_config(config));
        let exec = StreamExecutor::with_guard(plan, catalog, config, guard)?;
        Ok(Cursor {
            schema: exec.schema().clone(),
            exec: Some(exec),
            failed: false,
            rows: 0,
            opened: Instant::now(),
            metrics: Arc::clone(&self.metrics),
        })
    }

    /// Open a streaming [`Cursor`] over the result of `sql`: shorthand for
    /// [`Engine::run`], kept for the `benchmark/` package, which compiles
    /// against it until it moves to `run` (ROADMAP item 1).
    pub fn query(&self, sql: &str) -> Result<Cursor> {
        self.run(sql)
    }

    /// Optimize a logical plan and open a cursor over its result: shorthand
    /// for `run(Request::plan(logical))`, kept for the `benchmark/` package
    /// until it moves to `run` (ROADMAP item 1).
    pub fn stream_logical(&self, logical: &LogicalPlan) -> Result<Cursor> {
        self.run(Request::plan(logical))
    }

    /// The one way SQL text becomes a cached plan: the cached statement
    /// for exactly this text if it was compiled against `catalog`'s version,
    /// else a fresh compilation against `catalog`, which replaces it. The
    /// caller must execute the statement on the same `catalog`.
    fn plan_on(&self, sql: &str, catalog: &Arc<Catalog>) -> Result<PreparedStatement> {
        let catalog_version = catalog.version();
        let cached = self
            .plan_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(sql, catalog_version);
        self.metrics.record_prepared_cache(cached.is_some());
        if let Some(statement) = cached {
            return Ok(statement);
        }
        // Compile outside the lock. Two threads that miss on one text both
        // compile it: a compilation is shorter than parking the second.
        let query = self.parse_timed(sql)?;
        let parameters = query.parameters();
        self.compile_count.fetch_add(1, Ordering::Relaxed);
        let logical = translate_query(&query, catalog)?;
        // No bindings: the placeholders survive into the cached template.
        let (_, optimized) = self.optimize(logical, &Params::new(), catalog)?;
        let statement = PreparedStatement {
            inner: Arc::new(StatementInner {
                sql: sql.to_string(),
                template: Arc::new(optimized.plan),
                parameters,
                catalog_version,
                applied: optimized.applied,
            }),
        };
        self.plan_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(statement.clone());
        Ok(statement)
    }

    /// Compile `sql` into a [`PreparedStatement`] holding the optimized
    /// logical plan, through the plan cache that serves ad-hoc SQL: a text
    /// already compiled against the unchanged catalog is not compiled again
    /// (the returned statements share one plan `Arc`).
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        self.metrics.record_prepare();
        self.plan_on(sql, &self.catalog())
    }

    /// Compile `sql` and report the whole pipeline without executing it.
    pub fn explain(&self, sql: &str) -> Result<Explain> {
        let catalog = self.catalog();
        let compiled = self.compile(Source::Sql(sql), &Params::new(), &catalog)?;
        Ok(self.explain_from(sql, compiled, None, &catalog))
    }

    /// [`Engine::explain`] plus an actual execution of the request: the
    /// report additionally carries the measured [`ExecStats`]. The request
    /// is compiled afresh (a prepared statement from its text), then run
    /// like [`Engine::run`] — under the request's guard, if any — with
    /// per-operator tracing forced **on**, so the report annotates every
    /// operator with its actual row count, wall time, hash probes and
    /// resident-row peak next to the cost-model estimate.
    pub fn explain_analyze<'a>(&self, request: impl Into<Request<'a>>) -> Result<Explain> {
        let Request {
            source,
            params,
            guard,
        } = request.into();
        let catalog = self.catalog();
        let compiled = self.compile(source, &params, &catalog)?;
        let mut config = self.config;
        config.tracing = true;
        let stats = self
            .open(&compiled.1.plan, &catalog, &config, guard)?
            .collect()?
            .stats;
        let sql = match source {
            Source::Sql(sql) => sql,
            Source::Prepared(statement) => statement.sql(),
            Source::Plan(_) => "",
        };
        Ok(self.explain_from(sql, compiled, Some(stats), &catalog))
    }

    fn explain_from(
        &self,
        sql: &str,
        (logical, optimized): Compiled,
        stats: Option<ExecStats>,
        catalog: &Catalog,
    ) -> Explain {
        // Cardinality estimates per operator, in the pre-order the
        // executor numbers its operators (`OperatorId`) in: one operator
        // per node of the optimized plan.
        let ctx = RewriteContext::with_catalog(catalog);
        let model = self.optimizer.cost_model();
        let mut estimated_rows = Vec::with_capacity(optimized.plan.node_count());
        optimized
            .plan
            .visit(&mut |node| estimated_rows.push(model.cardinality(node, &ctx)));
        Explain {
            sql: sql.to_string(),
            logical,
            optimized: optimized.plan,
            applied: optimized.applied,
            cost_before: optimized.original_cost,
            cost_after: optimized.cost,
            alternatives_considered: optimized.alternatives_considered,
            estimated_rows,
            batch_size: self.config.batch_size,
            stats,
        }
    }

    /// Compile a request's source afresh over one catalog snapshot, with
    /// its known `params` bound into the logical plan before optimization.
    fn compile(&self, source: Source<'_>, params: &Params, catalog: &Catalog) -> Result<Compiled> {
        match source {
            Source::Sql(sql) => {
                let query = self.parse_timed(sql)?;
                check_bindings(params, &query.parameters())?;
                self.compile_count.fetch_add(1, Ordering::Relaxed);
                self.optimize(translate_query(&query, catalog)?, params, catalog)
            }
            Source::Prepared(statement) => {
                self.compile(Source::Sql(statement.sql()), params, catalog)
            }
            Source::Plan(plan) => {
                check_bindings(params, &plan.parameters())?;
                self.compile_count.fetch_add(1, Ordering::Relaxed);
                self.optimize(plan.clone(), params, catalog)
            }
        }
    }

    fn optimize(
        &self,
        mut logical: LogicalPlan,
        params: &Params,
        catalog: &Catalog,
    ) -> Result<Compiled> {
        if !params.is_empty() {
            logical = logical.bind_parameters(params.map());
        }
        let started = Instant::now();
        let ctx = RewriteContext::with_catalog(catalog);
        let optimized = if self.optimize {
            self.optimizer.optimize(&logical, &ctx)?
        } else {
            let cost = self.optimizer.cost_model().cost(&logical, &ctx);
            OptimizedPlan {
                plan: logical.clone(),
                cost,
                original_cost: cost,
                alternatives_considered: 0,
                applied: Vec::new(),
            }
        };
        self.metrics.add_optimize(started.elapsed());
        self.metrics.record_laws(&optimized.applied);
        Ok((logical, optimized))
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

    /// The cached optimized plan template (parameters still unbound). The
    /// `Arc` is shared, not copied, across [`PreparedStatement::clone`] —
    /// pointer identity demonstrates that executions reuse one compilation.
    pub fn plan(&self) -> &Arc<LogicalPlan> {
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
    /// [`Cursor`] over it on `engine`: shorthand for
    /// `engine.run(Request::prepared(self).params(params.clone()))`, kept
    /// for the `benchmark/` package until it moves to `run` (ROADMAP
    /// item 1).
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
        engine.run(Request::prepared(self).params(params.clone()))
    }

    /// The plan one execution on `catalog` runs: `params` bound into a copy
    /// of the template, once `catalog` is checked to be the version the
    /// statement was compiled against.
    fn bind(&self, catalog: &Catalog, params: &Params) -> Result<Arc<LogicalPlan>> {
        let catalog_version = catalog.version();
        if catalog_version != self.inner.catalog_version {
            return Err(Error::StalePlan {
                prepared_version: self.inner.catalog_version,
                catalog_version,
            });
        }
        check_bindings(params, &self.inner.parameters)?;
        if params.is_empty() {
            // Nothing to substitute: run the cached template itself (`open`
            // still rejects unbound placeholders).
            return Ok(Arc::clone(&self.inner.template));
        }
        Ok(Arc::new(self.inner.template.bind_parameters(params.map())))
    }
}

/// The structured report produced by [`Engine::explain`] /
/// [`Engine::explain_analyze`].
///
/// The [`fmt::Display`] rendering is stable: section headers and their order
/// are part of the API contract (tools may parse them).
#[derive(Debug, Clone)]
pub struct Explain {
    /// The SQL text (empty for a [`Request::plan`]).
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
    /// Cost-model cardinality estimate per operator, indexed by the
    /// operator's pre-order (depth-first) position in `optimized` — the same
    /// numbering as [`div_physical::OperatorId`] and the lines of the
    /// rendered physical plan section. `explain_analyze` lines these up
    /// against the measured per-operator row counts.
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

    /// A canonical one-line signature of the executed plan: operator labels
    /// ([`operator_label`]) in pre-order with children parenthesized, e.g.
    /// `Divide[hash](TableScan(r1), TableScan(r2))`. Two compilations of the
    /// same query produce equal signatures iff they chose the same shape, so
    /// differential harnesses can compare optimizer-on vs optimizer-off
    /// plans (or assert a rewrite actually changed the shape) without
    /// string-diffing the full multi-line rendering.
    pub fn plan_signature(&self) -> String {
        fn walk(plan: &LogicalPlan, out: &mut String) {
            out.push_str(&operator_label(plan));
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
        walk(&self.optimized, &mut out);
        out
    }

    /// Per-operator estimation error (the *q-error*: the larger of
    /// estimate and actual divided by the smaller, both clamped to ≥ 1, so
    /// a perfect estimate scores 1.0) — `Some` only when the report carries
    /// measured stats whose span tree matches the optimized plan.
    ///
    /// Nothing feeds this back into the optimizer: it is the signal a
    /// calibration of [`CostModel`](div_rewrite::optimizer::CostModel) would
    /// be checked against.
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

/// Write one line per operator of `plan`, indented by depth, in the
/// pre-order the executor numbers operators in.
fn fmt_operators(f: &mut fmt::Formatter<'_>, plan: &LogicalPlan, depth: usize) -> fmt::Result {
    writeln!(f, "  {}{}", "  ".repeat(depth), operator_label(plan))?;
    for child in plan.children() {
        fmt_operators(f, child, depth + 1)?;
    }
    Ok(())
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
        fmt_operators(f, &self.optimized, 0)?;
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
        if stats.operators.is_empty() || stats.operators.len() != self.optimized.node_count() {
            // A span tree from a different plan shape (should not happen
            // through the engine API); skip the annotation rather than
            // mislabel it.
            return Ok(());
        }
        writeln!(
            f,
            "per-operator stats (est from cost model, err = q-error):"
        )?;
        // Ids are pre-order, so a parent's depth is known before its
        // children's.
        let mut depths = vec![0; stats.operators.len()];
        for (i, op) in stats.operators.iter().enumerate() {
            let est = self.estimated_rows.get(i).copied();
            for child in &op.children {
                depths[child.index()] = depths[i] + 1;
            }
            write!(
                f,
                "  {}{} rows={}",
                "  ".repeat(depths[i]),
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
            write!(
                f,
                " time={} probes={} resident={}",
                crate::metrics::fmt_ns(op.total_time_ns()),
                op.probes,
                op.peak_retained_rows
            )?;
            for (phase, ns) in &op.phases {
                write!(f, " {phase}={}", crate::metrics::fmt_ns(*ns))?;
            }
            writeln!(f)?;
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
        let output = engine.run(Q2).unwrap().collect().unwrap();
        assert_eq!(output.relation, relation! { ["s#"] => [1], [2] });
        assert_eq!(output.stats.output_rows, 2);
        assert_eq!(engine.compile_count(), 1);
    }

    #[test]
    fn query_rejects_unbound_and_unknown_parameters() {
        let engine = Engine::new(catalog());
        let err = engine.run(Q2_PARAM).unwrap_err();
        assert_eq!(
            err,
            Error::UnboundParameter {
                parameter: "color".into()
            }
        );
        let err = engine
            .run(Request::sql(Q2_PARAM).params(Params::new().bind("colour", "blue")))
            .unwrap_err();
        assert!(matches!(err, Error::UnknownParameter { .. }));
        let ok = engine
            .run(Request::sql(Q2_PARAM).params(Params::new().bind("color", "blue")))
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(ok.relation, relation! { ["s#"] => [1], [2] });
    }

    #[test]
    fn parse_errors_surface_as_the_parse_variant() {
        let engine = Engine::new(catalog());
        let err = engine.run("SELECT FROM WHERE").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        let err = engine.run("SELECT x FROM missing").unwrap_err();
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
        let run = |color: &str| {
            let params = Params::new().bind("color", color);
            let cursor = engine.run(Request::prepared(&stmt).params(params));
            cursor.unwrap().collect_relation().unwrap()
        };
        assert_eq!(run("blue"), relation! { ["s#"] => [1], [2] });
        assert_eq!(run("red"), relation! { ["s#"] => [2] });
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
        let first = engine.run(Q2).unwrap().collect().unwrap();
        let second = engine.run(Q2).unwrap().collect().unwrap();
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
        let before = engine.run(Q2).unwrap().collect().unwrap().relation;
        assert_eq!(before, relation! { ["s#"] => [1], [2] });
        engine.mutate_catalog(|c| {
            c.register(
                "parts",
                relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "blue"] },
            );
        });
        let after = engine.run(Q2).unwrap().collect().unwrap().relation;
        assert_eq!(after, relation! { ["s#"] => [2] }, "the new rows are seen");
        assert_eq!(engine.compile_count(), 2, "the stale entry was recompiled");
        engine.run(Q2).unwrap().collect().unwrap();
        assert_eq!(engine.compile_count(), 2, "and cached again");
    }

    #[test]
    fn cached_parameterized_plans_still_reject_a_missing_binding() {
        let engine = Engine::new(catalog());
        for _ in 0..2 {
            assert_eq!(
                engine.run(Q2_PARAM).unwrap_err(),
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
                .run(Request::sql(sql).params(Params::new().bind("p", 3i64)))
                .unwrap()
                .collect_relation()
                .unwrap();
            assert_eq!(out, relation! { ["a"] => [1], [2], [3], [4] });
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
        engine.run(Q2).unwrap().collect().unwrap();
        for i in 0..200 {
            let one_off = format!("SELECT s# FROM supplies WHERE p# = {i}");
            engine.run(one_off.as_str()).unwrap().collect().unwrap();
            if i % 100 == 99 {
                // Touched once per 100 one-offs: recent enough to survive a
                // cache of 128 under LRU, whatever its key sorts like.
                engine.run(Q2).unwrap().collect().unwrap();
            }
        }
        assert_eq!(
            engine.compile_count(),
            201,
            "the hot statement compiled once"
        );
        assert_eq!(
            engine.plan_cache.lock().unwrap().entries.len(),
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
        let (cursor, fresh) = engine
            .run_fresh(Request::prepared(&stale).params(blue.clone()))
            .unwrap();
        assert_eq!(
            cursor.collect_relation().unwrap(),
            relation! { ["s#"] => [1], [2] }
        );
        let fresh = fresh.expect("the stale statement was re-planned");
        assert_eq!(fresh.catalog_version(), engine.catalog().version());
        // A current statement runs as it is: nothing to re-plan.
        let (_, again) = engine
            .run_fresh(Request::prepared(&fresh).params(blue))
            .unwrap();
        assert!(again.is_none());
        assert_eq!(
            engine.metrics().statements_prepared,
            1,
            "not an explicit prepare"
        );
    }

    #[test]
    fn a_panicking_catalog_mutation_leaves_the_engine_serving() {
        let engine = Engine::new(catalog());
        let before = engine.catalog();
        let expected = engine.run(Q2).unwrap().collect_relation().unwrap();
        // The closure panics while `mutate_catalog` holds the write lock,
        // which poisons it.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.mutate_catalog(|_| panic!("mutation fails halfway"))
        }));
        assert!(unwound.is_err());
        assert!(engine.catalog.is_poisoned());
        assert!(
            Arc::ptr_eq(&engine.catalog(), &before),
            "snapshot unchanged"
        );
        assert_eq!(engine.catalog().version(), before.version());
        assert_eq!(
            engine.run(Q2).unwrap().collect_relation().unwrap(),
            expected
        );
        let stmt = engine.prepare(Q2).unwrap();
        assert_eq!(stmt.catalog_version(), before.version());
        engine.mutate_catalog(|c| {
            c.register("new_table", relation! { ["x"] => [1] });
        });
        assert_ne!(engine.catalog().version(), before.version());
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
        let expected = engine.run(Q2).unwrap().collect().unwrap().relation;
        let mut cursor = engine.run(Q2).unwrap();
        // Pull one batch, then drop every table the plan scans.
        let first = cursor.next().unwrap().unwrap();
        assert_eq!(first.num_rows(), 1);
        engine.mutate_catalog(|c| {
            c.unregister("supplies").unwrap();
            c.unregister("parts").unwrap();
        });
        assert!(engine.run(Q2).is_err(), "new statements see the drop");
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
        let expected_a = engine.run(Q2).unwrap().collect().unwrap().relation;
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
                        let got = engine.run(Q2).unwrap().collect().unwrap().relation;
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
            engine.run(sql).unwrap().collect().unwrap().relation,
            optimizing.run(sql).unwrap().collect().unwrap().relation
        );
    }

    /// The paper's running example relations r1 (a, b) and r2 (b).
    fn law_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "r1",
            relation! {
                ["a", "b"] =>
                [1, 1], [1, 4],
                [2, 1], [2, 2], [2, 3], [2, 4],
                [3, 1], [3, 3], [3, 4],
                [4, 1], [4, 3],
            },
        );
        c.register("r2", relation! { ["b"] => [1], [3] });
        c
    }

    #[test]
    fn engine_reaches_fixpoint_on_selection_pushdown() {
        use div_algebra::{CompareOp, Predicate};
        use div_expr::{evaluate, PlanBuilder};
        let catalog = law_catalog();
        let engine = Engine::new(catalog.clone());
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .select(Predicate::cmp_value("a", CompareOp::Gt, 2))
            .build();
        let explain = engine.explain_analyze(Request::plan(&plan)).unwrap();
        assert_eq!(explain.logical, plan);
        assert!(explain.rewritten());
        assert!(
            explain.laws_fired().iter().any(|n| n.starts_with("law-03")),
            "expected the Law 3 pushdown, got: {:?}",
            explain.laws_fired()
        );
        // The optimizer stopped because no law lowers the cost further, so
        // the chosen plan is left unchanged when optimized again.
        let again = engine
            .explain_analyze(Request::plan(&explain.optimized))
            .unwrap();
        assert!(!again.rewritten(), "{:?}", again.laws_fired());
        assert_eq!(again.optimized, explain.optimized);
        let expected = evaluate(&plan, &catalog).unwrap();
        assert_eq!(evaluate(&explain.optimized, &catalog).unwrap(), expected);
        let served = engine.run(Request::plan(&plan)).unwrap().collect().unwrap();
        assert_eq!(served.relation, expected);
    }

    #[test]
    fn engine_is_identity_when_nothing_matches() {
        use div_expr::PlanBuilder;
        let engine = Engine::new(law_catalog());
        let plan = PlanBuilder::scan("r1").project(["a"]).build();
        let explain = engine.explain_analyze(Request::plan(&plan)).unwrap();
        assert!(!explain.rewritten());
        assert!(explain.applied.is_empty());
        assert_eq!(explain.optimized, plan);
        assert_eq!(explain.logical, plan);
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
        let output = engine.run(Request::plan(&plan)).unwrap().collect().unwrap();
        assert_eq!(output.relation, relation! { ["s#"] => [1], [2] });
    }

    #[test]
    fn cursor_batches_concatenate_to_the_collected_relation() {
        let engine = Engine::builder(catalog())
            .planner_config(PlannerConfig::default().batch_size(2))
            .build();
        let expected = engine.run(Q2).unwrap().collect().unwrap().relation;
        let mut cursor = engine.run(Q2).unwrap();
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
            .planner_config(
                PlannerConfig::default()
                    .batch_size(64)
                    .deadline(std::time::Duration::from_millis(50)),
            )
            .build();
        let err = engine.run(RUNAWAY).unwrap().collect().unwrap_err();
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
            .planner_config(
                PlannerConfig::default()
                    .batch_size(64)
                    .memory_budget_rows(1_000),
            )
            .build();
        let err = engine.run(RUNAWAY).unwrap().collect().unwrap_err();
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
        let mut cursor = engine.run(Request::sql(RUNAWAY).guard(guard)).unwrap();
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
            .planner_config(
                PlannerConfig::default()
                    .batch_size(64)
                    .memory_budget_rows(1_000),
            )
            .build();
        let mut cursor = engine.run(RUNAWAY).unwrap();
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
    fn a_cursor_dropped_after_its_first_batch_still_reports_its_spill() {
        let mut c = Catalog::new();
        let rows = |groups: i64, items: i64| -> Vec<Vec<i64>> {
            (0..groups)
                .flat_map(|a| (0..items).map(move |b| vec![a, b]))
                .collect()
        };
        c.register(
            "supplies",
            Relation::from_rows(["a", "b"], rows(400, 5)).unwrap(),
        );
        let wanted = rows(1, 5).into_iter().map(|row| vec![row[1]]);
        c.register("wanted", Relation::from_rows(["b"], wanted).unwrap());
        // 400 quotient groups under a 300-row budget: the divide spills.
        let engine = Engine::builder(c)
            .planner_config(
                PlannerConfig::default()
                    .batch_size(16)
                    .memory_budget_rows(300)
                    .spill_to_disk(true),
            )
            .build();
        let sql = "SELECT a FROM supplies AS s DIVIDE BY wanted AS w ON s.b = w.b";
        let mut cursor = engine.run(sql).unwrap();
        assert!(cursor.next().unwrap().is_ok());
        drop(cursor);
        let metrics = engine.metrics();
        assert_eq!(metrics.queries_executed, 1);
        assert_eq!(metrics.queries_spilled, 1);
        assert!(metrics.spill_partitions > 0);
    }

    #[test]
    fn guarded_prepared_statement_observes_its_token() {
        let engine = Engine::new(runaway_catalog());
        let stmt = engine.prepare(RUNAWAY).unwrap();
        let token = div_physical::CancelToken::new();
        token.cancel();
        let guard = QueryGuard::default().with_token(token);
        let err = engine
            .run(Request::prepared(&stmt).guard(guard))
            .unwrap()
            .collect()
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled { .. }), "got {err}");
    }

    #[test]
    fn ungoverned_queries_are_unaffected_by_the_governance_plumbing() {
        let engine = Engine::new(catalog());
        let out = engine.run(Q2).unwrap().collect().unwrap();
        assert_eq!(out.stats.resident_rows_on_finish, 0);
    }
}
