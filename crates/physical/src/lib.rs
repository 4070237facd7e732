//! # div-physical
//!
//! The physical execution layer of the *division-laws* workspace.
//!
//! The paper's premise — backed by Leinders & Van den Bussche (PODS 2005) and
//! by the algorithm studies it cites (Graefe, ICDE 1989; Graefe & Cole, TODS
//! 1995; Rantzau et al., Information Systems 2003) — is that relational
//! division must be executed by *special-purpose physical operators*: any
//! simulation through the basic algebra produces intermediate results of
//! quadratic size. This crate provides those operators and the scaffolding to
//! run whole plans with them:
//!
//! * [`plan`] — the physical plan tree: the paper's "mapping of logical
//!   operators to physical operators" (Section 7),
//! * [`planner`] — lowering from [`div_expr::LogicalPlan`],
//! * [`stream`] — the Volcano-style streaming executor
//!   ([`stream::StreamExecutor`]), the one way to run a [`PhysicalPlan`]:
//!   scans chunk base tables into [`planner::PlannerConfig::batch_size`]-row
//!   batches, pipelineable operators transform them one at a time, and only
//!   genuinely blocking operators buffer — memory scales with pipeline
//!   depth, not with the largest intermediate, and early-terminated
//!   consumers short-circuit the scans. This is the executor behind
//!   `div_sql`'s incremental `Cursor`,
//! * [`merge`] — sort-merge small and great divide as row functions, the
//!   one member of the algorithm family no streaming operator covers yet,
//! * [`guard`] — cooperative query governance: a per-cursor
//!   [`guard::QueryGuard`] (cancellation token, wall-clock deadline,
//!   resident-row budget) checked at every batch boundary of the streaming
//!   executor,
//! * [`failpoint`] — named fault-injection sites at operator
//!   open/next_batch/close, armed per-test (cargo feature `failpoints`,
//!   on by default; disarmed cost is one relaxed atomic load),
//! * [`trace`] — the observability layer: a per-operator span tree
//!   ([`trace::QueryTrace`]) recording rows, probes, retained state and
//!   (when [`planner::PlannerConfig::tracing`] is on) wall-clock time for
//!   every operator; finished traces land in
//!   [`stats::ExecStats::operators`] and feed `EXPLAIN ANALYZE`.
//!
//! The paper's algorithm family runs on the streaming executor:
//! hash-division is its divide operator, and the basic-operator simulation
//! and counting division are logical plans (`div_expr::division`) that run
//! on its joins, nested loop and aggregate. Every executed plan is
//! validated against the reference semantics of [`div_algebra`] /
//! [`div_expr::evaluate`] by unit tests here and by the cross-crate property
//! tests in `tests/physical_vs_reference.rs`.
//!
//! Running a plan on the streaming executor `div_sql`'s `Engine` serves,
//! checked against the reference evaluator:
//!
//! ```
//! use div_expr::{evaluate, Catalog, PlanBuilder};
//! use div_physical::{plan_query, PlannerConfig, StreamExecutor};
//!
//! let mut catalog = Catalog::new();
//! catalog.register(
//!     "supplies",
//!     div_algebra::relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] },
//! );
//! catalog.register("wanted", div_algebra::relation! { ["p#"] => [1], [2] });
//! let logical = PlanBuilder::scan("supplies")
//!     .divide(PlanBuilder::scan("wanted"))
//!     .build();
//!
//! let config = PlannerConfig::default();
//! let plan = plan_query(&logical, &config)?;
//! let mut stream = StreamExecutor::new(&plan, &catalog, &config)?;
//! let mut streamed = div_algebra::Relation::empty(stream.schema().clone());
//! while let Some(chunk) = stream.next_batch()? {
//!     streamed = streamed.union(&chunk.to_relation()?)?;
//! }
//! assert_eq!(streamed, evaluate(&logical, &catalog)?);
//! # Ok::<(), div_expr::ExprError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failpoint;
pub mod guard;
pub mod merge;
pub mod plan;
pub mod planner;
pub mod stats;
pub mod stream;
pub mod trace;

pub use failpoint::FailAction;
pub use guard::{CancelToken, QueryGuard};
pub use plan::PhysicalPlan;
pub use planner::{plan_query, PlannerConfig};
pub use stats::ExecStats;
pub use stream::{compile_stream, BatchStream, StreamContext, StreamExecutor};
pub use trace::{OperatorId, OperatorStats, QueryTrace};

/// Convenient result alias (errors come from the algebra / plan layers).
pub type Result<T> = std::result::Result<T, div_expr::ExprError>;
