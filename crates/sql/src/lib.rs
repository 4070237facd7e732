//! # div-sql
//!
//! A small SQL dialect implementing the hypothetical syntax extension of
//! Section 4 of the paper:
//!
//! ```text
//! <table reference> ::= <table factor> | <joined table> | <quotient>
//! <quotient>        ::= <table reference> DIVIDE BY <table reference>
//!                       ON <search condition>
//! ```
//!
//! The crate provides a lexer (including `$name` parameter placeholders), a
//! recursive-descent parser for the `SELECT … FROM … [WHERE …]` subset needed
//! by the paper's queries Q1–Q3 (including derived tables and `NOT EXISTS`
//! subqueries), a translator to [`div_expr::LogicalPlan`]s, and — most
//! importantly — the [`Engine`] facade that runs the whole pipeline with the
//! rewrite optimizer of `div-rewrite` in the loop by default behind one
//! front door ([`Engine::run`] of a [`Request`]), returns results
//! as an incremental streaming [`Cursor`] (an iterator of columnar batches
//! whose early termination short-circuits the scans), supports prepared
//! statements ([`Engine::prepare`]), structured EXPLAIN reports
//! ([`Engine::explain`], [`Engine::explain_analyze`] with per-operator
//! estimate-vs-actual spans) and a session-wide metrics registry
//! ([`Engine::metrics`], module [`metrics`]). Translation rules:
//!
//! * a `DIVIDE BY … ON` table reference becomes a [`LogicalPlan::SmallDivide`](div_expr::LogicalPlan::SmallDivide)
//!   when every divisor attribute appears in the `ON` clause as a conjunction
//!   of equi-joins (the rule stated in Section 4), and a
//!   [`LogicalPlan::GreatDivide`](div_expr::LogicalPlan::GreatDivide) otherwise;
//! * the double-`NOT EXISTS` formulation of universal quantification (query
//!   Q3) is *detected* and rewritten into a great divide — the rewrite the
//!   paper describes as hard for general optimizers and therefore a major
//!   motivation for first-class division syntax.
//!
//! ```
//! use div_algebra::relation;
//! use div_expr::Catalog;
//! use div_sql::Engine;
//!
//! let mut catalog = Catalog::new();
//! catalog.register("supplies", relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] });
//! catalog.register("parts", relation! { ["p#", "color"] => [1, "blue"], [2, "blue"] });
//!
//! let engine = Engine::new(catalog);
//! let cursor = engine.run(
//!     "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') AS p \
//!      ON s.p# = p.p#",
//! ).unwrap();
//! assert_eq!(cursor.collect_relation().unwrap(), relation! { ["s#"] => [1] });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod metrics;
pub mod parser;

pub use ast::{Query, SelectItem, SqlCondition, SqlOperand, TableFactor, TableReference};
pub use div_physical::{CancelToken, QueryGuard};
pub use engine::{
    Cursor, Engine, EngineBuilder, Explain, Params, PreparedStatement, QueryOutput, Request,
};
pub use error::Error;
pub use lexer::{tokenize, Token};
pub use lower::translate_query;
pub use metrics::{EngineMetrics, MetricsSnapshot};
pub use parser::{parse_query, ParseError};
