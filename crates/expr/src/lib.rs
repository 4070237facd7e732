//! # div-expr
//!
//! Logical plan representation for queries containing division operators.
//!
//! This crate sits between the relational algebra substrate
//! ([`div_algebra`]) and the rewrite rules (`div-rewrite`): it provides
//!
//! * [`LogicalPlan`] — an expression tree over the operators of the paper's
//!   Appendix A, including [`LogicalPlan::SmallDivide`] and
//!   [`LogicalPlan::GreatDivide`] as first-class nodes (the paper's central
//!   requirement: the optimizer must be able to reason about division
//!   directly, not only about its simulation),
//! * one plan-validity rule, [`node_schema`]: a node and its children's
//!   schemas in, the node's output schema or its one typed error out (the
//!   operators' own rules are [`div_algebra::Schema`]'s). [`infer_schema`]
//!   is its recursion, and the reference [`evaluate`] and the streaming
//!   executor call it node by node before computing anything, so all three
//!   refuse the same plans with the same error, whatever the data,
//! * a [`Catalog`] of named relations and a reference [`evaluate`] interpreter
//!   that executes a plan with the set-semantics operators of `div-algebra`,
//! * a [`PlanBuilder`] for constructing plans fluently, including the
//!   paper's division algorithm family as plans ([`division`]: the
//!   basic-operator simulations and counting division),
//! * tree traversal / transformation utilities used by the optimizer, and
//! * an equivalence checker used by the law tests
//!   ([`plans_equivalent_on`]).
//!
//! ```
//! use div_algebra::relation;
//! use div_expr::{Catalog, PlanBuilder, evaluate};
//!
//! let mut catalog = Catalog::new();
//! catalog.register("supplies", relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] });
//! catalog.register("blue_parts", relation! { ["p#"] => [1], [2] });
//!
//! // Which suppliers supply *all* blue parts?
//! let plan = PlanBuilder::scan("supplies").divide(PlanBuilder::scan("blue_parts")).build();
//! let result = evaluate(&plan, &catalog).unwrap();
//! assert_eq!(result, relation! { ["s#"] => [1] });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod catalog;
pub mod division;
pub mod equivalence;
pub mod error;
pub mod eval;
pub mod external;
pub mod plan;
pub mod schema;

pub use builder::PlanBuilder;
pub use catalog::Catalog;
pub use equivalence::{plans_equivalent_on, EquivalenceReport};
pub use error::ExprError;
pub use eval::{evaluate, evaluate_with_stats, EvalStats};
pub use external::{ChunkScan, TableSource};
pub use plan::{LogicalPlan, Transformed};
pub use schema::{infer_schema, node_schema, SchemaProvider};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ExprError>;
