//! # div-rewrite
//!
//! The contribution of Rantzau & Mangold (ICDE 2006) as executable code: the
//! seventeen algebraic laws for rewriting queries that contain the small
//! divide (`÷`) or great divide (`÷*`) operator, together with
//!
//! * the side conditions the laws need (`c1`, `c2`, disjointness, foreign-key
//!   and uniqueness preconditions) in [`preconditions`],
//! * the three theorems of Section 5 / Appendix B in [`theorems`],
//! * the worked rewrite derivations of Examples 1–4 in [`laws`], and
//! * a cost-based [`optimizer::Optimizer`], the one driver of the laws: it
//!   enumerates the plans one rule application away
//!   ([`Optimizer::rewrites`]) and greedily keeps the one with the smallest
//!   estimated intermediate-result size (the quantity the paper cares
//!   about), pass after pass.
//!
//! Every law is implemented as a [`rule::RewriteRule`] over the
//! [`div_expr::LogicalPlan`] IR, in the direction the paper motivates as
//! useful for an RDBMS. All rules are pure plan-to-plan functions; the data
//! dependent preconditions (e.g. Law 2's `c1`/`c2`, Law 7's disjointness, the
//! cardinality cases of Laws 11/12) are checked through the
//! [`context::RewriteContext`], which can consult catalog metadata and — when
//! allowed — the base data itself.
//!
//! ```
//! use div_algebra::{relation, Predicate};
//! use div_expr::{Catalog, PlanBuilder, evaluate};
//! use div_rewrite::{Optimizer, RewriteContext};
//!
//! let mut catalog = Catalog::new();
//! catalog.register("r1", relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1] });
//! catalog.register("r2", relation! { ["b"] => [1], [2] });
//!
//! // σ_{a=1}(r1 ÷ r2): the optimizer pushes the selection below the divide
//! // (Law 3).
//! let plan = PlanBuilder::scan("r1")
//!     .divide(PlanBuilder::scan("r2"))
//!     .select(Predicate::eq_value("a", 1))
//!     .build();
//! let ctx = RewriteContext::with_catalog(&catalog);
//! let optimized = Optimizer::new().optimize(&plan, &ctx).unwrap();
//! assert!(optimized.applied.iter().any(|a| a.rule.contains("law-03")));
//! assert_eq!(evaluate(&optimized.plan, &catalog).unwrap(),
//!            evaluate(&plan, &catalog).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod laws;
pub mod optimizer;
pub mod preconditions;
pub mod rule;
pub mod theorems;

pub use context::RewriteContext;
pub use optimizer::{AppliedRule, CostEstimate, OptimizedPlan, Optimizer, Rewrite};
pub use rule::{RewriteRule, RuleSet};

/// Convenient result alias used throughout the crate (errors come from the
/// plan layer).
pub type Result<T> = std::result::Result<T, div_expr::ExprError>;
