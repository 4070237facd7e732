//! # div-algebra
//!
//! Set-semantics relational algebra substrate for the *division-laws* workspace.
//!
//! This crate provides the data model (values, tuples, schemas, relations) and
//! **reference implementations** of every operator listed in Appendix A of
//! Rantzau & Mangold, *Laws for Rewriting Queries Containing Division
//! Operators* (ICDE 2006):
//!
//! * the basic operators — union, intersection, difference, Cartesian product,
//!   projection, selection,
//! * the derived join family — theta-join, natural join, left semi-join,
//!   left anti-semi-join (the left outer join, which no law uses, is left
//!   out),
//! * grouping with aggregation,
//! * **small divide** (`÷`, Codd's relational division) in all three textbook
//!   formulations (Codd, Healy, Maier),
//! * **great divide** (`÷*`, generalized / set-containment division) in all
//!   three independently proposed formulations (set-containment division,
//!   Demolombe's generalized division, Todd's great divide), and
//! * the set containment join over set-valued attributes.
//!
//! Everything in this crate has *set semantics*: a [`Relation`] is a schema plus
//! a set of tuples, duplicates never exist, and operator outputs are fully
//! materialized. The implementations favour clarity and direct correspondence
//! with the paper's definitions; the `div-physical` crate contains the
//! efficient, special-purpose algorithms and uses this crate as its test oracle.
//!
//! ## Quick example
//!
//! ```
//! use div_algebra::{Relation, relation};
//!
//! // Figure 1 of the paper: r1 ÷ r2 = r3.
//! let r1 = relation! {
//!     ["a", "b"] =>
//!     [1, 1], [1, 4],
//!     [2, 1], [2, 2], [2, 3], [2, 4],
//!     [3, 1], [3, 3], [3, 4],
//! };
//! let r2 = relation! { ["b"] => [1], [3] };
//! let r3 = relation! { ["a"] => [2], [3] };
//! assert_eq!(r1.divide(&r2).unwrap(), r3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ops;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use error::AlgebraError;
pub use ops::aggregate::{AggregateCall, AggregateFunction};
pub use predicate::{CompareOp, Predicate};
pub use relation::Relation;
pub use schema::{Attribute, DivisionPartition, Schema};
pub use tuple::Tuple;
pub use value::Value;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AlgebraError>;
