//! Reference implementations of the relational algebra operators.
//!
//! The modules mirror the operator table of the paper's Appendix A:
//!
//! * [`set_ops`] — union, intersection, difference,
//! * [`project_select`] — projection and selection,
//! * [`product`] — Cartesian product,
//! * [`join`] — theta-join, natural join, semi-join, anti-semi-join,
//! * [`aggregate`] — the grouping operator `GγF`,
//! * [`division`] — small divide (Definitions 1–3) and great divide
//!   (Definitions 4–6),
//! * [`containment`] — the set containment join over set-valued attributes.
//!
//! All operators are exposed as methods on [`Relation`](crate::Relation).

pub mod aggregate;
pub mod containment;
pub mod division;
pub mod join;
pub mod product;
pub mod project_select;
pub mod set_ops;
