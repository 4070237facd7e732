//! # div-columnar
//!
//! Columnar vectorized execution backend for the *division-laws* workspace.
//!
//! Row-at-a-time evaluation (the reference evaluator, the division
//! algorithm family of `div-physical`) materializes `Vec<Tuple>`-style
//! relations at every operator, so per-row allocation and enum dispatch
//! dominate the very measurements (per-tuple work, intermediate-result
//! volume) the paper cares about. This crate provides the batch-at-a-time
//! alternative:
//!
//! * [`ColumnarBatch`] — a schema plus typed column vectors
//!   ([`Column`]): `i64` slices, dictionary-encoded strings
//!   ([`StrColumn`]), booleans, each with an optional validity mask, and a
//!   lossless `Mixed` fallback so **every** [`div_algebra::Relation`]
//!   round-trips exactly ([`ColumnarBatch::from_relation`] /
//!   [`ColumnarBatch::to_relation`]);
//! * [`kernels`] — batch-native operators covering **every** physical plan
//!   shape: vectorized filtering (string predicates evaluated once per
//!   dictionary entry), projection with set-semantics deduplication,
//!   hash natural/semi/anti joins (a semi/anti join on every attribute is
//!   intersection/difference), bounded Cartesian-product slices (a
//!   theta-join is a filtered slice), hash aggregation, and the two division
//!   operators — a Graefe-style bitmap hash divide
//!   ([`kernels::StreamingDivide`]) and a counting great divide
//!   ([`kernels::StreamingGreatDivide`]), each consuming its dividend chunk
//!   by chunk, with [`kernels::hash_divide`] / [`kernels::hash_great_divide`]
//!   the same kernels fed one chunk — all working on column slices with a
//!   primitive `i64` fast path;
//! * [`segment`] / [`zone`] — the resident columnar form of an in-memory
//!   table ([`TableSegments`]: 1024-row chunks converted once and shared
//!   by every scan, each with per-column min/max [`ColumnZone`]s) and the
//!   one zone-map implementation both that and the `.divcol` file format
//!   use to skip chunks under a pushed-down filter ([`chunk_may_match`]);
//! * [`partition`] — hash routing of a batch's rows on key columns (what
//!   the spilling operators of `div-physical` partition their inputs
//!   with) and the linear concatenation that drains chunks back into one
//!   batch;
//! * [`key_vector`] / [`hash_table`] — the vectorized key pipeline every
//!   hash-consuming kernel runs on: [`KeyVector`] normalizes a batch's key
//!   columns **once per batch** into dense `u64` codes (raw-`i64` fast
//!   path, per-dictionary-entry string hashing, NULL sentinel, composite
//!   fold) and the open-addressing [`KeyTable`]/[`GroupIndex`] consume the
//!   codes with stored-code tags plus verify-on-collision — no `Value` is
//!   cloned and no `Vec` is allocated per row.
//!
//! The executor that walks physical plans lives in `div-physical`
//! (`StreamExecutor`); this crate deliberately depends only on
//! `div-algebra` so the physical layer can layer on top.
//!
//! The division pipeline in miniature — convert, divide, convert back:
//!
//! ```
//! use div_algebra::relation;
//! use div_columnar::{kernels, ColumnarBatch};
//!
//! // Figure 1 of the paper: which `a`-groups cover the whole divisor?
//! let dividend = ColumnarBatch::from_relation(&relation! {
//!     ["a", "b"] => [1, 1], [2, 1], [2, 3], [3, 1], [3, 3]
//! });
//! let divisor = ColumnarBatch::from_relation(&relation! { ["b"] => [1], [3] });
//! let quotient = kernels::hash_divide(&dividend, &divisor)?;
//! assert_eq!(
//!     quotient.batch.to_relation()?,
//!     relation! { ["a"] => [2], [3] }
//! );
//! # Ok::<(), div_algebra::AlgebraError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod column;
pub mod hash_table;
pub mod kernels;
pub mod key_vector;
pub mod partition;
pub mod segment;
pub mod stream;
pub mod zone;

pub use batch::ColumnarBatch;
pub use column::{Column, StrColumn};
pub use hash_table::{GroupIndex, KeyTable};
pub use key_vector::KeyVector;
pub use segment::{Segment, TableSegments, DEFAULT_CHUNK_ROWS};
pub use stream::{GroupStore, StreamingDistinct};
pub use zone::{chunk_may_match, column_zone, ColumnZone};

/// Result alias: columnar kernels report the same errors as the reference
/// algebra operators they mirror.
pub type Result<T> = std::result::Result<T, div_algebra::AlgebraError>;
