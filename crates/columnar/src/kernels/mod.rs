//! Batch-native operator kernels.
//!
//! Every kernel consumes and produces [`ColumnarBatch`](crate::ColumnarBatch)
//! values and mirrors the semantics (including the output schema and the
//! error conditions) of the corresponding `div-algebra` reference operator,
//! so an executor can swap a kernel in for a row operator node-by-node.

pub mod aggregate;
pub mod divide;
pub mod filter;
pub mod great_divide;
pub mod join;
pub mod product;
pub mod project;

pub use aggregate::{hash_aggregate, StreamingAggregate};
pub use divide::{hash_divide, quotient_schema, FrozenConsume, StreamingDivide};
pub use filter::filter;
pub use great_divide::{great_quotient_schema, hash_great_divide, StreamingGreatDivide};
pub use join::{hash_natural_join, JoinBuild, KernelOutput};
pub use product::cross_product_slice;
pub use project::project;
