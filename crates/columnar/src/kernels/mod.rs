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
pub use divide::hash_divide;
pub use filter::filter;
pub use great_divide::{hash_great_divide, StreamingGreatDivide};
pub use join::{hash_natural_join, JoinBuild, KernelOutput};
pub use product::cross_product_slice;
pub use project::project;

/// Row builders shared by the kernel tests.
#[cfg(test)]
pub(crate) mod test_rows {
    use crate::{Column, ColumnarBatch};
    use div_algebra::{Schema, Value};

    /// A batch straight from values (NULLs included), each column's
    /// representation picked by [`Column::from_values`] — so one chunk's
    /// column may be typed where the next one's is not.
    pub(crate) fn batch_of(names: &[&str], rows: &[Vec<Value>]) -> ColumnarBatch {
        let columns = (0..names.len())
            .map(|c| Column::from_values(rows.iter().map(|row| &row[c]).collect::<Vec<_>>()))
            .collect();
        ColumnarBatch::from_parts(Schema::of(names.iter().copied()), columns, rows.len())
    }

    /// `0` is NULL; everything else an int or — `strings` — a dictionary
    /// string, so key codes are inexact and matches are verified.
    pub(crate) fn key_value(v: u32, strings: bool) -> Value {
        match (v, strings) {
            (0, _) => Value::Null,
            (v, false) => Value::Int(i64::from(v)),
            (v, true) => {
                Value::str(["", "ann", "bob", "cy", "dee", "eve", "fay", "gus"][v as usize])
            }
        }
    }

    /// The batch's rows cut into consecutive chunks of `chunk_size`.
    pub(crate) fn chunks_of(batch: &ColumnarBatch, chunk_size: usize) -> Vec<ColumnarBatch> {
        (0..batch.num_rows())
            .step_by(chunk_size)
            .map(|start| batch.slice(start..(start + chunk_size).min(batch.num_rows())))
            .collect()
    }
}
