//! Hash partitioning of columnar batches for partition-parallel execution.
//!
//! The paper attaches explicit parallelization strategies to two laws:
//!
//! * **Law 2 + condition `c2`** (Section 5.1.1): hash-partition the dividend
//!   on the quotient attributes `A`; the partitions' quotient prefixes are
//!   disjoint by construction, so each partition can be divided
//!   independently and the partial quotients unioned.
//! * **Law 13** (Section 5.2.1): hash-partition the divisor on the group
//!   attributes `C`; each node runs the great divide of the (shared)
//!   dividend against its divisor slice.
//!
//! [`hash_partition`] is the batch-level primitive both strategies share:
//! the key columns are normalized **once per batch** into a
//! [`KeyVector`] (no per-row hasher construction, no
//! per-row key materialization) and each code is routed with a
//! splitmix-mixed multiply-based fast reduction (no modulo bias), so rows
//! agreeing on the key always land in the same bucket (the disjointness
//! the laws require) regardless of the batch's column encodings.
//! [`hash_partition_keyed`] additionally returns each partition's gathered
//! key vector; [`partition_rows`] is the routing decision alone, with a seed
//! that re-randomizes it per recursion level, and [`BatchAppender`] the
//! per-partition accumulator — together the spilling operators' write path.

use crate::batch::ColumnarBatch;
use crate::column::ColumnAppender;
use crate::hash_table::{fast_range, mix};
use crate::key_vector::KeyVector;
use div_algebra::Schema;

/// Hash-partition `batch` into `partitions` buckets on the given key
/// columns. Every output batch keeps the full schema; rows with equal keys
/// land in the same bucket, and every input row lands in exactly one bucket.
///
/// `partitions` is clamped to at least 1. With an empty `key_columns` list
/// every row hashes identically, so all rows land in one bucket — the
/// degenerate but correct behavior for key-less operators.
///
/// ```
/// use div_algebra::relation;
/// use div_columnar::{partition::hash_partition, ColumnarBatch};
///
/// let batch = ColumnarBatch::from_relation(&relation! {
///     ["a", "b"] => [1, 10], [1, 20], [2, 10], [3, 30]
/// });
/// let parts = hash_partition(&batch, &[0], 2);
/// // A partition: every row lands in exactly one bucket...
/// assert_eq!(parts.iter().map(ColumnarBatch::num_rows).sum::<usize>(), 4);
/// // ...and rows agreeing on the key (here a = 1) share a bucket.
/// assert!(parts.iter().any(|p| p.num_rows() >= 2));
/// ```
pub fn hash_partition(
    batch: &ColumnarBatch,
    key_columns: &[usize],
    partitions: usize,
) -> Vec<ColumnarBatch> {
    hash_partition_keyed(batch, key_columns, partitions)
        .into_iter()
        .map(|(part, _)| part)
        .collect()
}

/// [`hash_partition`], additionally returning each partition's key vector
/// (the partition-time row hashes gathered alongside the rows).
pub fn hash_partition_keyed(
    batch: &ColumnarBatch,
    key_columns: &[usize],
    partitions: usize,
) -> Vec<(ColumnarBatch, KeyVector)> {
    let partitions = partitions.max(1);
    let keys = KeyVector::build(batch, key_columns);
    if partitions == 1 {
        return vec![(batch.clone(), keys)];
    }
    route(&keys, partitions, 0)
        .into_iter()
        .map(|rows| (batch.gather(&rows), keys.gather(&rows)))
        .collect()
}

/// The routing decision alone: `result[p]` lists, in row order, the rows of
/// `batch` that belong to partition `p` of `partitions` (clamped to at least
/// 1). Seed `0` routes exactly like [`hash_partition`]; nothing is gathered,
/// so a caller that appends the rows somewhere else (the spill writers'
/// per-partition buffers, via [`BatchAppender::append_rows`]) copies each
/// row once.
///
/// The seed is folded into every key code before mixing. It exists for
/// *recursive* partitioning (Graefe-style hybrid hash spilling): all rows of
/// one level-`n` partition share a routing hash by construction, so
/// re-partitioning them with the same function would put everything back
/// into a single bucket. Deriving a fresh seed per recursion level
/// re-randomizes the routing while preserving the key disjointness
/// guarantee (equal keys still land together, at every level).
pub fn partition_rows(
    batch: &ColumnarBatch,
    key_columns: &[usize],
    partitions: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    route(
        &KeyVector::build(batch, key_columns),
        partitions.max(1),
        seed,
    )
}

fn route(keys: &KeyVector, partitions: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    for (row, &code) in keys.codes().iter().enumerate() {
        buckets[fast_range(mix(code ^ seed), partitions)].push(row);
    }
    buckets
}

/// A batch that grows in place: rows picked out of other batches are
/// appended straight onto its columns (each row copied once — the
/// gather-into-the-accumulator counterpart of [`concat_batches`]), and
/// [`BatchAppender::take`] hands the accumulated rows over as one
/// [`ColumnarBatch`]. The spill writers keep one per partition file so that
/// what reaches disk is full chunks, not one sliver per routed batch.
#[derive(Debug)]
pub struct BatchAppender {
    schema: Schema,
    /// `None` while empty: the first append decides each column's
    /// representation, exactly as a gather of those rows would.
    columns: Option<Vec<ColumnAppender>>,
    rows: usize,
}

impl BatchAppender {
    /// An empty appender for batches of `schema`.
    pub fn new(schema: Schema) -> BatchAppender {
        BatchAppender {
            schema,
            columns: None,
            rows: 0,
        }
    }

    /// Rows accumulated since the last [`BatchAppender::take`].
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Append rows `rows` of `batch` (in the given order).
    ///
    /// # Panics
    ///
    /// Panics when `batch` does not carry this appender's schema.
    pub fn append_rows(&mut self, batch: &ColumnarBatch, rows: &[usize]) {
        assert_eq!(batch.schema(), &self.schema, "partition schema drift");
        match &mut self.columns {
            Some(columns) => {
                for (acc, col) in columns.iter_mut().zip(batch.columns()) {
                    acc.append_gather(col, rows);
                }
            }
            None => {
                self.columns = Some(
                    batch
                        .columns()
                        .iter()
                        .map(|col| ColumnAppender::new(col.gather(rows)))
                        .collect(),
                );
            }
        }
        self.rows += rows.len();
    }

    /// The accumulated rows as one batch; the appender is empty afterwards.
    pub fn take(&mut self) -> ColumnarBatch {
        let rows = std::mem::take(&mut self.rows);
        match self.columns.take() {
            Some(columns) => ColumnarBatch::from_parts(
                self.schema.clone(),
                columns.into_iter().map(ColumnAppender::finish).collect(),
                rows,
            ),
            None => ColumnarBatch::empty(self.schema.clone()),
        }
    }
}

/// Concatenate partition results back into one batch, in partition order.
///
/// All batches must share the first batch's schema (they do by construction
/// when they came out of [`hash_partition`] followed by a
/// schema-preserving kernel). Returns `None` for an empty slice, since there
/// is no schema to make an empty batch from.
///
/// # Panics
///
/// Panics when the batches disagree on the schema — silently gluing
/// differently-shaped columns would mislabel data.
pub fn concat_batches(batches: &[ColumnarBatch]) -> Option<ColumnarBatch> {
    let (first, rest) = batches.split_first()?;
    let rest_rows: usize = rest.iter().map(ColumnarBatch::num_rows).sum();
    // One accumulator per column, appended to in place: every row is copied
    // once however many batches there are.
    let mut columns: Vec<ColumnAppender> = first
        .columns()
        .iter()
        .map(|col| {
            let mut acc = ColumnAppender::new(col.clone());
            acc.reserve(rest_rows);
            acc
        })
        .collect();
    for batch in rest {
        assert_eq!(batch.schema(), first.schema(), "partition schema drift");
        for (acc, col) in columns.iter_mut().zip(batch.columns()) {
            acc.append(col);
        }
    }
    Some(ColumnarBatch::from_parts(
        first.schema().clone(),
        columns.into_iter().map(ColumnAppender::finish).collect(),
        first.num_rows() + rest_rows,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Column;
    use div_algebra::Value;
    use proptest::prelude::*;

    fn sample() -> ColumnarBatch {
        let mut rows = Vec::new();
        for a in 0..20i64 {
            for b in 0..3i64 {
                rows.push(vec![a, b]);
            }
        }
        ColumnarBatch::from_relation(&div_algebra::Relation::from_rows(["a", "b"], rows).unwrap())
    }

    #[test]
    fn hash_partition_is_a_partition_with_disjoint_keys() {
        let batch = sample();
        let parts = hash_partition(&batch, &[0], 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(ColumnarBatch::num_rows).sum();
        assert_eq!(total, batch.num_rows());
        // Key disjointness (the laws' precondition): the same `a` value never
        // appears in two different partitions.
        let key_sets: Vec<std::collections::HashSet<crate::RowKey>> = parts
            .iter()
            .map(|p| (0..p.num_rows()).map(|r| p.key_at(r, &[0])).collect())
            .collect();
        for i in 0..key_sets.len() {
            for j in (i + 1)..key_sets.len() {
                assert!(key_sets[i].is_disjoint(&key_sets[j]));
            }
        }
    }

    #[test]
    fn single_partition_is_the_identity() {
        let batch = sample();
        let parts = hash_partition(&batch, &[0], 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], batch);
    }

    #[test]
    fn concat_batches_restores_hash_partitions_as_a_set() {
        let batch = sample();
        let parts = hash_partition(&batch, &[0, 1], 3);
        let glued = concat_batches(&parts).unwrap();
        assert_eq!(glued.num_rows(), batch.num_rows());
        assert_eq!(
            glued.to_relation().unwrap(),
            batch.to_relation().unwrap(),
            "hash partitioning permutes rows but never loses or invents any"
        );
        assert!(concat_batches(&[]).is_none());
    }

    /// The definition `concat_batches` must agree with: fold
    /// [`Column::concat`] over the parts, column by column.
    fn fold_concat(parts: &[ColumnarBatch]) -> Option<ColumnarBatch> {
        let (first, rest) = parts.split_first()?;
        let mut columns = first.columns().to_vec();
        for part in rest {
            for (folded, col) in columns.iter_mut().zip(part.columns()) {
                *folded = folded.concat(col);
            }
        }
        let rows = parts.iter().map(ColumnarBatch::num_rows).sum();
        Some(ColumnarBatch::from_parts(
            first.schema().clone(),
            columns,
            rows,
        ))
    }

    /// A column of `rows` rows whose kind, NULLs and values all derive from
    /// `seed`: mostly the "home" kind of its position (so same-kind merges
    /// dominate), sometimes another kind (so the `Mixed` degradation runs).
    fn random_column(home: u64, rows: usize, mut seed: u64) -> Column {
        let mut next = move || {
            seed = mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
            seed
        };
        let kind = if next() % 4 == 0 { next() % 4 } else { home };
        let with_nulls = next() % 2 == 0;
        let values: Vec<Value> = (0..rows)
            .map(|_| {
                let r = next();
                if with_nulls && r % 3 == 0 {
                    return Value::Null;
                }
                match kind {
                    0 => Value::Int((r % 5) as i64),
                    1 => Value::Bool(r % 2 == 0),
                    2 => Value::str(["red", "green", "blue", "grey", "pink"][(r % 5) as usize]),
                    _ => match r % 3 {
                        0 => Value::Int((r % 7) as i64),
                        1 => Value::str("m"),
                        _ => Value::set([(r % 4) as i64]),
                    },
                }
            })
            .collect();
        Column::from_values(values.iter())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Dictionary order, codes, validity masks and the points where a
        /// column turns `Mixed` are identical to the fold, not merely the
        /// values (`ColumnarBatch: PartialEq` compares representations).
        #[test]
        fn concat_batches_equals_the_fold_of_column_concat(
            parts in prop::collection::vec((0usize..6, 0u64..u64::MAX), 1..9),
        ) {
            let schema = div_algebra::Schema::of(["i", "b", "s", "m"]);
            let parts: Vec<ColumnarBatch> = parts
                .iter()
                .map(|&(rows, seed)| {
                    let columns = (0..4)
                        .map(|c| random_column(c, rows, seed ^ mix(c)))
                        .collect();
                    ColumnarBatch::from_parts(schema.clone(), columns, rows)
                })
                .collect();
            prop_assert_eq!(concat_batches(&parts), fold_concat(&parts));
        }

        /// Appending picked rows in place holds the same values, in the
        /// same order, as gathering each pick and concatenating — across
        /// `take` cycles, kind mismatches and NULL-bearing string columns.
        #[test]
        fn batch_appender_equals_gather_then_concat(
            parts in prop::collection::vec((0usize..6, 0u64..u64::MAX), 1..9),
            take_every in 1usize..4,
        ) {
            let schema = div_algebra::Schema::of(["i", "b", "s", "m"]);
            let mut appender = BatchAppender::new(schema.clone());
            let mut picked: Vec<ColumnarBatch> = Vec::new();
            for (n, &(rows, seed)) in parts.iter().enumerate() {
                let columns = (0..4)
                    .map(|c| random_column(c, rows, seed ^ mix(c)))
                    .collect();
                let part = ColumnarBatch::from_parts(schema.clone(), columns, rows);
                // Every other row, then the first row again: order and
                // duplicates must survive.
                let mut pick: Vec<usize> = (0..rows).step_by(2).collect();
                pick.extend((rows > 0).then_some(0));
                appender.append_rows(&part, &pick);
                picked.push(part.gather(&pick));
                if (n + 1) % take_every == 0 || n + 1 == parts.len() {
                    let expected = concat_batches(&picked).unwrap();
                    prop_assert_eq!(appender.num_rows(), expected.num_rows());
                    let got = appender.take();
                    prop_assert_eq!(got.num_rows(), expected.num_rows());
                    for row in 0..expected.num_rows() {
                        prop_assert_eq!(got.row(row), expected.row(row));
                    }
                    prop_assert_eq!(appender.num_rows(), 0);
                    picked.clear();
                }
            }
        }
    }

    #[test]
    fn partition_rows_is_the_routing_of_hash_partition() {
        let batch = sample();
        let parts = hash_partition(&batch, &[0], 5);
        let routed = partition_rows(&batch, &[0], 5, 0);
        assert_eq!(routed.len(), 5);
        for (part, rows) in parts.iter().zip(&routed) {
            assert_eq!(*part, batch.gather(rows));
        }
        // A different seed regroups the rows but never separates equal keys.
        let reseeded = partition_rows(&batch, &[0], 5, 0x9E37_79B9_7F4A_7C15);
        assert_ne!(routed, reseeded);
        for rows in &reseeded {
            for &row in rows {
                let key = batch.key_at(row, &[0]);
                let home = reseeded
                    .iter()
                    .filter(|bucket| bucket.iter().any(|&r| batch.key_at(r, &[0]) == key))
                    .count();
                assert_eq!(home, 1);
            }
        }
        assert_eq!(
            BatchAppender::new(batch.schema().clone()).take().num_rows(),
            0
        );
    }

    #[test]
    fn concat_batches_degrades_a_kind_mismatch_to_mixed() {
        let schema = div_algebra::Schema::of(["v"]);
        let part = |values: &[Value]| {
            ColumnarBatch::from_parts(
                schema.clone(),
                vec![Column::from_values(values.iter())],
                values.len(),
            )
        };
        let parts = [
            part(&[Value::Int(1), Value::Null]),
            part(&[Value::str("x")]),
            part(&[Value::Int(2)]),
        ];
        let glued = concat_batches(&parts).unwrap();
        assert_eq!(
            glued.column(0),
            &Column::Mixed(vec![
                Value::Int(1),
                Value::Null,
                Value::str("x"),
                Value::Int(2)
            ])
        );
        assert_eq!(Some(glued), fold_concat(&parts));
    }

    #[test]
    fn concat_batches_keeps_first_occurrence_dictionary_order() {
        let schema = div_algebra::Schema::of(["s"]);
        let part = |values: &[&str]| {
            let values: Vec<Value> = values.iter().map(|s| Value::str(*s)).collect();
            ColumnarBatch::from_parts(
                schema.clone(),
                vec![Column::from_values(values.iter())],
                values.len(),
            )
        };
        let parts = [part(&["b", "a"]), part(&["c", "a"]), part(&["c", "d", "b"])];
        let glued = concat_batches(&parts).unwrap();
        let strs = glued.column(0).as_str_column().unwrap();
        let dict: Vec<&str> = strs.dict.iter().map(|s| &**s).collect();
        assert_eq!(dict, vec!["b", "a", "c", "d"]);
        assert_eq!(strs.codes, vec![0, 1, 2, 1, 2, 3, 0]);
        assert_eq!(strs.validity, None);
    }

    #[test]
    fn keyed_partitioning_carries_the_partition_time_hashes() {
        let batch = sample();
        for partitions in [1, 3] {
            for (part, keys) in hash_partition_keyed(&batch, &[0], partitions) {
                // The gathered key vector is exactly what a per-partition
                // rebuild would produce — reuse loses nothing.
                let rebuilt = crate::key_vector::KeyVector::build(&part, &[0]);
                assert_eq!(keys.codes(), rebuilt.codes());
                assert_eq!(keys.exact(), rebuilt.exact());
            }
        }
    }

    #[test]
    fn empty_key_routes_everything_to_one_bucket() {
        let batch = sample();
        let parts = hash_partition(&batch, &[], 4);
        let occupied: Vec<usize> = parts
            .iter()
            .map(ColumnarBatch::num_rows)
            .filter(|&n| n > 0)
            .collect();
        assert_eq!(occupied, vec![batch.num_rows()]);
    }

    #[test]
    fn empty_batch_partitions_are_empty() {
        let empty = ColumnarBatch::empty(div_algebra::Schema::of(["a", "b"]));
        let parts = hash_partition(&empty, &[0], 3);
        assert!(parts.iter().all(|p| p.num_rows() == 0));
    }
}
