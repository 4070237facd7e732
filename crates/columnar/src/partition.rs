//! Hash routing of a batch's rows, and the linear concatenation that drains
//! chunks back into one batch.
//!
//! [`partition_rows`] is the routing decision: the key columns are
//! normalized **once per batch** into a [`KeyVector`] (no per-row hasher
//! construction, no per-row key materialization) and each code is routed
//! with a splitmix-mixed multiply-based fast reduction (no modulo bias), so
//! rows agreeing on the key always land in the same bucket regardless of
//! the batch's column encodings — the disjointness quotient partitioning
//! (Law 2 with condition `c2`, Section 5.1.1 of the paper) requires. A seed
//! re-randomizes the routing per recursion level, and [`BatchAppender`] is
//! the per-partition accumulator — together the spilling operators' write
//! path.

use crate::batch::ColumnarBatch;
use crate::column::ColumnAppender;
use crate::hash_table::{fast_range, mix};
use crate::key_vector::KeyVector;
use div_algebra::Schema;

/// The routing decision alone: `result[p]` lists, in row order, the rows of
/// `batch` that belong to partition `p` of `partitions` (clamped to at least
/// 1). Rows with equal keys land in the same bucket and every row lands in
/// exactly one; with an empty `key_columns` list every row hashes
/// identically, so all rows land in one bucket. Nothing is gathered, so a
/// caller that appends the rows somewhere else (the spill writers'
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
    let partitions = partitions.max(1);
    let keys = KeyVector::build_folded(batch, key_columns);
    let routes: Vec<usize> = keys
        .codes()
        .iter()
        .map(|&code| fast_range(mix(code ^ seed), partitions))
        .collect();
    // A count pass sizes every bucket exactly, so the routing pass below
    // never grows one.
    let mut counts = vec![0usize; partitions];
    for &p in &routes {
        counts[p] += 1;
    }
    let mut buckets: Vec<Vec<usize>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (row, &p) in routes.iter().enumerate() {
        buckets[p].push(row);
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
/// when they are the chunks of one stream or partition file). Returns
/// `None` for an empty slice, since there is no schema to make an empty
/// batch from.
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
    use div_algebra::{Tuple, Value};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn sample() -> ColumnarBatch {
        let mut rows = Vec::new();
        for a in 0..20i64 {
            for b in 0..3i64 {
                rows.push(vec![a, b]);
            }
        }
        ColumnarBatch::from_relation(&div_algebra::Relation::from_rows(["a", "b"], rows).unwrap())
    }

    /// The routed rows of every bucket, gathered.
    fn split(batch: &ColumnarBatch, keys: &[usize], partitions: usize) -> Vec<ColumnarBatch> {
        partition_rows(batch, keys, partitions, 0)
            .iter()
            .map(|rows| batch.gather(rows))
            .collect()
    }

    /// The distinct keys of `rows`, as projected tuples.
    fn key_set(batch: &ColumnarBatch, keys: &[usize], rows: &[usize]) -> BTreeSet<Tuple> {
        rows.iter()
            .map(|&row| Tuple::new(keys.iter().map(|&c| batch.value_at(row, c))))
            .collect()
    }

    /// Every row is in exactly one bucket and no key is in two.
    fn assert_partition(batch: &ColumnarBatch, keys: &[usize], routed: &[Vec<usize>]) {
        let mut rows: Vec<usize> = routed.iter().flatten().copied().collect();
        rows.sort_unstable();
        assert_eq!(rows, (0..batch.num_rows()).collect::<Vec<_>>());
        let key_sets: Vec<BTreeSet<Tuple>> = routed
            .iter()
            .map(|rows| key_set(batch, keys, rows))
            .collect();
        for i in 0..key_sets.len() {
            for j in (i + 1)..key_sets.len() {
                assert!(key_sets[i].is_disjoint(&key_sets[j]));
            }
        }
    }

    #[test]
    fn hash_partition_is_a_partition_with_disjoint_keys() {
        let batch = sample();
        let routed = partition_rows(&batch, &[0], 4, 0);
        assert_eq!(routed.len(), 4);
        // Key disjointness (the laws' precondition): the same `a` value never
        // appears in two different partitions.
        assert_partition(&batch, &[0], &routed);
        assert!(routed.iter().filter(|rows| !rows.is_empty()).count() > 1);
    }

    #[test]
    fn single_partition_is_the_identity() {
        let batch = sample();
        for partitions in [0, 1] {
            let parts = split(&batch, &[0], partitions);
            assert_eq!(parts.len(), 1);
            assert_eq!(parts[0], batch);
        }
    }

    #[test]
    fn concat_batches_restores_hash_partitions_as_a_set() {
        let batch = sample();
        let parts = split(&batch, &[0, 1], 3);
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
    fn reseeding_regroups_rows_but_never_separates_equal_keys() {
        let batch = sample();
        let routed = partition_rows(&batch, &[0], 5, 0);
        let reseeded = partition_rows(&batch, &[0], 5, 0x9E37_79B9_7F4A_7C15);
        assert_eq!((routed.len(), reseeded.len()), (5, 5));
        assert_ne!(routed, reseeded);
        assert_partition(&batch, &[0], &reseeded);
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
    fn empty_key_routes_everything_to_one_bucket() {
        let batch = sample();
        let occupied: Vec<usize> = partition_rows(&batch, &[], 4, 0)
            .iter()
            .map(Vec::len)
            .filter(|&n| n > 0)
            .collect();
        assert_eq!(occupied, vec![batch.num_rows()]);
    }

    #[test]
    fn empty_batch_partitions_are_empty() {
        let empty = ColumnarBatch::empty(div_algebra::Schema::of(["a", "b"]));
        let parts = split(&empty, &[0], 3);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.num_rows() == 0));
    }
}
