//! Hash routing of a batch's rows, and the linear concatenation that drains
//! chunks back into one batch.
//!
//! [`Routing`] is the routing decision: the key columns are normalized
//! **once per batch** into [`KeyVector`](crate::KeyVector) codes (no
//! per-row hasher construction, no per-row key materialization), each code is routed with a
//! splitmix-mixed multiply-based fast reduction (no modulo bias), and one
//! counting sort lists every partition's rows, in buffers the next batch
//! reuses. Rows agreeing on the key always land in the same partition
//! regardless of the batch's column encodings — the disjointness quotient
//! partitioning (Law 2 with condition `c2`, Section 5.1.1 of the paper)
//! requires. A seed re-randomizes the routing per recursion level, and
//! [`BatchAppender`] is the per-partition accumulator, emptied and refilled
//! in place — together the spilling operators' write path.

use crate::batch::ColumnarBatch;
use crate::column::{Column, ColumnAppender};
use crate::hash_table::{fast_range, mix};
use crate::key_vector::folded_codes_into;
use div_algebra::Schema;

/// The routing of one batch's rows to partitions, kept for reuse: routing
/// the next batch refills the same buffers instead of allocating a list
/// per partition.
///
/// After [`Routing::route`], [`Routing::rows`]`(p)` lists, in row order,
/// the rows that belong to partition `p`. Rows with equal keys land in the
/// same partition and every row lands in exactly one; with an empty key
/// column list every row hashes identically, so all rows land in one.
/// Nothing is gathered, so a caller that appends the rows somewhere else
/// (the spill writers' per-partition buffers, via
/// [`BatchAppender::append_rows`]) copies each row once.
///
/// The seed is folded into every key code before mixing. It exists for
/// *recursive* partitioning (Graefe-style hybrid hash spilling): all rows of
/// one level-`n` partition share a routing hash by construction, so
/// re-partitioning them with the same function would put everything back
/// into a single partition. Deriving a fresh seed per recursion level
/// re-randomizes the routing while preserving the key disjointness
/// guarantee (equal keys still land together, at every level).
#[derive(Debug, Clone, Default)]
pub struct Routing {
    /// The folded key code of every row, then its partition, in row order.
    codes: Vec<u64>,
    /// `starts[p]..starts[p + 1]` indexes partition `p`'s rows in `rows`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl Routing {
    /// Route every row of `batch` by its `key_columns` to one of
    /// `partitions` partitions (clamped to at least 1) under `seed`,
    /// replacing the previous routing.
    pub fn route(
        &mut self,
        batch: &ColumnarBatch,
        key_columns: &[usize],
        partitions: usize,
        seed: u64,
    ) {
        let partitions = partitions.max(1);
        folded_codes_into(batch, key_columns, &mut self.codes);
        // A counting sort: route and count, turn the counts into starts,
        // place.
        self.starts.clear();
        self.starts.resize(partitions + 1, 0);
        for code in &mut self.codes {
            let p = fast_range(mix(*code ^ seed), partitions);
            self.starts[p + 1] += 1;
            *code = p as u64;
        }
        for p in 0..partitions {
            self.starts[p + 1] += self.starts[p];
        }
        self.rows.resize(self.codes.len(), 0);
        for (row, &p) in self.codes.iter().enumerate() {
            // `starts[p]` is the next free slot of partition `p` while
            // placing; it ends at partition `p + 1`'s start.
            let p = p as usize;
            self.rows[self.starts[p]] = row;
            self.starts[p] += 1;
        }
        self.starts.rotate_right(1);
        self.starts[0] = 0;
    }

    /// The number of partitions of the last routing.
    pub fn partitions(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The rows of partition `partition`, in row order.
    pub fn rows(&self, partition: usize) -> &[usize] {
        &self.rows[self.starts[partition]..self.starts[partition + 1]]
    }

    /// Every partition's rows, in partition order.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        (0..self.partitions()).map(|p| self.rows(p))
    }
}

/// One routing of `batch`, in a fresh [`Routing`] (see there).
pub fn partition_rows(
    batch: &ColumnarBatch,
    key_columns: &[usize],
    partitions: usize,
    seed: u64,
) -> Routing {
    let mut routing = Routing::default();
    routing.route(batch, key_columns, partitions, seed);
    routing
}

/// A batch that grows in place and is emptied in place: rows picked out of
/// other batches are appended straight onto its columns (each row copied
/// once — the gather-into-the-accumulator counterpart of
/// [`concat_batches`]), and [`BatchAppender::flush`] lends the accumulated
/// rows out as one [`ColumnarBatch`] and then empties the columns, keeping
/// their allocations for the next rows. The spill writers keep one per
/// partition file so that what reaches disk is full chunks, not one sliver
/// per routed batch, and no flush regrows a buffer from nothing.
#[derive(Debug)]
pub struct BatchAppender {
    schema: Schema,
    /// Empty columns take the kind of the first rows appended to them,
    /// exactly as a gather of those rows would.
    columns: Vec<ColumnAppender>,
    rows: usize,
}

impl BatchAppender {
    /// An empty appender for batches of `schema`, with room for `capacity`
    /// rows before any column grows.
    pub fn with_capacity(schema: Schema, capacity: usize) -> BatchAppender {
        let columns = (0..schema.arity())
            .map(|_| {
                let mut column = ColumnAppender::new(Column::Int {
                    values: Vec::new(),
                    validity: None,
                });
                column.reserve(capacity);
                column
            })
            .collect();
        BatchAppender {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Rows accumulated since the appender was last emptied.
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
        for (acc, col) in self.columns.iter_mut().zip(batch.columns()) {
            acc.append_gather(col, rows);
        }
        self.rows += rows.len();
    }

    /// Lend the accumulated rows to `f` as one batch, then empty the
    /// appender (whatever `f` returns), keeping the columns' allocations.
    pub fn flush<R>(&mut self, f: impl FnOnce(&ColumnarBatch) -> R) -> R {
        let columns = self.columns.iter_mut().map(ColumnAppender::take_column);
        let rows = std::mem::take(&mut self.rows);
        let batch = ColumnarBatch::from_parts(self.schema.clone(), columns.collect(), rows);
        let out = f(&batch);
        let (_, columns, _) = batch.into_parts();
        for (acc, column) in self.columns.iter_mut().zip(columns) {
            acc.restore(column);
        }
        out
    }

    /// Drop the accumulated rows, keeping the columns' allocations.
    pub fn clear(&mut self) {
        self.columns.iter_mut().for_each(ColumnAppender::clear);
        self.rows = 0;
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
    fn assert_partition(batch: &ColumnarBatch, keys: &[usize], routed: &Routing) {
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
        assert_eq!(routed.partitions(), 4);
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
            let mut appender = BatchAppender::with_capacity(schema.clone(), 4);
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
                    let got = appender.flush(ColumnarBatch::clone);
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
        assert_eq!((routed.partitions(), reseeded.partitions()), (5, 5));
        assert!(routed.iter().ne(reseeded.iter()));
        assert_partition(&batch, &[0], &reseeded);
        let mut empty = BatchAppender::with_capacity(batch.schema().clone(), 4);
        assert_eq!(empty.flush(ColumnarBatch::num_rows), 0);
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
            .map(<[usize]>::len)
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
