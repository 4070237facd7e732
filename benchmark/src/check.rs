//! Result checking: every statement's expected relation is computed at
//! set-up with the reference evaluator; warm-up compares whole results,
//! the timed run compares row count plus an order-independent checksum.
//!
//! Rows are hashed in a canonical column order (attribute names sorted),
//! so a plan that emits the same relation with its columns in another
//! order still matches. The hash is this file's own, not the engine's key
//! pipeline, so the engine is not checked against itself.

use div_algebra::{Relation, Value};
use div_columnar::{Column, ColumnarBatch};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checksum {
    pub rows: u64,
    /// Wrapping sum of the row hashes: independent of row order.
    pub sum: u64,
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const HASH_NULL: u64 = 0x6e75_6c6c;

fn hash_int(v: i64) -> u64 {
    mix(v as u64 ^ 0x1000_0000_0000_0001)
}

fn hash_bool(v: bool) -> u64 {
    mix(u64::from(v) ^ 0x2000_0000_0000_0002)
}

fn hash_str(s: &str) -> u64 {
    // FNV-1a over the bytes, then the finalizer.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h ^ 0x3000_0000_0000_0003)
}

fn hash_value(value: &Value) -> u64 {
    match value {
        Value::Null => HASH_NULL,
        Value::Bool(b) => hash_bool(*b),
        Value::Int(i) => hash_int(*i),
        Value::Str(s) => hash_str(s),
        Value::Set(items) => items
            .iter()
            .fold(0x4000_0000_0000_0004, |acc, v| fold(acc, hash_value(v))),
    }
}

/// Fold one column's hash into a row's running hash (order-dependent:
/// `(1, 2)` and `(2, 1)` differ).
fn fold(acc: u64, h: u64) -> u64 {
    mix(acc.rotate_left(23) ^ h)
}

/// Positions of `names` in sorted-name order.
fn canonical_order(names: &[&str]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by_key(|&i| names[i]);
    order
}

impl Checksum {
    pub fn add_row_hash(&mut self, h: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    /// Checksum of rows whose columns are named `names`.
    pub fn of_rows<'a>(names: &[&str], rows: impl IntoIterator<Item = &'a [Value]>) -> Checksum {
        let order = canonical_order(names);
        let mut out = Checksum::default();
        for row in rows {
            out.add_row_hash(
                order
                    .iter()
                    .fold(0, |acc, &c| fold(acc, hash_value(&row[c]))),
            );
        }
        out
    }

    pub fn of_relation(relation: &Relation) -> Checksum {
        Checksum::of_rows(
            &relation.schema().names(),
            relation.tuples().map(|t| t.values()),
        )
    }

    /// Checksum of a drained cursor, computed column-wise so that checking
    /// a 200k-row result does not allocate a tuple per row.
    pub fn of_batches(batches: &[ColumnarBatch]) -> Checksum {
        let mut out = Checksum::default();
        for batch in batches {
            let order = canonical_order(&batch.schema().names());
            let mut acc = vec![0u64; batch.num_rows()];
            for &c in &order {
                fold_column(batch.column(c), &mut acc);
            }
            for h in acc {
                out.add_row_hash(h);
            }
        }
        out
    }
}

fn fold_column(column: &Column, acc: &mut [u64]) {
    let valid = |validity: &Option<Vec<bool>>, i: usize| validity.as_ref().is_none_or(|v| v[i]);
    match column {
        Column::Int { values, validity } => {
            for (i, a) in acc.iter_mut().enumerate() {
                let h = if valid(validity, i) {
                    hash_int(values[i])
                } else {
                    HASH_NULL
                };
                *a = fold(*a, h);
            }
        }
        Column::Bool { values, validity } => {
            for (i, a) in acc.iter_mut().enumerate() {
                let h = if valid(validity, i) {
                    hash_bool(values[i])
                } else {
                    HASH_NULL
                };
                *a = fold(*a, h);
            }
        }
        Column::Str(strs) => {
            let dict: Vec<u64> = strs.dict.iter().map(|s| hash_str(s)).collect();
            for (i, a) in acc.iter_mut().enumerate() {
                let h = if valid(&strs.validity, i) {
                    dict[strs.codes[i] as usize]
                } else {
                    HASH_NULL
                };
                *a = fold(*a, h);
            }
        }
        Column::Mixed(values) => {
            for (a, v) in acc.iter_mut().zip(values) {
                *a = fold(*a, hash_value(v));
            }
        }
    }
}

/// What a statement must return.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The reference result, columns in sorted-name order.
    pub relation: Relation,
    pub checksum: Checksum,
}

impl Expected {
    pub fn new(reference: &Relation) -> Expected {
        let relation = canonical_relation(
            &reference.schema().names(),
            reference.tuples().map(|t| t.values()),
        );
        Expected {
            checksum: Checksum::of_relation(&relation),
            relation,
        }
    }

    /// Whole-result comparison (warm-up).
    pub fn matches_rows<'a>(
        &self,
        names: &[&str],
        rows: impl IntoIterator<Item = &'a [Value]>,
    ) -> bool {
        canonical_relation(names, rows) == self.relation
    }

    /// Whole-result comparison of a drained cursor (warm-up). A cursor
    /// that produced no batch matches the empty relation only.
    pub fn matches_batches(&self, batches: &[ColumnarBatch]) -> bool {
        let Some(first) = batches.first() else {
            return self.relation.is_empty();
        };
        let rows: Vec<Vec<Value>> = batches
            .iter()
            .flat_map(|b| (0..b.num_rows()).map(|i| b.row(i).values().to_vec()))
            .collect();
        self.matches_rows(&first.schema().names(), rows.iter().map(Vec::as_slice))
    }
}

/// The relation over `rows` with its columns in sorted-name order.
fn canonical_relation<'a>(names: &[&str], rows: impl IntoIterator<Item = &'a [Value]>) -> Relation {
    let order = canonical_order(names);
    let sorted_names: Vec<&str> = order.iter().map(|&c| names[c]).collect();
    Relation::from_rows(
        sorted_names,
        rows.into_iter().map(|row| {
            order
                .iter()
                .map(|&c| row[c].clone())
                .collect::<Vec<Value>>()
        }),
    )
    .expect("result rows match their own schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    #[test]
    fn checksum_ignores_row_and_column_order_but_not_content() {
        let a = relation! { ["s#", "color"] => [1, "blue"], [2, "red"], [3, "blue"] };
        let rows: Vec<Vec<Value>> = vec![
            vec!["blue".into(), 3.into()],
            vec!["blue".into(), 1.into()],
            vec!["red".into(), 2.into()],
        ];
        let swapped = Checksum::of_rows(&["color", "s#"], rows.iter().map(Vec::as_slice));
        assert_eq!(Checksum::of_relation(&a), swapped);
        assert_eq!(swapped.rows, 3);

        let other = relation! { ["s#", "color"] => [1, "blue"], [2, "red"], [3, "red"] };
        assert_ne!(Checksum::of_relation(&a), Checksum::of_relation(&other));
        // Values are hashed in their own column: (1, 2) is not (2, 1).
        let ab = relation! { ["a", "b"] => [1, 2] };
        let ba = relation! { ["a", "b"] => [2, 1] };
        assert_ne!(Checksum::of_relation(&ab), Checksum::of_relation(&ba));
    }

    #[test]
    fn batch_checksum_equals_tuple_checksum() {
        let r = relation! { ["s#", "color"] => [1, "blue"], [2, "red"], [3, "blue"], [4, "green"] };
        let whole = ColumnarBatch::from_relation(&r);
        let halves = [whole.gather(&[3, 0]), whole.gather(&[2, 1])];
        assert_eq!(Checksum::of_batches(&halves), Checksum::of_relation(&r));
    }

    #[test]
    fn expected_matches_whole_results_only() {
        let r = relation! { ["s#", "color"] => [1, "blue"], [2, "red"] };
        let expected = Expected::new(&r);
        let batch = ColumnarBatch::from_relation(&r);
        assert!(expected.matches_batches(&[batch.gather(&[1]), batch.gather(&[0])]));
        assert!(!expected.matches_batches(&[batch.gather(&[1])]));
        assert!(!expected.matches_batches(&[]));
        assert_eq!(expected.checksum, Checksum::of_batches(&[batch]));
    }
}
