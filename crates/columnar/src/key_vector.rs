//! Batch-level key normalization: one dense `u64` code per row, computed
//! once per batch.
//!
//! Materializing a key object per row per operator — cloning [`Value`]s,
//! allocating a `Vec<Value>` for composite keys — and pushing it through
//! SipHash `HashMap`s is what this module exists to avoid. The hash
//! division family (Graefe, ICDE 1989; Graefe & Cole, TODS 1995) wins
//! precisely because per-tuple hash work is cheap, so this module makes the
//! key machinery vectorized and allocation-free: [`KeyVector::build`]
//! normalizes a batch's key columns **once per batch** into dense `u64`
//! codes, and the open-addressing tables of
//! [`hash_table`](crate::hash_table) consume the codes directly.
//!
//! # Code assignment
//!
//! Codes are a pure function of the key *values*, never of the column
//! encoding, so vectors built over differently-encoded batches (a dividend
//! and a divisor, the two sides of a join) are directly comparable:
//!
//! * a non-NULL `i64` codes as its raw bits (the hot path: no hashing at
//!   all, the code *is* the key),
//! * a string codes as a byte hash computed **once per dictionary entry**
//!   and fanned out through the dictionary codes (per row: one array load),
//! * `NULL` codes as the fixed sentinel [`NULL_CODE`],
//! * booleans and set values code as fixed/combined hash constants,
//! * a multi-column (composite) key folds its column codes with
//!   [`combine`], starting from [`COMPOSITE_SEED`].
//!
//! Equal keys therefore always get equal codes. The converse holds only for
//! the raw-`i64` path: every other path can collide in the `u64` code
//! space (e.g. `Value::Int(NULL_CODE as i64)` collides with `NULL` by
//! construction). [`KeyVector::exact`] reports which case applies, and the
//! consuming tables verify candidates against the source batches (via
//! [`keys_equal`]) whenever either side is inexact.

use crate::batch::ColumnarBatch;
use crate::column::{Column, StrColumn};
use div_algebra::Value;

/// Code of the SQL `NULL` key value. Public so tests can construct forced
/// code-space collisions (`Value::Int(NULL_CODE as i64)` vs `NULL`).
pub const NULL_CODE: u64 = 0x7f4a_7c15_9e37_79b9;

/// Code of `Value::Bool(false)`. Distinct arbitrary constant; collisions
/// with raw integer codes are caught by verification (boolean key vectors
/// are never [`exact`](KeyVector::exact)).
pub const BOOL_FALSE_CODE: u64 = 0x85eb_ca6b_27d4_eb2f;

/// Code of `Value::Bool(true)`.
pub const BOOL_TRUE_CODE: u64 = 0xc2b2_ae3d_51b4_2a05;

/// Fold seed for composite (multi-column) keys.
pub const COMPOSITE_SEED: u64 = 0x51af_d7ed_558c_cd25;

/// Fold seed for set values.
const SET_SEED: u64 = 0xb492_b66f_be98_f273;

/// FNV-1a offset basis / prime for string byte hashing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash a string's bytes (FNV-1a). Computed once per dictionary entry for
/// dictionary-encoded columns.
#[inline]
pub fn str_code(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Combine an accumulated code with the next column's (or set element's)
/// code. Order-sensitive, as composite keys are.
#[inline]
pub fn combine(acc: u64, code: u64) -> u64 {
    (acc.rotate_left(5) ^ code).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The canonical code of a single [`Value`] — the contract every
/// [`KeyVector`] encoding path implements. Equal values always produce
/// equal codes; unequal values may collide (verification handles that).
pub fn value_code(value: &Value) -> u64 {
    match value {
        Value::Null => NULL_CODE,
        Value::Bool(false) => BOOL_FALSE_CODE,
        Value::Bool(true) => BOOL_TRUE_CODE,
        Value::Int(i) => *i as u64,
        Value::Str(s) => str_code(s),
        Value::Set(items) => items
            .iter()
            .fold(SET_SEED, |h, item| combine(h, value_code(item))),
    }
}

/// A batch's key columns normalized to one dense `u64` code per row.
///
/// Built once per batch per operator. See the module docs for the
/// code-assignment contract.
#[derive(Debug, Clone)]
pub struct KeyVector {
    codes: Vec<u64>,
    exact: bool,
}

impl KeyVector {
    /// Normalize `batch`'s rows over `key_columns` (in the given order).
    ///
    /// With an empty `key_columns` list every row gets the same code
    /// ([`COMPOSITE_SEED`]) — the degenerate key under which all rows are
    /// equal, matching the semantics of grouping by nothing.
    pub fn build(batch: &ColumnarBatch, key_columns: &[usize]) -> KeyVector {
        let rows = batch.num_rows();
        if let [single] = key_columns {
            if let Column::Int {
                values,
                validity: None,
            } = batch.column(*single)
            {
                // Raw-i64 fast path: the code *is* the key (injective).
                return KeyVector {
                    codes: values.iter().map(|&v| v as u64).collect(),
                    exact: true,
                };
            }
            let mut codes = vec![0u64; rows];
            for_each_code(batch.column(*single), |i, code| codes[i] = code);
            return KeyVector {
                codes,
                exact: false,
            };
        }
        let mut codes = vec![COMPOSITE_SEED; rows];
        for &col in key_columns {
            for_each_code(batch.column(col), |i, code| {
                codes[i] = combine(codes[i], code)
            });
        }
        KeyVector {
            codes,
            exact: false,
        }
    }

    /// The code of row `row`.
    #[inline]
    pub fn code(&self, row: usize) -> u64 {
        self.codes[row]
    }

    /// All row codes, in row order.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the vector has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// `true` when code equality *implies* key equality (the raw-`i64`
    /// path). Two exact vectors can be matched on codes alone; if either
    /// side is inexact, matches must be verified against the source batches
    /// (see [`keys_equal`]).
    #[inline]
    pub fn exact(&self) -> bool {
        self.exact
    }
}

/// Feed `apply(row, code)` the canonical code of every row of `col`,
/// dispatching on the column encoding once (strings hash once per
/// dictionary entry, not per row).
fn for_each_code(col: &Column, mut apply: impl FnMut(usize, u64)) {
    match col {
        Column::Int { values, validity } => match validity {
            None => {
                for (i, &v) in values.iter().enumerate() {
                    apply(i, v as u64);
                }
            }
            Some(valid) => {
                for (i, &v) in values.iter().enumerate() {
                    apply(i, if valid[i] { v as u64 } else { NULL_CODE });
                }
            }
        },
        Column::Bool { values, validity } => {
            let code_of = |b: bool| if b { BOOL_TRUE_CODE } else { BOOL_FALSE_CODE };
            match validity {
                None => {
                    for (i, &v) in values.iter().enumerate() {
                        apply(i, code_of(v));
                    }
                }
                Some(valid) => {
                    for (i, &v) in values.iter().enumerate() {
                        apply(i, if valid[i] { code_of(v) } else { NULL_CODE });
                    }
                }
            }
        }
        Column::Str(s) => {
            let dict_codes: Vec<u64> = s.dict.iter().map(|entry| str_code(entry)).collect();
            match &s.validity {
                None => {
                    for (i, &c) in s.codes.iter().enumerate() {
                        apply(i, dict_codes[c as usize]);
                    }
                }
                Some(valid) => {
                    for (i, &c) in s.codes.iter().enumerate() {
                        apply(
                            i,
                            if valid[i] {
                                dict_codes[c as usize]
                            } else {
                                NULL_CODE
                            },
                        );
                    }
                }
            }
        }
        Column::Mixed(values) => {
            for (i, v) in values.iter().enumerate() {
                apply(i, value_code(v));
            }
        }
    }
}

/// Compare one column's row against another column's row without
/// materializing [`Value`]s for the common encodings (NULLs compare equal,
/// like `Value::Null == Value::Null`). The cold fallback (`Mixed` or
/// cross-encoding) compares materialized values.
fn column_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a, b) {
        (
            Column::Int {
                values: av,
                validity: avd,
            },
            Column::Int {
                values: bv,
                validity: bvd,
            },
        ) => {
            let a_null = matches!(avd, Some(v) if !v[i]);
            let b_null = matches!(bvd, Some(v) if !v[j]);
            if a_null || b_null {
                a_null && b_null
            } else {
                av[i] == bv[j]
            }
        }
        (
            Column::Bool {
                values: av,
                validity: avd,
            },
            Column::Bool {
                values: bv,
                validity: bvd,
            },
        ) => {
            let a_null = matches!(avd, Some(v) if !v[i]);
            let b_null = matches!(bvd, Some(v) if !v[j]);
            if a_null || b_null {
                a_null && b_null
            } else {
                av[i] == bv[j]
            }
        }
        (Column::Str(a), Column::Str(b)) => str_get(a, i) == str_get(b, j),
        _ => a.value(i) == b.value(j),
    }
}

fn str_get(col: &StrColumn, i: usize) -> Option<&str> {
    col.get(i)
}

/// `true` when row `i` of `a` (over `a_cols`) and row `j` of `b` (over
/// `b_cols`) hold equal key values, column by column. The verification
/// predicate behind every inexact code match; `a_cols` and `b_cols` must
/// pair up semantically (same attribute order), as they do for every kernel
/// key layout.
pub fn keys_equal(
    a: &ColumnarBatch,
    a_cols: &[usize],
    i: usize,
    b: &ColumnarBatch,
    b_cols: &[usize],
    j: usize,
) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&ca, &cb)| column_eq(a.column(ca), i, b.column(cb), j))
}

/// Build the key-equality predicate for a probe/build pairing, computing
/// the verification requirement **once** from both vectors' exactness:
/// `pred(probe_row, candidate_row)` is trivially `true` when both sides
/// are exact (code equality is key equality) and a column-wise compare
/// otherwise. Pairing the batch/column-list/vector triples here — instead
/// of hand-spelling `!verify || keys_equal(..)` at every table call site —
/// makes a mismatched pairing impossible to write per row. Pass the same
/// triple twice for self-batch grouping.
pub fn cross_matcher<'a>(
    probe: &'a ColumnarBatch,
    probe_cols: &'a [usize],
    probe_keys: &KeyVector,
    build: &'a ColumnarBatch,
    build_cols: &'a [usize],
    build_keys: &KeyVector,
) -> impl Fn(usize, usize) -> bool + 'a {
    let verify = !(probe_keys.exact() && build_keys.exact());
    move |row, candidate| {
        !verify || keys_equal(probe, probe_cols, row, build, build_cols, candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::{relation, Relation, Schema, Tuple};

    #[test]
    fn raw_int_columns_are_exact_and_identity_coded() {
        let batch = ColumnarBatch::from_relation(&relation! { ["a", "b"] => [7, 1], [-3, 2] });
        let keys = KeyVector::build(&batch, &[0]);
        assert!(keys.exact());
        assert_eq!(keys.codes(), &[(-3i64) as u64, 7u64]);
    }

    #[test]
    fn codes_are_encoding_independent() {
        // The same key values through different batches (hence different
        // dictionaries / layouts) produce identical codes.
        let a = ColumnarBatch::from_relation(&relation! {
            ["k", "x"] => ["blue", 1], ["red", 2]
        });
        let b = ColumnarBatch::from_relation(&relation! {
            ["y", "k"] => [9, "red"], [8, "green"], [7, "blue"]
        });
        let ka = KeyVector::build(&a, &[0]);
        let kb = KeyVector::build(&b, &[1]);
        // a sorts to [blue, red]; b sorts to [blue, green, red].
        assert_eq!(ka.code(0), kb.code(0), "blue");
        assert_eq!(ka.code(1), kb.code(2), "red");
        assert_ne!(ka.code(0), ka.code(1));
    }

    #[test]
    fn null_codes_use_the_sentinel_and_collide_with_its_int() {
        let rel = Relation::new(
            Schema::of(["k"]),
            [
                Tuple::new([Value::Null]),
                Tuple::new([Value::Int(NULL_CODE as i64)]),
            ],
        )
        .unwrap();
        let batch = ColumnarBatch::from_relation(&rel);
        let keys = KeyVector::build(&batch, &[0]);
        assert!(!keys.exact(), "NULL-bearing vectors are never exact");
        // Both rows code identically — the forced collision — but
        // verification tells them apart.
        assert_eq!(keys.code(0), keys.code(1));
        assert!(!keys_equal(&batch, &[0], 0, &batch, &[0], 1));
        assert!(keys_equal(&batch, &[0], 0, &batch, &[0], 0));
    }

    #[test]
    fn composite_codes_agree_across_batches_and_differ_per_key() {
        let a = ColumnarBatch::from_relation(&relation! { ["x", "y"] => [1, 2], [2, 1] });
        let b = ColumnarBatch::from_relation(&relation! { ["y", "x"] => [2, 1] });
        let ka = KeyVector::build(&a, &[0, 1]);
        let kb = KeyVector::build(&b, &[1, 0]);
        assert!(!ka.exact());
        assert_eq!(ka.code(0), kb.code(0), "(1, 2) codes agree across batches");
        assert_ne!(
            ka.code(0),
            ka.code(1),
            "(1, 2) vs (2, 1) is order-sensitive"
        );
    }

    #[test]
    fn empty_key_column_list_codes_every_row_identically() {
        let batch = ColumnarBatch::from_relation(&relation! { ["a"] => [1], [2], [3] });
        let keys = KeyVector::build(&batch, &[]);
        assert!(keys.codes().iter().all(|&c| c == COMPOSITE_SEED));
        assert!(keys_equal(&batch, &[], 0, &batch, &[], 2));
    }

    #[test]
    fn mixed_columns_code_by_value_and_match_homogeneous_encodings() {
        // A Mixed column holding an Int must code identically to a plain Int
        // column holding the same value — codes are a function of the value.
        let mixed = Relation::new(
            Schema::of(["k"]),
            [
                Tuple::new([Value::Int(42)]),
                Tuple::new([Value::str("blue")]),
                Tuple::new([Value::set([1, 2])]),
            ],
        )
        .unwrap();
        let batch = ColumnarBatch::from_relation(&mixed);
        let keys = KeyVector::build(&batch, &[0]);
        let plain = ColumnarBatch::from_relation(&relation! { ["k"] => [42] });
        let plain_keys = KeyVector::build(&plain, &[0]);
        // Mixed sorts: Int(42) < Str("blue") < Set — relation order is
        // Int, Str, Set (variant order).
        assert_eq!(keys.code(0), plain_keys.code(0));
        assert_eq!(keys.code(1), str_code("blue"));
    }

    #[test]
    fn value_codes_distinguish_bool_null_and_ints() {
        assert_eq!(value_code(&Value::Null), NULL_CODE);
        assert_ne!(
            value_code(&Value::Bool(false)),
            value_code(&Value::Bool(true))
        );
        assert_eq!(value_code(&Value::Int(5)), 5);
        assert_eq!(
            value_code(&Value::set([1, 2])),
            value_code(&Value::set([2, 1]))
        );
        assert_ne!(
            value_code(&Value::set([1, 2])),
            value_code(&Value::set([1, 3]))
        );
    }
}
