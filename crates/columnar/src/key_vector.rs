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
//! * a two-column key whose two values are both non-NULL ints in the `i32`
//!   range codes as `(a as u32) << 32 | (b as u32)` — the two halves side
//!   by side, injective like the raw-`i64` path. The choice is made per row
//!   from the values alone, so it is the same for every encoding (`Int`
//!   with or without a validity bitmap, `Mixed`) and every batch,
//! * any other multi-column (composite) key folds its column codes with
//!   [`combine`], starting from [`COMPOSITE_SEED`].
//!
//! [`key_code`] is the value-level statement of these rules. Equal keys
//! therefore always get equal codes. The converse holds only for the
//! raw-`i64` and packed paths: every other path can collide in the `u64`
//! code space (e.g. `Value::Int(NULL_CODE as i64)` collides with `NULL` by
//! construction, and a folded code can equal a packed one).
//! [`KeyVector::exact`] reports which case applies — a single NULL-free int
//! column, or a two-column key every row of which was packed — and the
//! consuming tables verify candidates against the source batches (via
//! [`keys_equal`]) whenever either side is inexact. Partition routing hashes
//! the folded code of every composite key, packed or not, so packing
//! changes what the tables verify and nothing about where a row spills.

use crate::batch::ColumnarBatch;
use crate::column::{Column, StrColumn};
use crate::hash_table::pair_code;
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

/// The packed code of a two-column key, when both values fit in an `i32`:
/// the high half is `a`'s 32 bits, the low half `b`'s. Distinct in-range
/// pairs get distinct codes.
#[inline]
fn packed_code(a: i64, b: i64) -> Option<u64> {
    let (a, b) = (i32::try_from(a).ok()?, i32::try_from(b).ok()?);
    Some(pair_code(a as u32, b as u32))
}

/// The canonical code of a key given as its values, in key-column order —
/// the value-level contract [`KeyVector::build`] implements for every
/// encoding: one value codes as [`value_code`], two ints in the `i32` range
/// pack, and anything else folds its value codes from [`COMPOSITE_SEED`].
pub fn key_code(values: &[Value]) -> u64 {
    if let [single] = values {
        return value_code(single);
    }
    if let [Value::Int(a), Value::Int(b)] = values {
        if let Some(code) = packed_code(*a, *b) {
            return code;
        }
    }
    values
        .iter()
        .fold(COMPOSITE_SEED, |acc, v| combine(acc, value_code(v)))
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
        if let [a, b] = key_columns {
            return pair_codes(batch.column(*a), batch.column(*b));
        }
        KeyVector::build_folded(batch, key_columns)
    }

    /// [`KeyVector::build`] with no packed path: a two-column key folds like
    /// any other composite key. Partition routing hashes these codes, so
    /// which spill partition a row lands in does not depend on whether its
    /// key packs — packing only spares the hash tables their verification.
    pub(crate) fn build_folded(batch: &ColumnarBatch, key_columns: &[usize]) -> KeyVector {
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

    /// `true` when code equality *implies* key equality: the raw-`i64`
    /// path, or a two-column key every row of which took the packed path.
    /// Two exact vectors can be matched on codes alone; if either side is
    /// inexact, matches must be verified against the source batches (see
    /// [`keys_equal`]).
    #[inline]
    pub fn exact(&self) -> bool {
        self.exact
    }
}

/// The codes of a two-column key ([`key_code`] row by row): packed where
/// both values are ints in the `i32` range, folded elsewhere. The vector is
/// exact when no row folded.
fn pair_codes(a: &Column, b: &Column) -> KeyVector {
    let mut exact = true;
    // The hot path: two NULL-free int columns, decided per row with no
    // second pass.
    if let (Some((av, None)), Some((bv, None))) = (a.as_int_slice(), b.as_int_slice()) {
        let codes = av
            .iter()
            .zip(bv)
            .map(|(&x, &y)| {
                packed_code(x, y).unwrap_or_else(|| {
                    exact = false;
                    combine(combine(COMPOSITE_SEED, x as u64), y as u64)
                })
            })
            .collect();
        return KeyVector { codes, exact };
    }
    let mut codes = vec![COMPOSITE_SEED; a.len()];
    for col in [a, b] {
        for_each_code(col, |i, code| codes[i] = combine(codes[i], code));
    }
    for (i, code) in codes.iter_mut().enumerate() {
        match int_at(a, i)
            .zip(int_at(b, i))
            .and_then(|(x, y)| packed_code(x, y))
        {
            Some(packed) => *code = packed,
            None => exact = false,
        }
    }
    KeyVector { codes, exact }
}

/// `true` when row `row` of `batch` codes exactly over `key_columns`: one
/// non-NULL int, or two ints in the `i32` range (the packed path). An exact
/// vector holds only such rows; in an inexact one they are the rows whose
/// code still is their key.
pub(crate) fn exact_row(batch: &ColumnarBatch, key_columns: &[usize], row: usize) -> bool {
    let int = |col: &usize| int_at(batch.column(*col), row);
    match key_columns {
        [a] => int(a).is_some(),
        [a, b] => int(a)
            .zip(int(b))
            .and_then(|(x, y)| packed_code(x, y))
            .is_some(),
        _ => false,
    }
}

/// Row `i` of `col` when it holds a non-NULL int, whatever the encoding.
#[inline]
fn int_at(col: &Column, i: usize) -> Option<i64> {
    match col {
        Column::Int { values, validity } => validity
            .as_ref()
            .is_none_or(|valid| valid[i])
            .then(|| values[i]),
        Column::Mixed(values) => match values[i] {
            Value::Int(v) => Some(v),
            _ => None,
        },
        Column::Bool { .. } | Column::Str(_) => None,
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
/// the verification requirement **once** from both key vectors' exactness
/// ([`KeyVector::exact`]): `pred(probe_row, candidate_row)` is trivially
/// `true` when both sides are exact (code equality is key equality) and a
/// column-wise compare otherwise. Pairing the batch/column-list/exactness
/// triples here — instead of hand-spelling `!verify || keys_equal(..)` at
/// every table call site — makes a mismatched pairing impossible to write
/// per row. Pass the same triple twice for self-batch grouping.
pub fn cross_matcher<'a>(
    probe: &'a ColumnarBatch,
    probe_cols: &'a [usize],
    probe_exact: bool,
    build: &'a ColumnarBatch,
    build_cols: &'a [usize],
    build_exact: bool,
) -> impl Fn(usize, usize) -> bool + 'a {
    let verify = !(probe_exact && build_exact);
    move |row, candidate| {
        !verify || keys_equal(probe, probe_cols, row, build, build_cols, candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::{relation, Relation, Schema, Tuple};
    use proptest::prelude::*;

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
        // Two in-range ints pack: the vector is exact, and the code is the
        // two halves side by side.
        let a = ColumnarBatch::from_relation(&relation! { ["x", "y"] => [1, 2], [2, 1] });
        let b = ColumnarBatch::from_relation(&relation! { ["y", "x"] => [2, 1] });
        let ka = KeyVector::build(&a, &[0, 1]);
        let kb = KeyVector::build(&b, &[1, 0]);
        assert!(ka.exact() && kb.exact());
        assert_eq!(ka.code(0), (1 << 32) | 2);
        assert_eq!(ka.code(0), kb.code(0), "(1, 2) codes agree across batches");
        assert_ne!(
            ka.code(0),
            ka.code(1),
            "(1, 2) vs (2, 1) is order-sensitive"
        );
        assert_eq!(
            KeyVector::build(&a, &[0, 1]).code(1),
            key_code(&[Value::Int(2), Value::Int(1)])
        );

        // One NULL or one value outside the i32 range folds that row, and
        // the vector is no longer exact; the in-range row keeps its code.
        let big = i64::from(i32::MAX) + 1;
        for odd in [Value::Null, Value::Int(big), Value::Int(-big - 1)] {
            let rel = Relation::new(
                Schema::of(["x", "y"]),
                [
                    Tuple::new([Value::Int(1), Value::Int(2)]),
                    Tuple::new([Value::Int(3), odd.clone()]),
                ],
            )
            .unwrap();
            let batch = ColumnarBatch::from_relation(&rel);
            let keys = KeyVector::build(&batch, &[0, 1]);
            assert!(!keys.exact(), "{odd:?} folds");
            let row = (0..2).find(|&i| batch.value_at(i, 1) == odd).unwrap();
            let folded = combine(combine(COMPOSITE_SEED, 3), value_code(&odd));
            assert_eq!(keys.code(row), folded, "{odd:?}");
            assert_eq!(keys.code(1 - row), ka.code(0), "(1, 2) still packs");
        }
        // The i32 bounds themselves pack.
        let bounds = Relation::new(
            Schema::of(["x", "y"]),
            [Tuple::new([
                Value::Int(i32::MIN.into()),
                Value::Int(i32::MAX.into()),
            ])],
        )
        .unwrap();
        let keys = KeyVector::build(&ColumnarBatch::from_relation(&bounds), &[0, 1]);
        assert!(keys.exact());
        assert_eq!(keys.code(0), 0x8000_0000_7fff_ffff);
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

    /// Key values on both sides of the `i32` bounds, NULL and strings.
    fn drawn_value(pick: u32) -> Value {
        let big = i64::from(i32::MAX);
        match pick {
            0 => Value::Int(-3),
            1 => Value::Int(0),
            2 => Value::Int(7),
            3 => Value::Int(-big - 1),
            4 => Value::Int(-big - 2),
            5 => Value::Int(big),
            6 => Value::Int(big + 1),
            7 => Value::Int(i64::MIN),
            8 => Value::Int(i64::MAX),
            9 => Value::Null,
            10 => Value::str("x"),
            _ => Value::str("y"),
        }
    }

    /// One column over `values`, in the encoding `choice` picks among those
    /// that can hold them: `Int` without a validity bitmap (no NULLs), `Int`
    /// with one (ints and NULLs), or `Mixed` (anything).
    fn encoded(values: &[Value], choice: u64) -> Column {
        let ints: Option<Vec<Option<i64>>> = values
            .iter()
            .map(|v| match v {
                Value::Int(i) => Some(Some(*i)),
                Value::Null => Some(None),
                _ => None,
            })
            .collect();
        let Some(ints) = ints else {
            return Column::Mixed(values.to_vec());
        };
        let nulls = ints.iter().any(Option::is_none);
        match (choice % 3, nulls) {
            (0, false) => Column::Int {
                values: ints.iter().map(|i| i.unwrap_or(0)).collect(),
                validity: None,
            },
            (1, _) | (0, true) => Column::Int {
                values: ints.iter().map(|i| i.unwrap_or(0)).collect(),
                validity: Some(ints.iter().map(Option::is_some).collect()),
            },
            _ => Column::Mixed(values.to_vec()),
        }
    }

    fn packs(a: &Value, b: &Value) -> bool {
        let in_range = |v: &Value| matches!(v, Value::Int(i) if i32::try_from(*i).is_ok());
        in_range(a) && in_range(b)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Two-column keys cut into chunks, each column of each chunk in a
        /// drawn encoding: every row's code is `key_code` of its values (so
        /// codes agree across chunks and encodings), and a vector is exact
        /// exactly when every one of its rows packed.
        #[test]
        fn two_column_codes_are_a_function_of_the_values(
            rows in prop::collection::vec((0u32..12, 0u32..12), 0..40),
            chunk_rows in 1usize..9,
            encodings in 0u64..1 << 40,
        ) {
            let schema = Schema::of(["a", "b", "c"]);
            for (n, chunk) in rows.chunks(chunk_rows).enumerate() {
                let a: Vec<Value> = chunk.iter().map(|&(a, _)| drawn_value(a)).collect();
                let b: Vec<Value> = chunk.iter().map(|&(_, b)| drawn_value(b)).collect();
                let choice = encodings >> (2 * (n % 20));
                // The key columns sit apart, with a bystander between them.
                let bystander = encoded(&vec![Value::Int(0); a.len()], 0);
                let columns = vec![encoded(&a, choice), bystander, encoded(&b, choice / 3)];
                let batch = ColumnarBatch::from_parts(schema.clone(), columns, a.len());
                for (cols, flip) in [([0, 2], false), ([2, 0], true)] {
                    let keys = KeyVector::build(&batch, &cols);
                    let mut all_packed = true;
                    for i in 0..a.len() {
                        let (x, y) = if flip { (&b[i], &a[i]) } else { (&a[i], &b[i]) };
                        prop_assert_eq!(
                            keys.code(i),
                            key_code(&[x.clone(), y.clone()]),
                            "row {} of {:?}", i, (x, y)
                        );
                        all_packed &= packs(x, y);
                    }
                    prop_assert_eq!(keys.exact(), all_packed, "chunk {:?}", chunk);
                }
            }
        }
    }
}
