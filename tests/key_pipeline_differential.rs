//! Differential property suite for the vectorized key pipeline.
//!
//! Every hash-consuming columnar kernel now runs on `KeyVector` codes and
//! open-addressing tables (`div_columnar::key_vector` / `hash_table`)
//! instead of per-row key objects in hash maps. These properties pin the pipeline to the
//! row-backend reference semantics over the inputs that stress it:
//!
//! * NULL-bearing key columns (validity masks → the NULL sentinel code),
//! * mixed-type keys (ints, strings, booleans, NULLs in one column → the
//!   `Mixed` encoding and hashed codes),
//! * multi-column composite keys (code folding),
//! * **forced `u64` code-space collisions**: `Value::Int(NULL_CODE as i64)`
//!   collides with `NULL` by construction, and
//!   `Value::Int(BOOL_FALSE_CODE as i64)` with `false` — the
//!   verify-against-source-batch path must tell them apart.
//!
//! Each kernel's output relation must be byte-identical to the reference
//! `div-algebra` operator. The joins, intersection and difference go
//! through `JoinBuild`, the one join kernel the executor runs.

use div_columnar::kernels::{self, JoinBuild};
use div_columnar::key_vector::{BOOL_FALSE_CODE, NULL_CODE};
use div_columnar::partition::{concat_batches, partition_rows};
use div_columnar::ColumnarBatch;
use division::prelude::*;
use proptest::prelude::*;

/// Decode a generated `(kind, payload)` pair into a key value.
///
/// The payload domain is tiny so keys collide *semantically* (equal values
/// across rows and batches) often; `kind` 3 plants the NULL-sentinel and
/// bool-constant collision ints, so the code space collides too.
fn key_value(kind: u32, payload: i64) -> Value {
    match kind % 5 {
        0 => Value::Null,
        1 => Value::Int(payload),
        2 => Value::str(["blue", "red", "green", "x"][(payload % 4) as usize]),
        3 => [
            Value::Int(NULL_CODE as i64),
            Value::Int(BOOL_FALSE_CODE as i64),
        ][(payload % 2) as usize]
            .clone(),
        _ => Value::Bool(payload % 2 == 0),
    }
}

/// A relation over `names` whose first `key_arity` columns hold generated
/// (possibly mixed-type, NULL-bearing, collision-planted) key values and
/// whose remaining columns hold small ints.
fn mixed_relation(names: &[&str], key_arity: usize, rows: &[(u32, i64, i64)]) -> Relation {
    let tuples = rows.iter().map(|&(kind, payload, tail)| {
        Tuple::new((0..names.len()).map(|c| {
            if c < key_arity {
                // Vary the kind per key column so composite keys mix types.
                key_value(kind.wrapping_add(c as u32), payload + c as i64)
            } else {
                Value::Int(tail)
            }
        }))
    });
    Relation::new(Schema::of(names.iter().copied()), tuples).unwrap()
}

type Rows = Vec<(u32, i64, i64)>;

fn row_strategy(max_rows: usize) -> impl Strategy<Value = Rows> {
    prop::collection::vec((0..10u32, 0..5i64, 0..4i64), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Natural, semi and anti join agree with the reference operators on
    /// mixed-type, NULL-bearing, collision-planted single-column keys.
    #[test]
    fn joins_match_reference_on_hostile_keys(
        left in row_strategy(24),
        right in row_strategy(24),
    ) {
        let l = mixed_relation(&["k", "lv"], 1, &left);
        let r = mixed_relation(&["k", "rv"], 1, &right);
        let lb = ColumnarBatch::from_relation(&l);
        let build = JoinBuild::new(lb.schema(), ColumnarBatch::from_relation(&r)).unwrap();
        let joined = build.probe_natural(&lb).unwrap();
        prop_assert_eq!(
            joined.batch.to_relation().unwrap(),
            l.natural_join(&r).unwrap()
        );
        let semi = build.probe_semi(&lb, false).unwrap();
        prop_assert_eq!(semi.batch.to_relation().unwrap(), l.semi_join(&r).unwrap());
        let anti = build.probe_semi(&lb, true).unwrap();
        prop_assert_eq!(
            anti.batch.to_relation().unwrap(),
            l.anti_semi_join(&r).unwrap()
        );
    }

    /// Joins on composite (two-column) keys agree with the reference.
    #[test]
    fn composite_key_joins_match_reference(
        left in row_strategy(24),
        right in row_strategy(24),
    ) {
        let l = mixed_relation(&["k1", "k2", "lv"], 2, &left);
        let r = mixed_relation(&["k1", "k2", "rv"], 2, &right);
        let lb = ColumnarBatch::from_relation(&l);
        let build = JoinBuild::new(lb.schema(), ColumnarBatch::from_relation(&r)).unwrap();
        let joined = build.probe_natural(&lb).unwrap();
        prop_assert_eq!(
            joined.batch.to_relation().unwrap(),
            l.natural_join(&r).unwrap()
        );
    }

    /// Intersection and difference — the semi and anti join of
    /// union-compatible operands, keyed on whole rows — agree with the
    /// reference. The right operand's columns are swapped, so its key is
    /// conformed to the left operand's attribute order.
    #[test]
    fn set_ops_match_reference_on_hostile_keys(
        left in row_strategy(24),
        right in row_strategy(24),
    ) {
        let l = mixed_relation(&["k", "v"], 1, &left);
        let r = mixed_relation(&["k", "v"], 1, &right);
        let lb = ColumnarBatch::from_relation(&l);
        let swapped = ColumnarBatch::from_relation(&r.project(&["v", "k"]).unwrap());
        let build = JoinBuild::new(lb.schema(), swapped).unwrap();
        prop_assert_eq!(
            build.probe_semi(&lb, false).unwrap().batch.to_relation().unwrap(),
            l.intersect(&r).unwrap()
        );
        prop_assert_eq!(
            build.probe_semi(&lb, true).unwrap().batch.to_relation().unwrap(),
            l.difference(&r).unwrap()
        );
    }

    /// Hash aggregation groups mixed-type composite keys like the
    /// reference.
    #[test]
    fn aggregate_matches_reference_on_hostile_keys(rows in row_strategy(30)) {
        let rel = mixed_relation(&["k1", "k2", "v"], 2, &rows);
        let batch = ColumnarBatch::from_relation(&rel);
        let aggregates = [
            AggregateCall::count("v", "n"),
            AggregateCall::sum("v", "total"),
        ];
        let got = kernels::hash_aggregate(&batch, &["k1", "k2"], &aggregates).unwrap();
        prop_assert_eq!(
            got.to_relation().unwrap(),
            rel.group_aggregate(&["k1", "k2"], &aggregates).unwrap()
        );
    }

    /// The divide kernel's generic (hashed-code) path agrees with the
    /// reference on string/NULL/collision-planted B attributes.
    #[test]
    fn divide_matches_reference_on_hostile_keys(
        dividend in row_strategy(30),
        divisor in row_strategy(8),
    ) {
        let dividend = mixed_relation(&["b", "a"], 1, &dividend);
        let divisor = mixed_relation(&["b"], 1, &divisor);
        let expected = dividend.divide(&divisor).unwrap();
        let out = kernels::hash_divide(
            &ColumnarBatch::from_relation(&dividend),
            &ColumnarBatch::from_relation(&divisor),
        )
        .unwrap();
        prop_assert_eq!(out.batch.to_relation().unwrap(), expected);
    }

    /// The great-divide kernel agrees with the reference on hostile B and C
    /// attributes.
    #[test]
    fn great_divide_matches_reference_on_hostile_keys(
        dividend in row_strategy(30),
        divisor in row_strategy(12),
    ) {
        let dividend = mixed_relation(&["b", "a"], 1, &dividend);
        let divisor = mixed_relation(&["b", "c"], 2, &divisor);
        let expected = dividend.great_divide(&divisor).unwrap();
        let out = kernels::hash_great_divide(
            &ColumnarBatch::from_relation(&dividend),
            &ColumnarBatch::from_relation(&divisor),
        )
        .unwrap();
        prop_assert_eq!(out.batch.to_relation().unwrap(), expected);
    }

    /// Dedup on the key pipeline is exact: duplicating rows and
    /// deduplicating restores the original set, even with collision-planted
    /// whole-row keys.
    #[test]
    fn dedup_is_exact_on_hostile_keys(rows in row_strategy(20)) {
        let rel = mixed_relation(&["k", "v"], 1, &rows);
        let batch = ColumnarBatch::from_relation(&rel);
        let n = batch.num_rows();
        let doubled: Vec<usize> = (0..n).chain(0..n).collect();
        let deduped = batch.gather(&doubled).dedup();
        prop_assert_eq!(deduped.num_rows(), n, "every distinct row survives once");
        prop_assert_eq!(deduped.to_relation().unwrap(), rel);
    }

    /// Hash routing puts every row in exactly one bucket and keeps equal
    /// keys together (keys compared as projected tuples), under any seed.
    #[test]
    fn partitioning_is_sound_on_hostile_keys(
        rows in row_strategy(30),
        partitions in 1..8usize,
        level in 0u64..4,
    ) {
        // Level 0 is the unseeded routing; deeper levels re-randomize it.
        let seed = level.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let rel = mixed_relation(&["k", "v"], 1, &rows);
        let batch = ColumnarBatch::from_relation(&rel);
        let routed = partition_rows(&batch, &[0], partitions, seed);
        prop_assert_eq!(routed.len(), partitions);
        let mut all: Vec<usize> = routed.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..batch.num_rows()).collect::<Vec<_>>());
        let parts: Vec<ColumnarBatch> = routed.iter().map(|rows| batch.gather(rows)).collect();
        if let Some(glued) = concat_batches(&parts) {
            prop_assert_eq!(glued.to_relation().unwrap(), rel);
        }
        // Equal keys never split across partitions.
        let keys = |part: &ColumnarBatch| -> std::collections::BTreeSet<Tuple> {
            (0..part.num_rows())
                .map(|row| Tuple::new([part.value_at(row, 0)]))
                .collect()
        };
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                prop_assert!(
                    keys(&parts[i]).is_disjoint(&keys(&parts[j])),
                    "key split across partitions {} and {}", i, j
                );
            }
        }
    }
}

/// The planted collisions really collide in code space — otherwise the
/// properties above would not be exercising the verification path.
#[test]
fn planted_keys_collide_in_code_space() {
    use div_columnar::key_vector::value_code;
    assert_eq!(
        value_code(&Value::Null),
        value_code(&Value::Int(NULL_CODE as i64))
    );
    assert_eq!(
        value_code(&Value::Bool(false)),
        value_code(&Value::Int(BOOL_FALSE_CODE as i64))
    );
    assert_ne!(Value::Null, Value::Int(NULL_CODE as i64));
}

/// A deterministic end-to-end collision scenario: a join key column holding
/// `NULL`, the NULL-sentinel int, `false`, and the bool-constant int must
/// join exactly like the reference — equal codes, unequal keys.
#[test]
fn forced_collisions_join_exactly() {
    let hostile = [
        Value::Null,
        Value::Int(NULL_CODE as i64),
        Value::Bool(false),
        Value::Int(BOOL_FALSE_CODE as i64),
        Value::Int(7),
    ];
    let left = Relation::new(
        Schema::of(["k", "lv"]),
        hostile
            .iter()
            .enumerate()
            .map(|(i, k)| Tuple::new([k.clone(), Value::Int(i as i64)])),
    )
    .unwrap();
    let right = Relation::new(
        Schema::of(["k", "rv"]),
        [
            Tuple::new([Value::Null, Value::Int(100)]),
            Tuple::new([Value::Bool(false), Value::Int(200)]),
            Tuple::new([Value::Int(7), Value::Int(300)]),
        ],
    )
    .unwrap();
    let lb = ColumnarBatch::from_relation(&left);
    let build = JoinBuild::new(lb.schema(), ColumnarBatch::from_relation(&right)).unwrap();
    let joined = build.probe_natural(&lb).unwrap();
    let expected = left.natural_join(&right).unwrap();
    assert_eq!(joined.batch.to_relation().unwrap(), expected);
    // Exactly the three genuine matches: the collision ints match nothing.
    assert_eq!(expected.len(), 3);
    let semi = build.probe_semi(&lb, false).unwrap();
    assert_eq!(semi.batch.num_rows(), 3);
}
