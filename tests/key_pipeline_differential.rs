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
//!
//! A build side whose keys are exact ints over a compact range is indexed
//! by a direct-addressed array instead of a hash table. The `dense_*`
//! properties draw their build keys from such a range, so `JoinBuild`, the
//! divisor indexes and `dedup` take that form, while the probe sides still
//! carry NULLs, ints outside `i32` and strings; a planted probe whose
//! folded code decodes onto an occupied array cell must not match.
//!
//! The streaming states learn that range chunk by chunk instead: the great
//! divide's `(A, C)` counters and the `GroupStore` under the divides, the
//! aggregate and the distinct filter stay dense over compact ints fed in
//! ascending or descending order, and move to their hashed forms on a
//! hostile chunk or a range too sparse for the memory rule. The
//! `dense_counters_*` and `dense_stores_*` properties feed them such
//! streams.

use div_columnar::kernels::{self, JoinBuild, StreamingAggregate, StreamingGreatDivide};
use div_columnar::key_vector::{BOOL_FALSE_CODE, NULL_CODE};
use div_columnar::partition::{concat_batches, partition_rows};
use div_columnar::{ColumnarBatch, StreamingDistinct};
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

/// A probe-side key value: an int of the build side's compact range, NULL, an int outside `i32` (its two-column keys fold)
/// or a string.
fn probe_value(kind: u32, payload: i64) -> Value {
    match kind % 6 {
        0 => Value::Null,
        1 => Value::Int(payload + (1 << 40)),
        2 => Value::str(["blue", "red"][(payload % 2) as usize]),
        _ => Value::Int(payload),
    }
}

/// A relation over `names`: the first `key_arity` columns are keys — ints
/// of a compact range on the build side (`0..6`, and `0..4` for a second
/// column: 24 cells, which every build of seven or more rows indexes
/// densely), drawn by [`probe_value`] on the probe side — and the rest
/// hold small ints.
fn keyed_relation(
    names: &[&str],
    key_arity: usize,
    rows: &[(u32, i64, i64)],
    probe_side: bool,
) -> Relation {
    let tuples = rows.iter().map(|&(kind, payload, tail)| {
        Tuple::new((0..names.len()).map(|c| {
            let payload = if c == 0 {
                payload
            } else {
                (payload + tail) % 4
            };
            match c {
                c if c >= key_arity => Value::Int(tail),
                _ if probe_side => probe_value(kind.wrapping_add(c as u32), payload),
                _ => Value::Int(payload),
            }
        }))
    });
    Relation::new(Schema::of(names.iter().copied()), tuples).unwrap()
}

fn keyed_rows(max_rows: usize) -> impl Strategy<Value = Rows> {
    prop::collection::vec((0..12u32, 0..6i64, 0..4i64), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// ⋈, ⋉ and ▷ over a dense build on one or two key columns agree with
    /// the reference, whatever the probe side holds.
    #[test]
    fn dense_builds_join_like_the_reference(
        left in keyed_rows(30),
        right in keyed_rows(24),
        key_arity in 1..3usize,
    ) {
        let (left_names, right_names) = if key_arity == 1 {
            (&["k1", "lv"][..], &["k1", "rv"][..])
        } else {
            (&["k1", "k2", "lv"][..], &["k1", "k2", "rv"][..])
        };
        let l = keyed_relation(left_names, key_arity, &left, true);
        let r = keyed_relation(right_names, key_arity, &right, false);
        let lb = ColumnarBatch::from_relation(&l);
        let build = JoinBuild::new(lb.schema(), ColumnarBatch::from_relation(&r)).unwrap();
        prop_assert_eq!(
            build.probe_natural(&lb).unwrap().batch.to_relation().unwrap(),
            l.natural_join(&r).unwrap()
        );
        prop_assert_eq!(
            build.probe_semi(&lb, false).unwrap().batch.to_relation().unwrap(),
            l.semi_join(&r).unwrap()
        );
        prop_assert_eq!(
            build.probe_semi(&lb, true).unwrap().batch.to_relation().unwrap(),
            l.anti_semi_join(&r).unwrap()
        );
        prop_assert_eq!(
            kernels::hash_natural_join(&lb, &ColumnarBatch::from_relation(&r))
                .unwrap()
                .batch
                .to_relation()
                .unwrap(),
            l.natural_join(&r).unwrap()
        );
    }

    /// ∩ and − over a dense whole-row build (two int columns, the right
    /// operand's swapped) agree with the reference.
    #[test]
    fn dense_builds_intersect_and_subtract_like_the_reference(
        left in keyed_rows(30),
        right in keyed_rows(24),
    ) {
        let l = keyed_relation(&["k", "v"], 2, &left, true);
        let r = keyed_relation(&["k", "v"], 2, &right, false);
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

    /// ÷ and ÷* by a divisor whose `B` (and `C`) values are a compact int
    /// range agree with the reference on a hostile dividend.
    #[test]
    fn dense_divisors_divide_like_the_reference(
        dividend in keyed_rows(40),
        divisor in keyed_rows(8),
    ) {
        let dividend = keyed_relation(&["b", "a"], 1, &dividend, true);
        let dividend_batch = ColumnarBatch::from_relation(&dividend);
        let small = keyed_relation(&["b"], 1, &divisor, false);
        prop_assert_eq!(
            kernels::hash_divide(&dividend_batch, &ColumnarBatch::from_relation(&small))
                .unwrap()
                .batch
                .to_relation()
                .unwrap(),
            dividend.divide(&small).unwrap()
        );
        let great = keyed_relation(&["b", "c"], 2, &divisor, false);
        prop_assert_eq!(
            kernels::hash_great_divide(&dividend_batch, &ColumnarBatch::from_relation(&great))
                .unwrap()
                .batch
                .to_relation()
                .unwrap(),
            dividend.great_divide(&great).unwrap()
        );
    }

    /// Dedup over compact int rows (one or two columns) is exact.
    #[test]
    fn dense_dedup_is_exact(rows in keyed_rows(30), key_arity in 1..3usize) {
        let names = if key_arity == 1 { &["k"][..] } else { &["k", "v"][..] };
        let rel = keyed_relation(names, key_arity, &rows, false);
        let batch = ColumnarBatch::from_relation(&rel);
        let n = batch.num_rows();
        let doubled: Vec<usize> = (0..n).chain(0..n).collect();
        let deduped = batch.gather(&doubled).dedup();
        prop_assert_eq!(deduped.num_rows(), n);
        prop_assert_eq!(deduped.to_relation().unwrap(), rel);
    }
}

/// `batch`'s rows in `chunk_rows`-row chunks, in row order or — `reverse`
/// — backwards, so a sorted key column grows upwards or downwards.
fn chunked(batch: &ColumnarBatch, chunk_rows: usize, reverse: bool) -> Vec<ColumnarBatch> {
    let mut rows: Vec<usize> = (0..batch.num_rows()).collect();
    if reverse {
        rows.reverse();
    }
    rows.chunks(chunk_rows)
        .map(|rows| batch.gather(rows))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// ÷* by a divisor with two or more `C` groups over compact ints, the
    /// dividend streamed in chunks with its `A` values rising or falling:
    /// compact int `A`s keep the counters and the dividend-group map dense,
    /// and a hostile dividend (NULLs, strings, ints outside `i32` among the
    /// `A` values) moves the map to its hashed form mid-stream. The
    /// quotient is the reference's either way.
    #[test]
    fn dense_counters_divide_like_the_reference(
        dividend in keyed_rows(60),
        divisor in prop::collection::vec((0..4i64, 0..3i64), 0..10),
        hostile in 0..2u32,
        chunk_rows in 1..16usize,
        reverse in 0..2u32,
    ) {
        let dividend = keyed_relation(&["a", "b"], 1, &dividend, hostile == 1);
        let divisor_rows = divisor.into_iter().chain([(0, 0), (1, 1)]).map(|(b, c)| [b, c]);
        let divisor = Relation::from_rows(["b", "c"], divisor_rows).unwrap();
        let dividend_batch = ColumnarBatch::from_relation(&dividend);
        let mut state = StreamingGreatDivide::new(
            dividend_batch.schema(),
            ColumnarBatch::from_relation(&divisor),
        )
        .unwrap();
        for chunk in chunked(&dividend_batch, chunk_rows, reverse == 1) {
            state.consume(&chunk);
        }
        prop_assert_eq!(
            state.finish().to_relation().unwrap(),
            dividend.great_divide(&divisor).unwrap()
        );
    }

    /// The aggregate and the distinct filter over one or two int key
    /// columns, streamed in chunks: keys `stride` apart make a compact
    /// range (stride 1), one that grows past the memory rule (stride
    /// 1000) or sit in between, rising or falling with the chunks; a
    /// hostile stream mixes NULLs, strings and ints outside `i32` in. Groups
    /// and distinct rows are the reference's.
    #[test]
    fn dense_stores_group_like_the_reference(
        rows in keyed_rows(40),
        key_arity in 1..3usize,
        stride in 0..3usize,
        hostile in 0..2u32,
        chunk_rows in 1..16usize,
        reverse in 0..2u32,
    ) {
        let names = if key_arity == 1 { &["k", "v"][..] } else { &["k", "k2", "v"][..] };
        let rel = keyed_relation(names, key_arity, &rows, hostile == 1);
        let stride = [1i64, 7, 1000][stride];
        let spread = Relation::new(
            rel.schema().clone(),
            rel.tuples().map(|t| {
                Tuple::new(t.values().iter().map(|v| match v {
                    Value::Int(i) if i.abs() < 1 << 20 => Value::Int(i * stride),
                    other => other.clone(),
                }))
            }),
        )
        .unwrap();
        let batch = ColumnarBatch::from_relation(&spread);
        let keys = &names[..key_arity];
        let aggregates = [AggregateCall::count("v", "n"), AggregateCall::sum("v", "total")];
        let mut aggregate = StreamingAggregate::new(batch.schema(), keys, &aggregates).unwrap();
        let mut distinct = StreamingDistinct::new(batch.schema().clone());
        let mut kept = Vec::new();
        for chunk in chunked(&batch, chunk_rows, reverse == 1) {
            aggregate.consume(&chunk).unwrap();
            // Every chunk twice: the second time nothing is new.
            let fresh = distinct.push(&chunk);
            prop_assert_eq!(distinct.push(&chunk).num_rows(), 0);
            kept.extend((0..fresh.num_rows()).map(|row| fresh.row(row)));
        }
        prop_assert_eq!(
            aggregate.finish().unwrap().to_relation().unwrap(),
            spread.group_aggregate(keys, &aggregates).unwrap()
        );
        prop_assert_eq!(kept.len(), spread.len());
        prop_assert_eq!(Relation::new(spread.schema().clone(), kept).unwrap(), spread);
    }
}

/// Probe keys whose inexact codes equal a stored key's code, so they
/// decode onto an occupied cell of the dense build: a NULL against the
/// int `NULL_CODE` (one column), and a folded `(NULL, 7)` against the two
/// ints its code unpacks to (two columns). Verification rejects both; the
/// genuine keys still match.
#[test]
fn folded_probe_codes_on_occupied_dense_cells_do_not_match() {
    use div_columnar::key_vector::key_code;
    let folded = key_code(&[Value::Null, Value::Int(7)]);
    let (hi, lo) = (
        i64::from((folded >> 32) as u32 as i32),
        i64::from(folded as u32 as i32),
    );
    let cases = [
        (
            vec![vec![Value::Null], vec![Value::Int(NULL_CODE as i64 + 1)]],
            vec![
                vec![Value::Int(NULL_CODE as i64)],
                vec![Value::Int(NULL_CODE as i64 + 1)],
            ],
        ),
        (
            vec![
                vec![Value::Null, Value::Int(7)],
                vec![Value::Int(hi ^ 1), Value::Int(lo)],
            ],
            vec![
                vec![Value::Int(hi), Value::Int(lo)],
                vec![Value::Int(hi), Value::Int(lo ^ 1)],
                vec![Value::Int(hi ^ 1), Value::Int(lo)],
            ],
        ),
    ];
    for (probe, build) in cases {
        let arity = probe[0].len();
        let names = &["k1", "k2"][..arity];
        let relation = |rows: Vec<Vec<Value>>| {
            Relation::new(
                Schema::of(names.iter().copied()),
                rows.into_iter().map(Tuple::new),
            )
            .unwrap()
        };
        let (l, r) = (relation(probe), relation(build));
        let (lb, rb) = (
            ColumnarBatch::from_relation(&l),
            ColumnarBatch::from_relation(&r),
        );
        let cols: Vec<usize> = (0..arity).collect();
        let (lk, rk) = (
            div_columnar::KeyVector::build(&lb, &cols),
            div_columnar::KeyVector::build(&rb, &cols),
        );
        assert!(rk.exact() && !lk.exact(), "{l:?}");
        // The plant: the first probe row's code is a stored key's code.
        let planted = (0..lb.num_rows())
            .find(|&i| matches!(lb.value_at(i, 0), Value::Null))
            .unwrap();
        assert!(rk.codes().contains(&lk.code(planted)), "{l:?}");
        let build = JoinBuild::new(lb.schema(), rb).unwrap();
        let semi = build
            .probe_semi(&lb, false)
            .unwrap()
            .batch
            .to_relation()
            .unwrap();
        assert_eq!(semi, l.semi_join(&r).unwrap());
        assert_eq!(semi.len(), 1, "only the genuine key matches: {semi:?}");
        assert!(!semi.contains(&lb.row(planted)));
        let anti = build
            .probe_semi(&lb, true)
            .unwrap()
            .batch
            .to_relation()
            .unwrap();
        assert_eq!(anti, l.anti_semi_join(&r).unwrap());
        let joined = build
            .probe_natural(&lb)
            .unwrap()
            .batch
            .to_relation()
            .unwrap();
        assert_eq!(joined, l.natural_join(&r).unwrap());
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
