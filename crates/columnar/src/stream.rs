//! Incremental (cross-batch) grouping state for streaming operators.
//!
//! The batch kernels of [`kernels`](crate::kernels) assume they see an
//! operator's whole input as one [`ColumnarBatch`]; a streaming executor
//! feeds them *chunks* instead. Grouping-shaped state (distinct filters, the
//! divide's quotient groups, aggregate groups) must then survive across
//! chunks, and a code match must be verified against a group's key even
//! after the chunk that opened the group is gone.
//!
//! [`GroupStore`] is that state: it interns one chunk at a time, *retains
//! the key columns of every group representative* in append-only segments,
//! and verifies inexact code matches against those retained rows. Memory is
//! proportional to the number of distinct groups — the floor any grouping
//! operator has to pay — never to the stream length.
//!
//! Its group ids come from the same loop as a
//! [`GroupIndex`](crate::GroupIndex)'s (`Slots::intern`; see
//! [`hash_table`](crate::hash_table)), in `u32` cells: a dense array over a
//! key range learnt from the chunks while every chunk is exact and the
//! memory rule admits the range, a [`KeyTable`](crate::KeyTable) from the
//! first chunk on that is not. Group ids are first-occurrence in both
//! forms, so nothing downstream sees which one ran.
//!
//! [`StreamingDistinct`] layers set-semantics deduplication on top: feed it
//! chunks, get back the rows never seen before. It is the state behind the
//! streaming projection and union operators of `div_physical::stream`.

use crate::batch::{ColumnarBatch, Segments};
use crate::column::Column;
use crate::hash_table::{FormRule, Rep, Slots};
use crate::key_vector::{keys_equal, KeyVector};
use div_algebra::Schema;

/// Per-chunk interning result of [`GroupStore::intern_chunk`].
#[derive(Debug, Clone)]
pub struct ChunkInterned {
    /// Group id of every chunk row, in row order. Ids are dense and global
    /// across all chunks interned so far, in first-occurrence order.
    pub gids: Vec<u32>,
    /// `fresh[i]` is `true` when row `i` introduced a new group (it is the
    /// globally first occurrence of its key).
    pub fresh: Vec<bool>,
}

/// An incremental group index over a stream of batch chunks.
///
/// The cross-batch analogue of [`GroupIndex`](crate::GroupIndex): assigns
/// dense group ids in first-occurrence order and retains each group's key
/// columns so later chunks can verify inexact code matches against them.
/// [`GroupStore::intern_chunk`] grows the group set;
/// [`GroupStore::lookup_chunk`] resolves a chunk against it read-only.
///
/// ```
/// use div_algebra::{relation, Schema};
/// use div_columnar::{ColumnarBatch, GroupStore};
///
/// let mut store = GroupStore::new(Schema::of(["color"]), vec![0]);
/// let a = ColumnarBatch::from_relation(&relation! { ["color"] => ["blue"], ["red"] });
/// let b = ColumnarBatch::from_relation(&relation! { ["color"] => ["green"], ["red"] });
/// let first = store.intern_chunk(&a);
/// let second = store.intern_chunk(&b);
/// assert_eq!(first.fresh, vec![true, true]);
/// assert_eq!(second.fresh, vec![true, false]); // "red" was seen in chunk `a`
/// assert_eq!(store.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GroupStore {
    key_schema: Schema,
    key_cols: Vec<usize>,
    store_cols: Vec<usize>,
    /// Retained group representatives (key columns only), one segment per
    /// chunk that opened groups: row `g` is group `g`'s.
    reps: Segments,
    /// Key → group id: dense while every chunk was exact and the rule
    /// admits the learnt range, hashed from then on.
    slots: Slots,
    store_exact: bool,
    rule: FormRule,
}

impl GroupStore {
    /// A store grouping chunks on `key_cols` (positions in the chunk
    /// schema); `key_schema` names those columns, in the same order, and
    /// becomes the schema of [`GroupStore::rows`].
    pub fn new(key_schema: Schema, key_cols: Vec<usize>) -> GroupStore {
        GroupStore::with_rule(key_schema, key_cols, FormRule::Memory)
    }

    /// [`GroupStore::new`] choosing its map's form by `rule`.
    pub(crate) fn with_rule(
        key_schema: Schema,
        key_cols: Vec<usize>,
        rule: FormRule,
    ) -> GroupStore {
        assert_eq!(
            key_schema.arity(),
            key_cols.len(),
            "key schema/column arity mismatch"
        );
        let store_cols = (0..key_cols.len()).collect();
        let slots = Slots::empty(key_cols.len());
        GroupStore {
            key_schema,
            key_cols,
            store_cols,
            reps: Segments::default(),
            slots,
            store_exact: true,
            rule,
        }
    }

    /// Number of distinct groups interned so far.
    pub fn len(&self) -> usize {
        self.reps.rows
    }

    /// `true` when no group has been interned.
    pub fn is_empty(&self) -> bool {
        self.reps.rows == 0
    }

    /// The chunk columns this store groups on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Bytes the store holds on the heap beside its retained
    /// representatives: its key → group id map, in either form, and the
    /// segment starts.
    pub fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes() + self.reps.starts.capacity() * size_of::<usize>()
    }

    /// `true` while the key → group id map is the dense array.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        self.slots.is_dense()
    }

    /// Intern every row of `chunk`, assigning global group ids and
    /// retaining the key columns of newly seen groups.
    pub fn intern_chunk(&mut self, chunk: &ColumnarBatch) -> ChunkInterned {
        let rows = chunk.num_rows();
        let keys = KeyVector::build(chunk, &self.key_cols);
        let verify = !(keys.exact() && self.store_exact);
        let base = self.len();
        let mut gids = Vec::with_capacity(rows);
        let (reps, key_cols, store_cols) = (&self.reps, &self.key_cols, &self.store_cols);
        let opened = self.slots.intern(
            &keys,
            base,
            self.rule,
            u32::BITS,
            |row, rep| {
                !verify
                    || match rep {
                        Rep::Row(other) => keys_equal(chunk, key_cols, row, chunk, key_cols, other),
                        Rep::Group(gid) => {
                            let (segment, local) = reps.locate(gid as usize);
                            keys_equal(chunk, key_cols, row, segment, store_cols, local)
                        }
                    }
            },
            |gid| gids.push(gid),
        );
        let mut fresh = vec![false; rows];
        for &row in &opened {
            fresh[row] = true;
        }
        if !opened.is_empty() {
            let columns: Vec<Column> = key_cols
                .iter()
                .map(|&c| chunk.column(c).gather(&opened))
                .collect();
            let reps = ColumnarBatch::from_parts(self.key_schema.clone(), columns, opened.len());
            self.reps.push(reps);
            self.store_exact = self.store_exact && keys.exact();
        }
        ChunkInterned { gids, fresh }
    }

    /// Look every row of `chunk` up without interning anything: the group
    /// id previously assigned to its key, or `None` for a key this store has
    /// never seen. One [`KeyVector`] per chunk and the same
    /// verify-on-inexact-code path as [`GroupStore::intern_chunk`] — the
    /// read-only half of it, for an operator whose group set is frozen. In
    /// the dense form an inexact probe code that lands on an occupied cell
    /// is verified against the cell's representative, as a hashed tag match
    /// is.
    pub fn lookup_chunk(&self, chunk: &ColumnarBatch) -> Vec<Option<u32>> {
        let keys = KeyVector::build(chunk, &self.key_cols);
        let verify = !(keys.exact() && self.store_exact);
        (0..chunk.num_rows())
            .map(|row| {
                self.slots.get(keys.code(row), |gid| {
                    if !verify {
                        return true;
                    }
                    let (segment, local) = self.reps.locate(gid as usize);
                    keys_equal(chunk, &self.key_cols, row, segment, &self.store_cols, local)
                })
            })
            .collect()
    }

    /// All group representatives (key columns only), one row per group in
    /// group-id order, under the store's key schema.
    pub fn rows(&self) -> ColumnarBatch {
        crate::partition::concat_batches(&self.reps.chunks)
            .unwrap_or_else(|| ColumnarBatch::empty(self.key_schema.clone()))
    }
}

/// What a frozen consume did with one chunk: the grouped states
/// ([`StreamingGreatDivide::consume_frozen`](crate::kernels::StreamingGreatDivide::consume_frozen),
/// [`StreamingAggregate::consume_frozen`](crate::kernels::StreamingAggregate::consume_frozen))
/// fold in the rows [`GroupStore::lookup_chunk`] resolves and hand the rest
/// back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenConsume {
    /// Probes performed: one per row that was consumed (with the same
    /// empty-divisor exception as the unfrozen consume).
    pub probes: usize,
    /// The chunk rows that were *not* consumed — their grouping value
    /// belongs to no resident group — in chunk order.
    pub leftover: Vec<usize>,
}

impl FrozenConsume {
    /// From a chunk-wise group lookup: rows that resolved to a group were
    /// consumed (one probe each), the others are left over.
    pub(crate) fn of(found: &[Option<u32>]) -> FrozenConsume {
        let leftover: Vec<usize> = (0..found.len())
            .filter(|&row| found[row].is_none())
            .collect();
        FrozenConsume {
            probes: found.len() - leftover.len(),
            leftover,
        }
    }
}

/// Streaming set-semantics deduplication over whole rows.
///
/// Feed chunks with [`StreamingDistinct::push`]; each call returns the rows
/// whose full-row key has never been seen in any earlier chunk (or earlier
/// in the same chunk), preserving their order. The retained state is one
/// copy of every distinct row — the inherent cost of `DISTINCT` — never the
/// stream length.
#[derive(Debug)]
pub struct StreamingDistinct {
    store: GroupStore,
}

impl StreamingDistinct {
    /// A distinct filter for chunks of the given schema.
    pub fn new(schema: Schema) -> StreamingDistinct {
        let key_cols = (0..schema.arity()).collect();
        StreamingDistinct {
            store: GroupStore::new(schema, key_cols),
        }
    }

    /// The rows of `chunk` not seen before, in chunk order.
    pub fn push(&mut self, chunk: &ColumnarBatch) -> ColumnarBatch {
        let interned = self.store.intern_chunk(chunk);
        if interned.fresh.iter().all(|&f| f) {
            return chunk.clone();
        }
        chunk.select_by_mask(&interned.fresh)
    }

    /// Number of distinct rows retained so far.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when no row has been retained.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_rows::batch_of;
    use crate::key_vector::{key_code, NULL_CODE};
    use div_algebra::{relation, Relation, Tuple, Value};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn chunk(rel: &Relation) -> ColumnarBatch {
        ColumnarBatch::from_relation(rel)
    }

    #[test]
    fn group_ids_are_global_across_chunks() {
        let mut store = GroupStore::new(Schema::of(["a"]), vec![0]);
        let first = store.intern_chunk(&chunk(&relation! { ["a", "b"] => [1, 1], [2, 1] }));
        assert_eq!(first.gids, vec![0, 1]);
        let second = store.intern_chunk(&chunk(&relation! { ["a", "b"] => [2, 2], [3, 1] }));
        assert_eq!(second.gids, vec![1, 2]);
        assert_eq!(second.fresh, vec![false, true]);
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.rows().to_relation().unwrap(),
            relation! { ["a"] => [1], [2], [3] }
        );
    }

    #[test]
    fn string_keys_verify_against_retained_segments() {
        // Dictionary-encoded keys are inexact: matches across chunks must be
        // verified against the retained representatives, and chunks with
        // disjoint dictionaries must still compare by value.
        let mut store = GroupStore::new(Schema::of(["who"]), vec![0]);
        store.intern_chunk(&chunk(
            &relation! { ["who", "v"] => ["ann", 1], ["bob", 2] },
        ));
        let second =
            store.intern_chunk(&chunk(&relation! { ["who", "v"] => ["ann", 3], ["cy", 4] }));
        assert_eq!(second.fresh, vec![false, true]);
        assert_eq!(store.len(), 3);
        // The read-only lookup resolves a whole chunk at once — against a
        // dictionary the store never saw — and interns nothing.
        let probe = chunk(&relation! { ["who", "v"] => ["bob", 9], ["cy", 1], ["dee", 9] });
        assert_eq!(store.lookup_chunk(&probe), vec![Some(1), Some(2), None]);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn streaming_distinct_matches_batch_dedup() {
        let full = relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1], [2, 2], [3, 3] };
        let batch = chunk(&full);
        // Feed overlapping chunks; the union of pushed outputs must be the
        // deduplicated whole, with nothing repeated.
        let mut distinct = StreamingDistinct::new(batch.schema().clone());
        let mut kept = Vec::new();
        for indices in [vec![0usize, 1, 1], vec![1, 2, 3], vec![0, 3, 4]] {
            let piece = batch.gather(&indices);
            let fresh = distinct.push(&piece);
            for i in 0..fresh.num_rows() {
                kept.push(fresh.row(i));
            }
        }
        assert_eq!(kept.len(), 5, "each distinct row exactly once");
        let rebuilt = Relation::new(batch.schema().clone(), kept).unwrap();
        assert_eq!(rebuilt, full);
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn composite_keys_group_across_chunks() {
        let mut store = GroupStore::new(Schema::of(["a", "b"]), vec![0, 1]);
        let c1 = store.intern_chunk(&chunk(&relation! { ["a", "b", "c"] => [1, 1, 9] }));
        let c2 = store.intern_chunk(&chunk(
            &relation! { ["a", "b", "c"] => [1, 1, 8], [1, 2, 7] },
        ));
        assert_eq!(c1.gids, vec![0]);
        assert_eq!(c2.gids, vec![0, 1]);
        assert_eq!(store.len(), 2);
    }

    /// A key value of a chunk of `kind`: compact ints around `base` (kinds
    /// 0–2, so the learnt range grows up and down as `base` moves), sparse
    /// jumps and `i64` / `i32` extremes (3), NULLs among compact ints (4),
    /// strings among compact ints (5). Kinds 4 and 5 make a chunk inexact.
    fn chunk_value(kind: u32, base: i64, pick: u32) -> Value {
        let compact = Value::Int(base * 8 + i64::from(pick % 8));
        match (kind, pick % 10) {
            (0..=2, _) => compact,
            (3, p) => Value::Int(
                [
                    i64::MIN,
                    i64::MAX,
                    i32::MIN.into(),
                    i32::MAX.into(),
                    i64::from(i32::MAX) + 1,
                    1 << 40,
                    -(1 << 40),
                    1 << 20,
                    -(1 << 20),
                    0,
                ][p as usize],
            ),
            (4, 0..=2) => Value::Null,
            (5, 0..=3) => Value::str(["ann", "bob", "cy", "dee"][(pick % 4) as usize]),
            _ => compact,
        }
    }

    /// Chunks over keys of `arity` columns (named `k1`, `k2`) plus one
    /// payload column, each built from its own values, so string chunks
    /// carry their own dictionaries.
    fn key_chunk(arity: usize, kind: u32, base: i64, picks: &[(u32, u32)]) -> ColumnarBatch {
        let rows: Vec<Vec<Value>> = picks
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let keys = [chunk_value(kind, base, a), chunk_value(kind, base, b)];
                let mut row = keys[..arity].to_vec();
                row.push(Value::Int(i as i64));
                row
            })
            .collect();
        batch_of(&[&["k1", "k2"][..arity], &["v"][..]].concat(), &rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Dense-forced, hashed-forced and rule-chosen stores, fed the same
        /// chunks (ranges growing both ways, sparse jumps, extremes, and
        /// NULL or string chunks that migrate a dense store mid-stream),
        /// give the first-occurrence ids of a reference map, the same
        /// `fresh` flags, representatives and lookups — probes with
        /// foreign-dictionary strings and NULLs included. After every
        /// chunk the chosen form holds no more bytes than the hashed one.
        #[test]
        fn every_form_interns_and_looks_up_alike(
            arity in 1usize..3,
            chunks in prop::collection::vec(
                (0u32..6, -4i64..5, prop::collection::vec((0u32..40, 0u32..40), 0..12)),
                0..10,
            ),
            probe in (0u32..6, -4i64..5, prop::collection::vec((0u32..40, 0u32..40), 0..16)),
        ) {
            let key_cols: Vec<usize> = (0..arity).collect();
            let schema = Schema::of(["k1", "k2"][..arity].iter().copied());
            let mut stores = [FormRule::Memory, FormRule::Dense, FormRule::Hashed]
                .map(|rule| GroupStore::with_rule(schema.clone(), key_cols.clone(), rule));
            let mut reference: HashMap<Tuple, u32> = HashMap::new();
            let mut keys: Vec<Tuple> = Vec::new();
            for (kind, base, picks) in &chunks {
                let chunk = key_chunk(arity, *kind, *base, picks);
                let (mut want_gids, mut want_fresh) = (Vec::new(), Vec::new());
                for row in 0..chunk.num_rows() {
                    let key = Tuple::new((0..arity).map(|c| chunk.column(c).value(row)));
                    let fresh = !reference.contains_key(&key);
                    if fresh {
                        reference.insert(key.clone(), keys.len() as u32);
                        keys.push(key.clone());
                    }
                    want_gids.push(reference[&key]);
                    want_fresh.push(fresh);
                }
                for store in &mut stores {
                    let interned = store.intern_chunk(&chunk);
                    prop_assert_eq!(&interned.gids, &want_gids);
                    prop_assert_eq!(&interned.fresh, &want_fresh);
                    prop_assert_eq!(store.len(), keys.len());
                }
                let [chosen, _, hashed] = &stores;
                prop_assert!(
                    chosen.heap_bytes() <= hashed.heap_bytes(),
                    "the chosen form holds {} bytes, the hashed {}",
                    chosen.heap_bytes(),
                    hashed.heap_bytes()
                );
                prop_assert!(!hashed.is_dense() || hashed.is_empty());
            }
            let (kind, base, picks) = &probe;
            let probe = key_chunk(arity, *kind, *base, picks);
            let want: Vec<Option<u32>> = (0..probe.num_rows())
                .map(|row| {
                    let key = Tuple::new((0..arity).map(|c| probe.column(c).value(row)));
                    reference.get(&key).copied()
                })
                .collect();
            for store in &stores {
                let rows = store.rows();
                prop_assert_eq!(rows.num_rows(), keys.len());
                for (gid, key) in keys.iter().enumerate() {
                    prop_assert_eq!(&rows.row(gid), key);
                }
                prop_assert_eq!(store.lookup_chunk(&probe), want.clone());
            }
        }
    }

    /// Inexact probe codes that equal a stored key's code land on an
    /// occupied cell of a dense store: a NULL against the int `NULL_CODE`
    /// (one column), and a folded `(NULL, 7)` against the two ints its code
    /// unpacks to (two columns). Verification rejects both; the genuine
    /// keys still resolve.
    #[test]
    fn folded_probe_codes_on_occupied_dense_cells_do_not_match() {
        let folded = key_code(&[Value::Null, Value::Int(7)]);
        let (hi, lo) = (
            i64::from((folded >> 32) as u32 as i32),
            i64::from(folded as u32 as i32),
        );
        let planted: [(&[&str], Vec<Value>, Vec<Value>); 2] = [
            (
                &["k"],
                vec![Value::Int(NULL_CODE as i64)],
                vec![Value::Null],
            ),
            (
                &["k1", "k2"],
                vec![Value::Int(hi), Value::Int(lo)],
                vec![Value::Null, Value::Int(7)],
            ),
        ];
        for (names, stored, probe) in planted {
            let cols: Vec<usize> = (0..names.len()).collect();
            let mut store = GroupStore::new(Schema::of(names.iter().copied()), cols);
            store.intern_chunk(&batch_of(names, std::slice::from_ref(&stored)));
            assert!(store.is_dense(), "{names:?}");
            let probe = batch_of(names, &[probe, stored]);
            assert_eq!(store.lookup_chunk(&probe), vec![None, Some(0)], "{names:?}");
        }
    }

    /// The dense store follows a key stream that grows downwards, then
    /// upwards, and moves to the hashed form once, for good, at the first
    /// inexact chunk or at a jump the rule refuses.
    #[test]
    fn the_dense_store_learns_its_range_and_migrates_once() {
        let ints = |keys: &[i64]| {
            let rows: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
            batch_of(&["k"], &rows)
        };
        // Sixteen consecutive keys a chunk: 63 × 16 .. 64 × 16 first, down
        // to 0 .. 16, then up from 64 × 16 to 128 × 16.
        let learn = |store: &mut GroupStore| {
            for t in (0..64).rev().chain(64..128) {
                store.intern_chunk(&ints(&(t * 16..t * 16 + 16).collect::<Vec<_>>()));
                assert!(store.is_dense(), "chunk {t}");
            }
            assert_eq!(store.len(), 2048);
        };
        let mut store = GroupStore::new(Schema::of(["k"]), vec![0]);
        learn(&mut store);
        assert_eq!(
            store.lookup_chunk(&ints(&[0, 1008, 2047, 2048])),
            vec![Some(1008), Some(0), Some(2047), None]
        );
        store.intern_chunk(&batch_of(&["k"], &[vec![Value::str("x")]]));
        assert!(!store.is_dense(), "a string chunk migrates");
        store.intern_chunk(&ints(&[1, 2]));
        assert!(!store.is_dense(), "the migration is one-way");
        assert_eq!(
            store.lookup_chunk(&ints(&[0, 1008, 2048])),
            vec![Some(1008), Some(0), None]
        );

        let mut store = GroupStore::new(Schema::of(["k"]), vec![0]);
        learn(&mut store);
        store.intern_chunk(&ints(&[1 << 40]));
        assert!(!store.is_dense(), "a sparse jump migrates");
        assert_eq!(
            store.lookup_chunk(&ints(&[1 << 40, 5])),
            vec![Some(2048), Some(1013)]
        );
    }
}
