//! Incremental (cross-batch) grouping state for streaming operators.
//!
//! The batch kernels of [`kernels`](crate::kernels) assume they see an
//! operator's whole input as one [`ColumnarBatch`]; a streaming executor
//! feeds them *chunks* instead. Grouping-shaped state (distinct filters, the
//! divide's quotient groups) must then survive across chunks — which the
//! per-batch [`GroupIndex`](crate::GroupIndex) cannot do, because its
//! verify-on-collision step compares candidate rows against *the batch that
//! interned them*, and that batch is gone by the next chunk.
//!
//! [`GroupStore`] is the cross-batch counterpart: it interns one chunk at a
//! time, *retains the key columns of every group representative* in
//! append-only segments, and verifies inexact code matches against those
//! retained rows. Memory is proportional to the number of distinct groups —
//! the floor any grouping operator has to pay — never to the stream length.
//!
//! [`StreamingDistinct`] layers set-semantics deduplication on top: feed it
//! chunks, get back the rows never seen before. It is the state behind the
//! streaming projection and union operators of `div_physical::stream`.

use crate::batch::ColumnarBatch;
use crate::column::Column;
use crate::hash_table::KeyTable;
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
    /// Retained group representatives (key columns only), appended one
    /// segment per chunk that introduced groups; `seg_starts[i]` is the
    /// first global gid of segment `i`.
    segments: Vec<ColumnarBatch>,
    seg_starts: Vec<u32>,
    table: KeyTable,
    groups: u32,
    store_exact: bool,
}

impl GroupStore {
    /// A store grouping chunks on `key_cols` (positions in the chunk
    /// schema); `key_schema` names those columns, in the same order, and
    /// becomes the schema of [`GroupStore::rows`].
    pub fn new(key_schema: Schema, key_cols: Vec<usize>) -> GroupStore {
        assert_eq!(
            key_schema.arity(),
            key_cols.len(),
            "key schema/column arity mismatch"
        );
        let store_cols = (0..key_cols.len()).collect();
        GroupStore {
            key_schema,
            key_cols,
            store_cols,
            segments: Vec::new(),
            seg_starts: Vec::new(),
            table: KeyTable::with_capacity(0),
            groups: 0,
            store_exact: true,
        }
    }

    /// Number of distinct groups interned so far.
    pub fn len(&self) -> usize {
        self.groups as usize
    }

    /// `true` when no group has been interned.
    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// The chunk columns this store groups on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Locate the retained representative of `gid`.
    fn locate(&self, gid: u32) -> (&ColumnarBatch, usize) {
        let seg = self.seg_starts.partition_point(|&start| start <= gid) - 1;
        (&self.segments[seg], (gid - self.seg_starts[seg]) as usize)
    }

    /// Intern every row of `chunk`, assigning global group ids and
    /// retaining the key columns of newly seen groups.
    pub fn intern_chunk(&mut self, chunk: &ColumnarBatch) -> ChunkInterned {
        let rows = chunk.num_rows();
        let keys = KeyVector::build(chunk, &self.key_cols);
        let verify = !(keys.exact() && self.store_exact);
        let base = self.groups;
        let mut pending: Vec<usize> = Vec::new();
        let mut gids = Vec::with_capacity(rows);
        let mut fresh = Vec::with_capacity(rows);
        for row in 0..rows {
            let next = base + pending.len() as u32;
            // Disjoint field borrows: the verification closure reads the
            // retained segments while the table is borrowed mutably.
            let segments = &self.segments;
            let seg_starts = &self.seg_starts;
            let key_cols = &self.key_cols;
            let store_cols = &self.store_cols;
            let pending_rows = &pending;
            let (gid, is_new) = self.table.get_or_insert(keys.code(row), next, |gid| {
                if !verify {
                    return true;
                }
                if gid >= base {
                    let other = pending_rows[(gid - base) as usize];
                    return keys_equal(chunk, key_cols, row, chunk, key_cols, other);
                }
                let seg = seg_starts.partition_point(|&start| start <= gid) - 1;
                let local = (gid - seg_starts[seg]) as usize;
                keys_equal(chunk, key_cols, row, &segments[seg], store_cols, local)
            });
            if is_new {
                pending.push(row);
            }
            gids.push(gid);
            fresh.push(is_new);
        }
        if !pending.is_empty() {
            let columns: Vec<Column> = self
                .key_cols
                .iter()
                .map(|&c| chunk.column(c).gather(&pending))
                .collect();
            self.segments.push(ColumnarBatch::from_parts(
                self.key_schema.clone(),
                columns,
                pending.len(),
            ));
            self.seg_starts.push(base);
            self.groups = base + pending.len() as u32;
            self.store_exact = self.store_exact && keys.exact();
        }
        ChunkInterned { gids, fresh }
    }

    /// Look every row of `chunk` up without interning anything: the group
    /// id previously assigned to its key, or `None` for a key this store has
    /// never seen. One [`KeyVector`] per chunk and the same
    /// verify-on-inexact-code path as [`GroupStore::intern_chunk`] — the
    /// read-only half of it, for an operator whose group set is frozen.
    pub fn lookup_chunk(&self, chunk: &ColumnarBatch) -> Vec<Option<u32>> {
        let keys = KeyVector::build(chunk, &self.key_cols);
        let verify = !(keys.exact() && self.store_exact);
        (0..chunk.num_rows())
            .map(|row| {
                self.table.get(keys.code(row), |gid| {
                    if !verify {
                        return true;
                    }
                    let (segment, local) = self.locate(gid);
                    keys_equal(chunk, &self.key_cols, row, segment, &self.store_cols, local)
                })
            })
            .collect()
    }

    /// All group representatives (key columns only), one row per group in
    /// group-id order, under the store's key schema.
    pub fn rows(&self) -> ColumnarBatch {
        crate::partition::concat_batches(&self.segments)
            .unwrap_or_else(|| ColumnarBatch::empty(self.key_schema.clone()))
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
    use div_algebra::{relation, Relation};

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
}
