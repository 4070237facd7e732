//! Cache-friendly open-addressing hash tables over [`KeyVector`] codes.
//!
//! The complement of [`key_vector`](crate::key_vector): once a batch's keys
//! are dense `u64` codes, the kernels need tables that consume the codes
//! without re-hashing `Value`s. [`KeyTable`] is the primitive: a
//! power-of-two open-addressing table with Fibonacci (multiply-shift)
//! bucket mixing and linear probing, storing the full code in each slot as
//! a comparison tag plus a `u32` payload. A code match alone is not key
//! equality when the vectors are inexact, so every lookup takes an
//! `is_match` predicate that verifies the candidate against the source
//! batch (see [`keys_equal`](crate::key_vector::keys_equal)) — callers pass
//! the trivial predicate when both sides are
//! [`exact`](crate::KeyVector::exact).
//!
//! [`GroupIndex`] layers the ubiquitous pattern on top: assign dense group
//! ids in first-occurrence order and remember each group's representative
//! row — the shape behind grouping, deduplication, divisor-id assignment
//! and join builds.

use crate::key_vector::KeyVector;

/// Slot sentinel: no entry. Payloads must therefore be `< u32::MAX`, which
/// row indices and dense group ids always are for in-memory batches.
const EMPTY: u32 = u32::MAX;

/// Multiplier for Fibonacci hashing (2^64 / φ, odd). Raw-`i64` codes are
/// consecutive small integers in the paper's workloads; one multiply
/// spreads them over the high bits the bucket index is taken from.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// An open-addressing hash table mapping `u64` key codes to `u32` payloads.
///
/// Linear probing over a power-of-two slot array at ≤ 7/8 load. Stored
/// codes act as tags: a probe compares the slot's code first and only calls
/// the caller's `is_match` predicate on tag equality, so verification work
/// is proportional to real matches (plus astronomically rare collisions),
/// not probe length.
#[derive(Debug, Clone)]
pub struct KeyTable {
    codes: Vec<u64>,
    payloads: Vec<u32>,
    mask: usize,
    shift: u32,
    len: usize,
    limit: usize,
}

impl KeyTable {
    /// A table pre-sized for `expected` entries (no rehash below that).
    pub fn with_capacity(expected: usize) -> KeyTable {
        let capacity = (expected.saturating_mul(8) / 7 + 1)
            .next_power_of_two()
            .max(8);
        KeyTable {
            codes: vec![0; capacity],
            payloads: vec![EMPTY; capacity],
            mask: capacity - 1,
            shift: 64 - capacity.trailing_zeros(),
            len: 0,
            limit: capacity / 8 * 7,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket(&self, code: u64) -> usize {
        (code.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// The payload stored for `code`, verifying candidates with `is_match`
    /// (called with the candidate's payload).
    #[inline]
    pub fn get(&self, code: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut idx = self.bucket(code);
        loop {
            let payload = self.payloads[idx];
            if payload == EMPTY {
                return None;
            }
            if self.codes[idx] == code && is_match(payload) {
                return Some(payload);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Find the entry for `code` (verified by `is_match`) or insert
    /// `new_payload`. Returns the resident payload and whether it was newly
    /// inserted.
    #[inline]
    pub fn get_or_insert(
        &mut self,
        code: u64,
        new_payload: u32,
        mut is_match: impl FnMut(u32) -> bool,
    ) -> (u32, bool) {
        // A payload equal to the sentinel would make the slot read as empty
        // — corrupt silently in release builds — so refuse it outright (one
        // register compare; the batch layer caps rows well below this).
        assert_ne!(new_payload, EMPTY, "payload space excludes the sentinel");
        let mut idx = self.bucket(code);
        loop {
            let payload = self.payloads[idx];
            if payload == EMPTY {
                self.codes[idx] = code;
                self.payloads[idx] = new_payload;
                self.len += 1;
                if self.len > self.limit {
                    self.grow();
                }
                return (new_payload, true);
            }
            if self.codes[idx] == code && is_match(payload) {
                return (payload, false);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Double the slot array and re-place every entry. Entries are already
    /// pairwise-distinct keys, so re-placement needs no verification.
    #[cold]
    fn grow(&mut self) {
        let capacity = (self.mask + 1) * 2;
        let mut codes = vec![0u64; capacity];
        let mut payloads = vec![EMPTY; capacity];
        let mask = capacity - 1;
        let shift = 64 - capacity.trailing_zeros();
        for slot in 0..self.codes.len() {
            let payload = self.payloads[slot];
            if payload == EMPTY {
                continue;
            }
            let code = self.codes[slot];
            let mut idx = (code.wrapping_mul(FIB) >> shift) as usize;
            while payloads[idx] != EMPTY {
                idx = (idx + 1) & mask;
            }
            codes[idx] = code;
            payloads[idx] = payload;
        }
        self.codes = codes;
        self.payloads = payloads;
        self.mask = mask;
        self.shift = shift;
        self.limit = capacity / 8 * 7;
    }
}

/// Dense group ids in first-occurrence order, with one representative row
/// per group — the shared shape of grouping, deduplication and hash-build
/// phases.
#[derive(Debug, Clone)]
pub struct GroupIndex {
    table: KeyTable,
    first_row: Vec<u32>,
}

impl GroupIndex {
    /// An index pre-sized for `expected` distinct keys.
    pub fn with_capacity(expected: usize) -> GroupIndex {
        GroupIndex {
            table: KeyTable::with_capacity(expected),
            first_row: Vec::with_capacity(expected),
        }
    }

    /// Number of distinct groups seen so far.
    pub fn len(&self) -> usize {
        self.first_row.len()
    }

    /// `true` when no group has been interned.
    pub fn is_empty(&self) -> bool {
        self.first_row.is_empty()
    }

    /// The representative (first-seen) row of group `gid`.
    #[inline]
    pub fn first_row(&self, gid: u32) -> usize {
        self.first_row[gid as usize] as usize
    }

    /// Representative rows of all groups, in group-id order.
    pub fn first_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.first_row.iter().map(|&r| r as usize)
    }

    /// Intern `row`'s key: return its group id, assigning the next dense id
    /// on first sight. `same_key` verifies a candidate group by comparing
    /// `row` against the group's representative row (pass `|_| true` when
    /// the key vector is exact).
    #[inline]
    pub fn intern(
        &mut self,
        code: u64,
        row: usize,
        mut same_key: impl FnMut(usize) -> bool,
    ) -> (u32, bool) {
        // Row indices are stored as u32; a silent `as` wrap on a ≥ 2^32-row
        // batch would point representatives at the wrong rows. Fail loudly
        // instead (release builds included).
        let row = u32::try_from(row).expect("key pipeline batches are limited to u32::MAX rows");
        let next = self.first_row.len() as u32;
        let first_row = &self.first_row;
        let (gid, is_new) = self
            .table
            .get_or_insert(code, next, |gid| same_key(first_row[gid as usize] as usize));
        if is_new {
            self.first_row.push(row);
        }
        (gid, is_new)
    }

    /// The group id of a (possibly foreign) key with this `code`, verifying
    /// candidates via `same_key` against the group's representative row.
    #[inline]
    pub fn get(&self, code: u64, mut same_key: impl FnMut(usize) -> bool) -> Option<u32> {
        self.table
            .get(code, |gid| same_key(self.first_row[gid as usize] as usize))
    }
}

/// Dense slot ids for `(u32, u32)` id pairs packed into injective `u64`
/// codes — the allocation-free replacement for the `HashMap<(u32, u32), _>`
/// coverage counters of the counting great divide. Pair codes are
/// injective, so membership needs no verification.
#[derive(Debug, Clone)]
pub struct PairTable {
    table: KeyTable,
}

/// Pack a `u32` pair into its injective `u64` code: `a` in the high half,
/// `b` in the low half.
#[inline]
pub(crate) fn pair_code(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

impl PairTable {
    /// A pair table pre-sized for `expected` pairs.
    pub fn with_capacity(expected: usize) -> PairTable {
        PairTable {
            table: KeyTable::with_capacity(expected),
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when no pair is stored.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Map the pair to a dense slot id (first-occurrence order), for use as
    /// an index into caller-side per-pair state. Returns `(slot, is_new)`.
    #[inline]
    pub fn intern(&mut self, a: u32, b: u32) -> (u32, bool) {
        let next = self.table.len() as u32;
        self.table.get_or_insert(pair_code(a, b), next, |_| true)
    }
}

/// Mix a key code into a well-distributed hash (splitmix64 finalizer).
/// Used by partition routing, where raw-`i64` codes would otherwise land
/// consecutive keys in consecutive buckets.
#[inline]
pub fn mix(code: u64) -> u64 {
    let mut z = code;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Route a mixed hash to one of `buckets` via multiply-based fast reduction
/// (Lemire): unbiased in the bucket count without a modulo.
#[inline]
pub fn fast_range(hash: u64, buckets: usize) -> usize {
    ((u128::from(hash) * buckets as u128) >> 64) as usize
}

/// The intern loop shared by [`index_rows`] and [`index_rows_tracked`]:
/// one pass over the key vector, verifying inexact matches against `batch`
/// over `key_columns`, reporting each row's group id to `on_row`.
fn index_rows_inner(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
    mut on_row: impl FnMut(u32),
) -> GroupIndex {
    let rows = keys.len();
    let same_key =
        crate::key_vector::cross_matcher(batch, key_columns, keys, batch, key_columns, keys);
    let mut index = GroupIndex::with_capacity(rows);
    for row in 0..rows {
        let (gid, _) = index.intern(keys.code(row), row, |other| same_key(row, other));
        on_row(gid);
    }
    index
}

/// Build a [`GroupIndex`] over every row of a key vector, verifying inexact
/// matches against `batch` over `key_columns` — the common build phase of
/// the hash kernels, factored once.
pub fn index_rows(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
) -> GroupIndex {
    index_rows_inner(batch, key_columns, keys, |_| {})
}

/// [`index_rows`], additionally returning each row's group id (in row
/// order) — the build shape the natural join's CSR row lists need.
pub fn index_rows_tracked(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
) -> (GroupIndex, Vec<u32>) {
    let mut gid_of = Vec::with_capacity(keys.len());
    let index = index_rows_inner(batch, key_columns, keys, |gid| gid_of.push(gid));
    (index, gid_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_vector::KeyVector;
    use crate::ColumnarBatch;
    use div_algebra::relation;

    #[test]
    fn get_or_insert_finds_and_inserts() {
        let mut table = KeyTable::with_capacity(4);
        assert_eq!(table.get_or_insert(10, 0, |_| true), (0, true));
        assert_eq!(table.get_or_insert(10, 1, |_| true), (0, false));
        assert_eq!(table.get_or_insert(11, 1, |_| true), (1, true));
        assert_eq!(table.get(10, |_| true), Some(0));
        assert_eq!(table.get(12, |_| true), None);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn colliding_codes_are_separated_by_the_match_predicate() {
        // Two distinct keys with the SAME code must coexist: the predicate
        // distinguishes them (this is the stored-hash-tag + verify design).
        let mut table = KeyTable::with_capacity(4);
        let keys = ["left", "right"];
        let is = |want: usize| move |payload: u32| keys[payload as usize] == keys[want];
        assert_eq!(table.get_or_insert(42, 0, is(0)), (0, true));
        assert_eq!(table.get_or_insert(42, 1, is(1)), (1, true), "collision");
        assert_eq!(table.get(42, is(0)), Some(0));
        assert_eq!(table.get(42, is(1)), Some(1));
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut table = KeyTable::with_capacity(0);
        for i in 0..10_000u32 {
            // Adversarial codes: multiples of a power of two stress the
            // multiply-shift bucketing.
            table.get_or_insert(u64::from(i) << 16, i, |_| true);
        }
        assert_eq!(table.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(table.get(u64::from(i) << 16, |_| true), Some(i));
        }
    }

    #[test]
    fn group_index_assigns_first_occurrence_ids() {
        let batch = ColumnarBatch::from_relation(&relation! {
            ["a", "b"] => [1, 1], [2, 1], [1, 2], [3, 1], [2, 2]
        });
        // Relation order is sorted: rows are (1,1),(1,2),(2,1),(2,2),(3,1).
        let keys = KeyVector::build(&batch, &[0]);
        let index = index_rows(&batch, &[0], &keys);
        assert_eq!(index.len(), 3);
        assert_eq!(index.first_row(0), 0);
        assert_eq!(index.first_row(1), 2);
        assert_eq!(index.first_row(2), 4);
        assert_eq!(index.get(keys.code(1), |_| true), Some(0));
    }

    #[test]
    fn pair_table_dedups_and_interns() {
        let mut pairs = PairTable::with_capacity(2);
        assert!(pairs.intern(1, 2).1);
        assert!(!pairs.intern(1, 2).1);
        assert!(pairs.intern(2, 1).1, "order matters");
        assert_eq!(pairs.len(), 2);
        let mut interned = PairTable::with_capacity(2);
        assert_eq!(interned.intern(7, 7), (0, true));
        assert_eq!(interned.intern(7, 8), (1, true));
        assert_eq!(interned.intern(7, 7), (0, false));
    }

    #[test]
    fn fast_range_covers_all_buckets_roughly_evenly() {
        let buckets = 7;
        let mut counts = vec![0usize; buckets];
        for i in 0..7_000u64 {
            counts[fast_range(mix(i), buckets)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "counts: {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 7_000);
    }
}
