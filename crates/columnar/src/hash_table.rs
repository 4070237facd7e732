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
//! and join builds. It is built once from a whole key vector
//! ([`index_rows`] / [`index_rows_tracked`]), in one of two forms:
//!
//! * **dense** — when the vector is exact and its codes span a compact
//!   range, the group ids live in a direct-addressed array indexed by the
//!   key itself (Graefe 1989: over a small key domain hash-division's table
//!   becomes an array). One key column is one axis, the raw `i64`; two
//!   packed key columns are two `i32` axes. A lookup is a bounds check and
//!   one load. A vector of fewer than 255 rows has fewer than 255 groups,
//!   so its cells are bytes holding `gid + 1`, 0 for an empty cell; a
//!   larger one takes `u32` cells;
//! * **hashed** — a [`KeyTable`], for everything else.
//!
//! A build that only semi and anti probes read needs no group ids at all:
//! `KeySet` keeps one bit per cell of an exact vector's range, which is
//! all hash-division keeps per divisor tuple.
//!
//! The rule has no knob: an array is dense exactly when it takes no more
//! bytes than the table it replaces, each cell priced at the bits it needs
//! (`cells × bits ≤ capacity × 12 B × 8`: three cells per table slot at
//! `u32`, twelve at a byte, 96 at a bit), and the range arithmetic is
//! checked, so a range that overflows stays hashed. Verification is the
//! same in both forms: a lookup hands its candidate to the caller's
//! `same_key`, so a folded probe code that decodes onto an occupied dense
//! cell is rejected exactly as a hashed tag collision is. A `KeySet` has
//! no representative to verify against; its caller asks it only about
//! probe rows whose own code is exact.
//!
//! The same two forms serve state that grows chunk by chunk. A
//! [`GroupStore`](crate::GroupStore) keeps its key → group id map in the
//! same slots, in `u32` cells (its group count has no bound in advance), and
//! learns the key range from the chunks themselves: the grow
//! step (`Slots::grow_for`) widens the range to cover each exact chunk, by
//! at least its current span on each side it grows, so keys arriving in
//! descending or ascending order cost O(log range) re-layouts; an inexact
//! chunk, or a range the rule refuses, triggers the migrate step
//! (`Slots::migrate`), which moves every occupied cell's code into a
//! [`KeyTable`] once. The great divide's `(A, C)` coverage counters make the
//! same one-way choice between one `u32` per pair and a [`PairTable`].
//! `FormRule` is the one place either choice is made: a dense array may
//! take no more bytes than the hashed form it stands in for would hold.

use crate::key_vector::KeyVector;

/// Slot sentinel: no entry. Payloads must therefore be `< u32::MAX`, which
/// row indices and dense group ids always are for in-memory batches.
pub(crate) const EMPTY: u32 = u32::MAX;

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
        let capacity = KeyTable::capacity_for(expected);
        KeyTable {
            codes: vec![0; capacity],
            payloads: vec![EMPTY; capacity],
            mask: capacity - 1,
            shift: 64 - capacity.trailing_zeros(),
            len: 0,
            limit: capacity / 8 * 7,
        }
    }

    /// The slot count of a table pre-sized for `expected` entries.
    fn capacity_for(expected: usize) -> usize {
        (expected.saturating_mul(8) / 7 + 1)
            .next_power_of_two()
            .max(8)
    }

    /// Bytes a table pre-sized for `expected` entries allocates: one code
    /// and one payload per slot.
    fn bytes_for(expected: usize) -> usize {
        KeyTable::capacity_for(expected).saturating_mul(size_of::<u64>() + size_of::<u32>())
    }

    /// Bytes the table holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.codes.capacity() * size_of::<u64>() + self.payloads.capacity() * size_of::<u32>()
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

    /// Add `n` to the payload stored for `code`, or store `n` for it: the
    /// payload as a count. Codes must be injective (nothing is verified).
    #[inline]
    fn add(&mut self, code: u64, n: u32) {
        let mut idx = self.bucket(code);
        loop {
            let payload = self.payloads[idx];
            if payload == EMPTY {
                self.get_or_insert(code, n, |_| true);
                return;
            }
            if self.codes[idx] == code {
                // A count reaching the sentinel would read as an empty slot.
                let sum = payload.checked_add(n).filter(|&sum| sum != EMPTY);
                self.payloads[idx] = sum.expect("counts stay below the sentinel");
                return;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Every stored `(code, payload)`, in slot order.
    fn entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.codes
            .iter()
            .zip(&self.payloads)
            .filter(|&(_, &payload)| payload != EMPTY)
            .map(|(&code, &payload)| (code, payload))
    }

    /// Pre-size the table for `additional` more entries, so inserting them
    /// never rehashes.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let capacity = KeyTable::capacity_for(self.len.saturating_add(additional));
        if capacity > self.mask + 1 {
            self.rehash(capacity);
        }
    }

    /// Double the slot array.
    #[cold]
    fn grow(&mut self) {
        self.rehash((self.mask + 1) * 2);
    }

    /// Re-place every entry in a slot array of `capacity` slots. Entries
    /// are already pairwise-distinct keys, so re-placement needs no
    /// verification.
    fn rehash(&mut self, capacity: usize) {
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
///
/// Built only from a whole [`KeyVector`], by [`index_rows`] or
/// [`index_rows_tracked`], and never grown afterwards. The builder picks
/// one of two internal forms (see the module docs); group ids, first rows
/// and lookups are the same in both.
#[derive(Debug, Clone)]
pub struct GroupIndex {
    slots: Slots,
    first_row: Vec<u32>,
}

/// Where a [`GroupIndex`] or a [`GroupStore`](crate::GroupStore) keeps its
/// key → group id map.
#[derive(Debug, Clone)]
pub(crate) enum Slots {
    /// Open addressing over the codes: any key vector.
    Hashed(KeyTable),
    /// One group id (or [`EMPTY`]) per key of a compact range, indexed by
    /// the key itself. Only exact codes are ever stored.
    Dense { gids: Vec<u32>, range: KeyRange },
    /// [`Slots::Dense`] in byte cells holding `gid + 1` (0: empty), for an
    /// index of fewer than 255 groups. Only a whole-vector build takes it.
    Bytes { cells: Vec<u8>, range: KeyRange },
}

impl Slots {
    /// An empty map for keys of `key_arity` columns that will grow chunk by
    /// chunk: dense with no cell yet when the arity has axes (one or two
    /// columns), hashed otherwise.
    pub(crate) fn empty(key_arity: usize) -> Slots {
        match KeyRange::empty(key_arity) {
            Some(range) => Slots::Dense {
                gids: Vec::new(),
                range,
            },
            None => Slots::Hashed(KeyTable::with_capacity(0)),
        }
    }

    /// The payload stored for `code`, verifying candidates with `is_match`.
    /// In the dense form a code outside the range, or on an empty cell, is
    /// absent; a code on an occupied cell is verified like a hashed tag
    /// match, so a folded code that decodes onto a stored key is rejected.
    #[inline]
    pub(crate) fn get(&self, code: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        let gid = match self {
            Slots::Hashed(table) => return table.get(code, is_match),
            Slots::Dense { gids, range } => Some(gids[range.slot(code)?]).filter(|&g| g != EMPTY),
            Slots::Bytes { cells, range } => cells[range.slot(code)?].checked_sub(1).map(u32::from),
        }?;
        is_match(gid).then_some(gid)
    }

    /// The grow step, before a chunk with `keys` over `key_arity` columns is
    /// inserted on top of `entries` entries. The hashed form pre-sizes for
    /// the chunk. The dense form keeps its range when it covers the chunk;
    /// otherwise it widens the range to cover it — by at least the current
    /// span on each side it grows, or exactly when that slack is more than
    /// `rule` admits for `entries` plus the chunk's rows — and re-lays its
    /// cells out. An inexact chunk, or a chunk no admitted range covers,
    /// migrates the map to the hashed form instead.
    pub(crate) fn grow_for(
        &mut self,
        key_arity: usize,
        keys: &KeyVector,
        entries: usize,
        rule: FormRule,
    ) {
        if keys.is_empty() {
            return;
        }
        let entries = entries.saturating_add(keys.len());
        let (gids, range) = match self {
            Slots::Hashed(table) => return table.reserve(keys.len()),
            Slots::Dense { gids, range } => (gids, range),
            Slots::Bytes { .. } => unreachable!("only a whole-vector index takes byte cells"),
        };
        let Some(chunk) = KeyRange::of(key_arity, keys) else {
            return self.migrate(entries);
        };
        if range.cover(&chunk, false) == Some(*range) {
            return;
        }
        let Some(wider) = range.widened(&chunk, rule.dense_cells(entries, u32::BITS)) else {
            return self.migrate(entries);
        };
        let mut cells = vec![EMPTY; wider.cells()];
        if !gids.is_empty() {
            // Both layouts are row-major, the narrower one a block inside
            // the wider: copy it row by row from where its first cell lands.
            let first = wider.slot(range.code(0));
            let first = first.expect("a widened range covers the narrower");
            for (row, run) in gids.chunks(range.row_len()).enumerate() {
                let at = first + row * wider.row_len();
                cells[at..at + run.len()].copy_from_slice(run);
            }
        }
        (*gids, *range) = (cells, wider);
    }

    /// The migrate step: move every occupied cell's code into a [`KeyTable`]
    /// pre-sized for `entries`, once. A hashed map stays as it is.
    pub(crate) fn migrate(&mut self, entries: usize) {
        if let Slots::Dense { gids, range } = self {
            let mut table = KeyTable::with_capacity(entries);
            for (cell, &gid) in gids.iter().enumerate() {
                if gid != EMPTY {
                    // Distinct cells hold distinct keys: nothing to verify.
                    table.get_or_insert(range.code(cell), gid, |_| true);
                }
            }
            *self = Slots::Hashed(table);
        }
    }

    /// Bytes the map holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Slots::Hashed(table) => table.heap_bytes(),
            Slots::Dense { gids, .. } => gids.capacity() * size_of::<u32>(),
            Slots::Bytes { cells, .. } => cells.capacity(),
        }
    }
}

impl GroupIndex {
    /// Number of distinct groups.
    pub fn len(&self) -> usize {
        self.first_row.len()
    }

    /// `true` when the index holds no group.
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

    /// Bytes the index holds on the heap: its slots and its first rows.
    pub fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes() + self.first_row.capacity() * size_of::<u32>()
    }

    /// The group id of a (possibly foreign) key with this `code`, verifying
    /// candidates via `same_key` against the group's representative row.
    /// In the dense form a code outside the range, or on an empty cell,
    /// is absent; a code on an occupied cell is verified like a hashed tag
    /// match, so a folded code that decodes onto a stored key is rejected.
    #[inline]
    pub fn get(&self, code: u64, mut same_key: impl FnMut(usize) -> bool) -> Option<u32> {
        self.slots
            .get(code, |gid| same_key(self.first_row[gid as usize] as usize))
    }

    /// An empty index that grows chunk by chunk ([`GroupIndex::intern`]):
    /// dense with no cell yet when keys of `key_arity` columns have axes,
    /// hashed otherwise. It keeps `u32` cells, as a
    /// [`GroupStore`](crate::GroupStore) does.
    pub(crate) fn growing(key_arity: usize) -> GroupIndex {
        GroupIndex {
            slots: Slots::empty(key_arity),
            first_row: Vec::new(),
        }
    }

    /// Intern one chunk of a growing index: `keys` over `key_arity`
    /// columns, the chunk's first row being row `base` of everything
    /// interned. The grow step ([`Slots::grow_for`], under `rule`) runs
    /// first; then each row gets its group id, new groups in
    /// first-occurrence order with the row as representative, reported to
    /// `on_row` in row order. `same_key(row, candidate)` verifies a hashed
    /// code match between chunk row `row` and the representative row
    /// `candidate` (numbered from the first chunk), so it may only answer
    /// `true` without looking when every key interned and the chunk's are
    /// exact.
    pub(crate) fn intern(
        &mut self,
        key_arity: usize,
        keys: &KeyVector,
        base: usize,
        rule: FormRule,
        mut same_key: impl FnMut(usize, usize) -> bool,
        mut on_row: impl FnMut(u32),
    ) {
        self.slots.grow_for(key_arity, keys, self.len(), rule);
        let first_row = &mut self.first_row;
        match &mut self.slots {
            // `grow_for` kept the map dense, so the chunk is exact and its
            // range covered: each key owns one cell, nothing to verify.
            Slots::Dense { gids, range } => {
                for (row, &code) in keys.codes().iter().enumerate() {
                    let cell = &mut gids[range.slot(code).expect("the range covers the chunk")];
                    if *cell == EMPTY {
                        *cell = first_row.len() as u32;
                        assert_ne!(*cell, EMPTY, "group ids exclude the sentinel");
                        first_row.push(row_id(base + row));
                    }
                    on_row(*cell);
                }
            }
            Slots::Bytes { .. } => unreachable!("only a whole-vector index takes byte cells"),
            Slots::Hashed(table) => {
                for (row, &code) in keys.codes().iter().enumerate() {
                    let next = first_row.len() as u32;
                    let (gid, is_new) = table.get_or_insert(code, next, |gid| {
                        same_key(row, first_row[gid as usize] as usize)
                    });
                    if is_new {
                        first_row.push(row_id(base + row));
                    }
                    on_row(gid);
                }
            }
        }
    }

    /// `true` when the index took the dense form.
    #[cfg(test)]
    pub(crate) fn is_dense(&self) -> bool {
        self.cell_bits().is_some()
    }

    /// The bits of a dense cell, or `None` in the hashed form.
    #[cfg(test)]
    pub(crate) fn cell_bits(&self) -> Option<u32> {
        match self.slots {
            Slots::Hashed(_) => None,
            Slots::Dense { .. } => Some(u32::BITS),
            Slots::Bytes { .. } => Some(u8::BITS),
        }
    }
}

/// A row index as stored in a [`GroupIndex`]. A silent `as` wrap on a
/// ≥ 2^32-row batch would point representatives at the wrong rows, so
/// this fails loudly instead (release builds included).
#[inline]
fn row_id(row: usize) -> u32 {
    u32::try_from(row).expect("key pipeline batches are limited to u32::MAX rows")
}

/// The compact code range of an exact key vector, and the cell each code
/// in it maps to. The axes come from the key arity: one key column codes
/// as the raw `i64`, and two key columns of an exact vector pack two
/// `i32` halves, the high half the major axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyRange {
    /// One int key column: cells `min ..= min + cells - 1`.
    Int { min: i64, cells: usize },
    /// Two packed int key columns: `hi_span × lo_span` cells.
    Pair {
        min_hi: i32,
        hi_span: usize,
        min_lo: i32,
        lo_span: usize,
    },
}

impl KeyRange {
    /// The range of `keys` over `key_arity` columns, or `None` when the
    /// vector is inexact or empty, the arity has no axes, or the cell count
    /// does not fit a `usize` (`i64::MIN` with `i64::MAX`, or two full
    /// `i32` axes on a 64-bit target).
    fn of(key_arity: usize, keys: &KeyVector) -> Option<KeyRange> {
        if !keys.exact() || keys.is_empty() {
            return None;
        }
        let codes = keys.codes();
        match key_arity {
            1 => {
                let (min, max) = codes.iter().fold((i64::MAX, i64::MIN), |(min, max), &c| {
                    (min.min(c as i64), max.max(c as i64))
                });
                let span = max.checked_sub(min)?.checked_add(1)?;
                Some(KeyRange::Int {
                    min,
                    cells: usize::try_from(span).ok()?,
                })
            }
            2 => {
                let (mut min_hi, mut max_hi) = (i32::MAX, i32::MIN);
                let (mut min_lo, mut max_lo) = (i32::MAX, i32::MIN);
                for &code in codes {
                    let (hi, lo) = ((code >> 32) as u32 as i32, code as u32 as i32);
                    (min_hi, max_hi) = (min_hi.min(hi), max_hi.max(hi));
                    (min_lo, max_lo) = (min_lo.min(lo), max_lo.max(lo));
                }
                let span =
                    |min: i32, max: i32| usize::try_from(i64::from(max) - i64::from(min) + 1);
                let (hi_span, lo_span) = (span(min_hi, max_hi).ok()?, span(min_lo, max_lo).ok()?);
                // `cells` multiplies the spans unchecked: refuse them here
                // when the product does not fit.
                hi_span.checked_mul(lo_span)?;
                Some(KeyRange::Pair {
                    min_hi,
                    hi_span,
                    min_lo,
                    lo_span,
                })
            }
            _ => None,
        }
    }

    /// The range of no cell over `key_arity` columns, which a growing map
    /// widens chunk by chunk; `None` when the arity has no axes.
    fn empty(key_arity: usize) -> Option<KeyRange> {
        match key_arity {
            1 => Some(KeyRange::Int { min: 0, cells: 0 }),
            2 => Some(KeyRange::Pair {
                min_hi: 0,
                hi_span: 0,
                min_lo: 0,
                lo_span: 0,
            }),
            _ => None,
        }
    }

    /// The smallest range over the same axes covering `self` and `other`,
    /// or — with `slack` — one that also extends each axis by at least its
    /// current span on each side `other` lies beyond, clamped to the axis'
    /// domain. `None` when the cells overflow a `usize`. An empty `self`
    /// widens to `other` exactly.
    fn cover(&self, other: &KeyRange, slack: bool) -> Option<KeyRange> {
        if self.cells() == 0 {
            return Some(*other);
        }
        match (*self, *other) {
            (KeyRange::Int { min, cells }, KeyRange::Int { min: at, cells: n }) => {
                let (min, cells) = cover_axis((min, cells), (at, n), i64::MIN, i64::MAX, slack)?;
                Some(KeyRange::Int { min, cells })
            }
            (
                KeyRange::Pair {
                    min_hi,
                    hi_span,
                    min_lo,
                    lo_span,
                },
                KeyRange::Pair {
                    min_hi: at_hi,
                    hi_span: n_hi,
                    min_lo: at_lo,
                    lo_span: n_lo,
                },
            ) => {
                let axis = |(min, span): (i32, usize), (at, n): (i32, usize)| {
                    let (lo, hi) = (i32::MIN.into(), i32::MAX.into());
                    let (min, span) =
                        cover_axis((min.into(), span), (at.into(), n), lo, hi, slack)?;
                    Some((i32::try_from(min).ok()?, span))
                };
                let (min_hi, hi_span) = axis((min_hi, hi_span), (at_hi, n_hi))?;
                let (min_lo, lo_span) = axis((min_lo, lo_span), (at_lo, n_lo))?;
                hi_span.checked_mul(lo_span)?;
                Some(KeyRange::Pair {
                    min_hi,
                    hi_span,
                    min_lo,
                    lo_span,
                })
            }
            _ => None,
        }
    }

    /// The grow step's new range for a chunk of range `chunk` that `self`
    /// does not cover: widened by at least the current span on each side
    /// it grows, or exactly when that slack takes more than `limit` cells;
    /// `None` when even the exact cover does.
    fn widened(&self, chunk: &KeyRange, limit: usize) -> Option<KeyRange> {
        [true, false]
            .into_iter()
            .filter_map(|slack| self.cover(chunk, slack))
            .find(|wider| wider.cells() <= limit)
    }

    /// The code whose cell is `cell`: the inverse of [`KeyRange::slot`].
    fn code(&self, cell: usize) -> u64 {
        match *self {
            KeyRange::Int { min, .. } => (min as u64).wrapping_add(cell as u64),
            KeyRange::Pair {
                min_hi,
                min_lo,
                lo_span,
                ..
            } => pair_code(
                (min_hi as u32).wrapping_add((cell / lo_span) as u32),
                (min_lo as u32).wrapping_add((cell % lo_span) as u32),
            ),
        }
    }

    /// Cells per row of the row-major layout: all of them for one int
    /// column, one low-axis span for two packed columns.
    fn row_len(&self) -> usize {
        match *self {
            KeyRange::Int { cells, .. } => cells,
            KeyRange::Pair { lo_span, .. } => lo_span,
        }
    }

    /// Number of cells the range spans.
    fn cells(&self) -> usize {
        match *self {
            KeyRange::Int { cells, .. } => cells,
            KeyRange::Pair {
                hi_span, lo_span, ..
            } => hi_span * lo_span,
        }
    }

    /// The cell of `code`, or `None` when it lies outside the range. The
    /// offsets are taken with wrapping subtraction and compared unsigned:
    /// a value below the minimum wraps past every span, so no code outside
    /// the range is ever taken for one inside it.
    #[inline]
    pub(crate) fn slot(&self, code: u64) -> Option<usize> {
        match *self {
            KeyRange::Int { min, cells } => {
                let offset = code.wrapping_sub(min as u64);
                (offset < cells as u64).then_some(offset as usize)
            }
            KeyRange::Pair {
                min_hi,
                hi_span,
                min_lo,
                lo_span,
            } => {
                let hi = ((code >> 32) as u32).wrapping_sub(min_hi as u32) as usize;
                let lo = (code as u32).wrapping_sub(min_lo as u32) as usize;
                (hi < hi_span && lo < lo_span).then_some(hi * lo_span + lo)
            }
        }
    }
}

/// One axis `[min, min + span)` widened to cover `[at, at + n)` within the
/// domain `lo ..= hi`: exactly, or with `slack` by at least `span` more on
/// each side it grows. `None` when the span overflows a `usize`.
fn cover_axis(
    (min, span): (i64, usize),
    (at, n): (i64, usize),
    lo: i64,
    hi: i64,
    slack: bool,
) -> Option<(i64, usize)> {
    let (start, end) = (i128::from(min), i128::from(min) + span as i128);
    let (at, at_end) = (i128::from(at), i128::from(at) + n as i128);
    let pad = if slack { span as i128 } else { 0 };
    let start = if at < start {
        at.min(start - pad).max(lo.into())
    } else {
        start
    };
    let end = if at_end > end {
        at_end.max(end + pad).min(i128::from(hi) + 1)
    } else {
        end
    };
    Some((
        i64::try_from(start).ok()?,
        usize::try_from(end - start).ok()?,
    ))
}

/// The one selection rule between a dense array and a hashed form: the
/// dense form's cells, each priced at the bits it needs, may take no more
/// bytes than the hashed form it stands in for would hold, so it never
/// costs more memory than the form it replaces. Tests force either form
/// through the other variants.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FormRule {
    /// Dense while `cells × bits ≤ 8 ×` the hashed form's bytes.
    Memory,
    /// Dense whenever the keys allow it, up to 2^20 cells (byte index
    /// cells below 255 rows).
    #[cfg(test)]
    Dense,
    /// [`FormRule::Dense`] with `u32` index cells at any row count.
    #[cfg(test)]
    Wide,
    /// Never dense.
    #[cfg(test)]
    Hashed,
}

impl FormRule {
    /// The most cells of `cell_bits` bits a dense array may take in place
    /// of a [`KeyTable`] pre-sized for `entries` entries
    /// (`cells × bits ≤ capacity × 12 B × 8`): a key → group id map or a
    /// key set for that many keys, or hashed coverage counters (a
    /// [`PairTable`]) for that many pairs.
    pub(crate) fn dense_cells(self, entries: usize, cell_bits: u32) -> usize {
        match self {
            FormRule::Memory => KeyTable::bytes_for(entries).saturating_mul(8) / cell_bits as usize,
            #[cfg(test)]
            FormRule::Dense | FormRule::Wide => 1 << 20,
            #[cfg(test)]
            FormRule::Hashed => 0,
        }
    }

    /// The bits of a dense index cell over a vector of `rows` rows: a byte
    /// below 255 rows (at most 254 groups, stored as `gid + 1`), else `u32`.
    fn index_cell_bits(self, rows: usize) -> u32 {
        match self {
            #[cfg(test)]
            FormRule::Wide => u32::BITS,
            _ if rows < usize::from(u8::MAX) => u8::BITS,
            _ => u32::BITS,
        }
    }
}

/// The `len ≤ 64` bits of `words` from bit `start` on, lowest first.
fn read_bits(words: &[u64], start: usize, len: usize) -> u64 {
    let (word, bit) = (start / 64, start % 64);
    let mut bits = words[word] >> bit;
    if bit + len > 64 {
        bits |= words[word + 1] << (64 - bit);
    }
    if len < 64 {
        bits &= (1 << len) - 1;
    }
    bits
}

/// Set the bits of `bits` (`len ≤ 64` of them) in `words` from bit `start`
/// on.
fn or_bits(words: &mut [u64], start: usize, len: usize, bits: u64) {
    let (word, bit) = (start / 64, start % 64);
    words[word] |= bits << bit;
    if bit + len > 64 {
        words[word + 1] |= bits >> (64 - bit);
    }
}

/// The keys of an exact key vector, one bit per cell of their range: the
/// form of a join build that only semi and anti probes read, which need to
/// know whether a key was built and nothing else. There is no group id and
/// no representative row, so a code is a member only as the exact code of
/// its key; the caller asks about no other probe row.
#[derive(Debug, Clone)]
pub(crate) struct KeySet {
    words: Vec<u64>,
    range: KeyRange,
    /// Keys held: the bits set.
    keys: usize,
}

impl KeySet {
    /// An empty set that grows chunk by chunk ([`KeySet::insert`]), or
    /// `None` when keys of `key_arity` columns have no axes.
    pub(crate) fn growing(key_arity: usize) -> Option<KeySet> {
        Some(KeySet {
            words: Vec::new(),
            range: KeyRange::empty(key_arity)?,
            keys: 0,
        })
    }

    /// Add one chunk's `keys` over `key_arity` columns to a set that holds
    /// `entries` keys so far. A range that does not cover the chunk widens
    /// as a growing map's does (`Slots::grow_for`), at one bit a cell under
    /// `rule`, and the bits are laid out anew. `false`, with the set
    /// unchanged, when the chunk is inexact or no range the rule admits
    /// covers it: the keys then need another form.
    pub(crate) fn insert(
        &mut self,
        key_arity: usize,
        keys: &KeyVector,
        entries: usize,
        rule: FormRule,
    ) -> bool {
        if keys.is_empty() {
            return true;
        }
        let Some(chunk) = KeyRange::of(key_arity, keys) else {
            return false;
        };
        if self.range.cover(&chunk, false) != Some(self.range) {
            let limit = rule.dense_cells(entries.saturating_add(keys.len()), 1);
            let Some(wider) = self.range.widened(&chunk, limit) else {
                return false;
            };
            let mut words = vec![0u64; wider.cells().div_ceil(64)];
            if self.range.cells() > 0 {
                // Both layouts are row-major, the narrower one a block
                // inside the wider: copy it row by row, a word at a time,
                // from where its first cell lands.
                let first = wider.slot(self.range.code(0));
                let first = first.expect("a widened range covers the narrower");
                let (row_len, stride) = (self.range.row_len(), wider.row_len());
                for row in 0..self.range.cells() / row_len {
                    let (from, to) = (row * row_len, first + row * stride);
                    for at in (0..row_len).step_by(64) {
                        let len = (row_len - at).min(64);
                        or_bits(
                            &mut words,
                            to + at,
                            len,
                            read_bits(&self.words, from + at, len),
                        );
                    }
                }
            }
            (self.words, self.range) = (words, wider);
        }
        for &code in keys.codes() {
            let slot = self.range.slot(code).expect("the range covers the chunk");
            let (word, bit) = (&mut self.words[slot >> 6], 1 << (slot & 63));
            self.keys += usize::from(*word & bit == 0);
            *word |= bit;
        }
        true
    }

    /// Keys held.
    pub(crate) fn len(&self) -> usize {
        self.keys
    }

    /// Words of bits held.
    pub(crate) fn words(&self) -> usize {
        self.words.len()
    }

    /// Up to `n` codes of the keys held, in cell order from cell `*cell`
    /// on, moving `*cell` past them: the exact codes the keys were
    /// inserted with.
    pub(crate) fn next_codes(&self, cell: &mut usize, n: usize) -> Vec<u64> {
        let mut codes = Vec::with_capacity(n.min(self.keys));
        let mut at = *cell >> 6;
        let mut rest = self
            .words
            .get(at)
            .map_or(0, |&word| word & (u64::MAX << (*cell & 63)));
        while codes.len() < n {
            if rest == 0 {
                at += 1;
                match self.words.get(at) {
                    Some(&word) => rest = word,
                    None => break,
                }
                continue;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            codes.push(self.range.code(at * 64 + bit));
            *cell = at * 64 + bit + 1;
        }
        if codes.len() < n {
            *cell = self.words.len() * 64;
        }
        codes
    }

    /// The set of one whole vector's `keys`, or `None` when the vector is
    /// inexact or empty, its arity has no axes, or `rule` does not admit its
    /// range at one bit a cell.
    #[cfg(test)]
    pub(crate) fn of(key_arity: usize, keys: &KeyVector, rule: FormRule) -> Option<KeySet> {
        let mut set = KeySet::growing(key_arity)?;
        (!keys.is_empty() && set.insert(key_arity, keys, 0, rule)).then_some(set)
    }

    /// `true` when the exact code `code` was built.
    #[inline]
    pub(crate) fn contains(&self, code: u64) -> bool {
        self.range
            .slot(code)
            .is_some_and(|slot| self.words[slot >> 6] >> (slot & 63) & 1 == 1)
    }

    /// Bytes the set holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>()
    }
}

/// A count per `(u32, u32)` id pair met, the pair packed into an injective
/// `u64` code and the count kept as the slot's payload — the hashed form of
/// the counting great divide's `(A, C)` coverage counters. Pair codes are
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

    /// Pre-size the table for `additional` more pairs.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.table.reserve(additional);
    }

    /// Bytes the table holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when no pair is stored.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Add `n` (non-zero) to the count of the pair `(a, b)`, storing the
    /// pair on its first count.
    #[inline]
    pub fn add(&mut self, a: u32, b: u32, n: u32) {
        self.table.add(pair_code(a, b), n);
    }

    /// Every stored pair with its count, in no particular order.
    pub fn counts(&self) -> impl Iterator<Item = ((u32, u32), u32)> + '_ {
        self.table
            .entries()
            .map(|(code, count)| (((code >> 32) as u32, code as u32), count))
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

/// The one whole-vector builder behind [`index_rows`] and
/// [`index_rows_tracked`]: one min/max pass picks the form (the dense form
/// when the vector is exact and `rule` admits its range for its rows, in
/// the cells [`FormRule::index_cell_bits`] gives), then one pass over the
/// key vector reports each row's group id to `on_row`.
fn index_rows_inner(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
    rule: FormRule,
    on_row: impl FnMut(u32),
) -> GroupIndex {
    let bits = rule.index_cell_bits(keys.len());
    let Some(range) = KeyRange::of(key_columns.len(), keys)
        .filter(|range| range.cells() <= rule.dense_cells(keys.len(), bits))
    else {
        return index_hashed(batch, key_columns, keys, on_row);
    };
    let (gids, first_row) = index_dense(range, keys, on_row);
    let slots = if bits == u8::BITS {
        let cells = gids.iter().map(|&gid| match gid {
            EMPTY => 0,
            gid => u8::try_from(gid + 1).expect("byte cells hold fewer than 255 groups"),
        });
        Slots::Bytes {
            cells: cells.collect(),
            range,
        }
    } else {
        Slots::Dense { gids, range }
    };
    GroupIndex { slots, first_row }
}

/// The hashed form: intern every row into a [`KeyTable`], verifying
/// inexact matches against the group's representative row of `batch` over
/// `key_columns`.
fn index_hashed(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
    mut on_row: impl FnMut(u32),
) -> GroupIndex {
    let exact = keys.exact();
    let same_key =
        crate::key_vector::cross_matcher(batch, key_columns, exact, batch, key_columns, exact);
    let mut table = KeyTable::with_capacity(keys.len());
    let mut first_row: Vec<u32> = Vec::with_capacity(keys.len());
    for (row, &code) in keys.codes().iter().enumerate() {
        let next = first_row.len() as u32;
        let (gid, is_new) = table.get_or_insert(code, next, |gid| {
            same_key(row, first_row[gid as usize] as usize)
        });
        if is_new {
            first_row.push(row_id(row));
        }
        on_row(gid);
    }
    GroupIndex {
        slots: Slots::Hashed(table),
        first_row,
    }
}

/// The dense form's `u32` group ids, one cell per key of `range`, and
/// first rows. The vector is exact, so distinct keys land in distinct cells
/// and the build verifies nothing.
fn index_dense(
    range: KeyRange,
    keys: &KeyVector,
    mut on_row: impl FnMut(u32),
) -> (Vec<u32>, Vec<u32>) {
    let mut gids = vec![EMPTY; range.cells()];
    let mut first_row = Vec::with_capacity(keys.len());
    for (row, &code) in keys.codes().iter().enumerate() {
        let slot = range
            .slot(code)
            .expect("a build code lies in its own range");
        let cell = &mut gids[slot];
        if *cell == EMPTY {
            let gid = first_row.len() as u32;
            // As in `KeyTable::get_or_insert`: an id equal to the sentinel
            // would read as an empty cell.
            assert_ne!(gid, EMPTY, "group ids exclude the sentinel");
            *cell = gid;
            first_row.push(row_id(row));
        }
        on_row(*cell);
    }
    (gids, first_row)
}

/// Build a [`GroupIndex`] over every row of a key vector, in its dense or
/// hashed form (see the module docs), verifying inexact matches against
/// `batch` over `key_columns` — the common build phase of the hash
/// kernels, factored once.
pub fn index_rows(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
) -> GroupIndex {
    index_rows_inner(batch, key_columns, keys, FormRule::Memory, |_| {})
}

/// [`index_rows`], additionally returning each row's group id (in row
/// order) — the build shape the natural join's CSR row lists need.
pub fn index_rows_tracked(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
) -> (GroupIndex, Vec<u32>) {
    index_rows_ruled(batch, key_columns, keys, FormRule::Memory)
}

/// [`index_rows_tracked`] with its form chosen by `rule`.
pub(crate) fn index_rows_ruled(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
    rule: FormRule,
) -> (GroupIndex, Vec<u32>) {
    let mut gid_of = Vec::with_capacity(keys.len());
    let index = index_rows_inner(batch, key_columns, keys, rule, |gid| gid_of.push(gid));
    (index, gid_of)
}

/// [`index_rows_tracked`] in a forced form, whatever the selection rule
/// says: hashed under [`FormRule::Hashed`], and under the dense rules the
/// dense form when the vector has a range of at most 2^20 cells (`None`
/// otherwise, so a test never allocates a range the rule would refuse for
/// its size).
#[cfg(test)]
pub(crate) fn index_rows_forced(
    batch: &crate::ColumnarBatch,
    key_columns: &[usize],
    keys: &KeyVector,
    rule: FormRule,
) -> Option<(GroupIndex, Vec<u32>)> {
    let (index, gid_of) = index_rows_ruled(batch, key_columns, keys, rule);
    let dense = !matches!(rule, FormRule::Hashed);
    (index.is_dense() == dense).then_some((index, gid_of))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::key_vector::{cross_matcher, exact_row, keys_equal, KeyVector};
    use crate::ColumnarBatch;
    use div_algebra::{relation, Schema, Value};
    use proptest::prelude::*;

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

    /// A batch of `key_arity` key columns over `rows`, each column in the
    /// encoding `Column::from_values` picks (NULL-free ints: no bitmap).
    fn key_batch(key_arity: usize, rows: &[[Value; 2]]) -> ColumnarBatch {
        let names = ["k1", "k2"];
        let columns = (0..key_arity)
            .map(|c| Column::from_values(rows.iter().map(|row| &row[c])))
            .collect();
        ColumnarBatch::from_parts(
            Schema::of(names[..key_arity].iter().copied()),
            columns,
            rows.len(),
        )
    }

    fn ints(rows: &[[i64; 2]]) -> Vec<[Value; 2]> {
        rows.iter()
            .map(|&[a, b]| [Value::Int(a), Value::Int(b)])
            .collect()
    }

    /// The cell bits of the form [`index_rows`] picks for `rows` over
    /// `key_arity` columns (`None`: hashed), and whether a key set takes them.
    fn picks(key_arity: usize, rows: &[[Value; 2]]) -> (Option<u32>, bool) {
        let batch = key_batch(key_arity, rows);
        let cols: Vec<usize> = (0..key_arity).collect();
        let keys = KeyVector::build(&batch, &cols);
        let set = KeySet::of(key_arity, &keys, FormRule::Memory);
        (index_rows(&batch, &cols, &keys).cell_bits(), set.is_some())
    }

    /// `rows` distinct one-column keys spanning `span` cells.
    fn spanning(rows: usize, span: usize) -> Vec<[Value; 2]> {
        let mut keys: Vec<[i64; 2]> = (0..rows as i64 - 1).map(|k| [k, 0]).collect();
        keys.push([span as i64 - 1, 0]);
        ints(&keys)
    }

    /// At `u32` cells the rule admits three cells per table slot, at byte
    /// cells (below 255 rows) twelve and at one bit (a key set) 96: each
    /// width's array then takes exactly the table's bytes.
    #[test]
    fn the_rule_switches_forms_at_three_times_the_table_capacity() {
        for rows in [2usize, 7, 8, 100, 254, 255, 1000] {
            let bits = if rows < 255 { u8::BITS } else { u32::BITS };
            for width in [bits, 1] {
                let limit = 96 / width as usize * KeyTable::capacity_for(rows);
                assert_eq!(
                    limit * width as usize,
                    KeyTable::bytes_for(rows) * 8,
                    "cells x bits against capacity x 12 B"
                );
                assert_eq!(FormRule::Memory.dense_cells(rows, width), limit);
                // `rows` distinct keys spanning exactly `limit`, then one
                // more cell.
                for (span, dense) in [(limit, true), (limit + 1, false)] {
                    let (cell_bits, set) = picks(1, &spanning(rows, span));
                    let picked = if width == 1 {
                        set
                    } else {
                        cell_bits == Some(bits)
                    };
                    assert_eq!(picked, dense, "{rows} rows, {span} cells of {width} bits");
                    assert!(
                        cell_bits.is_none() || set,
                        "a key set fits where an index does"
                    );
                }
            }
        }
        assert_eq!(3 * KeyTable::capacity_for(255), 1536);
        assert_eq!(
            picks(1, &spanning(254, 1537)).0,
            Some(u8::BITS),
            "254 rows over 1,537 cells take byte cells"
        );
        assert_eq!(
            picks(1, &spanning(255, 1537)).0,
            None,
            "255 rows stay hashed"
        );
        // Two packed columns: 2 rows give a capacity of 8, so 12 x 8 = 96
        // byte cells fit and 10 x 10 = 100 do not; a key set takes 768.
        assert_eq!(picks(2, &ints(&[[0, 0], [7, 11]])), (Some(u8::BITS), true));
        assert_eq!(picks(2, &ints(&[[0, 0], [9, 9]])), (None, true));
        assert_eq!(picks(2, &ints(&[[0, 0], [23, 31]])), (None, true));
        assert_eq!(picks(2, &ints(&[[0, 0], [24, 31]])), (None, false));
    }

    /// Byte cells end below 255 rows: 254 distinct keys put the largest
    /// group id a byte cell takes (253, stored as 254) in one, 255 and 256
    /// keys take `u32` cells. Every form answers every key, and the chosen
    /// one holds no more bytes than the hashed. An empty build is hashed
    /// and holds nothing.
    #[test]
    fn byte_cells_end_below_255_rows() {
        for rows in [254usize, 255, 256] {
            let keys: Vec<[i64; 2]> = (0..rows as i64).map(|k| [k, 0]).collect();
            let batch = key_batch(1, &ints(&keys));
            let vector = KeyVector::build(&batch, &[0]);
            let (chosen, gid_of) = index_rows_ruled(&batch, &[0], &vector, FormRule::Memory);
            let bits = if rows < 255 { u8::BITS } else { u32::BITS };
            assert_eq!(chosen.cell_bits(), Some(bits), "{rows} rows");
            assert_eq!(gid_of, (0..rows as u32).collect::<Vec<_>>());
            let (hashed, _) = index_rows_forced(&batch, &[0], &vector, FormRule::Hashed).unwrap();
            let (wide, _) = index_rows_forced(&batch, &[0], &vector, FormRule::Wide).unwrap();
            assert_eq!(wide.cell_bits(), Some(u32::BITS));
            assert!(chosen.heap_bytes() <= hashed.heap_bytes());
            for key in 0..rows as u64 + 2 {
                let want = (key < rows as u64).then_some(key as u32);
                for index in [&chosen, &hashed, &wide] {
                    assert_eq!(index.get(key, |_| true), want, "{rows} rows, key {key}");
                }
            }
        }
        let empty = key_batch(1, &[]);
        let vector = KeyVector::build(&empty, &[0]);
        let index = index_rows(&empty, &[0], &vector);
        assert!(index.is_empty() && !index.is_dense());
        assert_eq!(index.get(0, |_| true), None);
        assert!(KeySet::of(1, &vector, FormRule::Dense).is_none());
    }

    #[test]
    fn ranges_that_overflow_pick_the_hashed_form() {
        let (min, max) = (i64::MIN, i64::MAX);
        for keys in [[min, max], [min, -1], [0, max], [-1, max]] {
            let rows = ints(&[[keys[0], 0], [keys[1], 0]]);
            let batch = key_batch(1, &rows);
            let vector = KeyVector::build(&batch, &[0]);
            assert!(vector.exact());
            assert!(KeyRange::of(1, &vector).is_none(), "{keys:?}");
            let index = index_rows(&batch, &[0], &vector);
            assert!(!index.is_dense());
            assert_eq!(index.get(keys[0] as u64, |_| true), Some(0));
            assert_eq!(index.get(keys[1] as u64, |_| true), Some(1));
            assert_eq!(index.len(), 2);
        }
        // Two full `i32` axes: 2^32 x 2^32 cells overflow a 64-bit usize.
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        let batch = key_batch(2, &ints(&[[lo, lo], [hi, hi]]));
        let vector = KeyVector::build(&batch, &[0, 1]);
        assert!(vector.exact());
        assert!(KeyRange::of(2, &vector).is_none());
        assert!(!index_rows(&batch, &[0, 1], &vector).is_dense());
    }

    /// Key values: a compact int range (picks `0..=10`, the last one a
    /// far in-range outlier), then values an exact build never holds: an
    /// int outside `i32`, NULL, a string and the `i64` bounds.
    fn drawn(pick: u32) -> Value {
        match pick {
            0..=9 => Value::Int(i64::from(pick) - 3),
            10 => Value::Int(100),
            11 => Value::Int(i64::from(i32::MAX) + 1),
            12 => Value::Null,
            13 => Value::str("x"),
            14 => Value::Int(i64::MIN),
            _ => Value::Int(i64::MAX),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Every form over the same key vector — hashed, byte cells, `u32`
        /// cells and the key set: identical group ids, first rows and
        /// lookups for present, absent and out-of-range keys and raw codes.
        /// An inexact build has no dense form, and the rule picks the
        /// hashed one; whatever it picks holds no more bytes than the
        /// hashed form.
        #[test]
        fn both_forms_answer_alike(
            build in prop::collection::vec((0u32..16, 0u32..16), 0..40),
            probe in prop::collection::vec((0u32..16, 0u32..16), 0..40),
            key_arity in 1usize..3,
            hostile_build in 0u32..2,
        ) {
            let clamp = |pick: u32| if hostile_build == 1 { pick } else { pick % 11 };
            let build: Vec<[Value; 2]> =
                build.iter().map(|&(a, b)| [drawn(clamp(a)), drawn(clamp(b))]).collect();
            let probe: Vec<[Value; 2]> =
                probe.iter().map(|&(a, b)| [drawn(a), drawn(b)]).collect();
            let cols: Vec<usize> = (0..key_arity).collect();
            let (build, probe) = (key_batch(key_arity, &build), key_batch(key_arity, &probe));
            let (build_keys, probe_keys) =
                (KeyVector::build(&build, &cols), KeyVector::build(&probe, &cols));

            let (hashed, hashed_gids) =
                index_rows_forced(&build, &cols, &build_keys, FormRule::Hashed).unwrap();
            let chosen = index_rows(&build, &cols, &build_keys);
            let range = KeyRange::of(key_arity, &build_keys);
            prop_assert!(range.is_none() || build_keys.exact());
            // Fewer than 255 rows: the rule prices byte cells.
            let admits = |bits| {
                range.is_some_and(|r| r.cells() <= FormRule::Memory.dense_cells(build.num_rows(), bits))
            };
            prop_assert_eq!(chosen.cell_bits(), admits(u8::BITS).then_some(u8::BITS));
            prop_assert!(chosen.heap_bytes() <= hashed.heap_bytes());
            let chosen_set = KeySet::of(key_arity, &build_keys, FormRule::Memory);
            prop_assert_eq!(chosen_set.is_some(), admits(1));
            if let Some(set) = &chosen_set {
                prop_assert!(set.heap_bytes() <= hashed.heap_bytes());
            }
            prop_assert_eq!(chosen.len(), hashed.len());
            let (Some((bytes, bytes_gids)), Some((wide, wide_gids)), Some(set)) = (
                index_rows_forced(&build, &cols, &build_keys, FormRule::Dense),
                index_rows_forced(&build, &cols, &build_keys, FormRule::Wide),
                KeySet::of(key_arity, &build_keys, FormRule::Dense),
            ) else {
                // The next case (the property body runs in the case loop).
                continue;
            };
            prop_assert_eq!(bytes.cell_bits(), Some(u8::BITS));
            prop_assert_eq!(wide.cell_bits(), Some(u32::BITS));
            for (dense, dense_gids) in [(&bytes, &bytes_gids), (&wide, &wide_gids)] {
                prop_assert_eq!(dense.len(), hashed.len());
                prop_assert_eq!(dense.first_rows().collect::<Vec<_>>(), hashed.first_rows().collect::<Vec<_>>());
                prop_assert_eq!(dense_gids, &hashed_gids);
            }

            // Keys: the probe rows, verified against the build batch; the
            // key set is asked only about rows whose own code is exact.
            let same = cross_matcher(&probe, &cols, probe_keys.exact(), &build, &cols, build_keys.exact());
            for row in 0..probe.num_rows() {
                let code = probe_keys.code(row);
                let want = (0..build.num_rows())
                    .find(|&b| keys_equal(&probe, &cols, row, &build, &cols, b))
                    .map(|b| hashed_gids[b]);
                for index in [&hashed, &bytes, &wide] {
                    prop_assert_eq!(index.get(code, |other| same(row, other)), want);
                }
                let present = set.contains(code) && exact_row(&probe, &cols, row);
                prop_assert_eq!(present, want.is_some());
            }
            // Raw codes, matched on codes alone (both sides exact): every
            // build code and its neighbours on each axis, and the extremes.
            let mut codes = vec![0, u64::MAX, 1 << 63, (1 << 63) - 1];
            for &code in build_keys.codes() {
                for delta in [1, 1 << 32] {
                    codes.extend([code, code.wrapping_add(delta), code.wrapping_sub(delta)]);
                }
            }
            for code in codes {
                let want = hashed.get(code, |_| true);
                prop_assert_eq!(bytes.get(code, |_| true), want, "code {:#x}", code);
                prop_assert_eq!(wide.get(code, |_| true), want, "code {:#x}", code);
                prop_assert_eq!(set.contains(code), want.is_some(), "code {:#x}", code);
                // A candidate the matcher rejects is absent in every form:
                // an occupied cell is no match by itself.
                for index in [&hashed, &bytes, &wide] {
                    prop_assert_eq!(index.get(code, |_| false), None);
                }
            }
        }
    }

    #[test]
    fn pair_table_dedups_and_interns() {
        let mut pairs = PairTable::with_capacity(0);
        pairs.add(1, 2, 1);
        pairs.add(1, 2, 3);
        pairs.add(2, 1, 1);
        for a in 0..20 {
            pairs.add(a, u32::MAX, 2);
        }
        assert_eq!(
            pairs.len(),
            22,
            "order matters, and growth keeps every pair"
        );
        let mut counts: Vec<_> = pairs.counts().collect();
        counts.sort_unstable();
        assert_eq!(counts[..2], [((0, u32::MAX), 2), ((1, 2), 4)]);
        assert!(counts.contains(&((2, 1), 1)));
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
