//! Batch-native great divide (`÷*`) on the vectorized key pipeline.
//!
//! Counting formulation: give every distinct shared `B`-value a dense id,
//! group the divisor by its `C` attributes into id-sets, invert that into a
//! `B-id -> divisor groups` index, then stream the dividend once — each
//! dividend row bumps a counter for every divisor group its `B`-value belongs
//! to. A `(dividend group, divisor group)` pair qualifies exactly when its
//! counter reaches the divisor group's size. Work is proportional to
//! `|dividend| * avg(groups per B-value)` instead of the pairwise
//! `|A-groups| * |C-groups|` subset tests of the row algorithms. There is
//! one implementation, [`StreamingGreatDivide`], which takes the dividend
//! chunk by chunk; [`hash_great_divide`] is that kernel fed the whole
//! dividend as its only chunk.
//!
//! All grouping runs over [`KeyVector`] codes in open-addressing tables;
//! the `(A, C)` counters pack the dense ids into injective `u64` codes
//! consumed by a [`PairTable`], so the dividend stream allocates nothing per
//! row.
//!
//! Set inputs: a counter counts every dividend row it is shown, and a group
//! size every divisor row, so a repeated `(A, B)` or `(B, C)` pair would
//! inflate them. [`StreamingGreatDivide`] trusts both inputs to be sets —
//! every stream of the executor is duplicate-free, which debug builds assert
//! at every operator's emit, and the dividend's attributes are exactly `A ∪
//! B`, the divisor's exactly `B ∪ C`. [`hash_great_divide`] takes any batches
//! through the public API, so it deduplicates both at the wrapper.

use crate::batch::ColumnarBatch;
use crate::hash_table::{GroupIndex, PairTable};
use crate::kernels::divide::{FrozenConsume, StreamingDivide};
use crate::kernels::join::KernelOutput;
use crate::key_vector::{cross_matcher, KeyVector};
use crate::stream::GroupStore;
use crate::Result;
use div_algebra::{AlgebraError, Schema};

struct GreatDivideLayout {
    dividend_a: Vec<usize>,
    dividend_b: Vec<usize>,
    divisor_b: Vec<usize>,
    divisor_c: Vec<usize>,
    quotient: Vec<String>,
    group: Vec<String>,
}

impl GreatDivideLayout {
    /// Mirror of [`div_algebra::Relation::great_division_attributes`] over
    /// batch schemas.
    fn resolve(dividend: &Schema, divisor: &Schema) -> Result<Self> {
        let shared = dividend.common_attributes(divisor);
        if shared.is_empty() {
            return Err(AlgebraError::InvalidDivision {
                reason: "dividend and divisor must share at least one attribute (B nonempty)"
                    .to_string(),
            });
        }
        let quotient = dividend.difference_attributes(divisor);
        if quotient.is_empty() {
            return Err(AlgebraError::InvalidDivision {
                reason: "the dividend must have at least one attribute of its own (A nonempty)"
                    .to_string(),
            });
        }
        let group = divisor.difference_attributes(dividend);
        let shared_refs: Vec<&str> = shared.iter().map(String::as_str).collect();
        let quotient_refs: Vec<&str> = quotient.iter().map(String::as_str).collect();
        let group_refs: Vec<&str> = group.iter().map(String::as_str).collect();
        Ok(GreatDivideLayout {
            dividend_a: dividend.projection_indices(&quotient_refs)?,
            dividend_b: dividend.projection_indices(&shared_refs)?,
            divisor_b: divisor.projection_indices(&shared_refs)?,
            divisor_c: divisor.projection_indices(&group_refs)?,
            quotient,
            group,
        })
    }
}

/// Batch-native great divide `dividend ÷* divisor`: [`StreamingGreatDivide`]
/// over the deduplicated divisor, fed the deduplicated dividend as one
/// chunk.
pub fn hash_great_divide(
    dividend: &ColumnarBatch,
    divisor: &ColumnarBatch,
) -> Result<KernelOutput> {
    let mut state = StreamingGreatDivide::new(dividend.schema(), divisor.dedup())?;
    let probes = state.consume(&dividend.dedup());
    Ok(KernelOutput {
        batch: state.finish()?,
        probes,
    })
}

/// The output schema of `dividend ÷* divisor` (quotient attributes `A`
/// then group attributes `C`), with the kernel's validation applied — the
/// schema-inference companion of
/// [`quotient_schema`](crate::kernels::divide::quotient_schema).
pub fn great_quotient_schema(dividend: &Schema, divisor: &Schema) -> Result<Schema> {
    let layout = GreatDivideLayout::resolve(dividend, divisor)?;
    if layout.group.is_empty() {
        return crate::kernels::divide::quotient_schema(dividend, divisor);
    }
    let mut out_names: Vec<&str> = layout.quotient.iter().map(String::as_str).collect();
    out_names.extend(layout.group.iter().map(String::as_str));
    Schema::new(out_names)
}

/// Great divide with a prebuilt divisor and a *streamed* dividend — the
/// counting formulation with its dividend pass cut into chunks. The
/// divisor-side indexes (`B` ids, `C` groups, the inverted
/// `B → groups` lists) are built once at construction; every
/// [`StreamingGreatDivide::consume`] call folds one dividend chunk into the
/// id-based `(A, C)` coverage counters, which survive across chunks because
/// they key on dense ids rather than rows. Like [`StreamingDivide`], the
/// output is emitted only by [`StreamingGreatDivide::finish`], and the
/// dividend-group set can be frozen
/// ([`StreamingGreatDivide::consume_frozen`]) so that only rows of resident
/// groups are counted and the rest are handed back.
///
/// With no group attributes `C` the operator *is* the small divide (Darwen
/// & Date), and this type transparently degrades to [`StreamingDivide`].
///
/// Precondition: the divisor and the dividend chunks taken together are
/// sets — no row is shown twice, within a chunk or across chunks (see the
/// module docs).
#[derive(Debug)]
pub enum StreamingGreatDivide {
    /// Degenerate form: the divisor has no `C` attributes.
    Small(Box<StreamingDivide>),
    /// The counting great divide proper.
    Great(Box<GreatDivideState>),
}

/// Cross-chunk state of the counting great divide (see
/// [`StreamingGreatDivide`]).
#[derive(Debug)]
pub struct GreatDivideState {
    divisor: ColumnarBatch,
    dividend_b: Vec<usize>,
    divisor_b: Vec<usize>,
    divisor_c: Vec<usize>,
    group: Vec<String>,
    quotient: Vec<String>,
    divisor_b_keys: KeyVector,
    b_ids: GroupIndex,
    c_groups: GroupIndex,
    c_size: Vec<u32>,
    groups_of_b: Vec<Vec<u32>>,
    a_store: GroupStore,
    counters: PairTable,
    counter_pairs: Vec<(u32, u32)>,
    counts: Vec<u32>,
}

impl StreamingGreatDivide {
    /// Prepare a great divide of chunks carrying `dividend_schema` by the
    /// fully materialized `divisor`.
    pub fn new(dividend_schema: &Schema, divisor: ColumnarBatch) -> Result<StreamingGreatDivide> {
        let layout = GreatDivideLayout::resolve(dividend_schema, divisor.schema())?;
        if layout.group.is_empty() {
            return Ok(StreamingGreatDivide::Small(Box::new(StreamingDivide::new(
                dividend_schema,
                divisor,
            )?)));
        }
        let quotient_refs: Vec<&str> = layout.quotient.iter().map(String::as_str).collect();
        let key_schema = dividend_schema.project(&quotient_refs)?;

        // Divisor-side prep: dense ids for the distinct `B` values and `C`
        // groups, sizes, and the inverted `B id -> divisor group ids` lists.
        let divisor_b_keys = KeyVector::build(&divisor, &layout.divisor_b);
        let c_keys = KeyVector::build(&divisor, &layout.divisor_c);
        let divisor_rows = divisor.num_rows();
        let mut b_ids = GroupIndex::with_capacity(divisor_rows);
        let mut c_groups = GroupIndex::with_capacity(divisor_rows);
        let mut c_size: Vec<u32> = Vec::new();
        let mut groups_of_b: Vec<Vec<u32>> = Vec::new();
        {
            let same_divisor_b = cross_matcher(
                &divisor,
                &layout.divisor_b,
                &divisor_b_keys,
                &divisor,
                &layout.divisor_b,
                &divisor_b_keys,
            );
            let same_c = cross_matcher(
                &divisor,
                &layout.divisor_c,
                &c_keys,
                &divisor,
                &layout.divisor_c,
                &c_keys,
            );
            for i in 0..divisor_rows {
                let (b_id, b_new) =
                    b_ids.intern(divisor_b_keys.code(i), i, |other| same_divisor_b(i, other));
                if b_new {
                    groups_of_b.push(Vec::new());
                }
                let (c_gid, c_new) = c_groups.intern(c_keys.code(i), i, |other| same_c(i, other));
                if c_new {
                    c_size.push(0);
                }
                // The divisor is a set over `B ∪ C`: every row is a new
                // (B, C) pair.
                c_size[c_gid as usize] += 1;
                groups_of_b[b_id as usize].push(c_gid);
            }
        }
        Ok(StreamingGreatDivide::Great(Box::new(GreatDivideState {
            divisor,
            dividend_b: layout.dividend_b,
            divisor_b: layout.divisor_b,
            divisor_c: layout.divisor_c,
            group: layout.group,
            quotient: layout.quotient,
            divisor_b_keys,
            b_ids,
            c_groups,
            c_size,
            groups_of_b,
            a_store: GroupStore::new(key_schema, layout.dividend_a),
            counters: PairTable::with_capacity(0),
            counter_pairs: Vec::new(),
            counts: Vec::new(),
        })))
    }

    /// Fold one dividend chunk into the coverage counters. Returns the
    /// probes performed (one per chunk row).
    pub fn consume(&mut self, chunk: &ColumnarBatch) -> usize {
        match self {
            StreamingGreatDivide::Small(divide) => divide.consume(chunk),
            StreamingGreatDivide::Great(state) => state.consume(chunk),
        }
    }

    /// [`StreamingGreatDivide::consume`] with the group set frozen (see
    /// [`StreamingDivide::consume_frozen`]): rows of dividend groups seen
    /// before are counted, rows of unseen groups are handed back as
    /// [`FrozenConsume::leftover`] and no group is added.
    pub fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> FrozenConsume {
        match self {
            StreamingGreatDivide::Small(divide) => divide.consume_frozen(chunk),
            StreamingGreatDivide::Great(state) => state.consume_frozen(chunk),
        }
    }

    /// Number of dividend groups retained so far.
    pub fn groups(&self) -> usize {
        match self {
            StreamingGreatDivide::Small(divide) => divide.groups(),
            StreamingGreatDivide::Great(state) => state.a_store.len(),
        }
    }

    /// Emit the quotient pairs `(A group, C group)` whose counters reached
    /// the group size.
    pub fn finish(self) -> Result<ColumnarBatch> {
        match self {
            StreamingGreatDivide::Small(divide) => Ok(divide.finish()),
            StreamingGreatDivide::Great(state) => state.finish(),
        }
    }
}

impl GreatDivideState {
    fn consume(&mut self, chunk: &ColumnarBatch) -> usize {
        let interned = self.a_store.intern_chunk(chunk);
        self.count(chunk, |row| Some(interned.gids[row]));
        chunk.num_rows()
    }

    /// The frozen counterpart of `consume`: only rows of groups already in
    /// `a_store` are counted; the rest are reported back untouched.
    fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> FrozenConsume {
        let found = self.a_store.lookup_chunk(chunk);
        self.count(chunk, |row| found[row]);
        FrozenConsume::of(&found)
    }

    /// Bump the `(A, C)` coverage counters for every chunk row `gid_of`
    /// assigns to a dividend group.
    fn count(&mut self, chunk: &ColumnarBatch, gid_of: impl Fn(usize) -> Option<u32>) {
        let b_keys = KeyVector::build(chunk, &self.dividend_b);
        let same_b = cross_matcher(
            chunk,
            &self.dividend_b,
            &b_keys,
            &self.divisor,
            &self.divisor_b,
            &self.divisor_b_keys,
        );
        for row in 0..chunk.num_rows() {
            let Some(a_gid) = gid_of(row) else { continue };
            let b_id = self.b_ids.get(b_keys.code(row), |other| same_b(row, other));
            // The dividend is a set over `A ∪ B`: each row is a new (A, B)
            // pair and counts once.
            let Some(b_id) = b_id else { continue };
            for &c_gid in &self.groups_of_b[b_id as usize] {
                let (slot, is_new) = self.counters.intern(a_gid, c_gid);
                if is_new {
                    self.counter_pairs.push((a_gid, c_gid));
                    self.counts.push(0);
                }
                self.counts[slot as usize] += 1;
            }
        }
    }

    fn finish(self) -> Result<ColumnarBatch> {
        let mut qualifying: Vec<(u32, u32)> = self
            .counter_pairs
            .iter()
            .zip(&self.counts)
            .filter_map(|(&(a_gid, c_gid), &count)| {
                (count == self.c_size[c_gid as usize]).then_some((a_gid, c_gid))
            })
            .collect();
        qualifying.sort_unstable();

        let representatives = self.a_store.rows();
        let dividend_rows: Vec<usize> = qualifying
            .iter()
            .map(|&(a_gid, _)| a_gid as usize)
            .collect();
        let divisor_group_rows: Vec<usize> = qualifying
            .iter()
            .map(|&(_, c_gid)| self.c_groups.first_row(c_gid))
            .collect();
        let mut out_names: Vec<&str> = self.quotient.iter().map(String::as_str).collect();
        out_names.extend(self.group.iter().map(String::as_str));
        let out_schema = Schema::new(out_names)?;
        let mut columns = Vec::with_capacity(out_schema.arity());
        for c in 0..representatives.schema().arity() {
            columns.push(representatives.column(c).gather(&dividend_rows));
        }
        for &c in &self.divisor_c {
            columns.push(self.divisor.column(c).gather(&divisor_group_rows));
        }
        let out_rows = qualifying.len();
        Ok(ColumnarBatch::from_parts(out_schema, columns, out_rows))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::divide::tests::chunks_of;
    use crate::Column;
    use div_algebra::{relation, Relation, Value};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn check(dividend: &Relation, divisor: &Relation) {
        let expected = dividend.great_divide(divisor).unwrap();
        let out = hash_great_divide(
            &ColumnarBatch::from_relation(dividend),
            &ColumnarBatch::from_relation(divisor),
        )
        .unwrap();
        assert_eq!(out.batch.to_relation().unwrap(), expected);
    }

    #[test]
    fn figure2_quotient() {
        let dividend = relation! {
            ["a", "b"] =>
            [1, 1], [1, 4],
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
        };
        let divisor = relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] };
        check(&dividend, &divisor);
    }

    #[test]
    fn mining_workload_counts_mixed_size_candidates() {
        let transactions = relation! {
            ["tid", "item"] =>
            [1, 10], [1, 20], [1, 30],
            [2, 10], [2, 30],
            [3, 20], [3, 30],
            [4, 10], [4, 20], [4, 30], [4, 40],
        };
        let candidates = relation! {
            ["item", "itemset"] =>
            [10, 1], [30, 1],
            [20, 2], [30, 2],
            [40, 3],
        };
        check(&transactions, &candidates);
    }

    #[test]
    fn degenerate_divisor_is_the_small_divide() {
        let dividend = relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1] };
        let divisor = relation! { ["b"] => [1], [2] };
        check(&dividend, &divisor);
    }

    #[test]
    fn empty_divisor_produces_empty_quotient() {
        let dividend = relation! { ["a", "b"] => [1, 1] };
        let divisor = Relation::empty(div_algebra::Schema::of(["b", "c"]));
        check(&dividend, &divisor);
    }

    #[test]
    fn duplicate_rows_do_not_inflate_coverage_counters() {
        // Batches built through the public API may hold duplicate rows, and
        // the one-shot wrapper deduplicates them: a duplicated (a, b) pair
        // must not make a group look like it covers more of a divisor group
        // than it does. Group a=1 covers only b=1, so it must NOT qualify
        // for the two-element divisor group c=9.
        let dividend = ColumnarBatch::from_relation(&relation! { ["a", "b"] => [1, 1] });
        let doubled_dividend = dividend.gather(&[0, 0]);
        let divisor = ColumnarBatch::from_relation(&relation! { ["b", "c"] => [1, 9], [2, 9] });
        let out = hash_great_divide(&doubled_dividend, &divisor).unwrap();
        assert_eq!(out.batch.num_rows(), 0);

        // Symmetrically, duplicated divisor rows must not inflate the group
        // size and suppress genuine quotient pairs.
        let dividend = ColumnarBatch::from_relation(&relation! { ["a", "b"] => [1, 1], [1, 2] });
        let doubled_divisor = divisor.gather(&[0, 0, 1]);
        let out = hash_great_divide(&dividend, &doubled_divisor).unwrap();
        assert_eq!(
            out.batch.to_relation().unwrap(),
            relation! { ["a", "c"] => [1, 9] }
        );
    }

    #[test]
    fn disjoint_schemas_are_rejected() {
        let dividend = ColumnarBatch::from_relation(&relation! { ["a", "b"] => [1, 1] });
        let disjoint = ColumnarBatch::from_relation(&relation! { ["x", "y"] => [1, 1] });
        assert!(hash_great_divide(&dividend, &disjoint).is_err());
    }

    /// A batch straight from values (NULLs included), each column's
    /// representation picked by [`Column::from_values`] — so one chunk's
    /// column may be typed where the next one's is not.
    pub(crate) fn batch_of(names: &[&str], rows: &[Vec<Value>]) -> ColumnarBatch {
        let columns = (0..names.len())
            .map(|c| Column::from_values(rows.iter().map(|row| &row[c]).collect::<Vec<_>>()))
            .collect();
        ColumnarBatch::from_parts(Schema::of(names.iter().copied()), columns, rows.len())
    }

    /// `0` is NULL; everything else an int or — `strings` — a dictionary
    /// string, so key codes are inexact and matches are verified.
    pub(crate) fn key_value(v: u32, strings: bool) -> Value {
        match (v, strings) {
            (0, _) => Value::Null,
            (v, false) => Value::Int(i64::from(v)),
            (v, true) => {
                Value::str(["", "ann", "bob", "cy", "dee", "eve", "fay", "gus"][v as usize])
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Quotient partitioning with a resident part (Law 2): freeze the
        /// group set after `freeze` chunks, keep consuming the rows of the
        /// resident groups, divide the leftover rows with a fresh state —
        /// the two quotients are disjoint and their union is the unfrozen
        /// kernel's (itself the reference operator's), and every dividend
        /// row is probed exactly once.
        #[test]
        fn frozen_consume_plus_leftover_is_the_whole_quotient(
            dividend in prop::collection::vec((0u32..8, 0u32..5), 0..60),
            divisor in prop::collection::vec((0u32..5, 1u32..4), 0..8),
            shape in 0u32..4,
            chunk_rows in 1usize..7,
            freeze in 0usize..12,
        ) {
            // The streaming state's inputs are sets; `key_value` is
            // injective, so distinct pairs make distinct rows.
            let set = |pairs: Vec<(u32, u32)>| pairs.into_iter().collect::<BTreeSet<_>>();
            let (dividend, divisor) = (set(dividend), set(divisor));
            let (great, strings) = (shape & 1 == 1, shape & 2 == 2);
            let dividend_rows: Vec<Vec<Value>> = dividend
                .iter()
                .map(|&(a, b)| vec![key_value(a, strings), key_value(b, strings)])
                .collect();
            let divisor_rows: Vec<Vec<Value>> = divisor
                .iter()
                .map(|&(b, c)| vec![key_value(b, strings), Value::Int(i64::from(c))])
                .collect();
            let whole_dividend = batch_of(&["a", "b"], &dividend_rows);
            let divisor = if great {
                batch_of(&["b", "c"], &divisor_rows)
            } else {
                batch_of(&["b"], &divisor_rows).dedup()
            };
            // Unfrozen, in one chunk — anchored at the reference operator.
            let whole = hash_great_divide(&whole_dividend, &divisor).unwrap();
            let (dividend_rel, divisor_rel) =
                (whole_dividend.to_relation().unwrap(), divisor.to_relation().unwrap());
            let reference = if great {
                dividend_rel.great_divide(&divisor_rel)
            } else {
                dividend_rel.divide(&divisor_rel)
            };
            prop_assert_eq!(whole.batch.to_relation().unwrap(), reference.unwrap());

            let mut resident =
                StreamingGreatDivide::new(whole_dividend.schema(), divisor.clone()).unwrap();
            let mut probes = 0;
            let mut leftovers = Vec::new();
            // Each chunk is built from its own values, so string chunks
            // carry dictionaries the state has never seen.
            for (n, rows) in dividend_rows.chunks(chunk_rows).enumerate() {
                let chunk = batch_of(&["a", "b"], rows);
                if n < freeze {
                    probes += resident.consume(&chunk);
                } else {
                    let groups = resident.groups();
                    let frozen = resident.consume_frozen(&chunk);
                    prop_assert_eq!(resident.groups(), groups, "a frozen state grew");
                    probes += frozen.probes;
                    leftovers.push(chunk.gather(&frozen.leftover));
                }
            }
            let mut overflow =
                StreamingGreatDivide::new(whole_dividend.schema(), divisor.clone()).unwrap();
            for chunk in &leftovers {
                probes += overflow.consume(chunk);
            }
            let resident = resident.finish().unwrap();
            let overflow = overflow.finish().unwrap();
            prop_assert_eq!(probes, whole.probes);
            prop_assert_eq!(
                resident.num_rows() + overflow.num_rows(),
                whole.batch.num_rows(),
                "resident and overflow quotients overlap or lose rows"
            );
            prop_assert_eq!(
                resident
                    .to_relation()
                    .unwrap()
                    .union(&overflow.to_relation().unwrap())
                    .unwrap(),
                whole.batch.to_relation().unwrap()
            );
        }
    }

    #[test]
    fn streaming_great_divide_matches_the_one_shot_kernel() {
        let cases: Vec<(Relation, Relation)> = vec![
            (
                relation! {
                    ["a", "b"] =>
                    [1, 1], [1, 4],
                    [2, 1], [2, 2], [2, 3], [2, 4],
                    [3, 1], [3, 3], [3, 4],
                },
                relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] },
            ),
            // Degenerate divisor (no C attributes): the small divide.
            (
                relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1] },
                relation! { ["b"] => [1], [2] },
            ),
            // Empty divisor.
            (
                relation! { ["a", "b"] => [1, 1] },
                Relation::empty(div_algebra::Schema::of(["b", "c"])),
            ),
        ];
        for (dividend, divisor) in cases {
            // The one-shot kernel is the streaming one fed a single chunk,
            // so both are held against the reference, not each other.
            let expected = dividend.great_divide(&divisor).unwrap();
            let dividend = ColumnarBatch::from_relation(&dividend);
            let divisor = ColumnarBatch::from_relation(&divisor);
            let whole = hash_great_divide(&dividend, &divisor).unwrap();
            assert_eq!(whole.batch.to_relation().unwrap(), expected);
            assert_eq!(
                great_quotient_schema(dividend.schema(), divisor.schema()).unwrap(),
                *whole.batch.schema()
            );
            for chunk_size in [1, 3, 100] {
                let mut streaming =
                    StreamingGreatDivide::new(dividend.schema(), divisor.clone()).unwrap();
                let probes: usize = chunks_of(&dividend, chunk_size)
                    .iter()
                    .map(|chunk| streaming.consume(chunk))
                    .sum();
                assert_eq!(probes, whole.probes, "chunking changes no probe count");
                assert_eq!(
                    streaming.finish().unwrap().to_relation().unwrap(),
                    expected,
                    "chunk size {chunk_size}"
                );
            }
        }
    }
}
