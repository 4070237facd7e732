//! Batch-native division (`÷` and `÷*`) on the vectorized key pipeline.
//!
//! Counting formulation (Graefe & Cole 1995 for the small divide, Rantzau
//! et al. 2003 for the great divide): give every distinct shared `B`-value
//! a dense id, group the divisor by its `C` attributes into id-sets, invert
//! that into a `B-id -> divisor groups` index, then stream the dividend
//! once — each dividend row bumps a counter for every divisor group its
//! `B`-value belongs to. A `(dividend group, divisor group)` pair qualifies
//! exactly when its counter reaches the divisor group's size. Work is
//! proportional to `|dividend| * avg(groups per B-value)` instead of the
//! pairwise `|A-groups| * |C-groups|` subset tests of the row algorithms.
//!
//! The small divide is the great divide with no group attributes `C`
//! (Darwen & Date): one divisor group, the whole divisor — even an empty
//! one, which every dividend group covers vacuously. There is one
//! implementation, [`StreamingGreatDivide`], which takes the dividend chunk
//! by chunk and serves both operators; [`hash_great_divide`] and
//! [`hash_divide`](crate::kernels::hash_divide) are that kernel fed the
//! whole deduplicated dividend as its only chunk.
//!
//! All grouping runs over [`KeyVector`] codes in open-addressing tables, so
//! the dividend stream allocates nothing per row. With at most one divisor
//! group the counters are one `u32` cell per dividend group; otherwise the
//! `(A, C)` pairs pack their dense ids into injective `u64` codes consumed
//! by a [`PairTable`].
//!
//! Set inputs: a counter counts every dividend row it is shown, and a group
//! size every divisor row, so a repeated `(A, B)` or `(B, C)` pair would
//! inflate them. [`StreamingGreatDivide`] trusts both inputs to be sets —
//! every stream of the executor is duplicate-free, which debug builds assert
//! at every operator's emit, and the dividend's attributes are exactly `A ∪
//! B`, the divisor's exactly `B ∪ C`. The one-shot wrappers take any
//! batches through the public API, so they deduplicate both.

use crate::batch::ColumnarBatch;
use crate::hash_table::{index_rows_tracked, GroupIndex, PairTable};
use crate::kernels::join::KernelOutput;
use crate::key_vector::{cross_matcher, KeyVector};
use crate::stream::{FrozenConsume, GroupStore};
use crate::Result;
use div_algebra::Schema;

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
        batch: state.finish(),
        probes,
    })
}

/// Division with a prebuilt divisor and a *streamed* dividend — the
/// counting formulation with its dividend pass cut into chunks, behind both
/// `÷` and `÷*` of `div_physical::stream`. The divisor-side indexes (`B`
/// ids, `C` groups, the inverted `B → groups` lists) are built once at
/// construction; every [`StreamingGreatDivide::consume`] call folds one
/// dividend chunk into the id-based `(A, C)` coverage counters, which
/// survive across chunks because they key on dense ids rather than rows.
/// Retained state is one representative row per dividend group plus its
/// counters, so memory is bounded by the group count, not the dividend
/// size. The quotient is only known once the whole dividend has been
/// consumed: [`StreamingGreatDivide::finish`] emits it, making the
/// operator's *output* (but not its input) a blocking boundary.
///
/// When even the group set is too much to keep, the state can be *frozen*:
/// [`StreamingGreatDivide::consume_frozen`] keeps counting the rows of the
/// groups it holds and hands the others back, so a caller can divide those
/// elsewhere — quotient partitioning with one partition resident.
///
/// Precondition: the divisor and the dividend chunks taken together are
/// sets — no row is shown twice, within a chunk or across chunks (see the
/// module docs).
#[derive(Debug)]
pub struct StreamingGreatDivide {
    divisor: ColumnarBatch,
    dividend_b: Vec<usize>,
    divisor_b: Vec<usize>,
    divisor_c: Vec<usize>,
    out_schema: Schema,
    divisor_b_keys: KeyVector,
    b_ids: GroupIndex,
    c_groups: GroupIndex,
    c_size: Vec<u32>,
    groups_of_b: Vec<Vec<u32>>,
    a_store: GroupStore,
    /// The `(A group, C group)` coverage counters. With at most one divisor
    /// group (`pairs` is `None`) every dividend group has its cells,
    /// `a_gid × groups + c_gid`, from its interning on; otherwise there is a
    /// cell per pair met, slotted in first-occurrence order.
    counts: Vec<u32>,
    pairs: Option<(PairTable, Vec<(u32, u32)>)>,
}

impl StreamingGreatDivide {
    /// Prepare a division of chunks carrying `dividend_schema` by the fully
    /// materialized `divisor`: the great divide, which is the small divide
    /// when the divisor has no attributes of its own.
    pub fn new(dividend_schema: &Schema, divisor: ColumnarBatch) -> Result<StreamingGreatDivide> {
        let partition = dividend_schema.great_divide_partition(divisor.schema())?;
        // The partition as column indices: `A` in dividend order, `B` in the
        // partition's order on both sides.
        fn names(names: &[String]) -> Vec<&str> {
            names.iter().map(String::as_str).collect()
        }
        let (a, b) = (names(&partition.quotient), names(&partition.shared));
        let dividend_b = dividend_schema.projection_indices(&b)?;
        let divisor_b = divisor.schema().projection_indices(&b)?;
        let divisor_c = divisor
            .schema()
            .projection_indices(&names(&partition.group))?;
        let a_store = GroupStore::new(
            dividend_schema.project(&a)?,
            dividend_schema.projection_indices(&a)?,
        );

        // Divisor-side prep: dense ids for the distinct `B` values and `C`
        // groups, sizes, and the inverted `B id -> divisor group ids` lists.
        let divisor_b_keys = KeyVector::build(&divisor, &divisor_b);
        let c_keys = KeyVector::build(&divisor, &divisor_c);
        let (b_ids, b_of) = index_rows_tracked(&divisor, &divisor_b, &divisor_b_keys);
        let (c_groups, c_of) = index_rows_tracked(&divisor, &divisor_c, &c_keys);
        // With no `C` the whole divisor is one group, even when it is empty:
        // every dividend group then covers it vacuously.
        let groups = if divisor_c.is_empty() {
            1
        } else {
            c_groups.len()
        };
        let mut c_size = vec![0u32; groups];
        let mut groups_of_b: Vec<Vec<u32>> = vec![Vec::new(); b_ids.len()];
        for (&b_id, &c_gid) in b_of.iter().zip(&c_of) {
            // The divisor is a set over `B ∪ C`: every row is a new
            // (B, C) pair.
            c_size[c_gid as usize] += 1;
            groups_of_b[b_id as usize].push(c_gid);
        }
        let pairs = (groups > 1).then(|| (PairTable::with_capacity(0), Vec::new()));
        Ok(StreamingGreatDivide {
            divisor,
            dividend_b,
            divisor_b,
            divisor_c,
            out_schema: partition.output(),
            divisor_b_keys,
            b_ids,
            c_groups,
            c_size,
            groups_of_b,
            a_store,
            counts: Vec::new(),
            pairs,
        })
    }

    /// Fold one dividend chunk into the coverage counters. Returns the
    /// probes performed: one per chunk row, or none for an empty divisor.
    pub fn consume(&mut self, chunk: &ColumnarBatch) -> usize {
        let interned = self.a_store.intern_chunk(chunk);
        if self.pairs.is_none() {
            self.counts
                .resize(self.a_store.len() * self.c_size.len(), 0);
        }
        self.count(chunk, |row| Some(interned.gids[row]))
    }

    /// [`StreamingGreatDivide::consume`] with the group set *frozen*: rows
    /// of dividend groups seen before are counted as usual, rows of unseen
    /// groups are handed back as [`FrozenConsume::leftover`] and no group is
    /// added. This is the resident half of quotient partitioning (Law 2):
    /// every group this state holds stays complete as long as it is shown
    /// the whole dividend, while the leftover rows — key-disjoint from every
    /// resident group — can be divided elsewhere and the two quotients
    /// unioned.
    pub fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> FrozenConsume {
        let found = self.a_store.lookup_chunk(chunk);
        let probes = self.count(chunk, |row| found[row]);
        FrozenConsume {
            probes,
            ..FrozenConsume::of(&found)
        }
    }

    /// Bump the `(A, C)` coverage counters for every chunk row `gid_of`
    /// assigns to a dividend group. Returns the probes: one per such row,
    /// none for an empty divisor, which has nothing to look up.
    fn count(&mut self, chunk: &ColumnarBatch, gid_of: impl Fn(usize) -> Option<u32>) -> usize {
        if self.b_ids.is_empty() {
            return 0;
        }
        let b_keys = KeyVector::build(chunk, &self.dividend_b);
        let same_b = cross_matcher(
            chunk,
            &self.dividend_b,
            &b_keys,
            &self.divisor,
            &self.divisor_b,
            &self.divisor_b_keys,
        );
        let mut probes = 0;
        for row in 0..chunk.num_rows() {
            let Some(a_gid) = gid_of(row) else { continue };
            probes += 1;
            let b_id = self.b_ids.get(b_keys.code(row), |other| same_b(row, other));
            // The dividend is a set over `A ∪ B`: each row is a new (A, B)
            // pair and counts once.
            let Some(b_id) = b_id else { continue };
            for &c_gid in &self.groups_of_b[b_id as usize] {
                let cell = match &mut self.pairs {
                    None => a_gid as usize * self.c_size.len() + c_gid as usize,
                    Some((slots, pairs)) => {
                        let (slot, is_new) = slots.intern(a_gid, c_gid);
                        if is_new {
                            pairs.push((a_gid, c_gid));
                            self.counts.push(0);
                        }
                        slot as usize
                    }
                };
                self.counts[cell] += 1;
            }
        }
        probes
    }

    /// Number of dividend groups retained so far.
    pub fn groups(&self) -> usize {
        self.a_store.len()
    }

    /// Emit the quotient: the pairs `(A group, C group)` whose counters
    /// reached the divisor group's size, in group-id order.
    pub fn finish(self) -> ColumnarBatch {
        let groups = self.c_size.len();
        let pairs = match self.pairs {
            None => (0..self.counts.len())
                .map(|cell| ((cell / groups) as u32, (cell % groups) as u32))
                .collect(),
            Some((_, pairs)) => pairs,
        };
        let mut qualifying: Vec<(u32, u32)> = pairs
            .into_iter()
            .zip(&self.counts)
            .filter(|&((_, c_gid), &count)| count == self.c_size[c_gid as usize])
            .map(|(pair, _)| pair)
            .collect();
        // Group-id order; the dense cells are laid out in it already.
        qualifying.sort_unstable();
        let representatives = self.a_store.rows();
        let dividend_rows: Vec<usize> = qualifying
            .iter()
            .map(|&(a_gid, _)| a_gid as usize)
            .collect();
        let mut columns = Vec::with_capacity(self.out_schema.arity());
        for c in 0..representatives.schema().arity() {
            columns.push(representatives.column(c).gather(&dividend_rows));
        }
        // Only a divisor with `C` has group rows to gather: the one group of
        // an empty divisor has none.
        if !self.divisor_c.is_empty() {
            let divisor_group_rows: Vec<usize> = qualifying
                .iter()
                .map(|&(_, c_gid)| self.c_groups.first_row(c_gid))
                .collect();
            for &c in &self.divisor_c {
                columns.push(self.divisor.column(c).gather(&divisor_group_rows));
            }
        }
        let out_rows = qualifying.len();
        ColumnarBatch::from_parts(self.out_schema, columns, out_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_rows::{batch_of, chunks_of, key_value};
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
            let resident = resident.finish();
            let overflow = overflow.finish();
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
        // (dividend, divisor, probes): one probe per dividend row, none
        // for an empty divisor.
        let cases: Vec<(Relation, Relation, usize)> = vec![
            (
                relation! {
                    ["a", "b"] =>
                    [1, 1], [1, 4],
                    [2, 1], [2, 2], [2, 3], [2, 4],
                    [3, 1], [3, 3], [3, 4],
                },
                relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] },
                9,
            ),
            // Degenerate divisor (no C attributes): the small divide.
            (
                relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1] },
                relation! { ["b"] => [1], [2] },
                3,
            ),
            // One divisor group with C: the dense counters.
            (
                relation! { ["a", "b"] => [1, 1], [1, 2], [2, 2], [3, 3] },
                relation! { ["b", "c"] => [1, 5], [2, 5] },
                4,
            ),
            // Empty divisor with C: no groups, an empty quotient.
            (
                relation! { ["a", "b"] => [1, 1] },
                Relation::empty(div_algebra::Schema::of(["b", "c"])),
                0,
            ),
            // Empty divisor without C: one empty group, every `a` qualifies.
            (
                relation! { ["a", "b"] => [1, 1], [2, 2] },
                Relation::empty(div_algebra::Schema::of(["b"])),
                0,
            ),
        ];
        for (dividend, divisor, probes) in cases {
            // The one-shot kernel is the streaming one fed a single chunk,
            // so both are held against the reference, not each other.
            let expected = dividend.great_divide(&divisor).unwrap();
            let dividend = ColumnarBatch::from_relation(&dividend);
            let divisor = ColumnarBatch::from_relation(&divisor);
            let whole = hash_great_divide(&dividend, &divisor).unwrap();
            assert_eq!(whole.batch.to_relation().unwrap(), expected);
            assert_eq!(whole.probes, probes);
            assert_eq!(
                dividend
                    .schema()
                    .great_divide_partition(divisor.schema())
                    .unwrap()
                    .output(),
                *whole.batch.schema()
            );
            for chunk_size in [1, 3, 100] {
                let mut streaming =
                    StreamingGreatDivide::new(dividend.schema(), divisor.clone()).unwrap();
                let streamed: usize = chunks_of(&dividend, chunk_size)
                    .iter()
                    .map(|chunk| streaming.consume(chunk))
                    .sum();
                assert_eq!(streamed, probes, "chunking changes no probe count");
                assert_eq!(
                    streaming.finish().to_relation().unwrap(),
                    expected,
                    "chunk size {chunk_size}"
                );
            }
        }
    }
}
