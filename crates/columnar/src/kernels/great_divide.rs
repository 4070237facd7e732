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
//! All grouping runs over [`KeyVector`] codes, so the dividend stream
//! allocates nothing per row. The `(A, C)` coverage counters are one `u32`
//! cell per pair, `a_gid × groups_C + c_gid` — both ids are already dense —
//! for every divisor shape, the small divide included, while those cells
//! take no more bytes than the hashed counters would hold. A growing `A`
//! that breaks this rule (many sparse candidates, as in itemset mining)
//! moves the non-zero cells, once and in `(a_gid, c_gid)` order, to a
//! [`PairTable`] over the pairs met, which packs the two ids into injective
//! `u64` codes and keeps each pair's count in its slot. Both forms emit the
//! same quotient rows in the same order: `finish` walks the dense cells in
//! group-id order and sorts the hashed pairs into it.
//!
//! Set inputs: a counter counts every dividend row it is shown, and a group
//! size every divisor row, so a repeated `(A, B)` or `(B, C)` pair would
//! inflate them. [`StreamingGreatDivide`] trusts both inputs to be sets —
//! every stream of the executor is duplicate-free, which debug builds assert
//! at every operator's emit, and the dividend's attributes are exactly `A ∪
//! B`, the divisor's exactly `B ∪ C`. The one-shot wrappers take any
//! batches through the public API, so they deduplicate both.

use crate::batch::ColumnarBatch;
use crate::hash_table::{index_rows_ruled, FormRule, GroupIndex, PairTable};
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
    /// The divisor groups holding each `B` value, as one CSR pair: those of
    /// `b_id` are `b_groups[b_offsets[b_id]..b_offsets[b_id + 1]]`.
    b_offsets: Vec<u32>,
    b_groups: Vec<u32>,
    a_store: GroupStore,
    counters: Counters,
    rule: FormRule,
}

/// The `(A group, C group)` coverage counters of a [`StreamingGreatDivide`].
#[derive(Debug)]
enum Counters {
    /// A cell per pair of every dividend group interned, `a_gid ×
    /// groups_C + c_gid`; `met` counts the non-zero cells.
    Dense { counts: Vec<u32>, met: usize },
    /// A count per pair met, kept in a hash table.
    Hashed(PairTable),
}

impl StreamingGreatDivide {
    /// Prepare a division of chunks carrying `dividend_schema` by the fully
    /// materialized `divisor`: the great divide, which is the small divide
    /// when the divisor has no attributes of its own.
    pub fn new(dividend_schema: &Schema, divisor: ColumnarBatch) -> Result<StreamingGreatDivide> {
        StreamingGreatDivide::with_rule(dividend_schema, divisor, FormRule::Memory)
    }

    /// [`StreamingGreatDivide::new`] choosing the form of its counters, of
    /// its dividend groups' map and of its divisor indexes by `rule`.
    fn with_rule(
        dividend_schema: &Schema,
        divisor: ColumnarBatch,
        rule: FormRule,
    ) -> Result<StreamingGreatDivide> {
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
        let a_store = GroupStore::with_rule(
            dividend_schema.project(&a)?,
            dividend_schema.projection_indices(&a)?,
            rule,
        );

        // Divisor-side prep: dense ids for the distinct `B` values and `C`
        // groups, sizes, and the inverted `B id -> divisor group ids` lists.
        let divisor_b_keys = KeyVector::build(&divisor, &divisor_b);
        let c_keys = KeyVector::build(&divisor, &divisor_c);
        let (b_ids, b_of) = index_rows_ruled(&divisor, &divisor_b, &divisor_b_keys, rule);
        let (c_groups, c_of) = index_rows_ruled(&divisor, &divisor_c, &c_keys, rule);
        // With no `C` the whole divisor is one group, even when it is empty:
        // every dividend group then covers it vacuously.
        let groups = if divisor_c.is_empty() {
            1
        } else {
            c_groups.len()
        };
        // The divisor is a set over `B ∪ C`: every row is a new (B, C) pair,
        // one more member of its group and one more group of its `B`.
        let mut c_size = vec![0u32; groups];
        let mut b_offsets = vec![0u32; b_ids.len() + 1];
        for (&b_id, &c_gid) in b_of.iter().zip(&c_of) {
            c_size[c_gid as usize] += 1;
            b_offsets[b_id as usize + 1] += 1;
        }
        for b_id in 0..b_ids.len() {
            b_offsets[b_id + 1] += b_offsets[b_id];
        }
        let mut next = b_offsets.clone();
        let mut b_groups = vec![0u32; b_of.len()];
        for (&b_id, &c_gid) in b_of.iter().zip(&c_of) {
            b_groups[next[b_id as usize] as usize] = c_gid;
            next[b_id as usize] += 1;
        }
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
            b_offsets,
            b_groups,
            a_store,
            counters: Counters::Dense {
                counts: Vec::new(),
                met: 0,
            },
            rule,
        })
    }

    /// Fold one dividend chunk into the coverage counters. Returns the
    /// probes performed: one per chunk row, or none for an empty divisor.
    pub fn consume(&mut self, chunk: &ColumnarBatch) -> usize {
        let interned = self.a_store.intern_chunk(chunk);
        self.fit_counters(chunk.num_rows());
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

    /// Make room for a chunk of `rows` rows whose new dividend groups are
    /// interned already. The dense counters grow to a cell for every pair
    /// of every dividend group while the rule admits those cells against
    /// the hashed counters for the pairs met plus one per chunk row (a bound
    /// on what the hashed form holds after the chunk); once it does not,
    /// they migrate. The hashed counters pre-size for the chunk. An empty
    /// divisor counts nothing and keeps no counter.
    fn fit_counters(&mut self, rows: usize) {
        if self.b_ids.is_empty() {
            return;
        }
        match &mut self.counters {
            Counters::Dense { counts, met } => {
                let cells = self.a_store.len().saturating_mul(self.c_size.len());
                if cells <= counts.len() {
                    return;
                }
                let limit = self.rule.dense_cells(met.saturating_add(rows), u32::BITS);
                if cells > limit {
                    return self.migrate_counters(rows);
                }
                // Amortized growth, capped where the rule stops admitting.
                let capacity = cells.max(counts.len() * 2).min(limit);
                counts.reserve_exact(capacity - counts.len());
                counts.resize(cells, 0);
            }
            Counters::Hashed(pairs) => pairs.reserve(rows),
        }
    }

    /// Move the dense counters' non-zero cells to the hashed form, in
    /// `(a_gid, c_gid)` order, pre-sized for a chunk of `rows` more rows.
    fn migrate_counters(&mut self, rows: usize) {
        let Counters::Dense { counts, met } = &self.counters else {
            return;
        };
        let stride = self.c_size.len();
        let mut pairs = PairTable::with_capacity(met + rows);
        for (cell, &count) in counts.iter().enumerate() {
            if count > 0 {
                pairs.add((cell / stride) as u32, (cell % stride) as u32, count);
            }
        }
        self.counters = Counters::Hashed(pairs);
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
        let stride = self.c_size.len();
        let mut probes = 0;
        for row in 0..chunk.num_rows() {
            let Some(a_gid) = gid_of(row) else { continue };
            probes += 1;
            let b_id = self.b_ids.get(b_keys.code(row), |other| same_b(row, other));
            let Some(b) = b_id else { continue };
            let c_gids = &self.b_groups
                [self.b_offsets[b as usize] as usize..self.b_offsets[b as usize + 1] as usize];
            match &mut self.counters {
                Counters::Dense { counts, met } => {
                    let base = a_gid as usize * stride;
                    for &c_gid in c_gids {
                        let count = &mut counts[base + c_gid as usize];
                        *met += usize::from(*count == 0);
                        *count += 1;
                    }
                }
                Counters::Hashed(pairs) => {
                    for &c_gid in c_gids {
                        pairs.add(a_gid, c_gid, 1);
                    }
                }
            }
        }
        probes
    }

    /// Number of dividend groups retained so far.
    pub fn groups(&self) -> usize {
        self.a_store.len()
    }

    /// `true` while the coverage counters are the dense array.
    #[cfg(test)]
    fn counters_dense(&self) -> bool {
        matches!(self.counters, Counters::Dense { .. })
    }

    /// Bytes the state holds on the heap beside its divisor batch and its
    /// dividend groups' retained representatives: the dividend groups' map,
    /// the divisor-side indexes and group sizes, and the counters.
    pub fn heap_bytes(&self) -> usize {
        let u32s = |v: &Vec<u32>| v.capacity() * size_of::<u32>();
        let counters = match &self.counters {
            Counters::Dense { counts, .. } => u32s(counts),
            Counters::Hashed(pairs) => pairs.heap_bytes(),
        };
        self.a_store.heap_bytes()
            + size_of_val(self.divisor_b_keys.codes())
            + self.b_ids.heap_bytes()
            + self.c_groups.heap_bytes()
            + u32s(&self.c_size)
            + u32s(&self.b_offsets)
            + u32s(&self.b_groups)
            + counters
    }

    /// Emit the quotient: the pairs `(A group, C group)` whose counters
    /// reached the divisor group's size, in group-id order.
    pub fn finish(self) -> ColumnarBatch {
        let groups = self.c_size.len();
        let qualifying: Vec<(u32, u32)> = if self.b_ids.is_empty() {
            // An empty divisor: every dividend group covers its one empty
            // group vacuously, and a divisor with `C` has no group at all.
            (0..self.a_store.len() as u32)
                .flat_map(|a_gid| (0..groups as u32).map(move |c_gid| (a_gid, c_gid)))
                .collect()
        } else {
            match self.counters {
                // The cells are laid out in group-id order.
                Counters::Dense { counts, .. } => (0..counts.len())
                    .filter(|&cell| counts[cell] == self.c_size[cell % groups])
                    .map(|cell| ((cell / groups) as u32, (cell % groups) as u32))
                    .collect(),
                Counters::Hashed(pairs) => {
                    let mut qualifying: Vec<(u32, u32)> = pairs
                        .counts()
                        .filter(|&((_, c_gid), count)| count == self.c_size[c_gid as usize])
                        .map(|(pair, _)| pair)
                        .collect();
                    qualifying.sort_unstable();
                    qualifying
                }
            }
        };
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
        /// row is probed exactly once. Each counter form runs it: the
        /// rule's, dense-forced, hashed-forced, and dense-forced with a
        /// migration to the hashed form at the freeze.
        #[test]
        fn frozen_consume_plus_leftover_is_the_whole_quotient(
            dividend in prop::collection::vec((0u32..8, 0u32..5), 0..60),
            divisor in prop::collection::vec((0u32..5, 1u32..4), 0..8),
            shape in 0u32..4,
            chunk_rows in 1usize..7,
            freeze in 0usize..12,
            form in 0usize..4,
        ) {
            let rule = [FormRule::Memory, FormRule::Dense, FormRule::Hashed, FormRule::Dense][form];
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

            let state = || {
                StreamingGreatDivide::with_rule(whole_dividend.schema(), divisor.clone(), rule)
                    .unwrap()
            };
            let mut resident = state();
            let mut probes = 0;
            let mut leftovers = Vec::new();
            // Each chunk is built from its own values, so string chunks
            // carry dictionaries the state has never seen.
            for (n, rows) in dividend_rows.chunks(chunk_rows).enumerate() {
                let chunk = batch_of(&["a", "b"], rows);
                if n < freeze {
                    probes += resident.consume(&chunk);
                } else {
                    if n == freeze && form == 3 {
                        resident.migrate_counters(0);
                        prop_assert!(!resident.counters_dense());
                    }
                    let groups = resident.groups();
                    let frozen = resident.consume_frozen(&chunk);
                    prop_assert_eq!(resident.groups(), groups, "a frozen state grew");
                    probes += frozen.probes;
                    leftovers.push(chunk.gather(&frozen.leftover));
                }
            }
            let mut overflow = state();
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The same chunks through a rule-chosen and a hashed-forced state:
        /// after every chunk the chosen state holds no more heap bytes, and
        /// both emit the reference quotient. `A` ranges over a compact or a
        /// sparse domain and `C` over up to 40 groups, so the chosen
        /// counters stay dense on some inputs and migrate on others.
        #[test]
        fn the_chosen_state_never_holds_more_than_the_hashed(
            dividend in prop::collection::vec((0u32..64, 0u32..12), 0..150),
            divisor in prop::collection::vec((0u32..12, 0u32..40), 1..40),
            sparse in 0u32..2,
            chunk_rows in 1usize..40,
        ) {
            let a_value = |a: u32| Value::Int(if sparse == 1 { i64::from(a) << 24 } else { i64::from(a) });
            let set = |pairs: Vec<(u32, u32)>| pairs.into_iter().collect::<BTreeSet<_>>();
            let int = |v: u32| Value::Int(i64::from(v));
            let dividend_rows: Vec<Vec<Value>> =
                set(dividend).into_iter().map(|(a, b)| vec![a_value(a), int(b)]).collect();
            let divisor_rows: Vec<Vec<Value>> =
                set(divisor).into_iter().map(|(b, c)| vec![int(b), int(c)]).collect();
            let divisor = batch_of(&["b", "c"], &divisor_rows);
            let whole = batch_of(&["a", "b"], &dividend_rows);
            let [mut chosen, mut hashed] = [FormRule::Memory, FormRule::Hashed]
                .map(|rule| StreamingGreatDivide::with_rule(whole.schema(), divisor.clone(), rule).unwrap());
            for chunk in chunks_of(&whole, chunk_rows) {
                prop_assert_eq!(chosen.consume(&chunk), hashed.consume(&chunk));
                prop_assert!(
                    chosen.heap_bytes() <= hashed.heap_bytes(),
                    "the chosen state holds {} bytes, the hashed {}",
                    chosen.heap_bytes(),
                    hashed.heap_bytes()
                );
            }
            let reference = whole
                .to_relation()
                .unwrap()
                .great_divide(&divisor.to_relation().unwrap())
                .unwrap();
            prop_assert_eq!(chosen.finish().to_relation().unwrap(), reference.clone());
            prop_assert_eq!(hashed.finish().to_relation().unwrap(), reference);
        }
    }

    /// The rule's boundary on the two workloads it is for. A Q1-shaped
    /// division (`supplies ÷* parts` over four colours) keeps dense counters
    /// and a dense dividend-group map through every chunk. A mining-shaped
    /// one (few transactions, thousands of two-item candidates) meets a
    /// small share of its `(A, C)` cells, so its counters go hashed. Both
    /// give the reference quotient.
    #[test]
    fn q1_shapes_stay_dense_and_mining_shapes_go_hashed() {
        use div_datagen::suppliers_parts::{generate, SuppliersPartsConfig};
        let data = generate(&SuppliersPartsConfig {
            suppliers: 600,
            parts: 50,
            colors: 4,
            ..SuppliersPartsConfig::default()
        });
        let supplies = ColumnarBatch::from_relation(&data.supplies);
        let mut q1 =
            StreamingGreatDivide::new(supplies.schema(), ColumnarBatch::from_relation(&data.parts))
                .unwrap();
        for chunk in chunks_of(&supplies, 1024) {
            q1.consume(&chunk);
            assert!(q1.counters_dense() && q1.a_store.is_dense());
        }
        let expected = data.supplies.great_divide(&data.parts).unwrap();
        assert_eq!(q1.finish().to_relation().unwrap(), expected);

        let transactions = Relation::from_rows(
            ["tid", "item"],
            (0..300i64).flat_map(|tid| (0..4).map(move |k| [tid, (tid * 7 + k * 31) % 200])),
        )
        .unwrap();
        let candidates = Relation::from_rows(
            ["item", "itemset"],
            (0..4000i64).flat_map(|set| [[set % 200, set], [(set * 7 + 3) % 200, set]]),
        )
        .unwrap();
        let transactions_batch = ColumnarBatch::from_relation(&transactions);
        let mut mining = StreamingGreatDivide::new(
            transactions_batch.schema(),
            ColumnarBatch::from_relation(&candidates),
        )
        .unwrap();
        for chunk in chunks_of(&transactions_batch, 1024) {
            mining.consume(&chunk);
        }
        assert!(!mining.counters_dense());
        let expected = transactions.great_divide(&candidates).unwrap();
        assert!(!expected.is_empty());
        assert_eq!(mining.finish().to_relation().unwrap(), expected);
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
