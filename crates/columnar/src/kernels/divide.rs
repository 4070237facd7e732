//! Batch-native small divide (`÷`) on the vectorized key pipeline.
//!
//! The algorithm is Graefe-style hash-division expressed over column slices:
//! the divisor's `B`-tuples get dense ids, every dividend group (keyed on the
//! quotient attributes `A`) keeps a bitmap of the divisor ids it has covered,
//! and groups whose bitmap fills up are emitted. One pass over the dividend,
//! no intermediate tuples beyond the per-group bitmaps — exactly the
//! intermediate-result profile the paper demands from a special-purpose
//! operator. There is one implementation, [`StreamingDivide`], which takes
//! the dividend chunk by chunk; [`hash_divide`] is that kernel fed the whole
//! dividend as its only chunk.
//!
//! Both key sides run on [`KeyVector`] codes consumed by open-addressing
//! tables: a plain non-NULL `i64` column normalizes to raw codes (the former
//! explicit "fast path", now just the cheapest [`KeyVector::build`] case),
//! strings hash once per dictionary entry, and NULL/composite keys fold
//! through the sentinel/combine rules — with inexact matches verified
//! against the source batches, so collisions in the `u64` code space cannot
//! corrupt the quotient.

use crate::batch::ColumnarBatch;
use crate::hash_table::{index_rows, GroupIndex};
use crate::kernels::join::KernelOutput;
use crate::key_vector::{cross_matcher, KeyVector};
use crate::stream::GroupStore;
use crate::Result;
use div_algebra::{AlgebraError, Schema};

/// The `A`/`B` attribute partition of a division over batch schemas,
/// mirroring [`div_algebra::Relation::division_attributes`].
pub(crate) struct DivideLayout {
    /// Indices of `A` in the dividend schema (dividend order).
    pub dividend_a: Vec<usize>,
    /// Indices of `B` in the dividend schema (divisor attribute order).
    pub dividend_b: Vec<usize>,
    /// Indices of `B` in the divisor schema (divisor attribute order).
    pub divisor_b: Vec<usize>,
    /// Quotient attribute names `A`.
    pub quotient: Vec<String>,
}

impl DivideLayout {
    pub(crate) fn resolve(dividend: &Schema, divisor: &Schema) -> Result<Self> {
        let shared: Vec<String> = divisor.names().iter().map(|s| s.to_string()).collect();
        if shared.is_empty() {
            return Err(AlgebraError::InvalidDivision {
                reason: "the divisor must have at least one attribute (B nonempty)".to_string(),
            });
        }
        for b in &shared {
            if !dividend.contains(b) {
                return Err(AlgebraError::InvalidDivision {
                    reason: format!(
                        "divisor attribute `{b}` does not occur in the dividend schema {dividend}"
                    ),
                });
            }
        }
        let quotient = dividend.difference_attributes(divisor);
        if quotient.is_empty() {
            return Err(AlgebraError::InvalidDivision {
                reason:
                    "the dividend must have at least one attribute not in the divisor (A nonempty)"
                        .to_string(),
            });
        }
        let shared_refs: Vec<&str> = shared.iter().map(String::as_str).collect();
        let quotient_refs: Vec<&str> = quotient.iter().map(String::as_str).collect();
        Ok(DivideLayout {
            dividend_a: dividend.projection_indices(&quotient_refs)?,
            dividend_b: dividend.projection_indices(&shared_refs)?,
            divisor_b: divisor.projection_indices(&shared_refs)?,
            quotient,
        })
    }
}

/// Per-group divisor-coverage bitmap.
#[derive(Debug)]
struct GroupState {
    bits: Vec<u64>,
    covered: u32,
}

impl GroupState {
    fn new(words: usize) -> Self {
        GroupState {
            bits: vec![0; words],
            covered: 0,
        }
    }

    fn set(&mut self, id: u32) {
        let word = (id / 64) as usize;
        let bit = 1u64 << (id % 64);
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.covered += 1;
        }
    }
}

/// Batch-native small divide `dividend ÷ divisor`: [`StreamingDivide`] fed
/// the whole dividend as one chunk.
pub fn hash_divide(dividend: &ColumnarBatch, divisor: &ColumnarBatch) -> Result<KernelOutput> {
    let mut state = StreamingDivide::new(dividend.schema(), divisor.clone())?;
    let probes = state.consume(dividend);
    Ok(KernelOutput {
        batch: state.finish(),
        probes,
    })
}

/// The quotient schema of `dividend ÷ divisor`, with the same validation
/// the kernel applies (`B` nonempty and contained in the dividend, `A`
/// nonempty) — lets a streaming executor infer and validate operator
/// schemas before any batch flows.
pub fn quotient_schema(dividend: &Schema, divisor: &Schema) -> Result<Schema> {
    let layout = DivideLayout::resolve(dividend, divisor)?;
    let quotient_refs: Vec<&str> = layout.quotient.iter().map(String::as_str).collect();
    dividend.project(&quotient_refs)
}

/// What a frozen consume ([`StreamingDivide::consume_frozen`],
/// [`StreamingGreatDivide::consume_frozen`](crate::kernels::StreamingGreatDivide::consume_frozen))
/// did with one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenConsume {
    /// Probes performed: one per row that was consumed (with the same
    /// empty-divisor exception as the unfrozen consume).
    pub probes: usize,
    /// The chunk rows that were *not* consumed — their quotient-attribute
    /// value belongs to no resident group — in chunk order.
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

/// Small divide with a prebuilt divisor and a *streamed* dividend — the
/// streaming-friendly entry point behind `div_physical::stream`.
///
/// The divisor's distinct `B`-tuples are id-indexed once at construction;
/// [`StreamingDivide::consume`] then folds dividend chunks into per-group
/// coverage bitmaps without ever concatenating the dividend. Retained state
/// is one representative row per quotient group plus one bitmap per group,
/// so a deep pipeline can feed the divide batch-at-a-time with memory
/// bounded by the group count, not the dividend size. The quotient itself is only known once the whole
/// dividend has been consumed: [`StreamingDivide::finish`] emits it, making
/// the operator's *output* (but not its input) a blocking boundary.
///
/// When even the group set is too much to keep, the state can be *frozen*:
/// [`StreamingDivide::consume_frozen`] keeps folding in the rows of the
/// groups it holds and hands the others back, so a caller can divide those
/// elsewhere — quotient partitioning with one partition resident.
#[derive(Debug)]
pub struct StreamingDivide {
    divisor: ColumnarBatch,
    dividend_b: Vec<usize>,
    divisor_b: Vec<usize>,
    divisor_b_keys: KeyVector,
    b_index: GroupIndex,
    divisor_len: usize,
    words: usize,
    a_store: GroupStore,
    states: Vec<GroupState>,
}

impl StreamingDivide {
    /// Prepare a divide of chunks carrying `dividend_schema` by the fully
    /// materialized `divisor`.
    pub fn new(dividend_schema: &Schema, divisor: ColumnarBatch) -> Result<StreamingDivide> {
        let layout = DivideLayout::resolve(dividend_schema, divisor.schema())?;
        let quotient_refs: Vec<&str> = layout.quotient.iter().map(String::as_str).collect();
        let key_schema = dividend_schema.project(&quotient_refs)?;
        let divisor_b_keys = KeyVector::build(&divisor, &layout.divisor_b);
        let b_index = index_rows(&divisor, &layout.divisor_b, &divisor_b_keys);
        let divisor_len = b_index.len();
        Ok(StreamingDivide {
            divisor,
            dividend_b: layout.dividend_b,
            divisor_b: layout.divisor_b,
            divisor_b_keys,
            b_index,
            divisor_len,
            words: divisor_len.div_ceil(64),
            a_store: GroupStore::new(key_schema, layout.dividend_a),
            states: Vec::new(),
        })
    }

    /// Fold one dividend chunk into the per-group coverage state. Returns
    /// the probes performed — one per chunk row, or zero for an empty
    /// divisor (every group qualifies, nothing is looked up).
    pub fn consume(&mut self, chunk: &ColumnarBatch) -> usize {
        let interned = self.a_store.intern_chunk(chunk);
        while self.states.len() < self.a_store.len() {
            self.states.push(GroupState::new(self.words));
        }
        self.cover(chunk, |row| Some(interned.gids[row]));
        self.probes_for(chunk.num_rows())
    }

    /// [`StreamingDivide::consume`] with the group set *frozen*: rows of
    /// groups seen before are folded in as usual, rows of unseen groups are
    /// left alone and reported back, and no group is added. This is the
    /// resident half of quotient partitioning (Law 2): every group this
    /// state holds stays complete as long as it is shown the whole dividend,
    /// while the leftover rows — key-disjoint from every resident group —
    /// can be divided elsewhere and the two quotients unioned.
    pub fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> FrozenConsume {
        let found = self.a_store.lookup_chunk(chunk);
        self.cover(chunk, |row| found[row]);
        let mut frozen = FrozenConsume::of(&found);
        frozen.probes = self.probes_for(frozen.probes);
        frozen
    }

    /// Set the divisor-coverage bit of every chunk row `gid_of` assigns to
    /// a group.
    fn cover(&mut self, chunk: &ColumnarBatch, gid_of: impl Fn(usize) -> Option<u32>) {
        if self.divisor_len == 0 {
            return;
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
        for row in 0..chunk.num_rows() {
            let Some(gid) = gid_of(row) else { continue };
            let b_id = self
                .b_index
                .get(b_keys.code(row), |other| same_b(row, other));
            if let Some(b_id) = b_id {
                self.states[gid as usize].set(b_id);
            }
        }
    }

    /// Probes charged for `rows` consumed rows: an empty divisor probes
    /// nothing.
    fn probes_for(&self, rows: usize) -> usize {
        if self.divisor_len == 0 {
            0
        } else {
            rows
        }
    }

    /// Number of quotient-attribute groups retained so far.
    pub fn groups(&self) -> usize {
        self.a_store.len()
    }

    /// Emit the quotient: the retained representatives of every group whose
    /// bitmap covers the whole divisor. With an empty divisor the
    /// containment test is vacuously true and every group qualifies,
    /// matching the reference semantics.
    pub fn finish(self) -> ColumnarBatch {
        let qualifying: Vec<usize> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, state)| state.covered as usize == self.divisor_len)
            .map(|(gid, _)| gid)
            .collect();
        let representatives = self.a_store.rows();
        if qualifying.len() == representatives.num_rows() {
            representatives
        } else {
            representatives.gather(&qualifying)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use div_algebra::{relation, Relation};

    fn check(dividend: &Relation, divisor: &Relation) {
        let expected = dividend.divide(divisor).unwrap();
        let out = hash_divide(
            &ColumnarBatch::from_relation(dividend),
            &ColumnarBatch::from_relation(divisor),
        )
        .unwrap();
        assert_eq!(out.batch.to_relation().unwrap(), expected);
    }

    #[test]
    fn figure1_quotient() {
        let dividend = relation! {
            ["a", "b"] =>
            [1, 1], [1, 4],
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
        };
        let divisor = relation! { ["b"] => [1], [3] };
        check(&dividend, &divisor);
    }

    #[test]
    fn empty_inputs_match_reference() {
        let dividend = relation! { ["a", "b"] => [1, 1], [2, 2] };
        let empty_divisor = Relation::empty(div_algebra::Schema::of(["b"]));
        check(&dividend, &empty_divisor);
        let empty_dividend = Relation::empty(div_algebra::Schema::of(["a", "b"]));
        check(&empty_dividend, &relation! { ["b"] => [1] });
    }

    #[test]
    fn string_attributes_use_the_hashed_code_path() {
        let dividend = relation! {
            ["who", "what"] =>
            ["ann", "x"], ["ann", "y"],
            ["bob", "x"],
        };
        let divisor = relation! { ["what"] => ["x"], ["y"] };
        check(&dividend, &divisor);
    }

    #[test]
    fn multi_attribute_divisor() {
        let dividend = relation! {
            ["a", "b1", "b2"] =>
            [1, 1, 1], [1, 2, 2],
            [2, 1, 1],
        };
        let divisor = relation! { ["b1", "b2"] => [1, 1], [2, 2] };
        check(&dividend, &divisor);
    }

    #[test]
    fn schema_violations_are_rejected() {
        let dividend = ColumnarBatch::from_relation(&relation! { ["a", "b"] => [1, 1] });
        let bad = ColumnarBatch::from_relation(&relation! { ["z"] => [1] });
        assert!(hash_divide(&dividend, &bad).is_err());
        let all_shared = ColumnarBatch::from_relation(&relation! { ["a", "b"] => [1, 1] });
        assert!(hash_divide(&dividend, &all_shared).is_err());
    }

    #[test]
    fn wide_divisor_exercises_multiword_bitmaps() {
        let mut dividend_rows = Vec::new();
        for g in 0..10i64 {
            for i in 0..100i64 {
                if g % 2 == 0 || i % 2 == 0 {
                    dividend_rows.push(vec![g, i]);
                }
            }
        }
        let dividend = Relation::from_rows(["a", "b"], dividend_rows).unwrap();
        let divisor = Relation::from_rows(["b"], (0..100i64).map(|i| vec![i])).unwrap();
        check(&dividend, &divisor);
    }

    /// The batch's rows cut into consecutive chunks of `chunk_size`.
    pub(crate) fn chunks_of(batch: &ColumnarBatch, chunk_size: usize) -> Vec<ColumnarBatch> {
        (0..batch.num_rows())
            .step_by(chunk_size)
            .map(|start| batch.slice(start..(start + chunk_size).min(batch.num_rows())))
            .collect()
    }

    #[test]
    fn streaming_divide_matches_the_one_shot_kernel() {
        let cases: Vec<(Relation, Relation)> = vec![
            (
                relation! {
                    ["a", "b"] =>
                    [1, 1], [1, 4],
                    [2, 1], [2, 2], [2, 3], [2, 4],
                    [3, 1], [3, 3], [3, 4],
                },
                relation! { ["b"] => [1], [3] },
            ),
            (
                relation! { ["who", "what"] => ["ann", "x"], ["ann", "y"], ["bob", "x"] },
                relation! { ["what"] => ["x"], ["y"] },
            ),
            // Empty divisor: quotient = all dividend groups.
            (
                relation! { ["a", "b"] => [1, 1], [2, 2] },
                Relation::empty(div_algebra::Schema::of(["b"])),
            ),
        ];
        for (dividend, divisor) in cases {
            // The one-shot kernel is the streaming one fed a single chunk,
            // so both are held against the reference, not each other.
            let expected = dividend.divide(&divisor).unwrap();
            let dividend = ColumnarBatch::from_relation(&dividend);
            let divisor = ColumnarBatch::from_relation(&divisor);
            let whole = hash_divide(&dividend, &divisor).unwrap();
            assert_eq!(whole.batch.to_relation().unwrap(), expected);
            for chunk_size in [1, 2, 100] {
                let mut streaming =
                    StreamingDivide::new(dividend.schema(), divisor.clone()).unwrap();
                let probes: usize = chunks_of(&dividend, chunk_size)
                    .iter()
                    .map(|chunk| streaming.consume(chunk))
                    .sum();
                assert_eq!(probes, whole.probes, "chunking changes no probe count");
                assert_eq!(
                    streaming.finish().to_relation().unwrap(),
                    expected,
                    "chunk size {chunk_size}"
                );
            }
        }
    }
}
