//! Batch-native small divide (`÷`) on the vectorized key pipeline.
//!
//! The small divide is the great divide with no group attributes `C`
//! (Darwen & Date), so it has no kernel of its own: the counting
//! [`StreamingGreatDivide`](crate::kernels::StreamingGreatDivide) serves it
//! with the whole divisor as its one divisor group — Graefe & Cole's
//! counting division, one coverage counter per quotient group, and the
//! vacuous quotient of an empty divisor is every group. [`hash_divide`] is
//! that kernel fed the whole deduplicated dividend as its only chunk.

use crate::batch::ColumnarBatch;
use crate::kernels::great_divide::hash_great_divide;
use crate::kernels::join::KernelOutput;
use crate::Result;

/// Batch-native small divide `dividend ÷ divisor`: the small divide's
/// schema rule ([`Schema::divide_partition`](div_algebra::Schema::divide_partition)),
/// then [`hash_great_divide`], which deduplicates both inputs — counting is
/// not duplicate-safe.
pub fn hash_divide(dividend: &ColumnarBatch, divisor: &ColumnarBatch) -> Result<KernelOutput> {
    dividend.schema().divide_partition(divisor.schema())?;
    hash_great_divide(dividend, divisor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_rows::chunks_of;
    use crate::kernels::StreamingGreatDivide;
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
    fn hash_divide_ignores_duplicate_rows() {
        // Batches built through the public API may hold duplicate rows, and
        // the one-shot wrapper deduplicates them: a repeated (a, b) pair
        // must not count as covering a second divisor value. Group a=1
        // covers only b=1, so it must NOT qualify for the divisor {1, 2}.
        let dividend =
            ColumnarBatch::from_relation(&relation! { ["a", "b"] => [1, 1], [2, 1], [2, 2] });
        let doubled_dividend = dividend.gather(&[0, 0, 1, 2]);
        let divisor = ColumnarBatch::from_relation(&relation! { ["b"] => [1], [2] });
        let out = hash_divide(&doubled_dividend, &divisor).unwrap();
        assert_eq!(out.batch.to_relation().unwrap(), relation! { ["a"] => [2] });

        // Symmetrically, a repeated divisor value must not inflate the
        // divisor's size and suppress genuine quotient rows.
        let doubled_divisor = divisor.gather(&[0, 0, 1]);
        let out = hash_divide(&dividend, &doubled_divisor).unwrap();
        assert_eq!(out.batch.to_relation().unwrap(), relation! { ["a"] => [2] });
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

    #[test]
    fn streaming_divide_matches_the_one_shot_kernel() {
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
                relation! { ["b"] => [1], [3] },
                9,
            ),
            (
                relation! { ["who", "what"] => ["ann", "x"], ["ann", "y"], ["bob", "x"] },
                relation! { ["what"] => ["x"], ["y"] },
                3,
            ),
            // Empty divisor: quotient = all dividend groups.
            (
                relation! { ["a", "b"] => [1, 1], [2, 2] },
                Relation::empty(div_algebra::Schema::of(["b"])),
                0,
            ),
        ];
        for (dividend, divisor, probes) in cases {
            // The one-shot kernel is the streaming one fed a single chunk,
            // so both are held against the reference, not each other.
            let expected = dividend.divide(&divisor).unwrap();
            let dividend = ColumnarBatch::from_relation(&dividend);
            let divisor = ColumnarBatch::from_relation(&divisor);
            let whole = hash_divide(&dividend, &divisor).unwrap();
            assert_eq!(whole.batch.to_relation().unwrap(), expected);
            assert_eq!(whole.probes, probes);
            for chunk_size in [1, 2, 100] {
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
