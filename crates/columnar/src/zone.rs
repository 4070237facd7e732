//! Zone maps: per-column min/max statistics of one chunk of rows, and the
//! conservative test that lets a scan skip a whole chunk under a
//! pushed-down filter.
//!
//! There is one implementation and two chunk sources: the resident
//! [`TableSegments`](crate::TableSegments) of an in-memory table compute
//! their zones when the segments are built, and a `.divcol` file carries
//! the zones its writer computed in its footer (`div-storage` owns only the
//! byte encoding). Both scans ask [`chunk_may_match`] the same question.

use crate::column::Column;
use div_algebra::{CompareOp, Predicate, Schema, Value};

/// Per-column min/max statistics for one chunk, used to skip whole chunks
/// under a pushed-down filter.
///
/// `null_count` matters for correctness, not just selectivity: the
/// algebra's comparisons *error* on NULL operands (no three-valued logic),
/// so a chunk containing NULLs in the filtered column is never skipped —
/// skipping it would suppress the type error the unskipped path raises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnZone {
    /// No statistics (mixed/bool/empty/all-null columns): never skip.
    None,
    /// Integer min/max over the valid rows.
    Int {
        /// Smallest valid value in the chunk.
        min: i64,
        /// Largest valid value in the chunk.
        max: i64,
        /// Number of NULL rows in the chunk.
        null_count: u64,
    },
    /// Lexicographic string min/max over the valid rows.
    Str {
        /// Smallest valid value in the chunk.
        min: Box<str>,
        /// Largest valid value in the chunk.
        max: Box<str>,
        /// Number of NULL rows in the chunk.
        null_count: u64,
    },
}

/// Compute the zone map of one column.
pub fn column_zone(column: &Column) -> ColumnZone {
    match column {
        Column::Int { values, validity } => {
            let mut min = i64::MAX;
            let mut max = i64::MIN;
            let mut null_count = 0u64;
            let mut seen = false;
            for (i, &v) in values.iter().enumerate() {
                if validity.as_ref().is_some_and(|mask| !mask[i]) {
                    null_count += 1;
                } else {
                    min = min.min(v);
                    max = max.max(v);
                    seen = true;
                }
            }
            if seen {
                ColumnZone::Int {
                    min,
                    max,
                    null_count,
                }
            } else {
                ColumnZone::None
            }
        }
        Column::Str(col) => {
            let mut min: Option<&str> = None;
            let mut max: Option<&str> = None;
            let mut null_count = 0u64;
            for i in 0..col.codes.len() {
                match col.get(i) {
                    None => null_count += 1,
                    Some(s) => {
                        min = Some(min.map_or(s, |m| m.min(s)));
                        max = Some(max.map_or(s, |m| m.max(s)));
                    }
                }
            }
            match (min, max) {
                (Some(min), Some(max)) => ColumnZone::Str {
                    min: min.into(),
                    max: max.into(),
                    null_count,
                },
                _ => ColumnZone::None,
            }
        }
        Column::Bool { .. } | Column::Mixed(_) => ColumnZone::None,
    }
}

/// Conservative chunk-level predicate test: `false` means *no row of the
/// chunk can satisfy the predicate* (the chunk may be skipped); `true`
/// means the chunk must be read. Unknown shapes, kind mismatches and
/// chunks with NULLs in the compared column all answer `true`.
pub fn chunk_may_match(predicate: &Predicate, schema: &Schema, zones: &[ColumnZone]) -> bool {
    match predicate {
        Predicate::True => true,
        Predicate::False => false,
        Predicate::And(a, b) => {
            chunk_may_match(a, schema, zones) && chunk_may_match(b, schema, zones)
        }
        Predicate::Or(a, b) => {
            chunk_may_match(a, schema, zones) || chunk_may_match(b, schema, zones)
        }
        Predicate::CompareValue {
            attribute,
            op,
            value,
        } => {
            let Some(idx) = schema.index_of(attribute) else {
                return true;
            };
            match (zones.get(idx), value) {
                (
                    Some(ColumnZone::Int {
                        min,
                        max,
                        null_count: 0,
                    }),
                    Value::Int(v),
                ) => range_may_match(*op, min, max, v),
                (
                    Some(ColumnZone::Str {
                        min,
                        max,
                        null_count: 0,
                    }),
                    Value::Str(v),
                ) => range_may_match(*op, &min.as_ref(), &max.as_ref(), &v.as_ref()),
                _ => true,
            }
        }
        // Negations, attribute-attribute and parameter comparisons: no
        // pruning (parameters are bound before compile, but stay safe).
        _ => true,
    }
}

/// Can any value in `[min, max]` satisfy `value-op` against `v`?
fn range_may_match<T: PartialOrd + PartialEq>(op: CompareOp, min: &T, max: &T, v: &T) -> bool {
    match op {
        CompareOp::Eq => min <= v && v <= max,
        CompareOp::NotEq => !(min == max && min == v),
        CompareOp::Lt => min < v,
        CompareOp::LtEq => min <= v,
        CompareOp::Gt => max > v,
        CompareOp::GtEq => max >= v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnarBatch;
    use div_algebra::relation;

    #[test]
    fn zones_capture_min_max_and_nulls() {
        let batch = ColumnarBatch::from_relation(&relation! {
            ["a", "s"] => [3, "m"], [9, "z"], [5, "a"]
        });
        assert_eq!(
            column_zone(batch.column(0)),
            ColumnZone::Int {
                min: 3,
                max: 9,
                null_count: 0
            }
        );
        assert_eq!(
            column_zone(batch.column(1)),
            ColumnZone::Str {
                min: "a".into(),
                max: "z".into(),
                null_count: 0
            }
        );
    }

    #[test]
    fn pruning_is_conservative_and_correct() {
        let schema = Schema::of(["a", "s"]);
        let zones = vec![
            ColumnZone::Int {
                min: 10,
                max: 20,
                null_count: 0,
            },
            ColumnZone::Str {
                min: "b".into(),
                max: "f".into(),
                null_count: 0,
            },
        ];
        let p = |pred: Predicate| chunk_may_match(&pred, &schema, &zones);
        assert!(!p(Predicate::eq_value("a", 5)));
        assert!(p(Predicate::eq_value("a", 15)));
        assert!(!p(Predicate::cmp_value("a", CompareOp::Lt, 10)));
        assert!(p(Predicate::cmp_value("a", CompareOp::LtEq, 10)));
        assert!(!p(Predicate::cmp_value("a", CompareOp::Gt, 20)));
        assert!(!p(Predicate::eq_value("s", "z")));
        assert!(p(Predicate::eq_value("s", "c")));
        // And / Or combine conservatively.
        assert!(!p(
            Predicate::eq_value("a", 15).and(Predicate::eq_value("s", "z"))
        ));
        assert!(p(
            Predicate::eq_value("a", 5).or(Predicate::eq_value("s", "c"))
        ));
        // Kind mismatch and unknown attributes never prune.
        assert!(p(Predicate::eq_value("a", "oops")));
        assert!(p(Predicate::eq_value("missing", 1)));
        // NULLs in the column disable pruning (comparisons error on NULL).
        let nullable = vec![
            ColumnZone::Int {
                min: 10,
                max: 20,
                null_count: 1,
            },
            ColumnZone::None,
        ];
        assert!(chunk_may_match(
            &Predicate::eq_value("a", 5),
            &schema,
            &nullable
        ));
    }
}
