//! Columnar batches: a schema plus typed column vectors.

use crate::column::Column;
use crate::hash_table::GroupIndex;
use crate::key_vector::{cross_matcher, KeyVector};
use crate::Result;
use div_algebra::{AlgebraError, Relation, Schema, Tuple, Value};
use std::ops::Range;

/// A batch of rows in columnar layout.
///
/// The columnar counterpart of [`Relation`]: the i-th column holds the values
/// of the i-th schema attribute for every row. Unlike `Relation`, a batch is
/// *ordered* and may transiently contain duplicate rows inside an operator
/// pipeline; operators that must produce set semantics (projection, union)
/// deduplicate explicitly, and [`ColumnarBatch::to_relation`] always yields a
/// canonical set.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnarBatch {
    /// Build a batch directly from parts. Panics when the column count does
    /// not match the schema arity or the columns disagree on length; callers
    /// inside this crate construct consistent parts by design.
    pub fn from_parts(schema: Schema, columns: Vec<Column>, rows: usize) -> Self {
        assert_eq!(
            schema.arity(),
            columns.len(),
            "schema/column arity mismatch"
        );
        for c in &columns {
            assert_eq!(c.len(), rows, "column length mismatch");
        }
        ColumnarBatch {
            schema,
            columns,
            rows,
        }
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = (0..schema.arity())
            .map(|_| Column::Int {
                values: Vec::new(),
                validity: None,
            })
            .collect();
        ColumnarBatch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Convert a relation to columnar layout (row order = the relation's
    /// deterministic sorted order). The conversion is lossless: see
    /// [`ColumnarBatch::to_relation`].
    pub fn from_relation(relation: &Relation) -> Self {
        let tuples: Vec<&Tuple> = relation.tuples().collect();
        ColumnarBatch::from_tuples(relation.schema().clone(), &tuples)
    }

    /// Convert `tuples` (each of the schema's arity) to columnar layout, in
    /// the given order; every column picks its representation from these
    /// rows alone ([`Column::from_values`]).
    pub(crate) fn from_tuples(schema: Schema, tuples: &[&Tuple]) -> Self {
        let columns = (0..schema.arity())
            .map(|c| Column::from_values(tuples.iter().map(|t| &t.values()[c])))
            .collect();
        ColumnarBatch {
            schema,
            columns,
            rows: tuples.len(),
        }
    }

    /// Convert back to a relation (deduplicating and sorting, per set
    /// semantics).
    pub fn to_relation(&self) -> Result<Relation> {
        let mut out = Relation::empty(self.schema.clone());
        for i in 0..self.rows {
            out.insert(self.row(i))?;
        }
        Ok(out)
    }

    /// The batch schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Decompose the batch into its parts (schema, columns, row count) —
    /// the inverse of [`ColumnarBatch::from_parts`], letting schema-only
    /// transformations (rename) rebuild a batch without copying column
    /// data.
    pub fn into_parts(self) -> (Schema, Vec<Column>, usize) {
        (self.schema, self.columns, self.rows)
    }

    /// The column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The value at `(row, column)`.
    pub fn value_at(&self, row: usize, column: usize) -> Value {
        self.columns[column].value(row)
    }

    /// Materialize row `row` as a [`Tuple`].
    pub fn row(&self, row: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(row)))
    }

    /// Positions of the named attributes in this batch's schema.
    pub fn projection_indices(&self, names: &[&str]) -> Result<Vec<usize>> {
        self.schema.projection_indices(names)
    }

    /// A new batch holding the rows selected by `indices`, in that order.
    pub fn gather(&self, indices: &[usize]) -> ColumnarBatch {
        ColumnarBatch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// A new batch holding the rows of `range`, in order: what
    /// [`ColumnarBatch::gather`] returns for the same consecutive indices,
    /// copied per column as one range.
    pub fn slice(&self, range: Range<usize>) -> ColumnarBatch {
        ColumnarBatch {
            schema: self.schema.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| c.slice(range.clone()))
                .collect(),
            rows: range.len(),
        }
    }

    /// A new batch keeping the rows whose mask entry is `true`.
    pub fn select_by_mask(&self, mask: &[bool]) -> ColumnarBatch {
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        self.gather(&indices)
    }

    /// A new batch with the given columns (by position), in the given order,
    /// under the given schema. Used by projection and join assembly.
    pub fn with_columns(&self, schema: Schema, column_indices: &[usize]) -> ColumnarBatch {
        ColumnarBatch {
            schema,
            columns: column_indices
                .iter()
                .map(|&i| self.columns[i].clone())
                .collect(),
            rows: self.rows,
        }
    }

    /// Deduplicate rows, keeping first occurrences in order (set semantics).
    /// Runs on the vectorized key pipeline: whole-row keys are normalized
    /// once ([`KeyVector`]) and interned into an open-addressing
    /// [`GroupIndex`] — no per-row key materialization.
    pub fn dedup(&self) -> ColumnarBatch {
        let all_columns: Vec<usize> = (0..self.columns.len()).collect();
        let keys = KeyVector::build(self, &all_columns);
        let same_row = cross_matcher(self, &all_columns, &keys, self, &all_columns, &keys);
        let mut seen = GroupIndex::with_capacity(self.rows);
        let mut keep: Vec<usize> = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let (_, is_new) = seen.intern(keys.code(i), i, |other| same_row(i, other));
            if is_new {
                keep.push(i);
            }
        }
        if keep.len() == self.rows {
            self.clone()
        } else {
            self.gather(&keep)
        }
    }

    /// Reorder columns so the schema attribute order matches `target`
    /// (which must be union-compatible), like
    /// [`Relation::conform_to`].
    pub fn conform_to(&self, target: &Schema) -> Result<ColumnarBatch> {
        if !self.schema.is_compatible_with(target) {
            return Err(AlgebraError::SchemaMismatch {
                left: self.schema.to_string(),
                right: target.to_string(),
                operation: "schema conformance",
            });
        }
        let names = target.names();
        let indices = self.schema.projection_indices(&names)?;
        Ok(self.with_columns(target.clone(), &indices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn sample() -> Relation {
        relation! {
            ["s#", "color"] =>
            [1, "blue"], [2, "red"], [3, "blue"],
        }
    }

    #[test]
    fn relation_roundtrip_is_lossless() {
        let rel = sample();
        let batch = ColumnarBatch::from_relation(&rel);
        assert_eq!(batch.num_rows(), 3);
        assert_eq!(batch.to_relation().unwrap(), rel);
    }

    #[test]
    fn roundtrip_preserves_nulls_and_sets() {
        let rel = Relation::new(
            Schema::of(["a", "b"]),
            [
                Tuple::new([Value::Int(1), Value::Null]),
                Tuple::new([Value::Int(2), Value::set([1, 2])]),
                Tuple::new([Value::Null, Value::str("x")]),
            ],
        )
        .unwrap();
        let batch = ColumnarBatch::from_relation(&rel);
        assert_eq!(batch.to_relation().unwrap(), rel);
    }

    #[test]
    fn dedup_keeps_first_occurrences() {
        let rel = sample();
        let batch = ColumnarBatch::from_relation(&rel);
        let doubled = batch.gather(&[0, 1, 0, 2, 1]);
        let deduped = doubled.dedup();
        assert_eq!(deduped.num_rows(), 3);
        assert_eq!(deduped.to_relation().unwrap(), rel);
    }

    #[test]
    fn slice_equals_gather_of_the_same_range_for_every_column_kind() {
        let rows = |nulls: bool| -> Vec<Vec<Value>> {
            (0..7i64)
                .map(|i| {
                    let null_here = nulls && i % 3 == 1;
                    let or_null = |v: Value| if null_here { Value::Null } else { v };
                    vec![
                        Value::Int(i),
                        or_null(Value::Int(i * 10)),
                        or_null(Value::Bool(i % 2 == 0)),
                        or_null(Value::str(["x", "y", "z"][i as usize % 3])),
                        // Int, string and set values in one attribute: `Mixed`.
                        match i % 3 {
                            0 => Value::Int(i),
                            1 => Value::str("m"),
                            _ => Value::set([i]),
                        },
                    ]
                })
                .collect()
        };
        for nulls in [false, true] {
            let rel = Relation::from_rows(["k", "i", "b", "s", "m"], rows(nulls)).unwrap();
            let batch = ColumnarBatch::from_relation(&rel);
            assert!(
                matches!(batch.column(1), Column::Int { validity, .. } if validity.is_some() == nulls)
            );
            assert!(
                matches!(batch.column(2), Column::Bool { validity, .. } if validity.is_some() == nulls)
            );
            assert!(matches!(batch.column(3), Column::Str(s) if s.validity.is_some() == nulls));
            assert!(matches!(batch.column(4), Column::Mixed(_)));
            let n = batch.num_rows();
            for start in 0..=n {
                for end in start..=n {
                    let indices: Vec<usize> = (start..end).collect();
                    assert_eq!(
                        batch.slice(start..end),
                        batch.gather(&indices),
                        "range {start}..{end}, nulls = {nulls}"
                    );
                }
            }
            assert_eq!(batch.slice(0..n), batch);
            assert_eq!(batch.slice(3..3).num_rows(), 0);
        }
    }

    #[test]
    fn conform_to_reorders_columns() {
        let rel = sample();
        let batch = ColumnarBatch::from_relation(&rel);
        let target = Schema::of(["color", "s#"]);
        let conformed = batch.conform_to(&target).unwrap();
        assert_eq!(conformed.schema().names(), vec!["color", "s#"]);
        assert_eq!(conformed.value_at(0, 1), Value::Int(1));
        assert!(batch.conform_to(&Schema::of(["a", "b"])).is_err());
    }

    #[test]
    fn empty_batch_roundtrips() {
        let rel = Relation::empty(Schema::of(["a", "b"]));
        let batch = ColumnarBatch::from_relation(&rel);
        assert_eq!(batch.num_rows(), 0);
        assert_eq!(batch.to_relation().unwrap(), rel);
        assert_eq!(ColumnarBatch::empty(Schema::of(["a", "b"])).num_rows(), 0);
    }
}
