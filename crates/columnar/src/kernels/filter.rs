//! Vectorized predicate evaluation.
//!
//! Comparisons are evaluated column-at-a-time: integer comparisons run as a
//! tight loop over the `i64` slice, and string comparisons against a constant
//! are evaluated **once per dictionary entry** and then broadcast through the
//! code vector — the classic dictionary-encoding win. Anything the fast paths
//! cannot prove well-typed falls back to the row-at-a-time reference
//! evaluator ([`div_algebra::Predicate::eval`]) for the whole batch, so error
//! semantics (including `And`/`Or` short-circuiting) match the reference
//! exactly.

use crate::batch::ColumnarBatch;
use crate::column::Column;
use crate::Result;
use div_algebra::{CompareOp, Predicate, Value};

/// Filter `batch` by `predicate`.
pub fn filter(batch: &ColumnarBatch, predicate: &Predicate) -> Result<ColumnarBatch> {
    match eval_mask(batch, predicate) {
        Ok(mask) => Ok(batch.select_by_mask(&mask)),
        // The vectorized path evaluates sub-expressions eagerly; an error may
        // be a false positive that row-at-a-time short-circuiting would never
        // reach. Re-run with reference semantics to decide.
        Err(_) => filter_row_fallback(batch, predicate),
    }
}

fn filter_row_fallback(batch: &ColumnarBatch, predicate: &Predicate) -> Result<ColumnarBatch> {
    let schema = batch.schema();
    let mut mask = Vec::with_capacity(batch.num_rows());
    for i in 0..batch.num_rows() {
        mask.push(predicate.eval(schema, &batch.row(i))?);
    }
    Ok(batch.select_by_mask(&mask))
}

/// Evaluate `predicate` to a row mask.
pub fn eval_mask(batch: &ColumnarBatch, predicate: &Predicate) -> Result<Vec<bool>> {
    let rows = batch.num_rows();
    match predicate {
        Predicate::True => Ok(vec![true; rows]),
        Predicate::False => Ok(vec![false; rows]),
        Predicate::CompareValue {
            attribute,
            op,
            value,
        } => {
            let idx = batch.schema().require(attribute)?;
            compare_column_value(batch.column(idx), *op, value)
        }
        Predicate::CompareAttributes { left, op, right } => {
            let li = batch.schema().require(left)?;
            let ri = batch.schema().require(right)?;
            compare_columns(batch.column(li), batch.column(ri), *op)
        }
        // Parameter placeholders must be bound before execution; report the
        // same error as the row-at-a-time evaluator.
        Predicate::CompareParameter { parameter, .. } => {
            Err(div_algebra::AlgebraError::UnboundParameter {
                parameter: parameter.clone(),
            })
        }
        Predicate::And(l, r) => {
            let mut mask = eval_mask(batch, l)?;
            let rmask = eval_mask(batch, r)?;
            for (m, r) in mask.iter_mut().zip(rmask) {
                *m = *m && r;
            }
            Ok(mask)
        }
        Predicate::Or(l, r) => {
            let mut mask = eval_mask(batch, l)?;
            let rmask = eval_mask(batch, r)?;
            for (m, r) in mask.iter_mut().zip(rmask) {
                *m = *m || r;
            }
            Ok(mask)
        }
        Predicate::Not(inner) => {
            let mut mask = eval_mask(batch, inner)?;
            for m in mask.iter_mut() {
                *m = !*m;
            }
            Ok(mask)
        }
    }
}

fn apply_op<T: PartialOrd + PartialEq>(op: CompareOp, l: &T, r: &T) -> bool {
    match op {
        CompareOp::Eq => l == r,
        CompareOp::NotEq => l != r,
        CompareOp::Lt => l < r,
        CompareOp::LtEq => l <= r,
        CompareOp::Gt => l > r,
        CompareOp::GtEq => l >= r,
    }
}

fn compare_column_value(column: &Column, op: CompareOp, constant: &Value) -> Result<Vec<bool>> {
    match (column, constant) {
        (
            Column::Int {
                values,
                validity: None,
            },
            Value::Int(c),
        ) => Ok(values.iter().map(|v| apply_op(op, v, c)).collect()),
        (
            Column::Bool {
                values,
                validity: None,
            },
            Value::Bool(c),
        ) => Ok(values.iter().map(|v| apply_op(op, v, c)).collect()),
        (Column::Str(s), Value::Str(c)) if s.validity.is_none() => {
            // Evaluate once per distinct string, broadcast through the codes.
            let by_code: Vec<bool> = s
                .dict
                .iter()
                .map(|entry| apply_op(op, &&**entry, &&**c))
                .collect();
            Ok(s.codes.iter().map(|&code| by_code[code as usize]).collect())
        }
        _ => {
            // Generic path: per-row reference comparison (reports the same
            // type errors as the reference).
            (0..column.len())
                .map(|i| op.eval(&column.value(i), constant))
                .collect()
        }
    }
}

fn compare_columns(left: &Column, right: &Column, op: CompareOp) -> Result<Vec<bool>> {
    match (left, right) {
        (
            Column::Int {
                values: lv,
                validity: None,
            },
            Column::Int {
                values: rv,
                validity: None,
            },
        ) => Ok(lv.iter().zip(rv).map(|(l, r)| apply_op(op, l, r)).collect()),
        _ => (0..left.len())
            .map(|i| op.eval(&left.value(i), &right.value(i)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn parts() -> ColumnarBatch {
        ColumnarBatch::from_relation(&relation! {
            ["p#", "color"] =>
            [1, "blue"], [2, "blue"], [3, "red"], [4, "green"],
        })
    }

    #[test]
    fn int_and_string_filters_match_reference() {
        let batch = parts();
        let rel = batch.to_relation().unwrap();
        for pred in [
            Predicate::eq_value("color", "blue"),
            Predicate::cmp_value("p#", CompareOp::GtEq, 3),
            Predicate::eq_value("color", "blue").or(Predicate::cmp_value("p#", CompareOp::Gt, 3)),
            Predicate::eq_value("color", "red").negate(),
            Predicate::True,
            Predicate::False,
        ] {
            let expected = rel.select(&pred).unwrap();
            let got = filter(&batch, &pred).unwrap().to_relation().unwrap();
            assert_eq!(got, expected, "predicate {pred}");
        }
    }

    #[test]
    fn type_errors_match_reference() {
        let batch = parts();
        let rel = batch.to_relation().unwrap();
        let bad = Predicate::eq_value("p#", "blue");
        assert_eq!(filter(&batch, &bad).is_err(), rel.select(&bad).is_err());
        // Short-circuit case the eager vectorized path must not break: the
        // left conjunct is always false, so the ill-typed right conjunct is
        // never evaluated row-at-a-time.
        let guarded = Predicate::False.and(Predicate::eq_value("p#", "blue"));
        let expected = rel.select(&guarded).unwrap();
        assert_eq!(
            filter(&batch, &guarded).unwrap().to_relation().unwrap(),
            expected
        );
    }

    #[test]
    fn unknown_attribute_errors() {
        let batch = parts();
        assert!(filter(&batch, &Predicate::eq_value("nope", 1)).is_err());
    }
}
