//! Typed column vectors with validity masks and dictionary-encoded strings.

use div_algebra::Value;
use std::collections::HashMap;
use std::ops::Range;

/// A single column of a [`ColumnarBatch`](crate::ColumnarBatch).
///
/// The variants are chosen for the data the paper's workloads produce: almost
/// every attribute is a small integer (`s#`, `p#`, `a`, `b`, `tid`, `item`) or
/// a low-cardinality string (`color`), so the hot representations are a plain
/// `Vec<i64>` and a dictionary of distinct strings with a `Vec<u32>` of codes.
/// `NULL`s (produced only by the left outer join) are tracked in an optional
/// validity mask so the common all-valid case costs nothing. Columns that mix
/// value kinds or hold set-valued attributes fall back to [`Column::Mixed`],
/// which keeps the conversion from [`div_algebra::Relation`] lossless for
/// every relation the algebra can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers; `validity[i] == false` marks a NULL at row `i`.
    Int {
        /// Row values (`0` at invalid positions).
        values: Vec<i64>,
        /// Per-row validity; `None` means every row is valid.
        validity: Option<Vec<bool>>,
    },
    /// Booleans; `validity[i] == false` marks a NULL at row `i`.
    Bool {
        /// Row values (`false` at invalid positions).
        values: Vec<bool>,
        /// Per-row validity; `None` means every row is valid.
        validity: Option<Vec<bool>>,
    },
    /// Dictionary-encoded strings.
    Str(StrColumn),
    /// Fallback for heterogeneous or set-valued columns: the values verbatim.
    Mixed(Vec<Value>),
}

/// A dictionary-encoded string column: every distinct string is stored once
/// in `dict` (first-occurrence order) and rows hold `u32` codes into it.
#[derive(Debug, Clone, PartialEq)]
pub struct StrColumn {
    /// Distinct strings in first-occurrence order.
    pub dict: Vec<Box<str>>,
    /// Per-row dictionary codes (`0` at invalid positions).
    pub codes: Vec<u32>,
    /// Per-row validity; `None` means every row is valid.
    pub validity: Option<Vec<bool>>,
}

impl StrColumn {
    /// The string at row `i`, or `None` when the row is NULL.
    pub fn get(&self, i: usize) -> Option<&str> {
        match &self.validity {
            Some(v) if !v[i] => None,
            _ => Some(&self.dict[self.codes[i] as usize]),
        }
    }
}

fn gather_validity(validity: &Option<Vec<bool>>, indices: &[usize]) -> Option<Vec<bool>> {
    validity
        .as_ref()
        .map(|v| indices.iter().map(|&i| v[i]).collect())
}

impl Column {
    /// Build the best-fitting representation for a sequence of values.
    ///
    /// Picks `Int`/`Bool`/`Str` (with a validity mask when NULLs occur) when
    /// the column is homogeneous, and falls back to [`Column::Mixed`]
    /// otherwise, so `Relation -> ColumnarBatch -> Relation` is lossless.
    pub fn from_values<'a, I>(values: I) -> Column
    where
        I: IntoIterator<Item = &'a Value> + Clone,
    {
        let (mut ints, mut bools, mut strs, mut nulls, mut others, mut len) = (0, 0, 0, 0, 0, 0);
        for v in values.clone() {
            len += 1;
            match v {
                Value::Int(_) => ints += 1,
                Value::Bool(_) => bools += 1,
                Value::Str(_) => strs += 1,
                Value::Null => nulls += 1,
                Value::Set(_) => others += 1,
            }
        }
        let validity_for = |valid_flags: Vec<bool>| -> Option<Vec<bool>> {
            if nulls > 0 {
                Some(valid_flags)
            } else {
                None
            }
        };
        if others == 0 && ints + nulls == len {
            let mut out = Vec::with_capacity(len);
            let mut valid = Vec::with_capacity(len);
            for v in values {
                match v {
                    Value::Int(i) => {
                        out.push(*i);
                        valid.push(true);
                    }
                    _ => {
                        out.push(0);
                        valid.push(false);
                    }
                }
            }
            Column::Int {
                values: out,
                validity: validity_for(valid),
            }
        } else if others == 0 && bools + nulls == len {
            let mut out = Vec::with_capacity(len);
            let mut valid = Vec::with_capacity(len);
            for v in values {
                match v {
                    Value::Bool(b) => {
                        out.push(*b);
                        valid.push(true);
                    }
                    _ => {
                        out.push(false);
                        valid.push(false);
                    }
                }
            }
            Column::Bool {
                values: out,
                validity: validity_for(valid),
            }
        } else if others == 0 && strs + nulls == len {
            let mut dict: Vec<Box<str>> = Vec::new();
            let mut lookup: HashMap<Box<str>, u32> = HashMap::new();
            let mut codes = Vec::with_capacity(len);
            let mut valid = Vec::with_capacity(len);
            for v in values {
                match v {
                    Value::Str(s) => {
                        let code = *lookup.entry(s.clone()).or_insert_with(|| {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        });
                        codes.push(code);
                        valid.push(true);
                    }
                    _ => {
                        codes.push(0);
                        valid.push(false);
                    }
                }
            }
            Column::Str(StrColumn {
                dict,
                codes,
                validity: validity_for(valid),
            })
        } else {
            Column::Mixed(values.into_iter().cloned().collect())
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Str(s) => s.codes.len(),
            Column::Mixed(values) => values.len(),
        }
    }

    /// `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int { validity, .. } | Column::Bool { validity, .. } => {
                matches!(validity, Some(v) if !v[i])
            }
            Column::Str(s) => matches!(&s.validity, Some(v) if !v[i]),
            Column::Mixed(values) => values[i] == Value::Null,
        }
    }

    /// `true` when no row of the column is NULL.
    pub fn all_valid(&self) -> bool {
        match self {
            Column::Int { validity, .. } | Column::Bool { validity, .. } => validity.is_none(),
            Column::Str(s) => s.validity.is_none(),
            Column::Mixed(values) => values.iter().all(|v| *v != Value::Null),
        }
    }

    /// The row `i` value as an owned [`Value`] (NULL rows yield
    /// [`Value::Null`]).
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int { values, validity } => match validity {
                Some(v) if !v[i] => Value::Null,
                _ => Value::Int(values[i]),
            },
            Column::Bool { values, validity } => match validity {
                Some(v) if !v[i] => Value::Null,
                _ => Value::Bool(values[i]),
            },
            Column::Str(s) => match s.get(i) {
                Some(string) => Value::str(string),
                None => Value::Null,
            },
            Column::Mixed(values) => values[i].clone(),
        }
    }

    /// The raw `i64` data and validity, when this is an integer column.
    pub fn as_int_slice(&self) -> Option<(&[i64], Option<&[bool]>)> {
        match self {
            Column::Int { values, validity } => Some((values, validity.as_deref())),
            _ => None,
        }
    }

    /// The dictionary view, when this is a string column.
    pub fn as_str_column(&self) -> Option<&StrColumn> {
        match self {
            Column::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A new column holding `indices`-selected rows (in the given order).
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int { values, validity } => Column::Int {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity: gather_validity(validity, indices),
            },
            Column::Bool { values, validity } => Column::Bool {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity: gather_validity(validity, indices),
            },
            Column::Str(s) => Column::Str(StrColumn {
                dict: s.dict.clone(),
                codes: indices.iter().map(|&i| s.codes[i]).collect(),
                validity: gather_validity(&s.validity, indices),
            }),
            Column::Mixed(values) => {
                Column::Mixed(indices.iter().map(|&i| values[i].clone()).collect())
            }
        }
    }

    /// A new column holding the rows of `range`, in order — the contiguous
    /// special case of [`Column::gather`] (same result, no index vector). A
    /// string column keeps its whole dictionary.
    pub fn slice(&self, range: Range<usize>) -> Column {
        let slice_validity =
            |validity: &Option<Vec<bool>>| validity.as_ref().map(|v| v[range.clone()].to_vec());
        match self {
            Column::Int { values, validity } => Column::Int {
                values: values[range.clone()].to_vec(),
                validity: slice_validity(validity),
            },
            Column::Bool { values, validity } => Column::Bool {
                values: values[range.clone()].to_vec(),
                validity: slice_validity(validity),
            },
            Column::Str(s) => Column::Str(StrColumn {
                dict: s.dict.clone(),
                codes: s.codes[range.clone()].to_vec(),
                validity: slice_validity(&s.validity),
            }),
            Column::Mixed(values) => Column::Mixed(values[range].to_vec()),
        }
    }

    /// Concatenate two columns, unifying representations.
    ///
    /// Same-typed columns merge natively (string dictionaries are remapped);
    /// mismatched types degrade to [`Column::Mixed`], never losing values.
    /// The result is a fresh column, so folding `concat` over many chunks
    /// re-copies the accumulated rows every step; to glue many chunks use
    /// [`concat_batches`](crate::partition::concat_batches), which appends
    /// in place.
    pub fn concat(&self, other: &Column) -> Column {
        let mut acc = ColumnAppender::new(self.clone());
        acc.append(other);
        acc.finish()
    }
}

/// Appends columns to one growing column in place, with the semantics of a
/// left fold of [`Column::concat`] at a cost linear in the rows appended.
///
/// `Int`/`Bool` columns extend their value vector (a validity mask appears
/// the first time either side has one); `Str` columns extend the dictionary
/// in first-occurrence order through one lookup map that lives as long as
/// the appender, so no chunk re-hashes the dictionary accumulated so far;
/// the first kind mismatch turns the accumulator into [`Column::Mixed`],
/// which it then stays.
#[derive(Debug)]
pub(crate) struct ColumnAppender {
    column: Column,
    /// Dictionary entry → code of the accumulated `Str` column; built on
    /// the first string append.
    lookup: Option<HashMap<Box<str>, u32>>,
}

/// Extend `acc` (the mask of `acc_len` accumulated rows) with the mask of
/// `other_len` further rows, materializing all-valid masks only when one
/// side has NULLs.
fn append_validity(
    acc: &mut Option<Vec<bool>>,
    acc_len: usize,
    other: &Option<Vec<bool>>,
    other_len: usize,
) {
    if acc.is_none() && other.is_none() {
        return;
    }
    let mask = acc.get_or_insert_with(|| vec![true; acc_len]);
    match other {
        Some(other) => mask.extend_from_slice(other),
        None => mask.resize(acc_len + other_len, true),
    }
}

/// Dictionary entry → code, for an accumulated `Str` column's dictionary.
fn dict_lookup(dict: &[Box<str>]) -> HashMap<Box<str>, u32> {
    dict.iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), i as u32))
        .collect()
}

impl ColumnAppender {
    /// Start from `first` (taken as is: appending nothing returns it
    /// unchanged).
    pub(crate) fn new(first: Column) -> ColumnAppender {
        ColumnAppender {
            column: first,
            lookup: None,
        }
    }

    /// Reserve room for `additional` more rows.
    pub(crate) fn reserve(&mut self, additional: usize) {
        match &mut self.column {
            Column::Int { values, .. } => values.reserve(additional),
            Column::Bool { values, .. } => values.reserve(additional),
            Column::Str(s) => s.codes.reserve(additional),
            Column::Mixed(values) => values.reserve(additional),
        }
    }

    /// Append the rows of `other`.
    pub(crate) fn append(&mut self, other: &Column) {
        match (&mut self.column, other) {
            (
                Column::Int { values, validity },
                Column::Int {
                    values: other_values,
                    validity: other_validity,
                },
            ) => {
                append_validity(validity, values.len(), other_validity, other_values.len());
                values.extend_from_slice(other_values);
            }
            (
                Column::Bool { values, validity },
                Column::Bool {
                    values: other_values,
                    validity: other_validity,
                },
            ) => {
                append_validity(validity, values.len(), other_validity, other_values.len());
                values.extend_from_slice(other_values);
            }
            (Column::Str(acc), Column::Str(other)) => {
                let lookup = self.lookup.get_or_insert_with(|| dict_lookup(&acc.dict));
                let dict = &mut acc.dict;
                let remap: Vec<u32> = other
                    .dict
                    .iter()
                    .map(|s| match lookup.get(s) {
                        Some(&code) => code,
                        None => {
                            let code = dict.len() as u32;
                            dict.push(s.clone());
                            lookup.insert(s.clone(), code);
                            code
                        }
                    })
                    .collect();
                append_validity(
                    &mut acc.validity,
                    acc.codes.len(),
                    &other.validity,
                    other.codes.len(),
                );
                acc.codes
                    .extend(other.codes.iter().map(|&c| remap[c as usize]));
            }
            (Column::Mixed(values), other) => {
                values.extend((0..other.len()).map(|i| other.value(i)));
            }
            (acc, other) => {
                let mut values: Vec<Value> = (0..acc.len()).map(|i| acc.value(i)).collect();
                values.extend((0..other.len()).map(|i| other.value(i)));
                self.column = Column::Mixed(values);
                self.lookup = None;
            }
        }
    }

    /// Append rows `indices` of `other`, in the given order: the result of
    /// `append(&other.gather(indices))` without the intermediate column. A
    /// string column only takes over the dictionary entries the gathered
    /// rows use.
    pub(crate) fn append_gather(&mut self, other: &Column, indices: &[usize]) {
        match (&mut self.column, other) {
            (
                Column::Int { values, validity },
                Column::Int {
                    values: other_values,
                    validity: other_validity,
                },
            ) => {
                let gathered = gather_validity(other_validity, indices);
                append_validity(validity, values.len(), &gathered, indices.len());
                values.extend(indices.iter().map(|&i| other_values[i]));
            }
            (
                Column::Bool { values, validity },
                Column::Bool {
                    values: other_values,
                    validity: other_validity,
                },
            ) => {
                let gathered = gather_validity(other_validity, indices);
                append_validity(validity, values.len(), &gathered, indices.len());
                values.extend(indices.iter().map(|&i| other_values[i]));
            }
            (Column::Str(acc), Column::Str(other)) => {
                let lookup = self.lookup.get_or_insert_with(|| dict_lookup(&acc.dict));
                let gathered = gather_validity(&other.validity, indices);
                append_validity(&mut acc.validity, acc.codes.len(), &gathered, indices.len());
                const UNMAPPED: u32 = u32::MAX;
                let mut remap = vec![UNMAPPED; other.dict.len()];
                let dict = &mut acc.dict;
                acc.codes.extend(indices.iter().map(|&i| {
                    if matches!(&other.validity, Some(v) if !v[i]) {
                        return 0;
                    }
                    let code = other.codes[i] as usize;
                    if remap[code] == UNMAPPED {
                        let entry = &other.dict[code];
                        remap[code] = match lookup.get(entry) {
                            Some(&code) => code,
                            None => {
                                let code = dict.len() as u32;
                                dict.push(entry.clone());
                                lookup.insert(entry.clone(), code);
                                code
                            }
                        };
                    }
                    remap[code]
                }));
            }
            (Column::Mixed(values), other) => {
                values.extend(indices.iter().map(|&i| other.value(i)));
            }
            (acc, other) => {
                let mut values: Vec<Value> = (0..acc.len()).map(|i| acc.value(i)).collect();
                values.extend(indices.iter().map(|&i| other.value(i)));
                self.column = Column::Mixed(values);
                self.lookup = None;
            }
        }
    }

    /// The accumulated column.
    pub(crate) fn finish(self) -> Column {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_roundtrip_and_nulls() {
        let values = vec![Value::Int(3), Value::Null, Value::Int(-1)];
        let col = Column::from_values(values.iter());
        assert!(matches!(col, Column::Int { .. }));
        assert!(!col.all_valid());
        assert!(col.is_null(1));
        assert_eq!((0..3).map(|i| col.value(i)).collect::<Vec<_>>(), values);
    }

    #[test]
    fn string_column_builds_dictionary() {
        let values = vec![
            Value::str("blue"),
            Value::str("red"),
            Value::str("blue"),
            Value::str("blue"),
        ];
        let col = Column::from_values(values.iter());
        let s = col.as_str_column().unwrap();
        assert_eq!(s.dict.len(), 2);
        assert_eq!(s.codes, vec![0, 1, 0, 0]);
        assert_eq!((0..4).map(|i| col.value(i)).collect::<Vec<_>>(), values);
    }

    #[test]
    fn heterogeneous_column_falls_back_to_mixed() {
        let values = vec![Value::Int(1), Value::str("x"), Value::set([1, 2])];
        let col = Column::from_values(values.iter());
        assert!(matches!(col, Column::Mixed(_)));
        assert_eq!((0..3).map(|i| col.value(i)).collect::<Vec<_>>(), values);
    }

    #[test]
    fn gather_reorders_and_duplicates() {
        let values = [Value::Int(10), Value::Int(20), Value::Null];
        let col = Column::from_values(values.iter());
        let picked = col.gather(&[2, 0, 0]);
        assert_eq!(picked.value(0), Value::Null);
        assert_eq!(picked.value(1), Value::Int(10));
        assert_eq!(picked.value(2), Value::Int(10));
    }

    #[test]
    fn concat_merges_dictionaries() {
        let a = Column::from_values([Value::str("blue"), Value::str("red")].iter());
        let b = Column::from_values([Value::str("red"), Value::str("green")].iter());
        let c = a.concat(&b);
        let s = c.as_str_column().unwrap();
        assert_eq!(s.dict.len(), 3);
        assert_eq!(c.value(2), Value::str("red"));
        assert_eq!(c.value(3), Value::str("green"));
    }

    #[test]
    fn concat_mismatched_types_degrades_to_mixed() {
        let a = Column::from_values([Value::Int(1)].iter());
        let b = Column::from_values([Value::str("x")].iter());
        let c = a.concat(&b);
        assert!(matches!(c, Column::Mixed(_)));
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(1), Value::str("x"));
    }
}
