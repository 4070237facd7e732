//! Byte-level encoding of columns, chunks and zone maps.
//!
//! The on-disk layout mirrors the in-memory [`Column`] representation: the
//! hot paths are plain `i64` vectors and dictionary-coded strings, both of
//! which additionally get a run-length encoding the writer picks whenever
//! it is smaller (sorted or low-cardinality columns compress well under
//! RLE; random columns fall back to the plain form). The `Mixed` fallback
//! serializes values verbatim — including nested sets — so the format
//! round-trips every relation the algebra can produce, not just the
//! well-typed ones.
//!
//! All integers are little-endian. Decoding is bounds-checked everywhere
//! and returns [`StorageError::Corrupt`] instead of panicking. The CRCs
//! catch damage, not a crafted file whose CRCs were recomputed, so every
//! count read from the bytes is bounded by the bytes that must back it
//! (`ByteReader::backed`) before anything is allocated for it: a file
//! cannot make the reader reserve more than a small multiple of its own
//! size (run-length columns aside, which expand to the chunk's row count
//! only after their runs are checked to add up to it).

use crate::{Result, StorageError};
use div_algebra::{Schema, Value};
use div_columnar::{Column, ColumnZone, ColumnarBatch, StrColumn};

// ---------------------------------------------------------------------------
// Byte-level primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over a decoded byte slice.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8], context: &'a str) -> Self {
        ByteReader {
            buf,
            pos: 0,
            context,
        }
    }

    fn corrupt(&self, what: &str) -> StorageError {
        StorageError::Corrupt {
            context: format!("{}: truncated {what} at offset {}", self.context, self.pos),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| self.corrupt("bytes"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// `count` items of `width` bytes each, as one slice.
    fn take_items(&mut self, count: usize, width: usize) -> Result<&'a [u8]> {
        let n = count
            .checked_mul(width)
            .ok_or_else(|| self.corrupt("items"))?;
        self.take(n)
    }

    /// `count`, if the unread bytes can back `count` items of at least
    /// `min_bytes` each. A count read from a file is trusted only that far,
    /// and is checked before anything sized by it is allocated: a crafted
    /// count is then a typed error, not an allocation failure that aborts
    /// the process.
    pub(crate) fn backed(&self, count: usize, min_bytes: usize) -> Result<usize> {
        match count.checked_mul(min_bytes) {
            Some(n) if n <= self.buf.len() - self.pos => Ok(count),
            _ => Err(self.corrupt(&format!("count {count} ({min_bytes} B each)"))),
        }
    }

    /// A `u32` count of items that need at least `min_bytes` each.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let count = self.u32()? as usize;
        self.backed(count, min_bytes)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("utf-8 string"))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Column encoding
// ---------------------------------------------------------------------------

const COL_INT: u8 = 0;
const COL_BOOL: u8 = 1;
const COL_STR: u8 = 2;
const COL_MIXED: u8 = 3;

const ENC_PLAIN: u8 = 0;
const ENC_RLE: u8 = 1;

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_STR: u8 = 3;
const VAL_SET: u8 = 4;

fn put_validity(buf: &mut Vec<u8>, validity: &Option<Vec<bool>>) {
    match validity {
        None => put_u8(buf, 0),
        Some(mask) => {
            put_u8(buf, 1);
            buf.extend(mask.iter().map(|&b| b as u8));
        }
    }
}

fn read_validity(r: &mut ByteReader<'_>, rows: usize) -> Result<Option<Vec<bool>>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.take(rows)?.iter().map(|&b| b != 0).collect())),
        _ => Err(StorageError::Corrupt {
            context: "invalid validity flag".into(),
        }),
    }
}

/// Count the runs a run-length encoding would need.
fn run_count<T: PartialEq>(values: &[T]) -> usize {
    let mut runs = 0;
    let mut prev: Option<&T> = None;
    for v in values {
        if prev != Some(v) {
            runs += 1;
            prev = Some(v);
        }
    }
    runs
}

/// RLE-or-plain encode a `i64` slice: `u8` encoding tag, then either the
/// raw values or `(u32 run_len, i64 value)` pairs, whichever is smaller.
fn put_i64s(buf: &mut Vec<u8>, values: &[i64]) {
    let runs = run_count(values);
    if runs * 12 < values.len() * 8 {
        put_u8(buf, ENC_RLE);
        put_u32(buf, runs as u32);
        let mut i = 0;
        while i < values.len() {
            let mut j = i + 1;
            while j < values.len() && values[j] == values[i] {
                j += 1;
            }
            put_u32(buf, (j - i) as u32);
            put_i64(buf, values[i]);
            i = j;
        }
    } else {
        put_u8(buf, ENC_PLAIN);
        for &v in values {
            put_i64(buf, v);
        }
    }
}

/// Split a run-length encoding (`u32` run count, then `(u32 len, value)`
/// runs of `run_width` bytes) into its runs, after checking that the run
/// lengths add up to exactly `rows` — so the caller's `rows`-sized
/// allocation is what the runs fill, whatever the file claims.
fn read_runs<'a>(
    r: &mut ByteReader<'a>,
    rows: usize,
    run_width: usize,
    column: &str,
) -> Result<impl Iterator<Item = (usize, &'a [u8])>> {
    let runs = r.u32()? as usize;
    let runs = r
        .take_items(runs, run_width)?
        .chunks_exact(run_width)
        .map(|run| {
            let (len, value) = run.split_at(4);
            let len = u32::from_le_bytes(len.try_into().expect("a run starts with a u32"));
            (len as usize, value)
        });
    let total: u64 = runs.clone().map(|(len, _)| len as u64).sum();
    if total != rows as u64 {
        return Err(StorageError::Corrupt {
            context: format!("rle runs cover {total} of {rows} rows in {column} column"),
        });
    }
    Ok(runs)
}

fn read_i64s(r: &mut ByteReader<'_>, rows: usize) -> Result<Vec<i64>> {
    let value = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8-byte value"));
    match r.u8()? {
        ENC_PLAIN => Ok(r.take_items(rows, 8)?.chunks_exact(8).map(value).collect()),
        ENC_RLE => {
            let mut out = Vec::with_capacity(rows);
            for (len, v) in read_runs(r, rows, 12, "int")? {
                out.extend(std::iter::repeat_n(value(v), len));
            }
            Ok(out)
        }
        _ => Err(StorageError::Corrupt {
            context: "invalid int encoding tag".into(),
        }),
    }
}

/// RLE-or-plain encode a `u32` slice (dictionary codes).
fn put_u32s(buf: &mut Vec<u8>, values: &[u32]) {
    let runs = run_count(values);
    if runs * 8 < values.len() * 4 {
        put_u8(buf, ENC_RLE);
        put_u32(buf, runs as u32);
        let mut i = 0;
        while i < values.len() {
            let mut j = i + 1;
            while j < values.len() && values[j] == values[i] {
                j += 1;
            }
            put_u32(buf, (j - i) as u32);
            put_u32(buf, values[i]);
            i = j;
        }
    } else {
        put_u8(buf, ENC_PLAIN);
        for &v in values {
            put_u32(buf, v);
        }
    }
}

fn read_u32s(r: &mut ByteReader<'_>, rows: usize) -> Result<Vec<u32>> {
    let value = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte value"));
    match r.u8()? {
        ENC_PLAIN => Ok(r.take_items(rows, 4)?.chunks_exact(4).map(value).collect()),
        ENC_RLE => {
            let mut out = Vec::with_capacity(rows);
            for (len, v) in read_runs(r, rows, 8, "code")? {
                out.extend(std::iter::repeat_n(value(v), len));
            }
            Ok(out)
        }
        _ => Err(StorageError::Corrupt {
            context: "invalid code encoding tag".into(),
        }),
    }
}

fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(buf, VAL_NULL),
        Value::Bool(b) => {
            put_u8(buf, VAL_BOOL);
            put_u8(buf, *b as u8);
        }
        Value::Int(i) => {
            put_u8(buf, VAL_INT);
            put_i64(buf, *i);
        }
        Value::Str(s) => {
            put_u8(buf, VAL_STR);
            put_str(buf, s);
        }
        Value::Set(items) => {
            put_u8(buf, VAL_SET);
            put_u32(buf, items.len() as u32);
            for item in items {
                put_value(buf, item);
            }
        }
    }
}

fn read_value(r: &mut ByteReader<'_>) -> Result<Value> {
    match r.u8()? {
        VAL_NULL => Ok(Value::Null),
        VAL_BOOL => Ok(Value::Bool(r.u8()? != 0)),
        VAL_INT => Ok(Value::Int(r.i64()?)),
        VAL_STR => Ok(Value::Str(r.str()?.into())),
        VAL_SET => {
            let len = r.u32()? as usize;
            let mut items = std::collections::BTreeSet::new();
            for _ in 0..len {
                items.insert(read_value(r)?);
            }
            Ok(Value::Set(items))
        }
        _ => Err(StorageError::Corrupt {
            context: "invalid value tag".into(),
        }),
    }
}

/// Serialize one column (of a chunk with a known row count) into `buf`.
pub(crate) fn put_column(buf: &mut Vec<u8>, column: &Column) {
    match column {
        Column::Int { values, validity } => {
            put_u8(buf, COL_INT);
            put_validity(buf, validity);
            put_i64s(buf, values);
        }
        Column::Bool { values, validity } => {
            put_u8(buf, COL_BOOL);
            put_validity(buf, validity);
            buf.extend(values.iter().map(|&b| b as u8));
        }
        Column::Str(col) => {
            put_u8(buf, COL_STR);
            put_validity(buf, &col.validity);
            put_u32(buf, col.dict.len() as u32);
            for entry in &col.dict {
                put_str(buf, entry);
            }
            put_u32s(buf, &col.codes);
        }
        Column::Mixed(values) => {
            put_u8(buf, COL_MIXED);
            for value in values {
                put_value(buf, value);
            }
        }
    }
}

/// Decode one column of `rows` rows.
pub(crate) fn read_column(r: &mut ByteReader<'_>, rows: usize) -> Result<Column> {
    match r.u8()? {
        COL_INT => {
            let validity = read_validity(r, rows)?;
            let values = read_i64s(r, rows)?;
            Ok(Column::Int { values, validity })
        }
        COL_BOOL => {
            let validity = read_validity(r, rows)?;
            let values = r.take(rows)?.iter().map(|&b| b != 0).collect();
            Ok(Column::Bool { values, validity })
        }
        COL_STR => {
            let validity = read_validity(r, rows)?;
            let dict_len = r.count(4)?;
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(r.str()?.into());
            }
            let codes = read_u32s(r, rows)?;
            if codes.iter().any(|&c| c as usize >= dict_len.max(1)) {
                return Err(StorageError::Corrupt {
                    context: "dictionary code out of range".into(),
                });
            }
            Ok(Column::Str(StrColumn {
                dict,
                codes,
                validity,
            }))
        }
        COL_MIXED => {
            let mut values = Vec::with_capacity(r.backed(rows, 1)?);
            for _ in 0..rows {
                values.push(read_value(r)?);
            }
            Ok(Column::Mixed(values))
        }
        _ => Err(StorageError::Corrupt {
            context: "invalid column tag".into(),
        }),
    }
}

/// Encode a whole chunk (all columns, back to back) into a fresh buffer.
pub(crate) fn encode_chunk(batch: &ColumnarBatch) -> Vec<u8> {
    let mut buf = Vec::new();
    for column in batch.columns() {
        put_column(&mut buf, column);
    }
    buf
}

/// Decode a chunk payload into a batch of `rows` rows over `schema`.
pub(crate) fn decode_chunk(bytes: &[u8], schema: &Schema, rows: usize) -> Result<ColumnarBatch> {
    let mut r = ByteReader::new(bytes, "chunk");
    let mut columns = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        columns.push(read_column(&mut r, rows)?);
    }
    if !r.is_empty() {
        return Err(StorageError::Corrupt {
            context: "trailing bytes after chunk columns".into(),
        });
    }
    Ok(ColumnarBatch::from_parts(schema.clone(), columns, rows))
}

// ---------------------------------------------------------------------------
// Zone maps: the byte encoding of [`ColumnZone`] (computing and testing
// zones is `div_columnar::zone`)
// ---------------------------------------------------------------------------

const ZONE_NONE: u8 = 0;
const ZONE_INT: u8 = 1;
const ZONE_STR: u8 = 2;

pub(crate) fn put_zone(buf: &mut Vec<u8>, zone: &ColumnZone) {
    match zone {
        ColumnZone::None => put_u8(buf, ZONE_NONE),
        ColumnZone::Int {
            min,
            max,
            null_count,
        } => {
            put_u8(buf, ZONE_INT);
            put_i64(buf, *min);
            put_i64(buf, *max);
            put_u64(buf, *null_count);
        }
        ColumnZone::Str {
            min,
            max,
            null_count,
        } => {
            put_u8(buf, ZONE_STR);
            put_str(buf, min);
            put_str(buf, max);
            put_u64(buf, *null_count);
        }
    }
}

pub(crate) fn read_zone(r: &mut ByteReader<'_>) -> Result<ColumnZone> {
    match r.u8()? {
        ZONE_NONE => Ok(ColumnZone::None),
        ZONE_INT => Ok(ColumnZone::Int {
            min: r.i64()?,
            max: r.i64()?,
            null_count: r.u64()?,
        }),
        ZONE_STR => Ok(ColumnZone::Str {
            min: r.str()?.into(),
            max: r.str()?.into(),
            null_count: r.u64()?,
        }),
        _ => Err(StorageError::Corrupt {
            context: "invalid zone tag".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn round_trip(batch: &ColumnarBatch) {
        let bytes = encode_chunk(batch);
        let back = decode_chunk(&bytes, batch.schema(), batch.num_rows()).unwrap();
        assert_eq!(&back, batch);
    }

    #[test]
    fn chunk_round_trips_every_column_kind() {
        round_trip(&ColumnarBatch::from_relation(&relation! {
            ["i", "s", "b"] => [1, "red", true], [2, "blue", false], [2, "red", true]
        }));
        // Mixed column (int + string in one attribute) and sets.
        let rel = div_algebra::Relation::from_rows(
            ["m"],
            vec![
                vec![Value::Int(1)],
                vec![Value::str("x")],
                vec![Value::set([1, 2])],
                vec![Value::Null],
            ],
        )
        .unwrap();
        round_trip(&ColumnarBatch::from_relation(&rel));
        // Empty batch.
        round_trip(&ColumnarBatch::empty(Schema::of(["a", "b"])));
    }

    #[test]
    fn rle_kicks_in_on_constant_columns() {
        let rows: Vec<Vec<i64>> = (0..512).map(|i| vec![7, i]).collect();
        let rel = div_algebra::Relation::from_rows(["c", "u"], rows).unwrap();
        let batch = ColumnarBatch::from_relation(&rel);
        let bytes = encode_chunk(&batch);
        // The constant column must collapse to one run: far below the
        // 512 * 8 bytes the plain form would need for each column.
        assert!(bytes.len() < 512 * 8 + 512 * 2);
        round_trip(&batch);
    }
}
