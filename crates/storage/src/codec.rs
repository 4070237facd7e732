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
//! only after their runs are checked to add up to it, and the reader
//! refuses a chunk of more than [`MAX_CHUNK_ROWS`](crate::MAX_CHUNK_ROWS)
//! rows before decoding it). Nested sets are refused beyond
//! [`MAX_SET_DEPTH`] levels, by the writer and the reader alike, so a
//! crafted value cannot recurse the reader's stack away.

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
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| self.corrupt("bytes"))?;
        self.pos += n;
        Ok(slice)
    }

    /// The next `N` bytes, as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = self.take(N)?;
        bytes.try_into().map_err(|_| self.corrupt("bytes"))
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
            Some(n) if n <= self.buf.len().saturating_sub(self.pos) => Ok(count),
            _ => Err(self.corrupt(&format!("count {count} ({min_bytes} B each)"))),
        }
    }

    /// A `u32` count of items that need at least `min_bytes` each.
    pub(crate) fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let count = self.u32()? as usize;
        self.backed(count, min_bytes)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        let [b] = self.array()?;
        Ok(b)
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.array()?))
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

/// Set nesting the format holds: a set may sit inside at most this many
/// enclosing sets. The writer refuses a deeper value and the reader a file
/// that claims one, so decoding a value recurses a bounded number of times.
pub const MAX_SET_DEPTH: usize = 64;

/// Count the runs a run-length encoding would need.
fn run_count<T: PartialEq>(values: &[T]) -> usize {
    if values.is_empty() {
        return 0;
    }
    1 + values
        .windows(2)
        .filter(|pair| matches!(pair, [a, b] if a != b))
        .count()
}

/// RLE-or-plain encode a slice of `W`-byte values: `u8` encoding tag, then
/// either the raw values or `(u32 run_len, value)` pairs, whichever is
/// smaller (plain on a tie).
fn put_runs_or_plain<T: Copy + PartialEq, const W: usize>(
    buf: &mut Vec<u8>,
    values: &[T],
    le: fn(T) -> [u8; W],
) {
    let runs = run_count(values);
    if runs * (4 + W) < values.len() * W {
        put_u8(buf, ENC_RLE);
        put_u32(buf, runs as u32);
        for run in values.chunk_by(|a, b| a == b) {
            if let Some(&v) = run.first() {
                put_u32(buf, run.len() as u32);
                buf.extend_from_slice(&le(v));
            }
        }
    } else {
        // One slice copy: the buffer grows once, then each value fills its
        // own `W` bytes.
        put_u8(buf, ENC_PLAIN);
        let start = buf.len();
        buf.resize(start + values.len() * W, 0);
        for (dst, &v) in buf[start..].chunks_exact_mut(W).zip(values) {
            dst.copy_from_slice(&le(v));
        }
    }
}

/// Decode `rows` values of `W` bytes, plain or run-length encoded (`u32`
/// run count, then `(u32 len, value)` runs). The run lengths must add up
/// to exactly `rows` before the column is allocated — so the `rows`-sized
/// allocation is what the runs fill, whatever the file claims.
fn read_runs_or_plain<T: Copy, const W: usize>(
    r: &mut ByteReader<'_>,
    rows: usize,
    column: &str,
    from_le: fn([u8; W]) -> T,
) -> Result<Vec<T>> {
    match r.u8()? {
        ENC_PLAIN => {
            let (values, _) = r.take_items(rows, W)?.as_chunks::<W>();
            Ok(values.iter().map(|&v| from_le(v)).collect())
        }
        ENC_RLE => {
            let runs = r.u32()? as usize;
            let bytes = r.take_items(runs, 4 + W)?;
            let mut total = 0u64;
            let mut lengths = ByteReader::new(bytes, "rle runs");
            for _ in 0..runs {
                total += lengths.u32()? as u64;
                lengths.take(W)?;
            }
            if total != rows as u64 {
                return Err(StorageError::Corrupt {
                    context: format!("rle runs cover {total} of {rows} rows in {column} column"),
                });
            }
            let mut out = Vec::with_capacity(rows);
            let mut runs_reader = ByteReader::new(bytes, "rle runs");
            for _ in 0..runs {
                let len = runs_reader.u32()? as usize;
                out.extend(std::iter::repeat_n(from_le(runs_reader.array()?), len));
            }
            Ok(out)
        }
        _ => Err(StorageError::Corrupt {
            context: format!("invalid {column} encoding tag"),
        }),
    }
}

fn put_value(buf: &mut Vec<u8>, value: &Value, depth: usize) -> Result<()> {
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
            if depth > MAX_SET_DEPTH {
                return Err(StorageError::Schema {
                    reason: format!("a set nests deeper than {MAX_SET_DEPTH} levels"),
                });
            }
            put_u8(buf, VAL_SET);
            put_u32(buf, items.len() as u32);
            for item in items {
                put_value(buf, item, depth + 1)?;
            }
        }
    }
    Ok(())
}

/// Decode one value at set nesting `depth` (0 outside any set).
fn read_value(r: &mut ByteReader<'_>, depth: usize) -> Result<Value> {
    match r.u8()? {
        VAL_NULL => Ok(Value::Null),
        VAL_BOOL => Ok(Value::Bool(r.u8()? != 0)),
        VAL_INT => Ok(Value::Int(r.i64()?)),
        VAL_STR => Ok(Value::Str(r.str()?.into())),
        VAL_SET if depth > MAX_SET_DEPTH => Err(StorageError::Corrupt {
            context: format!("a set nests deeper than {MAX_SET_DEPTH} levels"),
        }),
        VAL_SET => {
            let len = r.count(1)?;
            let mut items = std::collections::BTreeSet::new();
            for _ in 0..len {
                items.insert(read_value(r, depth + 1)?);
            }
            Ok(Value::Set(items))
        }
        _ => Err(StorageError::Corrupt {
            context: "invalid value tag".into(),
        }),
    }
}

/// Serialize one column (of a chunk with a known row count) into `buf`.
/// Fails only on a set nested deeper than [`MAX_SET_DEPTH`].
pub(crate) fn put_column(buf: &mut Vec<u8>, column: &Column) -> Result<()> {
    match column {
        Column::Int { values, validity } => {
            put_u8(buf, COL_INT);
            put_validity(buf, validity);
            put_runs_or_plain(buf, values, i64::to_le_bytes);
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
            put_runs_or_plain(buf, &col.codes, u32::to_le_bytes);
        }
        Column::Mixed(values) => {
            put_u8(buf, COL_MIXED);
            for value in values {
                put_value(buf, value, 0)?;
            }
        }
    }
    Ok(())
}

/// Decode one column of `rows` rows.
pub(crate) fn read_column(r: &mut ByteReader<'_>, rows: usize) -> Result<Column> {
    match r.u8()? {
        COL_INT => {
            let validity = read_validity(r, rows)?;
            let values = read_runs_or_plain(r, rows, "int", i64::from_le_bytes)?;
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
            let codes = read_runs_or_plain(r, rows, "code", u32::from_le_bytes)?;
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
                values.push(read_value(r, 0)?);
            }
            Ok(Column::Mixed(values))
        }
        _ => Err(StorageError::Corrupt {
            context: "invalid column tag".into(),
        }),
    }
}

/// Encode a whole chunk (all columns, back to back) into `buf`, replacing
/// its contents. The buffer is grown once, to what the chunk's plain
/// columns would take (a validity byte and 8 value bytes a row per
/// column), so a caller that keeps one buffer across chunks allocates only
/// for the first, and for a later chunk with long strings.
pub(crate) fn encode_chunk(batch: &ColumnarBatch, buf: &mut Vec<u8>) -> Result<()> {
    buf.clear();
    buf.reserve(batch.columns().len() * (16 + 9 * batch.num_rows()));
    for column in batch.columns() {
        put_column(buf, column)?;
    }
    Ok(())
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
    use proptest::prelude::*;

    fn encode(batch: &ColumnarBatch) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_chunk(batch, &mut buf).unwrap();
        buf
    }

    fn round_trip(batch: &ColumnarBatch) {
        let bytes = encode(batch);
        let back = decode_chunk(&bytes, batch.schema(), batch.num_rows()).unwrap();
        assert_eq!(&back, batch);
    }

    /// The per-value encoder `encode_chunk` replaced: one `extend_from_slice`
    /// per value and a run loop that compares each value with its run's
    /// first. Kept as the oracle the slice-copy encoder must match byte for
    /// byte.
    mod per_value {
        use super::super::*;

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

        pub(super) fn encode_chunk(batch: &ColumnarBatch) -> Vec<u8> {
            let mut buf = Vec::new();
            for column in batch.columns() {
                match column {
                    Column::Int { values, validity } => {
                        put_u8(&mut buf, COL_INT);
                        put_validity(&mut buf, validity);
                        put_i64s(&mut buf, values);
                    }
                    Column::Bool { values, validity } => {
                        put_u8(&mut buf, COL_BOOL);
                        put_validity(&mut buf, validity);
                        buf.extend(values.iter().map(|&b| b as u8));
                    }
                    Column::Str(col) => {
                        put_u8(&mut buf, COL_STR);
                        put_validity(&mut buf, &col.validity);
                        put_u32(&mut buf, col.dict.len() as u32);
                        for entry in &col.dict {
                            put_str(&mut buf, entry);
                        }
                        put_u32s(&mut buf, &col.codes);
                    }
                    Column::Mixed(values) => {
                        put_u8(&mut buf, COL_MIXED);
                        for value in values {
                            put_value(&mut buf, value);
                        }
                    }
                }
            }
            buf
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The slice-copy encoder writes the bytes the per-value one did,
        /// over int, string, bool and mixed columns with and without NULLs.
        /// The rows are runs of `1..6` equal values, so a column comes out
        /// plain, run-length encoded or at the tie between the two.
        #[test]
        fn encode_chunk_writes_the_per_value_encoders_bytes(
            runs in prop::collection::vec((-3i64..4, 1usize..6, 0u32..4), 0..40),
            masked in 0u32..2,
        ) {
            let mut values = Vec::new();
            let mut valid = Vec::new();
            for &(value, len, null) in &runs {
                values.extend(std::iter::repeat_n(value, len));
                valid.extend(std::iter::repeat_n(masked == 0 || null != 0, len));
            }
            let rows = values.len();
            let validity = (masked == 1).then(|| valid.clone());
            let codes: Vec<u32> = values.iter().map(|&v| (v + 3) as u32).collect();
            let mixed = values
                .iter()
                .zip(&valid)
                .map(|(&v, &ok)| match (ok, v.rem_euclid(3)) {
                    (false, _) => Value::Null,
                    (true, 0) => Value::Int(v),
                    (true, 1) => Value::str(format!("s{v}")),
                    (true, _) => Value::set([v, v + 1]),
                })
                .collect();
            let batch = ColumnarBatch::from_parts(
                Schema::of(["i", "s", "b", "m"]),
                vec![
                    Column::Int { values: values.clone(), validity: validity.clone() },
                    Column::Str(StrColumn {
                        dict: (-3..4).map(|v| format!("v{v}").into()).collect(),
                        codes,
                        validity: validity.clone(),
                    }),
                    Column::Bool { values: values.iter().map(|&v| v > 0).collect(), validity },
                    Column::Mixed(mixed),
                ],
                rows,
            );
            prop_assert_eq!(encode(&batch), per_value::encode_chunk(&batch));
        }
    }

    #[test]
    fn the_run_length_tie_is_plain_in_both_encoders() {
        // `runs × 12 == len × 8`: 4 runs over 6 ints is a tie, which stays
        // plain; one value more is run-length encoded.
        for values in [vec![1, 1, 2, 3, 3, 4], vec![1, 1, 2, 3, 3, 4, 4]] {
            let batch = ColumnarBatch::from_parts(
                Schema::of(["a"]),
                vec![Column::Int {
                    values: values.clone(),
                    validity: None,
                }],
                values.len(),
            );
            let bytes = encode(&batch);
            assert_eq!(bytes, per_value::encode_chunk(&batch));
            let tie = values.len() == 6;
            assert_eq!(bytes[2], if tie { ENC_PLAIN } else { ENC_RLE });
            round_trip(&batch);
        }
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
        let bytes = encode(&batch);
        // The constant column must collapse to one run: far below the
        // 512 * 8 bytes the plain form would need for each column.
        assert!(bytes.len() < 512 * 8 + 512 * 2);
        round_trip(&batch);
    }

    /// A value of sets nested `depth` levels deep around an int.
    fn nested(depth: usize) -> Value {
        (0..depth).fold(Value::Int(7), |inner, _| {
            Value::Set(std::collections::BTreeSet::from([inner]))
        })
    }

    #[test]
    fn sets_nest_up_to_the_cap_and_no_deeper() {
        let column = |depth| {
            ColumnarBatch::from_parts(
                Schema::of(["m"]),
                vec![Column::Mixed(vec![nested(depth)])],
                1,
            )
        };
        // A set may sit inside MAX_SET_DEPTH others: MAX_SET_DEPTH + 1
        // levels of sets round-trip, one more is refused by the writer.
        round_trip(&column(MAX_SET_DEPTH + 1));
        let mut buf = Vec::new();
        assert!(matches!(
            encode_chunk(&column(MAX_SET_DEPTH + 2), &mut buf),
            Err(StorageError::Schema { .. })
        ));
        // The reader refuses the same depth in crafted bytes, and a depth
        // that would exhaust the stack stops at the cap.
        for depth in [MAX_SET_DEPTH + 2, 1_000_000] {
            let mut bytes = vec![COL_MIXED];
            for _ in 0..depth {
                bytes.push(VAL_SET);
                bytes.extend_from_slice(&1u32.to_le_bytes());
            }
            bytes.push(VAL_NULL);
            assert!(matches!(
                decode_chunk(&bytes, &Schema::of(["m"]), 1),
                Err(StorageError::Corrupt { .. })
            ));
        }
    }
}
