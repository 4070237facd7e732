//! The on-disk table format: `TableWriter` / `TableReader`.
//!
//! ```text
//! ┌──────────┬─────────┬─────────┬───┬────────┬───────────┬────────────┬──────────┐
//! │ MAGIC(8) │ chunk 0 │ chunk 1 │ … │ footer │ len: u64  │ crc: u32   │ MAGIC(8) │
//! └──────────┴─────────┴─────────┴───┴────────┴───────────┴────────────┴──────────┘
//! ```
//!
//! Each *chunk* is one [`ColumnarBatch`] worth of rows, its columns encoded
//! back to back (dictionary + RLE for strings, RLE-or-plain for integers —
//! see [`crate::codec`]). The *footer* records the schema, total row count
//! and a per-chunk index: byte offset, length, row count, CRC-32 of the
//! payload, and a per-column zone map ([`ColumnZone`]). The trailing
//! `len`/`crc`/magic triplet lets a reader locate and validate the footer
//! from the end of the file without scanning the chunks; the chunk CRCs are
//! verified lazily, as each chunk is read. A chunk holds at most
//! [`MAX_CHUNK_ROWS`] rows: the writer splits a larger batch, and the
//! reader refuses a footer that claims more before decoding anything.
//!
//! Any flipped byte anywhere in the file surfaces as a typed
//! [`StorageError`]: chunk bytes via the chunk CRC, footer bytes via the
//! footer CRC, the trailer fields via the trailing magic / footer CRC, and
//! the leading magic via [`StorageError::BadMagic`].

use crate::checksum::crc32;
use crate::codec::{self, put_str, put_u16, put_u32, put_u64, ByteReader};
use crate::{Result, StorageError};
use div_algebra::{Predicate, Relation, Schema};
use div_columnar::{chunk_may_match, column_zone, ColumnZone, ColumnarBatch, GroupStore};
use div_expr::{ChunkScan, ExprError, TableSource};
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Leading and trailing file magic (`DIVCOL` + format version digits).
pub const MAGIC: [u8; 8] = *b"DIVCOL01";
/// Footer payload version. Since version 2 a file holds a set: its writer
/// refuses a repeated row, so a file of an earlier version is not read.
const FORMAT_VERSION: u16 = 2;

/// The most rows one chunk holds. The writer cuts a larger batch into
/// chunks of at most this many rows, and the reader refuses a footer entry
/// above it as [`StorageError::Corrupt`]: a run-length column expands to
/// its chunk's row count from a 12-byte run, so the cap is what bounds the
/// rows a crafted chunk can make the reader allocate.
pub const MAX_CHUNK_ROWS: usize = 1 << 16;

fn io_err(context: &str, err: std::io::Error) -> StorageError {
    StorageError::Io {
        context: context.to_string(),
        message: err.to_string(),
    }
}

/// Footer entry describing one chunk.
#[derive(Debug, Clone)]
pub(crate) struct ChunkMeta {
    offset: u64,
    len: u64,
    rows: u32,
    crc: u32,
    zones: Vec<ColumnZone>,
}

/// Streaming writer for the columnar table format.
///
/// Each [`write_batch`](TableWriter::write_batch) call becomes one on-disk
/// chunk; [`finish`](TableWriter::finish) writes the footer and flushes.
/// Dropping a writer without finishing leaves a file with no valid trailer
/// — readers reject it, so a crash mid-write cannot be mistaken for a
/// complete table.
///
/// A table is a set, and the executor's operators rely on every scan being
/// one: a batch that repeats a row — of itself or of an earlier batch — is
/// refused with [`StorageError::DuplicateRow`] and nothing of it is
/// written. To check, the writer keeps one copy of every row it wrote.
#[derive(Debug)]
pub struct TableWriter {
    file: File,
    path: PathBuf,
    schema: Schema,
    offset: u64,
    rows: u64,
    chunks: Vec<ChunkMeta>,
    /// The rows written so far; `None` when they are distinct by
    /// construction ([`TableWriter::create_unchecked`]).
    written: Option<GroupStore>,
    /// The encoding buffer, reused by every chunk.
    payload: Vec<u8>,
}

impl TableWriter {
    /// Create (truncating) `path` and write the file header.
    pub fn create(path: impl AsRef<Path>, schema: Schema) -> Result<TableWriter> {
        let written = GroupStore::new(schema.clone(), (0..schema.arity()).collect());
        let mut writer = TableWriter::create_unchecked(path, schema)?;
        writer.written = Some(written);
        Ok(writer)
    }

    /// [`TableWriter::create`] for rows the caller knows to be distinct — a
    /// relation's, or a spill partition's, which is part of one executor
    /// stream — so none are kept to check them.
    pub(crate) fn create_unchecked(path: impl AsRef<Path>, schema: Schema) -> Result<TableWriter> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            File::create(&path).map_err(|e| io_err(&format!("create {}", path.display()), e))?;
        file.write_all(&MAGIC)
            .map_err(|e| io_err("write header", e))?;
        Ok(TableWriter {
            file,
            path,
            schema,
            offset: MAGIC.len() as u64,
            rows: 0,
            chunks: Vec::new(),
            written: None,
            payload: Vec::new(),
        })
    }

    /// The path being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Append one batch as one chunk, or as several of at most
    /// [`MAX_CHUNK_ROWS`] rows when it is longer. Empty batches are
    /// ignored; the batch schema must equal the writer's schema, and no row
    /// of it may have been written before. A refused batch leaves no trace;
    /// after any other error (an IO failure, a set nested deeper than
    /// [`MAX_SET_DEPTH`](crate::codec::MAX_SET_DEPTH)) part of it may be
    /// written, and the file should be abandoned.
    pub fn write_batch(&mut self, batch: &ColumnarBatch) -> Result<()> {
        if batch.schema() != &self.schema {
            return Err(StorageError::Schema {
                reason: format!(
                    "batch schema {:?} does not match table schema {:?}",
                    batch.schema().names(),
                    self.schema.names()
                ),
            });
        }
        let rows = batch.num_rows();
        if rows > MAX_CHUNK_ROWS {
            // Refuse a repeat before the first piece is written; each piece
            // is then new to the rows written before it.
            self.refuse_repeats(batch)?;
            for start in (0..rows).step_by(MAX_CHUNK_ROWS) {
                self.write_batch(&batch.slice(start..rows.min(start + MAX_CHUNK_ROWS)))?;
            }
            return Ok(());
        }
        if rows == 0 {
            return Ok(());
        }
        codec::encode_chunk(batch, &mut self.payload)?;
        self.refuse_repeats(batch)?;
        if let Some(written) = &mut self.written {
            written.intern_chunk(batch);
        }
        let zones = batch.columns().iter().map(column_zone).collect();
        self.chunks.push(ChunkMeta {
            offset: self.offset,
            len: self.payload.len() as u64,
            rows: rows as u32,
            crc: crc32(&self.payload),
            zones,
        });
        self.file
            .write_all(&self.payload)
            .map_err(|e| io_err("write chunk", e))?;
        self.offset += self.payload.len() as u64;
        self.rows += rows as u64;
        Ok(())
    }

    /// [`StorageError::DuplicateRow`] when `batch` repeats a row of itself
    /// or of an earlier batch (never, for an unchecked writer).
    fn refuse_repeats(&self, batch: &ColumnarBatch) -> Result<()> {
        if let Some(written) = &self.written {
            if batch.dedup().num_rows() < batch.num_rows()
                || written.lookup_chunk(batch).iter().any(Option::is_some)
            {
                return Err(StorageError::DuplicateRow {
                    context: self.path.display().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Write the footer + trailer and flush. The file is complete and
    /// readable after this returns.
    pub fn finish(mut self) -> Result<()> {
        let mut footer = Vec::new();
        put_u16(&mut footer, FORMAT_VERSION);
        put_u32(&mut footer, self.schema.arity() as u32);
        for name in self.schema.names() {
            put_str(&mut footer, name);
        }
        put_u64(&mut footer, self.rows);
        put_u32(&mut footer, self.chunks.len() as u32);
        for chunk in &self.chunks {
            put_u64(&mut footer, chunk.offset);
            put_u64(&mut footer, chunk.len);
            put_u32(&mut footer, chunk.rows);
            put_u32(&mut footer, chunk.crc);
            for zone in &chunk.zones {
                codec::put_zone(&mut footer, zone);
            }
        }
        let crc = crc32(&footer);
        self.file
            .write_all(&footer)
            .map_err(|e| io_err("write footer", e))?;
        let mut trailer = Vec::new();
        put_u64(&mut trailer, footer.len() as u64);
        put_u32(&mut trailer, crc);
        trailer.extend_from_slice(&MAGIC);
        self.file
            .write_all(&trailer)
            .map_err(|e| io_err("write trailer", e))?;
        self.file.flush().map_err(|e| io_err("flush", e))
    }

    /// Convenience: write `relation` to `path` in chunks of `chunk_rows`.
    /// A relation is a set, so its rows are not kept to be checked.
    pub fn write_relation(
        path: impl AsRef<Path>,
        relation: &Relation,
        chunk_rows: usize,
    ) -> Result<()> {
        let chunk_rows = chunk_rows.max(1);
        let batch = ColumnarBatch::from_relation(relation);
        let mut writer = TableWriter::create_unchecked(path, batch.schema().clone())?;
        let rows = batch.num_rows();
        let mut start = 0;
        while start < rows {
            let end = (start + chunk_rows).min(rows);
            writer.write_batch(&batch.slice(start..end))?;
            start = end;
        }
        writer.finish()
    }
}

/// Reader handle for a columnar table file.
///
/// `open` validates the magic and footer (schema, chunk index, zone maps)
/// but reads no data pages; chunk payloads are read — and CRC-checked — one
/// at a time. The handle itself holds no open file descriptor: each scan
/// opens its own, so one reader can serve concurrent scans.
#[derive(Debug)]
pub struct TableReader {
    path: PathBuf,
    schema: Schema,
    rows: u64,
    /// The chunk index, shared with every scan of this reader.
    chunks: Arc<[ChunkMeta]>,
}

impl TableReader {
    /// Open `path`, validating the header magic and the footer.
    pub fn open(path: impl AsRef<Path>) -> Result<TableReader> {
        let path = path.as_ref().to_path_buf();
        let display = path.display().to_string();
        let mut file = File::open(&path).map_err(|e| io_err(&format!("open {display}"), e))?;
        let file_len = file.metadata().map_err(|e| io_err("stat", e))?.len();
        let trailer_len = (8 + 4 + MAGIC.len()) as u64;
        if file_len < MAGIC.len() as u64 + trailer_len {
            return Err(StorageError::Corrupt {
                context: format!("{display}: file too short ({file_len} bytes)"),
            });
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head)
            .map_err(|e| io_err("read header", e))?;
        if head != MAGIC {
            return Err(StorageError::BadMagic { context: display });
        }
        file.seek(SeekFrom::End(-(trailer_len as i64)))
            .map_err(|e| io_err("seek trailer", e))?;
        let mut trailer = vec![0u8; trailer_len as usize];
        file.read_exact(&mut trailer)
            .map_err(|e| io_err("read trailer", e))?;
        let mut tr = ByteReader::new(&trailer, "trailer");
        let footer_len = tr.u64()?;
        let footer_crc = tr.u32()?;
        if tr.take(MAGIC.len())? != MAGIC {
            return Err(StorageError::BadMagic {
                context: format!("{display} (trailer)"),
            });
        }
        let footer_start = file_len
            .checked_sub(trailer_len)
            .and_then(|p| p.checked_sub(footer_len))
            .filter(|&p| p >= MAGIC.len() as u64)
            .ok_or_else(|| StorageError::Corrupt {
                context: format!("{display}: footer length {footer_len} out of range"),
            })?;
        file.seek(SeekFrom::Start(footer_start))
            .map_err(|e| io_err("seek footer", e))?;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact(&mut footer)
            .map_err(|e| io_err("read footer", e))?;
        let actual = crc32(&footer);
        if actual != footer_crc {
            return Err(StorageError::ChecksumMismatch {
                context: format!("{display}: footer"),
                expected: footer_crc,
                actual,
            });
        }
        let mut fr = ByteReader::new(&footer, "footer");
        let version = fr.u16()?;
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion { found: version });
        }
        // Counts are bounded by the footer bytes behind them (a name is at
        // least its 4-byte length, a chunk entry 24 bytes plus a 1-byte tag
        // per zone), so the allocations below are too.
        let arity = fr.count(4)?;
        let mut names = Vec::with_capacity(arity);
        for _ in 0..arity {
            names.push(fr.str()?);
        }
        let schema = Schema::new(names).map_err(|e| StorageError::Corrupt {
            context: format!("{display}: invalid schema in footer: {e}"),
        })?;
        let rows = fr.u64()?;
        let chunk_count = fr.count(24 + arity)?;
        let mut chunks = Vec::with_capacity(chunk_count);
        let mut expected_rows = 0u64;
        for _ in 0..chunk_count {
            let offset = fr.u64()?;
            let len = fr.u64()?;
            let chunk_rows = fr.u32()?;
            let crc = fr.u32()?;
            if chunk_rows as usize > MAX_CHUNK_ROWS {
                return Err(StorageError::Corrupt {
                    context: format!(
                        "{display}: a chunk of {chunk_rows} rows (at most {MAX_CHUNK_ROWS})"
                    ),
                });
            }
            let mut zones = Vec::with_capacity(fr.backed(arity, 1)?);
            for _ in 0..arity {
                zones.push(codec::read_zone(&mut fr)?);
            }
            if offset.checked_add(len).is_none_or(|end| end > footer_start) {
                return Err(StorageError::Corrupt {
                    context: format!("{display}: chunk extent out of range"),
                });
            }
            expected_rows += chunk_rows as u64;
            chunks.push(ChunkMeta {
                offset,
                len,
                rows: chunk_rows,
                crc,
                zones,
            });
        }
        if !fr.is_empty() || expected_rows != rows {
            return Err(StorageError::Corrupt {
                context: format!("{display}: footer row accounting mismatch"),
            });
        }
        Ok(TableReader {
            path,
            schema,
            rows,
            chunks: chunks.into(),
        })
    }

    /// The file this reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The table schema, from the footer.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows, from the footer.
    pub fn row_count(&self) -> usize {
        self.rows as usize
    }

    /// Number of on-disk chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Read chunk `index` (described by `meta`) through the supplied file
    /// handle into `payload`, CRC-check it and decode it. Scans keep their
    /// own handle and buffer (see [`TableScanCursor`]): the buffer's
    /// allocation serves every chunk, and only the bytes by which a chunk
    /// outgrows the one before it are zero-filled.
    fn read_chunk(
        &self,
        file: &mut File,
        index: usize,
        meta: &ChunkMeta,
        payload: &mut Vec<u8>,
    ) -> Result<ColumnarBatch> {
        file.seek(SeekFrom::Start(meta.offset))
            .map_err(|e| io_err("seek chunk", e))?;
        payload.resize(meta.len as usize, 0);
        file.read_exact(payload)
            .map_err(|e| io_err("read chunk", e))?;
        let actual = crc32(payload);
        if actual != meta.crc {
            return Err(StorageError::ChecksumMismatch {
                context: format!("{}: chunk {index}", self.path.display()),
                expected: meta.crc,
                actual,
            });
        }
        codec::decode_chunk(payload, &self.schema, meta.rows as usize)
    }

    /// Open a chunk-at-a-time cursor, optionally skipping chunks whose zone
    /// maps exclude `predicate`.
    pub fn scan(&self, predicate: Option<&Predicate>) -> Result<TableScanCursor> {
        let file = File::open(&self.path)
            .map_err(|e| io_err(&format!("open {}", self.path.display()), e))?;
        Ok(TableScanCursor {
            reader: TableReader {
                path: self.path.clone(),
                schema: self.schema.clone(),
                rows: self.rows,
                chunks: Arc::clone(&self.chunks),
            },
            file,
            predicate: predicate.cloned(),
            next: 0,
            skipped: 0,
            payload: Vec::new(),
        })
    }

    /// Load the whole table into memory.
    pub fn to_relation(&self) -> Result<Relation> {
        let mut cursor = self.scan(None)?;
        let mut out = Relation::empty(self.schema.clone());
        while let Some(chunk) = cursor.next_chunk()? {
            for row in 0..chunk.num_rows() {
                out.insert(chunk.row(row))
                    .map_err(|e| StorageError::Corrupt {
                        context: format!("{}: decoded row rejected: {e}", self.path.display()),
                    })?;
            }
        }
        Ok(out)
    }
}

/// A chunk-at-a-time cursor over a [`TableReader`], with zone-map skipping.
#[derive(Debug)]
pub struct TableScanCursor {
    reader: TableReader,
    file: File,
    predicate: Option<Predicate>,
    next: usize,
    skipped: usize,
    /// The buffer every chunk is read into, reused across chunks.
    payload: Vec<u8>,
}

impl TableScanCursor {
    /// The next chunk that may contain matching rows, or `None` at the end.
    pub fn next_chunk(&mut self) -> Result<Option<ColumnarBatch>> {
        while let Some(meta) = self.reader.chunks.get(self.next) {
            let index = self.next;
            self.next += 1;
            if let Some(predicate) = &self.predicate {
                if !chunk_may_match(predicate, &self.reader.schema, &meta.zones) {
                    self.skipped += 1;
                    continue;
                }
            }
            return self
                .reader
                .read_chunk(&mut self.file, index, meta, &mut self.payload)
                .map(Some);
        }
        Ok(None)
    }

    /// Chunks skipped so far thanks to zone maps.
    pub fn chunks_skipped(&self) -> usize {
        self.skipped
    }
}

impl TableSource for TableReader {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn row_count(&self) -> usize {
        self.rows as usize
    }

    fn open_scan(&self, predicate: Option<&Predicate>) -> div_expr::Result<Box<dyn ChunkScan>> {
        Ok(Box::new(self.scan(predicate)?))
    }
}

impl ChunkScan for TableScanCursor {
    fn next_chunk(&mut self) -> div_expr::Result<Option<ColumnarBatch>> {
        TableScanCursor::next_chunk(self).map_err(ExprError::from)
    }

    fn chunks_skipped(&self) -> usize {
        self.skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("div_storage_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn relation_round_trips_through_the_file() {
        let rel = relation! {
            ["s#", "p#", "color"] => [1, 1, "red"], [1, 2, "blue"], [2, 1, "red"], [3, 2, "blue"]
        };
        let path = temp_path("round_trip.divt");
        TableWriter::write_relation(&path, &rel, 2).unwrap();
        let reader = TableReader::open(&path).unwrap();
        assert_eq!(reader.row_count(), 4);
        assert_eq!(reader.chunk_count(), 2);
        assert_eq!(reader.schema().names(), vec!["s#", "p#", "color"]);
        assert_eq!(reader.to_relation().unwrap(), rel);
    }

    #[test]
    fn empty_table_round_trips() {
        let rel = Relation::empty(Schema::of(["a", "b"]));
        let path = temp_path("empty.divt");
        TableWriter::write_relation(&path, &rel, 16).unwrap();
        let reader = TableReader::open(&path).unwrap();
        assert_eq!(reader.row_count(), 0);
        assert_eq!(reader.chunk_count(), 0);
        assert_eq!(reader.to_relation().unwrap(), rel);
    }

    #[test]
    fn zone_maps_skip_non_matching_chunks() {
        // Sorted data → disjoint per-chunk ranges → a selective filter
        // skips all but one chunk.
        let rows: Vec<Vec<i64>> = (0..100).map(|i| vec![i, i % 7]).collect();
        let rel = Relation::from_rows(["a", "b"], rows).unwrap();
        let path = temp_path("zones.divt");
        TableWriter::write_relation(&path, &rel, 10).unwrap();
        let reader = TableReader::open(&path).unwrap();
        let pred = Predicate::eq_value("a", 55);
        let mut cursor = reader.scan(Some(&pred)).unwrap();
        let mut rows_seen = 0;
        while let Some(chunk) = cursor.next_chunk().unwrap() {
            rows_seen += chunk.num_rows();
        }
        assert_eq!(rows_seen, 10, "only the chunk holding a=55 is read");
        assert_eq!(cursor.chunks_skipped(), 9);
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let path = temp_path("unfinished.divt");
        let mut writer = TableWriter::create(&path, Schema::of(["x"])).unwrap();
        let batch = ColumnarBatch::from_relation(&relation! { ["x"] => [1], [2] });
        writer.write_batch(&batch).unwrap();
        drop(writer); // no finish(): no footer, no trailer
        assert!(TableReader::open(&path).is_err());
    }

    #[test]
    fn schema_mismatch_is_a_typed_error() {
        let path = temp_path("schema_mismatch.divt");
        let mut writer = TableWriter::create(&path, Schema::of(["x"])).unwrap();
        let wrong = ColumnarBatch::from_relation(&relation! { ["y"] => [1] });
        assert!(matches!(
            writer.write_batch(&wrong),
            Err(StorageError::Schema { .. })
        ));
    }

    #[test]
    fn repeated_rows_are_refused_and_leave_no_trace() {
        let path = temp_path("repeats.divt");
        let mut writer = TableWriter::create(&path, Schema::of(["g", "v"])).unwrap();
        let first = ColumnarBatch::from_relation(&relation! { ["g", "v"] => [1, 1], [1, 2] });
        writer.write_batch(&first).unwrap();
        // A repeat of an earlier batch, and a repeat within one batch.
        let again = ColumnarBatch::from_relation(&relation! { ["g", "v"] => [2, 1], [1, 2] });
        let twice =
            ColumnarBatch::from_relation(&relation! { ["g", "v"] => [3, 3] }).gather(&[0, 0]);
        for batch in [&first, &again, &twice] {
            assert!(matches!(
                writer.write_batch(batch),
                Err(StorageError::DuplicateRow { .. })
            ));
        }
        // Nothing of a refused batch was written or remembered.
        let fresh = ColumnarBatch::from_relation(&relation! { ["g", "v"] => [2, 1], [3, 3] });
        writer.write_batch(&fresh).unwrap();
        assert_eq!(writer.rows(), 4);
        writer.finish().unwrap();
        let reader = TableReader::open(&path).unwrap();
        assert_eq!(reader.row_count(), 4);
        assert_eq!(reader.to_relation().unwrap().len(), 4);
    }

    /// A one-column int batch of `values`.
    fn ints(values: Vec<i64>) -> ColumnarBatch {
        let rows = values.len();
        ColumnarBatch::from_parts(
            Schema::of(["x"]),
            vec![div_columnar::Column::Int {
                values,
                validity: None,
            }],
            rows,
        )
    }

    #[test]
    fn a_batch_longer_than_a_chunk_is_split_and_checked_whole() {
        let path = temp_path("split.divt");
        let rows = 2 * MAX_CHUNK_ROWS + 5;
        let mut writer = TableWriter::create(&path, Schema::of(["x"])).unwrap();
        // A repeat in the last piece refuses the whole batch up front.
        let mut repeating: Vec<i64> = (0..rows as i64).collect();
        repeating[rows - 1] = 0;
        assert!(matches!(
            writer.write_batch(&ints(repeating)),
            Err(StorageError::DuplicateRow { .. })
        ));
        assert_eq!(writer.rows(), 0);
        let batch = ints((0..rows as i64).collect());
        writer.write_batch(&batch).unwrap();
        writer.finish().unwrap();
        let reader = TableReader::open(&path).unwrap();
        assert_eq!(reader.chunk_count(), 3);
        assert_eq!(reader.row_count(), rows);
        let mut cursor = reader.scan(None).unwrap();
        let mut chunks = Vec::new();
        while let Some(chunk) = cursor.next_chunk().unwrap() {
            chunks.push(chunk);
        }
        let sizes: Vec<usize> = chunks.iter().map(ColumnarBatch::num_rows).collect();
        assert_eq!(sizes, vec![MAX_CHUNK_ROWS, MAX_CHUNK_ROWS, 5]);
        assert_eq!(
            div_columnar::partition::concat_batches(&chunks).unwrap(),
            batch
        );
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let rel = relation! { ["a", "s"] => [1, "x"], [2, "y"], [3, "z"] };
        let path = temp_path("corrupt.divt");
        TableWriter::write_relation(&path, &rel, 2).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[byte] ^= 0xFF;
            let bad_path = temp_path("corrupt_flip.divt");
            std::fs::write(&bad_path, &corrupt).unwrap();
            // Either open() rejects the file (footer/trailer damage) or the
            // chunk read reports a checksum mismatch — never a panic, never
            // silently wrong data.
            match TableReader::open(&bad_path) {
                Err(_) => {}
                Ok(reader) => {
                    let err = reader
                        .to_relation()
                        .expect_err(&format!("flip at byte {byte} went undetected"));
                    match err {
                        StorageError::ChecksumMismatch { .. } | StorageError::Corrupt { .. } => {}
                        other => panic!("unexpected error kind for data damage: {other}"),
                    }
                }
            }
        }
    }
}
