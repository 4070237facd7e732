//! Differential and adversarial tests for the `div-storage` columnar table
//! format.
//!
//! * **Round trip** — random relations mixing every storable value kind
//!   (NULL, bool, int, low-cardinality dictionary strings, high-cardinality
//!   strings) survive `TableWriter` → `TableReader` byte-identically at
//!   arbitrary chunk geometries, including the empty table.
//! * **Corruption** — flipping *any single byte* of a written file surfaces
//!   as a typed [`StorageError`] (checksum mismatch, bad magic, corrupt
//!   structure…), never a panic and never silently wrong data. Truncations
//!   at every length are rejected the same way.
//! * **Structured mutation** — CRCs catch damage, not a crafted file, so
//!   the reader bounds every count it reads by the bytes that must back it
//!   before allocating for it. The sweep sets each footer field (version,
//!   arity, name lengths, total rows, chunk count, each chunk's offset /
//!   length / rows / CRC, zone tags) and each chunk-header field (column
//!   tag, validity flag, encoding tag, run count, dictionary length) to 0,
//!   1, its maximum and its true value ± 1, recomputes the chunk and footer
//!   CRCs, and requires `open` plus a full drain to return either the
//!   footer's row count or a typed error — never a panic or an abort.
//! * **Format pin** — a fixed relation is written to the same bytes as by
//!   every earlier build of format version 2 (length and whole-file CRC,
//!   computed bit by bit here), so files written before still open.
//! * **Zone maps** — a scan under a pushed-down predicate skips exactly the
//!   chunks whose min/max zones exclude it, and still returns exactly the
//!   matching rows.

use div_algebra::{relation, CompareOp, Predicate, Relation, Value};
use div_storage::{crc32, StorageError, TableReader, TableWriter};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique throwaway path under the OS temp dir (tests run concurrently
/// in one process, and several processes may share the machine).
fn temp_path(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "div_storage_format_{}_{tag}_{n}.divcol",
        std::process::id()
    ))
}

/// Remove the file on every exit path, assertion failures included.
struct RemoveOnDrop(std::path::PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Decode one generated `(kind, payload)` pair into a concrete value. The
/// kinds cover everything the codec stores: NULL, bool, int, strings that
/// dictionary-encode well (7 distinct), and strings that do not.
fn value_for(kind: u32, payload: i64) -> Value {
    match kind % 5 {
        0 => Value::Null,
        1 => Value::Bool(payload % 2 == 0),
        2 => Value::Int(payload),
        3 => Value::str(format!("tag-{}", payload.rem_euclid(7))),
        _ => Value::str(format!("unique-{payload}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// `Relation -> file -> Relation` is lossless for every mix of value
    /// kinds and every chunk size, and the footer row count matches.
    #[test]
    fn file_roundtrip_is_lossless(
        rows in prop::collection::vec((0u32..5, -50i64..50, 0u32..5, -50i64..50), 0..60),
        chunk_rows in 1usize..17,
    ) {
        let relation = Relation::from_rows(
            ["a", "b"],
            rows.iter().map(|&(k1, p1, k2, p2)| vec![value_for(k1, p1), value_for(k2, p2)]),
        )
        .unwrap();
        let path = temp_path("roundtrip");
        let _cleanup = RemoveOnDrop(path.clone());
        TableWriter::write_relation(&path, &relation, chunk_rows).unwrap();
        let reader = TableReader::open(&path).unwrap();
        prop_assert_eq!(reader.schema(), relation.schema());
        prop_assert_eq!(reader.row_count(), relation.len());
        prop_assert_eq!(reader.to_relation().unwrap(), relation);
    }
}

#[test]
fn empty_table_roundtrips() {
    let path = temp_path("empty");
    let _cleanup = RemoveOnDrop(path.clone());
    let empty = Relation::empty(div_algebra::Schema::new(["a", "b"]).unwrap());
    TableWriter::write_relation(&path, &empty, 4).unwrap();
    let reader = TableReader::open(&path).unwrap();
    assert_eq!(reader.row_count(), 0);
    assert_eq!(reader.chunk_count(), 0);
    assert_eq!(reader.to_relation().unwrap(), empty);
}

#[test]
fn every_flipped_byte_surfaces_as_a_typed_error() {
    let path = temp_path("flip");
    let _cleanup = RemoveOnDrop(path.clone());
    let relation = relation! {
        ["a", "b"] => [1, "x"], [2, "y"], [3, "x"], [4, "z"], [5, "y"], [6, "w"]
    };
    TableWriter::write_relation(&path, &relation, 2).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    assert_eq!(
        TableReader::open(&path).unwrap().to_relation().unwrap(),
        relation,
        "pristine file must read back"
    );
    for i in 0..pristine.len() {
        let mut mutated = pristine.clone();
        mutated[i] ^= 0xFF;
        std::fs::write(&path, &mutated).unwrap();
        // Every byte of the file is covered by a check: leading magic,
        // chunk CRCs, footer CRC, or the trailer fields. A full read must
        // therefore fail — and fail as a typed error, not a panic.
        let outcome = TableReader::open(&path).and_then(|r| r.to_relation());
        assert!(
            outcome.is_err(),
            "flipped byte {i} of {} went undetected",
            pristine.len()
        );
    }
}

#[test]
fn truncations_at_every_length_are_rejected() {
    let path = temp_path("truncate");
    let _cleanup = RemoveOnDrop(path.clone());
    let relation = relation! { ["a"] => [1], [2], [3], [4] };
    TableWriter::write_relation(&path, &relation, 2).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    for len in 0..pristine.len() {
        std::fs::write(&path, &pristine[..len]).unwrap();
        let outcome = TableReader::open(&path).and_then(|r| r.to_relation());
        assert!(
            outcome.is_err(),
            "truncation to {len} bytes went undetected"
        );
    }
}

/// One little-endian field of a written file: where it sits, how wide it
/// is, its written value, and which chunk's CRC covers it (`None`: the
/// footer's).
struct Field {
    name: String,
    at: usize,
    width: usize,
    truth: u64,
    chunk: Option<usize>,
}

/// A chunk's extent, its row count, and where the footer stores its CRC.
struct Extent {
    start: usize,
    end: usize,
    rows: usize,
    crc_at: usize,
}

/// A cursor over a written file that records the fields it reads.
struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
    fields: Vec<Field>,
}

impl Walk<'_> {
    fn read(&mut self, width: usize) -> u64 {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(&self.bytes[self.pos..self.pos + width]);
        self.pos += width;
        u64::from_le_bytes(le)
    }

    fn field(&mut self, name: String, width: usize, chunk: Option<usize>) -> u64 {
        let at = self.pos;
        let truth = self.read(width);
        self.fields.push(Field {
            name,
            at,
            width,
            truth,
            chunk,
        });
        truth
    }

    fn skip_str(&mut self) {
        let len = self.read(4) as usize;
        self.pos += len;
    }
}

/// The fields of a pristine file (footer, then every chunk's column
/// headers), its chunk extents, and the footer's extent. Knows the layout of
/// int and string columns, which is all the sweep's relation has.
fn file_fields(file: &[u8]) -> (Vec<Field>, Vec<Extent>, std::ops::Range<usize>) {
    let trailer = file.len() - 20;
    let footer_len = u64::from_le_bytes(file[trailer..trailer + 8].try_into().unwrap()) as usize;
    let mut w = Walk {
        bytes: file,
        pos: trailer - footer_len,
        fields: Vec::new(),
    };
    let footer = w.pos..trailer;
    w.field("version".into(), 2, None);
    let arity = w.field("arity".into(), 4, None) as usize;
    for col in 0..arity {
        let len = w.field(format!("name {col} length"), 4, None);
        w.pos += len as usize;
    }
    w.field("total rows".into(), 8, None);
    let chunk_count = w.field("chunk count".into(), 4, None) as usize;
    let mut chunks = Vec::new();
    for c in 0..chunk_count {
        let start = w.field(format!("chunk {c} offset"), 8, None) as usize;
        let len = w.field(format!("chunk {c} len"), 8, None) as usize;
        let rows = w.field(format!("chunk {c} rows"), 4, None) as usize;
        let crc_at = w.pos;
        w.field(format!("chunk {c} crc"), 4, None);
        for col in 0..arity {
            match w.field(format!("chunk {c} zone {col} tag"), 1, None) {
                0 => {}
                1 => w.pos += 24,
                _ => {
                    w.skip_str();
                    w.skip_str();
                    w.pos += 8;
                }
            }
        }
        chunks.push(Extent {
            start,
            end: start + len,
            rows,
            crc_at,
        });
    }
    assert_eq!(w.pos, trailer, "the walk covers the whole footer");
    for (c, extent) in chunks.iter().enumerate() {
        let rows = extent.rows;
        w.pos = extent.start;
        let chunk = Some(c);
        for col in 0..arity {
            let name = |what: &str| format!("chunk {c} column {col} {what}");
            let tag = w.field(name("tag"), 1, chunk);
            if w.field(name("validity flag"), 1, chunk) == 1 {
                w.pos += rows;
            }
            let (width, run_width) = match tag {
                0 => (8, 12),
                2 => {
                    let dict = w.field(name("dictionary length"), 4, chunk);
                    for _ in 0..dict {
                        w.skip_str();
                    }
                    (4, 8)
                }
                other => panic!("the sweep relation has no column of tag {other}"),
            };
            if w.field(name("encoding tag"), 1, chunk) == 0 {
                w.pos += rows * width;
            } else {
                let runs = w.field(name("run count"), 4, chunk) as usize;
                w.pos += runs * run_width;
            }
        }
        assert_eq!(w.pos, extent.end, "the walk covers chunk {c}");
    }
    (w.fields, chunks, footer)
}

/// `open` plus a full drain: the rows drained and the footer's count.
fn drain(path: &std::path::Path) -> Result<(usize, usize), StorageError> {
    let reader = TableReader::open(path)?;
    let mut cursor = reader.scan(None)?;
    let mut rows = 0;
    while let Some(chunk) = cursor.next_chunk()? {
        rows += chunk.num_rows();
    }
    Ok((rows, reader.row_count()))
}

#[test]
fn crafted_counts_and_tags_are_typed_errors_never_aborts() {
    let path = temp_path("mutate");
    let _cleanup = RemoveOnDrop(path.clone());
    // Per 8-row chunk: `g` is constant (an int run), `s` is two runs of
    // dictionary codes, `v` is plain ints and `n` plain with NULLs.
    let relation = Relation::from_rows(
        ["g", "s", "v", "n"],
        (0..16i64).map(|i| {
            let n = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i * 10)
            };
            vec![
                Value::Int(i / 8),
                Value::str(if i % 2 == 0 { "x" } else { "y" }),
                Value::Int(i),
                n,
            ]
        }),
    )
    .unwrap();
    TableWriter::write_relation(&path, &relation, 8).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let (fields, chunks, footer) = file_fields(&pristine);
    for what in [
        "run count",
        "dictionary length",
        "validity flag",
        "encoding tag",
    ] {
        assert!(
            fields.iter().any(|f| f.name.ends_with(what)),
            "the sweep reaches a {what}"
        );
    }

    let mut rejected = 0;
    for field in &fields {
        let max = u64::MAX >> (64 - 8 * field.width);
        let truth = field.truth;
        for value in [
            0,
            1,
            max,
            truth.wrapping_sub(1) & max,
            truth.wrapping_add(1) & max,
        ] {
            let mut file = pristine.clone();
            file[field.at..field.at + field.width]
                .copy_from_slice(&value.to_le_bytes()[..field.width]);
            if let Some(c) = field.chunk {
                let extent = &chunks[c];
                let crc = crc32(&file[extent.start..extent.end]);
                file[extent.crc_at..extent.crc_at + 4].copy_from_slice(&crc.to_le_bytes());
            }
            let crc = crc32(&file[footer.clone()]);
            file[footer.end + 8..footer.end + 12].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &file).unwrap();

            let label = format!("{} = {value} (true {truth})", field.name);
            let outcome = std::panic::catch_unwind(|| drain(&path))
                .unwrap_or_else(|_| panic!("{label}: the reader panicked"));
            match outcome {
                Ok((rows, footer_rows)) => {
                    assert_eq!(
                        rows, footer_rows,
                        "{label}: drained rows against the footer"
                    );
                }
                Err(
                    StorageError::Corrupt { .. }
                    | StorageError::ChecksumMismatch { .. }
                    | StorageError::UnsupportedVersion { .. },
                ) => rejected += 1,
                Err(other) => panic!("{label}: unexpected error kind {other}"),
            }
        }
    }
    assert!(rejected > 0, "the sweep must reject something");
}

/// CRC-32/IEEE by its definition, one bit at a time, independent of the
/// crate's kernel.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

#[test]
fn a_fixed_relation_is_written_to_the_same_bytes() {
    let path = temp_path("pin");
    let _cleanup = RemoveOnDrop(path.clone());
    // Every column kind the codec stores: RLE and plain ints, a nullable
    // int, dictionary strings, bools, and a mixed column with a set.
    let relation = Relation::from_rows(
        ["k", "s", "b", "n", "m"],
        (0..40i64).map(|i| {
            let n = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i * 7)
            };
            let m = match i % 3 {
                0 => Value::Int(i),
                1 => Value::str(format!("m{i}")),
                _ => Value::set([i, i + 1]),
            };
            vec![
                Value::Int(i / 16),
                Value::str(format!("tag-{}", i % 3)),
                Value::Bool(i % 2 == 0),
                n,
                m,
            ]
        }),
    )
    .unwrap();
    TableWriter::write_relation(&path, &relation, 16).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(crc32(&bytes), reference_crc32(&bytes));
    assert_eq!(
        (bytes.len(), reference_crc32(&bytes)),
        (1567, 0xC040_B1EC),
        "the file bytes of format version 2 moved"
    );
    assert_eq!(
        TableReader::open(&path).unwrap().to_relation().unwrap(),
        relation
    );
}

#[test]
fn zone_maps_skip_excluded_chunks_and_keep_matching_rows() {
    let path = temp_path("zones");
    let _cleanup = RemoveOnDrop(path.clone());
    // Values arrive sorted, so each 8-row chunk owns a disjoint `a` range
    // and a selective predicate can prove most chunks irrelevant.
    let relation = Relation::from_rows(["a", "b"], (0..64i64).map(|i| vec![i, i % 5])).unwrap();
    TableWriter::write_relation(&path, &relation, 8).unwrap();
    let reader = TableReader::open(&path).unwrap();
    assert_eq!(reader.chunk_count(), 8);

    let predicate = Predicate::cmp_value("a", CompareOp::Lt, 8);
    let mut cursor = reader.scan(Some(&predicate)).unwrap();
    let mut matched = 0usize;
    while let Some(chunk) = cursor.next_chunk().unwrap() {
        for row in 0..chunk.num_rows() {
            // Surviving chunks may still hold non-matching rows; the scan
            // contract is only "never skips a matching row".
            if let Some(Value::Int(a)) = chunk.row(row).get(0) {
                if *a < 8 {
                    matched += 1;
                }
            }
        }
    }
    assert_eq!(matched, 8, "all matching rows must surface");
    assert_eq!(cursor.chunks_skipped(), 7, "seven of eight chunks excluded");

    // An unfiltered scan skips nothing.
    let mut cursor = reader.scan(None).unwrap();
    let mut total = 0usize;
    while let Some(chunk) = cursor.next_chunk().unwrap() {
        total += chunk.num_rows();
    }
    assert_eq!(total, 64);
    assert_eq!(cursor.chunks_skipped(), 0);
}
