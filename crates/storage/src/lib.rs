//! # div-storage
//!
//! Out-of-core foundations for the division engine: a persistent columnar
//! table format and the spill-file machinery the hybrid hash operators
//! use when a query outgrows its resident-row budget.
//!
//! Graefe's hash-division family (the algorithms this workspace
//! reproduces) is explicitly a *spilling partitioned-hash* design: when the
//! build-side state no longer fits, partition the inputs on the hash of
//! the key, push the partitions to disk, and recurse per partition. This
//! crate supplies the disk half of that story:
//!
//! * [`TableWriter`] / [`TableReader`] — a chunked columnar file format
//!   (dictionary + RLE string encoding, RLE-or-plain integers, per-column
//!   min/max zone maps, CRC-32 on every chunk and on the footer) that
//!   round-trips every [`div_algebra::Relation`] losslessly and, like a
//!   relation, holds a set: the writer refuses a repeated row;
//! * [`TableScanCursor`] — chunk-at-a-time reads with zone-map chunk
//!   skipping under a pushed-down [`div_algebra::Predicate`]. The reader
//!   and its cursor implement [`div_expr::TableSource`] /
//!   [`div_expr::ChunkScan`], so a file attached to the catalog is counted
//!   from its footer and scanned by the same operator as a registered
//!   table, without ever being loaded;
//! * [`SpillManager`] — temp-directory lifecycle for spill partitions,
//!   which reuse the same file format (same checksums, same cursors).
//!
//! Every failure — IO, truncation, a single flipped byte — surfaces as a
//! typed [`StorageError`], which converts into
//! [`div_expr::ExprError::Storage`] at the engine boundary.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod codec;
pub mod spill;
pub mod table;

pub use checksum::crc32;
pub use codec::MAX_SET_DEPTH;
pub use spill::{SpillHandle, SpillManager, SpillWriter};
pub use table::{TableReader, TableScanCursor, TableWriter, MAX_CHUNK_ROWS};

// Zone maps and the default chunk size are shared with the resident
// segments of in-memory tables, so they live in `div-columnar`.
pub use div_columnar::{chunk_may_match, ColumnZone, DEFAULT_CHUNK_ROWS};

use std::fmt;

/// Error type of the `div-storage` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operating-system IO failure.
    Io {
        /// What was being attempted.
        context: String,
        /// The OS error message.
        message: String,
    },
    /// The file does not start (or end) with the format magic — it is not
    /// a div-storage table at all, or its first/last bytes were damaged.
    BadMagic {
        /// The offending file.
        context: String,
    },
    /// The footer declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the footer.
        found: u16,
    },
    /// Stored and recomputed CRC-32 disagree: the bytes were altered.
    ChecksumMismatch {
        /// Which region failed (footer, chunk index…).
        context: String,
        /// The CRC recorded at write time.
        expected: u32,
        /// The CRC of the bytes actually read.
        actual: u32,
    },
    /// Structurally invalid bytes (truncation, out-of-range lengths,
    /// invalid tags) — damage the checksums could not attribute.
    Corrupt {
        /// What failed to decode.
        context: String,
    },
    /// A batch the table cannot take: its schema is not the table's, or a
    /// value nests sets deeper than [`MAX_SET_DEPTH`].
    Schema {
        /// Human-readable description.
        reason: String,
    },
    /// A batch repeated a row already in the table: a table is a set.
    DuplicateRow {
        /// The table being written.
        context: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { context, message } => write!(f, "io error ({context}): {message}"),
            StorageError::BadMagic { context } => {
                write!(f, "not a div-storage table file: {context}")
            }
            StorageError::UnsupportedVersion { found } => {
                write!(f, "unsupported table format version {found}")
            }
            StorageError::ChecksumMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {context}: stored {expected:#010x}, computed {actual:#010x}"
            ),
            StorageError::Corrupt { context } => write!(f, "corrupt table file: {context}"),
            StorageError::Schema { reason } => write!(f, "schema error: {reason}"),
            StorageError::DuplicateRow { context } => {
                write!(f, "duplicate row refused: {context} already holds it")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<StorageError> for div_expr::ExprError {
    fn from(err: StorageError) -> Self {
        div_expr::ExprError::Storage {
            detail: err.to_string(),
        }
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
