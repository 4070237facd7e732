//! Spill-file lifecycle for out-of-core operators.
//!
//! A [`SpillManager`] owns one process-unique temporary directory; every
//! spill partition is a table-format file ([`crate::TableWriter`] /
//! [`crate::TableReader`]) inside it, so spilled data gets the same
//! encodings, checksums and chunk-at-a-time access as persistent tables.
//! The directory — and everything in it — is removed when the manager is
//! dropped, which is what makes cleanup automatic on *every* exit path of a
//! spilling operator: success, budget abort, cancellation, or a failpoint
//! error mid-spill all unwind through the operator's owned manager.

use crate::{Result, StorageError, TableReader, TableWriter};
use div_algebra::Schema;
use div_columnar::ColumnarBatch;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide counter so concurrent queries (and tests) get distinct
/// spill directories.
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Owns a temporary directory of spill files; removes it on drop.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    next_file: u64,
    files_created: usize,
}

impl SpillManager {
    /// Create a fresh spill directory under the system temp dir.
    pub fn new() -> Result<SpillManager> {
        let dir = std::env::temp_dir().join(format!(
            "div-spill-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::Io {
            context: format!("create spill dir {}", dir.display()),
            message: e.to_string(),
        })?;
        Ok(SpillManager {
            dir,
            next_file: 0,
            files_created: 0,
        })
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of spill files created through this manager so far.
    pub fn files_created(&self) -> usize {
        self.files_created
    }

    /// Start a new spill partition file with the given schema.
    pub fn create_file(&mut self, schema: Schema) -> Result<SpillWriter> {
        let path = self.dir.join(format!("part-{:06}.divt", self.next_file));
        self.next_file += 1;
        self.files_created += 1;
        Ok(SpillWriter {
            writer: TableWriter::create_unchecked(&path, schema)?,
            rows: 0,
        })
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// An open spill partition being written.
#[derive(Debug)]
pub struct SpillWriter {
    writer: TableWriter,
    rows: usize,
}

impl SpillWriter {
    /// Append one batch to the partition.
    pub fn write(&mut self, batch: &ColumnarBatch) -> Result<()> {
        self.rows += batch.num_rows();
        self.writer.write_batch(batch)
    }

    /// Rows written so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Seal the partition; the handle can then be read back.
    pub fn finish(self) -> Result<SpillHandle> {
        let path = self.writer.path().to_path_buf();
        let rows = self.rows;
        self.writer.finish()?;
        Ok(SpillHandle { path, rows })
    }
}

/// A sealed, readable spill partition.
#[derive(Debug, Clone)]
pub struct SpillHandle {
    path: PathBuf,
    rows: usize,
}

impl SpillHandle {
    /// Rows in the partition (tracked at write time — no IO).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Open the partition for chunk-at-a-time reading.
    pub fn open(&self) -> Result<TableReader> {
        TableReader::open(&self.path)
    }

    /// Delete the partition file eagerly (recursive re-partitioning
    /// replaces files; waiting for the manager drop would double disk
    /// usage per recursion level).
    pub fn delete(self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    #[test]
    fn spill_files_round_trip_and_directory_is_removed_on_drop() {
        let mut manager = SpillManager::new().unwrap();
        let dir = manager.dir().to_path_buf();
        assert!(dir.is_dir());
        let batch = ColumnarBatch::from_relation(&relation! { ["a", "b"] => [1, 2], [3, 4] });
        let mut writer = manager.create_file(batch.schema().clone()).unwrap();
        writer.write(&batch).unwrap();
        writer.write(&batch).unwrap();
        assert_eq!(writer.rows(), 4);
        let handle = writer.finish().unwrap();
        assert_eq!(handle.rows(), 4);
        let reader = handle.open().unwrap();
        assert_eq!(reader.row_count(), 4);
        assert_eq!(reader.chunk_count(), 2);
        assert_eq!(manager.files_created(), 1);
        drop(manager);
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn managers_get_distinct_directories() {
        let a = SpillManager::new().unwrap();
        let b = SpillManager::new().unwrap();
        assert_ne!(a.dir(), b.dir());
    }
}
