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
//!
//! A process that dies without unwinding (killed, aborted) leaves its
//! directories behind, so the first manager of each process sweeps the temp
//! dir for directories of processes that no longer exist.

use crate::{Result, StorageError, TableReader, TableWriter};
use div_algebra::Schema;
use div_columnar::ColumnarBatch;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Process-wide counter so concurrent queries (and tests) get distinct
/// spill directories.
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Remove every `div-spill-{pid}-{n}` entry of `dir` whose process is gone:
/// `{pid}` parses, is not this process, and has no `/proc/{pid}`. Where
/// `/proc` does not exist, liveness cannot be told and nothing is removed.
/// A live process in another PID namespace sharing `dir` would look dead,
/// so `dir` is assumed private to one namespace, as a temp dir is.
fn sweep_stale_dirs(dir: &Path) {
    let proc = Path::new("/proc");
    if !proc.is_dir() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let own = std::process::id();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|name| name.strip_prefix("div-spill-"))
            .and_then(|rest| rest.split_once('-'))
            .filter(|(_, n)| n.parse::<u64>().is_ok())
            .and_then(|(pid, _)| pid.parse::<u32>().ok());
        if let Some(pid) = pid {
            if pid != own && !proc.join(pid.to_string()).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// Owns a temporary directory of spill files; removes it on drop.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    next_file: u64,
    files_created: usize,
}

impl SpillManager {
    /// Create a fresh spill directory under the system temp dir. The first
    /// call in a process also removes the directories that dead processes
    /// left there.
    pub fn new() -> Result<SpillManager> {
        static SWEEP: Once = Once::new();
        SWEEP.call_once(|| sweep_stale_dirs(&std::env::temp_dir()));
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
    fn the_sweep_removes_only_directories_of_dead_processes() {
        if !Path::new("/proc").is_dir() {
            return; // no liveness to read, so the sweep removes nothing
        }
        let root = std::env::temp_dir().join(format!("div_spill_sweep_{}", std::process::id()));
        let dead = root.join("div-spill-4294967295-0");
        let kept = [
            format!("div-spill-{}-0", std::process::id()),
            "div-spill-1-0".to_string(),
            "div-spill-x".to_string(),
        ];
        std::fs::create_dir_all(&dead).unwrap();
        std::fs::write(dead.join("part-000000.divt"), b"left by a crash").unwrap();
        for name in &kept {
            std::fs::create_dir_all(root.join(name)).unwrap();
        }
        sweep_stale_dirs(&root);
        assert!(!dead.exists(), "a dead process's directory is removed");
        for name in &kept {
            assert!(root.join(name).is_dir(), "{name} is kept");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn managers_get_distinct_directories() {
        let a = SpillManager::new().unwrap();
        let b = SpillManager::new().unwrap();
        assert_ne!(a.dir(), b.dir());
    }
}
