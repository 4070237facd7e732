//! Kernel-level measurements: the `columnar` kernels and the `storage`
//! codec called directly on the workload's own tables, so that a change in
//! a class median can be traced down to the kernel that moved.

use crate::inputs::{Scale, Tables};
use crate::metric::Metric;
use div_algebra::{AggregateCall, CompareOp, Predicate};
use div_columnar::{kernels, ColumnarBatch, KeyVector};
use div_storage::{SpillManager, TableReader, TableWriter, DEFAULT_CHUNK_ROWS};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Nanoseconds per row of `f`, once per repetition; the first failure
/// ends the measurement.
fn ns_per_row<T, E: std::fmt::Display>(
    reps: usize,
    rows: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f().map_err(|e| e.to_string())?);
            Ok(started.elapsed().as_nanos() as f64 / rows.max(1) as f64)
        })
        .collect()
}

fn infallible<T>(value: T) -> Result<T, std::convert::Infallible> {
    Ok(value)
}

/// `columnar.*.ns_per_row`: each kernel over the whole `supplies` table
/// (the divisor sides are `parts`), per dividend row.
pub fn columnar_metrics(tables: &Tables, reps: usize) -> Result<Vec<Metric>, String> {
    let rows = tables.supplies().len();
    let supplies = ColumnarBatch::from_relation(tables.supplies());
    let parts = ColumnarBatch::from_relation(tables.parts());
    let blue = kernels::filter(&parts, &Predicate::eq_value("color", "blue"))
        .and_then(|blue| kernels::project(&blue, &["p#"]))
        .map_err(|e| e.to_string())?;
    let all_columns: Vec<usize> = (0..supplies.columns().len()).collect();
    let count = [AggregateCall::count("p#", "n")];

    let metric = |name: &str, samples: Result<Vec<f64>, String>| {
        samples.map(|s| Metric::from_samples(&format!("columnar.{name}.ns_per_row"), "ns/row", &s))
    };
    Ok(vec![
        metric(
            "from_relation",
            ns_per_row(reps, rows, || {
                infallible(ColumnarBatch::from_relation(tables.supplies()))
            }),
        )?,
        metric(
            "key_vector",
            ns_per_row(reps, rows, || {
                infallible(KeyVector::build(&supplies, &all_columns))
            }),
        )?,
        metric(
            "hash_divide",
            ns_per_row(reps, rows, || kernels::hash_divide(&supplies, &blue)),
        )?,
        metric(
            "hash_great_divide",
            ns_per_row(reps, rows, || kernels::hash_great_divide(&supplies, &parts)),
        )?,
        metric(
            "hash_natural_join",
            ns_per_row(reps, rows, || {
                kernels::hash_natural_join(&supplies, &supplies)
            }),
        )?,
        metric(
            "hash_aggregate",
            ns_per_row(reps, rows, || {
                kernels::hash_aggregate(&supplies, &["s#"], &count)
            }),
        )?,
    ])
}

/// `storage.*`: write cost, space and read cost of `supplies` as a
/// `.divcol` file under `dir`, side by side (warm page cache: decode and
/// encode cost, not device latency).
pub fn storage_metrics(
    tables: &Tables,
    scale: Scale,
    dir: &Path,
    reps: usize,
) -> Result<Vec<Metric>, String> {
    let err = |e: div_storage::StorageError| e.to_string();
    let rows = tables.supplies().len();
    let path = dir.join("kernel_probe.divcol");

    let write = ns_per_row(reps, rows, || {
        TableWriter::write_relation(&path, tables.supplies(), DEFAULT_CHUNK_ROWS)
    })?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let reader = TableReader::open(&path).map_err(err)?;

    // Drain a scan; returns the chunks it skipped.
    let drain = |reader: &TableReader, predicate: Option<&Predicate>| -> Result<usize, String> {
        let mut cursor = reader.scan(predicate).map_err(err)?;
        let mut n = 0;
        while let Some(chunk) = cursor.next_chunk().map_err(err)? {
            n += black_box(chunk).num_rows();
        }
        if predicate.is_none() && n != rows {
            return Err(format!("full scan returned {n} of {rows} rows"));
        }
        Ok(cursor.chunks_skipped())
    };
    let scan_full = ns_per_row(reps, rows, || drain(&reader, None))?;
    let selective = Predicate::cmp_value("s#", CompareOp::Lt, scale.filter_bound());
    let skipped = drain(&reader, Some(&selective))?;

    let batch = ColumnarBatch::from_relation(tables.supplies());
    let chunks: Vec<ColumnarBatch> = (0..rows)
        .step_by(DEFAULT_CHUNK_ROWS)
        .map(|start| {
            let end = (start + DEFAULT_CHUNK_ROWS).min(rows);
            batch.gather(&(start..end).collect::<Vec<usize>>())
        })
        .collect();
    let spill = ns_per_row(reps, rows, || {
        let mut manager = SpillManager::new().map_err(err)?;
        let mut writer = manager.create_file(batch.schema().clone()).map_err(err)?;
        for chunk in &chunks {
            writer.write(chunk).map_err(err)?;
        }
        let spilled = writer.finish().map_err(err)?.open().map_err(err)?;
        drain(&spilled, None)
    })?;
    let _ = std::fs::remove_file(&path);

    Ok(vec![
        Metric::from_samples("storage.write.ns_per_row", "ns/row", &write),
        Metric::scalar(
            "storage.bytes_per_row",
            "B/row",
            bytes as f64 / rows.max(1) as f64,
        ),
        Metric::from_samples("storage.scan_full.ns_per_row", "ns/row", &scan_full),
        Metric::scalar(
            "storage.scan_zonemap.chunks_skipped_frac",
            "fraction",
            skipped as f64 / reader.chunk_count().max(1) as f64,
        ),
        Metric::from_samples("storage.spill_roundtrip.ns_per_row", "ns/row", &spill),
    ])
}
