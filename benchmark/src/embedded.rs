//! The two embedded workloads: an in-process `Engine`, one thread, tables
//! large enough that execution is nearly all of a statement, every cursor
//! drained.
//!
//! * `embedded_ram`: both tables in RAM.
//! * `embedded_spill`: the same statements over the same rows, but
//!   `supplies` is an attached `.divcol` file and the engine runs under a
//!   resident-row budget of an eighth of the input with spilling on.
//!   Class by class against `embedded_ram` it *is* the out-of-core
//!   penalty. The page cache is warm: the numbers are decode and
//!   partition cost, not device latency.

use crate::calib::{RefClock, Reference};
use crate::check::{Checksum, Expected};
use crate::inputs::{
    embedded_rotation, rotation_order, Scale, Statement, Tables, EMBEDDED_CLASSES,
};
use crate::metric::Metric;
use crate::traced::{report_trace, run_in_process, traced_pass, TraceInput, FULL_PASSES};
use crate::workload::{
    peak_rss_mb, repeat_setup, Options, Pacer, Report, Reservoir, TimedRun, Workload,
};
use div_columnar::ColumnarBatch;
use div_expr::{evaluate, Catalog};
use div_physical::PlannerConfig;
use div_sql::Engine;
use div_storage::{TableReader, TableWriter, DEFAULT_CHUNK_ROWS};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `embedded_spill` may keep this fraction of its input rows resident.
const BUDGET_FRACTION: usize = 8;

struct Setup {
    tables: Tables,
    /// The catalog the engine runs over (for `embedded_spill`, `supplies`
    /// is the attached file).
    catalog: Catalog,
    config: PlannerConfig,
    engine: Engine,
    statements: Vec<Statement>,
    expected: Vec<Expected>,
}

fn setup(
    seed: u64,
    scale: Scale,
    spill_file: Option<&Path>,
    clock: &mut RefClock,
) -> Result<Setup, String> {
    let tables = Tables::generate(seed, scale);
    clock.tick();
    let ram = tables.catalog();
    let statements = embedded_rotation(&ram, scale);
    let expected = statements
        .iter()
        .map(|s| {
            let expected = evaluate(&s.reference, &ram).map(|r| Expected::new(&r));
            clock.tick();
            expected
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reference evaluation: {e}"))?;

    let (catalog, config) = match spill_file {
        None => (ram, PlannerConfig::default()),
        Some(path) => {
            TableWriter::write_relation(path, tables.supplies(), DEFAULT_CHUNK_ROWS)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            let reader =
                TableReader::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
            let mut catalog = Catalog::new();
            catalog.register("parts", tables.parts().clone());
            catalog.register_external("supplies", Arc::new(reader));
            let budget = (tables.supplies().len() / BUDGET_FRACTION).max(1);
            (
                catalog,
                PlannerConfig::default()
                    .memory_budget_rows(budget)
                    .spill_to_disk(true),
            )
        }
    };
    let engine = Engine::builder(catalog.clone())
        .planner_config(config)
        .build();
    Ok(Setup {
        tables,
        catalog,
        config,
        engine,
        statements,
        expected,
    })
}

/// Whole passes of the rotation until `length` has gone by (so that every
/// class has the same share of the samples), with a run of the reference
/// kernel after every statement.
fn run_passes(setup: &Setup, order: &[usize], length: Duration, whole: bool) -> TimedRun {
    let sink = Mutex::new(Reservoir::new(Reservoir::DEFAULT_CAP));
    let started = Instant::now();
    let mut pacer = Pacer::start(&sink, Reference::cpu());
    let mut passes = 0;
    while passes == 0 || started.elapsed() < length {
        for &i in order {
            let t0 = Instant::now();
            let result = run_in_process(&setup.engine, &setup.statements[i], None);
            let latency = t0.elapsed();
            let ok = result.is_ok_and(|batches| {
                if whole {
                    setup.expected[i].matches_batches(&batches)
                } else {
                    Checksum::of_batches(&batches) == setup.expected[i].checksum
                }
            });
            pacer.record(i, latency, ok);
            pacer.calibrate();
        }
        pacer.end_pass();
        passes += 1;
    }
    let totals = pacer.finish();
    TimedRun::collect(sink, vec![totals])
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let spill = opts.workload == Workload::EmbeddedSpill;
    let scale = if opts.quick {
        Scale::EMBEDDED.quick()
    } else {
        Scale::EMBEDDED
    };
    let table_file = opts.out_dir.join("embedded_spill.divcol");
    let (setup, setup_metrics) = repeat_setup(opts.quick || opts.trace, |clock| {
        setup(
            opts.seed,
            scale,
            spill.then_some(table_file.as_path()),
            clock,
        )
    })?;
    let mut report = Report::default();
    report.info("input_rows", setup.tables.input_rows());
    report.info("input_bytes", setup.tables.input_bytes());
    report.info(
        "load",
        "closed loop, 1 thread, in-process Engine, cursors drained",
    );
    if spill {
        let file_bytes = std::fs::metadata(&table_file).map_or(0, |m| m.len());
        report.info("table_file_bytes", file_bytes);
        report.info(
            "memory_budget_rows",
            setup.config.memory_budget_rows.unwrap_or(0),
        );
        report.info(
            "page_cache",
            "warm: decode and partition cost, not device latency",
        );
    }

    let order = rotation_order(opts.seed, setup.statements.len());
    let warmup = run_passes(&setup, &order, opts.warmup(), true);
    let compiles_before = setup.engine.compile_count();
    let timed = run_passes(&setup, &order, opts.timed(), false);

    report.attempted = timed.attempted();
    report.failed = timed.failed();
    report.correct = timed.failed() == 0 && warmup.failed() == 0;
    report.info("warmup_statements", warmup.attempted());
    report.info("warmup_failed", warmup.failed());
    report.info("timed_samples", timed.attempted() - timed.failed());
    report.metrics.extend(setup_metrics);
    report.metrics.extend(timed.metrics());

    if opts.trace {
        report.metrics.push(Metric::scalar(
            "sql.compiles_per_statement",
            "ratio",
            (setup.engine.compile_count() - compiles_before) as f64
                / timed.attempted().max(1) as f64,
        ));
        for (c, class) in EMBEDDED_CLASSES.iter().enumerate() {
            report.metrics.push(Metric::from_samples(
                &format!("sql.engine.{class}.p50_ms"),
                "ms",
                &timed.latencies_ms(Some(c)),
            ));
        }
        let expected = &setup.expected;
        let check = |i: usize, batches: &[ColumnarBatch]| {
            Checksum::of_batches(batches) == expected[i].checksum
        };
        let traced = traced_pass(TraceInput {
            statements: &setup.statements,
            order: &order,
            check: &check,
            wire_lines: None,
            prepared: false,
            catalog: setup.catalog.clone(),
            config: setup.config,
            client: None,
            budget: opts.traced_budget(),
            max_passes: if opts.quick { 2 } else { FULL_PASSES },
        })?;
        report_trace(opts, &mut report, traced, &setup.tables, scale)?;
    }

    drop(setup);
    if spill {
        let _ = std::fs::remove_file(&table_file);
    }
    report
        .metrics
        .push(Metric::scalar("peak_rss_mb", "MB", peak_rss_mb()));
    Ok(report)
}
