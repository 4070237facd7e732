//! The scan path on both residencies: registered rows are converted to
//! columnar segments once (on their first scan), an attached `.divcol` file
//! is decoded chunk by chunk, and one scan operator serves either in
//! batches of at most `batch_size` rows.
//!
//! * the scan's chunks, at any batch size, are the table — same rows, same
//!   order, same column representations as one whole-table conversion —
//!   no batch exceeds `batch_size`, a bare filtered scan keeps a few
//!   batches resident whatever the source's chunk size, and an
//!   early-terminated scan reports only what it emitted;
//! * a pushed-down filter skips the chunks its zone maps exclude — the
//!   same ones on both residencies — without changing the result, never
//!   skips a chunk with NULLs in the compared column (the comparison's
//!   type error survives), and `EXPLAIN ANALYZE` shows the skips;
//! * the segments belong to one registration: queries and unrelated
//!   catalog mutations share them, a re-`REGISTER` of the name gets fresh
//!   ones, and a cursor opened before that keeps draining the old rows;
//! * aborting mid-scan (guard trip, injected fault) leaks no resident rows.

use div_algebra::{CompareOp, Predicate, Relation, Value};
use div_columnar::{partition::concat_batches, ColumnarBatch};
use div_expr::{Catalog, ExprError, PlanBuilder};
use div_physical::{
    failpoint, plan_query, CancelToken, ExecStats, FailAction, PhysicalPlan, PlannerConfig,
    QueryGuard, StreamExecutor,
};
use div_sql::Engine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const ROWS: i64 = 2_500;

/// 2,500 rows (three segments: 1024 + 1024 + 452) sorted by `k`, one column
/// per representation:
///
/// * `k` — dense ints, so segment zones are disjoint ranges;
/// * `s` — strings monotone in `k` (ten rows per value), dictionary-coded;
/// * `b` — bools;
/// * `n` — ints with a NULL every hundredth row, so every segment has some;
/// * `m` — ints in the first segment, then ints / strings / sets mixed: the
///   first segment picks `Int`, the others `Mixed`.
fn table() -> Relation {
    Relation::from_rows(
        ["k", "s", "b", "n", "m"],
        (0..ROWS).map(|k| {
            vec![
                Value::Int(k),
                Value::str(format!("s{:04}", k / 10)),
                Value::Bool(k % 3 == 0),
                if k % 100 == 7 {
                    Value::Null
                } else {
                    Value::Int(k % 50)
                },
                match (k < 1024, k % 3) {
                    (true, _) | (false, 0) => Value::Int(k),
                    (false, 1) => Value::str("mixed"),
                    (false, _) => Value::set([k % 5]),
                },
            ]
        }),
    )
    .unwrap()
}

/// How the table under test reaches the catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Residency {
    /// `Catalog::register`: rows in RAM, segments on first scan.
    Registered,
    /// `Catalog::register_external` of a `.divcol` file with 1024-row
    /// chunks — the geometry of the resident segments, so chunk counts and
    /// zone maps agree between the two.
    Attached,
}

const RESIDENCIES: [Residency; 2] = [Residency::Registered, Residency::Attached];

/// The backing file of an attached table; removed on drop.
struct TableFile(std::path::PathBuf);

impl Drop for TableFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A catalog holding [`table`] under `name`, and the file behind it when
/// it is attached.
fn catalog_with(name: &str, residency: Residency) -> (Catalog, Option<TableFile>) {
    let mut c = Catalog::new();
    if residency == Residency::Registered {
        c.register(name, table());
        return (c, None);
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let file = TableFile(std::env::temp_dir().join(format!(
        "div_resident_tables_{}_{}.divcol",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    )));
    div_storage::TableWriter::write_relation(&file.0, &table(), 1024).unwrap();
    c.register_external(
        name,
        Arc::new(div_storage::TableReader::open(&file.0).unwrap()),
    );
    (c, Some(file))
}

fn scan_plan(table: &str, config: &PlannerConfig) -> PhysicalPlan {
    plan_query(&PlanBuilder::scan(table).build(), config).unwrap()
}

/// Pull until the end or the first error; the statistics either way.
fn drive(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
    guard: QueryGuard,
) -> (Result<Vec<ColumnarBatch>, ExprError>, ExecStats) {
    let mut executor = StreamExecutor::with_guard(plan, catalog, config, guard).unwrap();
    let mut chunks = Vec::new();
    let result = loop {
        match executor.next_batch() {
            Ok(Some(chunk)) => chunks.push(chunk),
            Ok(None) => break Ok(chunks),
            Err(err) => break Err(err),
        }
    };
    (result, executor.finish())
}

#[test]
fn scan_chunks_are_the_table_at_every_batch_size() {
    let whole = ColumnarBatch::from_relation(&table());
    for residency in RESIDENCIES {
        let (c, _file) = catalog_with("t", residency);
        for batch_size in [1, 3, 8, 256, 1024, 4096] {
            let at = format!("{residency:?}, batch_size {batch_size}");
            let config = PlannerConfig::default().batch_size(batch_size);
            let plan = scan_plan("t", &config);
            let (chunks, stats) = drive(&plan, &c, &config, QueryGuard::default());
            let chunks = chunks.unwrap();
            assert!(
                chunks
                    .iter()
                    .all(|chunk| (1..=batch_size).contains(&chunk.num_rows())),
                "{at}: chunk sizes {:?}",
                chunks
                    .iter()
                    .map(ColumnarBatch::num_rows)
                    .collect::<Vec<_>>()
            );
            // Representation-equal, not just value-equal: validity masks,
            // dictionary order and codes, and the `Int` → `Mixed`
            // degradation of `m` all come out as a whole-table conversion
            // makes them.
            assert_eq!(concat_batches(&chunks).unwrap(), whole, "{at}");
            assert_eq!(stats.rows_scanned, ROWS as usize, "{at}");
            assert_eq!(stats.chunks_skipped, 0, "{at}");
            assert_eq!(stats.resident_rows_on_finish, 0, "{at}");

            // take(1): the scan reports the one chunk it emitted.
            let mut executor = StreamExecutor::new(&plan, &c, &config).unwrap();
            let first = executor.next_batch().unwrap().unwrap();
            let stats = executor.finish();
            assert_eq!(stats.rows_scanned, first.num_rows(), "{at}");
            assert!(stats.rows_scanned < ROWS as usize, "{at}");

            // A bare filtered scan holds a few batches, not a source chunk.
            let filtered = plan_query(
                &PlanBuilder::scan("t")
                    .select(Predicate::eq_value("b", true))
                    .build(),
                &config,
            )
            .unwrap();
            let (chunks, stats) = drive(&filtered, &c, &config, QueryGuard::default());
            let rows: usize = chunks.unwrap().iter().map(ColumnarBatch::num_rows).sum();
            assert_eq!(rows, (ROWS as usize).div_ceil(3), "{at}");
            assert!(
                stats.peak_resident_rows <= 3 * batch_size,
                "{at}: peak {}",
                stats.peak_resident_rows
            );
        }
        assert_eq!(
            c.tables().count(),
            usize::from(residency == Residency::Registered),
            "{residency:?}: streaming scans load no file into the catalog"
        );
    }
}

#[test]
fn pushed_down_filters_skip_segments_without_changing_results() {
    // The reference evaluator reads rows; give it its own registered copy so
    // that the attached catalog is only ever streamed.
    let (reference_catalog, _) = catalog_with("t", Residency::Registered);
    for residency in RESIDENCIES {
        let (c, _file) = catalog_with("t", residency);
        for (predicate, skipped, scanned) in [
            // Only the last segment can hold k >= 2300 …
            (Predicate::cmp_value("k", CompareOp::GtEq, 2300), 2, 452),
            // … only the first a string this small …
            (Predicate::eq_value("s", "s0005"), 2, 1024),
            // … and none k < 0, while k >= 0 skips nothing.
            (Predicate::cmp_value("k", CompareOp::Lt, 0), 3, 0),
            (
                Predicate::cmp_value("k", CompareOp::GtEq, 0),
                0,
                ROWS as usize,
            ),
            // Bool and mixed-kind columns have no zones: never skipped.
            (Predicate::eq_value("b", true), 0, ROWS as usize),
        ] {
            let at = format!("{residency:?}, {predicate}");
            let logical = PlanBuilder::scan("t").select(predicate.clone()).build();
            let expected = div_expr::evaluate(&logical, &reference_catalog).unwrap();
            for batch_size in [3, 1024] {
                let engine = Engine::builder(c.clone())
                    .without_optimizer()
                    .planner_config(PlannerConfig::default().batch_size(batch_size))
                    .build();
                let output = engine.stream_logical(&logical).unwrap().collect().unwrap();
                assert_eq!(output.relation, expected, "{at}");
                assert_eq!(output.stats.chunks_skipped, skipped, "{at}");
                assert_eq!(output.stats.rows_scanned, scanned, "{at}");
            }
        }

        // Every segment has NULLs in `n`, and comparing NULL is a type error:
        // no segment may be skipped, or the error would depend on the data
        // layout. The reference evaluator and the scan agree on the error.
        let on_nulls = PlanBuilder::scan("t")
            .select(Predicate::cmp_value("n", CompareOp::Lt, 0))
            .build();
        let reference = div_expr::evaluate(&on_nulls, &reference_catalog).unwrap_err();
        assert!(reference.to_string().contains("type error"), "{reference}");
        let config = PlannerConfig::default();
        let plan = plan_query(&on_nulls, &config).unwrap();
        let (result, stats) = drive(&plan, &c, &config, QueryGuard::default());
        assert_eq!(result.unwrap_err().to_string(), reference.to_string());
        assert_eq!(stats.chunks_skipped, 0, "{residency:?}");
        assert_eq!(stats.resident_rows_on_finish, 0, "{residency:?}");

        let analyzed = Engine::builder(c.clone())
            .without_optimizer()
            .build()
            .explain_analyze("SELECT k, s FROM t WHERE k >= 2300")
            .unwrap();
        assert_eq!(analyzed.stats.as_ref().unwrap().chunks_skipped, 2);
        assert!(
            analyzed.to_string().contains("chunks skipped:      2"),
            "EXPLAIN ANALYZE must show the skipped segments:\n{analyzed}"
        );
    }
}

#[test]
fn segments_are_built_once_per_registration() {
    let engine = Engine::new(catalog_with("t", Residency::Registered).0);
    let count = |sql: &str| engine.query(sql).unwrap().collect().unwrap().relation.len();
    assert_eq!(count("SELECT k FROM t"), ROWS as usize);
    let segments = engine.catalog().source("t").unwrap();
    assert_eq!(segments.row_count(), ROWS as usize);
    assert_eq!(count("SELECT k, s FROM t WHERE k < 10"), 10);
    assert!(Arc::ptr_eq(
        &segments,
        &engine.catalog().source("t").unwrap()
    ));
    // Registering a *different* table clones the catalog; the clone shares
    // the conversion.
    engine.mutate_catalog(|c| {
        c.register("other", Relation::from_rows(["x"], [[1i64]]).unwrap());
    });
    assert!(Arc::ptr_eq(
        &segments,
        &engine.catalog().source("t").unwrap()
    ));

    // A cursor opened before the table is replaced keeps its snapshot.
    let mut cursor = engine.query("SELECT k FROM t").unwrap();
    let mut drained = cursor.next().unwrap().unwrap().num_rows();
    engine.mutate_catalog(|c| {
        c.register(
            "t",
            Relation::from_rows(["k"], (0..5i64).map(|k| [k])).unwrap(),
        );
    });
    let fresh = engine.catalog().source("t").unwrap();
    assert!(!Arc::ptr_eq(&segments, &fresh));
    assert_eq!(fresh.row_count(), 5);
    for batch in cursor {
        drained += batch.unwrap().num_rows();
    }
    assert_eq!(
        drained, ROWS as usize,
        "the open cursor drains the old rows"
    );
    assert_eq!(count("SELECT k FROM t"), 5);
}

/// A drop guard so a failed assertion cannot leak an armed fault into
/// another test of this process.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        failpoint::disarm_all();
    }
}

#[test]
fn aborting_mid_scan_leaks_no_resident_rows() {
    // The failpoint registry is process-global: serialize, and scan a table
    // no other test of this file scans.
    let _serial = failpoint::test_serial();
    let _cleanup = DisarmOnDrop;
    failpoint::disarm_all();
    for residency in RESIDENCIES {
        let (c, _file) = catalog_with("t_abort", residency);
        let config = PlannerConfig::default().batch_size(256);
        let plan = scan_plan("t_abort", &config);

        // Guard trip: cancelled after the first chunk.
        let token = CancelToken::new();
        let guard = QueryGuard::default().with_token(token.clone());
        let mut executor = StreamExecutor::with_guard(&plan, &c, &config, guard).unwrap();
        assert_eq!(executor.next_batch().unwrap().unwrap().num_rows(), 256);
        token.cancel();
        let err = executor.next_batch().unwrap_err();
        assert!(matches!(err, ExprError::Cancelled { .. }), "{err}");
        let stats = executor.finish();
        assert_eq!(stats.resident_rows_on_finish, 0);
        assert_eq!(stats.rows_scanned, 256);

        // Injected fault: armed after the first chunk.
        let mut executor = StreamExecutor::new(&plan, &c, &config).unwrap();
        assert_eq!(executor.next_batch().unwrap().unwrap().num_rows(), 256);
        failpoint::arm(
            "TableScan(t_abort).next_batch",
            FailAction::Error("mid-scan".into()),
        );
        let err = executor.next_batch().unwrap_err();
        failpoint::disarm_all();
        assert!(
            err.to_string()
                .contains("failpoint TableScan(t_abort).next_batch"),
            "{err}"
        );
        let stats = executor.finish();
        assert_eq!(stats.resident_rows_on_finish, 0);
        assert_eq!(stats.rows_scanned, 256);

        // Budget trip: the intersection's hash-join build side, drained from
        // the scan under a budget smaller than the table, trips inside its
        // drain.
        let blocking = plan_query(
            &PlanBuilder::scan("t_abort")
                .intersect(PlanBuilder::scan("t_abort"))
                .build(),
            &config,
        )
        .unwrap();
        let (result, stats) = drive(
            &blocking,
            &c,
            &config,
            QueryGuard::default().with_budget_rows(600),
        );
        let err = result.unwrap_err();
        assert!(matches!(err, ExprError::MemoryBudget { .. }), "{err}");
        assert_eq!(stats.resident_rows_on_finish, 0);
    }
}
