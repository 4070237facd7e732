//! Chaos suite: fault injection at every operator boundary of every plan
//! shape.
//!
//! For every shape of the oracle's catalogue (`div_conformance::oracle::shapes`,
//! which together compile to every streaming operator), every
//! `{label}.{phase}` site the compiled physical plan exposes is armed in
//! turn with an error failpoint, and the streaming executor is driven to
//! its terminal state.
//! The governance invariants under test:
//!
//! * **no panics** — every fault surfaces as a typed `Err`, never an
//!   unwind;
//! * **clean teardown** — after the abort, `resident_rows_on_finish` is
//!   exactly `0`: every operator released what it acquired, error paths
//!   included (the invariant that makes memory budgets trustworthy);
//! * **close is infallible** — faults at `.close` sites are swallowed and
//!   the query result is unchanged;
//! * **typed wire surface** — over TCP an injected fault terminates the
//!   response with `ERR PLAN` (the existing error channel, deliberately no
//!   bespoke code), the session survives, and the server metrics reconcile.
//!
//! The failpoint registry is process-global, so every test here serializes
//! on [`div_physical::failpoint::test_serial`] and disarms in all exit
//! paths.

use div_algebra::{relation, AggregateCall, Relation};
use div_conformance::oracle::{shape_catalog, shapes};
use div_expr::{Catalog, ExprError, LogicalPlan, PlanBuilder};
use div_physical::{
    failpoint, operator_label, ExecStats, FailAction, PlannerConfig, QueryGuard, StreamExecutor,
};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Every distinct operator label of the compiled plan.
fn labels(plan: &LogicalPlan) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    plan.visit(&mut |node| {
        out.insert(operator_label(node));
    });
    out
}

/// Drive a streaming execution to its terminal state: the collected result
/// or the aborting error, plus the final statistics (absent only when the
/// pipeline failed to compile — nothing was acquired, nothing can leak).
fn drive(
    plan: &LogicalPlan,
    catalog: &Catalog,
    config: &PlannerConfig,
    guard: QueryGuard,
) -> (Result<Relation, ExprError>, Option<ExecStats>) {
    let mut executor = match StreamExecutor::with_guard(plan, catalog, config, guard) {
        Ok(executor) => executor,
        Err(err) => return (Err(err), None),
    };
    let mut out = Relation::empty(executor.schema().clone());
    let mut failure = None;
    loop {
        match executor.next_batch() {
            Ok(Some(batch)) => {
                for i in 0..batch.num_rows() {
                    out.insert(batch.row(i)).unwrap();
                }
            }
            Ok(None) => break,
            Err(err) => {
                failure = Some(err);
                break;
            }
        }
    }
    let stats = executor.finish();
    match failure {
        Some(err) => (Err(err), Some(stats)),
        None => (Ok(out), Some(stats)),
    }
}

/// A drop guard so a failed assertion cannot leak an armed fault into the
/// next test in this process.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        failpoint::disarm_all();
    }
}

#[test]
fn every_fault_site_of_every_shape_aborts_cleanly() {
    let _serial = failpoint::test_serial();
    let _cleanup = DisarmOnDrop;
    failpoint::disarm_all();
    let c = shape_catalog();
    // Small batches so multi-batch pipelines exercise mid-stream faults.
    let config = PlannerConfig::default().batch_size(2);
    let mut fired = 0usize;
    let mut sites_total = 0usize;
    let mut sites_per_shape = Vec::new();
    for (_, plan) in shapes() {
        let (baseline, baseline_stats) = drive(&plan, &c, &config, QueryGuard::default());
        let baseline = baseline.unwrap_or_else(|err| panic!("clean run failed: {err}\n{plan}"));
        assert_eq!(
            baseline_stats.unwrap().resident_rows_on_finish,
            0,
            "clean run leaks?!\n{plan}"
        );
        let labels = labels(&plan);
        sites_per_shape.push(3 * labels.len());
        for label in labels {
            for phase in ["open", "next_batch", "close"] {
                let site = format!("{label}.{phase}");
                sites_total += 1;
                failpoint::arm(&site, FailAction::Error("chaos".into()));
                let (result, stats) = drive(&plan, &c, &config, QueryGuard::default());
                failpoint::disarm(&site);
                if let Some(stats) = &stats {
                    assert_eq!(
                        stats.resident_rows_on_finish, 0,
                        "site {site} leaked resident rows\n{plan}"
                    );
                }
                match (phase, result) {
                    // Close is infallible: the armed error is swallowed and
                    // the result is untouched.
                    ("close", Ok(got)) => assert_eq!(got, baseline, "site {site}\n{plan}"),
                    ("close", Err(err)) => {
                        panic!("close-site fault must not abort, got {err}\n{plan}")
                    }
                    // Open faults abort compilation before any batch flows.
                    ("open", Ok(_)) => panic!("open-site fault {site} was ignored\n{plan}"),
                    ("open", Err(err)) => {
                        fired += 1;
                        assert!(
                            err.to_string().contains(&format!("failpoint {site}")),
                            "site {site} surfaced as {err}\n{plan}"
                        );
                    }
                    // An emission fault aborts *if the operator ever
                    // emits*; an operator whose output is empty (e.g. an
                    // anti-semi join that eliminates everything) finishes
                    // clean without reaching its emission site.
                    ("next_batch", Err(err)) => {
                        fired += 1;
                        assert!(
                            err.to_string().contains(&format!("failpoint {site}")),
                            "site {site} surfaced as {err}\n{plan}"
                        );
                    }
                    ("next_batch", Ok(got)) => {
                        assert_eq!(got, baseline, "unfired site {site}\n{plan}")
                    }
                    (other, _) => unreachable!("phase {other}"),
                }
            }
        }
    }
    // Every `{label}.{phase}` site of every shape, by count: a relabelled or
    // lost operator changes this.
    assert_eq!(
        sites_per_shape,
        [9, 15, 9, 12, 15, 9, 12, 9, 9, 12, 6, 9, 12, 33, 6, 12, 6, 15]
    );
    // The suite is not vacuous: the overwhelming majority of sites actually
    // observed their fault (only empty-output emission sites may not).
    assert!(
        fired * 2 > sites_total,
        "only {fired} of {sites_total} sites fired"
    );
}

/// An injected *delay* under a wall-clock deadline surfaces as the typed
/// deadline error — the guard check directly after the stalled emission
/// observes the expiry, within one batch boundary.
#[test]
fn injected_delays_trip_an_armed_deadline() {
    let _serial = failpoint::test_serial();
    let _cleanup = DisarmOnDrop;
    failpoint::disarm_all();
    let c = shape_catalog();
    let config = PlannerConfig::default().batch_size(2);
    let plan = PlanBuilder::scan("supplies").project(["s#"]).build();
    failpoint::arm(
        "TableScan(supplies).next_batch",
        FailAction::Delay(Duration::from_millis(30)),
    );
    let guard = QueryGuard::default().with_deadline(Duration::from_millis(10));
    let (result, stats) = drive(&plan, &c, &config, guard);
    failpoint::disarm_all();
    let err = result.unwrap_err();
    assert!(
        matches!(err, ExprError::DeadlineExceeded { limit_ms: 10, .. }),
        "{err}"
    );
    assert_eq!(stats.unwrap().resident_rows_on_finish, 0);
    // Without the delay the same guarded plan finishes comfortably.
    let (result, _) = drive(
        &plan,
        &c,
        &config,
        QueryGuard::default().with_deadline(Duration::from_millis(10)),
    );
    assert!(result.is_ok());
}

/// An error injected at a hash join's emission aborts the drain mid-stream,
/// and teardown releases every resident row.
#[test]
fn failpoint_error_mid_stream_leaves_no_resident_rows() {
    let _serial = failpoint::test_serial();
    let _cleanup = DisarmOnDrop;
    failpoint::disarm_all();
    let plan = PlanBuilder::scan("supplies")
        .natural_join(PlanBuilder::scan("grouped"))
        .build();
    let config = PlannerConfig::default().batch_size(2);
    failpoint::arm("HashJoin.next_batch", FailAction::Error("chaos".into()));
    let guard = QueryGuard::from_config(&config);
    let (result, stats) = drive(&plan, &shape_catalog(), &config, guard);
    failpoint::disarm_all();
    let err = result.unwrap_err();
    assert!(
        err.to_string().contains("failpoint HashJoin.next_batch"),
        "{err}"
    );
    assert_eq!(stats.unwrap().resident_rows_on_finish, 0);
}

/// Count the live spill directories this process has in the OS temp dir —
/// the invariant under spill chaos is that this number returns to its
/// starting value on every exit path (success *and* mid-spill abort).
fn live_spill_dirs() -> usize {
    let prefix = format!("div-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
                .count()
        })
        .unwrap_or(0)
}

/// Faults at the spill-file boundary (`spill.write` on every partition
/// write, `spill.read` on every open and chunk read) abort the spilling
/// query with the typed failpoint error, release every resident row, and
/// leave no spill directory behind.
#[test]
fn spill_faults_abort_cleanly_and_leave_no_files() {
    let _serial = failpoint::test_serial();
    let _cleanup = DisarmOnDrop;
    failpoint::disarm_all();
    let mut c = Catalog::new();
    c.register(
        "supplies",
        Relation::from_rows(
            ["s#", "p#"],
            (0..60i64).flat_map(|s| (0..5i64).map(move |p| vec![s, p])),
        )
        .unwrap(),
    );
    c.register(
        "wanted",
        Relation::from_rows(["p#"], (0..5i64).map(|p| vec![p])).unwrap(),
    );
    let config = PlannerConfig::default()
        .batch_size(4)
        .memory_budget_rows(24)
        .spill_to_disk(true);
    let guard = || div_physical::QueryGuard::from_config(&config);
    let dirs_before = live_spill_dirs();
    // Two ways of having rows in flight when the fault lands. The divide's
    // 60 groups + 5 divisor rows, and the aggregate's 60 groups, overflow
    // the 24-row budget, so their first write happens in the frozen pass —
    // resident groups held, unseen groups' rows sitting in the partition
    // buffers. The self-join's build side is partitioned whole, and its
    // first write finds the other partitions' buffers occupied.
    let plans = [
        (
            PlanBuilder::scan("supplies")
                .divide(PlanBuilder::scan("wanted"))
                .build(),
            60,
        ),
        (
            PlanBuilder::scan("supplies")
                .group_aggregate(["s#"], [AggregateCall::count("p#", "n")])
                .build(),
            60,
        ),
        (
            PlanBuilder::scan("supplies")
                .natural_join(PlanBuilder::scan("supplies"))
                .build(),
            300,
        ),
    ];
    for (plan, rows) in plans {
        let label = operator_label(&plan);

        // The clean run under this budget genuinely spills and cleans up.
        let (baseline, stats) = drive(&plan, &c, &config, guard());
        let baseline = baseline.expect("clean spilling run");
        assert_eq!(baseline.len(), rows, "{label}");
        let stats = stats.unwrap();
        assert!(
            stats.spill_partitions > 0,
            "{label}: budget 24 must force spilling"
        );
        assert!(stats.peak_resident_rows <= 24, "{label}");
        assert_eq!(stats.resident_rows_on_finish, 0, "{label}");
        assert_eq!(
            live_spill_dirs(),
            dirs_before,
            "{label}: clean run leaked spill dirs"
        );

        for site in ["spill.write", "spill.read"] {
            failpoint::arm(site, FailAction::Error("spill chaos".into()));
            let (result, stats) = drive(&plan, &c, &config, guard());
            failpoint::disarm(site);
            let err = result.expect_err(site);
            assert!(
                err.to_string().contains(&format!("failpoint {site}")),
                "{label}: site {site} surfaced as {err}"
            );
            assert_eq!(
                stats.unwrap().resident_rows_on_finish,
                0,
                "{label}: site {site} leaked resident rows (pending write buffers?)"
            );
            assert_eq!(
                live_spill_dirs(),
                dirs_before,
                "{label}: site {site} left spill files behind"
            );
        }

        // And the same plan still runs clean after the chaos.
        let (after, _) = drive(&plan, &c, &config, guard());
        assert_eq!(after.unwrap(), baseline, "{label}");
    }
}

/// `attach.open` chaos over the wire: a fault while opening the table file
/// surfaces as a typed `ERR`, the catalog stays unchanged, the session
/// survives, and a retry after disarming succeeds.
#[test]
fn attach_faults_surface_over_the_wire_and_leave_the_catalog_unchanged() {
    let _serial = failpoint::test_serial();
    let _cleanup = DisarmOnDrop;
    failpoint::disarm_all();
    use div_server::{Client, ClientError, Server, ServerConfig};
    use div_sql::Engine;
    use std::sync::Arc;

    let path = std::env::temp_dir().join(format!("div_chaos_attach_{}.divcol", std::process::id()));
    let rel = relation! { ["a"] => [1], [2], [3] };
    div_storage::TableWriter::write_relation(&path, &rel, 2).unwrap();

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new(Catalog::new())),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let path_str = path.to_str().expect("utf-8 temp path");

    failpoint::arm("attach.open", FailAction::Error("attach chaos".into()));
    let err = client.attach("ext", path_str).unwrap_err();
    failpoint::disarm_all();
    match &err {
        ClientError::Server { message, .. } => {
            assert!(message.contains("failpoint attach.open"), "{message}")
        }
        other => panic!("expected a server error, got {other}"),
    }
    // The failed attach registered nothing.
    let err = client.query("SELECT a FROM ext").unwrap_err();
    assert!(err.to_string().contains("ext"), "{err}");

    // After disarming, the same attach succeeds and the table serves.
    client.attach("ext", path_str).unwrap();
    let rows = client.query("SELECT a FROM ext").unwrap().rows;
    assert_eq!(rows.len(), 3);

    client.close().unwrap();
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Wire-level chaos: an injected fault reaches the client as the typed
/// `ERR PLAN` terminal (faults ride the existing error channel), the
/// session survives, and the server metrics reconcile with what the client
/// observed.
#[test]
fn injected_faults_surface_over_the_wire_and_the_session_survives() {
    let _serial = failpoint::test_serial();
    let _cleanup = DisarmOnDrop;
    failpoint::disarm_all();
    use div_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
    use div_sql::Engine;
    use std::sync::Arc;

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new(shape_catalog())),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let sql = "SELECT s# FROM supplies";
    let clean = client.query(sql).unwrap();
    assert!(!clean.rows.is_empty());

    failpoint::arm(
        "TableScan(supplies).next_batch",
        FailAction::Error("wire chaos".into()),
    );
    let err = client.query(sql).unwrap_err();
    failpoint::disarm_all();
    match &err {
        ClientError::Server {
            code: Some(ErrorCode::Plan),
            message,
            ..
        } => assert!(
            message.contains("failpoint TableScan(supplies).next_batch"),
            "{message}"
        ),
        other => panic!("expected ERR PLAN, got {other}"),
    }

    // The session survived the fault and serves the same query again.
    let after = client.query(sql).unwrap();
    assert_eq!(after.rows, clean.rows);

    // Metrics reconcile with what the client observed: 3+ statements
    // served, exactly 1 failed, and the fault was not misclassified as a
    // governance abort. Counters are bumped after the terminal line is
    // written, so drain the server before reading them.
    let metrics = Arc::clone(server.metrics());
    client.close().unwrap();
    server.shutdown();
    assert_eq!(metrics.requests_failed.load(Ordering::Relaxed), 1);
    assert!(metrics.requests_served.load(Ordering::Relaxed) >= 3);
    assert_eq!(metrics.queries_cancelled.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.deadline_aborts.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.budget_aborts.load(Ordering::Relaxed), 0);
}
