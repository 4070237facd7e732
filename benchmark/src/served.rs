//! The two served workloads: `div_server` on loopback in this process,
//! two closed-loop connections (each waits for its reply before it sends
//! the next request), small tables — so that the front end, not
//! execution, is most of a request.
//!
//! * `served_adhoc`: every request is an ad-hoc `QUERY`.
//! * `served_prepared_churn`: both connections `EXECUTE` a prepared Q2;
//!   connection 1 also flips the `parts` table every tenth request, which
//!   invalidates every cached plan. One writer only, and it never lets two
//!   writes land inside one transparent re-prepare of the other
//!   connection, so `ERR STALE_PLAN` stays at zero instead of at a random
//!   few (see [`Connection::run`]).

use crate::calib::Reference;
use crate::check::{Checksum, Expected};
use crate::inputs::{
    adhoc_rotation, churn_rotation, rotation_order, Scale, Statement, Tables, Q2_PARAM,
};
use crate::metric::{Metric, PER_LAYER};
use crate::traced::{report_trace, traced_pass, TraceInput, FULL_PASSES};
use crate::workload::{
    peak_rss_mb, repeat_setup, Options, Pacer, Report, Reservoir, ThreadTotals, TimedRun, Workload,
};
use div_algebra::Value;
use div_columnar::ColumnarBatch;
use div_expr::evaluate;
use div_physical::PlannerConfig;
use div_server::{Client, QueryResult, Server, ServerConfig, ServerHandle};
use div_sql::Engine;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop connections of the timed run.
const CONNECTIONS: usize = 2;
/// Name the connections prepare Q2 under.
pub const PREPARED_NAME: &str = "q2";
/// Connection 1 of the churn workload writes once per this many requests.
const WRITE_EVERY: usize = 10;
/// Each connection runs the reference kernel once per this many requests.
const CALIBRATE_EVERY: usize = 256;
/// Sample classes of the churn workload: every `EXECUTE` is class 0.
const CHURN_CLASSES: [&str; 2] = ["small_divide", "mutate"];
const MUTATE_CLASS: usize = 1;

struct Setup {
    tables: Tables,
    // Dropped before the server, so its sessions end on EOF at once.
    clients: Vec<Client>,
    server: ServerHandle,
    statements: Vec<Statement>,
    /// Expected result per statement, per catalog state (one state for
    /// `served_adhoc`; A = whole `parts`, B = its first half for churn).
    expected: Vec<Vec<Expected>>,
    /// Rows of `parts` per catalog state, as `MUTATE REGISTER` sends them.
    part_rows: Vec<Vec<Vec<Value>>>,
}

fn rows_of(relation: &div_algebra::Relation) -> Vec<Vec<Value>> {
    relation.tuples().map(|t| t.values().to_vec()).collect()
}

fn setup(seed: u64, scale: Scale, churn: bool) -> Result<Setup, String> {
    let tables = Tables::generate(seed, scale);
    let catalog = tables.catalog();
    let statements = if churn {
        churn_rotation(&catalog)
    } else {
        adhoc_rotation(&catalog, scale)
    };
    let mut states = vec![catalog.clone()];
    let mut part_rows = vec![rows_of(tables.parts())];
    if churn {
        let half = tables.parts_first_half();
        part_rows.push(rows_of(&half));
        let mut state_b = catalog.clone();
        state_b.register("parts", half);
        states.push(state_b);
    }
    let expected = statements
        .iter()
        .map(|s| {
            states
                .iter()
                .map(|state| evaluate(&s.reference, state).map(|r| Expected::new(&r)))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reference evaluation: {e}"))?;

    let engine = Arc::new(Engine::new(catalog));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            // The timed connections plus the traced pass's own.
            workers: CONNECTIONS + 1,
            queue_depth: CONNECTIONS + 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..=CONNECTIONS {
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        if churn {
            client
                .prepare(PREPARED_NAME, Q2_PARAM)
                .map_err(|e| format!("PREPARE: {e}"))?;
        }
        clients.push(client);
    }
    Ok(Setup {
        tables,
        server,
        clients,
        statements,
        expected,
        part_rows,
    })
}

/// What one connection does, shared by warm-up and the timed run.
struct Connection<'a> {
    client: &'a mut Client,
    setup: &'a SetupView<'a>,
    churn: bool,
    /// This connection also writes (`MUTATE REGISTER parts`).
    writer: bool,
    order: Vec<usize>,
}

/// The read-only part of [`Setup`] the connection threads share.
struct SetupView<'a> {
    statements: &'a [Statement],
    expected: &'a [Vec<Expected>],
    part_rows: &'a [Vec<Vec<Value>>],
    /// Statements the non-writing connection has completed (churn only).
    reader_done: AtomicU64,
}

impl Connection<'_> {
    fn matches(&self, statement: usize, result: &QueryResult, whole: bool) -> bool {
        let names: Vec<&str> = result.columns.iter().map(String::as_str).collect();
        let rows = || result.rows.iter().map(Vec::as_slice);
        // Under churn a response may belong to either catalog state, but
        // it must be one of them whole.
        self.setup.expected[statement].iter().any(|expected| {
            if whole {
                expected.matches_rows(&names, rows())
            } else {
                Checksum::of_rows(&names, rows()) == expected.checksum
            }
        })
    }

    /// Closed loop until `stop` is set (checked between requests of a
    /// pass, so a slow pass cannot overrun by more than one request).
    fn run(&mut self, mut pacer: Pacer<'_>, stop: &AtomicBool, whole: bool) -> ThreadTotals {
        let mut requests = 0usize;
        let mut state = 0usize;
        // `reader_done` when the last write was acknowledged.
        let mut written_at = None;
        'run: loop {
            for &i in &self.order {
                if stop.load(Ordering::Relaxed) {
                    break 'run;
                }
                requests += 1;
                if requests.is_multiple_of(CALIBRATE_EVERY) {
                    pacer.calibrate();
                    pacer.end_pass();
                }
                let write = self.writer && requests.is_multiple_of(WRITE_EVERY);
                if let (true, Some(mark)) = (write, written_at) {
                    // A write that lands while the other connection is
                    // still re-preparing for the write before surfaces as
                    // `ERR STALE_PLAN` there (the server's documented
                    // double-mutation race). The reader normally completes
                    // ~10 statements between two writes; should it have
                    // been descheduled instead, hold the write (outside
                    // any timed request) until it has finished the
                    // statement that was in flight and one started after.
                    while self.setup.reader_done.load(Ordering::Acquire) < mark + 2 {
                        if stop.load(Ordering::Relaxed) {
                            break 'run;
                        }
                        std::thread::yield_now();
                    }
                }
                let statement = &self.setup.statements[i];
                let t0 = Instant::now();
                let reply = if write {
                    state = (state + 1) % self.setup.part_rows.len();
                    self.client
                        .register("parts", &["p#", "color"], &self.setup.part_rows[state])
                        .map(|()| None)
                } else if self.churn {
                    self.client
                        .execute(PREPARED_NAME, &statement.params)
                        .map(Some)
                } else {
                    self.client
                        .query(statement.sql_text().expect("served statements are SQL"))
                        .map(Some)
                };
                let latency = t0.elapsed();
                if write {
                    written_at = Some(self.setup.reader_done.load(Ordering::Acquire));
                } else if self.churn && !self.writer {
                    self.setup.reader_done.fetch_add(1, Ordering::Release);
                }
                // Any `ERR` (BUSY and STALE_PLAN included) or I/O error is
                // a failed operation, as is a wrong result.
                let ok = match reply {
                    Ok(None) => true,
                    Ok(Some(result)) => self.matches(i, &result, whole),
                    Err(_) => false,
                };
                let class = if write {
                    MUTATE_CLASS
                } else if self.churn {
                    0
                } else {
                    i
                };
                pacer.record(class, latency, ok);
            }
        }
        // Leave the catalog in state A for whatever runs next.
        if self.writer && state != 0 {
            let _ = self
                .client
                .register("parts", &["p#", "color"], &self.setup.part_rows[0]);
        }
        pacer.finish()
    }
}

/// Run every connection for `length`; pool their samples.
fn run_connections(
    connections: &mut [Connection<'_>],
    length: Duration,
    whole: bool,
) -> Result<TimedRun, String> {
    let stop = AtomicBool::new(false);
    let sink = Mutex::new(Reservoir::new(Reservoir::DEFAULT_CAP));
    let mut references = Vec::new();
    for _ in connections.iter() {
        references.push(Reference::with_wire().map_err(|e| format!("echo pair: {e}"))?);
    }
    let threads = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .zip(references)
            .map(|(c, reference)| {
                let (sink, stop) = (&sink, &stop);
                scope.spawn(move || c.run(Pacer::start(sink, reference), stop, whole))
            })
            .collect();
        std::thread::sleep(length);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    Ok(TimedRun::collect(sink, threads))
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let churn = opts.workload == Workload::ServedPreparedChurn;
    let scale = Scale::SERVED;
    let (mut setup, setup_metrics) =
        repeat_setup(opts.quick || opts.trace, |_| setup(opts.seed, scale, churn))?;
    let mut report = Report::default();
    report.info("input_rows", setup.tables.input_rows());
    report.info("input_bytes", setup.tables.input_bytes());
    report.info(
        "load",
        format!("closed loop, {CONNECTIONS} connections, loopback, server in this process"),
    );

    let view = SetupView {
        statements: &setup.statements,
        expected: &setup.expected,
        part_rows: &setup.part_rows,
        reader_done: AtomicU64::new(0),
    };
    let mut trace_client = setup
        .clients
        .pop()
        .expect("set-up opened the traced pass's connection");
    let order = rotation_order(opts.seed, setup.statements.len());
    let classes: Vec<&str> = if churn {
        CHURN_CLASSES.to_vec()
    } else {
        setup.statements.iter().map(|s| s.class).collect()
    };
    let mut connections: Vec<Connection<'_>> = setup
        .clients
        .iter_mut()
        .enumerate()
        .map(|(c, client)| Connection {
            client,
            setup: &view,
            churn,
            writer: churn && c == 0,
            // The connections start at different statements.
            order: order
                .iter()
                .cycle()
                .skip(c)
                .take(order.len())
                .copied()
                .collect(),
        })
        .collect();

    let warmup = run_connections(&mut connections, opts.warmup(), true)?;
    let engine = Arc::clone(setup.server.engine());
    let (server_before, engine_before, compiles_before) = (
        server_counts(&setup.server),
        engine.metrics(),
        engine.compile_count(),
    );
    let timed = run_connections(&mut connections, opts.timed(), false)?;
    let server_after = server_counts(&setup.server);
    let engine_after = engine.metrics();
    drop(connections);

    report.attempted = timed.attempted();
    report.failed = timed.failed();
    report.correct = timed.failed() == 0 && warmup.failed() == 0;
    report.info("warmup_statements", warmup.attempted());
    report.info("warmup_failed", warmup.failed());
    report.info("timed_samples", timed.attempted() - timed.failed());
    report.metrics.extend(setup_metrics);
    report.metrics.extend(timed.metrics());

    if opts.trace {
        let statements = timed.attempted().max(1) as f64;
        let prepares = (engine_after.prepared_cache_hits - engine_before.prepared_cache_hits)
            + (engine_after.prepared_cache_misses - engine_before.prepared_cache_misses);
        for (name, (after, before)) in SERVER_COUNTS
            .iter()
            .zip(server_after.iter().zip(server_before))
        {
            report
                .metrics
                .push(Metric::scalar(name, "count", (after - before) as f64));
        }
        report.metrics.extend([
            Metric::scalar(
                "sql.compiles_per_statement",
                "ratio",
                (engine.compile_count() - compiles_before) as f64 / statements,
            ),
            Metric::scalar(
                "sql.prepared_cache_hit_rate",
                "fraction",
                (engine_after.prepared_cache_hits - engine_before.prepared_cache_hits) as f64
                    / prepares.max(1) as f64,
            ),
        ]);
        if churn {
            report.metrics.push(Metric::from_samples(
                "server.mutate.p50_ms",
                "ms",
                &timed.latencies_ms(Some(MUTATE_CLASS)),
            ));
        }
        // Client-observed medians of the classes the per-layer report names.
        for (c, class) in classes.iter().enumerate() {
            let name = format!("sql.engine.{class}.p50_ms");
            if PER_LAYER.iter().any(|(n, _)| *n == name) {
                report.metrics.push(Metric::from_samples(
                    &name,
                    "ms",
                    &timed.latencies_ms(Some(c)),
                ));
            }
        }

        let lines = setup
            .statements
            .iter()
            .map(|s| wire_line(s, churn))
            .collect();
        let expected = &setup.expected;
        let check = |i: usize, batches: &[ColumnarBatch]| {
            Checksum::of_batches(batches) == expected[i][0].checksum
        };
        let traced = traced_pass(TraceInput {
            statements: &setup.statements,
            order: &order,
            check: &check,
            wire_lines: Some(lines),
            prepared: churn,
            catalog: (*engine.catalog()).clone(),
            config: PlannerConfig::default(),
            client: Some(&mut trace_client),
            budget: opts.traced_budget(),
            max_passes: if opts.quick { 2 } else { FULL_PASSES },
        })?;
        report_trace(opts, &mut report, traced, &setup.tables, scale)?;
    }

    let _ = trace_client.close();
    for client in setup.clients.drain(..) {
        let _ = client.close();
    }
    setup.server.shutdown();
    report
        .metrics
        .push(Metric::scalar("peak_rss_mb", "MB", peak_rss_mb()));
    Ok(report)
}

/// The request line a statement arrives as.
fn wire_line(statement: &Statement, churn: bool) -> String {
    if churn {
        let params: Vec<String> = statement
            .params
            .iter()
            .map(|(k, v)| format!(" ${k}={}", div_server::protocol::encode_value(v)))
            .collect();
        format!("EXECUTE {PREPARED_NAME}{}", params.concat())
    } else {
        format!(
            "QUERY {}",
            statement.sql_text().expect("served statements are SQL")
        )
    }
}

/// The `ServerHandle::metrics()` counters reported over the timed run.
const SERVER_COUNTS: [&str; 4] = [
    "server.requests_served",
    "server.requests_failed",
    "server.stale_replans",
    "server.connections_rejected",
];

fn server_counts(server: &ServerHandle) -> [u64; 4] {
    let m = server.metrics();
    [
        &m.requests_served,
        &m.requests_failed,
        &m.stale_replans,
        &m.connections_rejected,
    ]
    .map(|counter| counter.load(Ordering::Relaxed))
}
