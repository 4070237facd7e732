//! Concurrency stress: many clients hammer one served engine with a mixed
//! ad-hoc/prepared workload while the catalog mutates mid-flight. The
//! correctness contract under test is snapshot isolation at the statement
//! level — every result equals the quotient of *some* complete catalog
//! state, never a mix of two.

use div_algebra::{Relation, Value};
use div_datagen::scenarios::{generate, ScenarioConfig, ScenarioFamily};
use div_server::{Client, ClientError, ErrorCode, RetryPolicy, Server, ServerConfig};
use div_sql::{Engine, Request};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;
const ITERATIONS: usize = 25;

fn sorted_rows(relation: &Relation) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = relation.tuples().map(|t| t.values().to_vec()).collect();
    rows.sort();
    rows
}

fn relation_rows(relation: &Relation) -> Vec<Vec<Value>> {
    relation.tuples().map(|t| t.values().to_vec()).collect()
}

/// Run one workload iteration, retrying the retryable wire errors (`BUSY`).
fn run_with_retry(
    mut attempt: impl FnMut() -> Result<Vec<Vec<Value>>, ClientError>,
) -> Vec<Vec<Value>> {
    for _ in 0..50 {
        match attempt() {
            Ok(rows) => return rows,
            Err(err) if err.is_retryable() => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(other) => panic!("workload failed: {other}"),
        }
    }
    panic!("no successful attempt in 50 tries");
}

#[test]
fn concurrent_clients_survive_catalog_mutations_without_torn_results() {
    let data = generate(&ScenarioConfig {
        family: ScenarioFamily::Rbac,
        entities: 60,
        items: 12,
        membership: 0.6,
        full_entities: 0.2,
        null_density: 0.0,
        ..ScenarioConfig::default()
    });
    let names = data.names();
    let sql = data.small_divide_sql();

    // The two catalog states the mutator flips between, and the exact
    // quotient each implies (computed against the reference algebra).
    let divisor_a = data.divisor.clone();
    let divisor_b = Relation::from_rows(
        [names.item_column],
        vec![vec![Value::from("role0")], vec![Value::from("role1")]],
    )
    .unwrap();
    let expected_a = sorted_rows(&data.dividend.divide(&divisor_a).unwrap());
    let expected_b = sorted_rows(&data.dividend.divide(&divisor_b).unwrap());
    assert_ne!(
        expected_a, expected_b,
        "the two states must be distinguishable for the test to mean anything"
    );

    let engine = Arc::new(Engine::new(data.catalog()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            workers: CLIENTS + 4,
            queue_depth: CLIENTS * 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Mutator: flip the divisor table between the two known states through
    // the wire protocol, as fast as the server accepts it.
    let stop = Arc::new(AtomicBool::new(false));
    let mutator = {
        let stop = Arc::clone(&stop);
        let rows_a = relation_rows(&divisor_a);
        let rows_b = relation_rows(&divisor_b);
        let divisor_table = names.divisor_table;
        let item_column = names.item_column;
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("mutator connects");
            let mut flips = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let rows = if flips.is_multiple_of(2) {
                    &rows_b
                } else {
                    &rows_a
                };
                client
                    .register(divisor_table, &[item_column], rows)
                    .expect("mutation accepted");
                flips += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            // Leave the catalog in state A so post-join assertions are
            // deterministic.
            client
                .register(divisor_table, &[item_column], &rows_a)
                .expect("final mutation accepted");
            let _ = client.close();
            flips
        })
    };

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let sql = sql.clone();
            let (expected_a, expected_b) = (expected_a.clone(), expected_b.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let prepared = i % 2 == 1;
                if prepared {
                    client.prepare("workload", &sql).expect("prepare succeeds");
                }
                for _ in 0..ITERATIONS {
                    let rows = run_with_retry(|| {
                        let result = if prepared {
                            client.execute("workload", &[])?
                        } else {
                            client.query(&sql)?
                        };
                        let mut rows = result.rows;
                        rows.sort();
                        Ok(rows)
                    });
                    assert!(
                        rows == expected_a || rows == expected_b,
                        "torn result: {} rows matches neither state ({} / {} expected)",
                        rows.len(),
                        expected_a.len(),
                        expected_b.len()
                    );
                }
                let _ = client.close();
            })
        })
        .collect();

    for worker in workers {
        worker.join().expect("client thread");
    }
    stop.store(true, Ordering::Relaxed);
    let flips = mutator.join().expect("mutator thread");
    assert!(flips > 0, "the mutator actually ran");

    // Deterministic transparent-replan check: prepare, mutate, execute.
    let mut client = Client::connect(addr).unwrap();
    client.prepare("after", &sql).unwrap();
    client
        .register(
            names.divisor_table,
            &[names.item_column],
            &relation_rows(&divisor_b),
        )
        .unwrap();
    let result = client.execute("after", &[]).unwrap();
    let mut rows = result.rows;
    rows.sort();
    assert_eq!(
        rows, expected_b,
        "the session re-prepared against the mutated catalog"
    );
    let replans = server.metrics().stale_replans.load(Ordering::Relaxed);
    assert!(replans >= 1, "at least the deterministic replan: {replans}");

    // The engine saw real concurrency: every client iteration executed.
    let snapshot = engine.metrics();
    assert!(
        snapshot.queries_executed >= (CLIENTS * ITERATIONS) as u64,
        "queries_executed = {}",
        snapshot.queries_executed
    );
    client.close().unwrap();
    server.shutdown();
}

/// A served `EXECUTE` never answers `ERR STALE_PLAN`, however fast the
/// catalog moves: the session's transparent re-prepare takes its plan and
/// its cursor from one snapshot, so a second `MUTATE` landing right behind
/// the first cannot make the fresh plan stale before it runs.
#[test]
fn served_execute_never_reports_stale_plan_under_back_to_back_mutations() {
    const EXECUTES: usize = 1500;
    let data = generate(&ScenarioConfig {
        family: ScenarioFamily::Rbac,
        entities: 20,
        items: 6,
        membership: 0.6,
        full_entities: 0.2,
        null_density: 0.0,
        ..ScenarioConfig::default()
    });
    let names = data.names();
    let divisor_b = Relation::from_rows([names.item_column], vec![vec![Value::from("role0")]])
        .expect("one-column divisor");
    let expected_a = sorted_rows(&data.dividend.divide(&data.divisor).unwrap());
    let expected_b = sorted_rows(&data.dividend.divide(&divisor_b).unwrap());
    assert_ne!(expected_a, expected_b, "the two states are distinguishable");

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new(data.catalog())),
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Two writers, each sending REGISTER after REGISTER with no pause, so
    // mutations arrive in pairs as close together as the server admits.
    let start = Arc::new(std::sync::Barrier::new(3));
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let (start, stop) = (Arc::clone(&start), Arc::clone(&stop));
            let states = [relation_rows(&divisor_b), relation_rows(&data.divisor)];
            let (table, column) = (names.divisor_table, names.item_column);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("writer connects");
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    for rows in &states {
                        client
                            .register(table, &[column], rows)
                            .expect("mutation accepted");
                    }
                }
                let _ = client.close();
            })
        })
        .collect();

    let mut reader = Client::connect(addr).expect("reader connects");
    reader
        .prepare("workload", &data.small_divide_sql())
        .expect("prepare succeeds");
    start.wait();
    for i in 0..EXECUTES {
        let mut rows = reader
            .execute("workload", &[])
            .unwrap_or_else(|err| panic!("EXECUTE {i} failed: {err}"))
            .rows;
        rows.sort();
        assert!(
            rows == expected_a || rows == expected_b,
            "EXECUTE {i}: {} rows match neither table state",
            rows.len()
        );
    }
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().expect("writer thread");
    }

    let metrics = server.metrics();
    assert!(
        metrics.stale_replans.load(Ordering::Relaxed) > 0,
        "no EXECUTE met a moved catalog: the race was not exercised"
    );
    assert_eq!(metrics.requests_failed.load(Ordering::Relaxed), 0);
    reader.close().unwrap();
    server.shutdown();
}

/// Two 1500-row tables whose cross product (2.25M rows) takes long enough
/// to stream that governance limits reliably trip mid-flight.
fn runaway_engine() -> Arc<Engine> {
    let mut catalog = div_expr::Catalog::new();
    let rows = |n: i64| (0..n).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>();
    catalog.register("l", Relation::from_rows(["a"], rows(1500)).unwrap());
    catalog.register("r", Relation::from_rows(["b"], rows(1500)).unwrap());
    Arc::new(Engine::new(catalog))
}

const RUNAWAY: &str = "SELECT a, b FROM l, r";

/// The headline acceptance scenario: a runaway cross product under a 50ms
/// server-default deadline aborts within one batch boundary with the typed
/// `DEADLINE` error, the worker is freed, and a follow-up query on the same
/// connection succeeds.
#[test]
fn runaway_cross_product_aborts_on_deadline_and_frees_the_worker() {
    let server = Server::bind(
        "127.0.0.1:0",
        runaway_engine(),
        ServerConfig {
            workers: 2,
            default_deadline: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let started = Instant::now();
    let err = client.query(RUNAWAY).unwrap_err();
    let elapsed = started.elapsed();
    match &err {
        ClientError::Server {
            code: Some(ErrorCode::Deadline),
            message,
            ..
        } => {
            assert!(message.contains("50ms"), "{message}");
            assert!(message.contains("at operator"), "{message}");
        }
        other => panic!("expected ERR DEADLINE, got {other}"),
    }
    assert!(!err.is_retryable(), "deadline aborts are not retryable");
    // "Within one batch boundary" at wire scale: the 2.25M-row product
    // takes far longer than this to stream in full.
    assert!(
        elapsed < Duration::from_secs(5),
        "aborted after {elapsed:?}"
    );

    // The session and its worker survived the abort: a statement that fits
    // the deadline runs fine on the very same connection.
    let small = client.query("SELECT a FROM l WHERE a = 7").unwrap();
    assert_eq!(small.rows, vec![vec![Value::Int(7)]]);

    let aborts = server.metrics().deadline_aborts.load(Ordering::Relaxed);
    assert!(aborts >= 1, "deadline abort counted: {aborts}");
    client.close().unwrap();
    server.shutdown();
}

/// `CANCEL <id>` from a second connection trips the first connection's
/// in-flight statement, which terminates with `ERR CANCELLED`; the victim
/// session stays healthy.
#[test]
fn cancel_from_another_connection_aborts_an_in_flight_statement() {
    let server = Server::bind("127.0.0.1:0", runaway_engine(), ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut victim = Client::connect(addr).unwrap();
    let session = victim.session_id().unwrap();

    let runner = std::thread::spawn(move || {
        let err = victim.query(RUNAWAY).unwrap_err();
        // After the abort the same connection keeps working.
        let follow_up = victim.query("SELECT a FROM l WHERE a = 3").unwrap();
        let _ = victim.close();
        (err, follow_up)
    });

    // Poke CANCEL until the victim's statement is registered in flight.
    let mut canceller = Client::connect(addr).unwrap();
    let mut tripped = false;
    for _ in 0..500 {
        if canceller.cancel(session).unwrap() {
            tripped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(tripped, "the statement was seen in flight");

    let (err, follow_up) = runner.join().expect("victim thread");
    match &err {
        ClientError::Server {
            code: Some(ErrorCode::Cancelled),
            message,
            ..
        } => assert!(message.contains("cancelled"), "{message}"),
        other => panic!("expected ERR CANCELLED, got {other}"),
    }
    assert_eq!(follow_up.rows, vec![vec![Value::Int(3)]]);

    // Cancelling the now-idle session reports idle (idempotent).
    assert!(!canceller.cancel(session).unwrap());
    let cancelled = server.metrics().queries_cancelled.load(Ordering::Relaxed);
    assert!(cancelled >= 1, "cancellation counted: {cancelled}");
    let _ = canceller.close();
    server.shutdown();
}

/// A server-default resident-row budget aborts the runaway statement with
/// the typed `MEMORY` error carrying budget and observed footprint.
#[test]
fn default_memory_budget_aborts_with_the_typed_wire_error() {
    let server = Server::bind(
        "127.0.0.1:0",
        runaway_engine(),
        ServerConfig {
            // Above one default batch (1024 rows), below the product's
            // retained build side — small statements pass, the runaway
            // trips.
            default_budget_rows: Some(2_000),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.query(RUNAWAY).unwrap_err();
    match &err {
        ClientError::Server {
            code: Some(ErrorCode::Memory),
            message,
            ..
        } => assert!(message.contains("2000 resident rows"), "{message}"),
        other => panic!("expected ERR MEMORY, got {other}"),
    }
    // Small statements stay under the budget and run normally.
    let ok = client.query("SELECT a FROM l WHERE a = 1").unwrap();
    assert_eq!(ok.rows.len(), 1);
    let aborts = server.metrics().budget_aborts.load(Ordering::Relaxed);
    assert!(aborts >= 1, "budget abort counted: {aborts}");
    client.close().unwrap();
    server.shutdown();
}

/// A served `EXPLAIN ANALYZE` executes its statement, so it runs under the
/// session guard like `QUERY` and `EXECUTE`: the server-default budget
/// aborts it. A plain `EXPLAIN` executes nothing and still answers.
#[test]
fn served_explain_analyze_runs_under_the_session_guard() {
    let server = Server::bind(
        "127.0.0.1:0",
        runaway_engine(),
        ServerConfig {
            default_budget_rows: Some(2_000),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let plan = client.explain(RUNAWAY, false).unwrap();
    assert!(plan.contains("physical plan"), "{plan}");
    match client.explain(RUNAWAY, true).unwrap_err() {
        ClientError::Server {
            code: Some(ErrorCode::Memory),
            message,
            ..
        } => assert!(message.contains("2000 resident rows"), "{message}"),
        other => panic!("expected ERR MEMORY, got {other}"),
    }
    assert_eq!(server.metrics().budget_aborts.load(Ordering::Relaxed), 1);
    client.close().unwrap();
    server.shutdown();
}

/// The same server-default budget on an engine that may spill: the budget
/// reaches the divide through the statement's guard alone (the engine's own
/// config names none), and the statement spills instead of aborting.
#[test]
fn default_memory_budget_spills_when_the_engine_allows_it() {
    let (dividend, divisor) = div_bench::division_workload(400, 5, 1);
    let mut catalog = div_expr::Catalog::new();
    catalog.register("supplies", dividend);
    catalog.register("wanted", divisor);
    let engine = Arc::new(
        Engine::builder(catalog)
            .planner_config(
                div_physical::PlannerConfig::default()
                    .batch_size(16)
                    .spill_to_disk(true),
            )
            .build(),
    );
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            // Well under the 2,000-row dividend.
            default_budget_rows: Some(300),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let result = client
        .query("SELECT a FROM supplies AS s DIVIDE BY wanted AS w ON s.b = w.b")
        .unwrap();
    assert_eq!(result.rows.len(), 400);
    assert!(engine.metrics().queries_spilled >= 1);
    client.close().unwrap();
    server.shutdown();
}

/// A client with a [`RetryPolicy`] rides out admission-control rejection:
/// it reconnects with backoff until the saturated server frees up.
#[test]
fn retry_client_rides_out_admission_rejection() {
    let data = generate(&ScenarioConfig {
        family: ScenarioFamily::Rbac,
        entities: 20,
        items: 6,
        ..ScenarioConfig::default()
    });
    let sql = data.small_divide_sql();
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new(data.catalog())),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // Saturate: one served session plus one silent connection in the queue.
    let mut holder = Client::connect(addr).unwrap();
    holder.ping().unwrap();
    let _queued = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Free the worker shortly; the silent connection then occupies it until
    // the short read timeout expires.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let _ = holder.close();
    });

    let mut client = Client::connect(addr).unwrap().with_retry(RetryPolicy {
        attempts: 12,
        base_delay: Duration::from_millis(25),
    });
    let result = client.query(&sql).expect("retry eventually succeeds");
    assert!(!result.columns.is_empty());
    release.join().unwrap();
    let _ = client.close();
    server.shutdown();
}

/// The engine-level regression for the satellite contract: a prepared
/// statement crossing a mutation either recompiles (fresh prepare) or
/// surfaces `StalePlan` — it never silently serves pre-mutation rows.
#[test]
fn prepared_statements_never_serve_stale_rows_across_mutation() {
    let data = generate(&ScenarioConfig {
        family: ScenarioFamily::Courses,
        entities: 30,
        items: 8,
        ..ScenarioConfig::default()
    });
    let names = data.names();
    let engine = Engine::new(data.catalog());
    let sql = data.small_divide_sql();
    let stmt = engine.prepare(&sql).unwrap();
    let before = engine.run(Request::prepared(&stmt)).unwrap();
    let before = before.collect_relation().unwrap();

    // Shrink the divisor: the quotient can only grow.
    let shrunk = Relation::from_rows([names.item_column], vec![vec![Value::Int(100)]]).unwrap();
    engine.mutate_catalog(|c| {
        c.register(names.divisor_table, shrunk);
    });

    // The old handle refuses to run...
    let err = engine.run(Request::prepared(&stmt)).unwrap_err();
    assert!(matches!(err, div_sql::Error::StalePlan { .. }), "{err}");

    // ...and a fresh prepare sees exactly the post-mutation state.
    let fresh = engine.prepare(&sql).unwrap();
    let after = engine.run(Request::prepared(&fresh)).unwrap();
    let after = after.collect_relation().unwrap();
    let expected = data
        .dividend
        .divide(&Relation::from_rows([names.item_column], vec![vec![Value::Int(100)]]).unwrap())
        .unwrap();
    assert_eq!(after, expected);
    assert!(after.len() >= before.len(), "quotient grew or stayed");
}
