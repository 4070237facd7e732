//! QPS / latency-percentile benchmark of the `div_server` serving layer.
//!
//! Drives a real TCP server with concurrent client threads over three
//! workload mixes and prints one JSON object (the `BENCH_serving.json`
//! schema) to stdout:
//!
//! * `adhoc` — every request is a full `QUERY` (parse → optimize → plan →
//!   execute per request);
//! * `prepared` — each client prepares once and then only `EXECUTE`s
//!   (the plan-cache path the paper's repeated-query serving argument is
//!   about);
//! * `mixed_mutating` — half ad-hoc, half prepared, with a concurrent
//!   catalog mutator flipping the divisor mid-flight (the snapshot-swap
//!   and transparent-replan overhead case).
//!
//! Usage: `serving_bench [--quick]`. `--quick` shrinks the request counts
//! for CI smoke runs. Set `BENCH_RECORDED_AT` to stamp the snapshot (the
//! wrapper script does); unset, the stamp is `"unstamped"`.

use div_datagen::scenarios::{generate, ScenarioConfig, ScenarioFamily};
use div_server::{Client, Server, ServerConfig};
use div_sql::Engine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;

struct MixReport {
    name: &'static str,
    qps: f64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    requests: usize,
    rows_per_request: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one mix: `clients` threads × `requests` requests each, returning
/// per-request latencies and the wall-clock of the whole mix.
fn run_mix(
    name: &'static str,
    addr: std::net::SocketAddr,
    sql: &str,
    requests: usize,
    prepared_fraction: f64,
) -> MixReport {
    let started = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let sql = sql.to_string();
            let prepared = (i as f64) < prepared_fraction * CLIENTS as f64;
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("bench client connects");
                if prepared {
                    client.prepare("bench", &sql).expect("prepare succeeds");
                }
                let mut latencies = Vec::with_capacity(requests);
                let mut rows = 0usize;
                for _ in 0..requests {
                    let t0 = Instant::now();
                    let result = if prepared {
                        client.execute("bench", &[])
                    } else {
                        client.query(&sql)
                    };
                    let elapsed = t0.elapsed().as_nanos() as u64;
                    match result {
                        Ok(r) => {
                            rows += r.rows.len();
                            latencies.push(elapsed);
                        }
                        // Retryable wire errors (BUSY) don't contribute a
                        // latency.
                        Err(err) if err.is_retryable() => {}
                        Err(div_server::ClientError::Server { .. }) => {}
                        Err(err) => panic!("bench request failed: {err}"),
                    }
                }
                let _ = client.close();
                (latencies, rows)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut rows = 0usize;
    for worker in workers {
        let (l, r) = worker.join().expect("bench client thread");
        latencies.extend(l);
        rows += r;
    }
    let wall = started.elapsed();
    latencies.sort_unstable();
    let completed = latencies.len();
    MixReport {
        name,
        qps: completed as f64 / wall.as_secs_f64(),
        p50_ns: percentile(&latencies, 50.0),
        p95_ns: percentile(&latencies, 95.0),
        p99_ns: percentile(&latencies, 99.0),
        requests: completed,
        rows_per_request: if completed == 0 {
            0.0
        } else {
            rows as f64 / completed as f64
        },
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let requests = if quick { 20 } else { 150 };

    let data = generate(&ScenarioConfig {
        family: ScenarioFamily::Rbac,
        entities: 200,
        items: 16,
        membership: 0.6,
        full_entities: 0.1,
        null_density: 0.0,
        ..ScenarioConfig::default()
    });
    let names = data.names();
    let sql = data.small_divide_sql();
    let engine = Arc::new(Engine::new(data.catalog()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            workers: CLIENTS + 2,
            queue_depth: CLIENTS * 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let adhoc = run_mix("adhoc", addr, &sql, requests, 0.0);
    let prepared = run_mix("prepared", addr, &sql, requests, 1.0);

    // Mixed mix: 50/50 ad-hoc/prepared with a concurrent catalog mutator.
    let stop = Arc::new(AtomicBool::new(false));
    let mutator = {
        let stop = Arc::clone(&stop);
        let rows_a: Vec<Vec<div_algebra::Value>> =
            data.divisor.tuples().map(|t| t.values().to_vec()).collect();
        let rows_b: Vec<Vec<div_algebra::Value>> = rows_a
            .iter()
            .take(1.max(rows_a.len() / 2))
            .cloned()
            .collect();
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
                    .register(names.divisor_table, &[names.item_column], rows)
                    .expect("mutation accepted");
                flips += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            let _ = client.close();
        })
    };
    let mixed = run_mix("mixed_mutating", addr, &sql, requests, 0.5);
    stop.store(true, Ordering::Relaxed);
    mutator.join().expect("mutator thread");

    let snapshot = engine.metrics();
    let server_metrics = server.metrics().to_json();
    let recorded_at =
        std::env::var("BENCH_RECORDED_AT").unwrap_or_else(|_| "unstamped".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("{{");
    println!("  \"bench\": \"serving\",");
    println!("  \"recorded_at\": \"{recorded_at}\",");
    println!("  \"host_parallelism\": {cores},");
    println!("  \"clients\": {CLIENTS},");
    println!("  \"requests_per_client\": {requests},");
    println!("  \"mixes\": {{");
    for (i, mix) in [&adhoc, &prepared, &mixed].iter().enumerate() {
        println!(
            "    \"{}\": {{\"qps\": {:.1}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"requests\": {}, \"rows_per_request\": {:.1}}}{}",
            mix.name,
            mix.qps,
            mix.p50_ns,
            mix.p95_ns,
            mix.p99_ns,
            mix.requests,
            mix.rows_per_request,
            if i < 2 { "," } else { "" }
        );
    }
    println!("  }},");
    println!(
        "  \"prepared_speedup\": {:.2},",
        if adhoc.qps > 0.0 {
            prepared.qps / adhoc.qps
        } else {
            0.0
        }
    );
    println!(
        "  \"engine\": {{\"queries_executed\": {}, \"prepared_cache_hits\": {}, \
         \"prepared_cache_misses\": {}}},",
        snapshot.queries_executed, snapshot.prepared_cache_hits, snapshot.prepared_cache_misses
    );
    println!("  \"server\": {server_metrics}");
    println!("}}");

    server.shutdown();
}
