//! Wire-protocol conformance: framing, typed errors, robustness limits and
//! a differential check that the server streams exactly the bytes the
//! engine produces.

use div_algebra::{relation, Value};
use div_expr::Catalog;
use div_server::{protocol, Client, ClientError, ErrorCode, Server, ServerConfig, ServerHandle};
use div_sql::Engine;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn textbook_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(
        "supplies",
        relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 2] },
    );
    catalog.register(
        "parts",
        relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
    );
    catalog
}

fn serve(config: ServerConfig) -> ServerHandle {
    let engine = Arc::new(Engine::new(textbook_catalog()));
    Server::bind("127.0.0.1:0", engine, config).expect("bind ephemeral port")
}

const Q2: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                  (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";

#[test]
fn end_to_end_session_happy_path() {
    let server = serve(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let result = client.query(Q2).unwrap();
    assert_eq!(result.columns, vec!["s#"]);
    let mut rows = result.rows.clone();
    rows.sort();
    assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    assert_eq!(result.detail, "2 rows");

    client
        .prepare(
            "by_color",
            "SELECT s# FROM supplies AS s DIVIDE BY \
             (SELECT p# FROM parts WHERE color = $color) AS p ON s.p# = p.p#",
        )
        .unwrap();
    let red = client
        .execute("by_color", &[("color", Value::from("red"))])
        .unwrap();
    assert_eq!(red.rows, vec![vec![Value::Int(2)]]);

    let plan = client.explain(Q2, false).unwrap();
    assert!(plan.contains("logical plan (before rewrite):"), "{plan}");
    let analyzed = client.explain(Q2, true).unwrap();
    assert!(analyzed.contains("execution stats:"), "{analyzed}");

    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("\"server\""), "{metrics}");
    assert!(metrics.contains("\"queries_executed\""), "{metrics}");

    client
        .register("gadgets", &["g#"], &[vec![7i64.into()]])
        .unwrap();
    let gadgets = client.query("SELECT g# FROM gadgets").unwrap();
    assert_eq!(gadgets.rows, vec![vec![Value::Int(7)]]);
    client.drop_table("gadgets").unwrap();
    let err = client.query("SELECT g# FROM gadgets").unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server {
            code: Some(ErrorCode::Plan),
            ..
        }
    ));

    client.close().unwrap();
    server.shutdown();
}

#[test]
fn malformed_lines_get_typed_errors_and_the_session_survives() {
    let server = serve(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (line, expected) in [
        ("FROBNICATE", ErrorCode::Malformed),
        ("QUERY", ErrorCode::Malformed),
        ("PREPARE onlyname", ErrorCode::Malformed),
        ("EXECUTE q $color", ErrorCode::Malformed),
        ("MUTATE REGISTER t (a) VALUES (1, 2)", ErrorCode::Malformed),
        ("QUERY SELECT FROM WHERE", ErrorCode::Parse),
        ("QUERY SELECT x FROM missing", ErrorCode::Plan),
        ("EXECUTE never_prepared", ErrorCode::UnknownStatement),
        (
            "QUERY SELECT s# FROM supplies WHERE p# = $p",
            ErrorCode::UnboundParameter,
        ),
    ] {
        let lines = client.exchange(line).unwrap();
        assert_eq!(lines.len(), 1, "errors are a single terminal: {lines:?}");
        let token = lines[0]
            .strip_prefix("ERR ")
            .and_then(|r| r.split_whitespace().next())
            .unwrap_or_default();
        assert_eq!(
            ErrorCode::parse(token),
            Some(expected),
            "line {line:?} answered {:?}",
            lines[0]
        );
    }
    // The session is still healthy after every rejection.
    let result = client.query(Q2).unwrap();
    assert_eq!(result.rows.len(), 2);
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn oversized_requests_are_rejected_and_the_connection_closed() {
    let server = serve(ServerConfig {
        max_request_bytes: 256,
        ..ServerConfig::default()
    });
    let huge = format!("QUERY SELECT s# FROM supplies -- {}", "x".repeat(4096));
    // The server answers after reading only the first few KB of the request.
    // Closing a socket with unread input resets the connection, which can
    // destroy the terminal line before the client reads it — a race, so it
    // is run many times.
    for round in 0..1000 {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let lines = client
            .exchange(&huge)
            .unwrap_or_else(|err| panic!("round {round}: {err}"));
        assert!(
            lines.last().unwrap().starts_with("ERR TOO_LARGE"),
            "round {round}: {lines:?}"
        );
        // The connection is closed after the rejection.
        assert!(
            matches!(client.exchange("PING"), Err(ClientError::Io(_))),
            "round {round}"
        );
    }
    // The server closed every oversized connection; a fresh one works.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    fresh.ping().unwrap();
    server.shutdown();
}

#[test]
fn mid_stream_disconnects_leave_the_server_healthy() {
    let server = serve(ServerConfig::default());
    // Register a table large enough that the result spans many batches.
    {
        let rows: Vec<Vec<Value>> = (0..20_000i64).map(|i| vec![Value::Int(i)]).collect();
        let relation = div_algebra::Relation::from_rows(["n"], rows).unwrap();
        server.engine().mutate_catalog(|c| {
            c.register("numbers", relation);
        });
    }
    // Raw socket: send the query, read a few bytes, vanish.
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"QUERY SELECT n FROM numbers\n").unwrap();
        let mut first = [0u8; 64];
        let n = raw.read(&mut first).unwrap();
        assert!(n > 0, "server started streaming");
        drop(raw); // mid-stream disconnect
    }
    // The worker notices the dead peer and returns to the pool: subsequent
    // sessions are served (with the default 8 workers this passes even if
    // the dying stream lingers briefly).
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    let result = fresh.query(Q2).unwrap();
    assert_eq!(result.rows.len(), 2);
    fresh.close().unwrap();
    server.shutdown();
}

#[test]
fn admission_control_answers_busy_when_saturated() {
    let server = serve(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    // Occupy the single worker with a served session...
    let mut holder = Client::connect(server.local_addr()).unwrap();
    holder.ping().unwrap();
    // ...fill the one queue slot with a connection that never speaks...
    let _queued = TcpStream::connect(server.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // ...and the next connection is rejected with the typed overload error.
    let mut rejected =
        Client::connect_timeout(server.local_addr(), Duration::from_secs(5)).unwrap();
    let lines = rejected.read_response().unwrap();
    let token = lines
        .last()
        .unwrap()
        .strip_prefix("ERR ")
        .and_then(|r| r.split_whitespace().next())
        .unwrap_or_default();
    assert_eq!(ErrorCode::parse(token), Some(ErrorCode::Busy));
    assert!(ErrorCode::Busy.retryable());
    let rejections = server
        .metrics()
        .connections_rejected
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(rejections >= 1, "rejection counted: {rejections}");
    holder.close().unwrap();
    server.shutdown();
}

#[test]
fn idle_connections_time_out_with_a_typed_error() {
    let server = serve(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut client = Client::connect_timeout(server.local_addr(), Duration::from_secs(5)).unwrap();
    // Say nothing; the server closes us with ERR TIMEOUT.
    let lines = client.read_response().unwrap();
    assert!(
        lines.last().unwrap().starts_with("ERR TIMEOUT"),
        "{lines:?}"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_idle_sessions_with_a_typed_error() {
    let server = serve(ServerConfig::default());
    let mut idle = Client::connect_timeout(server.local_addr(), Duration::from_secs(5)).unwrap();
    idle.ping().unwrap();
    let drain = std::thread::spawn(move || server.shutdown());
    let lines = idle.read_response().unwrap();
    assert!(
        lines.last().unwrap().starts_with("ERR SHUTDOWN"),
        "{lines:?}"
    );
    drain.join().unwrap();
}

/// `SESSION` reports an id; `CANCEL` of an idle or unknown session is an
/// idempotent no-op with a typed acknowledgement either way.
#[test]
fn session_ids_are_reported_and_idle_cancel_is_a_noop() {
    let server = serve(ServerConfig::default());
    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    let id_a = a.session_id().unwrap();
    let id_b = b.session_id().unwrap();
    assert_ne!(id_a, id_b, "sessions get distinct ids");
    // Asking again returns the same id: the id names the session, not the
    // request.
    assert_eq!(a.session_id().unwrap(), id_a);
    // Neither session has a statement in flight; unknown ids answer the
    // same way (an unknown and an idle session are indistinguishable).
    assert!(!b.cancel(id_a).unwrap());
    assert!(!b.cancel(u64::MAX).unwrap());
    // Cancelling did not poison anything.
    assert_eq!(a.query(Q2).unwrap().rows.len(), 2);
    a.close().unwrap();
    b.close().unwrap();
    server.shutdown();
}

mod codec_fuzz {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// Hostile strings over a pool heavy in the codec's special characters:
    /// quotes, escapes, framing bytes, separators and multi-byte unicode.
    #[derive(Clone, Copy)]
    struct WireString {
        max_len: usize,
    }

    const POOL: &[char] = &[
        'a',
        'Z',
        '0',
        '7',
        ' ',
        '\'',
        '\\',
        '\n',
        '\r',
        '\t',
        '$',
        '=',
        ',',
        ';',
        '(',
        ')',
        '{',
        '}',
        '-',
        '#',
        '\u{e9}',
        '\u{4e16}',
        '\u{1f600}',
        'n',
        'r',
        't',
        'x',
    ];

    impl Strategy for WireString {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let len = rng.below(self.max_len as u64 + 1) as usize;
            (0..len)
                .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
                .collect()
        }
    }

    /// Any value a result row can carry (sets excluded: no wire command
    /// accepts a set literal, matching the codec's documented domain).
    struct AnyValue;

    impl Strategy for AnyValue {
        type Value = Value;

        fn generate(&self, rng: &mut TestRng) -> Value {
            match rng.below(4) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 0),
                2 => Value::Int(rng.next_u64() as i64),
                _ => Value::from(WireString { max_len: 24 }.generate(rng)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// `encode_value` → `parse_value` is the identity for every value a
        /// result row can carry, and the encoding never breaks the
        /// one-line-per-message framing.
        #[test]
        fn value_codec_round_trips(value in AnyValue) {
            let encoded = protocol::encode_value(&value);
            prop_assert!(!encoded.contains('\n'), "framing-safe: {encoded:?}");
            prop_assert!(!encoded.contains('\r'), "framing-safe: {encoded:?}");
            let decoded = protocol::parse_value(&encoded)
                .expect("every encoding parses back");
            prop_assert_eq!(decoded, value);
        }

        /// Whole rows survive the tab-separated `ROW` framing.
        #[test]
        fn row_codec_round_trips(values in prop::collection::vec(AnyValue, 1..6)) {
            let line = protocol::encode_row(&values);
            let payload = line.strip_prefix("ROW ").expect("ROW prefix");
            let decoded: Vec<Value> = payload
                .split('\t')
                .map(|t| protocol::parse_value(t).expect("cell parses"))
                .collect();
            prop_assert_eq!(decoded, values);
        }

        /// The request parser never panics, whatever bytes arrive — every
        /// line either parses or is a typed `MalformedRequest`.
        #[test]
        fn request_parser_total_on_arbitrary_lines(line in WireString { max_len: 80 }) {
            let _ = protocol::parse_request(&line);
        }

        /// Adversarial near-grammar lines: a real verb with garbage
        /// arguments (quotes, escapes, unicode) must never panic either.
        #[test]
        fn request_parser_total_on_near_grammar_lines(
            verb in 0..8usize,
            garbage in WireString { max_len: 60 },
        ) {
            const VERBS: [&str; 8] = [
                "QUERY", "PREPARE", "EXECUTE", "MUTATE REGISTER",
                "MUTATE DROP", "EXPLAIN", "CANCEL", "SESSION",
            ];
            let _ = protocol::parse_request(&format!("{} {garbage}", VERBS[verb]));
        }

        /// `parse_value` is total too: arbitrary tokens either yield a
        /// value or a typed error, never a panic — including unterminated
        /// quotes and dangling escapes.
        #[test]
        fn value_parser_total_on_arbitrary_tokens(token in WireString { max_len: 40 }) {
            let _ = protocol::parse_value(&token);
        }
    }
}

/// The server's `ROW` lines are byte-identical to encoding the direct
/// engine result with the same codec — the serving layer adds framing, not
/// interpretation.
#[test]
fn server_results_are_byte_identical_to_direct_engine_output() {
    let data = div_datagen::scenarios::generate(&div_datagen::scenarios::ScenarioConfig {
        family: div_datagen::scenarios::ScenarioFamily::Rbac,
        entities: 40,
        items: 10,
        ..Default::default()
    });
    let engine = Arc::new(Engine::new(data.catalog()));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
        .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    for sql in [
        data.small_divide_sql(),
        data.great_divide_sql(),
        "SELECT user FROM user_roles WHERE role = 'role0'".to_string(),
    ] {
        let mut served: Vec<String> = client
            .exchange(&format!("QUERY {sql}"))
            .unwrap()
            .into_iter()
            .filter(|l| l.starts_with("ROW "))
            .collect();
        let mut direct: Vec<String> = Vec::new();
        let mut cursor = engine.query(&sql).unwrap();
        for batch in cursor.by_ref() {
            let batch = batch.unwrap();
            for i in 0..batch.num_rows() {
                direct.push(protocol::encode_row(batch.row(i).values()));
            }
        }
        // Hash-based operators need not emit in a deterministic order;
        // byte-identity is per row, compared as sorted sets of lines.
        served.sort();
        direct.sort();
        assert_eq!(served, direct, "for {sql}");
        assert!(!served.is_empty(), "nonempty workload for {sql}");
    }
    client.close().unwrap();
    server.shutdown();
}
