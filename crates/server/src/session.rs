//! One client session: the per-connection request loop.
//!
//! A session owns one [`TcpStream`] and serves requests sequentially until
//! the client closes, sends `CLOSE`, idles past the read timeout, exceeds
//! the request-size limit, or the server starts draining for shutdown.
//! Results stream batch-at-a-time straight off the engine's [`Cursor`], so
//! a client that stops reading (or disconnects) stops the source scans
//! short instead of forcing full materialization.

use crate::metrics::ServerMetrics;
use crate::protocol::{
    self, code_for, encode_row_into, encode_schema, err_line, ErrorCode, Request,
};
use crate::server::ServerConfig;
use div_algebra::Relation;
use div_sql::{CancelToken, Engine, Error, Params, PreparedStatement, QueryGuard};
use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Process-wide session id source: ids stay unique across every server a
/// test process starts, so a `CANCEL` can never alias a session of another
/// server instance.
static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);

/// The in-flight statement registry: session id → the cancellation token
/// of the statement that session is currently running.
///
/// A session registers a fresh token immediately before opening a cursor
/// and deregisters it (drop guard, so error paths included) when the
/// statement's terminal line has been decided. `CANCEL <id>` served on any
/// *other* connection trips the token; the governed executor observes the
/// trip at its next batch boundary.
#[derive(Debug, Default)]
pub(crate) struct CancelRegistry {
    inner: Mutex<HashMap<u64, CancelToken>>,
}

impl CancelRegistry {
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, CancelToken>> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn register(&self, session: u64, token: CancelToken) {
        self.lock().insert(session, token);
    }

    fn deregister(&self, session: u64) {
        self.lock().remove(&session);
    }

    /// Trip the token of `session`'s in-flight statement. `false` when the
    /// session is idle (or unknown — indistinguishable to the caller).
    fn cancel(&self, session: u64) -> bool {
        match self.lock().get(&session) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }
}

/// Deregisters the session's in-flight statement on drop, so no terminal
/// path (clean finish, engine error, vanished client) can leak a stale
/// token into the registry.
struct ArmedStatement<'a> {
    registry: &'a CancelRegistry,
    session: u64,
}

impl Drop for ArmedStatement<'_> {
    fn drop(&mut self) {
        self.registry.deregister(self.session);
    }
}

/// How often a blocked read wakes up to check the shutdown flag and the
/// idle deadline.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Input a server-initiated close discards, at most, while it waits for the
/// client to close its side.
const LINGER_BYTES: usize = 64 * 1024;

/// How long a server-initiated close waits, at most, for the client to
/// close its side.
const LINGER_TIMEOUT: Duration = Duration::from_millis(250);

/// Why the session's line reader stopped producing.
enum ReadOutcome {
    /// One complete request line (without the trailing newline).
    Line(String),
    /// The line grew past [`ServerConfig::max_request_bytes`].
    TooLarge,
    /// No complete line arrived within [`ServerConfig::read_timeout`].
    IdleTimeout,
    /// The server is draining; stop between requests.
    Shutdown,
    /// The client closed the connection (EOF) or the socket failed.
    Disconnected,
}

/// Reads newline-delimited request lines off the socket, enforcing the
/// request-size cap and the idle timeout while staying responsive to the
/// server's shutdown flag (the socket is polled with a short read timeout).
struct LineReader<'a> {
    stream: &'a TcpStream,
    buf: Vec<u8>,
    max_line: usize,
    idle: Duration,
    shutdown: &'a AtomicBool,
}

impl<'a> LineReader<'a> {
    fn new(
        stream: &'a TcpStream,
        max_line: usize,
        idle: Duration,
        shutdown: &'a AtomicBool,
    ) -> LineReader<'a> {
        LineReader {
            stream,
            buf: Vec::new(),
            max_line,
            idle,
            shutdown,
        }
    }

    fn next_line(&mut self) -> ReadOutcome {
        let deadline = Instant::now() + self.idle;
        loop {
            // A complete line may already be buffered from a previous read.
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                return ReadOutcome::Line(text.trim_end_matches('\r').to_string());
            }
            if self.buf.len() > self.max_line {
                return ReadOutcome::TooLarge;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return ReadOutcome::Shutdown;
            }
            if Instant::now() >= deadline {
                return ReadOutcome::IdleTimeout;
            }
            let mut chunk = [0u8; 4096];
            match (&mut &*self.stream).read(&mut chunk) {
                Ok(0) => return ReadOutcome::Disconnected,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if poll_tick_passed(&e) => continue,
                Err(_) => return ReadOutcome::Disconnected,
            }
        }
    }
}

/// Serve one connection to completion. Called on a worker thread; never
/// panics outward on socket errors (a vanished client is normal).
pub(crate) fn run_session(
    stream: TcpStream,
    engine: &Engine,
    config: &ServerConfig,
    metrics: &ServerMetrics,
    shutdown: &AtomicBool,
    cancels: &CancelRegistry,
) {
    let session_id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
    // Short socket timeout so reads stay responsive to the shutdown flag;
    // the *logical* idle timeout is enforced by the line reader.
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_nodelay(true);
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(writer_stream);
    let mut reader = LineReader::new(
        &stream,
        config.max_request_bytes,
        config.read_timeout,
        shutdown,
    );
    // Session-local prepared statements, by client-chosen name.
    let mut prepared: HashMap<String, PreparedStatement> = HashMap::new();

    loop {
        match reader.next_line() {
            ReadOutcome::Line(line) => {
                let outcome = serve_request(
                    &line,
                    session_id,
                    engine,
                    config,
                    metrics,
                    cancels,
                    &mut prepared,
                    &mut writer,
                );
                ServerMetrics::bump(&metrics.requests_served);
                match outcome {
                    RequestOutcome::Continue => {}
                    RequestOutcome::CloseSession => return,
                    RequestOutcome::ClientGone => {
                        ServerMetrics::bump(&metrics.streams_cancelled);
                        return;
                    }
                }
            }
            ReadOutcome::TooLarge => {
                ServerMetrics::bump(&metrics.requests_served);
                ServerMetrics::bump(&metrics.requests_failed);
                let message = format!(
                    "request exceeds {} bytes; closing connection",
                    config.max_request_bytes
                );
                return close_with(&mut writer, &stream, ErrorCode::TooLarge, &message);
            }
            ReadOutcome::IdleTimeout => {
                return close_with(
                    &mut writer,
                    &stream,
                    ErrorCode::Timeout,
                    "idle connection closed",
                );
            }
            ReadOutcome::Shutdown => {
                return close_with(
                    &mut writer,
                    &stream,
                    ErrorCode::Shutdown,
                    "server is shutting down",
                );
            }
            ReadOutcome::Disconnected => return,
        }
    }
}

/// What serving one request decided about the session.
enum RequestOutcome {
    Continue,
    CloseSession,
    /// A write failed mid-response: the client disconnected while we were
    /// streaming. The open cursor was dropped, short-circuiting its scans.
    ClientGone,
}

/// Write `line` and flush; any failure means the client is gone.
fn terminal(writer: &mut BufWriter<TcpStream>, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Close the session from the server side with a terminal `ERR code`.
///
/// Closing a socket that still holds unread input makes the kernel reset
/// the connection, and a reset can destroy the terminal line before the
/// client reads it. So this is a lingering close: flush the terminal, shut
/// down the write side (the client reads the terminal, then EOF), and
/// discard input until the client closes its side, [`LINGER_BYTES`] have
/// been discarded or [`LINGER_TIMEOUT`] has passed. Only then does the
/// caller drop the socket.
fn close_with(
    writer: &mut BufWriter<TcpStream>,
    stream: &TcpStream,
    code: ErrorCode,
    message: &str,
) {
    if terminal(writer, &err_line(code, message)).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER_TIMEOUT;
    let mut discarded = 0;
    let mut chunk = [0u8; 4096];
    while discarded < LINGER_BYTES && Instant::now() < deadline {
        match (&mut &*stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => discarded += n,
            Err(e) if poll_tick_passed(&e) => {}
            Err(_) => return,
        }
    }
}

/// Whether a read failed only because [`POLL_TICK`] passed with no input.
fn poll_tick_passed(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Build the guard for one statement: the engine's configured defaults,
/// overridden by the server's session-wide defaults, observing `token`.
/// The deadline arms here — immediately before the cursor opens.
fn statement_guard(engine: &Engine, config: &ServerConfig, token: CancelToken) -> QueryGuard {
    let mut guard = QueryGuard::from_config(engine.planner_config()).with_token(token);
    if let Some(deadline) = config.default_deadline {
        guard = guard.with_deadline(deadline);
    }
    if let Some(budget) = config.default_budget_rows {
        guard = guard.with_budget_rows(budget);
    }
    guard
}

/// Register a fresh cancellation token for the statement this session is
/// about to run. The returned drop guard deregisters it on every exit path.
fn arm_statement<'a>(
    session_id: u64,
    cancels: &'a CancelRegistry,
    engine: &Engine,
    config: &ServerConfig,
) -> (QueryGuard, ArmedStatement<'a>) {
    let token = CancelToken::new();
    cancels.register(session_id, token.clone());
    (
        statement_guard(engine, config, token),
        ArmedStatement {
            registry: cancels,
            session: session_id,
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn serve_request(
    line: &str,
    session_id: u64,
    engine: &Engine,
    config: &ServerConfig,
    metrics: &ServerMetrics,
    cancels: &CancelRegistry,
    prepared: &mut HashMap<String, PreparedStatement>,
    writer: &mut BufWriter<TcpStream>,
) -> RequestOutcome {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(bad) => {
            ServerMetrics::bump(&metrics.requests_failed);
            return match terminal(writer, &err_line(ErrorCode::Malformed, &bad.0)) {
                Ok(()) => RequestOutcome::Continue,
                Err(_) => RequestOutcome::ClientGone,
            };
        }
    };
    let result = match request {
        Request::Ping => terminal(writer, "OK pong").map(|()| RequestOutcome::Continue),
        Request::Close => {
            let _ = terminal(writer, "OK bye");
            return RequestOutcome::CloseSession;
        }
        Request::Query(sql) => {
            let (guard, _armed) = arm_statement(session_id, cancels, engine, config);
            match engine.query_guarded(&sql, &Params::new(), guard) {
                Ok(cursor) => return stream_cursor(cursor, metrics, writer),
                Err(err) => engine_error(&err, metrics, writer),
            }
        }
        Request::Prepare { name, sql } => match engine.prepare(&sql) {
            Ok(statement) => {
                let detail = format!(
                    "OK prepared {name} parameters={}",
                    statement.parameters().len()
                );
                prepared.insert(name, statement);
                terminal(writer, &detail).map(|()| RequestOutcome::Continue)
            }
            Err(err) => engine_error(&err, metrics, writer),
        },
        Request::Execute { name, params } => {
            let statement = match prepared.get(&name) {
                Some(statement) => statement,
                None => {
                    ServerMetrics::bump(&metrics.requests_failed);
                    let msg = format!("no prepared statement named `{name}` in this session");
                    return match terminal(writer, &err_line(ErrorCode::UnknownStatement, &msg)) {
                        Ok(()) => RequestOutcome::Continue,
                        Err(_) => RequestOutcome::ClientGone,
                    };
                }
            };
            let mut bound = Params::new();
            for (key, value) in params {
                bound = bound.bind(key, value);
            }
            let (guard, _armed) = arm_statement(session_id, cancels, engine, config);
            match statement.execute_guarded(engine, &bound, guard.clone()) {
                Ok(cursor) => return stream_cursor(cursor, metrics, writer),
                Err(Error::StalePlan { .. }) => {
                    // The catalog moved under the cached plan. Re-prepare
                    // transparently: the client keeps its statement name and
                    // never sees a stale result. Plan and cursor come from
                    // one catalog snapshot, so no further mutation can make
                    // this attempt stale in turn. It reuses the guard (same
                    // token, same deadline arm time): to the client this is
                    // still one statement.
                    match engine.prepare_execute_guarded(statement.sql(), &bound, guard) {
                        Ok((fresh, cursor)) => {
                            ServerMetrics::bump(&metrics.stale_replans);
                            prepared.insert(name, fresh);
                            return stream_cursor(cursor, metrics, writer);
                        }
                        Err(err) => engine_error(&err, metrics, writer),
                    }
                }
                Err(err) => engine_error(&err, metrics, writer),
            }
        }
        Request::Explain { sql, analyze } => {
            let report = if analyze {
                engine.explain_analyze(&sql)
            } else {
                engine.explain(&sql)
            };
            match report {
                Ok(explain) => {
                    let rendered = explain.to_string();
                    (|| {
                        for plan_line in rendered.lines() {
                            writer.write_all(b"PLAN ")?;
                            writer.write_all(plan_line.as_bytes())?;
                            writer.write_all(b"\n")?;
                        }
                        terminal(writer, "OK")
                    })()
                    .map(|()| RequestOutcome::Continue)
                }
                Err(err) => engine_error(&err, metrics, writer),
            }
        }
        Request::Metrics => {
            let json = format!(
                "METRICS {{\"server\": {}, \"engine\": {}}}",
                metrics.to_json(),
                engine.metrics().to_json()
            );
            (|| {
                writer.write_all(json.as_bytes())?;
                writer.write_all(b"\n")?;
                terminal(writer, "OK")
            })()
            .map(|()| RequestOutcome::Continue)
        }
        Request::Register {
            table,
            columns,
            rows,
        } => {
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            match Relation::from_rows(names, rows) {
                Ok(relation) => {
                    let version = engine.mutate_catalog(|catalog| {
                        catalog.register(table.as_str(), relation);
                        catalog.version()
                    });
                    terminal(writer, &format!("OK version {version}"))
                        .map(|()| RequestOutcome::Continue)
                }
                Err(err) => {
                    ServerMetrics::bump(&metrics.requests_failed);
                    terminal(writer, &err_line(ErrorCode::Plan, &err.to_string()))
                        .map(|()| RequestOutcome::Continue)
                }
            }
        }
        Request::Session => {
            terminal(writer, &format!("OK session {session_id}")).map(|()| RequestOutcome::Continue)
        }
        Request::Cancel(target) => {
            let verdict = if cancels.cancel(target) {
                "cancelled"
            } else {
                "idle"
            };
            terminal(writer, &format!("OK {verdict} {target}")).map(|()| RequestOutcome::Continue)
        }
        Request::Drop(table) => {
            let dropped = engine
                .mutate_catalog(|catalog| catalog.unregister(&table).map(|_| catalog.version()));
            match dropped {
                Ok(version) => terminal(writer, &format!("OK version {version}"))
                    .map(|()| RequestOutcome::Continue),
                Err(err) => {
                    ServerMetrics::bump(&metrics.requests_failed);
                    terminal(writer, &err_line(ErrorCode::Plan, &err.to_string()))
                        .map(|()| RequestOutcome::Continue)
                }
            }
        }
        Request::Attach { table, path } => {
            // Open (and validate) the file before touching the catalog so a
            // bad path / corrupt file leaves the served catalog unchanged.
            let opened = div_physical::failpoint::hit("attach", "open")
                .map_err(Error::from)
                .and_then(|()| {
                    div_storage::TableReader::open(&path)
                        .map_err(div_expr::ExprError::from)
                        .map_err(Error::from)
                });
            match opened {
                Ok(reader) => {
                    let version = engine.mutate_catalog(|catalog| {
                        catalog.register_external(table.as_str(), std::sync::Arc::new(reader));
                        catalog.version()
                    });
                    terminal(writer, &format!("OK version {version}"))
                        .map(|()| RequestOutcome::Continue)
                }
                Err(err) => {
                    ServerMetrics::bump(&metrics.requests_failed);
                    terminal(writer, &err_line(code_for(&err), &err.to_string()))
                        .map(|()| RequestOutcome::Continue)
                }
            }
        }
    };
    match result {
        Ok(outcome) => outcome,
        Err(_) => RequestOutcome::ClientGone,
    }
}

/// Count a governance abort under its own metric (in addition to the
/// generic `requests_failed` bump every `ERR` terminal gets).
fn governance_bump(err: &Error, metrics: &ServerMetrics) {
    match err {
        Error::Cancelled { .. } => ServerMetrics::bump(&metrics.queries_cancelled),
        Error::DeadlineExceeded { .. } => ServerMetrics::bump(&metrics.deadline_aborts),
        Error::MemoryBudget { .. } => ServerMetrics::bump(&metrics.budget_aborts),
        _ => {}
    }
}

/// Report an engine error as its typed `ERR` line.
fn engine_error(
    err: &Error,
    metrics: &ServerMetrics,
    writer: &mut BufWriter<TcpStream>,
) -> io::Result<RequestOutcome> {
    ServerMetrics::bump(&metrics.requests_failed);
    governance_bump(err, metrics);
    terminal(writer, &err_line(code_for(err), &err.to_string())).map(|()| RequestOutcome::Continue)
}

/// Stream a cursor's result: `SCHEMA`, then one `ROW` line per tuple
/// (flushed batch-at-a-time), then `OK <n> rows`. A failed write drops the
/// cursor immediately — the executor's early-termination contract stops the
/// source scans short for clients that went away mid-result.
fn stream_cursor(
    mut cursor: div_sql::Cursor,
    metrics: &ServerMetrics,
    writer: &mut BufWriter<TcpStream>,
) -> RequestOutcome {
    let schema_line = {
        let names: Vec<&str> = cursor.schema().names();
        encode_schema(&names)
    };
    if writer
        .write_all(schema_line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .is_err()
    {
        return RequestOutcome::ClientGone;
    }
    let mut rows: u64 = 0;
    let mut line = String::new();
    for batch in cursor.by_ref() {
        let batch = match batch {
            Ok(batch) => batch,
            Err(err) => {
                // Mid-stream failure: the ERR line is still the terminal.
                // Dropping the cursor here closes the pipeline exactly like
                // a client disconnect — resident accounting drains to zero.
                ServerMetrics::bump(&metrics.requests_failed);
                governance_bump(&err, metrics);
                return match terminal(writer, &err_line(code_for(&err), &err.to_string())) {
                    Ok(()) => RequestOutcome::Continue,
                    Err(_) => RequestOutcome::ClientGone,
                };
            }
        };
        for i in 0..batch.num_rows() {
            line.clear();
            encode_row_into(&mut line, batch.row(i).values());
            line.push('\n');
            if writer.write_all(line.as_bytes()).is_err() {
                return RequestOutcome::ClientGone;
            }
        }
        let streamed = batch.num_rows() as u64;
        rows += streamed;
        metrics.rows_streamed.fetch_add(streamed, Ordering::Relaxed);
        // Flush per batch: the client sees results incrementally and a
        // vanished client surfaces as a write error on the next batch.
        if writer.flush().is_err() {
            return RequestOutcome::ClientGone;
        }
    }
    // Fold the finished execution's spill and chunk-skip counters into the
    // engine's metrics registry (a dropped cursor reports only its latency).
    cursor.finish_stats();
    match terminal(writer, &format!("OK {rows} rows")) {
        Ok(()) => RequestOutcome::Continue,
        Err(_) => RequestOutcome::ClientGone,
    }
}
