//! The TCP front door: accept loop, admission control and the session
//! worker pool.
//!
//! ```text
//! accept loop ──try_send──► bounded channel ──recv──► worker 1..N
//!      │  (queue full)                                  │
//!      └─► ERR BUSY + close                             └─► run_session
//! ```
//!
//! Admission control is the bounded channel: its capacity is the connection
//! backlog the server is willing to hold beyond the sessions already being
//! served. When the queue is full the accept loop answers `ERR BUSY` (a
//! retryable error) and closes — overload produces fast, typed rejection
//! instead of unbounded queueing.

use crate::metrics::ServerMetrics;
use crate::protocol::{err_line, ErrorCode};
use crate::session::{run_session, CancelRegistry};
use div_sql::Engine;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Session worker threads: the number of connections served
    /// concurrently.
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before
    /// admission control starts answering `ERR BUSY`.
    pub queue_depth: usize,
    /// How long a connection may sit idle (no complete request line)
    /// before the server closes it with `ERR TIMEOUT`.
    pub read_timeout: Duration,
    /// Maximum bytes of one request line; longer requests are answered
    /// with `ERR TOO_LARGE` and the connection is closed.
    pub max_request_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            queue_depth: 16,
            read_timeout: Duration::from_secs(30),
            max_request_bytes: 64 * 1024,
        }
    }
}

/// A running server: bind with [`Server::bind`], stop with
/// [`ServerHandle::shutdown`].
pub struct Server;

/// Handle on a running server. Dropping the handle shuts the server down
/// (gracefully: in-flight requests finish).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    engine: Arc<Engine>,
    metrics: Arc<ServerMetrics>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `engine` with the given config. Returns immediately; serving
    /// happens on background threads owned by the returned handle.
    pub fn bind(addr: &str, engine: Arc<Engine>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::default());
        let cancels = Arc::new(CancelRegistry::default());
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
        // The workers take turns on the one receiver.
        let rx = Arc::new(Mutex::new(rx));

        // A failed worker spawn (thread exhaustion, resource limits)
        // degrades the pool instead of panicking out of `bind`; only a
        // pool of zero workers is a start-up error, because such a server
        // would accept connections it can never serve.
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(config.workers.max(1));
        let mut spawn_failure: Option<io::Error> = None;
        for i in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let engine = Arc::clone(&engine);
            let config = config.clone();
            let metrics = Arc::clone(&metrics);
            let shutdown = Arc::clone(&shutdown);
            let cancels = Arc::clone(&cancels);
            let spawned = std::thread::Builder::new()
                .name(format!("div-server-worker-{i}"))
                .spawn(move || {
                    // recv fails only when the accept loop dropped the
                    // sender: shutdown. A session already handed over is
                    // served to completion (graceful drain). The
                    // connection is taken in its own statement so the
                    // receiver's lock is released before the session runs.
                    loop {
                        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        let Ok(stream) = next else { break };
                        run_session(stream, &engine, &config, &metrics, &shutdown, &cancels);
                    }
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(err) => spawn_failure = Some(err),
            }
        }
        drop(rx);
        if workers.is_empty() {
            drop(tx); // no receivers anyway, but make the teardown explicit
            return Err(spawn_failure
                .unwrap_or_else(|| io::Error::other("no session workers could be spawned")));
        }

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("div-server-accept".to_string())
                .spawn(move || {
                    accept_loop(listener, tx, &shutdown, &metrics);
                })
        };
        let accept_thread = match accept_thread {
            Ok(handle) => handle,
            Err(err) => {
                // Spawning the accept loop failed after the workers came
                // up: the sender went down with the failed closure, so the
                // workers see a disconnect and exit; join them before
                // surfacing the error.
                for worker in workers {
                    let _ = worker.join();
                }
                return Err(err);
            }
        };

        Ok(ServerHandle {
            addr: local_addr,
            shutdown,
            engine,
            metrics,
            accept_thread: Some(accept_thread),
            workers,
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<TcpStream>,
    shutdown: &AtomicBool,
    metrics: &ServerMetrics,
) {
    // `tx` is moved in; dropping it on return disconnects the workers.
    for incoming in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        match tx.try_send(stream) {
            Ok(()) => ServerMetrics::bump(&metrics.connections_accepted),
            Err(TrySendError::Full(mut stream)) => {
                // Admission control: typed, retryable rejection instead of
                // queueing without bound.
                ServerMetrics::bump(&metrics.connections_rejected);
                let line = err_line(ErrorCode::Busy, "server at capacity, retry later");
                let _ = stream.write_all(line.as_bytes());
                let _ = stream.write_all(b"\n");
                // Dropping the stream closes the connection.
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

impl ServerHandle {
    /// The address the server is listening on (with the actual port when
    /// bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine (shared: callers may query or mutate it directly
    /// while the server runs — that is the point of the snapshot scheme).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The server-side metrics registry.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// Stop accepting, drain in-flight sessions, and join every server
    /// thread. Sessions waiting for their next request are closed with
    /// `ERR SHUTDOWN`; a request already being served runs to completion.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // The accept loop only re-checks the flag after `accept` returns;
        // poke it with a throwaway connection so it wakes up now.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        // The accept thread dropped the channel sender on exit, so workers
        // drain whatever was queued and then see the disconnect.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}
