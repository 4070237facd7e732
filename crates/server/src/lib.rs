//! `div_server`: concurrent multi-client serving over a shared
//! [`div_sql::Engine`].
//!
//! The engine already serves repeated traffic well on one thread (prepared
//! statements, streaming cursors, metrics); this crate is the missing
//! *front door*. One process hosts one engine behind a TCP listener; many
//! clients connect, prepare, query and mutate concurrently:
//!
//! ```text
//! clients ──TCP──► accept loop ──bounded queue──► worker pool ──► Engine
//!                      │ (full)                      │             (Arc,
//!                      └► ERR BUSY                   └► Cursor      shared)
//! ```
//!
//! * **Thread-per-session workers** serve a line-delimited text protocol
//!   (`QUERY`, `PREPARE`/`EXECUTE`, `EXPLAIN [ANALYZE]`, `METRICS`,
//!   `MUTATE`, `CLOSE` — see [`protocol`]). Results stream batch-at-a-time
//!   from the engine's [`div_sql::Cursor`], so early client disconnects
//!   short-circuit the source scans.
//! * **Admission control**: a bounded queue between the accept loop and the
//!   workers turns overload into a fast, typed, retryable `ERR BUSY`
//!   instead of unbounded queueing ([`ServerConfig::queue_depth`]).
//! * **Safety under mutation**: every statement runs against one engine
//!   catalog snapshot; sessions transparently re-prepare statements that
//!   went stale under a concurrent `MUTATE`, so clients never see a mix of
//!   old and new catalog states.
//! * **Robustness**: per-connection read timeouts, a request-size cap, and
//!   graceful shutdown that drains in-flight sessions
//!   ([`ServerHandle::shutdown`]).
//! * **Lifecycle governance**: every statement runs under a
//!   [`div_sql::QueryGuard`] — a per-statement cancellation token
//!   (`SESSION` reports the id, `CANCEL <id>` from any other connection
//!   trips it), plus the deadline and resident-row budget of the engine's
//!   `PlannerConfig`, armed when the statement starts. Aborts surface as the typed,
//!   non-retryable wire codes `CANCELLED`, `DEADLINE` and `MEMORY`, and
//!   the worker is freed at the next batch boundary. The bundled
//!   [`Client`] can retry the *retryable* codes with jittered exponential
//!   backoff ([`Client::with_retry`], [`RetryPolicy`]).
//!
//! ```no_run
//! use div_expr::Catalog;
//! use div_server::{Client, Server, ServerConfig};
//! use div_sql::Engine;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::new(Catalog::new()));
//! let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! client.register("parts", &["p#"], &[vec![1i64.into()], vec![2i64.into()]])?;
//! let result = client.query("SELECT p# FROM parts")?;
//! assert_eq!(result.rows.len(), 2);
//! client.close()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;
mod server;
mod session;

pub use client::{Client, ClientError, QueryResult, RetryPolicy};
pub use metrics::ServerMetrics;
pub use protocol::ErrorCode;
pub use server::{Server, ServerConfig, ServerHandle};
