//! Workspace umbrella crate.
//!
//! This crate exists so the repository-level integration tests in `tests/`
//! and the runnable examples in `examples/` have a package to belong to. It
//! exports nothing: the library code lives in the `crates/` members (start
//! with the `division` facade crate, or go straight to `div_sql::Engine`, the
//! session API).
