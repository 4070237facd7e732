//! Workspace umbrella crate.
//!
//! This crate exists so the repository-level integration tests in `tests/`
//! and the runnable examples in `examples/` have a package to belong to; the
//! actual library code lives in the `crates/` members (start with the
//! [`division`] facade crate, or go straight to the [`Engine`] session API).

pub use division;
pub use division::prelude::{
    Cursor, Engine, EngineBuilder, Explain, Params, PreparedStatement, Request,
};
