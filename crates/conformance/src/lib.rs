//! # div-conformance
//!
//! The correctness-tooling subsystem of the *division-laws* workspace: a
//! grammar-based SQL fuzzer, a differential oracle, and a SQLLogicTest-style
//! golden-file runner, all drawing catalogs from the same generators as the
//! integration tests and benches.
//!
//! * [`grammar`] — seed-deterministic generation of division-bearing cases:
//!   catalogs plus every equivalent *formulation* of the same quotient
//!   (`DIVIDE BY`, double `NOT EXISTS`, set-difference, anti-join,
//!   `γ`-count, `$param`ized variants).
//! * [`oracle`] — executes each formulation across {optimizer-on,
//!   optimizer-off} × {streaming at batch size 1024 and 3, row},
//!   asserting byte-identical relations and `ExecStats` / span-tree
//!   invariants.
//! * [`shrink`] — greedy case minimization once a mismatch is found.
//! * [`fuzzer`] — the seeded fuzz loop behind `tests/conformance.rs`, the
//!   `conformance_fuzz` binary and the CI smoke job; honors
//!   `CONFORMANCE_SEED`, `CONFORMANCE_CASES` and `CONFORMANCE_ARTIFACT`.
//! * [`golden`] — the `.slt`-style golden-file format under `tests/golden/`
//!   and its record/check runner (`CONFORMANCE_BLESS=1` re-records).
//! * [`laws`] — one named logical-plan shape per rewrite law of the paper,
//!   used by the golden corpus to pin coverage of all 17 laws.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzzer;
pub mod golden;
pub mod grammar;
pub mod laws;
pub mod oracle;
pub mod shrink;

pub use fuzzer::{FuzzConfig, FuzzReport};
pub use grammar::{CaseSpec, Formulation, QueryForm};
pub use oracle::{check_case, CaseReport, Mismatch};
