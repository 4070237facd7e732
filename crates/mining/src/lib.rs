//! # div-mining
//!
//! Frequent itemset discovery on top of the great divide (Section 3 of the
//! paper).
//!
//! The paper's observation: the *support counting* phase of Apriori — "probe
//! the candidate k-itemsets against the transactions to check how many times a
//! candidate is contained in a transaction" — is exactly a great divide of the
//! vertical `transactions(tid, item)` table by the vertical
//! `candidates(item, itemset)` table, followed by a group-count on `itemset`.
//! Crucially, candidates of *different sizes* can be counted in one operator
//! invocation.
//!
//! This crate implements
//!
//! * [`support`] — support counting via the great divide (one plan,
//!   `transactions ÷* candidates` then a group count, on the streaming
//!   executor) and via the per-candidate scan baseline used by the
//!   literature the paper contrasts with,
//! * [`apriori`] — the full Apriori loop (candidate generation + pruning)
//!   parameterized by the counting strategy, so the benchmark can compare
//!   end-to-end mining runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod support;

pub use apriori::{mine_frequent_itemsets, AprioriConfig, FrequentItemset, MiningResult};
pub use support::{count_support, SupportCounting};
