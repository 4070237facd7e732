//! Cooperative query lifecycle governance: cancellation tokens, wall-clock
//! deadlines and resident-row memory budgets.
//!
//! The streaming executor of [`crate::stream`] already *accounts* for every
//! resident row (PR 5's `peak_resident_rows`); this module turns that
//! accounting into *enforcement*. A [`QueryGuard`] is built once per cursor
//! (deadline measured from construction, i.e. cursor open) and consulted at
//! every [`BatchStream::next_batch`](crate::stream::BatchStream) emission
//! boundary of the streaming executor — so a runaway operator is stopped
//! within one batch of the limit, and the batch that tripped is rolled back
//! from the resident accounting before the error propagates.
//!
//! Checks are cooperative and cheap: an ungoverned guard (the default) is
//! one branch per batch; a governed one adds an atomic load and, when a
//! deadline is set, one `Instant::now()` read. The three trips surface as
//! typed errors carrying the operator span that observed them:
//! [`ExprError::Cancelled`], [`ExprError::DeadlineExceeded`],
//! [`ExprError::MemoryBudget`].

use crate::planner::PlannerConfig;
use div_expr::ExprError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, clonable cancellation flag.
///
/// One token may govern one in-flight statement; any holder of a clone
/// (another session serving a `CANCEL` command, a timeout supervisor, a
/// test) can trip it, and the executor observes the trip at its next batch
/// boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trip the token: every guard sharing it reports
    /// [`ExprError::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The per-query governance bundle: optional cancellation token, wall-clock
/// deadline and resident-row budget.
///
/// The default guard is ungoverned: every check passes with a single
/// branch. Deadlines are armed at construction time — build the guard when
/// the cursor opens, not when the query text arrives.
#[derive(Debug, Clone, Default)]
pub struct QueryGuard {
    token: Option<CancelToken>,
    deadline: Option<(Instant, Duration)>,
    budget_rows: Option<usize>,
    spill: bool,
}

impl QueryGuard {
    /// Build a guard from the governance fields of a [`PlannerConfig`]
    /// (deadline measured from now). No cancellation token is attached;
    /// chain [`QueryGuard::with_token`] for one.
    pub fn from_config(config: &PlannerConfig) -> Self {
        let mut guard = QueryGuard::default();
        if let Some(limit) = config.deadline {
            guard = guard.with_deadline(limit);
        }
        if let Some(budget) = config.memory_budget_rows {
            guard = guard.with_budget_rows(budget);
        }
        guard.spill = config.spill_to_disk;
        guard
    }

    /// This guard observing `token` for cancellation.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// This guard with a wall-clock deadline of `limit` from now.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some((Instant::now() + limit, limit));
        self
    }

    /// This guard with a resident-row budget (clamped to ≥ 1).
    pub fn with_budget_rows(mut self, budget: usize) -> Self {
        self.budget_rows = Some(budget.max(1));
        self
    }

    /// This guard preferring spill-to-disk over aborting on memory
    /// pressure. The budget check itself is unchanged — it remains the
    /// backstop — but the hybrid operators (hash join, divide, grouped
    /// aggregation) consult [`QueryGuard::spill_budget`] and partition to
    /// disk before the budget would trip. The preference applies to any
    /// budget this guard carries, including one attached later with
    /// [`QueryGuard::with_budget_rows`].
    pub fn with_spill(mut self, spill: bool) -> Self {
        self.spill = spill;
        self
    }

    /// The resident-row threshold at which the hybrid operators start
    /// partitioning to disk: the memory budget when spilling is enabled,
    /// `None` otherwise (they then run fully in memory and the budget, if
    /// any, aborts). This is the one place that decides whether a
    /// statement may spill; nothing else reads the configuration for it.
    pub fn spill_budget(&self) -> Option<usize> {
        if self.spill {
            self.budget_rows
        } else {
            None
        }
    }

    /// Whether any limit is armed — `false` means [`QueryGuard::check`] is
    /// a single branch.
    pub fn is_governed(&self) -> bool {
        self.token.is_some() || self.deadline.is_some() || self.budget_rows.is_some()
    }

    /// The cancellation token this guard observes, if any.
    pub fn token(&self) -> Option<&CancelToken> {
        self.token.as_ref()
    }

    /// Check every armed limit against the current state; `operator` is the
    /// span label reported by the error. Trip order when several limits are
    /// exceeded simultaneously: cancellation, deadline, budget.
    pub fn check(&self, resident_rows: usize, operator: &str) -> Result<(), ExprError> {
        if !self.is_governed() {
            return Ok(());
        }
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                return Err(ExprError::Cancelled {
                    operator: operator.to_string(),
                });
            }
        }
        if let Some((deadline, limit)) = self.deadline {
            if Instant::now() >= deadline {
                return Err(ExprError::DeadlineExceeded {
                    operator: operator.to_string(),
                    limit_ms: u64::try_from(limit.as_millis()).unwrap_or(u64::MAX),
                });
            }
        }
        if let Some(budget) = self.budget_rows {
            if resident_rows > budget {
                return Err(ExprError::MemoryBudget {
                    operator: operator.to_string(),
                    budget_rows: budget,
                    resident_rows,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungoverned_guard_always_passes() {
        let guard = QueryGuard::default();
        assert!(!guard.is_governed());
        assert!(guard.check(usize::MAX, "Scan").is_ok());
    }

    #[test]
    fn cancellation_trips_from_any_clone() {
        let token = CancelToken::new();
        let guard = QueryGuard::default().with_token(token.clone());
        assert!(guard.check(0, "Scan").is_ok());
        token.clone().cancel();
        let err = guard.check(0, "Filter(x)").unwrap_err();
        assert!(matches!(err, ExprError::Cancelled { operator } if operator == "Filter(x)"));
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let guard = QueryGuard::default().with_deadline(Duration::from_millis(5));
        assert!(guard.check(0, "Scan").is_ok());
        std::thread::sleep(Duration::from_millis(10));
        let err = guard.check(0, "Scan").unwrap_err();
        assert!(matches!(
            err,
            ExprError::DeadlineExceeded { limit_ms: 5, .. }
        ));
    }

    #[test]
    fn budget_trips_above_the_ceiling_only() {
        let guard = QueryGuard::default().with_budget_rows(100);
        assert!(guard.check(100, "Union").is_ok());
        let err = guard.check(101, "Union").unwrap_err();
        assert!(matches!(
            err,
            ExprError::MemoryBudget {
                budget_rows: 100,
                resident_rows: 101,
                ..
            }
        ));
    }

    #[test]
    fn config_roundtrip_arms_both_limits() {
        let config = PlannerConfig::default()
            .deadline(Duration::from_secs(1))
            .memory_budget_rows(10);
        assert!(config.is_governed());
        let guard = QueryGuard::from_config(&config);
        assert!(guard.is_governed());
        assert!(guard.check(11, "Scan").is_err());
        assert!(!QueryGuard::from_config(&PlannerConfig::default()).is_governed());
    }

    #[test]
    fn cancellation_wins_over_budget() {
        let token = CancelToken::new();
        token.cancel();
        let guard = QueryGuard::default().with_token(token).with_budget_rows(1);
        assert!(matches!(
            guard.check(10, "Scan").unwrap_err(),
            ExprError::Cancelled { .. }
        ));
    }
}
