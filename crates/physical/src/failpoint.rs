//! Named failpoints: test-armed fault injection at operator boundaries.
//!
//! The streaming executor threads every operator through three sites —
//! `{label}.open` (as the pipeline is compiled), `{label}.next_batch` (at
//! each emission) and `{label}.close` (during teardown) — where a test can
//! arm a [`FailAction`]: return an error or inject a delay. The chaos suite
//! (`tests/chaos.rs`) uses this to prove the governance layer's invariants
//! under faults at *every* site of *every* plan shape: no panics, typed
//! wire errors, resident accounting drained back to zero.
//!
//! The registry is process-global, so tests arming failpoints must
//! serialize (the chaos suite takes a suite-level mutex) and disarm in a
//! drop guard. The disarmed fast path is one relaxed atomic load — no site
//! string is even formatted — so the hooks are always compiled in.
//!
//! Injected errors surface as [`div_expr::ExprError::InvalidPlan`] with a
//! `failpoint <site>` reason, reaching wire clients as `ERR PLAN` — a
//! deliberate reuse: faults should exercise the *existing* error channel,
//! not a bespoke one.

use div_expr::ExprError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What an armed failpoint does when execution reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Return an error carrying this message.
    Error(String),
    /// Sleep for this long, then continue normally.
    Delay(Duration),
}

/// Count of currently armed sites: the disarmed fast path is this one
/// relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);
static SITES: Mutex<Option<HashMap<String, FailAction>>> = Mutex::new(None);

fn lock_sites() -> MutexGuard<'static, Option<HashMap<String, FailAction>>> {
    // A panic while holding this lock can only come from a poisoned
    // assertion in a test; the registry itself stays consistent.
    SITES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm the named site (`"<operator label>.<open|next_batch|close>"`) with
/// an action. Re-arming an armed site replaces its action.
pub fn arm(site: &str, action: FailAction) {
    let mut sites = lock_sites();
    let map = sites.get_or_insert_with(HashMap::new);
    if map.insert(site.to_string(), action).is_none() {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Disarm one site. A no-op if the site is not armed.
pub fn disarm(site: &str) {
    let mut sites = lock_sites();
    if let Some(map) = sites.as_mut() {
        if map.remove(site).is_some() {
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Disarm every site — call from a test's drop guard so a failed assertion
/// cannot leak an armed fault into the next test.
pub fn disarm_all() {
    let mut sites = lock_sites();
    if let Some(map) = sites.as_mut() {
        ARMED.fetch_sub(map.len(), Ordering::SeqCst);
        map.clear();
    }
}

/// Executor-side hook: evaluate the site `"{label}.{phase}"`. Returns the
/// armed error, sleeps through an armed delay, or passes. The disarmed
/// path costs one relaxed atomic load.
pub fn hit(label: &str, phase: &str) -> Result<(), ExprError> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    let site = format!("{label}.{phase}");
    let action = lock_sites()
        .as_ref()
        .and_then(|map| map.get(&site).cloned());
    match action {
        None => Ok(()),
        Some(FailAction::Delay(pause)) => {
            std::thread::sleep(pause);
            Ok(())
        }
        Some(FailAction::Error(message)) => {
            Err(ExprError::invalid(format!("failpoint {site}: {message}")))
        }
    }
}

/// Serialize tests that arm failpoints: the registry is process-global, so
/// concurrent arming tests would see each other's faults. Hold the returned
/// guard for the duration of the test (a poisoned lock — a previous test
/// panicked — is recovered, since [`disarm_all`] restores a clean slate).
pub fn test_serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn armed_error_fires_and_disarms_cleanly() {
        let _serial = test_serial();
        disarm_all();
        assert!(hit("Scan", "next_batch").is_ok());
        arm("Scan.next_batch", FailAction::Error("boom".into()));
        let err = hit("Scan", "next_batch").unwrap_err();
        assert!(err.to_string().contains("failpoint Scan.next_batch"));
        assert!(hit("Scan", "open").is_ok(), "other phases stay clear");
        disarm("Scan.next_batch");
        assert!(hit("Scan", "next_batch").is_ok());
    }

    #[test]
    fn armed_delay_sleeps_then_continues() {
        let _serial = test_serial();
        disarm_all();
        arm("Union.close", FailAction::Delay(Duration::from_millis(20)));
        let started = Instant::now();
        assert!(hit("Union", "close").is_ok());
        assert!(started.elapsed() >= Duration::from_millis(20));
        disarm_all();
    }

    #[test]
    fn disarm_all_clears_every_site() {
        let _serial = test_serial();
        disarm_all();
        arm("A.open", FailAction::Error("x".into()));
        arm("B.open", FailAction::Error("y".into()));
        disarm_all();
        assert!(hit("A", "open").is_ok());
        assert!(hit("B", "open").is_ok());
    }
}
