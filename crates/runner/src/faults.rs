//! Runner-side fault injection: turning `kill_after` faults from the
//! process-global registry ([`hs_telemetry::faults`], armed from
//! `HS_FAULT` by [`hs_telemetry::faults::arm_from_env`]) into simulated
//! crashes at pipeline stage boundaries.
//!
//! ```text
//! HS_FAULT=io_error:checkpoint:2,kill_after:prune_unit:1 hs_run …
//! ```
//!
//! A `kill_after:<site>` fault makes [`crash_point`] return
//! [`RunnerError::InjectedCrash`] the n-th time the pipeline crosses
//! that boundary — after the journal for the completed work has been
//! written, exactly where a real `kill -9` would leave the run. The
//! crash sites are `pretrain` (after the pre-trained checkpoint is on
//! disk), `prune_unit` (after each journaled pruned unit) and
//! `finalize` (after the finalized journal, before the artifact).
//!
//! Everything here is deterministic: the same plan against the same
//! seeded run always fires at the same operation, which is what lets
//! the crash/resume parity tests compare bit-for-bit.

use hs_telemetry::faults;

use crate::error::RunnerError;

/// A pipeline stage boundary: reports an [`RunnerError::InjectedCrash`]
/// when an armed `kill_after:<site>` fault fires here, after flushing
/// telemetry (a real crash would at least leave the already-written
/// stream behind).
///
/// With no faults armed this costs one relaxed atomic load.
///
/// # Errors
///
/// Returns [`RunnerError::InjectedCrash`] when the fault fires.
pub fn crash_point(site: &str) -> Result<(), RunnerError> {
    if faults::armed() && faults::trip("kill_after", site) {
        hs_telemetry::flush();
        return Err(RunnerError::InjectedCrash {
            site: site.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_telemetry::faults::FaultPlan;

    #[test]
    fn crash_points_fire_only_for_armed_kill_after_faults() {
        // Serializes against any other test in this binary arming the
        // process-global registry.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        faults::disarm();
        assert!(crash_point("prune_unit").is_ok());

        faults::arm(FaultPlan::parse("kill_after:prune_unit:2").unwrap());
        assert!(crash_point("prune_unit").is_ok()); // hit 1
        match crash_point("prune_unit") {
            Err(RunnerError::InjectedCrash { site }) => assert_eq!(site, "prune_unit"),
            other => panic!("expected injected crash, got {other:?}"),
        }
        assert!(crash_point("prune_unit").is_ok()); // fires exactly once
        faults::disarm();
    }
}
