//! `hs-fleet`: replicated serving over HeadStart checkpoints with
//! health-checked load balancing, hedged retries, and a deterministic
//! replica-chaos story.
//!
//! One [`ServeEngine`](hs_serve::ServeEngine) keeps answering under
//! overload; this crate keeps answering when whole *replicas* die. It
//! stands N independent serve engines behind a single front door:
//!
//! ```text
//!             ┌──────────────────────────── hs-fleet ────────────────────────────┐
//!             │ fleet admission          balancer             replicas           │
//! requests →  │  priority shed     →  round_robin | jsq  →  ┌ replica0: queue…┐  │ → outcomes
//!             │  tenant quotas        | p2c                 ├ replica1: queue…┤  │
//!             │                                             └ replica2: queue…┘  │
//!             │         ▲                                        │               │
//!             │   health prober  ←──── probes on the virtual clock               │
//!             │   (healthy → suspect → ejected → recovered; ejection             │
//!             │    evicts + fails over)        hedger: slow request? launch      │
//!             │                                a copy, first outcome wins        │
//!             └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything runs in virtual time against the workspace's seeded
//! fault registry, so a three-replica chaos run — crash one replica
//! mid-load, slow another — replays byte-identically: same plan, same
//! seed, same `HS_FAULT` ⇒ the same shed/latency/failover telemetry.
//! The invariant the whole crate is built around: **every accepted
//! request gets exactly one terminal outcome** — a completion or a
//! typed shed — no matter which replicas die when.
//!
//! Modules: [`engine`] (front door, failover, hedging), [`health`]
//! (probe-driven replica state machine), [`balancer`] (routing
//! policies).
//!
//! The crate also builds the one serving binary, `hs_serve`: it sits
//! here because this is the lowest crate that sees both engines.
//! `--replicas 1` (the default) serves on one bare engine, and
//! `--replicas N` on a fleet of N.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod balancer;
pub mod engine;
pub mod health;

/// Serializes tests (across this crate) that arm the process-global
/// fault registry or run an engine, which trips it, so parallel test
/// threads never see each other's plan.
#[cfg(test)]
pub(crate) fn fault_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

pub use balancer::{Balancer, BalancerPolicy};
pub use engine::{
    drive_fleet_open, FleetConfig, FleetEngine, FleetOutcome, FleetReject, FleetRejection,
    FleetSummary,
};
pub use health::{HealthState, HealthTracker};
