//! `hs-serve`: an overload-hardened, request-level inference service
//! over HeadStart checkpoints.
//!
//! The HeadStart pipeline produces *two* models per run: the dense
//! pre-trained network and the pruned inception that trades a bounded
//! accuracy drop for a realised speedup. This crate is the deploy-time
//! payoff of that pair — a serving stack that keeps answering under
//! overload by shedding load early and, when pressure persists,
//! **hot-swapping to the pruned inception** instead of falling over:
//!
//! ```text
//!            ┌────────────────────────────── hs-serve ─────────────────────────────┐
//! requests → │ admission queue → micro-batcher → circuit breaker → model slots     │ → responses
//!            │  (bounded,         (flush on        (trips on         dense ⇄ pruned│
//!            │   typed shed)       size/deadline)   timeouts)        degradation)  │
//!            └─────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything is driven in **virtual time** (integer microseconds):
//! the engine never reads the wall clock, compute cost comes from a
//! deterministic model, and faults come from the workspace's seeded
//! registry (`HS_FAULT=slow_infer:infer:…`). The same load profile
//! therefore produces a byte-identical telemetry event sequence
//! (modulo wall-clock `secs`/`ts` suffixes) on every run — overload,
//! breaker, and degradation behaviour are all testable in CI. Real
//! inference still happens: each executed batch runs an actual forward
//! pass through the checkpointed network, so responses carry genuine
//! predictions.
//!
//! Modules mirror the diagram: [`queue`] (bounded admission),
//! [`engine`] (batcher + degradation state machine), [`breaker`]
//! (circuit breaker), [`model`] (checkpoint slots with retry/backoff
//! loading), [`request`] (typed requests/rejections), [`loadgen`]
//! (deterministic open/closed-loop load generation), [`manifest`] (the
//! dense/pruned pair a journaled `hs_run` leaves behind).
//!
//! The crate does not link the pruning pipeline: `hs_run` writes the
//! [`ServeManifest`], and serving only reads it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breaker;
pub mod engine;
pub mod error;
pub mod loadgen;
pub mod manifest;
pub mod model;
pub mod queue;
pub mod request;
pub mod slo;

/// Serializes tests (across this crate) that arm the process-global
/// fault registry or run inference, so parallel test threads never see
/// (or spend the hits of) each other's plan.
#[cfg(test)]
pub(crate) fn fault_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

pub use breaker::{BreakerState, CircuitBreaker};
pub use engine::{ServeConfig, ServeEngine, ServeSummary};
pub use error::ServeError;
pub use loadgen::{drive_closed, drive_open, LoadProfile, LoadSpec, Plan, PlanError, ProfileEntry};
pub use manifest::{ServeManifest, MANIFEST_FILE};
pub use model::{load_with_retry, ModelSlots, RetryPolicy, SlotKind};
pub use queue::AdmissionQueue;
pub use request::{Micros, Outcome, RejectReason, Rejection, Request, Response};
pub use slo::SloTracker;
