//! `hs-runner` — the config-driven experiment pipeline.
//!
//! Every HeadStart experiment is the same story: build a dataset,
//! pre-train a model (or restore a checkpoint), prune it front to back
//! with some method, fine-tune, evaluate, and write down what happened.
//! This crate owns that story once, so the experiment binaries in
//! `hs-bench` reduce to *which* models, methods and seeds to feed it.
//!
//! Runs are **crash-safe** when given a run directory (`--run-dir`):
//! every artifact write is atomic, each pruned unit is checkpointed and
//! journaled (see [`journal`]), and an interrupted run continues from
//! its last completed unit with `hs_run --resume DIR` — bit-identical
//! to the uninterrupted run. The [`faults`] module turns the
//! deterministic fault-injection harness (`HS_FAULT`) into the
//! simulated crashes the crash/resume tests are built on.
//!
//! ```no_run
//! use hs_runner::{run, RunnerConfig};
//!
//! let mut cfg = RunnerConfig::new("demo");
//! cfg.budget = hs_runner::Budget::smoke();
//! let report = run(&cfg).expect("pipeline");
//! println!("{} -> {}", report.original_accuracy, report.final_accuracy);
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod config;
pub mod error;
pub mod faults;
pub mod journal;
mod layers;
pub mod manifest;
pub mod pipeline;
pub mod report;
pub mod resume;

pub use budget::Budget;
pub use config::{BaselineKind, DataChoice, Method, ModelChoice, ModelKind, RunnerConfig};
pub use error::RunnerError;
pub use faults::crash_point;
pub use journal::{Journal, Stage, UnitRecord, JOURNAL_FILE};
pub use manifest::{ServeManifest, MANIFEST_FILE};
pub use pipeline::{
    prepare, pretrain, run, CompactSummary, MethodRun, PipelineReport, Prepared, SingleLayerRun,
};
pub use report::{pct, Phase, StageTiming};
pub use resume::{resume_run, COMPACT_CHECKPOINT, FINAL_CHECKPOINT, PRETRAINED_CHECKPOINT};
