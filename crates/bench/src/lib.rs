//! Shared plumbing for the experiment binaries (one per paper
//! table/figure) and the `bench_kernels` GEMM benchmark.
//!
//! The pipeline itself — budgets, pre-training, phase stopwatches, JSON
//! artifacts, whole-model prune drivers — lives in the `hs-runner`
//! crate; this crate re-exports the handful of names the binaries and
//! older call sites use so downstream code keeps compiling.
//!
//! Every experiment binary accepts `--quick` on the command line, which
//! divides the training/RL budgets by roughly 10 — useful for smoke
//! testing; the numbers recorded in `EXPERIMENTS.md` come from full
//! (non-quick) runs.

#![warn(missing_docs)]

pub use hs_runner::{pct, pretrain, Budget, Phase};
