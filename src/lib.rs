//! **headstart** — a full reproduction of *"HeadStart: Enforcing Optimal
//! Inceptions in Pruning Deep Neural Networks for Efficient Inference on
//! GPGPUs"* (Lin, Lu, Wei & Li, DAC 2019), built from scratch in Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`telemetry`] — zero-dependency structured tracing and metrics:
//!   nested spans, a process-global counter/gauge/histogram registry,
//!   and JSONL / Prometheus-text sinks;
//! * [`tensor`] — dense f32 tensors, matmul with implicit-GEMM convolution,
//!   seeded RNG;
//! * [`nn`] — layers, backprop, optimizers, VGG/ResNet model zoo,
//!   parameter/FLOP accounting, channel masking and surgery;
//! * [`data`] — synthetic CIFAR-100 / CUB-200 style dataset generators;
//! * [`pruning`] — the baseline criteria (Li'17, APoZ, random, ThiNet,
//!   AutoPruner), the fine-tuning schedule and the from-scratch control;
//! * [`core`] — HeadStart itself: head-start policy networks, the
//!   REINFORCE loop with self-critical baseline, per-layer and per-block
//!   pruners;
//! * [`coord`] — deterministic sharded candidate evaluation: a
//!   coordinator that fans each episode's action batch out across worker
//!   threads and folds rewards back in schedule order, bit-identical to
//!   serial execution for any worker count;
//! * [`gpusim`] — a roofline latency model of the paper's four inference
//!   platforms;
//! * [`runner`] — the config-driven end-to-end pipeline (dataset →
//!   pre-train or checkpoint → prune → fine-tune → eval → JSON artifact)
//!   that every experiment binary is built on, with the one per-layer
//!   prune loop HeadStart and every baseline run;
//! * [`serve`] — the deploy-time serving stack over a run's dense/pruned
//!   checkpoint pair: bounded admission with typed load shedding,
//!   deadline-aware micro-batching, a circuit breaker, and graceful
//!   degradation that hot-swaps to the pruned inception under overload;
//! * [`fleet`] — replicated serving: N serve engines behind a
//!   health-checked load balancer with per-tenant quotas, priority
//!   shedding, hedged retries under a global budget, and deterministic
//!   failover when replica-scoped faults kill instances mid-run;
//! * [`obs`] — offline analysis over the deterministic telemetry JSONL
//!   stream: causal trace timelines, serving reports with SLO burn
//!   accounting, run-to-run metric diffs, and the `bench-check`
//!   regression gate over `BENCH_kernels.json`;
//! * [`chaos`] — seeded chaos campaigns over the pipeline, coordinator,
//!   and serving fleet: fault schedules sampled from the registered
//!   kind×site vocabulary, global invariant oracles (completion, bit
//!   parity, checkpoint integrity, ejection liveness, deadlines,
//!   request conservation, telemetry cleanliness), and a
//!   delta-debugging shrinker that reduces any failing schedule to a
//!   minimal `HS_FAULT` repro.
//!
//! # Quickstart
//!
//! ```
//! use headstart::core::{HeadStartConfig, LayerPruner};
//! use headstart::data::{Dataset, DatasetSpec};
//! use headstart::nn::{models, surgery};
//! use headstart::tensor::Rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny synthetic task and a small VGG.
//! let ds = Dataset::generate(
//!     &DatasetSpec::cifar_like().classes(4).train_per_class(6).test_per_class(3).image_size(8),
//! )?;
//! let mut rng = Rng::seed_from(1);
//! let mut net = models::vgg11(3, 4, 8, 0.25, &mut rng)?;
//!
//! // Learn an inception for the first conv layer and make it physical.
//! let cfg = HeadStartConfig::new(2.0).max_episodes(6).eval_images(12);
//! let decision = LayerPruner::new(cfg).prune(&mut net, 0, &ds, &mut rng)?;
//! let conv = net.conv_indices()[0];
//! surgery::prune_feature_maps(&mut net, conv, &decision.keep)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use hs_chaos as chaos;
pub use hs_coord as coord;
pub use hs_core as core;
pub use hs_data as data;
pub use hs_fleet as fleet;
pub use hs_gpusim as gpusim;
pub use hs_nn as nn;
pub use hs_obs as obs;
pub use hs_pruning as pruning;
pub use hs_runner as runner;
pub use hs_serve as serve;
pub use hs_telemetry as telemetry;
pub use hs_tensor as tensor;
