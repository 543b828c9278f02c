//! **HeadStart**: reinforcement-learning structured pruning that targets
//! the *optimal inception* — the reproduction of Lin, Lu, Wei & Li,
//! "HeadStart: Enforcing Optimal Inceptions in Pruning Deep Neural
//! Networks for Efficient Inference on GPGPUs" (DAC 2019).
//!
//! For every convolutional layer a small *head-start network* (three
//! convolutions + one fully connected layer, fed a Gaussian noise map)
//! outputs per-feature-map keep probabilities. Binary actions are drawn
//! from a Bernoulli distribution over those probabilities (Eq. 6), the
//! masked model's accuracy produces the reward
//!
//! ```text
//! R(A) = log(acc'/acc + 1) − |C/‖A‖₀ − sp|        (Eqs. 2–4)
//! ```
//!
//! and REINFORCE with the self-critical baseline `R(Aᴵ)`, where
//! `Aᴵ = 𝜑ₜ(p)` thresholds the probabilities at `t` (Eqs. 8–10), trains
//! the policy until loss and reward stabilize. The surviving-filter set —
//! the *inception* — is then made physical by channel surgery and the
//! model is fine-tuned before moving to the next layer; that
//! layer-by-layer schedule is `hs-runner`'s, shared with the baselines.
//!
//! The same machinery prunes whole residual blocks of a ResNet
//! ([`BlockPruner`]), reproducing the paper's Table 4 experiment.
//!
//! # Example
//!
//! ```
//! use hs_core::{HeadStartConfig, LayerPruner};
//! use hs_data::{Dataset, DatasetSpec};
//! use hs_nn::models;
//! use hs_tensor::Rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ds = Dataset::generate(
//!     &DatasetSpec::cifar_like().classes(2).train_per_class(4).test_per_class(2).image_size(8),
//! )?;
//! let mut rng = Rng::seed_from(0);
//! let mut net = models::vgg11(3, 2, 8, 0.125, &mut rng)?;
//! let cfg = HeadStartConfig::new(2.0).max_episodes(4).eval_images(8);
//! let decision = LayerPruner::new(cfg).prune(&mut net, 0, &ds, &mut rng)?;
//! assert!(!decision.keep.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod block;
pub mod block_inner;
mod config;
pub mod engine;
mod error;
mod evaluator;
mod layer;
pub mod observe;
mod policy;
pub mod reinforce;
pub mod reward;
pub mod units;

pub use block::{BlockDecision, BlockPruner};
pub use block_inner::{
    prune_all_block_inners, prune_all_block_inners_executed, prune_all_block_inners_observed,
    InnerLayerPruner,
};
pub use config::{GuardPolicy, HeadStartConfig};
pub use engine::{
    ConvergenceReason, EngineObserver, EngineOutcome, EpisodeEngine, EpisodeEvent, EpisodeTrace,
    EvalExecutor, GuardAction, GuardReason, NullObserver, ParallelReward, PruningUnit,
    RecoveryEvent, SerialExecutor, StderrObserver,
};
pub use error::HeadStartError;
pub use evaluator::MaskedEvaluator;
pub use layer::{LayerDecision, LayerPruner};
pub use observe::TelemetryObserver;
pub use policy::HeadStartNetwork;
pub use units::{BlockUnit, InnerUnit, LayerUnit};
