//! Baseline structured-pruning methods the HeadStart paper compares
//! against, behind one [`PruningCriterion`] interface:
//!
//! | Criterion | Paper | Idea |
//! |---|---|---|
//! | [`L1Norm`] | Li et al., ICLR'17 | prune filters with the smallest absolute weight sum |
//! | [`Apoz`] | Hu et al., 2016 | prune maps with the highest average percentage of zeros |
//! | [`Random`] | — | uniform-random control |
//! | [`ThiNet`] | Luo et al., ICCV'17 | greedy channel subset minimizing next-layer reconstruction error, plus least-squares rescale |
//! | [`AutoPruner`] | Luo & Wu, 2018 | end-to-end trained sigmoid channel gates with temperature annealing |
//!
//! All of these are *inception-agnostic* in the paper's terminology: they
//! decide what to prune from layer-local statistics, not from the effect
//! on the final output — which is precisely what `hs-core`'s HeadStart
//! pruner does differently.
//!
//! The [`driver`] module holds the fine-tuning schedule, the per-layer
//! trace row of the paper's Table 1 and the from-scratch control; the
//! layer-by-layer prune loop that uses them is `hs-runner`'s.
//!
//! # Example
//!
//! ```
//! use hs_pruning::{L1Norm, PruningCriterion, ScoreContext};
//! use hs_nn::{models, surgery};
//! use hs_tensor::{Rng, Tensor, Shape};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng::seed_from(0);
//! let mut net = models::vgg11(3, 4, 8, 0.25, &mut rng)?;
//! let site = surgery::conv_sites(&net)[0];
//! let images = Tensor::randn(Shape::d4(4, 3, 8, 8), &mut rng);
//! let labels = vec![0, 1, 2, 3];
//! let mut ctx = ScoreContext::new(&mut net, site, &images, &labels, &mut rng);
//! let keep = L1Norm::new().keep_set(&mut ctx, 8)?;
//! assert_eq!(keep.len(), 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod apoz;
mod autopruner;
mod criterion;
pub mod driver;
mod error;
mod l1;
mod linalg;
mod random;
mod thinet;

pub use apoz::Apoz;
pub use autopruner::AutoPruner;
pub use criterion::{top_k_indices, PruningCriterion, ScoreContext};
pub use error::PruneError;
pub use l1::L1Norm;
pub use random::Random;
pub use thinet::ThiNet;
