//! What a whole-model prune run needs besides a criterion: the
//! fine-tuning schedule run after each layer, the per-layer trace row
//! the paper reports in Table 1, and the from-scratch control. The
//! layer-by-layer loop itself is `hs-runner`'s.

use hs_data::Dataset;
use hs_nn::optim::Sgd;
use hs_nn::{models, train, Network};
use hs_tensor::{Rng, Tensor};

use crate::error::PruneError;

/// Fine-tuning configuration used between pruning steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FineTune {
    /// Epochs of SGD after each pruned layer.
    pub epochs: usize,
    /// Learning rate (constant, as in the paper).
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay (the paper uses 5e-4).
    pub weight_decay: f32,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for FineTune {
    fn default() -> Self {
        FineTune {
            epochs: 4,
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 5e-4,
            batch_size: 32,
        }
    }
}

impl FineTune {
    /// Runs this fine-tuning schedule on a network.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn run(
        &self,
        net: &mut Network,
        images: &Tensor,
        labels: &[usize],
        rng: &mut Rng,
    ) -> Result<(), PruneError> {
        if self.epochs == 0 {
            return Ok(());
        }
        let mut opt = Sgd::new(self.lr)
            .momentum(self.momentum)
            .weight_decay(self.weight_decay);
        train::fit(
            net,
            &mut opt,
            images,
            labels,
            self.batch_size,
            self.epochs,
            rng,
        )?;
        Ok(())
    }
}

/// Per-layer record of an iterative whole-model pruning run — one row of
/// the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Node index of the pruned convolution.
    pub conv_node: usize,
    /// Position of the conv among the network's convs (0-based).
    pub conv_ordinal: usize,
    /// Feature maps before pruning this layer.
    pub maps_before: usize,
    /// Feature maps kept.
    pub maps_after: usize,
    /// Total model parameters after pruning this layer.
    pub params_after: u64,
    /// Total model MACs after pruning this layer.
    pub flops_after: u64,
    /// Test accuracy immediately after surgery, before fine-tuning —
    /// the *inception* accuracy ("ACC. (%, INC)").
    pub inception_accuracy: f32,
    /// Test accuracy after this layer's fine-tuning ("ACC. (%, W/FT)").
    pub finetuned_accuracy: f32,
}

/// The "from scratch" baseline: re-initializes the (already pruned)
/// architecture and trains it with the given budget, returning the final
/// test accuracy.
///
/// # Errors
///
/// Propagates training errors.
pub fn train_from_scratch(
    net: &Network,
    ds: &Dataset,
    epochs: usize,
    ft: &FineTune,
    rng: &mut Rng,
) -> Result<f32, PruneError> {
    let mut fresh = net.clone();
    models::reinitialize(&mut fresh, rng);
    let schedule = FineTune { epochs, ..*ft };
    schedule.run(&mut fresh, &ds.train_images, &ds.train_labels, rng)?;
    Ok(train::evaluate(
        &mut fresh,
        &ds.test_images,
        &ds.test_labels,
        64,
    )?)
}
