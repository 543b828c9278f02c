//! HeadStart over the convolutions *inside* residual blocks — the
//! paper's stated fine-grained ResNet variant: "the HeadStart concept
//! could be directly applied to prune the convolutional layers in each
//! block just like VGG".
//!
//! The pruned unit is a block's first convolution's feature maps: they
//! feed only the block's second convolution, so removing them never
//! disturbs the shortcut arithmetic. Actions are evaluated with the
//! block's inner channel mask and made physical with
//! [`ResidualBlock::prune_inner_maps`](hs_nn::block::ResidualBlock::prune_inner_maps).
//! The episode loop lives in the shared [`EpisodeEngine`]; this module
//! builds the [`InnerUnit`] and interprets the outcome.

use hs_data::Dataset;
use hs_nn::loss::accuracy;
use hs_nn::{Network, Node};
use hs_tensor::Rng;

use crate::config::HeadStartConfig;
use crate::engine::{
    EngineObserver, EpisodeEngine, EvalExecutor, NullObserver, PruningUnit, SerialExecutor,
};
use crate::error::HeadStartError;
use crate::layer::LayerDecision;
use crate::reinforce::kept_count;
use crate::units::InnerUnit;

/// Per-block-interior HeadStart pruner.
#[derive(Debug, Clone)]
pub struct InnerLayerPruner {
    cfg: HeadStartConfig,
}

impl InnerLayerPruner {
    /// Creates an inner-layer pruner.
    pub fn new(cfg: HeadStartConfig) -> Self {
        InnerLayerPruner { cfg }
    }

    /// Runs the RL loop over the inner maps of residual block ordinal
    /// `block_ordinal` (position among [`Network::block_indices`]).
    /// The network is left unmodified; apply the decision with
    /// [`InnerLayerPruner::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HeadStartError::BadTarget`] for a bad ordinal and
    /// propagates network/config errors.
    pub fn prune(
        &self,
        net: &mut Network,
        block_ordinal: usize,
        ds: &Dataset,
        rng: &mut Rng,
    ) -> Result<LayerDecision, HeadStartError> {
        self.prune_observed(net, block_ordinal, ds, rng, &mut NullObserver)
    }

    /// As [`InnerLayerPruner::prune`], reporting each episode to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// As [`InnerLayerPruner::prune`].
    pub fn prune_observed(
        &self,
        net: &mut Network,
        block_ordinal: usize,
        ds: &Dataset,
        rng: &mut Rng,
        observer: &mut dyn EngineObserver,
    ) -> Result<LayerDecision, HeadStartError> {
        self.prune_executed(net, block_ordinal, ds, rng, observer, &mut SerialExecutor)
    }

    /// As [`InnerLayerPruner::prune_observed`], evaluating each episode's
    /// candidate batch through `executor` (bit-identical for every
    /// executor; only wall-clock differs).
    ///
    /// # Errors
    ///
    /// As [`InnerLayerPruner::prune`].
    pub fn prune_executed(
        &self,
        net: &mut Network,
        block_ordinal: usize,
        ds: &Dataset,
        rng: &mut Rng,
        observer: &mut dyn EngineObserver,
        executor: &mut dyn EvalExecutor,
    ) -> Result<LayerDecision, HeadStartError> {
        self.cfg.validate()?;
        let blocks = net.block_indices();
        let &block_node = blocks
            .get(block_ordinal)
            .ok_or_else(|| HeadStartError::BadTarget {
                detail: format!(
                    "block ordinal {block_ordinal} out of range ({} blocks)",
                    blocks.len()
                ),
            })?;
        let channels = match net.node(block_node) {
            Node::Block(b) => b.inner_channels(),
            _ => unreachable!("block_indices returns blocks"),
        };

        let n_eval = self.cfg.eval_images.min(ds.train_labels.len());
        let idx: Vec<usize> = (0..n_eval).collect();
        let eval_images = ds.train_images.index_select(0, &idx)?;
        let eval_labels: Vec<usize> = ds.train_labels[..n_eval].to_vec();
        let logits = net.forward(&eval_images, false)?;
        let acc_original = accuracy(&logits, &eval_labels)?;

        let mut unit = InnerUnit::new(
            block_node,
            channels,
            &eval_images,
            &eval_labels,
            acc_original,
            self.cfg.sp,
        );
        let outcome =
            EpisodeEngine::new(&self.cfg).run_executed(net, &mut unit, rng, observer, executor)?;

        // Report the inception accuracy of the final action by inverting
        // the reward: R + SPD = log(acc/acc₀ + 1).
        let final_reward = unit.action_reward(net, &outcome.final_action)?;
        let inception_eval_accuracy =
            ((final_reward + spd_of(channels, &outcome.final_action, self.cfg.sp)).exp() - 1.0)
                * acc_original;
        let keep: Vec<usize> = outcome
            .final_action
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            .collect();
        Ok(LayerDecision {
            keep,
            probs: outcome.probs,
            trace: outcome.trace,
            inception_eval_accuracy: inception_eval_accuracy.clamp(0.0, 1.0),
        })
    }

    /// Applies a decision: physically prunes the block's inner maps.
    ///
    /// # Errors
    ///
    /// Returns [`HeadStartError::BadTarget`] for a bad ordinal and
    /// propagates surgery errors.
    pub fn apply(
        &self,
        net: &mut Network,
        block_ordinal: usize,
        decision: &LayerDecision,
    ) -> Result<(), HeadStartError> {
        let blocks = net.block_indices();
        let &block_node = blocks
            .get(block_ordinal)
            .ok_or_else(|| HeadStartError::BadTarget {
                detail: format!(
                    "block ordinal {block_ordinal} out of range ({} blocks)",
                    blocks.len()
                ),
            })?;
        match net.node_mut(block_node) {
            Node::Block(b) => {
                b.prune_inner_maps(&decision.keep)?;
                Ok(())
            }
            _ => unreachable!("block_indices returns blocks"),
        }
    }
}

fn spd_of(channels: usize, action: &[bool], sp: f32) -> f32 {
    crate::reward::spd_term(channels, kept_count(action), sp)
}

/// Whole-model block-internal pruning: runs the RL loop over every
/// prunable residual block front-to-back, applying each decision and
/// fine-tuning in between — the block-granularity analogue of the
/// per-layer schedule `hs-runner` runs for VGG, per the paper's "just
/// like VGG" remark.
///
/// Returns one [`LayerDecision`] per block (in
/// [`Network::block_indices`] order) and the final test accuracy.
///
/// # Errors
///
/// Propagates configuration, network and training errors.
pub fn prune_all_block_inners(
    cfg: &HeadStartConfig,
    ft: &hs_pruning::driver::FineTune,
    net: &mut Network,
    ds: &Dataset,
    rng: &mut Rng,
) -> Result<(Vec<LayerDecision>, f32), HeadStartError> {
    prune_all_block_inners_observed(cfg, ft, net, ds, rng, &mut NullObserver)
}

/// As [`prune_all_block_inners`], reporting every episode of every block
/// to `observer` (with [`EngineObserver::on_unit_start`] marking block
/// boundaries).
///
/// # Errors
///
/// Propagates configuration, network and training errors.
pub fn prune_all_block_inners_observed(
    cfg: &HeadStartConfig,
    ft: &hs_pruning::driver::FineTune,
    net: &mut Network,
    ds: &Dataset,
    rng: &mut Rng,
    observer: &mut dyn EngineObserver,
) -> Result<(Vec<LayerDecision>, f32), HeadStartError> {
    prune_all_block_inners_executed(cfg, ft, net, ds, rng, observer, &mut SerialExecutor)
}

/// As [`prune_all_block_inners_observed`], with an explicit
/// batch-evaluation executor shared by every block's episode loop.
///
/// # Errors
///
/// Propagates configuration, network and training errors.
#[allow(clippy::too_many_arguments)]
pub fn prune_all_block_inners_executed(
    cfg: &HeadStartConfig,
    ft: &hs_pruning::driver::FineTune,
    net: &mut Network,
    ds: &Dataset,
    rng: &mut Rng,
    observer: &mut dyn EngineObserver,
    executor: &mut dyn EvalExecutor,
) -> Result<(Vec<LayerDecision>, f32), HeadStartError> {
    cfg.validate()?;
    let pruner = InnerLayerPruner::new(cfg.clone());
    let block_count = net.block_indices().len();
    let mut decisions = Vec::with_capacity(block_count);
    for ordinal in 0..block_count {
        observer.on_unit_start("block-inner", ordinal);
        let decision = pruner.prune_executed(net, ordinal, ds, rng, observer, executor)?;
        pruner.apply(net, ordinal, &decision)?;
        ft.run(net, &ds.train_images, &ds.train_labels, rng)
            .map_err(HeadStartError::Prune)?;
        decisions.push(decision);
    }
    let acc = hs_nn::train::evaluate(net, &ds.test_images, &ds.test_labels, 64)?;
    Ok((decisions, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_data::DatasetSpec;
    use hs_nn::models;

    fn setup() -> (Dataset, Network, Rng) {
        let ds = Dataset::generate(
            &DatasetSpec::cifar_like()
                .classes(4)
                .train_per_class(6)
                .test_per_class(3)
                .image_size(8),
        )
        .unwrap();
        let mut rng = Rng::seed_from(0);
        let net = models::resnet_cifar(2, 3, 4, 0.25, &mut rng).unwrap();
        (ds, net, rng)
    }

    #[test]
    fn inner_pruning_shrinks_the_block() {
        let (ds, mut net, mut rng) = setup();
        let cfg = HeadStartConfig::new(2.0).max_episodes(6).eval_images(12);
        let pruner = InnerLayerPruner::new(cfg);
        let before = match net.node(net.block_indices()[0]) {
            Node::Block(b) => b.inner_channels(),
            _ => unreachable!(),
        };
        let d = pruner.prune(&mut net, 0, &ds, &mut rng).unwrap();
        assert!(!d.keep.is_empty());
        assert!(d.keep.len() <= before);
        pruner.apply(&mut net, 0, &d).unwrap();
        let after = match net.node(net.block_indices()[0]) {
            Node::Block(b) => b.inner_channels(),
            _ => unreachable!(),
        };
        assert_eq!(after, d.keep.len());
        // The pruned model still runs end to end.
        assert!(net.forward(&ds.test_images, false).is_ok());
    }

    #[test]
    fn prune_leaves_network_unmasked() {
        let (ds, mut net, mut rng) = setup();
        let cfg = HeadStartConfig::new(2.0).max_episodes(4).eval_images(8);
        InnerLayerPruner::new(cfg)
            .prune(&mut net, 1, &ds, &mut rng)
            .unwrap();
        for &b in &net.block_indices() {
            if let Node::Block(block) = net.node(b) {
                assert!(block.inner_mask().is_none());
            }
        }
    }

    #[test]
    fn whole_model_inner_pruning_shrinks_every_block() {
        let (ds, mut net, mut rng) = setup();
        let before: Vec<usize> = net
            .block_indices()
            .iter()
            .map(|&i| match net.node(i) {
                Node::Block(b) => b.inner_channels(),
                _ => unreachable!(),
            })
            .collect();
        let cfg = HeadStartConfig::new(2.0).max_episodes(4).eval_images(8);
        let ft = hs_pruning::driver::FineTune {
            epochs: 1,
            ..Default::default()
        };
        let (decisions, acc) = prune_all_block_inners(&cfg, &ft, &mut net, &ds, &mut rng).unwrap();
        assert_eq!(decisions.len(), before.len());
        assert!((0.0..=1.0).contains(&acc));
        for (ordinal, (&node, d)) in net.block_indices().iter().zip(&decisions).enumerate() {
            match net.node(node) {
                Node::Block(b) => assert_eq!(
                    b.inner_channels(),
                    d.keep.len(),
                    "block {ordinal} inner channels disagree with decision"
                ),
                _ => unreachable!(),
            }
        }
        assert!(net.forward(&ds.test_images, false).is_ok());
    }

    #[test]
    fn rejects_bad_ordinal() {
        let (ds, mut net, mut rng) = setup();
        let cfg = HeadStartConfig::new(2.0).max_episodes(2).eval_images(8);
        assert!(InnerLayerPruner::new(cfg)
            .prune(&mut net, 99, &ds, &mut rng)
            .is_err());
    }
}
