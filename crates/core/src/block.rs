//! Block-level HeadStart pruning for ResNets (Section V-A.2).
//!
//! Instead of feature maps, the action vector toggles whole residual
//! blocks: an inactive block is bypassed through its identity shortcut.
//! Downsample blocks (the first block of groups 2 and 3) change tensor
//! shapes and therefore always stay active. The speedup half of the
//! reward is measured on *parameters* (Eq. 11: compression ratio
//! `W'/W`), which is how Table 4 reports "C.R.". The episode loop itself
//! lives in the shared [`EpisodeEngine`]; this module only builds the
//! [`BlockUnit`] and interprets the outcome.

use hs_data::Dataset;
use hs_nn::accounting::analyze;
use hs_nn::loss::accuracy;
use hs_nn::{train, Network, Node};
use hs_pruning::driver::FineTune;
use hs_tensor::Rng;

use crate::config::HeadStartConfig;
use crate::engine::{
    EngineObserver, EpisodeEngine, EpisodeTrace, EvalExecutor, NullObserver, SerialExecutor,
};
use crate::error::HeadStartError;
use crate::units::BlockUnit;

/// The outcome of block-level pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDecision {
    /// One keep-flag per residual block, aligned with
    /// [`Network::block_indices`]. Non-prunable blocks are always `true`.
    pub active: Vec<bool>,
    /// Episode trace emitted by the engine.
    pub trace: EpisodeTrace,
    /// Parameter compression ratio `W'/W` the decision realizes.
    pub compression_ratio: f32,
}

impl BlockDecision {
    /// Number of blocks kept active.
    pub fn active_blocks(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Episodes the policy trained for.
    pub fn episodes(&self) -> usize {
        self.trace.episodes
    }

    /// Reward of the inference action per episode.
    pub fn reward_history(&self) -> &[f32] {
        &self.trace.reward_history
    }
}

/// Trains one head-start network over a ResNet's prunable residual
/// blocks.
#[derive(Debug, Clone)]
pub struct BlockPruner {
    cfg: HeadStartConfig,
}

impl BlockPruner {
    /// Creates a block pruner; `cfg.sp` is the target *parameter*
    /// speedup (e.g. `2.0` ≈ half the parameters survive).
    pub fn new(cfg: HeadStartConfig) -> Self {
        BlockPruner { cfg }
    }

    /// Runs the RL loop. The network is restored to fully-active before
    /// returning; apply the decision with [`BlockPruner::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HeadStartError::BadTarget`] if the network has no
    /// prunable blocks, plus config/network errors.
    pub fn prune(
        &self,
        net: &mut Network,
        ds: &Dataset,
        rng: &mut Rng,
    ) -> Result<BlockDecision, HeadStartError> {
        self.prune_observed(net, ds, rng, &mut NullObserver)
    }

    /// As [`BlockPruner::prune`], reporting each episode to `observer`.
    ///
    /// # Errors
    ///
    /// As [`BlockPruner::prune`].
    pub fn prune_observed(
        &self,
        net: &mut Network,
        ds: &Dataset,
        rng: &mut Rng,
        observer: &mut dyn EngineObserver,
    ) -> Result<BlockDecision, HeadStartError> {
        self.prune_executed(net, ds, rng, observer, &mut SerialExecutor)
    }

    /// As [`BlockPruner::prune_observed`], evaluating each episode's
    /// candidate batch through `executor` (bit-identical for every
    /// executor; only wall-clock differs).
    ///
    /// # Errors
    ///
    /// As [`BlockPruner::prune`].
    pub fn prune_executed(
        &self,
        net: &mut Network,
        ds: &Dataset,
        rng: &mut Rng,
        observer: &mut dyn EngineObserver,
        executor: &mut dyn EvalExecutor,
    ) -> Result<BlockDecision, HeadStartError> {
        self.cfg.validate()?;
        let blocks = net.block_indices();
        let prunable: Vec<usize> = blocks
            .iter()
            .copied()
            .filter(|&i| match net.node(i) {
                Node::Block(b) => b.can_prune(),
                _ => false,
            })
            .collect();
        if prunable.is_empty() {
            return Err(HeadStartError::BadTarget {
                detail: "network has no prunable residual blocks".to_string(),
            });
        }

        let n_eval = self.cfg.eval_images.min(ds.train_labels.len());
        let idx: Vec<usize> = (0..n_eval).collect();
        let eval_images = ds.train_images.index_select(0, &idx)?;
        let eval_labels: Vec<usize> = ds.train_labels[..n_eval].to_vec();
        let full_params = analyze(net, ds.channels(), ds.image_size())?.total_params as f32;
        let logits = net.forward(&eval_images, false)?;
        let acc_original = accuracy(&logits, &eval_labels)?;

        let mut unit = BlockUnit::new(
            &prunable,
            &eval_images,
            &eval_labels,
            acc_original,
            full_params,
            ds.channels(),
            ds.image_size(),
            self.cfg.sp,
        );
        let outcome =
            EpisodeEngine::new(&self.cfg).run_executed(net, &mut unit, rng, observer, executor)?;

        // Expand to all blocks (non-prunable stay active).
        let mut active = vec![true; blocks.len()];
        for (bit, &node) in outcome.final_action.iter().zip(&prunable) {
            let pos = blocks
                .iter()
                .position(|&b| b == node)
                .expect("prunable ⊂ blocks");
            active[pos] = *bit;
        }
        // Measure the realized compression.
        set_blocks(net, &blocks, &active)?;
        let pruned_params = analyze(net, ds.channels(), ds.image_size())?.total_params as f32;
        set_blocks(net, &blocks, &vec![true; blocks.len()])?;
        let compression_ratio = pruned_params / full_params.max(1.0);
        Ok(BlockDecision {
            active,
            trace: outcome.trace,
            compression_ratio,
        })
    }

    /// Applies a decision to the network (deactivates the chosen blocks).
    ///
    /// # Errors
    ///
    /// Returns [`HeadStartError::BadTarget`] if the decision length does
    /// not match the network's blocks.
    pub fn apply(&self, net: &mut Network, decision: &BlockDecision) -> Result<(), HeadStartError> {
        let blocks = net.block_indices();
        if blocks.len() != decision.active.len() {
            return Err(HeadStartError::BadTarget {
                detail: format!(
                    "decision covers {} blocks, network has {}",
                    decision.active.len(),
                    blocks.len()
                ),
            });
        }
        set_blocks(net, &blocks, &decision.active)?;
        Ok(())
    }

    /// Full Table-4 pipeline: prune, apply, fine-tune; returns the
    /// decision and the fine-tuned test accuracy.
    ///
    /// # Errors
    ///
    /// Propagates pruning and training errors.
    pub fn prune_and_finetune(
        &self,
        net: &mut Network,
        ds: &Dataset,
        ft: &FineTune,
        rng: &mut Rng,
    ) -> Result<(BlockDecision, f32), HeadStartError> {
        self.prune_and_finetune_observed(net, ds, ft, rng, &mut NullObserver)
    }

    /// As [`BlockPruner::prune_and_finetune`], reporting each episode to
    /// `observer`.
    ///
    /// # Errors
    ///
    /// Propagates pruning and training errors.
    pub fn prune_and_finetune_observed(
        &self,
        net: &mut Network,
        ds: &Dataset,
        ft: &FineTune,
        rng: &mut Rng,
        observer: &mut dyn EngineObserver,
    ) -> Result<(BlockDecision, f32), HeadStartError> {
        self.prune_and_finetune_executed(net, ds, ft, rng, observer, &mut SerialExecutor)
    }

    /// As [`BlockPruner::prune_and_finetune_observed`], with an explicit
    /// batch-evaluation executor.
    ///
    /// # Errors
    ///
    /// Propagates pruning and training errors.
    pub fn prune_and_finetune_executed(
        &self,
        net: &mut Network,
        ds: &Dataset,
        ft: &FineTune,
        rng: &mut Rng,
        observer: &mut dyn EngineObserver,
        executor: &mut dyn EvalExecutor,
    ) -> Result<(BlockDecision, f32), HeadStartError> {
        observer.on_unit_start("block", 0);
        let decision = self.prune_executed(net, ds, rng, observer, executor)?;
        self.apply(net, &decision)?;
        ft.run(net, &ds.train_images, &ds.train_labels, rng)
            .map_err(HeadStartError::Prune)?;
        let acc = train::evaluate(net, &ds.test_images, &ds.test_labels, 64)?;
        Ok((decision, acc))
    }
}

fn set_blocks(net: &mut Network, blocks: &[usize], active: &[bool]) -> Result<(), HeadStartError> {
    for (&node, &a) in blocks.iter().zip(active) {
        // Skip no-op writes on non-prunable blocks.
        if let Node::Block(b) = net.node(node) {
            if b.is_active() == a {
                continue;
            }
        }
        net.set_block_active(node, a)?;
    }
    Ok(())
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
        // 9 residual blocks: n=3 and width 0.25 keep every stage's
        // channel count positive, so construction cannot fail.
        let net = models::resnet_cifar(3, 3, 4, 0.25, &mut rng)
            .expect("ResNet with positive channel counts always builds");
        (ds, net, rng)
    }

    #[test]
    fn decision_keeps_downsample_blocks() {
        let (ds, mut net, mut rng) = setup();
        let cfg = HeadStartConfig::new(1.5).max_episodes(4).eval_images(8);
        let d = BlockPruner::new(cfg)
            .prune(&mut net, &ds, &mut rng)
            .unwrap();
        assert_eq!(d.active.len(), 9);
        // Blocks 3 and 6 are the downsample boundaries of ResNet-20.
        assert!(d.active[3] && d.active[6]);
        assert!((0.0..=1.0).contains(&d.compression_ratio));
        // Network restored to fully active after prune().
        for &b in &net.block_indices() {
            match net.node(b) {
                Node::Block(blk) => assert!(blk.is_active()),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn apply_deactivates_chosen_blocks() {
        let (ds, mut net, mut rng) = setup();
        let cfg = HeadStartConfig::new(2.0).max_episodes(3).eval_images(8);
        let pruner = BlockPruner::new(cfg);
        let mut d = pruner.prune(&mut net, &ds, &mut rng).unwrap();
        // Force a known pattern: drop block 1.
        d.active = vec![true; 9];
        d.active[1] = false;
        pruner.apply(&mut net, &d).unwrap();
        match net.node(net.block_indices()[1]) {
            Node::Block(b) => assert!(!b.is_active()),
            _ => unreachable!(),
        }
        // Network still runs.
        assert!(net.forward(&ds.test_images, false).is_ok());
    }

    #[test]
    fn apply_validates_length() {
        use crate::engine::ConvergenceReason;
        let (_, mut net, _) = setup();
        let cfg = HeadStartConfig::new(2.0);
        let d = BlockDecision {
            active: vec![true; 3],
            trace: EpisodeTrace {
                episodes: 1,
                reward_history: vec![],
                convergence: ConvergenceReason::EpisodeBudget,
                resets: 0,
            },
            compression_ratio: 1.0,
        };
        assert!(BlockPruner::new(cfg).apply(&mut net, &d).is_err());
    }

    #[test]
    fn prune_and_finetune_reports_accuracy() {
        let (ds, mut net, mut rng) = setup();
        let cfg = HeadStartConfig::new(1.5).max_episodes(3).eval_images(8);
        let ft = FineTune {
            epochs: 1,
            ..FineTune::default()
        };
        let (d, acc) = BlockPruner::new(cfg)
            .prune_and_finetune(&mut net, &ds, &ft, &mut rng)
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(d.active_blocks() <= 9);
    }

    #[test]
    fn rejects_network_without_blocks() {
        let ds = Dataset::generate(
            &DatasetSpec::cifar_like()
                .classes(2)
                .train_per_class(4)
                .test_per_class(2)
                .image_size(8),
        )
        .unwrap();
        let mut rng = Rng::seed_from(1);
        let mut net = models::vgg11(3, 2, 8, 0.25, &mut rng).unwrap();
        let cfg = HeadStartConfig::new(2.0).max_episodes(2).eval_images(8);
        assert!(BlockPruner::new(cfg)
            .prune(&mut net, &ds, &mut rng)
            .is_err());
    }
}
