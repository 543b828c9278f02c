//! AutoPruner: end-to-end trained channel gates (Luo & Wu, 2018).

use hs_nn::loss::softmax_cross_entropy;

use crate::criterion::{PruningCriterion, ScoreContext};
use crate::error::PruneError;

/// AutoPruner attaches a scaled-sigmoid gate `σ(T·α_c)` to each feature
/// map and trains the gate parameters `α` end-to-end against the task
/// loss plus a sparsity penalty that pulls the mean gate towards the
/// target keep ratio. The temperature `T` is annealed upward so the
/// gates polarize towards 0/1; the final gate values are the importance
/// scores.
///
/// The gate gradient is obtained through the network's mask-gradient
/// recording ([`hs_nn::Network::take_mask_grad`]).
#[derive(Debug, Clone)]
pub struct AutoPruner {
    iterations: usize,
    lr: f32,
    sparsity_weight: f32,
    temp_start: f32,
    temp_end: f32,
    target_keep_ratio: f32,
}

impl AutoPruner {
    /// Creates AutoPruner with 30 gate-training iterations targeting a
    /// 50% keep ratio.
    pub fn new() -> Self {
        AutoPruner {
            iterations: 30,
            lr: 0.5,
            sparsity_weight: 2.0,
            temp_start: 1.0,
            temp_end: 10.0,
            target_keep_ratio: 0.5,
        }
    }

    /// Sets the gate-training iteration count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    pub fn iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "AutoPruner needs at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Sets the keep ratio the sparsity penalty targets (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn target_keep_ratio(mut self, ratio: f32) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "keep ratio must be in (0, 1]");
        self.target_keep_ratio = ratio;
        self
    }
}

impl Default for AutoPruner {
    fn default() -> Self {
        AutoPruner::new()
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl PruningCriterion for AutoPruner {
    fn name(&self) -> &'static str {
        "AutoPruner'18"
    }

    fn score(&mut self, ctx: &mut ScoreContext<'_>) -> Result<Vec<f32>, PruneError> {
        let channels = ctx.channels()?;
        let site = ctx.site;
        // Gate parameters start slightly positive: all channels initially
        // pass (σ(0.5) ≈ 0.62), matching the original's "start open".
        let mut alpha = vec![0.5f32; channels];
        ctx.net.set_mask_grad_enabled(true);
        let result = (|| -> Result<Vec<f32>, PruneError> {
            for it in 0..self.iterations {
                let t = self.temp_start
                    + (self.temp_end - self.temp_start) * it as f32 / self.iterations.max(1) as f32;
                let gates: Vec<f32> = alpha.iter().map(|&a| sigmoid(t * a)).collect();
                ctx.net
                    .set_channel_mask(site.mask_node, Some(gates.clone()));
                let logits = ctx.net.forward(ctx.images, true)?;
                let (_, grad) = softmax_cross_entropy(&logits, ctx.labels)?;
                ctx.net.backward(&grad)?;
                // Gates are the only thing we train here: discard the
                // parameter gradients the backward pass accumulated.
                ctx.net.drop_grads();
                let dmask = ctx.net.take_mask_grad(site.mask_node).ok_or_else(|| {
                    PruneError::BadScoringSet {
                        detail: "mask gradient was not recorded".to_string(),
                    }
                })?;
                // Sparsity penalty: (mean(g) − r)².
                let mean_gate: f32 = gates.iter().sum::<f32>() / channels as f32;
                let sparsity_pull =
                    2.0 * self.sparsity_weight * (mean_gate - self.target_keep_ratio)
                        / channels as f32;
                for ((a, &g), &dm) in alpha.iter_mut().zip(&gates).zip(&dmask) {
                    let dsig = t * g * (1.0 - g);
                    let grad_a = (dm + sparsity_pull) * dsig;
                    *a -= self.lr * grad_a;
                }
            }
            let t = self.temp_end;
            Ok(alpha.iter().map(|&a| sigmoid(t * a)).collect())
        })();
        // Always restore the network, even on error.
        ctx.net.set_channel_mask(site.mask_node, None);
        ctx.net.set_mask_grad_enabled(false);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_nn::layer::{Conv2d, GlobalAvgPool, Linear, ReLU};
    use hs_nn::surgery::conv_sites;
    use hs_nn::{Network, Node};
    use hs_tensor::{Rng, Shape, Tensor};

    fn gate_test_net(rng: &mut Rng) -> Network {
        let mut net = Network::new();
        net.push(Node::Conv(Conv2d::new(1, 6, 3, 1, 1, rng)));
        net.push(Node::Relu(ReLU::new()));
        net.push(Node::Gap(GlobalAvgPool::new()));
        net.push(Node::Linear(Linear::new(6, 2, rng)));
        net
    }

    #[test]
    fn gates_train_and_polarize() {
        let mut rng = Rng::seed_from(0);
        let mut net = gate_test_net(&mut rng);
        let site = conv_sites(&net)[0];
        let images = Tensor::randn(Shape::d4(8, 1, 6, 6), &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let mut crit = AutoPruner::new().iterations(40).target_keep_ratio(0.5);
        let mut ctx = ScoreContext::new(&mut net, site, &images, &labels, &mut rng);
        let scores = crit.score(&mut ctx).unwrap();
        assert_eq!(scores.len(), 6);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        // The sparsity penalty must actually bite: not all gates stay at
        // their initial wide-open value.
        let spread = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            - scores.iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(spread > 0.01, "gates did not differentiate: {scores:?}");
    }

    #[test]
    fn network_is_restored_after_scoring() {
        let mut rng = Rng::seed_from(1);
        let mut net = gate_test_net(&mut rng);
        let site = conv_sites(&net)[0];
        let images = Tensor::randn(Shape::d4(4, 1, 6, 6), &mut rng);
        let labels = vec![0usize, 1, 0, 1];
        let before = net.forward(&images, false).unwrap();
        let mut crit = AutoPruner::new().iterations(5);
        {
            let mut ctx = ScoreContext::new(&mut net, site, &images, &labels, &mut rng);
            crit.score(&mut ctx).unwrap();
        }
        assert!(
            net.channel_mask(site.mask_node).is_none(),
            "mask must be cleared"
        );
        let after = net.forward(&images, false).unwrap();
        // BN running stats move during gate training (train-mode
        // forwards), so compare only approximately.
        for (a, b) in before.data().iter().zip(after.data()) {
            assert!((a - b).abs() < 0.5, "network drifted too far: {a} vs {b}");
        }
    }

    #[test]
    fn keep_set_comes_from_gate_ranking() {
        let mut rng = Rng::seed_from(2);
        let mut net = gate_test_net(&mut rng);
        let site = conv_sites(&net)[0];
        let images = Tensor::randn(Shape::d4(8, 1, 6, 6), &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let mut crit = AutoPruner::new().iterations(15).target_keep_ratio(0.5);
        let mut ctx = ScoreContext::new(&mut net, site, &images, &labels, &mut rng);
        let keep = crit.keep_set(&mut ctx, 3).unwrap();
        assert_eq!(keep.len(), 3);
        assert!(keep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn builder_validates() {
        let r = std::panic::catch_unwind(|| AutoPruner::new().iterations(0));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| AutoPruner::new().target_keep_ratio(0.0));
        assert!(r.is_err());
    }
}
