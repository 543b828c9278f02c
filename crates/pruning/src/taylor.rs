//! Taylor-expansion channel saliency (Molchanov et al., 2016 — the
//! paper's reference [8]).

use hs_nn::loss::softmax_cross_entropy;

use crate::criterion::{PruningCriterion, ScoreContext};
use crate::error::PruneError;

/// Molchanov et al. (2016), "Pruning Convolutional Neural Networks for
/// Resource Efficient Inference": the first-order Taylor estimate of the
/// loss change from removing feature map `c` is
/// `|Σ (∂L/∂a_c) · a_c|` — the gradient-activation product summed over
/// the map. Channels with the smallest estimate are pruned first.
///
/// Implemented through the network's mask-gradient recording: with an
/// all-ones mask attached at the site, `∂L/∂mask_c` *is* the
/// gradient-activation inner product of channel `c`.
#[derive(Debug, Clone, Copy)]
pub struct TaylorCriterion {
    batches: usize,
}

impl TaylorCriterion {
    /// Creates the criterion, averaging saliency over 4 scoring passes.
    pub fn new() -> Self {
        TaylorCriterion { batches: 4 }
    }

    /// Overrides the number of scoring passes (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `batches` is zero.
    pub fn batches(mut self, batches: usize) -> Self {
        assert!(batches > 0, "need at least one scoring pass");
        self.batches = batches;
        self
    }
}

impl Default for TaylorCriterion {
    fn default() -> Self {
        TaylorCriterion::new()
    }
}

impl PruningCriterion for TaylorCriterion {
    fn name(&self) -> &'static str {
        "Taylor'16"
    }

    fn score(&mut self, ctx: &mut ScoreContext<'_>) -> Result<Vec<f32>, PruneError> {
        let channels = ctx.channels()?;
        let site = ctx.site;
        ctx.net.set_mask_grad_enabled(true);
        let result = (|| -> Result<Vec<f32>, PruneError> {
            let mut saliency = vec![0.0f64; channels];
            let n = ctx.images.shape().dim(0);
            let per = n.div_ceil(self.batches).max(1);
            let indices: Vec<usize> = (0..n).collect();
            ctx.net
                .set_channel_mask(site.mask_node, Some(vec![1.0; channels]));
            for chunk in indices.chunks(per) {
                let x = ctx.images.index_select(0, chunk)?;
                let y: Vec<usize> = chunk.iter().map(|&i| ctx.labels[i]).collect();
                let logits = ctx.net.forward(&x, true)?;
                let (_, grad) = softmax_cross_entropy(&logits, &y)?;
                ctx.net.backward(&grad)?;
                ctx.net.drop_grads(); // gates only; discard weight grads
                let dmask = ctx.net.take_mask_grad(site.mask_node).ok_or_else(|| {
                    PruneError::BadScoringSet {
                        detail: "mask gradient was not recorded".to_string(),
                    }
                })?;
                for (s, &g) in saliency.iter_mut().zip(&dmask) {
                    // With mask ≡ 1, ∂L/∂mask_c = Σ (∂L/∂a_c)·a_c.
                    *s += g.abs() as f64;
                }
            }
            Ok(saliency.into_iter().map(|s| s as f32).collect())
        })();
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

    fn net(rng: &mut Rng) -> Network {
        let mut net = Network::new();
        net.push(Node::Conv(Conv2d::new(1, 4, 3, 1, 1, rng)));
        net.push(Node::Relu(ReLU::new()));
        net.push(Node::Gap(GlobalAvgPool::new()));
        net.push(Node::Linear(Linear::new(4, 2, rng)));
        net
    }

    #[test]
    fn dead_channel_has_zero_saliency() {
        let mut rng = Rng::seed_from(0);
        let mut n = net(&mut rng);
        // Disconnect channel 1 from the classifier: its gradient is zero.
        if let Node::Linear(lin) = n.node_mut(3) {
            for o in 0..2 {
                lin.weight.value.data_mut()[o * 4 + 1] = 0.0;
            }
        }
        let site = conv_sites(&n)[0];
        let images = Tensor::randn(Shape::d4(8, 1, 6, 6), &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let mut ctx = ScoreContext::new(&mut n, site, &images, &labels, &mut rng);
        let scores = TaylorCriterion::new().score(&mut ctx).unwrap();
        assert!(
            scores[1] < 1e-9,
            "disconnected channel saliency {}",
            scores[1]
        );
        assert!(scores.iter().enumerate().any(|(i, &s)| i != 1 && s > 1e-6));
        // keep_set drops the dead channel.
        let keep = TaylorCriterion::new().keep_set(&mut ctx, 3).unwrap();
        assert!(!keep.contains(&1), "{keep:?}");
    }

    #[test]
    fn network_restored_after_scoring() {
        let mut rng = Rng::seed_from(1);
        let mut n = net(&mut rng);
        let site = conv_sites(&n)[0];
        let images = Tensor::randn(Shape::d4(4, 1, 6, 6), &mut rng);
        let labels = vec![0usize, 1, 0, 1];
        {
            let mut ctx = ScoreContext::new(&mut n, site, &images, &labels, &mut rng);
            TaylorCriterion::new().batches(2).score(&mut ctx).unwrap();
        }
        assert!(n.channel_mask(site.mask_node).is_none());
        // Weight gradients were discarded.
        assert_eq!(n.grad_len(), 0);
    }
}
