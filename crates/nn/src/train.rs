//! Training and evaluation loops.
//!
//! These helpers operate on plain `(images, labels)` tensors so they stay
//! independent of any dataset crate: `images` is `[N, C, H, W]`, `labels`
//! is one integer class per sample.

use hs_tensor::{Rng, Tensor};

use crate::error::NnError;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::network::Network;
use crate::optim::Optimizer;

/// Summary of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean cross-entropy loss over the epoch.
    pub loss: f32,
    /// Top-1 training accuracy over the epoch.
    pub accuracy: f32,
}

fn check_dataset(images: &Tensor, labels: &[usize]) -> Result<usize, NnError> {
    if images.shape().rank() != 4 {
        return Err(NnError::BadInput {
            what: "train/evaluate",
            detail: format!("images must be [N, C, H, W], got {}", images.shape()),
        });
    }
    let n = images.shape().dim(0);
    if n != labels.len() {
        return Err(NnError::BadInput {
            what: "train/evaluate",
            detail: format!("{n} images but {} labels", labels.len()),
        });
    }
    if n == 0 {
        return Err(NnError::BadInput {
            what: "train/evaluate",
            detail: "empty dataset".to_string(),
        });
    }
    Ok(n)
}

/// Runs one epoch of mini-batch SGD training with shuffling.
///
/// Gradients are training-only storage: the epoch allocates them on its
/// first backward pass and drops them when it returns, so a trained
/// network carries values only.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for inconsistent `images`/`labels` and
/// propagates any layer error.
pub fn train_epoch(
    net: &mut Network,
    opt: &mut dyn Optimizer,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    rng: &mut Rng,
) -> Result<EpochStats, NnError> {
    let stats = train_batches(net, opt, images, labels, batch_size, rng);
    net.drop_grads();
    stats
}

fn train_batches(
    net: &mut Network,
    opt: &mut dyn Optimizer,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    rng: &mut Rng,
) -> Result<EpochStats, NnError> {
    let n = check_dataset(images, labels)?;
    let batch_size = batch_size.clamp(1, n);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut total_loss = 0.0f64;
    let mut total_hits = 0.0f64;
    let mut batches = 0usize;
    for chunk in order.chunks(batch_size) {
        let x = images.index_select(0, chunk)?;
        let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        net.zero_grad();
        let logits = net.forward(&x, true)?;
        let (loss, grad) = softmax_cross_entropy(&logits, &y)?;
        net.backward(&grad)?;
        opt.step(net);
        total_loss += loss as f64;
        total_hits += accuracy(&logits, &y)? as f64;
        batches += 1;
    }
    Ok(EpochStats {
        loss: (total_loss / batches as f64) as f32,
        accuracy: (total_hits / batches as f64) as f32,
    })
}

/// Evaluates top-1 accuracy in inference mode (no gradient, running BN
/// statistics).
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for inconsistent inputs and propagates
/// layer errors.
pub fn evaluate(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f32, NnError> {
    let n = check_dataset(images, labels)?;
    let batch_size = batch_size.clamp(1, n);
    let mut hits = 0.0f64;
    let mut count = 0usize;
    let indices: Vec<usize> = (0..n).collect();
    for chunk in indices.chunks(batch_size) {
        let x = images.index_select(0, chunk)?;
        let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        let logits = net.forward(&x, false)?;
        hits += accuracy(&logits, &y)? as f64 * chunk.len() as f64;
        count += chunk.len();
    }
    Ok((hits / count as f64) as f32)
}

/// Evaluates mean cross-entropy loss in inference mode.
///
/// # Errors
///
/// Same conditions as [`evaluate`].
pub fn evaluate_loss(
    net: &mut Network,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f32, NnError> {
    let n = check_dataset(images, labels)?;
    let batch_size = batch_size.clamp(1, n);
    let mut total = 0.0f64;
    let mut count = 0usize;
    let indices: Vec<usize> = (0..n).collect();
    for chunk in indices.chunks(batch_size) {
        let x = images.index_select(0, chunk)?;
        let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        let logits = net.forward(&x, false)?;
        let (loss, _) = softmax_cross_entropy(&logits, &y)?;
        total += loss as f64 * chunk.len() as f64;
        count += chunk.len();
    }
    Ok((total / count as f64) as f32)
}

/// Re-estimates batch-norm running statistics by running training-mode
/// forward passes (no gradients, no weight updates).
///
/// After channel surgery the distributions flowing into downstream batch
/// norms shift, and the stored running statistics go stale; a few
/// recalibration passes restore meaningful inference-mode behaviour
/// without any fine-tuning. This is standard deployment practice and is
/// *not* used inside the paper-reproduction measurements (the paper
/// reports raw post-pruning accuracy), but is provided for users who
/// ship pruned models.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for inconsistent inputs and propagates
/// layer errors.
pub fn recalibrate_bn(
    net: &mut Network,
    images: &Tensor,
    batch_size: usize,
    passes: usize,
) -> Result<(), NnError> {
    if images.shape().rank() != 4 || images.shape().dim(0) == 0 {
        return Err(NnError::BadInput {
            what: "recalibrate_bn",
            detail: format!(
                "images must be non-empty [N, C, H, W], got {}",
                images.shape()
            ),
        });
    }
    let n = images.shape().dim(0);
    let batch_size = batch_size.clamp(1, n);
    let indices: Vec<usize> = (0..n).collect();
    for _ in 0..passes.max(1) {
        for chunk in indices.chunks(batch_size) {
            let x = images.index_select(0, chunk)?;
            net.forward(&x, true)?;
        }
    }
    Ok(())
}

/// Trains for `epochs` epochs, returning the stats of each.
///
/// # Errors
///
/// Same conditions as [`train_epoch`].
pub fn fit(
    net: &mut Network,
    opt: &mut dyn Optimizer,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    epochs: usize,
    rng: &mut Rng,
) -> Result<Vec<EpochStats>, NnError> {
    let mut stats = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        stats.push(train_epoch(net, opt, images, labels, batch_size, rng)?);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, GlobalAvgPool, Linear, ReLU};
    use crate::network::{Network, Node};
    use crate::optim::Sgd;
    use hs_tensor::Shape;

    /// Two well-separated Gaussian blobs rendered as 1-channel images.
    fn blob_dataset(n: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
        let mut images = Vec::with_capacity(n * 16);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let mean = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..16 {
                images.push(rng.normal_with(mean, 0.3));
            }
            labels.push(class);
        }
        (
            Tensor::from_vec(Shape::d4(n, 1, 4, 4), images).unwrap(),
            labels,
        )
    }

    fn tiny_classifier(rng: &mut Rng) -> Network {
        let mut net = Network::new();
        net.push(Node::Conv(Conv2d::new(1, 4, 3, 1, 1, rng)));
        net.push(Node::Relu(ReLU::new()));
        net.push(Node::Gap(GlobalAvgPool::new()));
        net.push(Node::Linear(Linear::new(4, 2, rng)));
        net
    }

    #[test]
    fn training_learns_separable_blobs() {
        let mut rng = Rng::seed_from(0);
        let (images, labels) = blob_dataset(64, &mut rng);
        let mut net = tiny_classifier(&mut rng);
        let mut opt = Sgd::new(0.1).momentum(0.9);
        let before = evaluate(&mut net, &images, &labels, 16).unwrap();
        let stats = fit(&mut net, &mut opt, &images, &labels, 16, 15, &mut rng).unwrap();
        let after = evaluate(&mut net, &images, &labels, 16).unwrap();
        assert!(after > 0.95, "accuracy {after} (was {before})");
        assert!(stats.last().unwrap().loss < stats[0].loss);
    }

    #[test]
    fn evaluate_loss_decreases_with_training() {
        let mut rng = Rng::seed_from(1);
        let (images, labels) = blob_dataset(32, &mut rng);
        let mut net = tiny_classifier(&mut rng);
        let mut opt = Sgd::new(0.1);
        let loss0 = evaluate_loss(&mut net, &images, &labels, 8).unwrap();
        fit(&mut net, &mut opt, &images, &labels, 8, 10, &mut rng).unwrap();
        let loss1 = evaluate_loss(&mut net, &images, &labels, 8).unwrap();
        assert!(loss1 < loss0);
    }

    #[test]
    fn bn_recalibration_restores_pruned_accuracy() {
        use crate::layer::BatchNorm2d;
        use crate::surgery;

        let mut rng = Rng::seed_from(5);
        let (images, labels) = blob_dataset(64, &mut rng);
        // conv-bn-relu-conv-relu-gap-linear so surgery hits a BN consumer.
        let mut net = Network::new();
        net.push(Node::Conv(Conv2d::new(1, 8, 3, 1, 1, &mut rng)));
        net.push(Node::Bn(BatchNorm2d::new(8)));
        net.push(Node::Relu(ReLU::new()));
        net.push(Node::Conv(Conv2d::new(8, 6, 3, 1, 1, &mut rng)));
        net.push(Node::Bn(BatchNorm2d::new(6)));
        net.push(Node::Relu(ReLU::new()));
        net.push(Node::Gap(GlobalAvgPool::new()));
        net.push(Node::Linear(Linear::new(6, 2, &mut rng)));
        let mut opt = Sgd::new(0.1).momentum(0.9);
        fit(&mut net, &mut opt, &images, &labels, 16, 10, &mut rng).unwrap();
        // Prune half of conv0's maps; downstream BN stats are now stale.
        let site = surgery::conv_sites(&net)[0];
        surgery::prune_feature_maps(&mut net, site.conv, &[0, 2, 4, 6]).unwrap();
        let stale = evaluate(&mut net, &images, &labels, 16).unwrap();
        recalibrate_bn(&mut net, &images, 16, 2).unwrap();
        let fresh = evaluate(&mut net, &images, &labels, 16).unwrap();
        assert!(
            fresh >= stale,
            "recalibration made things worse: {fresh} < {stale}"
        );
    }

    #[test]
    fn recalibrate_rejects_empty_input() {
        let mut rng = Rng::seed_from(6);
        let mut net = tiny_classifier(&mut rng);
        let empty = Tensor::zeros(hs_tensor::Shape::d4(0, 1, 4, 4));
        assert!(recalibrate_bn(&mut net, &empty, 4, 1).is_err());
    }

    #[test]
    fn rejects_mismatched_labels() {
        let mut rng = Rng::seed_from(2);
        let (images, _) = blob_dataset(8, &mut rng);
        let mut net = tiny_classifier(&mut rng);
        let mut opt = Sgd::new(0.1);
        assert!(train_epoch(&mut net, &mut opt, &images, &[0, 1], 4, &mut rng).is_err());
        assert!(evaluate(&mut net, &images, &[0, 1], 4).is_err());
    }

    #[test]
    fn rejects_empty_dataset() {
        let mut rng = Rng::seed_from(3);
        let mut net = tiny_classifier(&mut rng);
        let images = Tensor::zeros(Shape::d4(0, 1, 4, 4));
        assert!(evaluate(&mut net, &images, &[], 4).is_err());
    }
}
