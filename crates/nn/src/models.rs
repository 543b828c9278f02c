//! Model zoo: the architectures the paper evaluates.
//!
//! Channel counts accept a *width multiplier* so the same topology can be
//! instantiated at full width for parameter/FLOP accounting (matching the
//! paper's tables) and at reduced width for CPU-feasible training. The
//! classifier head is a global-average-pool followed by one linear layer —
//! a documented substitution for VGG's original FC stack that keeps the
//! "feature maps ↔ classifier inputs" correspondence one-to-one, which is
//! what channel surgery relies on.

use hs_tensor::Rng;

use crate::block::ResidualBlock;
use crate::error::NnError;
use crate::layer::{AvgPool2d, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, MaxPool2d, ReLU};
use crate::network::{Network, Node};

/// The zoo's architectures, as runs and manifests name them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// VGG-11 with batch norm.
    Vgg11,
    /// VGG-16 with batch norm.
    Vgg16,
    /// CIFAR-style ResNet with `n` blocks per group (depth `6n + 2`).
    ResNetCifar {
        /// Blocks per group.
        n: usize,
    },
    /// LeNet-style small conv net.
    LeNet,
    /// AlexNet-style conv net.
    AlexNet,
}

impl ModelKind {
    /// CLI name, the inverse of [`ModelKind::parse`].
    pub fn name(&self) -> String {
        match self {
            ModelKind::Vgg11 => "vgg11".to_string(),
            ModelKind::Vgg16 => "vgg16".to_string(),
            ModelKind::ResNetCifar { n } => format!("resnet{}", resnet_depth(*n)),
            ModelKind::LeNet => "lenet".to_string(),
            ModelKind::AlexNet => "alexnet".to_string(),
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// Names the valid choices when `name` is not one of them.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "vgg11" => Ok(ModelKind::Vgg11),
            "vgg16" => Ok(ModelKind::Vgg16),
            "resnet20" => Ok(ModelKind::ResNetCifar { n: 3 }),
            "resnet38" => Ok(ModelKind::ResNetCifar { n: 6 }),
            "lenet" => Ok(ModelKind::LeNet),
            "alexnet" => Ok(ModelKind::AlexNet),
            other => Err(format!(
                "unknown model `{other}` (use vgg11|vgg16|resnet20|resnet38|lenet|alexnet)"
            )),
        }
    }
}

/// One element of a VGG configuration string: a convolution of the given
/// base width, or a max-pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VggItem {
    /// 3×3 same convolution with this many output channels (pre-scaling).
    Conv(usize),
    /// 2×2 max pool.
    Pool,
}

/// The standard VGG-16 configuration (13 convolutions).
pub const VGG16_CONFIG: &[VggItem] = &[
    VggItem::Conv(64),
    VggItem::Conv(64),
    VggItem::Pool,
    VggItem::Conv(128),
    VggItem::Conv(128),
    VggItem::Pool,
    VggItem::Conv(256),
    VggItem::Conv(256),
    VggItem::Conv(256),
    VggItem::Pool,
    VggItem::Conv(512),
    VggItem::Conv(512),
    VggItem::Conv(512),
    VggItem::Pool,
    VggItem::Conv(512),
    VggItem::Conv(512),
    VggItem::Conv(512),
    VggItem::Pool,
];

/// The standard VGG-11 configuration (8 convolutions).
pub const VGG11_CONFIG: &[VggItem] = &[
    VggItem::Conv(64),
    VggItem::Pool,
    VggItem::Conv(128),
    VggItem::Pool,
    VggItem::Conv(256),
    VggItem::Conv(256),
    VggItem::Pool,
    VggItem::Conv(512),
    VggItem::Conv(512),
    VggItem::Pool,
    VggItem::Conv(512),
    VggItem::Conv(512),
    VggItem::Pool,
];

/// Applies a width multiplier to a base channel count (minimum 2 so every
/// layer keeps at least a pair of prunable maps).
pub fn scale_channels(base: usize, width: f32) -> usize {
    ((base as f32 * width).round() as usize).max(2)
}

/// Builds a VGG-style network from a configuration.
///
/// Pools that would shrink the spatial extent below 1 pixel are skipped,
/// so small synthetic inputs (e.g. 8×8) work with the full configuration.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] if `input_size` is zero or `classes`
/// is zero.
pub fn vgg_from_config(
    config: &[VggItem],
    in_channels: usize,
    classes: usize,
    input_size: usize,
    width: f32,
    rng: &mut Rng,
) -> Result<Network, NnError> {
    if input_size == 0 || classes == 0 {
        return Err(NnError::BadInput {
            what: "vgg_from_config",
            detail: format!("input_size {input_size}, classes {classes}"),
        });
    }
    let mut net = Network::new();
    let mut channels = in_channels;
    let mut spatial = input_size;
    for item in config {
        match item {
            VggItem::Conv(base) => {
                let out = scale_channels(*base, width);
                net.push(Node::Conv(Conv2d::new(channels, out, 3, 1, 1, rng)));
                net.push(Node::Bn(BatchNorm2d::new(out)));
                net.push(Node::Relu(ReLU::new()));
                channels = out;
            }
            VggItem::Pool => {
                if spatial >= 2 && spatial.is_multiple_of(2) {
                    net.push(Node::MaxPool(MaxPool2d::new(2)));
                    spatial /= 2;
                }
            }
        }
    }
    net.push(Node::Gap(GlobalAvgPool::new()));
    net.push(Node::Linear(Linear::new(channels, classes, rng)));
    Ok(net)
}

/// VGG-16 (13 conv layers) for `input_size`×`input_size` inputs.
///
/// # Errors
///
/// See [`vgg_from_config`].
pub fn vgg16(
    in_channels: usize,
    classes: usize,
    input_size: usize,
    width: f32,
    rng: &mut Rng,
) -> Result<Network, NnError> {
    vgg_from_config(VGG16_CONFIG, in_channels, classes, input_size, width, rng)
}

/// VGG-11 (8 conv layers) for `input_size`×`input_size` inputs.
///
/// # Errors
///
/// See [`vgg_from_config`].
pub fn vgg11(
    in_channels: usize,
    classes: usize,
    input_size: usize,
    width: f32,
    rng: &mut Rng,
) -> Result<Network, NnError> {
    vgg_from_config(VGG11_CONFIG, in_channels, classes, input_size, width, rng)
}

/// LeNet-5-style network (LeCun et al. 1998), one of the "single-branch
/// shallow networks" the paper says HeadStart handles layer-by-layer:
/// two conv+avg-pool stages followed by the classifier. Input must be
/// divisible by 4.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for degenerate sizes.
pub fn lenet(
    in_channels: usize,
    classes: usize,
    input_size: usize,
    width: f32,
    rng: &mut Rng,
) -> Result<Network, NnError> {
    if classes == 0 || input_size < 4 || !input_size.is_multiple_of(4) {
        return Err(NnError::BadInput {
            what: "lenet",
            detail: format!("classes {classes}, input_size {input_size} (needs multiple of 4)"),
        });
    }
    let c1 = scale_channels(6, width.max(1.0)); // LeNet is already tiny
    let c2 = scale_channels(16, width.max(1.0));
    let mut net = Network::new();
    net.push(Node::Conv(Conv2d::new(in_channels, c1, 5, 1, 2, rng)));
    net.push(Node::Relu(ReLU::new()));
    net.push(Node::AvgPool(AvgPool2d::new(2)));
    net.push(Node::Conv(Conv2d::new(c1, c2, 5, 1, 2, rng)));
    net.push(Node::Relu(ReLU::new()));
    net.push(Node::AvgPool(AvgPool2d::new(2)));
    net.push(Node::Gap(GlobalAvgPool::new()));
    net.push(Node::Linear(Linear::new(c2, classes, rng)));
    Ok(net)
}

/// AlexNet-style network scaled to small inputs (Krizhevsky et al.
/// 2012), the other single-branch model the paper names: five
/// convolutions with early aggressive pooling.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for degenerate sizes.
pub fn alexnet(
    in_channels: usize,
    classes: usize,
    input_size: usize,
    width: f32,
    rng: &mut Rng,
) -> Result<Network, NnError> {
    if classes == 0 || input_size < 8 {
        return Err(NnError::BadInput {
            what: "alexnet",
            detail: format!("classes {classes}, input_size {input_size} (min 8)"),
        });
    }
    let widths = [64, 192, 384, 256, 256].map(|c| scale_channels(c, width));
    let mut net = Network::new();
    let mut spatial = input_size;
    let mut channels = in_channels;
    for (i, &out) in widths.iter().enumerate() {
        let kernel = if i == 0 { 5 } else { 3 };
        net.push(Node::Conv(Conv2d::new(
            channels,
            out,
            kernel,
            1,
            kernel / 2,
            rng,
        )));
        net.push(Node::Bn(BatchNorm2d::new(out)));
        net.push(Node::Relu(ReLU::new()));
        channels = out;
        // Pools after conv 0, 1 and 4 (the AlexNet pattern).
        if matches!(i, 0 | 1 | 4) && spatial >= 2 && spatial.is_multiple_of(2) {
            net.push(Node::MaxPool(MaxPool2d::new(2)));
            spatial /= 2;
        }
    }
    net.push(Node::Gap(GlobalAvgPool::new()));
    net.push(Node::Linear(Linear::new(channels, classes, rng)));
    Ok(net)
}

/// The CIFAR ResNet family (He et al. 2016): depth `6n + 2` with three
/// groups of `n` basic blocks at (scaled) widths 16/32/64.
///
/// `n = 18` gives ResNet-110, `n = 9` ResNet-56, `n = 3` ResNet-20 — the
/// models of the paper's Table 4.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] if `n` or `classes` is zero.
pub fn resnet_cifar(
    n: usize,
    in_channels: usize,
    classes: usize,
    width: f32,
    rng: &mut Rng,
) -> Result<Network, NnError> {
    if n == 0 || classes == 0 {
        return Err(NnError::BadInput {
            what: "resnet_cifar",
            detail: format!("n {n}, classes {classes}"),
        });
    }
    let widths = [
        scale_channels(16, width),
        scale_channels(32, width),
        scale_channels(64, width),
    ];
    let mut net = Network::new();
    net.push(Node::Conv(Conv2d::new(
        in_channels,
        widths[0],
        3,
        1,
        1,
        rng,
    )));
    net.push(Node::Bn(BatchNorm2d::new(widths[0])));
    net.push(Node::Relu(ReLU::new()));
    let mut channels = widths[0];
    for (g, &w) in widths.iter().enumerate() {
        for b in 0..n {
            let stride = if g > 0 && b == 0 { 2 } else { 1 };
            net.push(Node::Block(ResidualBlock::new(channels, w, stride, rng)));
            channels = w;
        }
    }
    net.push(Node::Gap(GlobalAvgPool::new()));
    net.push(Node::Linear(Linear::new(channels, classes, rng)));
    Ok(net)
}

/// Re-samples every weight in the network from its initialization
/// distribution, preserving the architecture exactly. This is the "train
/// from scratch" baseline of the paper's Tables 2–4: same pruned
/// topology, none of the inherited knowledge.
pub fn reinitialize(net: &mut Network, rng: &mut Rng) {
    use crate::block::{reinit_bn, reinit_conv};
    use hs_tensor::Init;
    for i in 0..net.len() {
        match net.node_mut(i) {
            Node::Conv(conv) => reinit_conv(conv, rng),
            Node::Bn(bn) => reinit_bn(bn),
            Node::Linear(lin) => {
                lin.weight.value =
                    Init::XavierUniform.sample(lin.weight.value.shape().clone(), rng);
                lin.weight.zero_grad();
                lin.bias.value.fill(0.0);
                lin.bias.zero_grad();
            }
            Node::Block(block) => block.reinitialize(rng),
            Node::Relu(_)
            | Node::Dropout(_)
            | Node::MaxPool(_)
            | Node::AvgPool(_)
            | Node::Gap(_)
            | Node::Flatten(_) => {}
        }
    }
}

/// Depth of a CIFAR ResNet built with [`resnet_cifar`].
pub fn resnet_depth(n: usize) -> usize {
    6 * n + 2
}

/// Group index (0, 1 or 2) of each residual block of a CIFAR ResNet with
/// `n` blocks per group, aligned with [`Network::block_indices`].
pub fn resnet_block_groups(n: usize) -> Vec<usize> {
    (0..3 * n).map(|i| i / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_tensor::{Shape, Tensor};

    #[test]
    fn vgg16_has_13_convs() {
        let mut rng = Rng::seed_from(0);
        let net = vgg16(3, 10, 32, 0.25, &mut rng).unwrap();
        assert_eq!(net.conv_indices().len(), 13);
    }

    #[test]
    fn vgg16_forward_shape() {
        let mut rng = Rng::seed_from(1);
        let mut net = vgg16(3, 10, 16, 0.125, &mut rng).unwrap();
        let x = Tensor::randn(Shape::d4(2, 3, 16, 16), &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d2(2, 10));
    }

    #[test]
    fn vgg_skips_pools_on_small_inputs() {
        let mut rng = Rng::seed_from(2);
        // 8×8 input only admits 3 pools; the builder must still succeed.
        let mut net = vgg16(3, 5, 8, 0.125, &mut rng).unwrap();
        let x = Tensor::randn(Shape::d4(1, 3, 8, 8), &mut rng);
        assert!(net.forward(&x, false).is_ok());
    }

    #[test]
    fn scale_channels_floors_at_two() {
        assert_eq!(scale_channels(64, 0.25), 16);
        assert_eq!(scale_channels(64, 1.0), 64);
        assert_eq!(scale_channels(4, 0.1), 2);
    }

    #[test]
    fn resnet_block_count() {
        let mut rng = Rng::seed_from(3);
        // ResNet-20: n=3 and width 0.5 keep every stage's channel count
        // positive, so construction cannot fail.
        let net = resnet_cifar(3, 3, 10, 0.5, &mut rng)
            .expect("ResNet-20 with positive channel counts always builds");
        assert_eq!(net.block_indices().len(), 9);
        assert_eq!(resnet_depth(3), 20);
        assert_eq!(resnet_depth(18), 110);
        assert_eq!(resnet_depth(9), 56);
    }

    #[test]
    fn resnet_forward_shape() {
        let mut rng = Rng::seed_from(4);
        let mut net = resnet_cifar(2, 3, 7, 0.25, &mut rng).unwrap();
        let x = Tensor::randn(Shape::d4(2, 3, 16, 16), &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d2(2, 7));
    }

    #[test]
    fn resnet_groups_have_one_downsample_boundary() {
        let mut rng = Rng::seed_from(5);
        let net = resnet_cifar(3, 3, 10, 0.25, &mut rng).unwrap();
        let blocks = net.block_indices();
        let prunable: Vec<bool> = blocks
            .iter()
            .map(|&i| match net.node(i) {
                Node::Block(b) => b.can_prune(),
                _ => unreachable!(),
            })
            .collect();
        // First block of groups 2 and 3 downsample; everything else is
        // prunable.
        assert_eq!(
            prunable,
            vec![true, true, true, false, true, true, false, true, true]
        );
    }

    #[test]
    fn resnet_block_groups_layout() {
        assert_eq!(resnet_block_groups(2), vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn builders_reject_degenerate_args() {
        let mut rng = Rng::seed_from(6);
        assert!(vgg16(3, 0, 32, 1.0, &mut rng).is_err());
        assert!(vgg16(3, 10, 0, 1.0, &mut rng).is_err());
        assert!(resnet_cifar(0, 3, 10, 1.0, &mut rng).is_err());
    }

    #[test]
    fn lenet_runs_and_is_prunable() {
        let mut rng = Rng::seed_from(10);
        let mut net = lenet(1, 10, 16, 1.0, &mut rng).unwrap();
        let x = Tensor::randn(Shape::d4(2, 1, 16, 16), &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d2(2, 10));
        assert_eq!(net.conv_indices().len(), 2);
        // Layer-wise prunable through the standard surgery path.
        let sites = crate::surgery::conv_sites(&net);
        crate::surgery::prune_feature_maps(&mut net, sites[0].conv, &[0, 2, 4]).unwrap();
        assert!(net.forward(&x, false).is_ok());
    }

    #[test]
    fn lenet_rejects_bad_input_size() {
        let mut rng = Rng::seed_from(11);
        assert!(lenet(1, 10, 10, 1.0, &mut rng).is_err());
        assert!(lenet(1, 0, 16, 1.0, &mut rng).is_err());
    }

    #[test]
    fn alexnet_runs_and_has_five_convs() {
        let mut rng = Rng::seed_from(12);
        let mut net = alexnet(3, 10, 16, 0.25, &mut rng).unwrap();
        let x = Tensor::randn(Shape::d4(2, 3, 16, 16), &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &Shape::d2(2, 10));
        assert_eq!(net.conv_indices().len(), 5);
        let x_train = Tensor::randn(Shape::d4(2, 3, 16, 16), &mut rng);
        net.forward(&x_train, true).unwrap();
        assert!(net.backward(&Tensor::ones(Shape::d2(2, 10))).is_ok());
    }

    #[test]
    fn reinitialize_preserves_architecture_but_not_weights() {
        let mut rng = Rng::seed_from(8);
        let mut net = resnet_cifar(1, 3, 4, 0.25, &mut rng).unwrap();
        let before = net.clone();
        let before_params = net.param_count();
        reinitialize(&mut net, &mut rng);
        assert_eq!(net.param_count(), before_params);
        // Weights must have changed somewhere.
        let mut diff = 0.0f32;
        let mut old = Vec::new();
        let mut neu = Vec::new();
        before
            .clone()
            .visit_params(&mut |p| old.push(p.value.clone()));
        net.visit_params(&mut |p| neu.push(p.value.clone()));
        for (a, b) in old.iter().zip(&neu) {
            assert_eq!(a.shape(), b.shape());
            diff += a
                .data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y).abs())
                .sum::<f32>();
        }
        assert!(diff > 0.0);
        // And the reinitialized network still runs.
        let x = Tensor::randn(Shape::d4(1, 3, 8, 8), &mut rng);
        assert!(net.forward(&x, false).is_ok());
    }

    #[test]
    fn resnet_training_backward_runs() {
        let mut rng = Rng::seed_from(7);
        let mut net = resnet_cifar(1, 3, 4, 0.25, &mut rng).unwrap();
        let x = Tensor::randn(Shape::d4(2, 3, 8, 8), &mut rng);
        let y = net.forward(&x, true).unwrap();
        let g = Tensor::ones(y.shape().clone());
        assert!(net.backward(&g).is_ok());
    }
}
