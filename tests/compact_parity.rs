//! Bit-parity of structural compaction: a compacted network must
//! compute the same function as the masked-dense network it came from,
//! for every pruning-unit strategy (per-layer channel masks, whole
//! residual blocks, block interiors).
//!
//! Tolerance: masked channels contribute exact `+0.0` products to every
//! downstream accumulation, and compaction removes those terms without
//! reordering the surviving ones, so outputs agree to float exactness
//! up to `x + 0.0` sign-of-zero effects. We assert `1e-6` — far below
//! any model-relevant scale, far above accumulated-reorder noise (of
//! which there is none by construction). Inactive-block removal is an
//! exact identity and is additionally asserted bit-equal.

use headstart::nn::compact::{compact, CompactError};
use headstart::nn::surgery::conv_sites;
use headstart::nn::{models, Network, Node};
use headstart::tensor::{Rng, Shape, Tensor};

/// Largest element-wise difference between two same-shaped tensors.
fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "output shapes diverged");
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

fn assert_parity(masked: &mut Network, compacted: &mut Network, x: &Tensor, tol: f32) {
    let want = masked.forward(x, false).expect("masked forward");
    let got = compacted.forward(x, false).expect("compacted forward");
    let diff = max_abs_diff(&want, &got);
    assert!(diff <= tol, "max |masked - compacted| = {diff} > {tol}");
}

/// A seeded random binary mask with at least one kept channel.
fn random_mask(channels: usize, rng: &mut Rng) -> Vec<f32> {
    let mut mask: Vec<f32> = (0..channels)
        .map(|_| {
            if rng.next_u64().is_multiple_of(2) {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    if mask.iter().all(|&m| m == 0.0) {
        mask[0] = 1.0;
    }
    mask
}

#[test]
fn layer_masks_compact_to_parity() {
    // Per-layer strategy on both a plain-feed-forward net with a GAP
    // head (lenet) and a deeper one (alexnet): every conv site gets a
    // seeded random mask.
    for (name, in_c, size, net) in [
        (
            "lenet",
            1usize,
            16usize,
            models::lenet(1, 10, 16, 1.0, &mut Rng::seed_from(41)).unwrap(),
        ),
        (
            "alexnet",
            3,
            16,
            models::alexnet(3, 10, 16, 0.5, &mut Rng::seed_from(42)).unwrap(),
        ),
    ] {
        let mut rng = Rng::seed_from(1000);
        let mut masked = net;
        for site in conv_sites(&masked) {
            let c = masked.conv(site.conv).unwrap().out_channels();
            masked.set_channel_mask(site.mask_node, Some(random_mask(c, &mut rng)));
        }
        let mut compacted = compact(&masked, in_c, size).expect(name).net;
        let x = Tensor::randn(Shape::d4(3, in_c, size, size), &mut rng);
        assert_parity(&mut masked, &mut compacted, &x, 1e-6);
    }
}

#[test]
fn layer_masks_compact_to_parity_at_the_benchmark_shapes() {
    // VGG-11 and AlexNet at width 0.5 on 3×32×32 inputs, as the infer
    // benchmark runs them: stride-1 convs on 32-, 16- and 8-px maps read
    // their patch panels in place, VGG's 4-px maps pack sample-major and,
    // in the batch of 9, its 2-px maps pack position-major. Every conv
    // site gets a seeded random keep set, and one site per net keeps a
    // single map.
    for (name, net) in [
        (
            "vgg11",
            models::vgg11(3, 10, 32, 0.5, &mut Rng::seed_from(43)).unwrap(),
        ),
        (
            "alexnet",
            models::alexnet(3, 10, 32, 0.5, &mut Rng::seed_from(44)).unwrap(),
        ),
    ] {
        let mut rng = Rng::seed_from(2000);
        let mut masked = net;
        let sites = conv_sites(&masked);
        let single = rng.below(sites.len());
        for (i, site) in sites.into_iter().enumerate() {
            let c = masked.conv(site.conv).unwrap().out_channels();
            let mask = if i == single {
                let kept = rng.below(c);
                (0..c).map(|j| if j == kept { 1.0 } else { 0.0 }).collect()
            } else {
                random_mask(c, &mut rng)
            };
            masked.set_channel_mask(site.mask_node, Some(mask));
        }
        let mut compacted = compact(&masked, 3, 32).expect(name).net;
        for batch in [1, 9] {
            let x = Tensor::randn(Shape::d4(batch, 3, 32, 32), &mut rng);
            assert_parity(&mut masked, &mut compacted, &x, 1e-6);
        }
    }
}

#[test]
fn inactive_blocks_compact_to_exact_parity() {
    // Block strategy: deactivating an identity-shortcut block makes its
    // forward the identity; compaction removes the node. The surviving
    // graph runs the same ops, so parity is exact (tolerance 0).
    let mut rng = Rng::seed_from(7);
    let mut masked = models::resnet_cifar(2, 3, 10, 0.5, &mut rng).unwrap();
    let prunable: Vec<usize> = masked
        .block_indices()
        .into_iter()
        .filter(|&i| match masked.node(i) {
            Node::Block(b) => b.can_prune(),
            _ => false,
        })
        .collect();
    assert!(prunable.len() >= 2, "resnet14 should have prunable blocks");
    for &idx in &prunable {
        masked.set_block_active(idx, false).unwrap();
    }
    let compact_net = compact(&masked, 3, 8).expect("compact");
    assert_eq!(compact_net.report.changes.len(), prunable.len());
    let mut compacted = compact_net.net;
    let x = Tensor::randn(Shape::d4(2, 3, 8, 8), &mut rng);
    assert_parity(&mut masked, &mut compacted, &x, 0.0);
}

#[test]
fn inner_masks_compact_to_parity() {
    // Inner strategy: every residual block's interior gets a seeded
    // random mask between conv1 and conv2.
    let mut rng = Rng::seed_from(13);
    let mut masked = models::resnet_cifar(2, 3, 10, 0.5, &mut rng).unwrap();
    for idx in masked.block_indices() {
        let inner = match masked.node(idx) {
            Node::Block(b) => b.inner_channels(),
            _ => unreachable!(),
        };
        let mask = random_mask(inner, &mut rng);
        match masked.node_mut(idx) {
            Node::Block(b) => b.set_inner_mask(Some(mask)).unwrap(),
            _ => unreachable!(),
        }
    }
    let mut compacted = compact(&masked, 3, 8).expect("compact").net;
    let x = Tensor::randn(Shape::d4(2, 3, 8, 8), &mut rng);
    assert_parity(&mut masked, &mut compacted, &x, 1e-6);
}

#[test]
fn mixed_block_and_inner_pruning_compacts_to_parity() {
    // The strategies compose: one block deactivated, the others
    // interior-pruned, all realized in a single compaction pass.
    let mut rng = Rng::seed_from(99);
    let mut masked = models::resnet_cifar(2, 3, 10, 0.5, &mut rng).unwrap();
    let blocks = masked.block_indices();
    let mut deactivated = false;
    for &idx in &blocks {
        let (can_prune, inner) = match masked.node(idx) {
            Node::Block(b) => (b.can_prune(), b.inner_channels()),
            _ => unreachable!(),
        };
        if can_prune && !deactivated {
            masked.set_block_active(idx, false).unwrap();
            deactivated = true;
        } else {
            let mask = random_mask(inner, &mut rng);
            match masked.node_mut(idx) {
                Node::Block(b) => b.set_inner_mask(Some(mask)).unwrap(),
                _ => unreachable!(),
            }
        }
    }
    assert!(deactivated, "no prunable block found");
    let mut compacted = compact(&masked, 3, 8).expect("compact").net;
    let x = Tensor::randn(Shape::d4(2, 3, 8, 8), &mut rng);
    assert_parity(&mut masked, &mut compacted, &x, 1e-6);
}

#[test]
fn degenerate_units_surface_typed_errors_not_panics() {
    // All-zero masks would produce zero-dimension GEMMs; the compactor
    // must refuse with a typed error for both unit kinds.
    let mut rng = Rng::seed_from(3);
    let mut net = models::lenet(1, 10, 16, 1.0, &mut rng).unwrap();
    let site = conv_sites(&net)[0];
    let c = net.conv(site.conv).unwrap().out_channels();
    net.set_channel_mask(site.mask_node, Some(vec![0.0; c]));
    assert!(matches!(
        compact(&net, 1, 16).unwrap_err(),
        CompactError::DegenerateUnit { kind: "conv", .. }
    ));

    let mut resnet = models::resnet_cifar(1, 3, 10, 0.5, &mut rng).unwrap();
    let idx = resnet.block_indices()[0];
    let inner = match resnet.node(idx) {
        Node::Block(b) => b.inner_channels(),
        _ => unreachable!(),
    };
    match resnet.node_mut(idx) {
        Node::Block(b) => b.set_inner_mask(Some(vec![0.0; inner])).unwrap(),
        _ => unreachable!(),
    }
    assert!(matches!(
        compact(&resnet, 3, 8).unwrap_err(),
        CompactError::DegenerateUnit {
            kind: "block-inner",
            ..
        }
    ));
}
