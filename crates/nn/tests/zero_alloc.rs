//! Verifies the scratch-arena acceptance criterion: after one warm-up
//! iteration, a conv forward+backward pass performs **zero** heap
//! allocations for col2im / GEMM output / GEMM packing buffers — every
//! `with_scratch` checkout is served from the thread-local arena.
//!
//! This file holds a single test on purpose: the arena counters are
//! process-global, so a sibling test running concurrently in the same
//! binary would perturb them.

use hs_nn::layer::Conv2d;
use hs_tensor::{workspace, Conv2dGeometry, Rng, Shape, Tensor};

#[test]
fn conv_forward_backward_is_zero_alloc_after_warmup() {
    let mut rng = Rng::seed_from(42);
    // Small enough to stay on the calling thread (below the parallel
    // thresholds), large enough to exercise all three GEMMs. The
    // batch of 11 lowers as a group of 8 and a ragged group of 3.
    let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
    let x = Tensor::randn(Shape::d4(11, 3, 12, 12), &mut rng);
    let geom = Conv2dGeometry::new(3, 12, 12, 3, 1, 1);
    assert_eq!(geom.group_size(11), 8, "the batch must span two groups");
    // A 2×2 map forwards position-major in groups of 8 and 3, and its
    // panels leave out the taps that read padding, through depth tables.
    let mut small = Conv2d::new(32, 16, 3, 1, 1, &mut rng);
    let xs = Tensor::randn(Shape::d4(11, 32, 2, 2), &mut rng);
    let step = |conv: &mut Conv2d, x: &Tensor| {
        let y = conv.forward(x, true).unwrap();
        let dy = Tensor::ones(y.shape().clone());
        conv.backward(&dy).unwrap();
    };

    // Warm-up: populates this thread's arena with every buffer size the
    // fwd+bwd path checks out.
    step(&mut conv, &x);
    step(&mut small, &xs);

    workspace::reset_stats();
    for _ in 0..5 {
        step(&mut conv, &x);
        step(&mut small, &xs);
    }
    assert_eq!(
        workspace::alloc_count(),
        0,
        "warm conv fwd+bwd allocated scratch buffers instead of reusing the arena"
    );
    assert!(
        workspace::reuse_count() > 0,
        "conv fwd+bwd never touched the arena; the zero-alloc check is vacuous"
    );
}
