//! Cost of one `keep_set` call per pruning criterion, on the same
//! pretrained-shape network and scoring batch.

use criterion::{criterion_group, criterion_main, Criterion};
use hs_nn::surgery::conv_sites;
use hs_nn::{models, Network};
use hs_pruning::{Apoz, AutoPruner, L1Norm, PruningCriterion, Random, ScoreContext, ThiNet};
use hs_tensor::{Rng, Shape, Tensor};

fn setup() -> (Network, Tensor, Vec<usize>) {
    let mut rng = Rng::seed_from(0);
    let net = models::vgg11(3, 16, 16, 0.25, &mut rng).expect("model");
    let images = Tensor::randn(Shape::d4(32, 3, 16, 16), &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 16).collect();
    (net, images, labels)
}

fn bench_criteria(c: &mut Criterion) {
    let (net, images, labels) = setup();
    let site = conv_sites(&net)[2];
    let keep = 32; // half of conv2's 64 maps at quarter width
    let mut group = c.benchmark_group("keep_set");
    group.sample_size(10);

    macro_rules! bench_one {
        ($label:expr, $make:expr) => {
            group.bench_function($label, |b| {
                b.iter(|| {
                    let mut net = net.clone();
                    let mut rng = Rng::seed_from(1);
                    let mut criterion = $make;
                    let mut ctx = ScoreContext::new(&mut net, site, &images, &labels, &mut rng);
                    criterion.keep_set(&mut ctx, keep).expect("keep_set")
                });
            });
        };
    }

    bench_one!("l1_norm", L1Norm::new());
    bench_one!("apoz", Apoz::new());
    bench_one!("random", Random::new());
    bench_one!("thinet_64samples", ThiNet::new().samples(64));
    bench_one!("autopruner_5iters", AutoPruner::new().iterations(5));
    group.finish();
}

fn bench_surgery(c: &mut Criterion) {
    let (net, _, _) = setup();
    let site = conv_sites(&net)[2];
    let keep: Vec<usize> = (0..64).step_by(2).collect();
    c.bench_function("prune_feature_maps_64to32", |b| {
        b.iter(|| {
            let mut n = net.clone();
            hs_nn::surgery::prune_feature_maps(&mut n, site.conv, &keep).expect("surgery")
        });
    });
}

criterion_group!(benches, bench_criteria, bench_surgery);
criterion_main!(benches);
