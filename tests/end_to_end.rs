//! Cross-crate integration tests: the full train → prune → fine-tune →
//! estimate pipelines, at miniature scale.

use std::sync::Arc;

use headstart::core::{BlockPruner, HeadStartConfig, LayerPruner};
use headstart::data::{Dataset, DatasetSpec};
use headstart::gpusim::{devices, estimate};
use headstart::nn::accounting::analyze;
use headstart::nn::optim::Sgd;
use headstart::nn::{models, surgery, train};
use headstart::pruning::driver::FineTune;
use headstart::pruning::Random;
use headstart::runner::{BaselineKind, Budget, Method, Prepared};
use headstart::tensor::Rng;

fn tiny_dataset() -> Dataset {
    Dataset::generate(
        &DatasetSpec::cifar_like()
            .classes(4)
            .train_per_class(10)
            .test_per_class(5)
            .image_size(8),
    )
    .expect("valid spec")
}

fn pretrain(ds: &Dataset, width: f32, epochs: usize, rng: &mut Rng) -> headstart::nn::Network {
    let mut net =
        models::vgg11(ds.channels(), ds.num_classes(), ds.image_size(), width, rng).expect("model");
    let mut opt = Sgd::new(0.05).momentum(0.9).weight_decay(5e-4);
    train::fit(
        &mut net,
        &mut opt,
        &ds.train_images,
        &ds.train_labels,
        16,
        epochs,
        rng,
    )
    .expect("training");
    net
}

/// A VGG-11 pre-trained on the tiny dataset, ready for the runner's
/// methods under a budget with `finetune_epochs` per layer.
fn prepared(width: f32, epochs: usize, seed: u64, finetune_epochs: usize) -> Prepared {
    let ds = tiny_dataset();
    let mut net = pretrain(&ds, width, epochs, &mut Rng::seed_from(seed));
    let original_accuracy =
        train::evaluate(&mut net, &ds.test_images, &ds.test_labels, 64).expect("evaluate");
    let original_cost = analyze(&net, ds.channels(), ds.image_size()).expect("cost");
    Prepared {
        ds: Arc::new(ds),
        net,
        original_accuracy,
        original_cost,
        budget: Budget {
            pretrain_epochs: epochs,
            finetune_epochs,
            rl_episodes: 6,
            rl_eval_images: 16,
        },
        stages: Vec::new(),
    }
}

fn l1_half() -> Method {
    Method::Baseline {
        kind: BaselineKind::L1,
        keep_ratio: 0.5,
    }
}

#[test]
fn every_baseline_criterion_completes_a_whole_model_prune() {
    let prepared = prepared(0.125, 2, 1, 1);
    for kind in [
        BaselineKind::L1,
        BaselineKind::Apoz,
        BaselineKind::Random,
        BaselineKind::ThiNet,
        BaselineKind::AutoPruner { iterations: 4 },
    ] {
        let method = Method::Baseline {
            kind,
            keep_ratio: 0.5,
        };
        let mut run = prepared
            .run_method(&method, 1)
            .unwrap_or_else(|e| panic!("{} failed: {e}", kind.label()));
        assert!(
            run.cost.total_params < prepared.original_cost.total_params,
            "{}",
            kind.label()
        );
        assert!(
            run.net.forward(&prepared.ds.test_images, false).is_ok(),
            "{}",
            kind.label()
        );
        assert_eq!(run.traces.len(), 8);
    }
}

#[test]
fn headstart_whole_model_pipeline_is_deterministic() {
    let prepared = prepared(0.125, 2, 7, 1);
    let run = |seed: u64| {
        let run = prepared
            .run_method(&Method::HeadStartLayers { sp: 2.0 }, seed)
            .expect("prune");
        (
            run.final_accuracy,
            run.traces.iter().map(|t| t.maps_after).collect::<Vec<_>>(),
        )
    };
    let (acc_a, maps_a) = run(7);
    let (acc_b, maps_b) = run(7);
    assert_eq!(acc_a.to_bits(), acc_b.to_bits());
    assert_eq!(maps_a, maps_b);
    let (acc_c, maps_c) = run(8);
    // A different seed virtually always chooses at least one different
    // layer width at this scale.
    assert!(
        maps_a != maps_c || acc_a != acc_c,
        "different seeds gave identical runs"
    );
}

#[test]
fn headstart_single_layer_competitive_with_random_on_inception_accuracy() {
    // The paper's central claim at miniature scale, probed where it is
    // measurable: at an aggressive speedup (sp = 4) the surviving-filter
    // choice matters, and the learned inception must not lose to random
    // subsets. (At this scale a strict win is not guaranteed on every
    // seed — the full-size comparison lives in the fig3 experiment
    // binary — so the assertion allows a small tolerance.)
    let ds = tiny_dataset();
    let mut rng = Rng::seed_from(3);
    let net = pretrain(&ds, 0.25, 6, &mut rng);
    let ordinal = 1;
    let mut hs_total = 0.0f32;
    let mut rnd_total = 0.0f32;
    let seeds = 3u64;
    for seed in 0..seeds {
        let mut rng = Rng::seed_from(100 + seed);
        let mut hs_net = net.clone();
        let cfg = HeadStartConfig::new(4.0).max_episodes(60).eval_images(32);
        let d = LayerPruner::new(cfg)
            .prune(&mut hs_net, ordinal, &ds, &mut rng)
            .unwrap();
        let conv = hs_net.conv_indices()[ordinal];
        surgery::prune_feature_maps(&mut hs_net, conv, &d.keep).unwrap();
        hs_total += train::evaluate(&mut hs_net, &ds.test_images, &ds.test_labels, 64).unwrap();

        let mut rnd_net = net.clone();
        let keep_count = d.keep.len().max(1);
        let mut crit = Random::new();
        let site = surgery::conv_sites(&rnd_net)[ordinal];
        let keep = {
            let mut ctx = headstart::pruning::ScoreContext::new(
                &mut rnd_net,
                site,
                &ds.train_images,
                &ds.train_labels,
                &mut rng,
            );
            headstart::pruning::PruningCriterion::keep_set(&mut crit, &mut ctx, keep_count).unwrap()
        };
        surgery::prune_feature_maps(&mut rnd_net, site.conv, &keep).unwrap();
        rnd_total += train::evaluate(&mut rnd_net, &ds.test_images, &ds.test_labels, 64).unwrap();
    }
    let hs_mean = hs_total / seeds as f32;
    let rnd_mean = rnd_total / seeds as f32;
    assert!(
        hs_mean >= rnd_mean - 0.05,
        "HeadStart mean inception accuracy {hs_mean:.3} well below random {rnd_mean:.3}"
    );
}

#[test]
fn from_scratch_uses_the_pruned_architecture() {
    let prepared = prepared(0.125, 1, 4, 0);
    let pruned = prepared.run_method(&l1_half(), 4).expect("prune");
    let scratch = prepared.run_scratch(&pruned.net, 2, 5).expect("scratch");
    assert!((0.0..=1.0).contains(&scratch.final_accuracy));
    // From-scratch training keeps the pruned architecture.
    assert_eq!(scratch.cost.total_params, pruned.cost.total_params);
    assert!(scratch.cost.total_params < prepared.original_cost.total_params);
}

#[test]
fn block_pruned_resnet_runs_and_costs_less() {
    let ds = tiny_dataset();
    let mut rng = Rng::seed_from(5);
    let mut net = models::resnet_cifar(2, ds.channels(), ds.num_classes(), 0.25, &mut rng).unwrap();
    let full = analyze(&net, ds.channels(), ds.image_size()).unwrap();
    let cfg = HeadStartConfig::new(2.0).max_episodes(10).eval_images(16);
    let ft = FineTune {
        epochs: 1,
        ..FineTune::default()
    };
    let (decision, acc) = BlockPruner::new(cfg)
        .prune_and_finetune(&mut net, &ds, &ft, &mut rng)
        .unwrap();
    assert!((0.0..=1.0).contains(&acc));
    let pruned = analyze(&net, ds.channels(), ds.image_size()).unwrap();
    if decision.active.iter().any(|&a| !a) {
        assert!(pruned.total_params < full.total_params);
    }
}

#[test]
fn pruning_makes_models_faster_on_every_simulated_device() {
    let prepared = prepared(0.25, 1, 6, 0);
    let (channels, size) = (prepared.ds.channels(), prepared.ds.image_size());
    let pruned = prepared.run_method(&l1_half(), 6).expect("prune");
    for d in devices::all() {
        let fps_before = estimate(&d, &prepared.net, channels, size).unwrap().fps();
        let fps_after = estimate(&d, &pruned.net, channels, size).unwrap().fps();
        assert!(
            fps_after > fps_before,
            "{}: {fps_after} fps not faster than {fps_before}",
            d.name
        );
    }
}

#[test]
fn block_inner_pruning_end_to_end() {
    use headstart::core::InnerLayerPruner;
    let ds = tiny_dataset();
    let mut rng = Rng::seed_from(22);
    let mut net = models::resnet_cifar(2, ds.channels(), ds.num_classes(), 0.25, &mut rng).unwrap();
    let before = analyze(&net, ds.channels(), ds.image_size()).unwrap();
    let cfg = HeadStartConfig::new(2.0).max_episodes(6).eval_images(12);
    let pruner = InnerLayerPruner::new(cfg);
    let d = pruner.prune(&mut net, 0, &ds, &mut rng).unwrap();
    pruner.apply(&mut net, 0, &d).unwrap();
    let after = analyze(&net, ds.channels(), ds.image_size()).unwrap();
    assert!(after.total_params < before.total_params);
    assert!(net.forward(&ds.test_images, false).is_ok());
    // And the shrunk model checkpoints round-trip.
    let bytes = headstart::nn::checkpoint::to_bytes(&net).unwrap();
    let mut restored = headstart::nn::checkpoint::from_bytes(&bytes).unwrap();
    let x = &ds.test_images;
    assert_eq!(
        net.forward(x, false).unwrap(),
        restored.forward(x, false).unwrap()
    );
}

#[test]
fn masked_and_surgical_pruning_agree_end_to_end() {
    let ds = tiny_dataset();
    let mut rng = Rng::seed_from(7);
    let mut net = pretrain(&ds, 0.25, 2, &mut rng);
    let site = surgery::conv_sites(&net)[2];
    let channels = net.conv(site.conv).unwrap().out_channels();
    let keep: Vec<usize> = (0..channels).step_by(2).collect();
    let mask: Vec<f32> = (0..channels)
        .map(|c| if keep.contains(&c) { 1.0 } else { 0.0 })
        .collect();
    let mut masked = net.clone();
    masked.set_channel_mask(site.mask_node, Some(mask));
    let masked_acc = train::evaluate(&mut masked, &ds.test_images, &ds.test_labels, 64).unwrap();
    surgery::prune_feature_maps(&mut net, site.conv, &keep).unwrap();
    let surgical_acc = train::evaluate(&mut net, &ds.test_images, &ds.test_labels, 64).unwrap();
    assert!(
        (masked_acc - surgical_acc).abs() < 1e-6,
        "masked {masked_acc} vs surgical {surgical_acc}"
    );
}
