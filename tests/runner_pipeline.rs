//! End-to-end tests of the `hs-runner` pipeline: full run with artifact
//! and checkpoint, checkpoint resume, and baselines routed through the
//! same pipeline as HeadStart.

use std::path::PathBuf;
use std::sync::Arc;

use headstart::coord::Coordinator;
use headstart::data::{Dataset, DatasetSpec};
use headstart::nn::accounting::analyze;
use headstart::nn::models;
use headstart::runner::{
    prepare, run, BaselineKind, Budget, Method, Prepared, RunnerConfig, RunnerError,
};
use headstart::tensor::Rng;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

fn smoke_config(label: &str) -> RunnerConfig {
    let mut cfg = RunnerConfig::new(label);
    cfg.budget = Budget::smoke();
    cfg
}

/// An untrained eighth-width VGG-11 on a tiny dataset, with one
/// fine-tuning epoch per layer: enough to drive the per-layer loop.
fn tiny_vgg11() -> Prepared {
    let ds = Dataset::generate(
        &DatasetSpec::cifar_like()
            .classes(4)
            .train_per_class(8)
            .test_per_class(4)
            .image_size(8),
    )
    .expect("valid spec");
    let net = models::vgg11(3, 4, 8, 0.125, &mut Rng::seed_from(0)).expect("model");
    let original_cost = analyze(&net, 3, 8).expect("cost");
    Prepared {
        ds: Arc::new(ds),
        net,
        original_accuracy: 0.0,
        original_cost,
        budget: Budget {
            finetune_epochs: 1,
            ..Budget::smoke()
        },
        stages: Vec::new(),
    }
}

#[test]
fn pipeline_runs_end_to_end_and_writes_artifact() {
    let mut cfg = smoke_config("pipe-e2e");
    cfg.method = Method::HeadStartLayers { sp: 2.0 };
    let artifact = tmp("pipe_e2e.json");
    cfg.artifact = Some(artifact.clone());
    let report = run(&cfg).expect("pipeline");

    assert!(report.final_cost.total_params < report.original_cost.total_params);
    assert!(!report.traces.is_empty(), "per-layer trace recorded");
    assert!(
        report.stages.iter().any(|s| s.name.contains("pretrain")),
        "pretrain stage timed: {:?}",
        report.stages
    );
    assert!(
        report.stages.iter().any(|s| s.name.starts_with("prune:")),
        "prune stage timed: {:?}",
        report.stages
    );

    let json = std::fs::read_to_string(&artifact).expect("artifact written");
    for key in [
        "\"label\"",
        "\"original_accuracy\"",
        "\"final_accuracy\"",
        "\"compression_pct\"",
        "\"layers\"",
        "\"stages\"",
    ] {
        assert!(json.contains(key), "artifact missing {key}:\n{json}");
    }
}

#[test]
fn checkpoint_restores_the_same_model() {
    let ckpt = tmp("pipe_resume.hsck");
    let _ = std::fs::remove_file(&ckpt);
    let mut cfg = smoke_config("pipe-resume");
    cfg.checkpoint = Some(ckpt.clone());

    // First prepare pre-trains and saves; second loads the checkpoint.
    let first = prepare(&cfg).expect("first prepare");
    assert!(ckpt.exists(), "checkpoint saved after pre-training");
    let second = prepare(&cfg).expect("second prepare");

    assert_eq!(
        first.original_accuracy, second.original_accuracy,
        "restored model evaluates identically"
    );
    assert!(
        second
            .stages
            .iter()
            .any(|s| s.name.contains("checkpoint load")),
        "resume goes through the checkpoint stage: {:?}",
        second.stages
    );
    assert!(
        !second.stages.iter().any(|s| s.name.contains("pretrain")),
        "resume skips pre-training"
    );
}

#[test]
fn trained_loaded_and_pruned_nets_carry_no_gradients() {
    let ckpt = tmp("pipe_no_grads.hsck");
    let _ = std::fs::remove_file(&ckpt);
    let mut cfg = smoke_config("pipe-no-grads");
    cfg.checkpoint = Some(ckpt);
    let mut trained = prepare(&cfg).expect("pretrain");
    assert_eq!(trained.net.grad_len(), 0, "pretrained net holds gradients");
    let mut loaded = prepare(&cfg).expect("checkpoint load");
    assert_eq!(loaded.net.grad_len(), 0, "loaded net holds gradients");
    // Two coordinator workers, so their scratch clones are built too.
    let mut run = loaded
        .run_method_with(
            &Method::HeadStartLayers { sp: 2.0 },
            5,
            &mut Coordinator::new(2),
        )
        .expect("headstart method");
    assert_eq!(
        run.net.grad_len(),
        0,
        "pruned, fine-tuned net holds gradients"
    );
}

#[test]
fn baselines_run_through_the_same_pipeline() {
    let prepared = prepare(&smoke_config("pipe-baseline")).expect("prepare");
    let run = prepared
        .run_method(
            &Method::Baseline {
                kind: BaselineKind::L1,
                keep_ratio: 0.5,
            },
            9,
        )
        .expect("baseline method");
    assert_eq!(run.label, "Li'17");
    assert!(run.cost.total_params < prepared.original_cost.total_params);
    assert!(!run.traces.is_empty());
}

#[test]
fn bad_cli_config_fails_fast() {
    let argv: Vec<String> = ["--method", "nope"].iter().map(|s| s.to_string()).collect();
    match RunnerConfig::from_args(&argv) {
        Err(RunnerError::BadConfig(detail)) => assert!(detail.contains("nope")),
        other => panic!("expected BadConfig, got {other:?}"),
    }
}

#[test]
fn l1_keeps_half_of_every_vgg11_conv_and_params_never_rise() {
    let prepared = tiny_vgg11();
    let run = prepared
        .run_method(
            &Method::Baseline {
                kind: BaselineKind::L1,
                keep_ratio: 0.5,
            },
            0,
        )
        .expect("l1 run");
    assert_eq!(run.traces.len(), 8, "VGG-11 has 8 convs");
    for t in &run.traces {
        assert_eq!(
            t.maps_after,
            t.maps_before.div_ceil(2),
            "conv {}",
            t.conv_ordinal
        );
    }
    assert!(run.cost.total_params < prepared.original_cost.total_params);
    assert!(run.cost.total_flops < prepared.original_cost.total_flops);
    for pair in run.traces.windows(2) {
        assert!(pair[1].params_after <= pair[0].params_after);
    }
}

#[test]
fn bad_keep_ratios_and_conv_ordinals_are_typed_errors() {
    let prepared = tiny_vgg11();
    for keep_ratio in [0.0, 1.5] {
        let method = Method::Baseline {
            kind: BaselineKind::L1,
            keep_ratio,
        };
        match prepared.run_method(&method, 3) {
            Err(RunnerError::BadConfig(detail)) => assert!(detail.contains("keep ratio")),
            other => panic!("keep ratio {keep_ratio}: expected BadConfig, got {other:?}"),
        }
    }
    match prepared.single_layer_baseline(BaselineKind::Random, 99, 2.0, false, 1) {
        Err(RunnerError::BadConfig(detail)) => assert!(detail.contains("99")),
        other => panic!("expected BadConfig, got {other:?}"),
    }
    let single = prepared
        .single_layer_baseline(BaselineKind::Random, 0, 2.0, false, 1)
        .expect("in-range ordinal");
    assert_eq!(single.kept, 4, "half of conv 0's 8 maps");
    assert!((0.0..=1.0).contains(&single.accuracy));
}
