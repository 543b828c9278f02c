//! End-to-end tests of the `hs-runner` pipeline: full run with artifact
//! and checkpoint, checkpoint resume, and baselines routed through the
//! same pipeline as HeadStart.

use std::path::PathBuf;

use headstart::coord::Coordinator;
use headstart::runner::{prepare, run, BaselineKind, Budget, Method, RunnerConfig, RunnerError};

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
