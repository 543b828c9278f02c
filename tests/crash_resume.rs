//! Crash/resume parity tests: a journaled run that is killed (by an
//! injected fault) and resumed must produce results **bit-identical** to
//! the same seeded run left uninterrupted — same inception masks, same
//! accuracies, same final model bytes. Also covers checkpoint-corruption
//! recovery (rewind / re-pretrain) and transient-I/O retry.
//!
//! The fault registry is process-global, so every test here serializes
//! on one mutex — an armed `kill_after` from one test must never fire
//! inside another's pipeline.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use headstart::runner::{
    prepare, resume_run, run, BaselineKind, Budget, Method, ModelChoice, ModelKind, PipelineReport,
    RunnerConfig, RunnerError, FINAL_CHECKPOINT,
};
use headstart::telemetry::faults::{arm, disarm, FaultPlan};

/// Serializes the whole file: pipelines cross fault-injection sites, and
/// the registry is process-global.
static FAULTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(|p| p.into_inner())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

/// A fast two-conv configuration (LeNet, smoke budget) so each test's
/// multiple pipeline runs stay cheap.
fn lenet_config(label: &str) -> RunnerConfig {
    let mut cfg = RunnerConfig::new(label);
    cfg.model = ModelChoice::new(ModelKind::LeNet, 1.0);
    cfg.budget = Budget::smoke();
    cfg
}

fn flip_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(path, bytes).expect("write corrupted checkpoint");
}

/// Bit-exact report parity: accuracies compared as bits, traces as
/// values (every field of every unit).
fn assert_parity(reference: &PipelineReport, resumed: &PipelineReport) {
    assert_eq!(
        reference.original_accuracy.to_bits(),
        resumed.original_accuracy.to_bits(),
        "original accuracy diverged"
    );
    assert_eq!(
        reference.final_accuracy.to_bits(),
        resumed.final_accuracy.to_bits(),
        "final accuracy diverged"
    );
    assert_eq!(reference.traces, resumed.traces, "per-unit traces diverged");
    assert_eq!(
        reference.final_cost.total_params,
        resumed.final_cost.total_params
    );
    assert_eq!(
        reference.final_cost.total_flops,
        resumed.final_cost.total_flops
    );
}

/// Runs `method` plain and journaled from the same seeds, with one
/// fine-tuning epoch per layer, and asserts the two reports agree bit
/// for bit.
fn assert_journaled_matches_plain(method: Method) {
    let name = method.cli_name();
    let mut cfg = lenet_config(&format!("cr-plain-{name}"));
    cfg.method = method;
    cfg.budget.finetune_epochs = 1;
    let plain = run(&cfg).unwrap_or_else(|e| panic!("{name}: plain run: {e}"));

    let dir = tmp_dir(&format!("cr-journaled-{name}"));
    cfg.run_dir = Some(dir.clone());
    let journaled = run(&cfg).unwrap_or_else(|e| panic!("{name}: journaled run: {e}"));

    assert_parity(&plain, &journaled);
    assert!(
        dir.join(FINAL_CHECKPOINT).exists(),
        "{name}: final checkpoint"
    );
    assert!(dir.join("run.journal.json").exists(), "{name}: journal");
    assert!(dir.join("unit-00.hsck").exists(), "{name}: unit checkpoint");
}

#[test]
fn journaled_run_matches_plain_run() {
    let _guard = lock();
    disarm();
    assert_journaled_matches_plain(Method::HeadStartLayers { sp: 2.0 });
    for kind in [
        BaselineKind::Random,
        BaselineKind::L1,
        BaselineKind::Apoz,
        BaselineKind::ThiNet,
        BaselineKind::AutoPruner { iterations: 3 },
    ] {
        assert_journaled_matches_plain(Method::Baseline {
            kind,
            keep_ratio: 0.5,
        });
    }
}

#[test]
fn killed_run_resumes_bit_identically() {
    let _guard = lock();
    disarm();
    let ref_dir = tmp_dir("cr-kill-ref");
    let mut ref_cfg = lenet_config("cr-kill");
    ref_cfg.run_dir = Some(ref_dir.clone());
    let reference = run(&ref_cfg).expect("reference run");

    // Same seeded run, killed right after the first pruned unit.
    let dir = tmp_dir("cr-kill");
    let mut cfg = lenet_config("cr-kill");
    cfg.run_dir = Some(dir.clone());
    arm(FaultPlan::parse("kill_after:prune_unit:1").unwrap());
    match run(&cfg) {
        Err(RunnerError::InjectedCrash { site }) => assert_eq!(site, "prune_unit"),
        other => panic!("expected injected crash, got {other:?}"),
    }
    disarm();
    assert!(
        dir.join("unit-00.hsck").exists() && !dir.join(FINAL_CHECKPOINT).exists(),
        "crash left exactly the first unit behind"
    );

    let resumed = resume_run(&dir).expect("resume");
    assert_parity(&reference, &resumed);
    assert_eq!(
        std::fs::read(ref_dir.join(FINAL_CHECKPOINT)).unwrap(),
        std::fs::read(dir.join(FINAL_CHECKPOINT)).unwrap(),
        "final model bytes diverged"
    );
}

#[test]
fn corrupt_unit_checkpoint_rewinds_and_redoes_the_unit() {
    let _guard = lock();
    disarm();
    let ref_dir = tmp_dir("cr-rewind-ref");
    let mut ref_cfg = lenet_config("cr-rewind");
    ref_cfg.run_dir = Some(ref_dir.clone());
    let reference = run(&ref_cfg).expect("reference run");

    // Kill after the second unit, then corrupt that unit's checkpoint:
    // resume must rewind to unit 0 and redo unit 1 identically.
    let dir = tmp_dir("cr-rewind");
    let mut cfg = lenet_config("cr-rewind");
    cfg.run_dir = Some(dir.clone());
    cfg.telemetry = Some(dir.join("resume.jsonl"));
    arm(FaultPlan::parse("kill_after:prune_unit:2").unwrap());
    assert!(matches!(run(&cfg), Err(RunnerError::InjectedCrash { .. })));
    disarm();
    flip_byte(&dir.join("unit-01.hsck"));

    let resumed = resume_run(&dir).expect("resume past corrupt checkpoint");
    assert_parity(&reference, &resumed);
    assert_eq!(
        std::fs::read(ref_dir.join(FINAL_CHECKPOINT)).unwrap(),
        std::fs::read(dir.join(FINAL_CHECKPOINT)).unwrap(),
        "final model bytes diverged after rewind"
    );
    let stream = std::fs::read_to_string(dir.join("resume.jsonl")).expect("telemetry");
    assert!(
        stream.contains("\"recovery\"") && stream.contains("rewind_unit"),
        "recovery event recorded:\n{stream}"
    );
    assert!(stream.contains("\"resume\""), "resume event recorded");
}

#[test]
fn corrupt_pretrained_checkpoint_triggers_re_pretraining() {
    let _guard = lock();
    disarm();
    let dir = tmp_dir("cr-pretrained");
    let mut cfg = lenet_config("cr-pretrained");
    cfg.checkpoint = Some(dir.join("pretrained.hsck"));

    let first = prepare(&cfg).expect("first prepare");
    flip_byte(&dir.join("pretrained.hsck"));
    let second = prepare(&cfg).expect("prepare past corrupt checkpoint");

    // Re-pretraining is seeded, so the recovered model is bit-identical.
    assert_eq!(
        first.original_accuracy.to_bits(),
        second.original_accuracy.to_bits()
    );
    assert!(
        second.stages.iter().any(|s| s.name.contains("pretrain")),
        "recovery went through pre-training: {:?}",
        second.stages
    );
}

#[test]
fn baseline_runs_resume_bit_identically() {
    let _guard = lock();
    disarm();
    let method = Method::Baseline {
        kind: BaselineKind::L1,
        keep_ratio: 0.5,
    };
    let ref_dir = tmp_dir("cr-l1-ref");
    let mut ref_cfg = lenet_config("cr-l1");
    ref_cfg.method = method.clone();
    ref_cfg.run_dir = Some(ref_dir.clone());
    let reference = run(&ref_cfg).expect("reference baseline run");

    let dir = tmp_dir("cr-l1");
    let mut cfg = lenet_config("cr-l1");
    cfg.method = method;
    cfg.run_dir = Some(dir.clone());
    arm(FaultPlan::parse("kill_after:prune_unit:1").unwrap());
    assert!(matches!(run(&cfg), Err(RunnerError::InjectedCrash { .. })));
    disarm();

    let resumed = resume_run(&dir).expect("resume baseline");
    assert_parity(&reference, &resumed);
    assert_eq!(
        std::fs::read(ref_dir.join(FINAL_CHECKPOINT)).unwrap(),
        std::fs::read(dir.join(FINAL_CHECKPOINT)).unwrap()
    );
}

#[test]
fn transient_io_faults_are_retried_to_completion() {
    let _guard = lock();
    disarm();
    let plain = run(&lenet_config("cr-flaky")).expect("plain run");

    let dir = tmp_dir("cr-flaky");
    let mut cfg = lenet_config("cr-flaky");
    cfg.run_dir = Some(dir.clone());
    arm(FaultPlan::parse("io_flaky:checkpoint:1,io_flaky:journal:1").unwrap());
    let flaky = run(&cfg).expect("transient faults are retried");
    disarm();
    assert_parity(&plain, &flaky);
    assert!(dir.join(FINAL_CHECKPOINT).exists());
}

#[test]
fn resume_without_a_journal_fails_with_context() {
    let _guard = lock();
    disarm();
    let dir = tmp_dir("cr-nojournal");
    match resume_run(&dir) {
        Err(RunnerError::Journal(detail)) => {
            assert!(
                detail.contains("run.journal.json"),
                "names the file: {detail}"
            )
        }
        other => panic!("expected journal error, got {other:?}"),
    }
}
