//! Crash-safe journaled pipeline runs and the `--resume` path.
//!
//! A journaled run (`--run-dir DIR`) executes the same pipeline as
//! [`crate::pipeline::run`] but checkpoints its progress after every
//! stage: the pre-trained model lands in `DIR/pretrained.hsck`, every
//! pruned unit writes `DIR/unit-NN.hsck` plus a journal entry carrying
//! the learned inception and the complete prune-RNG state, and the
//! finished model lands in `DIR/final.hsck` with the journal marked
//! finalized. All writes are atomic, so the directory is consistent at
//! every instant.
//!
//! [`resume_run`] replays that journal: it reloads the pre-trained
//! checkpoint (re-pretraining deterministically if it went corrupt),
//! walks the unit records **backwards past any checkpoint that fails
//! its checksum** to the last verifying one, restores the RNG from that
//! unit's snapshot, and continues with the first incomplete unit. Since
//! the per-unit loop is the very loop an uninterrupted run executes and
//! the RNG snapshot is exact, a killed-and-resumed seeded run produces
//! **bit-identical** masks, weights and accuracies — the parity the
//! crash/resume test suite asserts.
//!
//! Resume granularity is per unit for the per-layer methods
//! ([`Method::HeadStartLayers`] and [`Method::Baseline`]) and per stage
//! for the block-level methods (their single RL episode loop reruns
//! from the pre-trained checkpoint, which is equally deterministic
//! because the prune RNG is freshly seeded).

use std::path::Path;
use std::time::Instant;

use hs_coord::executor_for;
use hs_nn::accounting::{analyze, NetworkCost};
use hs_nn::{checkpoint, Network};
use hs_pruning::driver::LayerTrace;
use hs_serve::ServeManifest;
use hs_telemetry::io::write_json;
use hs_telemetry::{Event, EventKind, Level, TelemetryConfig};
use hs_tensor::Rng;

use crate::config::{Method, RunnerConfig};
use crate::error::RunnerError;
use crate::faults::crash_point;
use crate::journal::{Journal, Stage, UnitRecord};
use crate::layers::{prune_layers, LayerStep};
use crate::pipeline::{prepare, CompactSummary, PipelineReport, Prepared};
use crate::report::{Phase, StageTiming};

/// File name of the pre-trained checkpoint inside a run directory
/// (used when the config does not name its own checkpoint path).
pub const PRETRAINED_CHECKPOINT: &str = "pretrained.hsck";

/// File name of the finished model inside a run directory.
pub const FINAL_CHECKPOINT: &str = "final.hsck";

/// File name of the structurally compacted model inside a run
/// directory (written by the `--compact` stage).
pub const COMPACT_CHECKPOINT: &str = "compact.hsck";

/// Resumes an interrupted journaled run from its run directory: the
/// journal supplies the full configuration, so no other flags are
/// needed. Completed work is loaded from checkpoints, not redone;
/// corrupt checkpoints are detected by their checksums and rewound
/// past.
///
/// # Errors
///
/// [`RunnerError::Journal`] when `dir` holds no usable journal, plus
/// every pipeline error.
pub fn resume_run(dir: &Path) -> Result<PipelineReport, RunnerError> {
    let journal = Journal::load(dir)?;
    let cfg = journal.to_config(dir);
    if cfg.telemetry.is_some() || cfg.log_level.is_some() {
        hs_telemetry::configure(&TelemetryConfig {
            stderr_level: cfg.log_level,
            jsonl: cfg.telemetry.clone(),
        })?;
    }
    run_journaled(&cfg, dir, Some(journal))
}

/// Runs a journaled pipeline in `dir`. With `resume: None` this is a
/// fresh run (any previous journal in the directory is replaced);
/// with a loaded journal it continues from the first incomplete unit.
///
/// # Errors
///
/// Propagates every stage's errors, including
/// [`RunnerError::InjectedCrash`] under fault injection.
pub(crate) fn run_journaled(
    cfg: &RunnerConfig,
    dir: &Path,
    resume: Option<Journal>,
) -> Result<PipelineReport, RunnerError> {
    std::fs::create_dir_all(dir)?;
    let mut cfg = cfg.clone();
    if cfg.checkpoint.is_none() {
        cfg.checkpoint = Some(dir.join(PRETRAINED_CHECKPOINT));
    }
    let pipeline_span = hs_telemetry::span!(
        "pipeline",
        "label" => cfg.label.clone(),
        "method" => cfg.method.label(),
    );
    let resuming = resume.is_some();
    let prepared = prepare(&cfg)?;
    crash_point("pretrain")?;

    let mut journal = match resume {
        Some(mut journal) => {
            // prepare() is deterministic, so a differing original
            // accuracy means the pre-trained checkpoint was replaced
            // (e.g. re-pretrained after corruption) — note it and trust
            // the freshly computed value.
            if journal.original_accuracy.to_bits() != prepared.original_accuracy.to_bits() {
                hs_telemetry::log(
                    Level::Warn,
                    "runner",
                    "pre-trained model changed since the journal was written".to_string(),
                );
                journal.original_accuracy = prepared.original_accuracy;
            }
            hs_telemetry::emit(
                Event::new(EventKind::Resume, Level::Info, "runner")
                    .message(format!("resuming from {}", Journal::path(dir).display()))
                    .field("journal", Journal::path(dir).display().to_string())
                    .field("units_done", journal.units.len() as u64)
                    .field("stage", journal.stage.as_str()),
            );
            journal
        }
        None => Journal::new(cfg.clone(), prepared.original_accuracy),
    };
    journal.save(dir)?;

    let mut report = match &cfg.method {
        Method::HeadStartLayers { .. } | Method::Baseline { .. } => {
            run_units(&cfg, dir, &prepared, &mut journal)?
        }
        Method::HeadStartBlocks { .. } | Method::HeadStartInner { .. } => {
            run_stagewise(&cfg, dir, &prepared, &mut journal, resuming)?
        }
    };

    if cfg.compact {
        report.compact = Some(compact_stage(&cfg, dir, &prepared, &mut report.stages)?);
    }

    // The run is finalized: pair the dense and pruned checkpoints in a
    // serve manifest so `hs_serve` can load both slots without flags.
    let manifest = serve_manifest(&cfg, dir, &prepared, &report);
    manifest.save(dir)?;
    hs_telemetry::artifact(&cfg.label, &ServeManifest::path(dir));

    if let Some(path) = &cfg.artifact {
        write_json(path, &report.to_json())?;
        hs_telemetry::artifact(&cfg.label, path);
    }
    pipeline_span.close();
    if let Some(path) = &cfg.metrics {
        hs_telemetry::io::atomic_write_as(
            path,
            "metrics",
            hs_telemetry::metrics::render_prometheus().as_bytes(),
        )?;
        hs_telemetry::artifact(&cfg.label, path);
    }
    hs_telemetry::flush_metrics();
    Ok(report)
}

/// The `--compact` stage: loads the finalized model, physically
/// realizes every remaining logical pruning decision
/// ([`hs_nn::compact::compact`]), and writes the result to
/// `compact.hsck` (fault site `compact_write`). The write is verified
/// by re-loading; a checkpoint that fails its checksums is rewritten
/// once (with a `recovery` event) before the failure is fatal, which is
/// exactly enough to absorb a one-shot injected corruption.
fn compact_stage(
    cfg: &RunnerConfig,
    dir: &Path,
    prepared: &Prepared,
    stages: &mut Vec<StageTiming>,
) -> Result<CompactSummary, RunnerError> {
    let phase = Phase::start("compact");
    let final_net = checkpoint::load(dir.join(FINAL_CHECKPOINT))?;
    let compacted =
        hs_nn::compact::compact(&final_net, prepared.ds.channels(), prepared.ds.image_size())?;
    let path = dir.join(COMPACT_CHECKPOINT);
    let bytes = checkpoint::to_bytes(&compacted.net)?;
    hs_telemetry::io::atomic_write_as(&path, "compact_write", &bytes)?;
    if let Err(e) = checkpoint::load(&path) {
        if !matches!(
            e.kind(),
            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
        ) {
            return Err(RunnerError::Io(e));
        }
        hs_telemetry::emit(
            Event::new(EventKind::Recovery, Level::Warn, "runner")
                .message(format!(
                    "compact checkpoint {} failed verification ({e}); rewriting",
                    path.display()
                ))
                .field("reason", "corrupt_checkpoint")
                .field("action", "rewrite_compact"),
        );
        hs_telemetry::io::atomic_write_as(&path, "compact_write", &bytes)?;
        checkpoint::load(&path)?;
    }
    hs_telemetry::artifact(&cfg.label, &path);
    phase.record(stages);
    let flops = compacted.report.flops_after;
    Ok(CompactSummary {
        checkpoint: COMPACT_CHECKPOINT.to_string(),
        params: compacted.report.params_after,
        flops,
        target_speedup: f64::from(cfg.method.sp()),
        achieved_speedup: prepared.original_cost.total_flops as f64 / flops.max(1) as f64,
        units: compacted.report.changes.len(),
    })
}

/// Builds the serve manifest for a finalized journaled run: the dense
/// slot is the pre-trained checkpoint (stored relative when it lives in
/// the run directory), the pruned slot is `final.hsck`.
fn serve_manifest(
    cfg: &RunnerConfig,
    dir: &Path,
    prepared: &Prepared,
    report: &PipelineReport,
) -> ServeManifest {
    let dense = match &cfg.checkpoint {
        Some(p) if p.parent() == Some(dir) => p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.display().to_string()),
        Some(p) => p.display().to_string(),
        None => PRETRAINED_CHECKPOINT.to_string(),
    };
    ServeManifest {
        label: cfg.label.clone(),
        data: cfg.data,
        model: cfg.model.kind,
        width: cfg.model.width,
        sp: cfg.method.sp(),
        dense,
        pruned: FINAL_CHECKPOINT.to_string(),
        dense_accuracy: prepared.original_accuracy,
        pruned_accuracy: report.final_accuracy,
        dense_params: prepared.original_cost.total_params,
        pruned_params: report.final_cost.total_params,
        dense_flops: prepared.original_cost.total_flops,
        pruned_flops: report.final_cost.total_flops,
        pruned_compact: report.compact.as_ref().map(|c| c.checkpoint.clone()),
    }
}

/// The journaled run of a per-layer method: the same unit loop as a
/// plain run, where each finished unit checkpoints the model and
/// journals the unit before crossing the `prune_unit` crash point.
fn run_units(
    cfg: &RunnerConfig,
    dir: &Path,
    prepared: &Prepared,
    journal: &mut Journal,
) -> Result<PipelineReport, RunnerError> {
    let label = cfg.method.label();
    let phase = Phase::start(&format!("prune: {label}"));
    let start_time = Instant::now();

    let (mut net, mut rng, start) = restore_prune_state(dir, prepared, journal, cfg.prune_seed)?;

    // The evaluation worker fleet lives for the whole prune stage; it is
    // dropped (emitting `worker_done` telemetry and the utilization
    // gauge) when this function returns, before the metrics flush.
    let mut executor = executor_for(cfg.workers, cfg.prune_seed);
    let mut step = LayerStep::new(&cfg.method, prepared, cfg.prune_seed)?;
    let final_accuracy = prune_layers(
        prepared,
        &mut step,
        &mut net,
        start,
        &mut rng,
        executor.as_mut(),
        |net, rng, t, keep| {
            let name = format!("unit-{:02}.hsck", t.conv_ordinal);
            checkpoint::save(net, dir.join(&name))?;
            journal.units.push(UnitRecord {
                ordinal: t.conv_ordinal,
                conv_node: t.conv_node,
                maps_before: t.maps_before,
                keep,
                inception_accuracy: t.inception_accuracy,
                finetuned_accuracy: t.finetuned_accuracy,
                params_after: t.params_after,
                flops_after: t.flops_after,
                checkpoint: name,
                rng_after: rng.snapshot(),
            });
            journal.save(dir)?;
            crash_point("prune_unit")
        },
    )?;
    let final_cost = analyze(&net, prepared.ds.channels(), prepared.ds.image_size())?;
    checkpoint::save(&net, dir.join(FINAL_CHECKPOINT))?;
    journal.stage = Stage::Finalized;
    journal.final_accuracy = Some(final_accuracy);
    journal.save(dir)?;
    crash_point("finalize")?;

    phase.end();
    let mut stages = prepared.stages.clone();
    stages.push(StageTiming {
        name: format!("prune:{label}"),
        seconds: start_time.elapsed().as_secs_f64(),
    });
    Ok(report_from_journal(
        cfg,
        prepared,
        journal,
        final_cost,
        final_accuracy,
        stages,
    ))
}

/// Restores the pruning state for a (possibly resumed) per-unit run:
/// walks the journal's unit records from the newest backwards until a
/// checkpoint verifies, truncating records whose checkpoints are
/// corrupt or missing (each rewind emits a `recovery` event). Falls
/// back to the pre-trained model and a freshly seeded prune RNG when no
/// unit survives.
fn restore_prune_state(
    dir: &Path,
    prepared: &Prepared,
    journal: &mut Journal,
    prune_seed: u64,
) -> Result<(Network, Rng, usize), RunnerError> {
    let mut rewound = false;
    while let Some(last) = journal.units.last() {
        let path = dir.join(&last.checkpoint);
        match checkpoint::load(&path) {
            Ok(net) => {
                let rng = Rng::from_snapshot(last.rng_after);
                let start = last.ordinal + 1;
                if rewound {
                    journal.save(dir)?;
                }
                return Ok((net, rng, start));
            }
            Err(e) => {
                hs_telemetry::emit(
                    Event::new(EventKind::Recovery, Level::Warn, "runner")
                        .message(format!(
                            "unit {} checkpoint failed verification ({e}); rewinding",
                            last.ordinal
                        ))
                        .field("reason", "corrupt_checkpoint")
                        .field("action", "rewind_unit")
                        .field("ordinal", last.ordinal as u64),
                );
                journal.units.pop();
                rewound = true;
            }
        }
    }
    if rewound {
        journal.save(dir)?;
    }
    Ok((prepared.net.clone(), Rng::seed_from(prune_seed), 0))
}

/// Stage-granular journaling for the block-level methods: the whole
/// prune stage either completed (journal finalized, final checkpoint on
/// disk) or reruns deterministically from the pre-trained model.
fn run_stagewise(
    cfg: &RunnerConfig,
    dir: &Path,
    prepared: &Prepared,
    journal: &mut Journal,
    resuming: bool,
) -> Result<PipelineReport, RunnerError> {
    if resuming && journal.stage == Stage::Finalized {
        if let Ok(net) = checkpoint::load(dir.join(FINAL_CHECKPOINT)) {
            let final_cost = analyze(&net, prepared.ds.channels(), prepared.ds.image_size())?;
            let final_accuracy = journal.final_accuracy.ok_or_else(|| {
                RunnerError::Journal("finalized journal without a final accuracy".to_string())
            })?;
            return Ok(report_from_journal(
                cfg,
                prepared,
                journal,
                final_cost,
                final_accuracy,
                prepared.stages.clone(),
            ));
        }
        // The final checkpoint went corrupt: redo the stage (the prune
        // RNG is freshly seeded, so the rerun is bit-identical).
        hs_telemetry::emit(
            Event::new(EventKind::Recovery, Level::Warn, "runner")
                .message("final checkpoint failed verification; redoing prune stage".to_string())
                .field("reason", "corrupt_checkpoint")
                .field("action", "redo_stage"),
        );
    }
    let mut executor = executor_for(cfg.workers, cfg.prune_seed);
    let method_run = prepared.run_method_with(&cfg.method, cfg.prune_seed, executor.as_mut())?;
    drop(executor);
    checkpoint::save(&method_run.net, dir.join(FINAL_CHECKPOINT))?;
    journal.stage = Stage::Finalized;
    journal.final_accuracy = Some(method_run.final_accuracy);
    journal.save(dir)?;
    crash_point("finalize")?;
    let mut stages = prepared.stages.clone();
    stages.push(StageTiming {
        name: format!("prune:{}", method_run.label),
        seconds: method_run.seconds,
    });
    Ok(PipelineReport {
        label: cfg.label.clone(),
        original_accuracy: prepared.original_accuracy,
        final_accuracy: method_run.final_accuracy,
        original_cost: prepared.original_cost.clone(),
        final_cost: method_run.cost,
        traces: method_run.traces,
        stages,
        compact: None,
        workers: cfg.workers,
    })
}

fn report_from_journal(
    cfg: &RunnerConfig,
    prepared: &Prepared,
    journal: &Journal,
    final_cost: NetworkCost,
    final_accuracy: f32,
    stages: Vec<StageTiming>,
) -> PipelineReport {
    let traces = journal
        .units
        .iter()
        .map(|u| LayerTrace {
            conv_node: u.conv_node,
            conv_ordinal: u.ordinal,
            maps_before: u.maps_before,
            maps_after: u.keep.len(),
            params_after: u.params_after,
            flops_after: u.flops_after,
            inception_accuracy: u.inception_accuracy,
            finetuned_accuracy: u.finetuned_accuracy,
        })
        .collect();
    PipelineReport {
        label: cfg.label.clone(),
        original_accuracy: journal.original_accuracy,
        final_accuracy,
        original_cost: prepared.original_cost.clone(),
        final_cost,
        traces,
        stages,
        compact: None,
        workers: cfg.workers,
    }
}
