//! The end-to-end pipeline: dataset → pre-train (or checkpoint load) →
//! prune schedule → fine-tune → eval → JSON artifact, with per-stage
//! wall-clock timings. Every experiment binary is a thin arrangement of
//! these stages; [`run`] is the whole thing behind one [`RunnerConfig`].

use std::sync::Arc;
use std::time::Instant;

use hs_core::{
    prune_all_block_inners_executed, BlockDecision, BlockPruner, EvalExecutor, HeadStartConfig,
    LayerPruner, SerialExecutor, TelemetryObserver,
};
use hs_data::{cached, Dataset};
use hs_nn::accounting::{analyze, NetworkCost};
use hs_nn::optim::Sgd;
use hs_nn::surgery::prune_feature_maps;
use hs_nn::{checkpoint, train, Network, NnError};
use hs_pruning::driver::{train_from_scratch, FineTune, LayerTrace};
use hs_telemetry::io::write_json;
use hs_telemetry::schema::Json;
use hs_telemetry::{Event, EventKind, Level, TelemetryConfig};
use hs_tensor::Rng;

use crate::budget::Budget;
use crate::config::{BaselineKind, Method, RunnerConfig};
use crate::error::RunnerError;
use crate::layers::{prune_layers, LayerStep};
use crate::report::{Phase, StageTiming};

/// Trains a fresh SGD schedule on `net` (momentum 0.9, weight decay
/// 5e-4, the paper's settings) and reports progress.
///
/// # Errors
///
/// Propagates training errors.
pub fn pretrain(
    net: &mut Network,
    ds: &Dataset,
    epochs: usize,
    rng: &mut Rng,
) -> Result<f32, NnError> {
    let mut opt = Sgd::new(0.05).momentum(0.9).weight_decay(5e-4);
    let start = Instant::now();
    for epoch in 0..epochs {
        let stats = train::train_epoch(net, &mut opt, &ds.train_images, &ds.train_labels, 32, rng)?;
        if (epoch % 4 == 0 || epoch + 1 == epochs) && hs_telemetry::enabled(Level::Info) {
            // Elapsed time rides in `secs` (stripped by determinism
            // tests), never in the message or fields.
            let mut progress = Event::new(EventKind::Log, Level::Info, "pretrain")
                .message(format!(
                    "epoch {epoch:3}: loss {:.3} train-acc {:.3}",
                    stats.loss, stats.accuracy
                ))
                .field("epoch", epoch)
                .field("loss", stats.loss)
                .field("train_accuracy", stats.accuracy);
            progress.secs = Some(start.elapsed().as_secs_f64());
            hs_telemetry::emit(progress);
        }
    }
    train::evaluate(net, &ds.test_images, &ds.test_labels, 64)
}

/// A pre-trained model plus everything needed to prune it: the shared
/// starting point of every experiment. Produced by [`prepare`].
#[derive(Debug)]
pub struct Prepared {
    /// The dataset (shared through the process-wide cache).
    pub ds: Arc<Dataset>,
    /// The pre-trained (or checkpoint-restored) model.
    pub net: Network,
    /// Test accuracy of the original model.
    pub original_accuracy: f32,
    /// Cost breakdown of the original model.
    pub original_cost: NetworkCost,
    /// The budget the run was prepared under.
    pub budget: Budget,
    /// Stage timings accumulated so far (dataset, pretrain/checkpoint).
    pub stages: Vec<StageTiming>,
}

/// Builds the dataset and pre-trained model for a config. If
/// `cfg.checkpoint` points at an existing file it is loaded instead of
/// pre-training; otherwise the model is pre-trained and, when a
/// checkpoint path is configured, saved there for later resume.
///
/// # Errors
///
/// Propagates dataset, training and I/O errors.
pub fn prepare(cfg: &RunnerConfig) -> Result<Prepared, RunnerError> {
    let mut stages = Vec::new();
    let phase = Phase::start(&format!("[{}] dataset {}", cfg.label, cfg.data.name()));
    let ds = cached(&cfg.data.spec())?;
    phase.record(&mut stages);

    let mut rng = Rng::seed_from(cfg.seed);
    let mut net = cfg.model.build(&ds, &mut rng)?;
    let restored = match &cfg.checkpoint {
        Some(path) if path.exists() => {
            let phase = Phase::start(&format!(
                "[{}] checkpoint load {}",
                cfg.label,
                path.display()
            ));
            match checkpoint::load(path) {
                Ok(mut loaded) => {
                    if layout(&mut loaded) != layout(&mut net) {
                        phase.end();
                        return Err(RunnerError::BadConfig(format!(
                            "checkpoint {} does not hold a {} at width {}",
                            path.display(),
                            cfg.model.name(),
                            cfg.model.width
                        )));
                    }
                    net = loaded;
                    phase.record(&mut stages);
                    true
                }
                // A checkpoint that fails its checksums is a stale
                // cache, not a fatal condition: note it and re-pretrain
                // (same seed → bit-identical model).
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    phase.end();
                    hs_telemetry::emit(
                        Event::new(EventKind::Recovery, Level::Warn, "runner")
                            .message(format!(
                                "checkpoint {} failed verification ({e}); re-pretraining",
                                path.display()
                            ))
                            .field("reason", "corrupt_checkpoint")
                            .field("action", "re_pretrain"),
                    );
                    false
                }
                Err(e) => {
                    phase.end();
                    return Err(RunnerError::Io(e));
                }
            }
        }
        _ => false,
    };
    if !restored {
        let phase = Phase::start(&format!(
            "[{}] pretrain {} ({} epochs)",
            cfg.label,
            cfg.model.name(),
            cfg.budget.pretrain_epochs
        ));
        pretrain(&mut net, &ds, cfg.budget.pretrain_epochs, &mut rng)?;
        phase.record(&mut stages);
        if let Some(path) = &cfg.checkpoint {
            checkpoint::save(&net, path)?;
            hs_telemetry::artifact(&cfg.label, path);
        }
    }
    let original_accuracy = train::evaluate(&mut net, &ds.test_images, &ds.test_labels, 64)?;
    let original_cost = analyze(&net, ds.channels(), ds.image_size())?;
    Ok(Prepared {
        ds,
        net,
        original_accuracy,
        original_cost,
        budget: cfg.budget,
        stages,
    })
}

/// Node kinds and parameter shapes: what a `--checkpoint` must share
/// with the net `--model` builds.
fn layout(net: &mut Network) -> (Vec<&'static str>, Vec<Vec<usize>>) {
    let kinds = net.iter().map(|node| node.kind()).collect();
    let mut shapes = Vec::new();
    net.visit_params(&mut |p| shapes.push(p.value.shape().dims().to_vec()));
    (kinds, shapes)
}

/// Outcome of running one pruning method on a [`Prepared`] model.
#[derive(Debug)]
pub struct MethodRun {
    /// Method label.
    pub label: String,
    /// The pruned (and fine-tuned) model.
    pub net: Network,
    /// Final test accuracy.
    pub final_accuracy: f32,
    /// Final cost breakdown.
    pub cost: NetworkCost,
    /// Per-layer trace (empty for block/inner/scratch methods).
    pub traces: Vec<LayerTrace>,
    /// Block decision, for [`Method::HeadStartBlocks`] runs.
    pub block_decision: Option<BlockDecision>,
    /// Wall-clock seconds the method took.
    pub seconds: f64,
}

/// Outcome of a single-layer prune (the Figure 3 / ablation
/// measurement): no fine-tuning, inception accuracy only.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleLayerRun {
    /// Feature maps kept.
    pub kept: usize,
    /// RL episodes trained (0 for baselines).
    pub episodes: usize,
    /// Test accuracy after surgery, before any fine-tuning.
    pub accuracy: f32,
}

impl Prepared {
    /// The fine-tuning schedule the budget prescribes.
    pub fn finetune(&self) -> FineTune {
        FineTune {
            epochs: self.budget.finetune_epochs,
            ..FineTune::default()
        }
    }

    /// Runs a whole-model pruning method on a clone of the prepared
    /// model. `seed` drives the method's own RNG stream, independent of
    /// pre-training.
    ///
    /// # Errors
    ///
    /// Propagates pruning and training errors.
    pub fn run_method(&self, method: &Method, seed: u64) -> Result<MethodRun, RunnerError> {
        self.run_method_with(method, seed, &mut SerialExecutor)
    }

    /// As [`Prepared::run_method`], with an explicit candidate-batch
    /// evaluation executor for the RL methods (bit-identical output for
    /// every executor; only wall-clock differs). Baseline methods never
    /// touch the executor.
    ///
    /// # Errors
    ///
    /// Propagates pruning and training errors.
    pub fn run_method_with(
        &self,
        method: &Method,
        seed: u64,
        executor: &mut dyn EvalExecutor,
    ) -> Result<MethodRun, RunnerError> {
        let label = method.label();
        let phase = Phase::start(&format!("prune: {label}"));
        let start = Instant::now();
        let mut net = self.net.clone();
        let mut rng = Rng::seed_from(seed);
        let mut traces = Vec::new();
        let mut block_decision = None;
        let rl_config = || {
            method.headstart_config(&self.budget).ok_or_else(|| {
                RunnerError::BadConfig("HeadStart method without an RL config".to_string())
            })
        };
        let final_accuracy = match method {
            Method::HeadStartLayers { .. } | Method::Baseline { .. } => {
                let mut step = LayerStep::new(method, self, seed)?;
                prune_layers(
                    self,
                    &mut step,
                    &mut net,
                    0,
                    &mut rng,
                    executor,
                    |_, _, trace, _| {
                        traces.push(trace);
                        Ok(())
                    },
                )?
            }
            Method::HeadStartBlocks { .. } => {
                let cfg = rl_config()?;
                // Block pruning fine-tunes once at the end; give it the
                // whole per-layer budget.
                let ft = FineTune {
                    epochs: (self.budget.finetune_epochs * 3).max(1),
                    ..FineTune::default()
                };
                let mut observer = TelemetryObserver::from_config(&cfg).with_trace_seed(seed);
                let (decision, acc) = BlockPruner::new(cfg).prune_and_finetune_executed(
                    &mut net,
                    &self.ds,
                    &ft,
                    &mut rng,
                    &mut observer,
                    executor,
                )?;
                block_decision = Some(decision);
                acc
            }
            Method::HeadStartInner { .. } => {
                let cfg = rl_config()?;
                let mut observer = TelemetryObserver::from_config(&cfg).with_trace_seed(seed);
                let (_decisions, acc) = prune_all_block_inners_executed(
                    &cfg,
                    &self.finetune(),
                    &mut net,
                    &self.ds,
                    &mut rng,
                    &mut observer,
                    executor,
                )?;
                acc
            }
        };
        let cost = analyze(&net, self.ds.channels(), self.ds.image_size())?;
        phase.end();
        Ok(MethodRun {
            label,
            net,
            final_accuracy,
            cost,
            traces,
            block_decision,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// The "from scratch" control: re-initializes `arch` (a pruned
    /// architecture) and trains it for `epochs` with the default
    /// fine-tuning schedule.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn run_scratch(
        &self,
        arch: &Network,
        epochs: usize,
        seed: u64,
    ) -> Result<MethodRun, RunnerError> {
        let phase = Phase::start("from scratch");
        let start = Instant::now();
        let mut rng = Rng::seed_from(seed);
        let final_accuracy =
            train_from_scratch(arch, &self.ds, epochs, &FineTune::default(), &mut rng)?;
        let cost = analyze(arch, self.ds.channels(), self.ds.image_size())?;
        phase.end();
        Ok(MethodRun {
            label: "from scratch".to_string(),
            net: arch.clone(),
            final_accuracy,
            cost,
            traces: Vec::new(),
            block_decision: None,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// The HeadStart config for a single-layer run at `sp`, under this
    /// run's budget.
    pub fn headstart_layer_cfg(&self, sp: f32) -> HeadStartConfig {
        HeadStartConfig::new(sp)
            .max_episodes(self.budget.rl_episodes)
            .eval_images(self.budget.rl_eval_images)
    }

    /// Single-layer HeadStart prune on a clone (no fine-tuning): learns
    /// the inception of conv `ordinal`, applies the surgery, optionally
    /// recalibrates batch-norm statistics, and reports test accuracy.
    ///
    /// # Errors
    ///
    /// Propagates pruning, surgery and evaluation errors.
    pub fn single_layer_headstart(
        &self,
        cfg: &HeadStartConfig,
        ordinal: usize,
        recalibrate: bool,
        seed: u64,
    ) -> Result<SingleLayerRun, RunnerError> {
        let mut net = self.net.clone();
        let mut rng = Rng::seed_from(seed);
        let d = LayerPruner::new(cfg.clone()).prune(&mut net, ordinal, &self.ds, &mut rng)?;
        let conv = net.conv_indices()[ordinal];
        prune_feature_maps(&mut net, conv, &d.keep)?;
        let accuracy = self.post_surgery_accuracy(&mut net, recalibrate)?;
        Ok(SingleLayerRun {
            kept: d.keep.len(),
            episodes: d.episodes(),
            accuracy,
        })
    }

    /// Single-layer baseline prune on a clone (no fine-tuning), keeping
    /// `1/sp` of the layer's maps: one step of the whole-model schedule,
    /// scoring the same class-balanced training subset.
    ///
    /// # Errors
    ///
    /// [`RunnerError::BadConfig`] for `sp < 1` or an ordinal past the
    /// last conv; propagates criterion, surgery and evaluation errors.
    pub fn single_layer_baseline(
        &self,
        kind: BaselineKind,
        ordinal: usize,
        sp: f32,
        recalibrate: bool,
        seed: u64,
    ) -> Result<SingleLayerRun, RunnerError> {
        let mut net = self.net.clone();
        let mut rng = Rng::seed_from(seed);
        let keep = LayerStep::baseline(kind, 1.0 / sp, &self.ds)?.prune(
            &mut net,
            ordinal,
            &self.ds,
            &mut rng,
            &mut SerialExecutor,
        )?;
        let accuracy = self.post_surgery_accuracy(&mut net, recalibrate)?;
        Ok(SingleLayerRun {
            kept: keep.len(),
            episodes: 0,
            accuracy,
        })
    }

    fn post_surgery_accuracy(
        &self,
        net: &mut Network,
        recalibrate: bool,
    ) -> Result<f32, RunnerError> {
        if recalibrate {
            train::recalibrate_bn(net, &self.ds.train_images, 32, 2)?;
        }
        Ok(train::evaluate(
            net,
            &self.ds.test_images,
            &self.ds.test_labels,
            64,
        )?)
    }
}

/// Artifact record of the post-prune compaction stage (`--compact`):
/// the physically shrunk checkpoint plus achieved-vs-target speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactSummary {
    /// Checkpoint file name relative to the run directory.
    pub checkpoint: String,
    /// Parameters of the compacted model.
    pub params: u64,
    /// MACs per sample of the compacted model.
    pub flops: u64,
    /// The method's target speedup (`sp`).
    pub target_speedup: f64,
    /// FLOP speedup actually realized: original MACs / compacted MACs.
    pub achieved_speedup: f64,
    /// Units physically rewritten (conv surgeries, removed blocks,
    /// shrunk block interiors).
    pub units: usize,
}

impl CompactSummary {
    /// Renders the summary as a JSON artifact fragment.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("checkpoint".into(), Json::str(self.checkpoint.clone())),
            ("params".into(), Json::Num(self.params as f64)),
            ("flops".into(), Json::Num(self.flops as f64)),
            ("target_speedup".into(), Json::Num(self.target_speedup)),
            ("achieved_speedup".into(), Json::Num(self.achieved_speedup)),
            ("units".into(), Json::Num(self.units as f64)),
        ])
    }
}

/// The complete record of one pipeline run.
#[derive(Debug)]
pub struct PipelineReport {
    /// Run label.
    pub label: String,
    /// Test accuracy before pruning.
    pub original_accuracy: f32,
    /// Test accuracy after the method (and its fine-tuning).
    pub final_accuracy: f32,
    /// Cost before pruning.
    pub original_cost: NetworkCost,
    /// Cost after pruning.
    pub final_cost: NetworkCost,
    /// Per-layer trace, when the method produces one.
    pub traces: Vec<LayerTrace>,
    /// All stage timings (dataset, pretrain/checkpoint, prune, eval).
    pub stages: Vec<StageTiming>,
    /// The compaction stage's record, when `--compact` ran.
    pub compact: Option<CompactSummary>,
    /// Evaluation workers the run was configured with (`--workers`).
    /// Echoed, together with the effective tensor-pool width, under the
    /// artifact's `execution` key so a stored artifact records the
    /// parallelism it ran under.
    pub workers: usize,
}

impl PipelineReport {
    /// Parameter compression ratio `W'/W` in percent.
    pub fn compression_pct(&self) -> f64 {
        100.0 * self.final_cost.total_params as f64 / self.original_cost.total_params.max(1) as f64
    }

    /// Renders the report as a JSON artifact.
    pub fn to_json(&self) -> Json {
        let traces = self
            .traces
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("conv_ordinal".into(), Json::Num(t.conv_ordinal as f64)),
                    ("maps_before".into(), Json::Num(t.maps_before as f64)),
                    ("maps_after".into(), Json::Num(t.maps_after as f64)),
                    ("params_after".into(), Json::Num(t.params_after as f64)),
                    ("flops_after".into(), Json::Num(t.flops_after as f64)),
                    (
                        "inception_accuracy".into(),
                        Json::Num(f64::from(t.inception_accuracy)),
                    ),
                    (
                        "finetuned_accuracy".into(),
                        Json::Num(f64::from(t.finetuned_accuracy)),
                    ),
                ])
            })
            .collect();
        let stages = self
            .stages
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name".into(), Json::str(s.name.clone())),
                    ("seconds".into(), Json::Num(s.seconds)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("label".into(), Json::str(self.label.clone())),
            (
                "original_accuracy".into(),
                Json::Num(f64::from(self.original_accuracy)),
            ),
            (
                "final_accuracy".into(),
                Json::Num(f64::from(self.final_accuracy)),
            ),
            (
                "original_params".into(),
                Json::Num(self.original_cost.total_params as f64),
            ),
            (
                "final_params".into(),
                Json::Num(self.final_cost.total_params as f64),
            ),
            (
                "original_flops".into(),
                Json::Num(self.original_cost.total_flops as f64),
            ),
            (
                "final_flops".into(),
                Json::Num(self.final_cost.total_flops as f64),
            ),
            ("compression_pct".into(), Json::Num(self.compression_pct())),
            ("layers".into(), Json::Arr(traces)),
            ("stages".into(), Json::Arr(stages)),
            (
                // Effective parallelism echo (like bench artifacts'
                // `pool_threads`): `workers` is the --workers request,
                // `pool_threads` the HS_NUM_THREADS-controlled tensor
                // pool width this process actually ran with.
                "execution".into(),
                Json::obj(vec![
                    ("workers".into(), Json::Num(self.workers as f64)),
                    (
                        "pool_threads".into(),
                        Json::Num(hs_tensor::pool::effective_threads() as f64),
                    ),
                ]),
            ),
            (
                "compact".into(),
                match &self.compact {
                    Some(c) => c.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Runs one complete pipeline from a config: dataset → pre-train or
/// checkpoint-load → prune → fine-tune → eval, writing the JSON
/// artifact when `cfg.artifact` is set.
///
/// When `cfg.telemetry` or `cfg.log_level` is set the process-global
/// telemetry sinks are (re)configured first; every stage then runs
/// inside a root `pipeline` span, so stage spans in the JSONL stream
/// nest as `pipeline/…`. When `cfg.metrics` is set the metrics registry
/// is rendered to that path in Prometheus text format at the end.
///
/// # Errors
///
/// Propagates every stage's errors.
pub fn run(cfg: &RunnerConfig) -> Result<PipelineReport, RunnerError> {
    if cfg.telemetry.is_some() || cfg.log_level.is_some() {
        hs_telemetry::configure(&TelemetryConfig {
            stderr_level: cfg.log_level,
            jsonl: cfg.telemetry.clone(),
        })?;
    }
    if let Some(dir) = cfg.run_dir.clone() {
        return crate::resume::run_journaled(cfg, &dir, None);
    }
    if cfg.compact {
        // The compacted checkpoint lives next to the journal; without a
        // run directory there is nowhere durable to put it.
        return Err(RunnerError::BadConfig(
            "--compact requires --run-dir".to_string(),
        ));
    }
    let pipeline_span = hs_telemetry::span!(
        "pipeline",
        "label" => cfg.label.clone(),
        "method" => cfg.method.label(),
    );
    let prepared = prepare(cfg)?;
    let mut executor = hs_coord::executor_for(cfg.workers, cfg.prune_seed);
    let method_run = prepared.run_method_with(&cfg.method, cfg.prune_seed, executor.as_mut())?;
    // Shut the worker fleet down now so its lifecycle telemetry and the
    // utilization gauge land before the artifact/metrics flush below.
    drop(executor);
    let mut stages = prepared.stages.clone();
    stages.push(StageTiming {
        name: format!("prune:{}", method_run.label),
        seconds: method_run.seconds,
    });
    let report = PipelineReport {
        label: cfg.label.clone(),
        original_accuracy: prepared.original_accuracy,
        final_accuracy: method_run.final_accuracy,
        original_cost: prepared.original_cost,
        final_cost: method_run.cost,
        traces: method_run.traces,
        stages,
        compact: None,
        workers: cfg.workers,
    };
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
