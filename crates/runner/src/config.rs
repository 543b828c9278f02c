//! Run configuration: which dataset, model, method and budget a
//! pipeline executes. Every choice parses from CLI-style strings so the
//! `hs_run` binary and the experiment binaries share one vocabulary.

use std::path::PathBuf;

use hs_core::HeadStartConfig;
use hs_data::Dataset;
pub use hs_data::DatasetKind as DataChoice;
pub use hs_nn::models::ModelKind;
use hs_nn::{models, Network, NnError};
use hs_pruning::{Apoz, AutoPruner, L1Norm, PruningCriterion, Random, ThiNet};
use hs_telemetry::flags::Flags;
use hs_telemetry::Level;
use hs_tensor::Rng;

use crate::budget::Budget;
use crate::error::RunnerError;

/// An architecture plus its width multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelChoice {
    /// Architecture family.
    pub kind: ModelKind,
    /// Width multiplier (fraction of the paper's channel counts).
    pub width: f32,
}

impl ModelChoice {
    /// Creates a model choice.
    pub fn new(kind: ModelKind, width: f32) -> Self {
        ModelChoice { kind, width }
    }

    /// CLI name of the architecture.
    pub fn name(&self) -> String {
        self.kind.name()
    }

    /// Parses a CLI name into a kind (width is a separate flag).
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::BadConfig`] for unknown names.
    pub fn parse(name: &str, width: f32) -> Result<Self, RunnerError> {
        let kind = ModelKind::parse(name).map_err(RunnerError::BadConfig)?;
        Ok(ModelChoice { kind, width })
    }

    /// Instantiates the architecture for a dataset.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn build(&self, ds: &Dataset, rng: &mut Rng) -> Result<Network, NnError> {
        let (c, classes, size, w) = (ds.channels(), ds.num_classes(), ds.image_size(), self.width);
        match self.kind {
            ModelKind::Vgg11 => models::vgg11(c, classes, size, w, rng),
            ModelKind::Vgg16 => models::vgg16(c, classes, size, w, rng),
            ModelKind::ResNetCifar { n } => models::resnet_cifar(n, c, classes, w, rng),
            ModelKind::LeNet => models::lenet(c, classes, size, w, rng),
            ModelKind::AlexNet => models::alexnet(c, classes, size, w, rng),
        }
    }
}

/// A non-RL pruning criterion used as a comparison baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Uniform random keep set.
    Random,
    /// Li'17 L1-norm filter magnitude.
    L1,
    /// Average Percentage of Zeros.
    Apoz,
    /// ThiNet'17 greedy reconstruction.
    ThiNet,
    /// AutoPruner'18 with a given optimization budget.
    AutoPruner {
        /// Optimization iterations.
        iterations: usize,
    },
}

impl BaselineKind {
    /// Instantiates the criterion.
    pub fn build(&self) -> Box<dyn PruningCriterion> {
        match self {
            BaselineKind::Random => Box::new(Random::new()),
            BaselineKind::L1 => Box::new(L1Norm::new()),
            BaselineKind::Apoz => Box::new(Apoz::new()),
            BaselineKind::ThiNet => Box::new(ThiNet::new()),
            BaselineKind::AutoPruner { iterations } => {
                Box::new(AutoPruner::new().iterations(*iterations))
            }
        }
    }

    /// Display label, matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineKind::Random => "Random",
            BaselineKind::L1 => "Li'17",
            BaselineKind::Apoz => "APoZ",
            BaselineKind::ThiNet => "ThiNet'17",
            BaselineKind::AutoPruner { .. } => "AutoPruner'18",
        }
    }

    /// CLI name, the inverse of [`BaselineKind::parse`].
    pub fn cli_name(&self) -> &'static str {
        match self {
            BaselineKind::Random => "random",
            BaselineKind::L1 => "l1",
            BaselineKind::Apoz => "apoz",
            BaselineKind::ThiNet => "thinet",
            BaselineKind::AutoPruner { .. } => "autopruner",
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::BadConfig`] for unknown names.
    pub fn parse(s: &str) -> Result<Self, RunnerError> {
        match s {
            "random" => Ok(BaselineKind::Random),
            "l1" => Ok(BaselineKind::L1),
            "apoz" => Ok(BaselineKind::Apoz),
            "thinet" => Ok(BaselineKind::ThiNet),
            "autopruner" => Ok(BaselineKind::AutoPruner { iterations: 20 }),
            other => Err(RunnerError::BadConfig(format!(
                "unknown baseline `{other}` (use random|l1|apoz|thinet|autopruner)"
            ))),
        }
    }
}

/// What a pipeline run does to the pre-trained model.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// HeadStart per-layer feature-map pruning, front to back with
    /// fine-tuning (Tables 1–3).
    HeadStartLayers {
        /// Target speedup per layer.
        sp: f32,
    },
    /// HeadStart whole-block pruning for ResNets (Table 4).
    HeadStartBlocks {
        /// Target parameter speedup.
        sp: f32,
    },
    /// HeadStart intra-block filter pruning for ResNets.
    HeadStartInner {
        /// Target speedup per block interior.
        sp: f32,
    },
    /// A baseline criterion at a fixed per-layer keep ratio.
    Baseline {
        /// The criterion.
        kind: BaselineKind,
        /// Fraction of maps each layer keeps.
        keep_ratio: f32,
    },
}

impl Method {
    /// Display label for tables and artifacts.
    pub fn label(&self) -> String {
        match self {
            Method::HeadStartLayers { .. } => "HeadStart".to_string(),
            Method::HeadStartBlocks { .. } => "HeadStart-blocks".to_string(),
            Method::HeadStartInner { .. } => "HeadStart-inner".to_string(),
            Method::Baseline { kind, .. } => kind.label().to_string(),
        }
    }

    /// CLI name, the inverse of [`Method::parse`]. Together with
    /// [`Method::sp`] and [`Method::keep_ratio`] this round-trips a
    /// method through the run journal's config echo.
    pub fn cli_name(&self) -> &'static str {
        match self {
            Method::HeadStartLayers { .. } => "headstart",
            Method::HeadStartBlocks { .. } => "headstart-blocks",
            Method::HeadStartInner { .. } => "headstart-inner",
            Method::Baseline { kind, .. } => kind.cli_name(),
        }
    }

    /// The target speedup: `sp` for RL methods, `1 / keep_ratio` for
    /// baselines (the rule [`Prepared::single_layer_baseline`] inverts;
    /// [`Method::parse`] ignores `sp` for them).
    ///
    /// [`Prepared::single_layer_baseline`]: crate::Prepared::single_layer_baseline
    pub fn sp(&self) -> f32 {
        match self {
            Method::HeadStartLayers { sp }
            | Method::HeadStartBlocks { sp }
            | Method::HeadStartInner { sp } => *sp,
            Method::Baseline { keep_ratio, .. } => 1.0 / keep_ratio,
        }
    }

    /// The per-layer keep ratio, for baselines (RL methods report the
    /// default `0.5`, which [`Method::parse`] ignores for them).
    pub fn keep_ratio(&self) -> f32 {
        match self {
            Method::Baseline { keep_ratio, .. } => *keep_ratio,
            _ => 0.5,
        }
    }

    /// Builds the HeadStart config for RL methods under a budget.
    /// Returns `None` for baselines.
    pub fn headstart_config(&self, budget: &Budget) -> Option<HeadStartConfig> {
        let sp = match self {
            Method::HeadStartLayers { sp }
            | Method::HeadStartBlocks { sp }
            | Method::HeadStartInner { sp } => *sp,
            Method::Baseline { .. } => return None,
        };
        Some(
            HeadStartConfig::new(sp)
                .max_episodes(budget.rl_episodes)
                .eval_images(budget.rl_eval_images),
        )
    }

    /// Parses a CLI method name plus its `sp`/`keep_ratio` parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::BadConfig`] for unknown names, and for a
    /// baseline keep ratio outside `(0, 1]`.
    pub fn parse(name: &str, sp: f32, keep_ratio: f32) -> Result<Self, RunnerError> {
        match name {
            "headstart" => Ok(Method::HeadStartLayers { sp }),
            "headstart-blocks" => Ok(Method::HeadStartBlocks { sp }),
            "headstart-inner" => Ok(Method::HeadStartInner { sp }),
            other => Ok(Method::Baseline {
                kind: BaselineKind::parse(other)?,
                keep_ratio: check_keep_ratio(keep_ratio)?,
            }),
        }
    }
}

/// `keep_ratio` if it lies in `(0, 1]`, the range a baseline can keep.
pub(crate) fn check_keep_ratio(keep_ratio: f32) -> Result<f32, RunnerError> {
    if keep_ratio > 0.0 && keep_ratio <= 1.0 {
        Ok(keep_ratio)
    } else {
        Err(RunnerError::BadConfig(format!(
            "keep ratio {keep_ratio} outside (0, 1]"
        )))
    }
}

/// Everything a pipeline run needs: data, model, seeds, budget, method
/// and optional checkpoint/artifact paths.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerConfig {
    /// Human-readable run label (artifact + log prefix).
    pub label: String,
    /// Dataset choice.
    pub data: DataChoice,
    /// Model choice.
    pub model: ModelChoice,
    /// Seed for model init + pre-training.
    pub seed: u64,
    /// Seed for the prune schedule (independent of pre-training).
    pub prune_seed: u64,
    /// Compute budget.
    pub budget: Budget,
    /// What to do to the model.
    pub method: Method,
    /// Checkpoint path: loaded if it exists (skipping pre-training),
    /// written after pre-training otherwise.
    pub checkpoint: Option<PathBuf>,
    /// Run directory for crash-safe journaled runs (`--run-dir`). When
    /// set, the pipeline writes `run.journal.json` plus per-unit
    /// checkpoints there so an interrupted run can be continued with
    /// `hs_run --resume DIR`.
    pub run_dir: Option<PathBuf>,
    /// Structurally compact the pruned network after fine-tuning
    /// (`--compact`): realize masks / deactivated blocks as physically
    /// smaller tensors and write `compact.hsck` next to the journal.
    /// Requires `run_dir`.
    pub compact: bool,
    /// Evaluation worker threads for the REINFORCE search (`--workers`).
    /// `1` evaluates candidates serially on the pipeline thread; `N > 1`
    /// shards each episode's candidate batch across an `hs-coord`
    /// worker fleet. Output is bit-identical for every value; only
    /// wall-clock differs.
    pub workers: usize,
    /// Where to write the JSON run artifact.
    pub artifact: Option<PathBuf>,
    /// Where to write the JSONL telemetry event stream (`--telemetry`).
    pub telemetry: Option<PathBuf>,
    /// Where to dump the Prometheus-text metrics snapshot when the run
    /// ends (`--metrics`).
    pub metrics: Option<PathBuf>,
    /// Stderr verbosity (`--log-level`); `None` keeps the default
    /// ([`Level::Info`]).
    pub log_level: Option<Level>,
}

impl RunnerConfig {
    /// A config with library defaults: CIFAR-like data, quarter-width
    /// VGG-11, HeadStart at sp = 2, full budget, no checkpoint/artifact.
    pub fn new(label: impl Into<String>) -> Self {
        RunnerConfig {
            label: label.into(),
            data: DataChoice::CifarLike,
            model: ModelChoice::new(ModelKind::Vgg11, 0.25),
            seed: 42,
            prune_seed: 42,
            budget: Budget::full(),
            method: Method::HeadStartLayers { sp: 2.0 },
            checkpoint: None,
            run_dir: None,
            compact: false,
            workers: 1,
            artifact: None,
            telemetry: None,
            metrics: None,
            log_level: None,
        }
    }

    /// Parses a config from `hs_run`'s command line
    /// ([`hs_telemetry::flags`]). Every flag has a default. The `--quick`
    /// and `--smoke` presets apply before the per-field budget flags,
    /// wherever they appear.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::BadConfig`] for malformed arguments.
    pub fn from_args(args: &[String]) -> Result<Self, RunnerError> {
        let mut cfg = RunnerConfig::new("hs_run");
        let (method, sp, keep_ratio) = cfg
            .read_flags(Flags::new(args.iter().cloned()))
            .map_err(RunnerError::BadConfig)?;
        cfg.method = Method::parse(&method, sp, keep_ratio)?;
        Ok(cfg)
    }

    /// Applies `hs_run`'s flags; returns the method name with the `sp`
    /// and keep ratio [`Method::parse`] takes.
    fn read_flags(&mut self, mut f: Flags) -> Result<(String, f32, f32), String> {
        match (f.switch("--quick")?, f.switch("--smoke")?) {
            (true, true) => return Err("--quick and --smoke exclude each other".to_string()),
            (true, false) => self.budget = Budget::quick(),
            (false, true) => self.budget = Budget::smoke(),
            (false, false) => {}
        }
        let budget = &mut self.budget;
        f.set("--pretrain", "integer", &mut budget.pretrain_epochs)?;
        f.set("--finetune", "integer", &mut budget.finetune_epochs)?;
        f.set("--episodes", "integer", &mut budget.rl_episodes)?;
        f.set("--eval-images", "integer", &mut budget.rl_eval_images)?;
        self.compact = f.switch("--compact")?;
        f.set("--label", "a label", &mut self.label)?;
        if let Some(data) = f.value("--data")? {
            self.data = DataChoice::parse(&data)?;
        }
        let kind = ModelKind::parse(&f.value("--model")?.unwrap_or("vgg11".into()))?;
        self.model = ModelChoice::new(kind, f.parse("--width", "a float")?.unwrap_or(0.25));
        let method = f.value("--method")?.unwrap_or("headstart".into());
        let sp = f.parse("--sp", "a float")?.unwrap_or(2.0);
        let keep_ratio = f.parse("--keep", "a float")?.unwrap_or(0.5);
        f.set("--seed", "integer", &mut self.seed)?;
        self.prune_seed = f.parse("--prune-seed", "integer")?.unwrap_or(self.seed);
        if let Some(workers) = f.count("--workers")? {
            self.workers = workers as usize;
        }
        self.checkpoint = f.value("--checkpoint")?.map(PathBuf::from);
        self.run_dir = f.value("--run-dir")?.map(PathBuf::from);
        self.artifact = f.value("--artifact")?.map(PathBuf::from);
        self.telemetry = f.value("--telemetry")?.map(PathBuf::from);
        self.metrics = f.value("--metrics")?.map(PathBuf::from);
        self.log_level = f.parse_with("--log-level", "a log level", Level::parse)?;
        f.done()?;
        Ok((method, sp, keep_ratio))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let cfg = RunnerConfig::from_args(&argv(
            "--label t3 --data cifar --model vgg11 --width 0.25 --method headstart --sp 5 \
             --seed 3 --prune-seed 55 --quick --episodes 9 --artifact out.json",
        ))
        .unwrap();
        assert_eq!(cfg.label, "t3");
        assert_eq!(cfg.data, DataChoice::CifarLike);
        assert_eq!(cfg.method, Method::HeadStartLayers { sp: 5.0 });
        assert_eq!(cfg.seed, 3);
        assert_eq!(cfg.prune_seed, 55);
        // --episodes after --quick overrides just that knob.
        assert_eq!(cfg.budget.rl_episodes, 9);
        assert_eq!(cfg.budget.pretrain_epochs, Budget::quick().pretrain_epochs);
        assert_eq!(
            cfg.artifact.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
    }

    #[test]
    fn presets_apply_before_budget_flags_wherever_they_appear() {
        for line in ["--quick --episodes 9", "--episodes 9 --quick"] {
            let cfg = RunnerConfig::from_args(&argv(line)).unwrap();
            assert_eq!(cfg.budget.rl_episodes, 9, "{line}");
            assert_eq!(cfg.budget.pretrain_epochs, Budget::quick().pretrain_epochs);
        }
        let cfg = RunnerConfig::from_args(&argv("--finetune 0 --smoke")).unwrap();
        assert_eq!(cfg.budget.finetune_epochs, 0);
        assert_eq!(cfg.budget.rl_episodes, Budget::smoke().rl_episodes);
        assert!(RunnerConfig::from_args(&argv("--quick --smoke")).is_err());
    }

    #[test]
    fn errors_use_the_shared_flag_wording() {
        let err = |line: &str| {
            RunnerConfig::from_args(&argv(line))
                .unwrap_err()
                .to_string()
        };
        assert!(err("--seed abc").ends_with("--seed: expected integer, got `abc`"));
        assert!(err("--sp fast").ends_with("--sp: expected a float, got `fast`"));
        assert!(err("--seed 1 --seed 2").ends_with("--seed given twice"));
        assert!(err("--bogus 1").ends_with("unknown flag `--bogus`"));
        assert!(err("--workers 0").ends_with("--workers: must be at least 1"));
    }

    #[test]
    fn baseline_sp_is_the_inverse_keep_ratio() {
        let l1 = |keep_ratio| Method::Baseline {
            kind: BaselineKind::L1,
            keep_ratio,
        };
        assert_eq!(l1(0.5).sp(), 2.0);
        assert_eq!(l1(0.2).sp(), 5.0);
        assert_eq!(l1(0.25).sp(), 4.0);
        // A keep ratio with no finite speedup fails before any run starts.
        for keep in ["0", "1.5", "NaN"] {
            let line = format!("--method l1 --keep {keep}");
            assert!(RunnerConfig::from_args(&argv(&line)).is_err(), "{line}");
        }
    }

    #[test]
    fn parses_baseline_methods() {
        for (name, kind) in [
            ("random", BaselineKind::Random),
            ("l1", BaselineKind::L1),
            ("apoz", BaselineKind::Apoz),
            ("thinet", BaselineKind::ThiNet),
            ("autopruner", BaselineKind::AutoPruner { iterations: 20 }),
        ] {
            let m = Method::parse(name, 2.0, 0.5).unwrap();
            assert_eq!(
                m,
                Method::Baseline {
                    kind,
                    keep_ratio: 0.5
                }
            );
            assert!(m.headstart_config(&Budget::quick()).is_none());
        }
        assert!(Method::parse("nope", 2.0, 0.5).is_err());
    }

    #[test]
    fn rl_methods_get_budgeted_configs() {
        let budget = Budget::quick();
        let cfg = Method::HeadStartLayers { sp: 3.0 }
            .headstart_config(&budget)
            .unwrap();
        assert_eq!(cfg.sp, 3.0);
        assert_eq!(cfg.max_episodes, budget.rl_episodes);
        assert_eq!(cfg.eval_images, budget.rl_eval_images);
    }

    #[test]
    fn rejects_unknown_flags_and_values() {
        assert!(RunnerConfig::from_args(&argv("--bogus 1")).is_err());
        assert!(RunnerConfig::from_args(&argv("--seed abc")).is_err());
        assert!(RunnerConfig::from_args(&argv("--data mnist")).is_err());
        assert!(RunnerConfig::from_args(&argv("--model resnet999")).is_err());
        assert!(RunnerConfig::from_args(&argv("--seed")).is_err());
        assert!(RunnerConfig::from_args(&argv("--log-level loud")).is_err());
    }

    #[test]
    fn parses_workers_flag() {
        assert_eq!(RunnerConfig::new("x").workers, 1);
        let cfg = RunnerConfig::from_args(&argv("--workers 8")).unwrap();
        assert_eq!(cfg.workers, 8);
        assert!(RunnerConfig::from_args(&argv("--workers 0")).is_err());
        assert!(RunnerConfig::from_args(&argv("--workers many")).is_err());
    }

    #[test]
    fn parses_telemetry_flags() {
        let cfg = RunnerConfig::from_args(&argv(
            "--telemetry events.jsonl --metrics run.prom --log-level debug",
        ))
        .unwrap();
        assert_eq!(
            cfg.telemetry.as_deref(),
            Some(std::path::Path::new("events.jsonl"))
        );
        assert_eq!(
            cfg.metrics.as_deref(),
            Some(std::path::Path::new("run.prom"))
        );
        assert_eq!(cfg.log_level, Some(Level::Debug));
        // Defaults stay off so library users never touch global sinks.
        let plain = RunnerConfig::new("x");
        assert!(plain.telemetry.is_none() && plain.metrics.is_none() && plain.log_level.is_none());
    }

    #[test]
    fn run_dir_flag_and_method_names_round_trip() {
        let cfg = RunnerConfig::from_args(&argv("--run-dir runs/a")).unwrap();
        assert_eq!(cfg.run_dir.as_deref(), Some(std::path::Path::new("runs/a")));
        assert!(RunnerConfig::new("x").run_dir.is_none());
        // --compact is a valueless flag and defaults to off.
        let cfg = RunnerConfig::from_args(&argv("--compact --run-dir runs/a --seed 7")).unwrap();
        assert!(cfg.compact);
        assert_eq!(cfg.seed, 7);
        assert!(!RunnerConfig::from_args(&argv("--seed 7")).unwrap().compact);
        for name in [
            "headstart",
            "headstart-blocks",
            "headstart-inner",
            "random",
            "l1",
            "apoz",
            "thinet",
            "autopruner",
        ] {
            let m = Method::parse(name, 3.0, 0.25).unwrap();
            assert_eq!(m.cli_name(), name);
            // Re-parsing the echoed name + parameters reproduces the method.
            assert_eq!(
                Method::parse(m.cli_name(), m.sp(), m.keep_ratio()).unwrap(),
                m
            );
        }
    }

    #[test]
    fn model_names_round_trip() {
        for name in ["vgg11", "vgg16", "resnet20", "resnet38", "lenet", "alexnet"] {
            let m = ModelChoice::parse(name, 0.5).unwrap();
            assert_eq!(m.name(), name);
        }
    }
}
