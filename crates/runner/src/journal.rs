//! The run journal: `run.journal.json`, the on-disk record a crash-safe
//! pipeline keeps of everything needed to continue after a kill.
//!
//! The journal is rewritten **atomically** after every completed
//! pipeline stage and after every pruned unit, so at any instant the
//! file on disk describes a consistent prefix of the run:
//!
//! - a **config echo** that round-trips the full [`RunnerConfig`]
//!   (dataset, model, method, seeds, budget), so `hs_run --resume DIR`
//!   needs no other flags;
//! - the **stage** reached (`prepared` after the pre-trained checkpoint
//!   is on disk, `finalized` once the pruned model and final accuracy
//!   are);
//! - one [`UnitRecord`] per pruned unit: the learned inception (kept
//!   map indices), the accuracies and cost after the unit, the per-unit
//!   checkpoint file, and the **complete RNG state** after the unit's
//!   fine-tuning — the four xoshiro256++ words as hex strings (JSON
//!   numbers are doubles and would silently round u64s) plus the
//!   Box–Muller cache, which is what makes a resumed run bit-identical
//!   to an uninterrupted one.
//!
//! Reading and writing use the workspace's one JSON value
//! ([`hs_telemetry::schema::Json`]); writes go through the atomic
//! writer, so an armed `io_error:journal` / `io_flaky:journal` fault
//! exercises exactly the production write path.

use std::path::{Path, PathBuf};

use hs_telemetry::schema::{self, Json};
use hs_tensor::RngSnapshot;

use crate::config::{DataChoice, Method, ModelChoice, RunnerConfig};
use crate::error::RunnerError;

/// File name of the journal inside a run directory.
pub const JOURNAL_FILE: &str = "run.journal.json";

/// Journal format version (bumped on breaking layout changes).
pub const JOURNAL_VERSION: u64 = 1;

/// How far a journaled run has progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Dataset built, model pre-trained (or restored) and checkpointed.
    Prepared,
    /// Pruning finished, final checkpoint and accuracy recorded.
    Finalized,
}

impl Stage {
    /// Journal string form.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Prepared => "prepared",
            Stage::Finalized => "finalized",
        }
    }

    fn parse(s: &str) -> Result<Stage, String> {
        match s {
            "prepared" => Ok(Stage::Prepared),
            "finalized" => Ok(Stage::Finalized),
            other => Err(format!("unknown stage `{other}`")),
        }
    }
}

/// Everything the journal records about one completed pruned unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRecord {
    /// Position of the unit in pruning order (0-based conv ordinal).
    pub ordinal: usize,
    /// Node index of the pruned convolution.
    pub conv_node: usize,
    /// Feature maps before pruning this unit.
    pub maps_before: usize,
    /// Kept feature-map indices — the learned inception mask.
    pub keep: Vec<usize>,
    /// Test accuracy right after surgery, before fine-tuning.
    pub inception_accuracy: f32,
    /// Test accuracy after this unit's fine-tuning.
    pub finetuned_accuracy: f32,
    /// Total model parameters after this unit.
    pub params_after: u64,
    /// Total model MACs after this unit.
    pub flops_after: u64,
    /// Checkpoint file name (relative to the run directory) holding the
    /// model state after this unit.
    pub checkpoint: String,
    /// Complete prune-RNG state after this unit's fine-tuning.
    pub rng_after: RngSnapshot,
}

/// The journal of one crash-safe pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// The run's full configuration (echoed so resume is flag-free).
    pub config: RunnerConfig,
    /// Stage reached.
    pub stage: Stage,
    /// Test accuracy of the pre-trained model.
    pub original_accuracy: f32,
    /// Completed pruned units, in order.
    pub units: Vec<UnitRecord>,
    /// Final test accuracy, once [`Stage::Finalized`].
    pub final_accuracy: Option<f32>,
}

impl Journal {
    /// A fresh journal for a run that just prepared its model.
    pub fn new(config: RunnerConfig, original_accuracy: f32) -> Journal {
        Journal {
            config,
            stage: Stage::Prepared,
            original_accuracy,
            units: Vec::new(),
            final_accuracy: None,
        }
    }

    /// The journal path inside a run directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Atomically writes the journal into `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (site `journal` for fault
    /// injection).
    pub fn save(&self, dir: &Path) -> Result<(), RunnerError> {
        let bytes = self.to_json().render();
        hs_telemetry::io::atomic_write_as(&Journal::path(dir), "journal", bytes.as_bytes())?;
        Ok(())
    }

    /// Loads and validates the journal from `dir`.
    ///
    /// # Errors
    ///
    /// [`RunnerError::Journal`] when the file is missing, unparsable, or
    /// structurally wrong; the message names the first problem.
    pub fn load(dir: &Path) -> Result<Journal, RunnerError> {
        let path = Journal::path(dir);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| RunnerError::Journal(format!("{}: {e}", path.display())))?;
        let value = schema::parse(&text)
            .map_err(|e| RunnerError::Journal(format!("{}: {e}", path.display())))?;
        Journal::from_json(&value)
            .map_err(|e| RunnerError::Journal(format!("{}: {e}", path.display())))
    }

    /// Rebuilds the [`RunnerConfig`] this journal echoes, rooted at
    /// `dir` (so a moved run directory still resumes).
    pub fn to_config(&self, dir: &Path) -> RunnerConfig {
        let mut cfg = self.config.clone();
        cfg.run_dir = Some(dir.to_path_buf());
        cfg
    }

    /// Renders the journal as a JSON value.
    pub fn to_json(&self) -> Json {
        let cfg = &self.config;
        let opt_path = |p: &Option<PathBuf>| match p {
            Some(p) => Json::str(p.to_string_lossy()),
            None => Json::Null,
        };
        let config = Json::obj(vec![
            ("label".into(), Json::str(cfg.label.clone())),
            ("data".into(), Json::str(cfg.data.name())),
            ("model".into(), Json::str(cfg.model.name())),
            ("width".into(), Json::Num(f64::from(cfg.model.width))),
            ("method".into(), Json::str(cfg.method.cli_name())),
            ("sp".into(), Json::Num(f64::from(cfg.method.sp()))),
            ("keep".into(), Json::Num(f64::from(cfg.method.keep_ratio()))),
            ("seed".into(), Json::hex(cfg.seed)),
            ("prune_seed".into(), Json::hex(cfg.prune_seed)),
            (
                "pretrain_epochs".into(),
                Json::Num(cfg.budget.pretrain_epochs as f64),
            ),
            (
                "finetune_epochs".into(),
                Json::Num(cfg.budget.finetune_epochs as f64),
            ),
            (
                "rl_episodes".into(),
                Json::Num(cfg.budget.rl_episodes as f64),
            ),
            (
                "rl_eval_images".into(),
                Json::Num(cfg.budget.rl_eval_images as f64),
            ),
            ("checkpoint".into(), opt_path(&cfg.checkpoint)),
            ("compact".into(), Json::Bool(cfg.compact)),
            ("workers".into(), Json::Num(cfg.workers as f64)),
            ("artifact".into(), opt_path(&cfg.artifact)),
            ("telemetry".into(), opt_path(&cfg.telemetry)),
            ("metrics".into(), opt_path(&cfg.metrics)),
            (
                "log_level".into(),
                match cfg.log_level {
                    Some(level) => Json::str(level.as_str()),
                    None => Json::Null,
                },
            ),
        ]);
        let units = self
            .units
            .iter()
            .map(|u| {
                Json::obj(vec![
                    ("ordinal".into(), Json::Num(u.ordinal as f64)),
                    ("conv_node".into(), Json::Num(u.conv_node as f64)),
                    ("maps_before".into(), Json::Num(u.maps_before as f64)),
                    (
                        "keep".into(),
                        Json::Arr(u.keep.iter().map(|&k| Json::Num(k as f64)).collect()),
                    ),
                    (
                        "inception_accuracy".into(),
                        Json::Num(f64::from(u.inception_accuracy)),
                    ),
                    (
                        "finetuned_accuracy".into(),
                        Json::Num(f64::from(u.finetuned_accuracy)),
                    ),
                    ("params_after".into(), Json::hex(u.params_after)),
                    ("flops_after".into(), Json::hex(u.flops_after)),
                    ("checkpoint".into(), Json::str(u.checkpoint.clone())),
                    ("rng_after".into(), snapshot_to_json(&u.rng_after)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("version".into(), Json::Num(JOURNAL_VERSION as f64)),
            ("config".into(), config),
            ("stage".into(), Json::str(self.stage.as_str())),
            (
                "original_accuracy".into(),
                Json::Num(f64::from(self.original_accuracy)),
            ),
            ("units".into(), Json::Arr(units)),
            (
                "final_accuracy".into(),
                match self.final_accuracy {
                    Some(a) => Json::Num(f64::from(a)),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parses a journal from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(value: &Json) -> Result<Journal, String> {
        let obj = value.as_obj().ok_or("journal is not a JSON object")?;
        let version = obj.num("version")? as u64;
        if version != JOURNAL_VERSION {
            return Err(format!("unsupported journal version {version}"));
        }
        let cfg_obj = obj
            .get("config")
            .and_then(Json::as_obj)
            .ok_or("missing `config` object")?;

        let mut cfg = RunnerConfig::new(cfg_obj.str("label")?);
        cfg.data = DataChoice::parse(cfg_obj.str("data")?)?;
        cfg.model = ModelChoice::parse(cfg_obj.str("model")?, cfg_obj.num("width")? as f32)
            .map_err(|e| e.to_string())?;
        cfg.method = Method::parse(
            cfg_obj.str("method")?,
            cfg_obj.num("sp")? as f32,
            cfg_obj.num("keep")? as f32,
        )
        .map_err(|e| e.to_string())?;
        cfg.seed = cfg_obj.hex("seed")?;
        cfg.prune_seed = cfg_obj.hex("prune_seed")?;
        cfg.budget.pretrain_epochs = cfg_obj.num("pretrain_epochs")? as usize;
        cfg.budget.finetune_epochs = cfg_obj.num("finetune_epochs")? as usize;
        cfg.budget.rl_episodes = cfg_obj.num("rl_episodes")? as usize;
        cfg.budget.rl_eval_images = cfg_obj.num("rl_eval_images")? as usize;
        cfg.checkpoint = cfg_obj.opt_str("checkpoint")?.map(PathBuf::from);
        // Absent in journals written before the compact stage existed.
        cfg.compact = match cfg_obj.get("compact") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("`compact` is not a boolean".to_string()),
        };
        // Absent in journals written before sharded evaluation existed.
        cfg.workers = match cfg_obj.get("workers") {
            None | Some(Json::Null) => 1,
            Some(Json::Num(n)) if *n >= 1.0 => *n as usize,
            Some(_) => return Err("`workers` is not a positive number".to_string()),
        };
        cfg.artifact = cfg_obj.opt_str("artifact")?.map(PathBuf::from);
        cfg.telemetry = cfg_obj.opt_str("telemetry")?.map(PathBuf::from);
        cfg.metrics = cfg_obj.opt_str("metrics")?.map(PathBuf::from);
        cfg.log_level = match cfg_obj.get("log_level") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let name = v.as_str().ok_or("`log_level` is not a string")?;
                Some(
                    hs_telemetry::Level::parse(name)
                        .ok_or_else(|| format!("unknown log level `{name}`"))?,
                )
            }
        };

        let stage = Stage::parse(obj.str("stage")?)?;
        let original_accuracy = obj.num("original_accuracy")? as f32;
        let final_accuracy = match obj.get("final_accuracy") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_num().ok_or("`final_accuracy` is not a number")? as f32),
        };

        let units_arr = match obj.get("units") {
            Some(Json::Arr(items)) => items,
            _ => return Err("missing `units` array".to_string()),
        };
        let mut units = Vec::with_capacity(units_arr.len());
        for (i, item) in units_arr.iter().enumerate() {
            let u = item
                .as_obj()
                .ok_or_else(|| format!("unit {i} is not an object"))?;
            let keep = match u.get("keep") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|k| {
                        k.as_num()
                            .map(|n| n as usize)
                            .ok_or_else(|| format!("unit {i}: non-numeric keep entry"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?,
                _ => return Err(format!("unit {i}: missing `keep` array")),
            };
            let record = UnitRecord {
                ordinal: u.num("ordinal")? as usize,
                conv_node: u.num("conv_node")? as usize,
                maps_before: u.num("maps_before")? as usize,
                keep,
                inception_accuracy: u.num("inception_accuracy")? as f32,
                finetuned_accuracy: u.num("finetuned_accuracy")? as f32,
                params_after: u.hex("params_after")?,
                flops_after: u.hex("flops_after")?,
                checkpoint: u.str("checkpoint")?.to_string(),
                rng_after: snapshot_from_json(
                    u.get("rng_after")
                        .ok_or_else(|| format!("unit {i}: missing `rng_after`"))?,
                )
                .map_err(|e| format!("unit {i}: {e}"))?,
            };
            if record.ordinal != i {
                return Err(format!(
                    "unit {i} records ordinal {} — journal is out of order",
                    record.ordinal
                ));
            }
            units.push(record);
        }

        Ok(Journal {
            config: cfg,
            stage,
            original_accuracy,
            units,
            final_accuracy,
        })
    }
}

fn snapshot_to_json(s: &RngSnapshot) -> Json {
    Json::obj(vec![
        (
            "state".into(),
            Json::Arr(s.state.iter().map(|&w| Json::hex(w)).collect()),
        ),
        (
            "gauss".into(),
            match s.gauss_cache {
                Some(g) => Json::Num(f64::from(g)),
                None => Json::Null,
            },
        ),
    ])
}

fn snapshot_from_json(value: &Json) -> Result<RngSnapshot, String> {
    let obj = value.as_obj().ok_or("`rng_after` is not an object")?;
    let words = match obj.get("state") {
        Some(Json::Arr(items)) if items.len() == 4 => items,
        _ => return Err("`state` is not a 4-element array".to_string()),
    };
    let mut state = [0u64; 4];
    for (slot, w) in state.iter_mut().zip(words) {
        let s = w.as_str().ok_or("`state` word is not a string")?;
        *slot = schema::parse_hex(s)?;
    }
    let gauss_cache = match obj.get("gauss") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_num().ok_or("`gauss` is not a number")? as f32),
    };
    Ok(RngSnapshot { state, gauss_cache })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use hs_tensor::Rng;

    fn sample_journal() -> Journal {
        let mut cfg = RunnerConfig::new("journal-test");
        cfg.budget = Budget::smoke();
        cfg.seed = u64::MAX - 3; // exercises the full u64 range
        cfg.prune_seed = 7;
        cfg.checkpoint = Some(PathBuf::from("run/pretrained.hsck"));
        cfg.compact = true; // exercises the boolean config echo
        cfg.workers = 6; // exercises the numeric config echo
        let mut rng = Rng::seed_from(123);
        let _ = rng.normal(); // odd draw count leaves a gauss cache behind
        let mut journal = Journal::new(cfg, 0.25);
        journal.units.push(UnitRecord {
            ordinal: 0,
            conv_node: 2,
            maps_before: 8,
            keep: vec![0, 3, 5, 7],
            inception_accuracy: 0.125,
            finetuned_accuracy: 0.375,
            params_after: (1 << 60) + 17, // would round as a JSON double
            flops_after: 99,
            checkpoint: "unit-00.hsck".to_string(),
            rng_after: rng.snapshot(),
        });
        journal
    }

    #[test]
    fn journal_round_trips_bit_exactly() {
        let journal = sample_journal();
        let text = journal.to_json().render();
        let parsed = Journal::from_json(&schema::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, journal);
        // The RNG continues identically from the round-tripped snapshot.
        let mut a = Rng::from_snapshot(journal.units[0].rng_after);
        let mut b = Rng::from_snapshot(parsed.units[0].rng_after);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert!(a.normal() == b.normal());
        }
    }

    #[test]
    fn journal_saves_and_loads_from_a_run_dir() {
        let dir = std::env::temp_dir().join(format!("hs-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut journal = sample_journal();
        journal.save(&dir).unwrap();
        assert_eq!(Journal::load(&dir).unwrap(), journal);
        // Saves replace atomically: no .tmp litter, updates visible.
        journal.stage = Stage::Finalized;
        journal.final_accuracy = Some(0.5);
        journal.save(&dir).unwrap();
        assert_eq!(Journal::load(&dir).unwrap().stage, Stage::Finalized);
        assert!(!dir.join(format!("{JOURNAL_FILE}.tmp")).exists());
        let cfg = Journal::load(&dir).unwrap().to_config(&dir);
        assert_eq!(cfg.run_dir.as_deref(), Some(dir.as_path()));
        assert_eq!(cfg.seed, u64::MAX - 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journals_without_workers_default_to_one() {
        // Journals written before sharded evaluation existed have no
        // `workers` key; they must still load (as a serial run).
        let rendered = sample_journal().to_json().render();
        let legacy = rendered.replace("\"workers\": 6,", "");
        assert_ne!(legacy, rendered);
        let parsed = Journal::from_json(&schema::parse(&legacy).unwrap()).unwrap();
        assert_eq!(parsed.config.workers, 1);

        let broken = rendered.replace("\"workers\": 6", "\"workers\": \"many\"");
        assert!(Journal::from_json(&schema::parse(&broken).unwrap()).is_err());
    }

    #[test]
    fn malformed_journals_are_rejected_with_context() {
        let missing = Journal::load(Path::new("/nonexistent-hs-run"));
        assert!(matches!(missing, Err(RunnerError::Journal(_))));

        let journal = sample_journal();
        let rendered = journal.to_json().render();
        for (needle, replacement) in [
            ("\"version\": 1", "\"version\": 9"),
            ("\"prepared\"", "\"warp-speed\""),
            ("\"0x7\"", "\"7g\""), // prune_seed loses its hex prefix
        ] {
            let broken = rendered.replace(needle, replacement);
            assert_ne!(broken, rendered, "needle `{needle}` not found");
            let parsed = schema::parse(&broken).unwrap();
            assert!(
                Journal::from_json(&parsed).is_err(),
                "accepted {replacement}"
            );
        }
    }
}
