//! The serve manifest: `serve.manifest.json`, which `hs_run` writes
//! when a journaled pipeline run finalizes. It pairs the **dense** pre-trained checkpoint
//! with the **pruned** inception checkpoint plus everything `hs_serve`
//! needs to load and drive them — dataset/model choice, the target
//! speedup, and the measured accuracy/cost of each slot — so graceful
//! degradation can hot-swap between the two models of *one* run without
//! any extra flags.
//!
//! Checkpoint paths are stored as written (the run directory's own
//! files stay relative) and resolved against the manifest's directory
//! on load, so a moved run directory still serves. Reading and writing
//! use the workspace's one JSON value ([`hs_telemetry::schema::Json`]);
//! writes go through the atomic writer like every other artifact.

use std::path::{Path, PathBuf};

use hs_data::DatasetKind;
use hs_nn::models::ModelKind;
use hs_telemetry::schema::{self, Json};

use crate::error::ServeError;

/// File name of the serve manifest inside a run directory.
pub const MANIFEST_FILE: &str = "serve.manifest.json";

/// Manifest format version (bumped on breaking layout changes).
pub const MANIFEST_VERSION: u64 = 1;

/// Everything `hs_serve` needs to serve one finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeManifest {
    /// Human-readable run label.
    pub label: String,
    /// Dataset the models were trained on (request inputs are drawn
    /// from its deterministic test split).
    pub data: DatasetKind,
    /// Architecture of the dense model.
    pub model: ModelKind,
    /// Width multiplier of the dense model.
    pub width: f32,
    /// The run's target speedup `sp` (dense FLOPs / pruned FLOPs goal).
    pub sp: f32,
    /// Dense (pre-trained) checkpoint path, relative to the manifest's
    /// directory unless absolute.
    pub dense: String,
    /// Pruned (inception) checkpoint path, same resolution rule.
    pub pruned: String,
    /// Test accuracy of the dense model.
    pub dense_accuracy: f32,
    /// Test accuracy of the pruned model.
    pub pruned_accuracy: f32,
    /// Parameter count of the dense model.
    pub dense_params: u64,
    /// Parameter count of the pruned model.
    pub pruned_params: u64,
    /// MAC count of the dense model.
    pub dense_flops: u64,
    /// MAC count of the pruned model.
    pub pruned_flops: u64,
    /// Structurally compacted variant of the pruned checkpoint, when
    /// the run's `--compact` stage produced one (same resolution rule
    /// as `pruned`). `hs_serve` prefers it for the degraded tier and
    /// falls back to the masked-dense `pruned` checkpoint when absent.
    pub pruned_compact: Option<String>,
}

impl ServeManifest {
    /// The manifest path inside a run directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    /// Atomically writes the manifest into `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (site `artifact` for fault
    /// injection).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        hs_telemetry::io::write_json(ServeManifest::path(dir), &self.to_json())
    }

    /// Loads and validates a manifest. `path` may be the manifest file
    /// itself or a run directory containing one.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] when the file is missing, unparsable,
    /// or structurally wrong; the message names the first problem.
    pub fn load(path: &Path) -> Result<ServeManifest, ServeError> {
        let path = if path.is_dir() {
            ServeManifest::path(path)
        } else {
            path.to_path_buf()
        };
        let bad = |e: String| ServeError::BadConfig(format!("{}: {e}", path.display()));
        let text = std::fs::read_to_string(&path).map_err(|e| bad(e.to_string()))?;
        let value = schema::parse(&text).map_err(bad)?;
        ServeManifest::from_json(&value).map_err(bad)
    }

    /// The dense checkpoint path resolved against the manifest's
    /// directory.
    pub fn dense_path(&self, manifest_dir: &Path) -> PathBuf {
        resolve(manifest_dir, &self.dense)
    }

    /// The pruned checkpoint path resolved against the manifest's
    /// directory.
    pub fn pruned_path(&self, manifest_dir: &Path) -> PathBuf {
        resolve(manifest_dir, &self.pruned)
    }

    /// The compacted pruned checkpoint path resolved against the
    /// manifest's directory, when the manifest records one.
    pub fn pruned_compact_path(&self, manifest_dir: &Path) -> Option<PathBuf> {
        self.pruned_compact
            .as_ref()
            .map(|p| resolve(manifest_dir, p))
    }

    /// How much cheaper one pruned inference is than a dense one, as a
    /// multiplier in (0, 1]: the measured FLOP ratio, falling back to
    /// the configured `1/sp` when a count is missing.
    pub fn pruned_cost_scale(&self) -> f64 {
        let ratio = if self.dense_flops > 0 && self.pruned_flops > 0 {
            self.pruned_flops as f64 / self.dense_flops as f64
        } else if self.sp > 1.0 {
            1.0 / f64::from(self.sp)
        } else {
            1.0
        };
        ratio.clamp(0.01, 1.0)
    }

    /// Renders the manifest as a JSON value. The `pruned_compact` key
    /// is emitted only when set, so manifests from runs without a
    /// compact stage are byte-identical to pre-compaction ones.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("version".into(), Json::Num(MANIFEST_VERSION as f64)),
            ("label".into(), Json::str(self.label.clone())),
            ("data".into(), Json::str(self.data.name())),
            ("model".into(), Json::str(self.model.name())),
            ("width".into(), Json::Num(f64::from(self.width))),
            ("sp".into(), Json::Num(f64::from(self.sp))),
            ("dense".into(), Json::str(self.dense.clone())),
            ("pruned".into(), Json::str(self.pruned.clone())),
            (
                "dense_accuracy".into(),
                Json::Num(f64::from(self.dense_accuracy)),
            ),
            (
                "pruned_accuracy".into(),
                Json::Num(f64::from(self.pruned_accuracy)),
            ),
            ("dense_params".into(), Json::hex(self.dense_params)),
            ("pruned_params".into(), Json::hex(self.pruned_params)),
            ("dense_flops".into(), Json::hex(self.dense_flops)),
            ("pruned_flops".into(), Json::hex(self.pruned_flops)),
        ];
        if let Some(p) = &self.pruned_compact {
            fields.push(("pruned_compact".into(), Json::str(p.clone())));
        }
        Json::obj(fields)
    }

    /// Parses a manifest from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(value: &Json) -> Result<ServeManifest, String> {
        let obj = value.as_obj().ok_or("manifest is not a JSON object")?;
        let version = obj.num("version")? as u64;
        if version != MANIFEST_VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        Ok(ServeManifest {
            label: obj.str("label")?.to_string(),
            data: DatasetKind::parse(obj.str("data")?)?,
            model: ModelKind::parse(obj.str("model")?)?,
            width: obj.num("width")? as f32,
            sp: obj.num("sp")? as f32,
            dense: obj.str("dense")?.to_string(),
            pruned: obj.str("pruned")?.to_string(),
            dense_accuracy: obj.num("dense_accuracy")? as f32,
            pruned_accuracy: obj.num("pruned_accuracy")? as f32,
            dense_params: obj.hex("dense_params")?,
            pruned_params: obj.hex("pruned_params")?,
            dense_flops: obj.hex("dense_flops")?,
            pruned_flops: obj.hex("pruned_flops")?,
            // Optional: absent in manifests written before the compact
            // stage existed (still version 1).
            pruned_compact: obj.opt_str("pruned_compact")?.map(String::from),
        })
    }
}

fn resolve(dir: &Path, stored: &str) -> PathBuf {
    let p = Path::new(stored);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        dir.join(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeManifest {
        ServeManifest {
            label: "manifest-test".into(),
            data: DatasetKind::CifarLike,
            model: ModelKind::LeNet,
            width: 1.0,
            sp: 2.0,
            dense: "pretrained.hsck".into(),
            pruned: "final.hsck".into(),
            dense_accuracy: 0.5,
            pruned_accuracy: 0.375,
            dense_params: (1 << 60) + 3, // would round as a JSON double
            pruned_params: 1234,
            dense_flops: 8_000_000,
            pruned_flops: 2_000_000,
            pruned_compact: Some("compact.hsck".into()),
        }
    }

    #[test]
    fn manifest_round_trips_exactly() {
        let manifest = sample();
        let text = manifest.to_json().render();
        let parsed = ServeManifest::from_json(&schema::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn manifest_saves_loads_and_resolves_paths() {
        let dir = std::env::temp_dir().join(format!("hs-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = sample();
        manifest.save(&dir).unwrap();
        // Load by directory and by explicit file path.
        assert_eq!(ServeManifest::load(&dir).unwrap(), manifest);
        let by_file = ServeManifest::load(&ServeManifest::path(&dir)).unwrap();
        assert_eq!(by_file.dense_path(&dir), dir.join("pretrained.hsck"));
        assert_eq!(by_file.pruned_path(&dir), dir.join("final.hsck"));
        assert_eq!(
            by_file.pruned_compact_path(&dir),
            Some(dir.join("compact.hsck"))
        );
        assert!(!dir.join(format!("{MANIFEST_FILE}.tmp")).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_compact_is_optional_on_version_1() {
        // A manifest written before the compact stage existed parses
        // with `pruned_compact: None`, and a compact-less manifest
        // renders without the key at all.
        let mut m = sample();
        m.pruned_compact = None;
        let text = m.to_json().render();
        assert!(!text.contains("pruned_compact"));
        let parsed = ServeManifest::from_json(&schema::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.pruned_compact_path(Path::new("run")), None);
    }

    #[test]
    fn cost_scale_prefers_measured_flops() {
        let mut m = sample();
        assert!((m.pruned_cost_scale() - 0.25).abs() < 1e-9);
        m.pruned_flops = 0; // falls back to 1/sp
        assert!((m.pruned_cost_scale() - 0.5).abs() < 1e-9);
        m.sp = 1.0;
        assert!((m.pruned_cost_scale() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_manifests_are_rejected_with_context() {
        let manifest = sample();
        let rendered = manifest.to_json().render();
        for (needle, replacement) in [
            ("\"version\": 1", "\"version\": 9"),
            ("\"cifar\"", "\"imagenet\""),
            ("\"lenet\"", "\"resnet999\""),
            ("\"dense\": \"pretrained.hsck\"", "\"dense\": 17"),
        ] {
            let broken = rendered.replace(needle, replacement);
            assert_ne!(broken, rendered, "needle `{needle}` not found");
            let parsed = schema::parse(&broken).unwrap();
            assert!(
                ServeManifest::from_json(&parsed).is_err(),
                "accepted {replacement}"
            );
        }
        assert!(ServeManifest::load(Path::new("/nonexistent-hs-manifest")).is_err());
    }
}
