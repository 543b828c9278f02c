//! What every workload shares: the result record, the per-layer metric
//! list, set-up timing, registry deltas and the environment record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use hs_telemetry::metrics::{self, MetricSnapshot};
use hs_telemetry::{Level, TelemetryConfig};

use crate::stats::median;
use crate::trace;

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Every per-layer metric and its unit, in the order `BENCHMARK.json`
/// lists them. Each workload reports all of them; a layer the workload
/// leaves idle reads 0. Counts and registry deltas are per workload run:
/// per pipeline run (`search`), per forward round (`infer`) or per
/// replay (`serve`).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("nn.pretrain_s", "s"),
    ("nn.compact_ms", "ms"),
    ("core.episodes", "count"),
    ("core.candidates", "count"),
    ("core.eval_ms", "ms"),
    ("core.policy_ms", "ms"),
    ("core.unit_gap_s", "s"),
    ("pruning.finetune_epoch_ms", "ms"),
    ("nn.evaluate_ms", "ms"),
    ("coord.items", "count"),
    ("coord.batches", "count"),
    ("coord.utilization", "ratio"),
    ("coord.eval_speedup", "x"),
    ("nn.dense.b32.conv_us", "us"),
    ("nn.dense.b32.bn_us", "us"),
    ("nn.dense.b32.linear_us", "us"),
    ("nn.dense.b32.pool_us", "us"),
    ("nn.dense.b32.pointwise_us", "us"),
    ("nn.dense.b32.glue_us", "us"),
    ("nn.compact.b32.conv_us", "us"),
    ("nn.compact.b32.bn_us", "us"),
    ("nn.compact.b32.linear_us", "us"),
    ("nn.compact.b32.pool_us", "us"),
    ("nn.compact.b32.pointwise_us", "us"),
    ("nn.compact.b32.glue_us", "us"),
    ("nn.compact.b1.conv_us", "us"),
    ("nn.compact.b1.bn_us", "us"),
    ("nn.compact.b1.linear_us", "us"),
    ("nn.compact.b1.pool_us", "us"),
    ("nn.compact.b1.pointwise_us", "us"),
    ("nn.compact.b1.glue_us", "us"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_gflop", "GFLOP"),
    ("tensor.gemm_blocked_s", "s"),
    ("tensor.im2col_mb", "MB"),
    ("tensor.pool_tasks", "count"),
    ("tensor.scratch_highwater_mb", "MB"),
    ("fleet.submit_us", "us"),
    ("fleet.tick_us", "us"),
    ("fleet.hedges", "count"),
    ("fleet.probes", "count"),
    ("serve.batches", "count"),
    ("serve.batch_items", "count"),
    ("serve.shed", "count"),
    ("serve.degrades", "count"),
    ("serve.engine_us_per_req", "us"),
    ("nn.classify_share", "ratio"),
    ("telemetry.events", "count"),
    ("telemetry.mb", "MB"),
    ("telemetry.share", "ratio"),
];

/// Every end-to-end metric and its unit. Each workload gives each one
/// its own reading; see the benchmark's README.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// A workload's result.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry fails the run.
    pub failures: Vec<String>,
    /// End-to-end metric values, by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own headline figures, printed for people.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metric values (traced mode), by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Extra lines the traced mode prints (tables that are not metrics).
    pub notes: Vec<String>,
}

impl Report {
    /// Records an output check; a failed one marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    /// Sets a per-layer metric; the name must be in [`LAYER_METRICS`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let (key, _) = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.layer.insert(key, value);
    }
}

/// Seconds of one call of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs a workload's set-up [`SETUP_REPS`] times. Returns the first
/// state (every repetition must build the same one; `same` compares
/// them) and the median set-up seconds.
pub fn repeat_setup<S, E: std::fmt::Display>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<S, E>,
    same: impl Fn(&S, &S) -> bool,
) -> Result<(S, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut first: Option<S> = None;
    for rep in 0..SETUP_REPS {
        let _span = trace::begin("setup");
        let (state, s) = timed(&mut setup);
        let state = state.map_err(|e| format!("set-up failed: {e}"))?;
        secs.push(s);
        match &first {
            None => first = Some(state),
            Some(f) => {
                report.check(same(f, &state), || {
                    format!("set-up repetition {rep} built a different state")
                });
            }
        }
    }
    Ok((first.expect("SETUP_REPS > 0"), median(&secs)))
}

/// A splitmix64 step: derives independent per-purpose seeds from the
/// one `--seed`.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where runs leave their telemetry streams and traces.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    // A failure here surfaces as an error at the first write.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Configures the program's telemetry as every workload runs it: stderr
/// at warn, and the JSONL stream only where given.
pub fn configure_telemetry(jsonl: Option<PathBuf>) -> std::io::Result<()> {
    hs_telemetry::configure(&TelemetryConfig {
        stderr_level: Some(Level::Warn),
        jsonl,
    })
}

/// The metrics registry flattened to numbers: counters and gauges by
/// name, histograms as `<name>.sum` and `<name>.count`.
pub fn registry() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for m in metrics::snapshot() {
        match m {
            MetricSnapshot::Counter { name, value } => {
                out.insert(name, value as f64);
            }
            MetricSnapshot::Gauge { name, value } => {
                out.insert(name, value);
            }
            MetricSnapshot::Histogram {
                name, count, sum, ..
            } => {
                out.insert(format!("{name}.sum"), sum);
                out.insert(format!("{name}.count"), count as f64);
            }
        }
    }
    out
}

/// Registry counters and histograms since `before`, with the scratch
/// high-water gauge reset so it covers only what follows.
pub struct RegistryDelta {
    before: BTreeMap<String, f64>,
}

const SCRATCH_GAUGE: &str = "hs_tensor_scratch_highwater_bytes";

impl RegistryDelta {
    pub fn start() -> RegistryDelta {
        metrics::gauge(SCRATCH_GAUGE).set(0.0);
        RegistryDelta { before: registry() }
    }

    /// `name`'s growth since [`RegistryDelta::start`].
    pub fn get(&self, now: &BTreeMap<String, f64>, name: &str) -> f64 {
        now.get(name).copied().unwrap_or(0.0) - self.before.get(name).copied().unwrap_or(0.0)
    }

    /// Sets the `tensor.*` per-layer metrics, per workload run.
    pub fn tensor_metrics(&self, report: &mut Report, runs: usize) {
        let now = registry();
        let per = |v: f64| v / runs.max(1) as f64;
        report.layer(
            "tensor.gemm_calls",
            per(self.get(&now, "hs_tensor_gemm_calls_total")),
        );
        report.layer(
            "tensor.gemm_gflop",
            per(self.get(&now, "hs_tensor_gemm_flops_total")) / 1e9,
        );
        report.layer(
            "tensor.gemm_blocked_s",
            per(self.get(&now, "hs_tensor_gemm_secs.sum")),
        );
        report.layer(
            "tensor.im2col_mb",
            per(self.get(&now, "hs_tensor_im2col_bytes_total")) / 1e6,
        );
        report.layer(
            "tensor.pool_tasks",
            per(self.get(&now, "hs_tensor_pool_tasks_total")),
        );
        report.layer(
            "tensor.scratch_highwater_mb",
            now.get(SCRATCH_GAUGE).copied().unwrap_or(0.0) / 1e6,
        );
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Total and stolen CPU ticks of the machine so far (`/proc/stat`); the
/// stolen share over a run says how much a co-tenant took.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// The settings a result depends on, printed with every result.
pub fn environment(workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let hs_threads = std::env::var("HS_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    format!(
        "env: nproc={nproc} pool_threads={} HS_NUM_THREADS={hs_threads} coord_workers={workers} \
         rustc=\"{}\" commit={}",
        hs_tensor::pool::effective_threads(),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
    )
}

/// The commit the checkout was built from, when it is a git checkout.
fn git_commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in LAYER_METRICS.iter().chain(E2E_METRICS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"name\":").count();
        // Three workloads plus every metric.
        assert_eq!(listed, 3 + LAYER_METRICS.len() + E2E_METRICS.len());
    }
}
