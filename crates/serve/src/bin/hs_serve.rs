//! `hs_serve` — serve a finished HeadStart run under a load plan.
//!
//! ```text
//! hs_serve --manifest runs/demo --plan load.json \
//!          --telemetry serve.jsonl --metrics serve.prom --report serve.json
//! ```
//!
//! The manifest (written by `hs_run --run-dir`) pairs the dense and
//! pruned checkpoints of one run; `hs_serve` loads both (with
//! retry/backoff — survive `HS_FAULT=load_fail:model_load` /
//! `corrupt:model_load`), builds the virtual-time serving engine over
//! the run's deterministic test split, and replays the plan written by
//! `hs_loadgen`. Overload behaviour (shedding, breaker, degradation to
//! the pruned model) is fully reproducible: same manifest + same plan
//! + same `HS_FAULT` ⇒ the same outcome sequence.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hs_runner::ServeManifest;
use hs_serve::{
    load_with_retry, LoadSpec, ModelSlots, Outcome, Plan, RetryPolicy, ServeConfig, ServeEngine,
    ServeError, SlotKind,
};
use hs_telemetry::io::write_json;
use hs_telemetry::schema::Json;
use hs_telemetry::{Level, TelemetryConfig};
use hs_tensor::Rng;

struct Cli {
    manifest: PathBuf,
    plan: Option<PathBuf>,
    report: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    metrics: Option<PathBuf>,
    flight: Option<PathBuf>,
    flight_events: usize,
    log_level: Option<Level>,
    seed: u64,
    cfg: ServeConfig,
}

fn usage() {
    eprintln!(
        "usage: hs_serve --manifest PATH [--plan PATH.json]\n\
         \x20              [--report PATH.json] [--telemetry PATH.jsonl] [--metrics PATH.prom]\n\
         \x20              [--flight PATH.json] [--flight-events N]\n\
         \x20              [--log-level error|warn|info|debug|trace] [--seed N] [--trace-seed N]\n\
         \x20              [--slo-target F] [--slo-window N]\n\
         \x20              [--queue-capacity N] [--batch-max N] [--linger-us N]\n\
         \x20              [--base-cost-us N] [--per-item-us N] [--batch-timeout-us N]\n\
         \x20              [--breaker-threshold N] [--breaker-cooldown-us N] [--slow-factor N]\n\
         \x20              [--degrade-high N] [--overload-strikes N]\n\
         \x20              [--recover-low N] [--recovery-batches N]\n\
         \n\
         \x20 --manifest PATH  serve manifest (or run directory) from `hs_run --run-dir`\n\
         \x20 --plan PATH      load plan from `hs_loadgen` (default: a built-in open loop)\n\
         \x20 --flight PATH    arm the flight recorder; breaker trips and sustained\n\
         \x20                  overload snapshot the last --flight-events events there\n\
         \x20 --trace-seed N   seed for request/batch/breaker trace-id derivation\n\
         \x20 --slo-target F   required deadline-hit ratio per SLO window (default 0.9)\n\
         \x20 --slo-window N   SLO window in terminal outcomes per class (0 disables)\n\
         \x20 HS_FAULT=kind:site[:n],...  arm deterministic fault injection\n\
         \x20   serve sites: slow_infer:infer, load_fail:model_load, corrupt:model_load"
    );
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        manifest: PathBuf::new(),
        plan: None,
        report: None,
        telemetry: None,
        metrics: None,
        flight: None,
        flight_events: 64,
        log_level: None,
        seed: 0x4853,
        cfg: ServeConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--manifest" => cli.manifest = PathBuf::from(value),
            "--plan" => cli.plan = Some(PathBuf::from(value)),
            "--report" => cli.report = Some(PathBuf::from(value)),
            "--telemetry" => cli.telemetry = Some(PathBuf::from(value)),
            "--metrics" => cli.metrics = Some(PathBuf::from(value)),
            "--flight" => cli.flight = Some(PathBuf::from(value)),
            "--flight-events" => cli.flight_events = value.parse().map_err(|_| bad("integer"))?,
            "--trace-seed" => cli.cfg.trace_seed = value.parse().map_err(|_| bad("integer"))?,
            "--slo-target" => cli.cfg.slo_target = value.parse().map_err(|_| bad("a float"))?,
            "--slo-window" => cli.cfg.slo_window = value.parse().map_err(|_| bad("integer"))?,
            "--log-level" => {
                cli.log_level = Some(Level::parse(value).ok_or_else(|| bad("a log level"))?)
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad("integer"))?,
            "--queue-capacity" => {
                cli.cfg.queue_capacity = value.parse().map_err(|_| bad("integer"))?
            }
            "--batch-max" => cli.cfg.batch_max = value.parse().map_err(|_| bad("integer"))?,
            "--linger-us" => cli.cfg.linger = value.parse().map_err(|_| bad("integer"))?,
            "--base-cost-us" => cli.cfg.base_cost = value.parse().map_err(|_| bad("integer"))?,
            "--per-item-us" => cli.cfg.per_item_cost = value.parse().map_err(|_| bad("integer"))?,
            "--batch-timeout-us" => {
                cli.cfg.batch_timeout = value.parse().map_err(|_| bad("integer"))?
            }
            "--breaker-threshold" => {
                cli.cfg.breaker_threshold = value.parse().map_err(|_| bad("integer"))?
            }
            "--breaker-cooldown-us" => {
                cli.cfg.breaker_cooldown = value.parse().map_err(|_| bad("integer"))?
            }
            "--slow-factor" => cli.cfg.slow_factor = value.parse().map_err(|_| bad("integer"))?,
            "--degrade-high" => cli.cfg.degrade_high = value.parse().map_err(|_| bad("integer"))?,
            "--overload-strikes" => {
                cli.cfg.overload_strikes = value.parse().map_err(|_| bad("integer"))?
            }
            "--recover-low" => cli.cfg.recover_low = value.parse().map_err(|_| bad("integer"))?,
            "--recovery-batches" => {
                cli.cfg.recovery_batches = value.parse().map_err(|_| bad("integer"))?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    if cli.manifest.as_os_str().is_empty() {
        return Err("--manifest is required".to_string());
    }
    Ok(cli)
}

fn serve(cli: &Cli) -> Result<(), ServeError> {
    let manifest_dir = if cli.manifest.is_dir() {
        cli.manifest.clone()
    } else {
        cli.manifest
            .parent()
            .unwrap_or(Path::new("."))
            .to_path_buf()
    };
    let manifest =
        ServeManifest::load(&cli.manifest).map_err(|e| ServeError::BadConfig(e.to_string()))?;
    let mut cfg = cli.cfg;
    cfg.pruned_cost_scale = manifest.pruned_cost_scale();
    hs_telemetry::log(
        Level::Info,
        "serve",
        format!(
            "serving `{}`: dense {} / pruned {} (cost scale {:.3})",
            manifest.label,
            hs_runner::pct(manifest.dense_accuracy),
            hs_runner::pct(manifest.pruned_accuracy),
            cfg.pruned_cost_scale,
        ),
    );

    let ds =
        hs_data::cached(&manifest.data.spec()).map_err(|e| ServeError::BadConfig(e.to_string()))?;
    let inputs = ds.test_images.clone();

    let mut rng = Rng::seed_from(cli.seed);
    let mut clock = 0;
    let policy = RetryPolicy::default();
    let dense = load_with_retry(
        &manifest.dense_path(&manifest_dir),
        SlotKind::Dense,
        policy,
        &mut rng,
        &mut clock,
    )?;
    // Prefer the structurally compacted variant for the degraded tier —
    // it runs dense kernels at physically reduced shapes — and fall
    // back to the masked-dense pruned checkpoint when the manifest
    // predates the compact stage or the file is gone.
    let pruned_path = match manifest.pruned_compact_path(&manifest_dir) {
        Some(p) if p.exists() => {
            hs_telemetry::log(
                Level::Info,
                "serve",
                format!("degraded tier: compacted checkpoint {}", p.display()),
            );
            p
        }
        Some(p) => {
            hs_telemetry::log(
                Level::Warn,
                "serve",
                format!(
                    "manifest names compacted checkpoint {} but it is missing; \
                     falling back to masked-dense pruned model",
                    p.display()
                ),
            );
            manifest.pruned_path(&manifest_dir)
        }
        None => manifest.pruned_path(&manifest_dir),
    };
    let pruned = load_with_retry(&pruned_path, SlotKind::Pruned, policy, &mut rng, &mut clock)?;

    let plan = match &cli.plan {
        Some(path) => Plan::load(path)?,
        None => Plan::Open(
            LoadSpec {
                seed: cli.seed,
                ..LoadSpec::default()
            }
            .open_profile(),
        ),
    };
    let mut engine = ServeEngine::new(cfg, ModelSlots::new(dense, pruned), inputs)?;
    let outcomes = plan.drive(&mut engine)?;
    let s = engine.summary();

    println!(
        "{}: {} requests -> {} completed, {} shed ({} queue_full, {} deadline_unmeetable, \
         {} deadline_expired) | {} batches, {} timeouts, {} breaker trips, \
         {} degrades, {} restores",
        manifest.label,
        s.submitted,
        s.completed,
        s.rejected_total(),
        s.rejected_queue_full,
        s.rejected_unmeetable,
        s.rejected_expired,
        s.batches,
        s.batch_timeouts,
        s.breaker_trips,
        s.degrades,
        s.restores,
    );

    if let Some(path) = &cli.report {
        write_json(path, &report_json(&manifest, &s, &outcomes))?;
        hs_telemetry::artifact(&manifest.label, path);
    }
    Ok(())
}

fn report_json(manifest: &ServeManifest, s: &hs_serve::ServeSummary, outcomes: &[Outcome]) -> Json {
    let mean_latency = if s.completed > 0 {
        s.total_latency_micros as f64 / s.completed as f64
    } else {
        0.0
    };
    let pruned_served = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Completed(r) if r.model == SlotKind::Pruned))
        .count();
    Json::obj(vec![
        ("label".into(), Json::str(manifest.label.clone())),
        ("submitted".into(), Json::Num(s.submitted as f64)),
        ("completed".into(), Json::Num(s.completed as f64)),
        ("completed_pruned".into(), Json::Num(pruned_served as f64)),
        (
            "rejected_queue_full".into(),
            Json::Num(s.rejected_queue_full as f64),
        ),
        (
            "rejected_deadline_unmeetable".into(),
            Json::Num(s.rejected_unmeetable as f64),
        ),
        (
            "rejected_deadline_expired".into(),
            Json::Num(s.rejected_expired as f64),
        ),
        ("batches".into(), Json::Num(s.batches as f64)),
        ("batch_timeouts".into(), Json::Num(s.batch_timeouts as f64)),
        ("breaker_trips".into(), Json::Num(s.breaker_trips as f64)),
        ("degrades".into(), Json::Num(s.degrades as f64)),
        ("restores".into(), Json::Num(s.restores as f64)),
        (
            "mean_latency_micros".into(),
            Json::Num((mean_latency * 1e3).round() / 1e3),
        ),
        (
            "max_latency_micros".into(),
            Json::Num(s.max_latency_micros as f64),
        ),
        ("slo_burns".into(), Json::Num(s.slo_burns as f64)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    if let Err(e) = hs_telemetry::faults::arm_from_env() {
        eprintln!("hs_serve: {e}");
        return ExitCode::FAILURE;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hs_serve: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = hs_telemetry::configure(&TelemetryConfig {
        stderr_level: cli.log_level,
        jsonl: cli.telemetry.clone(),
    }) {
        eprintln!("hs_serve: telemetry: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &cli.flight {
        hs_telemetry::flight::arm(cli.flight_events, path.clone());
    }
    let result = serve(&cli);
    hs_telemetry::flush_metrics();
    if let Some(path) = &cli.metrics {
        if let Err(e) = hs_telemetry::io::atomic_write_as(
            path,
            "metrics",
            hs_telemetry::metrics::render_prometheus().as_bytes(),
        ) {
            eprintln!("hs_serve: metrics: {e}");
        }
    }
    hs_telemetry::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hs_serve: {e}");
            ExitCode::FAILURE
        }
    }
}
