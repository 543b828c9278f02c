//! `hs_serve` — serve a finished HeadStart run under a load plan, on one
//! engine or on a replicated fleet.
//!
//! ```text
//! hs_serve --manifest runs/demo --plan load.json \
//!          --telemetry serve.jsonl --metrics serve.prom --report serve.json
//! hs_serve --manifest runs/demo --plan load.json --replicas 3 --balancer jsq \
//!          --telemetry fleet.jsonl --report fleet.json
//! ```
//!
//! The manifest (written by `hs_run --run-dir`) pairs the dense and
//! pruned checkpoints of one run; `hs_serve` loads both (with
//! retry/backoff — survive `HS_FAULT=load_fail:model_load` /
//! `corrupt:model_load`) over the run's deterministic test split and
//! replays the plan written by `hs_loadgen`.
//!
//! - `--replicas 1` (the default) replays through one `ServeEngine`:
//!   shedding, breaker and degradation to the pruned model, for open
//!   and closed plans.
//! - `--replicas N` (N ≥ 2) clones the pair into N engines behind the
//!   fleet front door (balancer, tenant quotas, priority shedding,
//!   hedging, health-checked failover) and replays open plans. Replica
//!   chaos comes from the seeded fault registry, e.g.
//!   `HS_FAULT=replica_crash:replica1:5` kills replica 1 at probe 5.
//!
//! Everything runs in virtual time: the same manifest, plan, flags and
//! `HS_FAULT` give the same outcome sequence, report and telemetry
//! (modulo wall-clock `secs`/`ts` suffixes).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hs_fleet::{drive_fleet_open, BalancerPolicy, FleetConfig, FleetEngine, FleetOutcome};
use hs_serve::{
    load_with_retry, LoadSpec, ModelSlots, Outcome, Plan, RetryPolicy, ServeEngine, ServeError,
    ServeManifest, SlotKind,
};
use hs_telemetry::flags::Flags;
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
    /// `replicas == 1` serves on the bare engine configured by `serve`.
    cfg: FleetConfig,
}

const USAGE: &str = "usage: hs_serve --manifest PATH [--plan PATH.json]
               [--report PATH.json] [--telemetry PATH.jsonl] [--metrics PATH.prom]
               [--flight PATH.json] [--flight-events N]
               [--log-level error|warn|info|debug|trace] [--seed N] [--trace-seed N]
               [--slo-target F] [--slo-window N]
               [--queue-capacity N] [--batch-max N] [--linger-us N]
               [--base-cost-us N] [--per-item-us N] [--batch-timeout-us N]
               [--breaker-threshold N] [--breaker-cooldown-us N] [--slow-factor N]
               [--degrade-high N] [--overload-strikes N]
               [--recover-low N] [--recovery-batches N]
               [--replicas N] [--balancer round_robin|jsq|p2c]
               [--probe-every-us N] [--suspect-after N] [--eject-after N]
               [--recover-after N] [--hedge-after-us N] [--hedge-budget N]
               [--slow-multiplier N] [--tenant-quota N] [--shed-min-class N]

  --manifest PATH    serve manifest (or run directory) from `hs_run --run-dir`
  --plan PATH        load plan from `hs_loadgen` (default: a built-in open loop)
  --flight PATH      arm the flight recorder; breaker trips and sustained
                     overload snapshot the last --flight-events events there
  --trace-seed N     seed for request/batch/breaker trace-id derivation
  --slo-target F     required deadline-hit ratio per SLO window (default 0.9)
  --slo-window N     SLO window in terminal outcomes per class (0 disables)
  --replicas N       engines behind the fleet front door (default 1: one bare
                     engine; N >= 2 replays open-loop plans only, and the
                     flags below need it)
  --balancer P       routing policy (default round_robin)
  --probe-every-us N health-probe cadence on the virtual clock (0 disables)
  --hedge-after-us N hedge stragglers after this long (0 disables)
  --hedge-budget N   global hedge-launch budget
  --tenant-quota N   max in-flight requests per tenant (0 = unlimited)
  --shed-min-class N while degraded, shed SLO classes >= N at the door
  HS_FAULT=kind:site[:n],...  arm deterministic fault injection
    serve sites: slow_infer:infer, load_fail:model_load, corrupt:model_load
    fleet sites: replica_crash|replica_slow|replica_flap|probe_loss at replica<K>";

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    const INT: &str = "integer";
    let mut f = Flags::new(args);
    let mut cfg = FleetConfig {
        replicas: 1,
        ..FleetConfig::default()
    };
    let s = &mut cfg.serve;
    f.set("--queue-capacity", INT, &mut s.queue_capacity)?;
    f.set("--batch-max", INT, &mut s.batch_max)?;
    f.set("--linger-us", INT, &mut s.linger)?;
    f.set("--base-cost-us", INT, &mut s.base_cost)?;
    f.set("--per-item-us", INT, &mut s.per_item_cost)?;
    f.set("--batch-timeout-us", INT, &mut s.batch_timeout)?;
    f.set("--breaker-threshold", INT, &mut s.breaker_threshold)?;
    f.set("--breaker-cooldown-us", INT, &mut s.breaker_cooldown)?;
    f.set("--slow-factor", INT, &mut s.slow_factor)?;
    f.set("--degrade-high", INT, &mut s.degrade_high)?;
    f.set("--overload-strikes", INT, &mut s.overload_strikes)?;
    f.set("--recover-low", INT, &mut s.recover_low)?;
    f.set("--recovery-batches", INT, &mut s.recovery_batches)?;
    f.set("--slo-target", "a float", &mut s.slo_target)?;
    f.set("--slo-window", INT, &mut s.slo_window)?;
    // The bare engine uses the seed as given; a fleet derives each
    // replica's seed from it.
    f.set("--trace-seed", INT, &mut s.trace_seed)?;
    cfg.trace_seed = cfg.serve.trace_seed;
    if let Some(n) = f.count("--replicas")? {
        cfg.replicas = n as usize;
    }
    let fleet_flags = f.taken().len();
    if let Some(policy) = f.parse_with(
        "--balancer",
        "round_robin, jsq, or p2c",
        BalancerPolicy::parse,
    )? {
        cfg.policy = policy;
    }
    f.set("--probe-every-us", INT, &mut cfg.probe_every)?;
    f.set("--suspect-after", INT, &mut cfg.suspect_after)?;
    f.set("--eject-after", INT, &mut cfg.eject_after)?;
    f.set("--recover-after", INT, &mut cfg.recover_after)?;
    f.set("--hedge-after-us", INT, &mut cfg.hedge_after)?;
    f.set("--hedge-budget", INT, &mut cfg.hedge_budget)?;
    f.set("--slow-multiplier", INT, &mut cfg.slow_multiplier)?;
    f.set("--tenant-quota", INT, &mut cfg.tenant_quota)?;
    f.set("--shed-min-class", INT, &mut cfg.shed_min_class)?;
    // A command line written for a fleet must not quietly run one engine.
    if let (1, Some(flag)) = (cfg.replicas, f.taken().get(fleet_flags)) {
        return Err(format!(
            "{flag} configures a fleet: it needs --replicas 2 or more"
        ));
    }
    let cli = Cli {
        manifest: f
            .value("--manifest")?
            .map(PathBuf::from)
            .unwrap_or_default(),
        plan: f.value("--plan")?.map(PathBuf::from),
        report: f.value("--report")?.map(PathBuf::from),
        telemetry: f.value("--telemetry")?.map(PathBuf::from),
        metrics: f.value("--metrics")?.map(PathBuf::from),
        flight: f.value("--flight")?.map(PathBuf::from),
        flight_events: f.parse("--flight-events", INT)?.unwrap_or(64),
        log_level: f.parse_with("--log-level", "a log level", Level::parse)?,
        seed: f.parse("--seed", INT)?.unwrap_or(0x4853),
        cfg,
    };
    f.done()?;
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
    let manifest = ServeManifest::load(&cli.manifest)?;
    let mut cfg = cli.cfg;
    cfg.serve.pruned_cost_scale = manifest.pruned_cost_scale();
    let (target, message) = if cfg.replicas == 1 {
        let pct = |x: f32| format!("{:.2}", x * 100.0);
        let message = format!(
            "serving `{}`: dense {} / pruned {} (cost scale {:.3})",
            manifest.label,
            pct(manifest.dense_accuracy),
            pct(manifest.pruned_accuracy),
            cfg.serve.pruned_cost_scale,
        );
        ("serve", message)
    } else {
        let message = format!(
            "fleet of {} over `{}`: balancer {}, probe every {} us, hedge after {} us",
            cfg.replicas,
            manifest.label,
            cfg.policy.as_str(),
            cfg.probe_every,
            cfg.hedge_after,
        );
        ("fleet", message)
    };
    hs_telemetry::log(Level::Info, target, message);

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
    let fields = if cfg.replicas == 1 {
        let mut engine = ServeEngine::new(cfg.serve, ModelSlots::new(dense, pruned), inputs)?;
        let outcomes = plan.drive(&mut engine)?;
        engine_report(&manifest.label, &engine, &outcomes)
    } else {
        let Plan::Open(profile) = plan else {
            return Err(ServeError::BadConfig(
                "a fleet (--replicas 2 or more) replays open-loop plans only; \
                 regenerate with `hs_loadgen --mode open`"
                    .to_string(),
            ));
        };
        let mut fleet = FleetEngine::new(cfg, dense, pruned, inputs)?;
        let outcomes = drive_fleet_open(&mut fleet, &profile)?;
        fleet_report(&manifest.label, &fleet, &outcomes)
    };
    if let Some(path) = &cli.report {
        let mut report = vec![("label".to_string(), Json::str(manifest.label.clone()))];
        report.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        write_json(path, &Json::obj(report))?;
        hs_telemetry::artifact(&manifest.label, path);
    }
    Ok(())
}

/// Prints the one-engine summary line and returns its report fields.
fn engine_report(
    label: &str,
    engine: &ServeEngine,
    outcomes: &[Outcome],
) -> Vec<(&'static str, Json)> {
    let s = engine.summary();
    println!(
        "{label}: {} requests -> {} completed, {} shed ({} queue_full, {} deadline_unmeetable, \
         {} deadline_expired) | {} batches, {} timeouts, {} breaker trips, \
         {} degrades, {} restores",
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
    let pruned_served = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Completed(r) if r.model == SlotKind::Pruned))
        .count();
    let n = |x: u64| Json::Num(x as f64);
    vec![
        ("submitted", n(s.submitted)),
        ("completed", n(s.completed)),
        ("completed_pruned", n(pruned_served as u64)),
        ("rejected_queue_full", n(s.rejected_queue_full)),
        ("rejected_deadline_unmeetable", n(s.rejected_unmeetable)),
        ("rejected_deadline_expired", n(s.rejected_expired)),
        ("batches", n(s.batches)),
        ("batch_timeouts", n(s.batch_timeouts)),
        ("breaker_trips", n(s.breaker_trips)),
        ("degrades", n(s.degrades)),
        ("restores", n(s.restores)),
        (
            "mean_latency_micros",
            mean_latency(s.total_latency_micros, s.completed),
        ),
        ("max_latency_micros", n(s.max_latency_micros)),
        ("slo_burns", n(s.slo_burns)),
    ]
}

/// Prints the fleet summary line and returns its report fields.
fn fleet_report(
    label: &str,
    fleet: &FleetEngine,
    outcomes: &[FleetOutcome],
) -> Vec<(&'static str, Json)> {
    let s = fleet.summary();
    println!(
        "{label}: {} requests over {} replicas -> {} completed, {} shed \
         ({} replica, {} tenant_quota, {} priority, {} no_replica) | \
         {} failovers, {} ejections, {} recoveries, {} hedges ({} won)",
        s.submitted,
        fleet.replicas(),
        s.completed,
        s.rejected_total(),
        s.rejected_replica,
        s.rejected_tenant_quota,
        s.rejected_priority,
        s.rejected_no_replica,
        s.failovers,
        s.ejections,
        s.recoveries,
        s.hedges_launched,
        s.hedges_won,
    );
    let hedged_completions = outcomes
        .iter()
        .filter(|o| matches!(o, FleetOutcome::Completed { hedged: true, .. }))
        .count();
    let n = |x: u64| Json::Num(x as f64);
    let replicas = (0..fleet.replicas())
        .map(|k| {
            let r = fleet.replica_summary(k);
            Json::obj(vec![
                ("replica".into(), n(k as u64)),
                ("health".into(), Json::str(fleet.health(k).as_str())),
                ("submitted".into(), n(r.submitted)),
                ("completed".into(), n(r.completed)),
                ("batches".into(), n(r.batches)),
                ("degrades".into(), n(r.degrades)),
                ("breaker_trips".into(), n(r.breaker_trips)),
            ])
        })
        .collect();
    vec![
        ("replicas", n(fleet.replicas() as u64)),
        ("submitted", n(s.submitted)),
        ("completed", n(s.completed)),
        ("completed_hedged", n(hedged_completions as u64)),
        ("rejected_replica", n(s.rejected_replica)),
        ("rejected_tenant_quota", n(s.rejected_tenant_quota)),
        ("rejected_priority", n(s.rejected_priority)),
        ("rejected_no_replica", n(s.rejected_no_replica)),
        ("failovers", n(s.failovers)),
        ("failover_sheds", n(s.failover_sheds)),
        ("ejections", n(s.ejections)),
        ("recoveries", n(s.recoveries)),
        ("probes", n(s.probes)),
        ("hedges_launched", n(s.hedges_launched)),
        ("hedges_won", n(s.hedges_won)),
        ("hedges_lost", n(s.hedges_lost)),
        ("hedges_rejected", n(s.hedges_rejected)),
        (
            "mean_latency_micros",
            mean_latency(s.total_latency_micros, s.completed),
        ),
        ("max_latency_micros", n(s.max_latency_micros)),
        ("replica_stats", Json::Arr(replicas)),
    ]
}

/// Mean completion latency, rounded to 1/1000 µs (0 with no completions).
fn mean_latency(total_micros: u64, completed: u64) -> Json {
    let mean = if completed > 0 {
        total_micros as f64 / completed as f64
    } else {
        0.0
    };
    Json::Num((mean * 1e3).round() / 1e3)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = hs_telemetry::faults::arm_from_env() {
        eprintln!("hs_serve: {e}");
        return ExitCode::FAILURE;
    }
    let cli = match parse_args(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hs_serve: {e}");
            eprintln!("{USAGE}");
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
