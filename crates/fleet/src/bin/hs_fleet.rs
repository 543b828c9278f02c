//! `hs_fleet` — serve a finished HeadStart run on a replicated fleet.
//!
//! ```text
//! hs_fleet --manifest runs/demo --plan load.json --replicas 3 --balancer jsq \
//!          --telemetry fleet.jsonl --report fleet.json
//! ```
//!
//! Same contract as `hs_serve`, scaled out: the manifest's dense/pruned
//! checkpoint pair is loaded once and cloned into `--replicas`
//! independent engines behind the fleet front door (balancer + tenant
//! quotas + priority shedding + hedging + health-checked failover).
//! Replica chaos comes from the seeded fault registry:
//!
//! ```text
//! HS_FAULT=replica_crash:replica1:5 hs_fleet ...   # kill replica 1 at probe 5
//! ```
//!
//! Everything is virtual-time deterministic — two runs with the same
//! manifest, plan, seed, and `HS_FAULT` emit byte-identical telemetry
//! (modulo wall-clock `secs`/`ts` suffixes) and identical reports.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hs_fleet::{drive_fleet_open, BalancerPolicy, FleetConfig, FleetEngine, FleetOutcome};
use hs_runner::ServeManifest;
use hs_serve::{load_with_retry, Plan, RetryPolicy, ServeError, SlotKind};
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
    log_level: Option<Level>,
    seed: u64,
    cfg: FleetConfig,
}

fn usage() {
    eprintln!(
        "usage: hs_fleet --manifest PATH [--plan PATH.json]\n\
         \x20              [--report PATH.json] [--telemetry PATH.jsonl] [--metrics PATH.prom]\n\
         \x20              [--log-level error|warn|info|debug|trace] [--seed N] [--trace-seed N]\n\
         \x20              [--replicas N] [--balancer round_robin|jsq|p2c]\n\
         \x20              [--probe-every-us N] [--suspect-after N] [--eject-after N]\n\
         \x20              [--recover-after N] [--hedge-after-us N] [--hedge-budget N]\n\
         \x20              [--slow-multiplier N] [--tenant-quota N] [--shed-min-class N]\n\
         \x20              [--queue-capacity N] [--batch-max N] [--linger-us N]\n\
         \x20              [--base-cost-us N] [--per-item-us N] [--batch-timeout-us N]\n\
         \x20              [--breaker-threshold N] [--breaker-cooldown-us N]\n\
         \x20              [--slo-target F] [--slo-window N]\n\
         \n\
         \x20 --manifest PATH    serve manifest (or run directory) from `hs_run --run-dir`\n\
         \x20 --plan PATH        open-loop load plan from `hs_loadgen` (closed plans are\n\
         \x20                    rejected: the fleet driver replays fixed schedules)\n\
         \x20 --replicas N       replica engines behind the front door (default 3)\n\
         \x20 --balancer P       routing policy (default round_robin)\n\
         \x20 --probe-every-us N health-probe cadence on the virtual clock (0 disables)\n\
         \x20 --hedge-after-us N hedge stragglers after this long (0 disables)\n\
         \x20 --hedge-budget N   global hedge-launch budget\n\
         \x20 --tenant-quota N   max in-flight requests per tenant (0 = unlimited)\n\
         \x20 --shed-min-class N while degraded, shed SLO classes >= N at the door\n\
         \x20 HS_FAULT=kind:site[:n],...  arm deterministic fault injection\n\
         \x20   fleet sites: replica_crash|replica_slow|replica_flap|probe_loss at replica<K>"
    );
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        manifest: PathBuf::new(),
        plan: None,
        report: None,
        telemetry: None,
        metrics: None,
        log_level: None,
        seed: 0x4853,
        cfg: FleetConfig::default(),
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
            "--log-level" => {
                cli.log_level = Some(Level::parse(value).ok_or_else(|| bad("a log level"))?)
            }
            "--seed" => cli.seed = value.parse().map_err(|_| bad("integer"))?,
            "--trace-seed" => cli.cfg.trace_seed = value.parse().map_err(|_| bad("integer"))?,
            "--replicas" => {
                cli.cfg.replicas = value.parse().map_err(|_| bad("integer"))?;
                if cli.cfg.replicas == 0 {
                    return Err("--replicas: must be at least 1".to_string());
                }
            }
            "--balancer" => {
                cli.cfg.policy =
                    BalancerPolicy::parse(value).ok_or_else(|| bad("round_robin, jsq, or p2c"))?
            }
            "--probe-every-us" => {
                cli.cfg.probe_every = value.parse().map_err(|_| bad("integer"))?
            }
            "--suspect-after" => {
                cli.cfg.suspect_after = value.parse().map_err(|_| bad("integer"))?
            }
            "--eject-after" => cli.cfg.eject_after = value.parse().map_err(|_| bad("integer"))?,
            "--recover-after" => {
                cli.cfg.recover_after = value.parse().map_err(|_| bad("integer"))?
            }
            "--hedge-after-us" => {
                cli.cfg.hedge_after = value.parse().map_err(|_| bad("integer"))?
            }
            "--hedge-budget" => cli.cfg.hedge_budget = value.parse().map_err(|_| bad("integer"))?,
            "--slow-multiplier" => {
                cli.cfg.slow_multiplier = value.parse().map_err(|_| bad("integer"))?
            }
            "--tenant-quota" => cli.cfg.tenant_quota = value.parse().map_err(|_| bad("integer"))?,
            "--shed-min-class" => {
                cli.cfg.shed_min_class = value.parse().map_err(|_| bad("integer"))?
            }
            "--queue-capacity" => {
                cli.cfg.serve.queue_capacity = value.parse().map_err(|_| bad("integer"))?
            }
            "--batch-max" => cli.cfg.serve.batch_max = value.parse().map_err(|_| bad("integer"))?,
            "--linger-us" => cli.cfg.serve.linger = value.parse().map_err(|_| bad("integer"))?,
            "--base-cost-us" => {
                cli.cfg.serve.base_cost = value.parse().map_err(|_| bad("integer"))?
            }
            "--per-item-us" => {
                cli.cfg.serve.per_item_cost = value.parse().map_err(|_| bad("integer"))?
            }
            "--batch-timeout-us" => {
                cli.cfg.serve.batch_timeout = value.parse().map_err(|_| bad("integer"))?
            }
            "--breaker-threshold" => {
                cli.cfg.serve.breaker_threshold = value.parse().map_err(|_| bad("integer"))?
            }
            "--breaker-cooldown-us" => {
                cli.cfg.serve.breaker_cooldown = value.parse().map_err(|_| bad("integer"))?
            }
            "--slo-target" => {
                cli.cfg.serve.slo_target = value.parse().map_err(|_| bad("a float"))?
            }
            "--slo-window" => {
                cli.cfg.serve.slo_window = value.parse().map_err(|_| bad("integer"))?
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
    cfg.serve.pruned_cost_scale = manifest.pruned_cost_scale();
    hs_telemetry::log(
        Level::Info,
        "fleet",
        format!(
            "fleet of {} over `{}`: balancer {}, probe every {} us, hedge after {} us",
            cfg.replicas.max(1),
            manifest.label,
            cfg.policy.as_str(),
            cfg.probe_every,
            cfg.hedge_after,
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
    let pruned_path = match manifest.pruned_compact_path(&manifest_dir) {
        Some(p) if p.exists() => p,
        _ => manifest.pruned_path(&manifest_dir),
    };
    let pruned = load_with_retry(&pruned_path, SlotKind::Pruned, policy, &mut rng, &mut clock)?;

    let profile = match &cli.plan {
        Some(path) => match Plan::load(path)? {
            Plan::Open(profile) => profile,
            Plan::Closed(_) => {
                return Err(ServeError::BadConfig(
                    "hs_fleet replays open-loop plans only; regenerate with \
                     `hs_loadgen --mode open`"
                        .to_string(),
                ))
            }
        },
        None => hs_serve::LoadSpec {
            seed: cli.seed,
            ..hs_serve::LoadSpec::default()
        }
        .open_profile(),
    };

    let mut fleet = FleetEngine::new(cfg, dense, pruned, inputs)?;
    let outcomes = drive_fleet_open(&mut fleet, &profile)?;
    let s = fleet.summary();

    println!(
        "{}: {} requests over {} replicas -> {} completed, {} shed \
         ({} replica, {} tenant_quota, {} priority, {} no_replica) | \
         {} failovers, {} ejections, {} recoveries, {} hedges ({} won)",
        manifest.label,
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

    if let Some(path) = &cli.report {
        write_json(path, &report_json(&manifest, &fleet, &outcomes))?;
        hs_telemetry::artifact(&manifest.label, path);
    }
    Ok(())
}

fn report_json(manifest: &ServeManifest, fleet: &FleetEngine, outcomes: &[FleetOutcome]) -> Json {
    let s = fleet.summary();
    let mean_latency = if s.completed > 0 {
        s.total_latency_micros as f64 / s.completed as f64
    } else {
        0.0
    };
    let hedged_completions = outcomes
        .iter()
        .filter(|o| matches!(o, FleetOutcome::Completed { hedged: true, .. }))
        .count();
    let replicas: Vec<Json> = (0..fleet.replicas())
        .map(|k| {
            let r = fleet.replica_summary(k);
            Json::obj(vec![
                ("replica".into(), Json::Num(k as f64)),
                ("health".into(), Json::str(fleet.health(k).as_str())),
                ("submitted".into(), Json::Num(r.submitted as f64)),
                ("completed".into(), Json::Num(r.completed as f64)),
                ("batches".into(), Json::Num(r.batches as f64)),
                ("degrades".into(), Json::Num(r.degrades as f64)),
                ("breaker_trips".into(), Json::Num(r.breaker_trips as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("label".into(), Json::str(manifest.label.clone())),
        ("replicas".into(), Json::Num(fleet.replicas() as f64)),
        ("submitted".into(), Json::Num(s.submitted as f64)),
        ("completed".into(), Json::Num(s.completed as f64)),
        (
            "completed_hedged".into(),
            Json::Num(hedged_completions as f64),
        ),
        (
            "rejected_replica".into(),
            Json::Num(s.rejected_replica as f64),
        ),
        (
            "rejected_tenant_quota".into(),
            Json::Num(s.rejected_tenant_quota as f64),
        ),
        (
            "rejected_priority".into(),
            Json::Num(s.rejected_priority as f64),
        ),
        (
            "rejected_no_replica".into(),
            Json::Num(s.rejected_no_replica as f64),
        ),
        ("failovers".into(), Json::Num(s.failovers as f64)),
        ("failover_sheds".into(), Json::Num(s.failover_sheds as f64)),
        ("ejections".into(), Json::Num(s.ejections as f64)),
        ("recoveries".into(), Json::Num(s.recoveries as f64)),
        ("probes".into(), Json::Num(s.probes as f64)),
        (
            "hedges_launched".into(),
            Json::Num(s.hedges_launched as f64),
        ),
        ("hedges_won".into(), Json::Num(s.hedges_won as f64)),
        ("hedges_lost".into(), Json::Num(s.hedges_lost as f64)),
        (
            "hedges_rejected".into(),
            Json::Num(s.hedges_rejected as f64),
        ),
        (
            "mean_latency_micros".into(),
            Json::Num((mean_latency * 1e3).round() / 1e3),
        ),
        (
            "max_latency_micros".into(),
            Json::Num(s.max_latency_micros as f64),
        ),
        ("replica_stats".into(), Json::Arr(replicas)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    if let Err(e) = hs_telemetry::faults::arm_from_env() {
        eprintln!("hs_fleet: {e}");
        return ExitCode::FAILURE;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("hs_fleet: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = hs_telemetry::configure(&TelemetryConfig {
        stderr_level: cli.log_level,
        jsonl: cli.telemetry.clone(),
    }) {
        eprintln!("hs_fleet: telemetry: {e}");
        return ExitCode::FAILURE;
    }
    let result = serve(&cli);
    hs_telemetry::flush_metrics();
    if let Some(path) = &cli.metrics {
        if let Err(e) = hs_telemetry::io::atomic_write_as(
            path,
            "metrics",
            hs_telemetry::metrics::render_prometheus().as_bytes(),
        ) {
            eprintln!("hs_fleet: metrics: {e}");
        }
    }
    hs_telemetry::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hs_fleet: {e}");
            ExitCode::FAILURE
        }
    }
}
