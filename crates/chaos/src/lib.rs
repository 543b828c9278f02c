//! Seeded chaos campaigns over the HeadStart workspace: an automated
//! adversary for the fault machinery that PRs 4, 7, and 9 built by
//! hand.
//!
//! The crate has four moving parts:
//!
//! 1. a **schedule generator** ([`generate_plan`]) that samples valid
//!    multi-entry fault plans from the registered kind×site vocabulary
//!    ([`hs_telemetry::faults::KIND_SITES`]) — the plans are never
//!    hardcoded, so a new fault kind registered in the vocabulary is
//!    picked up by the very next campaign;
//! 2. a **campaign runner** ([`run_campaign`]) that executes N seeded
//!    schedules per drivable target — journaled `hs_run` pipelines
//!    (kill/resume/corrupt/torn writes), coordinator worker fleets
//!    (`worker_lost`), and `hs-fleet` replays (`replica_*`,
//!    `probe_loss`) — in-process or via subprocess, in virtual time
//!    where the target supports it (the fleet), byte-reproducibly from
//!    a single campaign seed;
//! 3. **invariant oracles** ([`ORACLES`]) evaluated from journals,
//!    telemetry, and artifacts: run completion, kill+resume bit-parity
//!    to the fault-free `final.hsck`, checkpoint-CRC integrity of every
//!    surviving artifact, ejection liveness (recovery observed once
//!    faults cease), no completed response past its deadline, request
//!    conservation (`completed + shed == submitted`), and telemetry
//!    schema cleanliness;
//! 4. a **delta-debugging shrinker** ([`shrink_plan`]) that minimizes a
//!    failing schedule to a locally-minimal plan and emits it as a
//!    ready-to-paste `HS_FAULT=` spec plus a `repro.json` artifact.
//!
//! Determinism is the load-bearing property: every schedule seed is
//! derived from the campaign seed by a pure mix, every target replays
//! deterministically under a fixed plan, and the campaign report
//! contains only seed-derived values — two runs of
//! `hs_chaos campaign --seed S --schedules N` produce byte-identical
//! reports and repro artifacts.
//!
//! The `HS_CHAOS_BREAK=<oracle>` environment hook deliberately breaks
//! one oracle (it reports a violation whenever the schedule injected at
//! least one fault) so CI can assert the violation→shrink→repro path
//! end to end without shipping a real bug.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use hs_fleet::{drive_fleet_open, BalancerPolicy, FleetConfig, FleetEngine, FleetOutcome};
use hs_nn::infer::SharedNetwork;
use hs_nn::{checkpoint, models};
use hs_runner::{
    resume_run, run, Budget, ModelChoice, ModelKind, RunnerConfig, RunnerError, FINAL_CHECKPOINT,
};
use hs_serve::{LoadSpec, ServeConfig};
use hs_telemetry::faults::{self, Fault, FaultPlan};
use hs_telemetry::schema::{self, Json};
use hs_telemetry::{Level, TelemetryConfig};
use hs_tensor::{Rng, Shape, Tensor};

/// Environment hook that deliberately breaks the named oracle: with
/// `HS_CHAOS_BREAK=conservation`, the conservation oracle reports a
/// violation on every schedule that injected at least one fault. Used
/// by CI to prove the shrinker produces a minimal repro; never set in
/// real campaigns.
pub const BREAK_ENV: &str = "HS_CHAOS_BREAK";

/// Worker-thread count used by the coordinator target's pipelines.
pub const COORD_WORKERS: usize = 2;

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

/// A drivable chaos target: a subsystem the campaign knows how to run
/// under an armed fault plan and check invariants on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// A journaled single-threaded `hs_run` pipeline (LeNet, smoke
    /// budget): kill/resume, IO errors, torn writes, checkpoint
    /// corruption, NaN rewards.
    Pipeline,
    /// The same pipeline with a sharded `hs-coord` evaluation worker
    /// fleet: `worker_lost` mid-batch, still bit-parity to serial.
    Coord,
    /// An in-process `hs-fleet` replay on the virtual clock: replica
    /// crash/slow/flap and probe loss under an open-loop load.
    Fleet,
}

impl Target {
    /// Every target, in campaign execution order.
    pub const ALL: [Target; 3] = [Target::Pipeline, Target::Coord, Target::Fleet];

    /// Stable CLI / report name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Target::Pipeline => "pipeline",
            Target::Coord => "coord",
            Target::Fleet => "fleet",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Target> {
        match name {
            "pipeline" => Some(Target::Pipeline),
            "coord" => Some(Target::Coord),
            "fleet" => Some(Target::Fleet),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

/// Replica count of the fleet target's scenario (fault sites are
/// sampled over `replica0..replica{N-1}`).
pub const FLEET_REPLICAS: usize = 3;

/// Derives the seed of schedule `index` for `target` from the campaign
/// seed — a pure splitmix64 mix, so campaigns are reproducible from one
/// number and targets never share schedule streams.
#[must_use]
pub fn schedule_seed(campaign_seed: u64, target: Target, index: u64) -> u64 {
    let tag = match target {
        Target::Pipeline => 0x70697065,
        Target::Coord => 0x636f6f72,
        Target::Fleet => 0x666c6565,
    };
    splitmix(campaign_seed ^ splitmix(tag) ^ splitmix(index.wrapping_add(1)))
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sampleable `(kind, site, max_nth)` vocabulary of one target,
/// discovered from the fault registry's [`faults::KIND_SITES`] table —
/// not hardcoded, so newly registered kinds flow into campaigns.
#[must_use]
pub fn vocabulary(target: Target) -> Vec<(String, String, u64)> {
    let mut vocab = Vec::new();
    match target {
        Target::Pipeline => {
            // Sites a journaled LeNet smoke run actually consults.
            let sites = [
                "checkpoint",
                "artifact",
                "journal",
                "metrics",
                "pretrain",
                "prune_unit",
                "finalize",
                "layer",
            ];
            // How often one smoke pass actually hits each site, so
            // sampled hit numbers stand a real chance of firing
            // (unfired entries are valid but test nothing).
            let site_hits = |site: &str| match site {
                "checkpoint" => 4, // pretrained + 2 units + final
                "journal" => 4,    // initial save + per-unit + finalize
                "layer" => 4,      // once per REINFORCE episode
                "prune_unit" => 2, // one crash point per pruned unit
                _ => 1,            // artifact/metrics/pretrain/finalize
            };
            for (kind, kind_sites) in faults::KIND_SITES {
                for site in kind_sites {
                    if !sites.contains(site) {
                        continue;
                    }
                    // `corrupt`/`truncate` succeed silently, so a hit on
                    // the *last* checkpoint write (final.hsck, which
                    // nothing re-reads) would corrupt the run's output
                    // with no chance of rewind. The smoke pipeline
                    // writes pretrained + two units before final, so
                    // capping their hit at 3 keeps the tail clean while
                    // still covering every earlier write. Every other
                    // kind fails loudly and is re-driven by resume.
                    let max_nth = match kind {
                        "corrupt" | "truncate" => 3,
                        _ => site_hits(site),
                    };
                    vocab.push((kind.to_string(), (*site).to_string(), max_nth));
                }
            }
        }
        Target::Coord => {
            for (kind, kind_sites) in faults::KIND_SITES {
                match kind {
                    "worker_lost" => {
                        for site in kind_sites {
                            vocab.push((kind.to_string(), (*site).to_string(), 6));
                        }
                    }
                    "kill_after" => {
                        for site in kind_sites {
                            vocab.push((kind.to_string(), (*site).to_string(), 2));
                        }
                    }
                    _ => {}
                }
            }
        }
        Target::Fleet => {
            for (kind, _) in faults::KIND_SITES {
                if !faults::replica_scoped(kind) {
                    continue;
                }
                for k in 0..FLEET_REPLICAS {
                    vocab.push((kind.to_string(), format!("replica{k}"), 8));
                }
            }
        }
    }
    vocab
}

/// Samples one valid multi-entry fault plan for `target` from `seed`.
/// `intensity` caps the entry count (the draw is 1..=intensity);
/// duplicate `(kind, site, nth)` triples are never produced, matching
/// the parser's duplicate rejection.
#[must_use]
pub fn generate_plan(target: Target, seed: u64, intensity: usize) -> FaultPlan {
    let vocab = vocabulary(target);
    let mut rng = Rng::seed_from(seed);
    let want = 1 + rng.below(intensity.max(1));
    let mut faults = Vec::new();
    // Rejection-sample without duplicates; the attempt bound keeps the
    // loop total even when intensity approaches the vocabulary size.
    for _ in 0..want * 8 {
        if faults.len() == want {
            break;
        }
        let (kind, site, max_nth) = &vocab[rng.below(vocab.len())];
        let fault = Fault {
            kind: kind.clone(),
            site: site.clone(),
            nth: 1 + rng.below(*max_nth as usize) as u64,
        };
        if !faults.contains(&fault) {
            faults.push(fault);
        }
    }
    FaultPlan { faults }
}

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// One violated invariant: which oracle flagged it and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Oracle name (`completion`, `parity`, `integrity`, `liveness`,
    /// `deadline`, `conservation`, `telemetry`).
    pub oracle: String,
    /// Human-readable evidence.
    pub detail: String,
}

/// The oracle names a campaign evaluates, for CLI validation and docs.
pub const ORACLES: [&str; 7] = [
    "completion",
    "parity",
    "integrity",
    "liveness",
    "deadline",
    "conservation",
    "telemetry",
];

/// The evaluated result of one schedule: which faults actually fired
/// (from `fault_injected` telemetry) and every invariant violation.
#[derive(Debug, Clone, Default)]
pub struct ScheduleEval {
    /// `(kind, site)` of each fired fault, in firing order.
    pub injected: Vec<(String, String)>,
    /// Violations, empty on a clean schedule.
    pub violations: Vec<Violation>,
}

/// Pipeline fault kinds whose effects must be invisible in the final
/// model bytes (the parity oracle applies only to plans made purely of
/// these). `nan_reward` is excluded on purpose: it perturbs the search
/// *input*, so a different — but still valid and reproducible — model
/// is the expected outcome, not a bug.
fn parity_preserving(kind: &str) -> bool {
    kind != "nan_reward"
}

/// Reads the `HS_CHAOS_BREAK` hook.
fn break_oracle() -> Option<String> {
    std::env::var(BREAK_ENV).ok().filter(|s| !s.is_empty())
}

/// Telemetry-stream oracle helpers: parse the schedule's JSONL, collect
/// fired faults, and lint every line against the schema.
fn scan_telemetry(jsonl: &Path, eval: &mut ScheduleEval) -> Vec<hs_obs::EventRec> {
    let text = std::fs::read_to_string(jsonl).unwrap_or_default();
    for (i, line) in text.lines().enumerate() {
        if let Err(e) = schema::validate_line(line) {
            eval.violations.push(Violation {
                oracle: "telemetry".to_string(),
                detail: format!("line {}: {e}", i + 1),
            });
        }
    }
    let events = match hs_obs::load_events(&text) {
        Ok(events) => events,
        Err(e) => {
            eval.violations.push(Violation {
                oracle: "telemetry".to_string(),
                detail: format!("unreadable event stream: {e}"),
            });
            Vec::new()
        }
    };
    for e in events.iter().filter(|e| e.kind == "fault_injected") {
        if let (Some(kind), Some(site)) = (e.str_field("fault"), e.str_field("site")) {
            eval.injected.push((kind.to_string(), site.to_string()));
        }
    }
    events
}

/// Applies the deliberate-break hook: the named oracle reports a
/// violation whenever the schedule injected at least one fault.
fn apply_break_hook(eval: &mut ScheduleEval) {
    if let Some(oracle) = break_oracle() {
        if !eval.injected.is_empty() {
            eval.violations.push(Violation {
                oracle,
                detail: format!(
                    "deliberately broken by {BREAK_ENV} ({} fault(s) injected)",
                    eval.injected.len()
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline / coord target
// ---------------------------------------------------------------------------

/// The pipeline configuration every pipeline/coord schedule runs: a
/// journaled LeNet smoke run with artifact + metrics outputs, so the
/// `checkpoint`, `journal`, `artifact`, and `metrics` fault sites are
/// all live.
#[must_use]
pub fn pipeline_config(dir: &Path, workers: usize) -> RunnerConfig {
    let mut cfg = RunnerConfig::new("chaos");
    cfg.model = ModelChoice::new(ModelKind::LeNet, 1.0);
    cfg.budget = Budget::smoke();
    cfg.workers = workers;
    cfg.run_dir = Some(dir.to_path_buf());
    cfg.artifact = Some(dir.join("run.json"));
    cfg.metrics = Some(dir.join("metrics.prom"));
    cfg.telemetry = Some(dir.join("telemetry.jsonl"));
    cfg
}

/// Runs one pipeline/coord schedule in `dir` under `plan` and evaluates
/// the pipeline oracles. `reference` is the fault-free `final.hsck`
/// bytes the parity oracle compares against (skipped for plans
/// containing non-parity kinds such as `nan_reward`).
///
/// The drive loop mirrors an operator babysitting a crashing job: run,
/// and on every failure resume from the journal (falling back to a
/// fresh run when the journal itself is the casualty). Each armed fault
/// fires at most once, so `plan.len() + 2` attempts always suffice —
/// exceeding them is itself a `completion` violation.
pub fn run_pipeline_schedule(
    dir: &Path,
    workers: usize,
    plan: &FaultPlan,
    reference: &[u8],
) -> ScheduleEval {
    let mut eval = ScheduleEval::default();
    let cfg = pipeline_config(dir, workers);
    let jsonl = dir.join("telemetry.jsonl");
    let _ = std::fs::create_dir_all(dir);
    let _ = hs_telemetry::configure(&TelemetryConfig {
        stderr_level: Some(Level::Error),
        jsonl: Some(jsonl.clone()),
    });

    faults::arm(plan.clone());
    let mut result = run(&cfg);
    let mut attempts = 0;
    while result.is_err() && attempts < plan.faults.len() + 2 {
        attempts += 1;
        // Harvest the failed pass's stream *before* resuming: the
        // resume reconfigures telemetry onto the same path, which
        // starts a fresh (truncated) stream — scanning later would
        // lose the pass's fault_injected evidence.
        hs_telemetry::flush();
        let _ = scan_telemetry(&jsonl, &mut eval);
        result = match resume_run(dir) {
            // The journal itself was the casualty (torn write, or the
            // crash landed before the first save): start the run over —
            // a fresh journaled run replaces the directory's state and
            // is deterministic, so parity still holds.
            Err(RunnerError::Journal(_)) => run(&cfg),
            other => other,
        };
    }
    faults::disarm();
    hs_telemetry::flush();

    if let Err(e) = &result {
        eval.violations.push(Violation {
            oracle: "completion".to_string(),
            detail: format!("run did not complete after {attempts} resumes: {e}"),
        });
    }
    let _events = scan_telemetry(&jsonl, &mut eval);

    if result.is_ok() {
        // Parity: the surviving final model is bit-identical to the
        // fault-free reference (for parity-preserving plans).
        if plan.faults.iter().all(|f| parity_preserving(&f.kind)) {
            match std::fs::read(dir.join(FINAL_CHECKPOINT)) {
                Ok(bytes) if bytes == reference => {}
                Ok(_) => eval.violations.push(Violation {
                    oracle: "parity".to_string(),
                    detail: "final.hsck differs from the fault-free reference".to_string(),
                }),
                Err(e) => eval.violations.push(Violation {
                    oracle: "parity".to_string(),
                    detail: format!("final.hsck unreadable: {e}"),
                }),
            }
        }
        check_artifact_integrity(dir, &mut eval);
    }
    apply_break_hook(&mut eval);
    eval
}

/// Checkpoint-CRC integrity of every surviving artifact in a completed
/// run directory. Silent-corruption faults (`corrupt`/`truncate`) are
/// *expected* to leave dirt in superseded mid-run checkpoints — those
/// failures are excused when such a fault fired at the `checkpoint`
/// site — but `final.hsck` must always verify (the generator never
/// lands a silent corruption on the last write), and the JSON artifacts
/// of a completed run must always parse.
fn check_artifact_integrity(dir: &Path, eval: &mut ScheduleEval) {
    let dirt_excused = eval.injected.iter().any(|(kind, site)| {
        site == "checkpoint" && matches!(kind.as_str(), "corrupt" | "truncate")
    });
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".hsck"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    for name in names {
        if let Err(e) = checkpoint::load(dir.join(&name)) {
            if name != FINAL_CHECKPOINT && dirt_excused {
                continue;
            }
            eval.violations.push(Violation {
                oracle: "integrity".to_string(),
                detail: format!("{name} fails its checksum: {e}"),
            });
        }
    }
    for name in ["run.json", "run.journal.json"] {
        let path = dir.join(name);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if let Err(e) = schema::parse(&text) {
                    eval.violations.push(Violation {
                        oracle: "integrity".to_string(),
                        detail: format!("{name} does not parse: {e}"),
                    });
                }
            }
            Err(e) => eval.violations.push(Violation {
                oracle: "integrity".to_string(),
                detail: format!("{name} unreadable: {e}"),
            }),
        }
    }
}

/// Runs the fault-free reference pipeline once into `dir` and returns
/// the `final.hsck` bytes every parity check compares against.
///
/// # Errors
///
/// Returns a message when the reference itself fails — the campaign
/// cannot proceed without it.
pub fn reference_final(dir: &Path) -> Result<Vec<u8>, String> {
    faults::disarm();
    let cfg = pipeline_config(dir, 1);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _ = hs_telemetry::configure(&TelemetryConfig {
        stderr_level: Some(Level::Error),
        jsonl: Some(dir.join("telemetry.jsonl")),
    });
    run(&cfg).map_err(|e| format!("reference run failed: {e}"))?;
    std::fs::read(dir.join(FINAL_CHECKPOINT)).map_err(|e| format!("reference final.hsck: {e}"))
}

// ---------------------------------------------------------------------------
// Fleet target
// ---------------------------------------------------------------------------

const FLEET_PROBE_EVERY: u64 = 2_000;

/// The fleet target's scenario: three tiny replicas under an arrival
/// rate that keeps queues deep enough for crashes to strand work.
fn fleet_scenario() -> FleetConfig {
    FleetConfig {
        replicas: FLEET_REPLICAS,
        policy: BalancerPolicy::RoundRobin,
        probe_every: FLEET_PROBE_EVERY,
        suspect_after: 1,
        eject_after: 1,
        recover_after: 2,
        hedge_after: 5_000,
        hedge_budget: 4,
        slow_multiplier: 4,
        tenant_quota: 0,
        shed_min_class: usize::MAX,
        trace_seed: 0x4853,
        serve: ServeConfig {
            queue_capacity: 8,
            batch_max: 2,
            linger: 1_000,
            base_cost: 1_000,
            per_item_cost: 1_000,
            batch_timeout: 10_000,
            breaker_threshold: 2,
            breaker_cooldown: 20_000,
            slow_factor: 20,
            pruned_cost_scale: 0.25,
            degrade_high: 6,
            overload_strikes: 2,
            recover_low: 1,
            recovery_batches: 2,
            trace_seed: 0x4853,
            slo_target: 0.9,
            slo_window: 20,
            replica: None,
        },
    }
}

/// Runs one fleet schedule (virtual time, in-process) under `plan`,
/// with telemetry routed to `jsonl`, and evaluates the fleet oracles:
/// conservation, deadline, ejection liveness, telemetry cleanliness.
pub fn run_fleet_schedule(jsonl: &Path, seed: u64, plan: &FaultPlan) -> ScheduleEval {
    let mut eval = ScheduleEval::default();
    if let Some(dir) = jsonl.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = hs_telemetry::configure(&TelemetryConfig {
        stderr_level: Some(Level::Error),
        jsonl: Some(jsonl.to_path_buf()),
    });

    let cfg = fleet_scenario();
    let mut rng = Rng::seed_from(21);
    let dense = models::lenet(1, 4, 8, 0.5, &mut rng).expect("dense net");
    let pruned = models::lenet(1, 4, 8, 0.5, &mut rng).expect("pruned net");
    let inputs = Tensor::randn(Shape::d4(6, 1, 8, 8), &mut Rng::seed_from(33));
    let mut fleet = match FleetEngine::new(
        cfg,
        SharedNetwork::new(dense),
        SharedNetwork::new(pruned),
        inputs,
    ) {
        Ok(fleet) => fleet,
        Err(e) => {
            eval.violations.push(Violation {
                oracle: "completion".to_string(),
                detail: format!("fleet construction failed: {e}"),
            });
            return eval;
        }
    };
    let profile = LoadSpec {
        requests: 48,
        gap: 500,
        deadline: 30_000,
        seed,
        tenants: 2,
        ..LoadSpec::default()
    }
    .open_profile();

    faults::arm(plan.clone());
    let outcomes = drive_fleet_open(&mut fleet, &profile);
    faults::disarm();

    let outcomes = match outcomes {
        Ok(outcomes) => outcomes,
        Err(e) => {
            hs_telemetry::flush();
            eval.violations.push(Violation {
                oracle: "completion".to_string(),
                detail: format!("fleet drive failed: {e}"),
            });
            return eval;
        }
    };

    // Faults have ceased (each entry fires once and the registry is
    // disarmed): give the prober enough quiet rounds for every surviving
    // replica to walk Ejected -> Recovered -> Healthy.
    let horizon = outcomes
        .iter()
        .filter_map(|o| match o {
            FleetOutcome::Completed { response, .. } => Some(response.completed),
            FleetOutcome::Rejected(_) => None,
        })
        .max()
        .unwrap_or(0)
        .max(profile.entries.last().map_or(0, |e| e.at));
    let quiet_rounds = (cfg.suspect_after + cfg.eject_after + 2 * cfg.recover_after + 2) as u64;
    for round in 1..=quiet_rounds {
        let _ = fleet.tick(horizon + round * cfg.probe_every);
    }
    hs_telemetry::flush();

    let events = scan_telemetry(jsonl, &mut eval);

    // Conservation: every submitted request gets exactly one typed
    // terminal outcome, and the counters agree.
    let summary = fleet.summary();
    if summary.completed + summary.rejected_total() != summary.submitted {
        eval.violations.push(Violation {
            oracle: "conservation".to_string(),
            detail: format!(
                "completed {} + shed {} != submitted {}",
                summary.completed,
                summary.rejected_total(),
                summary.submitted
            ),
        });
    }
    let mut ids: Vec<u64> = outcomes.iter().map(FleetOutcome::id).collect();
    ids.sort_unstable();
    let expect: Vec<u64> = (0..profile.entries.len() as u64).collect();
    if ids != expect {
        eval.violations.push(Violation {
            oracle: "conservation".to_string(),
            detail: format!(
                "terminal outcomes cover {} of {} request ids (dupes or losses)",
                ids.len(),
                expect.len()
            ),
        });
    }

    // Deadline: no completed response past its absolute deadline.
    let deadline_of: BTreeMap<u64, u64> =
        profile.entries.iter().map(|e| (e.id, e.deadline)).collect();
    for o in &outcomes {
        if let FleetOutcome::Completed { response, .. } = o {
            if response.completed > deadline_of[&response.id] {
                eval.violations.push(Violation {
                    oracle: "deadline".to_string(),
                    detail: format!(
                        "request {} completed at {} past its deadline {}",
                        response.id, response.completed, deadline_of[&response.id]
                    ),
                });
            }
        }
    }

    // Liveness: replicas the plan left *up* (not crashed, not flapped
    // down an odd number of times) must be routable again after the
    // quiet rounds, and every ejection of such a replica must have a
    // recovery on the record.
    let mut crashed = BTreeSet::new();
    let mut flaps: BTreeMap<usize, u64> = BTreeMap::new();
    for (kind, site) in &eval.injected {
        if let Some(k) = site
            .strip_prefix("replica")
            .and_then(|id| id.parse::<usize>().ok())
        {
            match kind.as_str() {
                "replica_crash" => {
                    crashed.insert(k);
                }
                "replica_flap" => *flaps.entry(k).or_insert(0) += 1,
                _ => {}
            }
        }
    }
    for k in 0..FLEET_REPLICAS {
        let left_down = crashed.contains(&k) || flaps.get(&k).is_some_and(|n| n % 2 == 1);
        if left_down {
            continue;
        }
        if !fleet.health(k).routable() {
            eval.violations.push(Violation {
                oracle: "liveness".to_string(),
                detail: format!(
                    "replica {k} is still unroutable {quiet_rounds} probe rounds after faults ceased"
                ),
            });
        }
    }
    let ejected_up: BTreeSet<u64> = events
        .iter()
        .filter(|e| e.kind == "replica_health" && e.str_field("to") == Some("ejected"))
        .filter_map(|e| e.num_field("replica"))
        .map(|r| r as u64)
        .filter(|r| {
            let k = *r as usize;
            !(crashed.contains(&k) || flaps.get(&k).is_some_and(|n| n % 2 == 1))
        })
        .collect();
    for r in ejected_up {
        let recovered = events.iter().any(|e| {
            e.kind == "replica_health"
                && e.num_field("replica") == Some(r as f64)
                && e.str_field("to") == Some("recovered")
        });
        if !recovered {
            eval.violations.push(Violation {
                oracle: "liveness".to_string(),
                detail: format!("replica {r} was ejected but never recovered after faults ceased"),
            });
        }
    }
    apply_break_hook(&mut eval);
    eval
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// A campaign's knobs. `schedules` is per target.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed; every schedule seed derives from it.
    pub seed: u64,
    /// Schedules to run per target.
    pub schedules: u64,
    /// Targets to sweep.
    pub targets: Vec<Target>,
    /// Max fault entries per schedule (draw is 1..=intensity).
    pub intensity: usize,
    /// Working directory: per-schedule run dirs, telemetry, report, and
    /// repro artifacts all land here.
    pub out_dir: PathBuf,
    /// Run pipeline-family schedules in a child `hs_chaos exec` process
    /// instead of in-process.
    pub subprocess: bool,
    /// Keep clean schedules' run directories (default: only failing
    /// schedules' directories survive, to bound disk usage).
    pub keep_dirs: bool,
}

/// One executed schedule with its evaluation.
#[derive(Debug, Clone)]
pub struct ScheduleRecord {
    /// Which target ran it.
    pub target: Target,
    /// Schedule index within the target (0-based).
    pub index: u64,
    /// The derived schedule seed.
    pub seed: u64,
    /// The generated plan.
    pub plan: FaultPlan,
    /// The evaluation (fired faults + violations).
    pub eval: ScheduleEval,
    /// The locally-minimal failing plan, when the schedule violated an
    /// oracle and the shrinker ran.
    pub minimal: Option<FaultPlan>,
}

/// A finished campaign: every schedule record plus the deterministic
/// report value.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Every schedule, in execution order.
    pub records: Vec<ScheduleRecord>,
    /// The byte-reproducible report (what `campaign.json` holds).
    pub report: Json,
}

impl CampaignOutcome {
    /// Total violations across the campaign.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.records.iter().map(|r| r.eval.violations.len()).sum()
    }
}

/// Executes one schedule of `target` in/under `dir` and returns its
/// evaluation. This is the single entry point both the in-process
/// campaign and the `hs_chaos exec` subprocess worker share.
pub fn exec_schedule(
    target: Target,
    plan: &FaultPlan,
    seed: u64,
    dir: &Path,
    reference: &[u8],
) -> ScheduleEval {
    match target {
        Target::Pipeline => run_pipeline_schedule(dir, 1, plan, reference),
        Target::Coord => run_pipeline_schedule(dir, COORD_WORKERS, plan, reference),
        Target::Fleet => run_fleet_schedule(&dir.join("telemetry.jsonl"), seed, plan),
    }
}

/// Serializes a [`ScheduleEval`] as JSON (the `exec --result` contract
/// between the campaign parent and its subprocess workers).
#[must_use]
pub fn eval_to_json(eval: &ScheduleEval) -> Json {
    Json::obj(vec![
        (
            "injected".to_string(),
            Json::Arr(
                eval.injected
                    .iter()
                    .map(|(kind, site)| {
                        Json::obj(vec![
                            ("kind".to_string(), Json::str(kind.clone())),
                            ("site".to_string(), Json::str(site.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "violations".to_string(),
            Json::Arr(
                eval.violations
                    .iter()
                    .map(|v| {
                        Json::obj(vec![
                            ("oracle".to_string(), Json::str(v.oracle.clone())),
                            ("detail".to_string(), Json::str(v.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses an `exec --result` JSON back into a [`ScheduleEval`].
///
/// # Errors
///
/// Returns a message when the text is not a result document.
pub fn eval_from_json(text: &str) -> Result<ScheduleEval, String> {
    let value = schema::parse(text)?;
    let obj = value.as_obj().ok_or("result is not an object")?;
    let mut eval = ScheduleEval::default();
    for (key, val) in obj {
        let Json::Arr(items) = val else {
            return Err(format!("{key} is not an array"));
        };
        for item in items {
            let fields = item.as_obj().ok_or("result entry is not an object")?;
            let get = |name: &str| -> Result<String, String> {
                fields
                    .get(name)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("result entry missing `{name}`"))
            };
            match key.as_str() {
                "injected" => eval.injected.push((get("kind")?, get("site")?)),
                "violations" => eval.violations.push(Violation {
                    oracle: get("oracle")?,
                    detail: get("detail")?,
                }),
                other => return Err(format!("unknown result key `{other}`")),
            }
        }
    }
    Ok(eval)
}

/// Runs one schedule in a child `hs_chaos exec` process (own address
/// space, own fault registry) and parses its `--result` file.
fn exec_in_subprocess(
    target: Target,
    plan: &FaultPlan,
    seed: u64,
    dir: &Path,
    reference_path: &Path,
) -> Result<ScheduleEval, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let result_path = dir.join("result.json");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let output = std::process::Command::new(exe)
        .args([
            "exec",
            "--target",
            target.as_str(),
            "--plan",
            &plan.to_string(),
            "--seed",
            &seed.to_string(),
            "--dir",
            &dir.to_string_lossy(),
            "--reference",
            &reference_path.to_string_lossy(),
            "--result",
            &result_path.to_string_lossy(),
        ])
        .output()
        .map_err(|e| format!("spawn hs_chaos exec: {e}"))?;
    let text = std::fs::read_to_string(&result_path).map_err(|e| {
        format!(
            "exec worker left no result (status {:?}, stderr: {}): {e}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    eval_from_json(&text)
}

/// Runs the full campaign: generate → execute → check → (on violation)
/// shrink + emit repro. Returns every record plus the deterministic
/// report; `campaign.json` and any `repro-*.json` are written into
/// `out_dir`.
///
/// # Errors
///
/// Returns a message when the campaign cannot run at all (reference run
/// failure, unwritable out dir) — individual schedule violations are
/// *data*, not errors.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignOutcome, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let needs_reference = cfg
        .targets
        .iter()
        .any(|t| matches!(t, Target::Pipeline | Target::Coord));
    let reference_path = cfg.out_dir.join("reference").join(FINAL_CHECKPOINT);
    let reference = if needs_reference {
        reference_final(&cfg.out_dir.join("reference"))?
    } else {
        Vec::new()
    };

    let mut records = Vec::new();
    for &target in &cfg.targets {
        for index in 0..cfg.schedules {
            let seed = schedule_seed(cfg.seed, target, index);
            let plan = generate_plan(target, seed, cfg.intensity);
            let dir = cfg
                .out_dir
                .join(target.as_str())
                .join(format!("s{index:04}"));
            let _ = std::fs::remove_dir_all(&dir);
            let eval = if cfg.subprocess && target != Target::Fleet {
                exec_in_subprocess(target, &plan, seed, &dir, &reference_path)?
            } else {
                exec_schedule(target, &plan, seed, &dir, &reference)
            };
            let minimal = if eval.violations.is_empty() {
                None
            } else {
                let oracle = eval.violations[0].oracle.clone();
                let shrink_dir = cfg
                    .out_dir
                    .join(format!("shrink-{}-{index:04}", target.as_str()));
                let minimal = shrink_plan(&plan, |candidate| {
                    let _ = std::fs::remove_dir_all(&shrink_dir);
                    let eval = exec_schedule(target, candidate, seed, &shrink_dir, &reference);
                    eval.violations.iter().any(|v| v.oracle == oracle)
                });
                let _ = std::fs::remove_dir_all(&shrink_dir);
                Some(minimal)
            };
            let record = ScheduleRecord {
                target,
                index,
                seed,
                plan,
                eval,
                minimal,
            };
            if record.eval.violations.is_empty() {
                if !cfg.keep_dirs {
                    let _ = std::fs::remove_dir_all(&dir);
                }
            } else {
                write_repro(&cfg.out_dir, cfg.seed, &record)
                    .map_err(|e| format!("repro artifact: {e}"))?;
            }
            records.push(record);
        }
    }

    let report = campaign_report(cfg, &records);
    std::fs::write(cfg.out_dir.join("campaign.json"), report.render_compact())
        .map_err(|e| format!("campaign.json: {e}"))?;
    Ok(CampaignOutcome { records, report })
}

/// Writes the ready-to-paste repro artifact for a violating schedule.
fn write_repro(out_dir: &Path, campaign_seed: u64, record: &ScheduleRecord) -> std::io::Result<()> {
    let minimal = record.minimal.as_ref().unwrap_or(&record.plan).to_string();
    let first = &record.eval.violations[0];
    let doc = Json::obj(vec![
        ("target".to_string(), Json::str(record.target.as_str())),
        (
            "campaign_seed".to_string(),
            Json::str(format!("{campaign_seed}")),
        ),
        ("schedule".to_string(), Json::Num(record.index as f64)),
        (
            "schedule_seed".to_string(),
            Json::str(format!("{}", record.seed)),
        ),
        (
            "original_plan".to_string(),
            Json::str(record.plan.to_string()),
        ),
        ("minimal_plan".to_string(), Json::str(minimal.clone())),
        (
            "hs_fault".to_string(),
            Json::str(format!("HS_FAULT={minimal}")),
        ),
        ("oracle".to_string(), Json::str(first.oracle.clone())),
        ("detail".to_string(), Json::str(first.detail.clone())),
        (
            "command".to_string(),
            Json::str(format!(
                "hs_chaos exec --target {} --plan '{minimal}' --seed {} --dir <RUN_DIR>",
                record.target.as_str(),
                record.seed
            )),
        ),
    ]);
    std::fs::write(
        out_dir.join(format!(
            "repro-{}-{:04}.json",
            record.target.as_str(),
            record.index
        )),
        doc.render_compact(),
    )
}

/// Builds the deterministic campaign report: only seed-derived values —
/// schedule counts, plans, fired-fault tallies, violations — never
/// wall-clock or filesystem paths, so two runs of the same campaign
/// render byte-identical documents.
#[must_use]
pub fn campaign_report(cfg: &CampaignConfig, records: &[ScheduleRecord]) -> Json {
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    for record in records {
        for (kind, _) in &record.eval.injected {
            *by_kind.entry(kind.clone()).or_insert(0) += 1;
        }
    }
    let mut targets = Vec::new();
    for &target in &cfg.targets {
        let of_target: Vec<&ScheduleRecord> =
            records.iter().filter(|r| r.target == target).collect();
        targets.push(Json::obj(vec![
            ("target".to_string(), Json::str(target.as_str())),
            ("schedules".to_string(), Json::Num(of_target.len() as f64)),
            (
                "fault_entries".to_string(),
                Json::Num(
                    of_target
                        .iter()
                        .map(|r| r.plan.faults.len() as u64)
                        .sum::<u64>() as f64,
                ),
            ),
            (
                "faults_injected".to_string(),
                Json::Num(
                    of_target
                        .iter()
                        .map(|r| r.eval.injected.len() as u64)
                        .sum::<u64>() as f64,
                ),
            ),
            (
                "violations".to_string(),
                Json::Num(
                    of_target
                        .iter()
                        .map(|r| r.eval.violations.len() as u64)
                        .sum::<u64>() as f64,
                ),
            ),
        ]));
    }
    let violations = records
        .iter()
        .flat_map(|r| {
            r.eval.violations.iter().map(move |v| {
                Json::obj(vec![
                    ("target".to_string(), Json::str(r.target.as_str())),
                    ("schedule".to_string(), Json::Num(r.index as f64)),
                    ("seed".to_string(), Json::str(format!("{}", r.seed))),
                    ("plan".to_string(), Json::str(r.plan.to_string())),
                    (
                        "minimal_plan".to_string(),
                        Json::str(r.minimal.as_ref().unwrap_or(&r.plan).to_string()),
                    ),
                    ("oracle".to_string(), Json::str(v.oracle.clone())),
                    ("detail".to_string(), Json::str(v.detail.clone())),
                ])
            })
        })
        .collect();
    let total_violations: u64 = records.iter().map(|r| r.eval.violations.len() as u64).sum();
    Json::obj(vec![
        (
            "campaign".to_string(),
            Json::obj(vec![
                ("seed".to_string(), Json::str(format!("{}", cfg.seed))),
                (
                    "schedules_per_target".to_string(),
                    Json::Num(cfg.schedules as f64),
                ),
                ("intensity".to_string(), Json::Num(cfg.intensity as f64)),
                (
                    "targets".to_string(),
                    Json::Arr(cfg.targets.iter().map(|t| Json::str(t.as_str())).collect()),
                ),
                (
                    "mode".to_string(),
                    Json::str(if cfg.subprocess {
                        "subprocess"
                    } else {
                        "in-process"
                    }),
                ),
            ]),
        ),
        ("targets".to_string(), Json::Arr(targets)),
        (
            "injected_by_kind".to_string(),
            Json::obj(
                by_kind
                    .into_iter()
                    .map(|(kind, count)| (kind, Json::Num(count as f64)))
                    .collect(),
            ),
        ),
        ("violations".to_string(), Json::Arr(violations)),
        (
            "result".to_string(),
            Json::str(if total_violations == 0 {
                "pass"
            } else {
                "fail"
            }),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// Delta-debugs `plan` down to a locally-minimal failing plan:
/// repeatedly drops the first single entry whose removal keeps
/// `still_fails` true, until no single-entry removal does. The result
/// is locally minimal by construction — removing any one remaining
/// entry makes the failure disappear — and the predicate is consulted
/// O(n²) times in the worst case, which is fine for campaign-sized
/// plans.
pub fn shrink_plan<F>(plan: &FaultPlan, mut still_fails: F) -> FaultPlan
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut current = plan.clone();
    loop {
        let mut reduced = false;
        for i in 0..current.faults.len() {
            let mut candidate = current.clone();
            candidate.faults.remove(i);
            if still_fails(&candidate) {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_seeds_are_stable_and_stream_separated() {
        let a = schedule_seed(0x4853, Target::Pipeline, 0);
        assert_eq!(a, schedule_seed(0x4853, Target::Pipeline, 0), "not pure");
        assert_ne!(a, schedule_seed(0x4853, Target::Coord, 0));
        assert_ne!(a, schedule_seed(0x4853, Target::Fleet, 0));
        assert_ne!(a, schedule_seed(0x4853, Target::Pipeline, 1));
        assert_ne!(a, schedule_seed(0x4854, Target::Pipeline, 0));
    }

    #[test]
    fn generated_plans_are_valid_deterministic_and_duplicate_free() {
        for target in Target::ALL {
            for i in 0..64u64 {
                let seed = schedule_seed(7, target, i);
                let plan = generate_plan(target, seed, 4);
                assert!(!plan.faults.is_empty(), "{target:?} schedule {i} is empty");
                assert!(plan.faults.len() <= 4);
                // Round-trips through the parser (validity + no dupes).
                let reparsed = FaultPlan::parse(&plan.to_string())
                    .unwrap_or_else(|e| panic!("{target:?} schedule {i}: {e}"));
                assert_eq!(reparsed, plan);
                // Deterministic from the seed.
                assert_eq!(generate_plan(target, seed, 4), plan);
            }
        }
    }

    #[test]
    fn pipeline_vocabulary_never_corrupts_the_final_write_silently() {
        for (kind, _, max_nth) in vocabulary(Target::Pipeline) {
            if kind == "corrupt" || kind == "truncate" {
                assert!(
                    max_nth <= 3,
                    "{kind} may land on the final checkpoint write"
                );
            }
        }
        // The vocabulary is discovered, not hardcoded: the two kinds
        // added alongside this crate are present on their targets.
        assert!(vocabulary(Target::Pipeline)
            .iter()
            .any(|(kind, _, _)| kind == "torn_write"));
        assert!(vocabulary(Target::Fleet)
            .iter()
            .any(|(kind, _, _)| kind == "probe_loss"));
        assert!(vocabulary(Target::Coord)
            .iter()
            .any(|(kind, site, _)| kind == "worker_lost" && site == "worker"));
    }

    #[test]
    fn shrinking_finds_the_locally_minimal_failing_subset() {
        let plan = FaultPlan::parse(
            "io_error:checkpoint:1,kill_after:prune_unit:1,corrupt:checkpoint:2,worker_lost:worker:3",
        )
        .unwrap();
        // Failure requires the kill AND the corrupt entries together.
        let needed = |p: &FaultPlan| {
            p.faults.iter().any(|f| f.kind == "kill_after")
                && p.faults.iter().any(|f| f.kind == "corrupt")
        };
        let minimal = shrink_plan(&plan, needed);
        assert_eq!(
            minimal.to_string(),
            "kill_after:prune_unit:1,corrupt:checkpoint:2"
        );
        // Locally minimal: removing either remaining entry passes.
        for i in 0..minimal.faults.len() {
            let mut cand = minimal.clone();
            cand.faults.remove(i);
            assert!(!needed(&cand));
        }
        // A predicate that fails on anything non-empty shrinks to one.
        let minimal = shrink_plan(&plan, |p| !p.faults.is_empty());
        assert_eq!(minimal.faults.len(), 1);
    }

    #[test]
    fn eval_json_round_trips() {
        let eval = ScheduleEval {
            injected: vec![("probe_loss".to_string(), "replica1".to_string())],
            violations: vec![Violation {
                oracle: "liveness".to_string(),
                detail: "replica 1 never recovered".to_string(),
            }],
        };
        let back = eval_from_json(&eval_to_json(&eval).render_compact()).unwrap();
        assert_eq!(back.injected, eval.injected);
        assert_eq!(back.violations, eval.violations);
        let empty =
            eval_from_json(&eval_to_json(&ScheduleEval::default()).render_compact()).unwrap();
        assert!(empty.injected.is_empty() && empty.violations.is_empty());
    }

    #[test]
    fn campaign_reports_contain_no_paths_and_tally_by_kind() {
        let cfg = CampaignConfig {
            seed: 9,
            schedules: 2,
            targets: vec![Target::Fleet],
            intensity: 3,
            out_dir: PathBuf::from("/nonexistent-not-written"),
            subprocess: false,
            keep_dirs: false,
        };
        let records = vec![ScheduleRecord {
            target: Target::Fleet,
            index: 0,
            seed: schedule_seed(9, Target::Fleet, 0),
            plan: FaultPlan::parse("replica_crash:replica1:2,probe_loss:replica0:1").unwrap(),
            eval: ScheduleEval {
                injected: vec![
                    ("replica_crash".to_string(), "replica1".to_string()),
                    ("probe_loss".to_string(), "replica0".to_string()),
                ],
                violations: Vec::new(),
            },
            minimal: None,
        }];
        let text = campaign_report(&cfg, &records).render_compact();
        assert!(
            !text.contains("nonexistent-not-written"),
            "paths leaked: {text}"
        );
        assert!(text.contains("\"replica_crash\":1"), "{text}");
        assert!(text.contains("\"probe_loss\":1"), "{text}");
        assert!(text.contains("\"result\":\"pass\""), "{text}");
    }
}
