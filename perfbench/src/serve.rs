//! `serve`: an open-loop, multi-tenant burst replayed through a
//! 3-replica fleet on the engine's virtual clock, as CI's `hs_fleet`
//! replay runs it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use hs_data::{Dataset, DatasetSpec};
use hs_fleet::{drive_fleet_open, BalancerPolicy, FleetConfig, FleetEngine, FleetOutcome};
use hs_nn::infer::SharedNetwork;
use hs_nn::layer::{GlobalAvgPool, Linear};
use hs_nn::{checkpoint, compact, models, Network, Node};
use hs_serve::{LoadProfile, ProfileEntry, Request, ServeConfig, SlotKind};
use hs_tensor::{Rng, Tensor};

use crate::common::{
    configure_telemetry, derive_seed, out_dir, repeat_setup, timed, RegistryDelta, Report,
};
use crate::infer::masked;
use crate::stats::median;
use crate::trace;

/// Requests per replay.
const REQUESTS: u64 = 1000;
const TENANTS: usize = 4;
const SLO_CLASSES: u64 = 2;
const DEADLINE_US: u64 = 25_000;
/// Stand-in passes in the traced mode, each with and without the sink.
const STAND_IN_REPS: usize = 3;

/// The plan's phases: share of the requests and mean arrival gap in
/// virtual µs. The fleet of three serves about 9.6 dense requests per
/// ms at full batches, so the steady and recovery phases run below
/// that and the burst at about twice it.
const PHASES: [(f64, u64); 3] = [(0.4, 200), (0.3, 50), (0.3, 300)];

/// The seeded plan: steady, burst, recovery. Arrival gaps are the
/// phase's mean ± 50%; tenants and samples are drawn from the seed, SLO
/// classes alternate by id.
pub fn burst_plan(seed: u64, requests: u64, samples: usize) -> LoadProfile {
    let mut rng = Rng::seed_from(seed);
    let mut at = 0u64;
    let mut entries = Vec::with_capacity(requests as usize);
    let mut id = 0u64;
    for (k, (share, gap)) in PHASES.iter().enumerate() {
        let count = if k + 1 == PHASES.len() {
            requests - id
        } else {
            (requests as f64 * share).round() as u64
        };
        for _ in 0..count {
            at += gap / 2 + rng.next_u64() % (gap + 1);
            entries.push(ProfileEntry {
                id,
                at,
                deadline: at + DEADLINE_US,
                sample: rng.below(samples),
                class: (id % SLO_CLASSES) as usize,
                tenant: rng.below(TENANTS),
            });
            id += 1;
        }
    }
    LoadProfile {
        seed,
        tenants: TENANTS,
        entries,
    }
}

fn fleet_config(pruned_cost_scale: f64, trace_seed: u64) -> FleetConfig {
    FleetConfig {
        replicas: 3,
        policy: BalancerPolicy::PowerOfTwo,
        hedge_after: 5_000,
        hedge_budget: 16,
        tenant_quota: 24,
        trace_seed,
        serve: ServeConfig {
            pruned_cost_scale,
            ..ServeConfig::default()
        },
        ..FleetConfig::default()
    }
}

struct State {
    dense: Network,
    pruned: Network,
    inputs: Tensor,
    classes: usize,
    cost_scale: f64,
    plan: LoadProfile,
}

fn setup(spec: &DatasetSpec, init_seed: u64, plan_seed: u64) -> Result<State, String> {
    let ds = {
        let _span = trace::begin("data.generate");
        Arc::new(Dataset::generate(spec).map_err(|e| e.to_string())?)
    };
    let mut rng = Rng::seed_from(init_seed);
    let mut dense = models::vgg11(
        ds.channels(),
        ds.num_classes(),
        ds.image_size(),
        0.25,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    {
        let _span = trace::begin("nn.pretrain");
        let epochs = hs_runner::Budget::quick().pretrain_epochs;
        hs_runner::pretrain(&mut dense, &ds, epochs, &mut rng).map_err(|e| e.to_string())?;
    }
    let m = masked(&dense, 2).map_err(|e| e.to_string())?;
    let c = {
        let _span = trace::begin("nn.compact");
        compact::compact(&m, ds.channels(), ds.image_size()).map_err(|e| e.to_string())?
    };
    let plan = {
        let _span = trace::begin("serve.plan");
        burst_plan(plan_seed, REQUESTS, ds.test_labels.len())
    };
    Ok(State {
        dense,
        pruned: c.net,
        inputs: ds.test_images.clone(),
        classes: ds.num_classes(),
        cost_scale: c.report.flop_ratio(),
        plan,
    })
}

fn same_state(a: &State, b: &State) -> bool {
    let bytes = |n: &Network| checkpoint::to_bytes(n).ok();
    bytes(&a.dense) == bytes(&b.dense) && bytes(&a.pruned) == bytes(&b.pruned) && a.plan == b.plan
}

/// A near-zero-cost net with the served nets' input and output shapes.
fn stand_in(channels: usize, classes: usize) -> Network {
    let mut net = Network::new();
    net.push(Node::Gap(GlobalAvgPool::new()));
    net.push(Node::Linear(Linear::new(
        channels,
        classes,
        &mut Rng::seed_from(1),
    )));
    net
}

/// FNV-1a over the outcome stream. `with_class` false leaves out the
/// predicted class, which is all a stand-in net may change.
fn digest(outcomes: &[FleetOutcome], with_class: bool) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for o in outcomes {
        match o {
            FleetOutcome::Completed {
                response,
                replica,
                latency,
                hedged,
            } => {
                eat(response.id);
                eat(if with_class { response.class as u64 } else { 0 });
                eat(matches!(response.model, SlotKind::Pruned) as u64);
                eat(*replica as u64);
                eat(*latency);
                eat(*hedged as u64);
            }
            FleetOutcome::Rejected(r) => {
                eat(r.id | 1 << 63);
                eat(r.at);
                for b in r.reason.as_str().bytes() {
                    eat(u64::from(b));
                }
            }
        }
    }
    h
}

/// One replay's wall time, outcomes and the fleet's counters.
struct Replay {
    secs: f64,
    outcomes: Vec<FleetOutcome>,
    fleet: FleetEngine,
    submit_secs: f64,
    tick_secs: f64,
    ticks: usize,
}

/// Replays the plan through a fresh fleet. The telemetry sink is
/// configured before the clock starts and flushed before it stops. The
/// traced form drives the fleet call by call, as `drive_fleet_open`
/// does, timing each call.
fn replay(
    st: &State,
    nets: (&Network, &Network),
    sink: Option<PathBuf>,
    trace_seed: u64,
    traced: bool,
) -> Result<Replay, String> {
    configure_telemetry(sink).map_err(|e| format!("telemetry: {e}"))?;
    let mut fleet = FleetEngine::new(
        fleet_config(st.cost_scale, trace_seed),
        SharedNetwork::new(nets.0.clone()),
        SharedNetwork::new(nets.1.clone()),
        st.inputs.clone(),
    )
    .map_err(|e| e.to_string())?;
    let (mut submit_secs, mut tick_secs, mut ticks) = (0.0, 0.0, 0usize);
    let start = Instant::now();
    let outcomes = if traced {
        let mut outcomes = Vec::new();
        for e in &st.plan.entries {
            let (out, s) = {
                let _span = trace::begin("fleet.tick");
                timed(|| fleet.tick(e.at))
            };
            outcomes.extend(out.map_err(|e| e.to_string())?);
            tick_secs += s;
            ticks += 1;
            let req = Request {
                id: e.id,
                sample: e.sample,
                class: e.class,
                tenant: e.tenant,
                arrival: e.at,
                deadline: e.deadline,
            };
            let (rej, s) = {
                let _span = trace::begin("fleet.submit");
                timed(|| fleet.submit(req, e.at))
            };
            submit_secs += s;
            outcomes.extend(rej.map(FleetOutcome::Rejected));
        }
        let _span = trace::begin("fleet.drain");
        outcomes.extend(fleet.drain().map_err(|e| e.to_string())?);
        outcomes
    } else {
        drive_fleet_open(&mut fleet, &st.plan).map_err(|e| e.to_string())?
    };
    hs_telemetry::flush();
    let secs = start.elapsed().as_secs_f64();
    configure_telemetry(None).map_err(|e| format!("telemetry: {e}"))?;
    Ok(Replay {
        secs,
        outcomes,
        fleet,
        submit_secs,
        tick_secs,
        ticks,
    })
}

/// Predicted class of every input sample on each slot, one sample per
/// `SharedNetwork::classify` call.
fn reference_classes(net: &Network, inputs: &Tensor) -> Result<Vec<usize>, String> {
    let shared = SharedNetwork::new(net.clone());
    (0..inputs.shape().dim(0))
        .map(|i| {
            let x = inputs.index_select(0, &[i]).map_err(|e| e.to_string())?;
            let c = shared.classify(&x).map_err(|e| e.to_string())?;
            Ok(c[0])
        })
        .collect()
}

/// Conservation and prediction checks of one replay.
fn check_replay(report: &mut Report, st: &State, r: &Replay, refs: &[Vec<usize>; 2]) -> bool {
    let s = r.fleet.summary();
    let n = st.plan.entries.len();
    let mut seen = vec![false; n];
    let mut ok = true;
    for o in &r.outcomes {
        let id = o.id() as usize;
        ok &= report.check(id < n && !std::mem::replace(&mut seen[id], true), || {
            format!("request {id} has no single terminal outcome")
        });
        if let FleetOutcome::Completed { response, .. } = o {
            let sample = st.plan.entries[id].sample % st.inputs.shape().dim(0);
            let slot = matches!(response.model, SlotKind::Pruned) as usize;
            ok &= report.check(response.class == refs[slot][sample], || {
                format!("request {id}: served class differs from a direct classify")
            });
        }
    }
    let shed = s.rejected_total();
    ok &= report.check(
        s.submitted == n as u64 && s.completed + shed == s.submitted && r.outcomes.len() == n,
        || {
            format!(
                "completed {} + rejected {shed} != submitted {} ({} outcomes)",
                s.completed,
                s.submitted,
                r.outcomes.len()
            )
        },
    );
    ok
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    let spec = DatasetSpec::cifar_like().with_seed(derive_seed(seed, 1));
    let (init_seed, plan_seed, trace_seed) = (
        derive_seed(seed, 2),
        derive_seed(seed, 3),
        derive_seed(seed, 4),
    );
    let (st, setup_s) = repeat_setup(report, || setup(&spec, init_seed, plan_seed), same_state)?;
    report.e2e.insert("setup_s", setup_s);
    let refs = [
        reference_classes(&st.dense, &st.inputs)?,
        reference_classes(&st.pruned, &st.inputs)?,
    ];
    let sink = out_dir().join(format!("serve-seed{seed}.jsonl"));
    let nets = (&st.dense, &st.pruned);

    let mut secs = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    let mut last = None;
    let delta = RegistryDelta::start();
    let start = Instant::now();
    while secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        trace::set_run(secs.len() as u64 + 1);
        let _span = trace::begin("serve.replay");
        let r = replay(&st, nets, Some(sink.clone()), trace_seed, traced)?;
        let n = st.plan.entries.len() as u64;
        report.attempted += n;
        let digests = (digest(&r.outcomes, true), digest(&r.outcomes, false));
        // A typed shed is the fleet's answer to the burst, not a
        // failure; a replay that breaks a check fails all its requests.
        let same = report.check(first.is_none_or(|f| f == digests), || {
            "replays of one invocation produced different outcomes".to_string()
        });
        first.get_or_insert(digests);
        if !(check_replay(report, &st, &r, &refs) && same) {
            report.failed += n;
        }
        secs.push(r.secs);
        last = Some(r);
    }
    trace::set_run(0);
    let n = st.plan.entries.len() as f64;
    let wall = median(&secs);
    report.e2e.insert("throughput_per_s", n / wall);
    report.e2e.insert("op_p50_ms", wall / n * 1e3);
    report.named("serve_rps", n / wall, "req/s");
    report.named("serve_replays", secs.len() as f64, "count");
    let last = last.expect("at least one replay ran");
    let s = last.fleet.summary();
    report.named("serve_shed_share", s.rejected_total() as f64 / n, "ratio");
    let pruned = last
        .outcomes
        .iter()
        .filter(|o| {
            matches!(o, FleetOutcome::Completed { response, .. } if response.model == SlotKind::Pruned)
        })
        .count();
    report.named("serve_pruned_share", pruned as f64 / n, "ratio");

    if !traced {
        return Ok(());
    }
    delta.tensor_metrics(report, secs.len());
    let (mut batches, mut items, mut degrades) = (0u64, 0u64, 0u64);
    for k in 0..last.fleet.replicas() {
        let r = last.fleet.replica_summary(k);
        batches += r.batches;
        items += r.completed;
        degrades += r.degrades;
    }
    report.layer("serve.batches", batches as f64);
    report.layer("serve.batch_items", items as f64);
    report.layer("serve.shed", s.rejected_total() as f64);
    report.layer("serve.degrades", degrades as f64);
    report.layer("fleet.hedges", s.hedges_launched as f64);
    report.layer("fleet.probes", s.probes as f64);
    report.layer("fleet.submit_us", last.submit_secs / n * 1e6);
    report.layer(
        "fleet.tick_us",
        last.tick_secs / last.ticks.max(1) as f64 * 1e6,
    );
    let stream = std::fs::read(&sink).map_err(|e| format!("{}: {e}", sink.display()))?;
    report.layer(
        "telemetry.events",
        stream.iter().filter(|&&b| b == b'\n').count() as f64,
    );
    report.layer("telemetry.mb", stream.len() as f64 / 1e6);

    // The stand-in passes: the same replay with a near-free net in both
    // slots, with the sink on and off. Only the predicted class may
    // change.
    let fake = stand_in(st.inputs.shape().dim(1), st.classes);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..STAND_IN_REPS {
        for (sink, walls) in [(Some(sink.clone()), &mut on), (None, &mut off)] {
            let _span = trace::begin(if sink.is_some() {
                "serve.stand_in_sink_on"
            } else {
                "serve.stand_in_sink_off"
            });
            let r = replay(&st, (&fake, &fake), sink, trace_seed, false)?;
            report.check(
                digest(&r.outcomes, false) == first.map_or(0, |f| f.1),
                || "the stand-in net changed a virtual-clock outcome".to_string(),
            );
            walls.push(r.secs);
        }
    }
    let (on, off) = (median(&on), median(&off));
    report.layer("serve.engine_us_per_req", off / n * 1e6);
    report.layer("nn.classify_share", (wall - on) / wall);
    report.layer("telemetry.share", (on - off) / wall);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_plan_is_deterministic_and_keeps_every_id() {
        let a = burst_plan(7, 500, 192);
        assert_eq!(a, burst_plan(7, 500, 192));
        assert_ne!(a.entries, burst_plan(8, 500, 192).entries);
        let ids: Vec<u64> = a.entries.iter().map(|e| e.id).collect();
        assert_eq!(ids, (0..500).collect::<Vec<_>>());
        assert!(a.entries.windows(2).all(|w| w[0].at < w[1].at));
        assert!(a
            .entries
            .iter()
            .all(|e| e.sample < 192 && e.tenant < TENANTS));
        // The burst arrives faster than the phases around it.
        let gap =
            |from: usize, to: usize| (a.entries[to].at - a.entries[from].at) / (to - from) as u64;
        assert!(gap(200, 349) * 2 < gap(0, 199));
        assert!(gap(200, 349) * 2 < gap(350, 499));
    }
}
