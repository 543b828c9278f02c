//! The fleet front-end: N replica engines behind one admission door.
//!
//! [`FleetEngine`] owns `replicas` independent [`ServeEngine`]s — each
//! with its own admission queue, circuit breaker, and degradation
//! state — and routes every accepted request to exactly one of them
//! through a pluggable [`Balancer`]. Like the single-replica engine it
//! is a virtual-time discrete-event machine: the driver calls
//! [`FleetEngine::tick`]/[`FleetEngine::submit`] with a monotone `now`
//! and the fleet interleaves three event streams deterministically —
//! per-replica batch flushes, health probes on a fixed cadence, and
//! hedge deadlines. Two runs over the same plan, seed, and `HS_FAULT`
//! string produce byte-identical telemetry (modulo wall-clock
//! suffixes).
//!
//! Fleet admission runs, in order: **priority shed** (while the fleet
//! is degraded, classes at or above `shed_min_class` are turned away),
//! **tenant quota** (at most `tenant_quota` in-flight requests per
//! tenant), **routing** (balancer pick over the routable set), then
//! the chosen replica's own admission (queue bound + deadline check).
//!
//! Replica-scoped faults (`HS_FAULT=replica_crash:replica1:5,...`) are
//! sampled at probe time: `replica_crash` downs a replica permanently,
//! `replica_flap` toggles it down/up per firing, and `replica_slow`
//! toggles a compute-cost multiplier. Probe failures walk the
//! [health machine](crate::health); ejection evicts the replica's
//! queue and **fails the evicted requests over** to live replicas (or
//! sheds them with a typed reason when none can take them) — an
//! accepted request never silently disappears.

use std::collections::BTreeMap;

use hs_nn::infer::SharedNetwork;
use hs_serve::{
    LoadProfile, Micros, ModelSlots, Outcome, RejectReason, Request, Response, ServeConfig,
    ServeEngine, ServeError, ServeSummary,
};
use hs_telemetry::{faults, metrics, trace, Event, EventKind, Level, TraceCtx};
use hs_tensor::Tensor;

use crate::balancer::{Balancer, BalancerPolicy};
use crate::health::{HealthState, HealthTracker};

/// Fleet knobs. Durations are virtual microseconds, like everything
/// downstream.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Replica count (min 1).
    pub replicas: usize,
    /// Load-balancer policy for routing and failover placement.
    pub policy: BalancerPolicy,
    /// Health-probe cadence; 0 disables probing (and with it fault
    /// sampling, ejection, and recovery).
    pub probe_every: Micros,
    /// Consecutive probe failures before a healthy replica turns
    /// suspect.
    pub suspect_after: usize,
    /// Further consecutive failures before a suspect replica is
    /// ejected (queue evicted, requests failed over).
    pub eject_after: usize,
    /// Consecutive probe successes an ejected replica needs to rejoin
    /// the routable set (and a recovered one to be healthy again).
    pub recover_after: usize,
    /// A request with no terminal outcome after this long gets a hedge
    /// copy on a second replica; 0 disables hedging.
    pub hedge_after: Micros,
    /// Global budget of hedge launches for the whole session — the
    /// retry budget that keeps hedging from amplifying an overload.
    pub hedge_budget: u64,
    /// Compute-cost multiplier applied to a replica while a
    /// `replica_slow` fault holds it.
    pub slow_multiplier: u64,
    /// Max in-flight requests per tenant at fleet admission; 0 means
    /// unlimited.
    pub tenant_quota: usize,
    /// While the fleet is degraded (any replica unroutable), requests
    /// of SLO class >= this are shed at admission to protect higher
    /// priorities. `usize::MAX` disables priority shedding.
    pub shed_min_class: usize,
    /// Seed for fleet/health/balancer trace and RNG derivation; each
    /// replica engine gets `mix(trace_seed ^ (id + 1))`.
    pub trace_seed: u64,
    /// Per-replica engine template (`replica` and `trace_seed` are
    /// overridden per instance).
    pub serve: ServeConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            replicas: 3,
            policy: BalancerPolicy::RoundRobin,
            probe_every: 2_000,
            suspect_after: 1,
            eject_after: 1,
            recover_after: 2,
            hedge_after: 5_000,
            hedge_budget: 16,
            slow_multiplier: 4,
            tenant_quota: 0,
            shed_min_class: usize::MAX,
            trace_seed: 0x4853,
            serve: ServeConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Worst-case virtual time from a replica going dark to its
    /// ejection: every request stranded on it is failed over (or shed
    /// typed) within this budget.
    pub fn failover_budget(&self) -> Micros {
        self.probe_every * (self.suspect_after.max(1) + self.eject_after.max(1)) as Micros
    }
}

/// Why the fleet (rather than a single replica) shed a request, or the
/// replica-level reason forwarded through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetReject {
    /// The routed replica shed it with its own typed reason.
    Replica(RejectReason),
    /// The tenant already had its quota of requests in flight.
    TenantQuota {
        /// The over-quota tenant.
        tenant: usize,
        /// Its in-flight count at the decision.
        in_flight: usize,
        /// The configured quota.
        quota: usize,
    },
    /// Shed at admission to protect higher-priority classes while the
    /// fleet is degraded.
    PriorityShed {
        /// The request's SLO class.
        class: usize,
        /// Classes at or above this are shed while degraded.
        min_class: usize,
    },
    /// No routable replica could take it.
    NoReplicaAvailable,
}

impl FleetReject {
    /// Stable short name used in telemetry fields and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            FleetReject::Replica(r) => r.as_str(),
            FleetReject::TenantQuota { .. } => "tenant_quota",
            FleetReject::PriorityShed { .. } => "priority_shed",
            FleetReject::NoReplicaAvailable => "no_replica",
        }
    }
}

/// A fleet-shed request: which one, why, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRejection {
    /// The request id.
    pub id: u64,
    /// Why it was shed.
    pub reason: FleetReject,
    /// When the decision was made.
    pub at: Micros,
}

/// A request's terminal outcome as seen at the fleet front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetOutcome {
    /// Served with a prediction, in deadline.
    Completed {
        /// The winning replica's response.
        response: Response,
        /// Which replica produced it.
        replica: usize,
        /// End-to-end latency from the *original* fleet arrival (a
        /// failed-over or hedged request keeps its first arrival time).
        latency: Micros,
        /// Whether a hedge copy was launched for this request.
        hedged: bool,
    },
    /// Shed with a typed reason.
    Rejected(FleetRejection),
}

impl FleetOutcome {
    /// The request id this outcome belongs to.
    pub fn id(&self) -> u64 {
        match self {
            FleetOutcome::Completed { response, .. } => response.id,
            FleetOutcome::Rejected(r) => r.id,
        }
    }
}

/// Aggregate counters for a fleet session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSummary {
    /// Requests offered at the fleet front door.
    pub submitted: u64,
    /// Requests served with a prediction.
    pub completed: u64,
    /// Requests shed by a replica engine (admission or expiry).
    pub rejected_replica: u64,
    /// Requests shed at the fleet door by the tenant quota.
    pub rejected_tenant_quota: u64,
    /// Requests shed at the fleet door by priority protection.
    pub rejected_priority: u64,
    /// Requests shed because no routable replica could take them.
    pub rejected_no_replica: u64,
    /// Requests successfully moved off an ejected replica.
    pub failovers: u64,
    /// Requests evicted at ejection that could not be re-placed.
    pub failover_sheds: u64,
    /// Hedge copies launched.
    pub hedges_launched: u64,
    /// Hedges whose copy produced the winning completion.
    pub hedges_won: u64,
    /// Hedges whose primary won (or that never got the chance).
    pub hedges_lost: u64,
    /// Hedge attempts denied (budget, no replica, or admission).
    pub hedges_rejected: u64,
    /// Replica ejections.
    pub ejections: u64,
    /// Replica recoveries (ejected -> routable again).
    pub recoveries: u64,
    /// Probe rounds run.
    pub probes: u64,
    /// Worst completed-request latency from original arrival.
    pub max_latency_micros: Micros,
    /// Sum of completed-request latencies (for means).
    pub total_latency_micros: Micros,
}

impl FleetSummary {
    /// All shed requests, regardless of where the decision was made.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_replica
            + self.rejected_tenant_quota
            + self.rejected_priority
            + self.rejected_no_replica
    }
}

/// One replica: its engine plus the fleet's view of it.
#[derive(Debug)]
struct Replica {
    engine: ServeEngine,
    health: HealthTracker,
    /// Not answering probes or batches (crashed or flapped down).
    down: bool,
    /// Permanently down (`replica_crash` fired).
    crashed: bool,
    /// `replica_slow` currently holds it (cost multiplier active).
    slowed: bool,
}

/// Fleet-side bookkeeping for one accepted, not-yet-terminal request.
#[derive(Debug)]
struct Pending {
    tenant: usize,
    class: usize,
    sample: usize,
    /// Original fleet arrival (latency baseline across failovers).
    arrival: Micros,
    deadline: Micros,
    /// Replicas currently holding a live copy (primary first).
    copies: Vec<usize>,
    /// Where the hedge copy went, sticky once launched.
    hedge_replica: Option<usize>,
    /// Whether the hedge's win/loss has been decided and emitted.
    hedge_settled: bool,
    /// When a hedge becomes due; `Micros::MAX` once spent or disabled.
    hedge_at: Micros,
}

/// The replicated front-end. See the module docs for the time model.
#[derive(Debug)]
pub struct FleetEngine {
    cfg: FleetConfig,
    replicas: Vec<Replica>,
    balancer: Balancer,
    /// Accepted requests awaiting their terminal outcome, by id.
    pending: BTreeMap<u64, Pending>,
    /// Ids already resolved whose redundant copies are still queued
    /// somewhere; maps to how many more engine outcomes to discard.
    swallow: BTreeMap<u64, u8>,
    tenant_inflight: BTreeMap<usize, usize>,
    next_probe: Micros,
    hedges_spent: u64,
    now: Micros,
    stats: FleetSummary,
    /// Root span for fleet-level events (failover/hedge/fleet sheds).
    ctx: TraceCtx,
    seq: u64,
}

impl FleetEngine {
    /// A fleet of `cfg.replicas` engines, each serving its own clone of
    /// the model pair over the shared input pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] when the input pool is empty.
    pub fn new(
        cfg: FleetConfig,
        dense: SharedNetwork,
        pruned: SharedNetwork,
        inputs: Tensor,
    ) -> Result<FleetEngine, ServeError> {
        let n = cfg.replicas.max(1);
        let mut replicas = Vec::with_capacity(n);
        for k in 0..n {
            let mut scfg = cfg.serve;
            scfg.replica = Some(k);
            scfg.trace_seed = trace::mix(cfg.trace_seed ^ (k as u64 + 1));
            let engine = ServeEngine::new(
                scfg,
                ModelSlots::new(dense.clone(), pruned.clone()),
                inputs.clone(),
            )?;
            replicas.push(Replica {
                engine,
                health: HealthTracker::new(
                    k,
                    cfg.suspect_after,
                    cfg.eject_after,
                    cfg.recover_after,
                    cfg.trace_seed,
                ),
                down: false,
                crashed: false,
                slowed: false,
            });
        }
        metrics::gauge("hs_fleet_routable_replicas").set(n as f64);
        Ok(FleetEngine {
            replicas,
            balancer: Balancer::new(cfg.policy, cfg.trace_seed),
            pending: BTreeMap::new(),
            swallow: BTreeMap::new(),
            tenant_inflight: BTreeMap::new(),
            next_probe: if cfg.probe_every > 0 {
                cfg.probe_every
            } else {
                Micros::MAX
            },
            hedges_spent: 0,
            now: 0,
            stats: FleetSummary::default(),
            ctx: trace::unit_ctx(cfg.trace_seed, "fleet_engine", 0),
            seq: 0,
            cfg,
        })
    }

    /// Replica count.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Counters so far.
    pub fn summary(&self) -> FleetSummary {
        self.stats
    }

    /// Replica `k`'s health state.
    pub fn health(&self, k: usize) -> HealthState {
        self.replicas[k].health.state()
    }

    /// Replica `k`'s own engine counters.
    pub fn replica_summary(&self, k: usize) -> ServeSummary {
        self.replicas[k].engine.summary()
    }

    /// Requests accepted but not yet terminal.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn routable_candidates(&self, exclude: &[usize]) -> Vec<(usize, usize)> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(k, r)| !exclude.contains(k) && r.health.state().routable())
            .map(|(k, r)| (k, r.engine.queue_depth()))
            .collect()
    }

    /// When the next internal event fires: a replica batch flush, a
    /// health probe, or a hedge deadline. While draining, probes only
    /// count as events when queued work still depends on them.
    fn next_internal(&self, draining: bool) -> Option<Micros> {
        let mut t = Micros::MAX;
        let mut queued = false;
        for r in &self.replicas {
            if r.engine.queue_depth() > 0 {
                queued = true;
            }
            if !r.down {
                if let Some(e) = r.engine.next_event() {
                    t = t.min(e);
                }
            }
        }
        if self.cfg.probe_every > 0 && (!draining || queued) {
            t = t.min(self.next_probe);
        }
        for p in self.pending.values() {
            t = t.min(p.hedge_at);
        }
        (t != Micros::MAX).then_some(t)
    }

    /// When the next internal event fires. With probing enabled this is
    /// always `Some` (the probe cadence never stops while the driver is
    /// live); [`drain`](FleetEngine::drain) uses a bounded variant.
    pub fn next_event(&self) -> Option<Micros> {
        self.next_internal(false)
    }

    /// Offers a request at `now` (call [`tick`](FleetEngine::tick) with
    /// the same `now` first). Returns the typed rejection when the
    /// request is shed at the fleet door or at the routed replica's
    /// admission, `None` when accepted — accepted requests surface
    /// later as [`FleetOutcome`]s from `tick`/`drain`.
    pub fn submit(&mut self, req: Request, now: Micros) -> Option<FleetRejection> {
        self.stats.submitted += 1;
        let candidates = self.routable_candidates(&[]);
        if candidates.len() < self.replicas.len() && req.class >= self.cfg.shed_min_class {
            return Some(self.fleet_shed(
                req.id,
                FleetReject::PriorityShed {
                    class: req.class,
                    min_class: self.cfg.shed_min_class,
                },
                now,
            ));
        }
        if self.cfg.tenant_quota > 0 {
            let in_flight = *self.tenant_inflight.get(&req.tenant).unwrap_or(&0);
            if in_flight >= self.cfg.tenant_quota {
                return Some(self.fleet_shed(
                    req.id,
                    FleetReject::TenantQuota {
                        tenant: req.tenant,
                        in_flight,
                        quota: self.cfg.tenant_quota,
                    },
                    now,
                ));
            }
        }
        let Some(target) = self.balancer.pick(&candidates) else {
            return Some(self.fleet_shed(req.id, FleetReject::NoReplicaAvailable, now));
        };
        let (id, tenant, class, sample, arrival, deadline) = (
            req.id,
            req.tenant,
            req.class,
            req.sample,
            req.arrival,
            req.deadline,
        );
        match self.replicas[target].engine.submit(req, now) {
            Some(rej) => {
                self.stats.rejected_replica += 1;
                Some(FleetRejection {
                    id,
                    reason: FleetReject::Replica(rej.reason),
                    at: rej.at,
                })
            }
            None => {
                *self.tenant_inflight.entry(tenant).or_insert(0) += 1;
                let hedge_at = if self.cfg.hedge_after > 0 {
                    now + self.cfg.hedge_after
                } else {
                    Micros::MAX
                };
                self.pending.insert(
                    id,
                    Pending {
                        tenant,
                        class,
                        sample,
                        arrival,
                        deadline,
                        copies: vec![target],
                        hedge_replica: None,
                        hedge_settled: false,
                        hedge_at,
                    },
                );
                None
            }
        }
    }

    /// Advances virtual time to `now`, running every batch flush, probe
    /// round, and hedge launch due on the way. Returns the terminal
    /// outcomes produced.
    ///
    /// # Errors
    ///
    /// [`ServeError::Nn`] when a replica's forward pass fails.
    pub fn tick(&mut self, now: Micros) -> Result<Vec<FleetOutcome>, ServeError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_internal(false) {
            if t > now {
                break;
            }
            self.step(t, &mut out)?;
        }
        self.now = self.now.max(now);
        Ok(out)
    }

    /// Drains all outstanding work after the last arrival, running
    /// probes only as long as stranded queues still need them. Any
    /// request left with no path to progress (e.g. stranded on a down
    /// replica with probing disabled) is shed typed — an accepted
    /// request always gets a terminal outcome.
    ///
    /// # Errors
    ///
    /// Same as [`tick`](FleetEngine::tick).
    pub fn drain(&mut self) -> Result<Vec<FleetOutcome>, ServeError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_internal(true) {
            self.step(t, &mut out)?;
        }
        let stranded: Vec<u64> = self.pending.keys().copied().collect();
        for id in stranded {
            let p = self.pending.remove(&id).expect("id from pending keys");
            if let Some(n) = self.tenant_inflight.get_mut(&p.tenant) {
                *n = n.saturating_sub(1);
            }
            let at = self.now;
            let rej = self.fleet_shed(id, FleetReject::NoReplicaAvailable, at);
            out.push(FleetOutcome::Rejected(rej));
        }
        Ok(out)
    }

    /// Runs every event due exactly by `t`: replica batches first (a
    /// completion beats an ejection at the same tick), then probes,
    /// then hedge launches (so a request completing right at its hedge
    /// deadline doesn't spawn a pointless copy).
    fn step(&mut self, t: Micros, out: &mut Vec<FleetOutcome>) -> Result<(), ServeError> {
        self.now = self.now.max(t);
        for k in 0..self.replicas.len() {
            if self.replicas[k].down {
                continue;
            }
            let outcomes = self.replicas[k].engine.tick(t)?;
            self.absorb(k, outcomes, out);
        }
        while self.cfg.probe_every > 0 && self.next_probe <= t {
            let pt = self.next_probe;
            self.next_probe += self.cfg.probe_every.max(1);
            self.run_probes(pt, out);
        }
        self.launch_hedges(t);
        Ok(())
    }

    /// One probe round: sample replica-scoped faults, probe each
    /// replica in id order, walk the health machines, and eject/recover
    /// as they dictate.
    fn run_probes(&mut self, pt: Micros, out: &mut Vec<FleetOutcome>) {
        self.stats.probes += 1;
        let armed = faults::armed();
        for k in 0..self.replicas.len() {
            let site = format!("replica{k}");
            if armed {
                if faults::trip("replica_crash", &site) && !self.replicas[k].crashed {
                    self.replicas[k].crashed = true;
                    self.replicas[k].down = true;
                }
                if faults::trip("replica_slow", &site) {
                    let slowed = !self.replicas[k].slowed;
                    self.replicas[k].slowed = slowed;
                    let m = if slowed { self.cfg.slow_multiplier } else { 1 };
                    self.replicas[k].engine.set_cost_multiplier(m);
                }
                if faults::trip("replica_flap", &site) && !self.replicas[k].crashed {
                    self.replicas[k].down = !self.replicas[k].down;
                }
            }
            let mut ok = !self.replicas[k].down;
            // `probe_loss` swallows this round's probe *signal* without
            // touching the replica: the prober reads silence as failure,
            // so repeated losses walk Healthy -> Suspect -> Ejected on a
            // replica that was up the whole time — and once the losses
            // stop, genuine probes drive Ejected -> Recovered -> Healthy.
            if armed && faults::trip("probe_loss", &site) {
                ok = false;
            }
            if let Some((_, to)) = self.replicas[k].health.observe(ok, pt) {
                match to {
                    HealthState::Ejected => {
                        self.stats.ejections += 1;
                        metrics::counter("hs_fleet_ejections_total").inc();
                        self.eject(k, pt, out);
                    }
                    HealthState::Recovered => self.stats.recoveries += 1,
                    _ => {}
                }
            }
        }
        let routable = self.routable_candidates(&[]).len();
        metrics::gauge("hs_fleet_routable_replicas").set(routable as f64);
    }

    /// Evicts replica `k`'s queue and re-places every stranded request:
    /// covered by a live sibling copy, rerouted to another replica, or
    /// shed with a typed reason.
    fn eject(&mut self, k: usize, pt: Micros, out: &mut Vec<FleetOutcome>) {
        let evicted = self.replicas[k].engine.evict_queued();
        for req in evicted {
            let id = req.id;
            if self.swallow_one(id) {
                continue;
            }
            let (covered, hedge_lost) = match self.pending.get_mut(&id) {
                None => continue,
                Some(p) => {
                    p.copies.retain(|r| *r != k);
                    let covered = !p.copies.is_empty();
                    let hedge_lost = covered && !p.hedge_settled && p.hedge_replica == Some(k);
                    if hedge_lost {
                        p.hedge_settled = true;
                    }
                    (covered, hedge_lost)
                }
            };
            if covered {
                if hedge_lost {
                    self.stats.hedges_lost += 1;
                    self.emit_hedge(id, "lost", Some(k), pt, None);
                }
                self.emit_failover(id, k, None, "hedged", pt);
                continue;
            }
            let candidates = self.routable_candidates(&[k]);
            match self.balancer.pick(&candidates) {
                None => {
                    self.drop_pending(id);
                    self.stats.failover_sheds += 1;
                    self.emit_failover(id, k, None, "shed", pt);
                    let rej = self.fleet_shed(id, FleetReject::NoReplicaAvailable, pt);
                    out.push(FleetOutcome::Rejected(rej));
                }
                Some(to) => {
                    let copy = Request {
                        id,
                        sample: req.sample,
                        class: req.class,
                        tenant: req.tenant,
                        arrival: pt,
                        deadline: req.deadline,
                    };
                    match self.replicas[to].engine.submit(copy, pt) {
                        None => {
                            if let Some(p) = self.pending.get_mut(&id) {
                                p.copies.push(to);
                            }
                            self.stats.failovers += 1;
                            metrics::counter("hs_fleet_failovers_total").inc();
                            self.emit_failover(id, k, Some(to), "rerouted", pt);
                        }
                        Some(rej) => {
                            self.drop_pending(id);
                            self.stats.rejected_replica += 1;
                            self.stats.failover_sheds += 1;
                            self.emit_failover(id, k, Some(to), "shed", pt);
                            out.push(FleetOutcome::Rejected(FleetRejection {
                                id,
                                reason: FleetReject::Replica(rej.reason),
                                at: rej.at,
                            }));
                        }
                    }
                }
            }
        }
    }

    /// Launches hedge copies for every pending request whose hedge
    /// deadline has passed, within the global budget.
    fn launch_hedges(&mut self, t: Micros) {
        if self.cfg.hedge_after == 0 {
            return;
        }
        let due: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.hedge_at <= t)
            .map(|(id, _)| *id)
            .collect();
        for id in due {
            let (holders, sample, class, tenant, deadline) = {
                let p = self.pending.get_mut(&id).expect("id from pending keys");
                // One attempt per request, whatever happens below.
                p.hedge_at = Micros::MAX;
                (p.copies.clone(), p.sample, p.class, p.tenant, p.deadline)
            };
            if self.hedges_spent >= self.cfg.hedge_budget {
                self.stats.hedges_rejected += 1;
                self.emit_hedge(id, "rejected", None, t, Some("budget"));
                continue;
            }
            let candidates = self.routable_candidates(&holders);
            let Some(to) = self.balancer.pick(&candidates) else {
                self.stats.hedges_rejected += 1;
                self.emit_hedge(id, "rejected", None, t, Some("no_replica"));
                continue;
            };
            self.hedges_spent += 1;
            let copy = Request {
                id,
                sample,
                class,
                tenant,
                arrival: t,
                deadline,
            };
            match self.replicas[to].engine.submit(copy, t) {
                None => {
                    let p = self.pending.get_mut(&id).expect("id from pending keys");
                    p.copies.push(to);
                    p.hedge_replica = Some(to);
                    self.stats.hedges_launched += 1;
                    metrics::counter("hs_fleet_hedges_launched_total").inc();
                    self.emit_hedge(id, "launched", Some(to), t, None);
                }
                Some(_) => {
                    // The target shed the copy at admission; the primary
                    // still carries the request, so this is not terminal.
                    self.stats.hedges_rejected += 1;
                    self.emit_hedge(id, "rejected", Some(to), t, Some("admission"));
                }
            }
        }
    }

    /// Folds one replica's engine outcomes into fleet outcomes: the
    /// first completion (or the last live copy's shed) is terminal;
    /// redundant copies are discarded without a second outcome.
    fn absorb(&mut self, k: usize, outcomes: Vec<Outcome>, out: &mut Vec<FleetOutcome>) {
        for o in outcomes {
            let id = o.id();
            if self.swallow_one(id) {
                continue;
            }
            let at = match &o {
                Outcome::Completed(r) => r.completed,
                Outcome::Rejected(r) => r.at,
            };
            let live_copies = match self.pending.get(&id) {
                None => continue,
                Some(p) => p.copies.len(),
            };
            if matches!(o, Outcome::Rejected(_)) && live_copies > 1 {
                // A shed copy while a sibling still carries the request.
                let hedge_lost = {
                    let p = self.pending.get_mut(&id).expect("pending id checked above");
                    p.copies.retain(|r| *r != k);
                    let lost = !p.hedge_settled && p.hedge_replica == Some(k);
                    if lost {
                        p.hedge_settled = true;
                    }
                    lost
                };
                if hedge_lost {
                    self.stats.hedges_lost += 1;
                    self.emit_hedge(id, "lost", Some(k), at, None);
                }
                continue;
            }
            let mut p = self.pending.remove(&id).expect("pending id checked above");
            p.copies.retain(|r| *r != k);
            if !p.copies.is_empty() {
                self.swallow.insert(id, p.copies.len() as u8);
            }
            if let Some(n) = self.tenant_inflight.get_mut(&p.tenant) {
                *n = n.saturating_sub(1);
            }
            let hedged = p.hedge_replica.is_some();
            if hedged && !p.hedge_settled {
                if p.hedge_replica == Some(k) && matches!(o, Outcome::Completed(_)) {
                    self.stats.hedges_won += 1;
                    self.emit_hedge(id, "won", Some(k), at, None);
                } else {
                    self.stats.hedges_lost += 1;
                    self.emit_hedge(id, "lost", p.hedge_replica, at, None);
                }
            }
            match o {
                Outcome::Completed(response) => {
                    let latency = response.completed.saturating_sub(p.arrival);
                    self.stats.completed += 1;
                    self.stats.total_latency_micros += latency;
                    self.stats.max_latency_micros = self.stats.max_latency_micros.max(latency);
                    out.push(FleetOutcome::Completed {
                        response,
                        replica: k,
                        latency,
                        hedged,
                    });
                }
                Outcome::Rejected(rej) => {
                    self.stats.rejected_replica += 1;
                    out.push(FleetOutcome::Rejected(FleetRejection {
                        id,
                        reason: FleetReject::Replica(rej.reason),
                        at: rej.at,
                    }));
                }
            }
        }
    }

    /// Discards one expected redundant outcome for `id`; true when the
    /// id was in the swallow set.
    fn swallow_one(&mut self, id: u64) -> bool {
        if let Some(left) = self.swallow.get_mut(&id) {
            *left -= 1;
            if *left == 0 {
                self.swallow.remove(&id);
            }
            true
        } else {
            false
        }
    }

    /// Forgets a pending request (terminal decided at the fleet level).
    fn drop_pending(&mut self, id: u64) {
        if let Some(p) = self.pending.remove(&id) {
            if let Some(n) = self.tenant_inflight.get_mut(&p.tenant) {
                *n = n.saturating_sub(1);
            }
        }
    }

    /// Records a fleet-level shed: counters, one `serve_request` event
    /// with the typed outcome, and the rejection value.
    fn fleet_shed(&mut self, id: u64, reason: FleetReject, at: Micros) -> FleetRejection {
        match &reason {
            FleetReject::Replica(_) => self.stats.rejected_replica += 1,
            FleetReject::TenantQuota { .. } => self.stats.rejected_tenant_quota += 1,
            FleetReject::PriorityShed { .. } => self.stats.rejected_priority += 1,
            FleetReject::NoReplicaAvailable => self.stats.rejected_no_replica += 1,
        }
        metrics::counter("hs_fleet_rejected_total").inc();
        let ctx = self.ctx.child(self.seq);
        self.seq += 1;
        let mut event = Event::new(EventKind::ServeRequest, Level::Warn, "fleet/request")
            .field("id", id)
            .field("outcome", reason.as_str())
            .field("at", at)
            .traced(&ctx);
        match &reason {
            FleetReject::TenantQuota {
                tenant,
                in_flight,
                quota,
            } => {
                event = event
                    .field("tenant", *tenant)
                    .field("in_flight", *in_flight as u64)
                    .field("quota", *quota as u64);
            }
            FleetReject::PriorityShed { class, min_class } => {
                event = event
                    .field("slo_class", *class)
                    .field("min_class", *min_class as u64);
            }
            _ => {}
        }
        hs_telemetry::emit(event);
        FleetRejection { id, reason, at }
    }

    fn emit_failover(
        &mut self,
        id: u64,
        from: usize,
        to: Option<usize>,
        outcome: &str,
        at: Micros,
    ) {
        let ctx = self.ctx.child(self.seq);
        self.seq += 1;
        let mut event = Event::new(EventKind::Failover, Level::Warn, "fleet/failover")
            .message(format!("request {id} moved off replica {from}: {outcome}"))
            .field("id", id)
            .field("from", from)
            .field("outcome", outcome)
            .field("at", at)
            .traced(&ctx);
        if let Some(to) = to {
            event = event.field("to", to);
        }
        hs_telemetry::emit(event);
    }

    fn emit_hedge(
        &mut self,
        id: u64,
        outcome: &str,
        replica: Option<usize>,
        at: Micros,
        reason: Option<&str>,
    ) {
        let level = if outcome == "rejected" {
            Level::Warn
        } else {
            Level::Info
        };
        let ctx = self.ctx.child(self.seq);
        self.seq += 1;
        let mut event = Event::new(EventKind::Hedge, level, "fleet/hedge")
            .field("id", id)
            .field("outcome", outcome)
            .field("at", at)
            .traced(&ctx);
        if let Some(replica) = replica {
            event = event.field("replica", replica);
        }
        if let Some(reason) = reason {
            event = event.field("reason", reason);
        }
        hs_telemetry::emit(event);
    }
}

/// Replays a fixed arrival schedule against the fleet: per entry, time
/// advances to the arrival, the request is offered, and admission sheds
/// join the outcome stream; a final drain finishes the backlog.
///
/// # Errors
///
/// Propagates engine errors (see [`FleetEngine::tick`]).
pub fn drive_fleet_open(
    fleet: &mut FleetEngine,
    profile: &LoadProfile,
) -> Result<Vec<FleetOutcome>, ServeError> {
    let mut outcomes = Vec::new();
    for e in &profile.entries {
        outcomes.extend(fleet.tick(e.at)?);
        let req = Request {
            id: e.id,
            sample: e.sample,
            class: e.class,
            tenant: e.tenant,
            arrival: e.at,
            deadline: e.deadline,
        };
        if let Some(rej) = fleet.submit(req, e.at) {
            outcomes.push(FleetOutcome::Rejected(rej));
        }
    }
    outcomes.extend(fleet.drain()?);
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_nn::models;
    use hs_tensor::{Rng, Shape};

    fn tiny_fleet(cfg: FleetConfig) -> FleetEngine {
        let mut rng = Rng::seed_from(7);
        let net = models::lenet(1, 4, 8, 0.5, &mut rng).unwrap();
        let dense = SharedNetwork::new(net.clone());
        let pruned = SharedNetwork::new(net);
        let inputs = Tensor::randn(Shape::d4(6, 1, 8, 8), &mut Rng::seed_from(3));
        FleetEngine::new(cfg, dense, pruned, inputs).unwrap()
    }

    fn req(id: u64, tenant: usize, arrival: Micros) -> Request {
        Request {
            id,
            sample: id as usize,
            class: 0,
            tenant,
            arrival,
            deadline: arrival + 1_000_000,
        }
    }

    #[test]
    fn round_robin_spreads_load_across_replicas() {
        let _guard = crate::fault_test_lock();
        let mut fleet = tiny_fleet(FleetConfig {
            hedge_after: 0,
            ..FleetConfig::default()
        });
        for id in 0..6u64 {
            assert!(fleet.submit(req(id, 0, id), id).is_none());
        }
        let outcomes = fleet.drain().unwrap();
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, FleetOutcome::Completed { .. })));
        for k in 0..3 {
            assert_eq!(fleet.replica_summary(k).completed, 2, "replica {k}");
        }
        let s = fleet.summary();
        assert_eq!((s.submitted, s.completed, s.rejected_total()), (6, 6, 0));
    }

    #[test]
    fn tenant_quota_caps_in_flight_requests_per_tenant() {
        let _guard = crate::fault_test_lock();
        let mut fleet = tiny_fleet(FleetConfig {
            tenant_quota: 1,
            hedge_after: 0,
            ..FleetConfig::default()
        });
        assert!(fleet.submit(req(0, 5, 0), 0).is_none());
        let rej = fleet.submit(req(1, 5, 1), 1).expect("over quota");
        match rej.reason {
            FleetReject::TenantQuota {
                tenant,
                in_flight,
                quota,
            } => assert_eq!((tenant, in_flight, quota), (5, 1, 1)),
            other => panic!("expected TenantQuota, got {other:?}"),
        }
        // A different tenant is unaffected.
        assert!(fleet.submit(req(2, 6, 2), 2).is_none());
        // Once tenant 5's request completes, its quota frees up.
        let _ = fleet.drain().unwrap();
        assert!(fleet.submit(req(3, 5, 1_000_000), 1_000_000).is_none());
        let s = fleet.summary();
        assert_eq!(s.rejected_tenant_quota, 1);
    }

    #[test]
    fn crash_ejects_within_budget_and_fails_queued_work_over() {
        use hs_telemetry::faults::{self, Fault, FaultPlan};
        let _guard = crate::fault_test_lock();
        let cfg = FleetConfig {
            probe_every: 1_000,
            suspect_after: 1,
            eject_after: 1,
            hedge_after: 0,
            serve: ServeConfig {
                // Make batches slow enough that replica 1's queue still
                // holds work when the crash lands at the first probe.
                base_cost: 5_000,
                per_item_cost: 1_000,
                linger: 10_000,
                batch_max: 8,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut fleet = tiny_fleet(cfg);
        faults::arm(FaultPlan {
            faults: vec![Fault {
                kind: "replica_crash".to_string(),
                site: "replica1".to_string(),
                nth: 1,
            }],
        });
        for id in 0..6u64 {
            assert!(fleet.submit(req(id, 0, id), id).is_none());
        }
        let outcomes = fleet.drain().unwrap();
        faults::disarm();
        assert_eq!(fleet.health(1), HealthState::Ejected);
        let s = fleet.summary();
        assert!(s.ejections >= 1);
        assert!(
            s.failovers >= 1,
            "queued work must move off the crashed replica"
        );
        // Nothing lost: every request has exactly one terminal outcome.
        assert_eq!(outcomes.len(), 6);
        assert_eq!(s.completed + s.rejected_total(), 6);
        assert_eq!(fleet.in_flight(), 0);
        // The crashed replica completed nothing.
        assert_eq!(fleet.replica_summary(1).completed, 0);
    }

    #[test]
    fn probe_loss_ejects_without_a_crash_and_the_replica_recovers() {
        use hs_telemetry::faults::{self, FaultPlan};
        let _guard = crate::fault_test_lock();
        let cfg = FleetConfig {
            probe_every: 1_000,
            suspect_after: 1,
            eject_after: 1,
            recover_after: 1,
            hedge_after: 0,
            ..FleetConfig::default()
        };
        let mut fleet = tiny_fleet(cfg);
        // Two consecutive probe rounds of replica 1 return no signal:
        // the prober reads silence as failure and walks the replica to
        // Ejected even though it never went down.
        faults::arm(FaultPlan::parse("probe_loss:replica1:1,probe_loss:replica1:2").unwrap());
        let _ = fleet.tick(1_000).unwrap();
        assert_eq!(fleet.health(1), HealthState::Suspect);
        let _ = fleet.tick(2_000).unwrap();
        assert_eq!(fleet.health(1), HealthState::Ejected);
        // The losses stop; genuine probes of the still-up replica drive
        // Ejected -> Recovered -> Healthy.
        let _ = fleet.tick(3_000).unwrap();
        assert_eq!(fleet.health(1), HealthState::Recovered);
        let _ = fleet.tick(4_000).unwrap();
        faults::disarm();
        assert_eq!(fleet.health(1), HealthState::Healthy);
        let s = fleet.summary();
        assert_eq!((s.ejections, s.recoveries), (1, 1));
    }

    #[test]
    fn with_every_replica_crashed_requests_shed_typed_not_lost() {
        use hs_telemetry::faults::{self, Fault, FaultPlan};
        let _guard = crate::fault_test_lock();
        let cfg = FleetConfig {
            replicas: 2,
            probe_every: 500,
            hedge_after: 0,
            serve: ServeConfig {
                base_cost: 50_000,
                per_item_cost: 1_000,
                linger: 100_000,
                batch_timeout: 1_000_000,
                ..ServeConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut fleet = tiny_fleet(cfg);
        faults::arm(FaultPlan {
            faults: (0..2)
                .map(|k| Fault {
                    kind: "replica_crash".to_string(),
                    site: format!("replica{k}"),
                    nth: 1,
                })
                .collect(),
        });
        for id in 0..4u64 {
            assert!(fleet.submit(req(id, 0, id), id).is_none());
        }
        let outcomes = fleet.drain().unwrap();
        // Late arrivals find no routable replica at the door.
        let door = fleet.submit(req(9, 0, 10_000), 10_000).expect("no replica");
        assert_eq!(door.reason, FleetReject::NoReplicaAvailable);
        faults::disarm();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, FleetOutcome::Rejected(_))));
        let s = fleet.summary();
        assert_eq!(s.completed, 0);
        assert_eq!(s.rejected_total(), 5);
        assert_eq!(fleet.in_flight(), 0);
    }

    #[test]
    fn priority_shed_guards_low_classes_only_while_degraded() {
        use hs_telemetry::faults::{self, Fault, FaultPlan};
        let _guard = crate::fault_test_lock();
        let cfg = FleetConfig {
            shed_min_class: 1,
            probe_every: 1_000,
            hedge_after: 0,
            ..FleetConfig::default()
        };
        let mut fleet = tiny_fleet(cfg);
        // Healthy fleet: class 1 is served normally.
        let mut low = req(0, 0, 0);
        low.class = 1;
        assert!(fleet.submit(low, 0).is_none());
        // Crash a replica, let the prober eject it.
        faults::arm(FaultPlan {
            faults: vec![Fault {
                kind: "replica_crash".to_string(),
                site: "replica2".to_string(),
                nth: 1,
            }],
        });
        let _ = fleet.tick(3_000).unwrap();
        faults::disarm();
        assert_eq!(fleet.health(2), HealthState::Ejected);
        // Degraded fleet: class 1 is shed, class 0 still admitted.
        let mut low = req(10, 0, 3_000);
        low.class = 1;
        match fleet
            .submit(low, 3_000)
            .expect("degraded fleet sheds class 1")
        {
            FleetRejection {
                reason: FleetReject::PriorityShed { class, min_class },
                ..
            } => assert_eq!((class, min_class), (1, 1)),
            other => panic!("expected PriorityShed, got {other:?}"),
        }
        assert!(fleet.submit(req(11, 0, 3_000), 3_000).is_none());
        assert_eq!(fleet.summary().rejected_priority, 1);
    }
}
