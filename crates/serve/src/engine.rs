//! The serving engine: admission → batcher → breaker → model slots.
//!
//! The engine is a **virtual-time discrete-event machine**. The driver
//! owns the clock: it calls [`ServeEngine::submit`] with each arrival
//! and [`ServeEngine::tick`] with a monotone `now`; the engine executes
//! every batch whose flush time has been reached and returns the
//! terminal [`Outcome`]s. [`ServeEngine::next_event`] exposes the next
//! flush instant so a driver can jump time straight to it instead of
//! polling.
//!
//! Batching is dynamic: a batch flushes when it is full
//! (`batch_max` requests queued) or when the oldest request has
//! lingered `linger` micros — whichever comes first — but never before
//! the previous batch finished (`busy_until`) or while the breaker is
//! open. Compute cost is *modeled* (`base_cost + per_item_cost * len`,
//! scaled per model slot, multiplied by `slow_factor` when a
//! `slow_infer` fault fires), while the predictions themselves come
//! from a real forward pass — so tests get genuine model outputs under
//! a deterministic clock.

use std::collections::BTreeMap;

use hs_telemetry::{faults, flight, metrics, trace, Event, EventKind, Level, TraceCtx};
use hs_tensor::Tensor;

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::error::ServeError;
use crate::model::{ModelSlots, SlotKind};
use crate::queue::AdmissionQueue;
use crate::request::{Micros, Outcome, RejectReason, Rejection, Request, Response};
use crate::slo::SloTracker;

/// Histogram bounds for per-request latency, in virtual micros.
const LATENCY_BUCKETS: [f64; 6] = [1e3, 5e3, 1e4, 5e4, 1e5, 5e5];

/// Engine knobs. Every duration is in virtual microseconds.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Maximum requests per batch.
    pub batch_max: usize,
    /// How long the oldest request may linger before a partial batch
    /// flushes anyway.
    pub linger: Micros,
    /// Fixed cost of any batch on the dense model.
    pub base_cost: Micros,
    /// Marginal cost per batched request on the dense model.
    pub per_item_cost: Micros,
    /// A batch running longer than this is abandoned: its requests are
    /// requeued and the breaker records a failure.
    pub batch_timeout: Micros,
    /// Consecutive failures that trip the breaker open.
    pub breaker_threshold: usize,
    /// How long the breaker stays open before admitting probes.
    pub breaker_cooldown: Micros,
    /// Cost multiplier applied when a `slow_infer:infer` fault fires.
    pub slow_factor: u64,
    /// Pruned-model cost relative to dense (from the serve manifest's
    /// FLOP ratio; < 1.0 is what makes degradation worth it).
    pub pruned_cost_scale: f64,
    /// Queue depth at flush time counting as an overload strike.
    pub degrade_high: usize,
    /// Consecutive overload strikes that trigger degradation.
    pub overload_strikes: usize,
    /// Queue depth at or below which a successful batch counts toward
    /// recovery.
    pub recover_low: usize,
    /// Healthy successful batches (breaker closed, queue drained)
    /// required before restoring the dense model.
    pub recovery_batches: usize,
    /// Seed every request/batch/breaker trace id is derived from; two
    /// runs with the same seed emit byte-identical trace ids.
    pub trace_seed: u64,
    /// Required deadline-hit ratio per SLO accounting window.
    pub slo_target: f64,
    /// SLO window length in terminal outcomes per class (0 disables
    /// burn accounting).
    pub slo_window: usize,
    /// Fleet replica id this engine serves as, if any. When set, every
    /// request/batch/degrade/restore event carries a `replica` field so
    /// `hs_obs` can attribute traffic per replica.
    pub replica: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 32,
            batch_max: 8,
            linger: 2_000,
            base_cost: 500,
            per_item_cost: 250,
            batch_timeout: 50_000,
            breaker_threshold: 3,
            breaker_cooldown: 100_000,
            slow_factor: 20,
            pruned_cost_scale: 0.25,
            degrade_high: 24,
            overload_strikes: 3,
            recover_low: 4,
            recovery_batches: 4,
            trace_seed: 0x4853,
            slo_target: 0.9,
            slo_window: 20,
            replica: None,
        }
    }
}

/// Aggregate counters for a serving session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests served with a prediction.
    pub completed: u64,
    /// Requests shed because the queue was full.
    pub rejected_queue_full: u64,
    /// Requests shed because the deadline was hopeless at admission.
    pub rejected_unmeetable: u64,
    /// Requests dropped because the deadline expired while queued.
    pub rejected_expired: u64,
    /// Batches that ran to completion.
    pub batches: u64,
    /// Batches abandoned at the timeout.
    pub batch_timeouts: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Times the engine degraded to the pruned model.
    pub degrades: u64,
    /// Times the engine restored the dense model.
    pub restores: u64,
    /// Worst completed-request latency.
    pub max_latency_micros: Micros,
    /// Sum of completed-request latencies (for means).
    pub total_latency_micros: Micros,
    /// SLO windows that closed with their error budget exhausted.
    pub slo_burns: u64,
}

impl ServeSummary {
    /// All shed requests, regardless of reason.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full + self.rejected_unmeetable + self.rejected_expired
    }
}

/// Trace bookkeeping for one in-flight request: its root span, its SLO
/// class, and whether it made it past admission (admitted requests get
/// child terminal spans; admission sheds terminate on the root).
#[derive(Debug, Clone, Copy)]
struct TraceState {
    ctx: TraceCtx,
    class: usize,
    admitted: bool,
}

/// The serving engine. See the module docs for the time model.
#[derive(Debug)]
pub struct ServeEngine {
    cfg: ServeConfig,
    slots: ModelSlots,
    inputs: Tensor,
    pool: usize,
    queue: AdmissionQueue,
    breaker: CircuitBreaker,
    busy_until: Micros,
    degraded: bool,
    /// Externally-imposed compute inflation (1 = nominal). The fleet
    /// sets this while a `replica_slow` fault is active on this replica.
    cost_multiplier: u64,
    overload_strikes: usize,
    healthy_streak: usize,
    stats: ServeSummary,
    /// Root trace per in-flight request id, dropped at the terminal
    /// outcome (survives timeout-requeues, which keep the request).
    traces: BTreeMap<u64, TraceState>,
    /// Submission counter feeding request trace-id derivation.
    trace_seq: u64,
    /// Batch ordinal feeding batch trace-id derivation and the `batch`
    /// linkage field on completion events.
    batch_seq: u64,
    /// Root span for engine-lifecycle events (degrade/restore).
    engine_ctx: TraceCtx,
    engine_seq: u64,
    slo: SloTracker,
}

impl ServeEngine {
    /// An idle engine serving `slots` over the sample pool `inputs`
    /// (axis 0 indexes samples; request `sample` values are taken
    /// modulo the pool size).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] when the input pool is empty.
    pub fn new(
        cfg: ServeConfig,
        slots: ModelSlots,
        inputs: Tensor,
    ) -> Result<ServeEngine, ServeError> {
        let pool = inputs.shape().dims().first().copied().unwrap_or(0);
        if pool == 0 || inputs.is_empty() {
            return Err(ServeError::BadConfig("empty input pool".to_string()));
        }
        let mut breaker = CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown);
        breaker.set_trace(trace::unit_ctx(cfg.trace_seed, "serve_breaker", 0));
        Ok(ServeEngine {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            breaker,
            slots,
            inputs,
            pool,
            busy_until: 0,
            degraded: false,
            cost_multiplier: 1,
            overload_strikes: 0,
            healthy_streak: 0,
            stats: ServeSummary::default(),
            traces: BTreeMap::new(),
            trace_seq: 0,
            batch_seq: 0,
            engine_ctx: trace::unit_ctx(cfg.trace_seed, "serve_engine", 0),
            engine_seq: 0,
            slo: SloTracker::new(cfg.slo_target, cfg.slo_window, cfg.trace_seed),
            cfg,
        })
    }

    /// The slot currently serving.
    pub fn active(&self) -> SlotKind {
        self.slots.active()
    }

    /// True while degraded to the pruned model.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Counters so far.
    pub fn summary(&self) -> ServeSummary {
        self.stats
    }

    /// Sets the externally-imposed compute inflation (1 = nominal).
    /// The fleet uses this to model a slow replica without touching the
    /// `slow_infer` fault path.
    pub fn set_cost_multiplier(&mut self, multiplier: u64) {
        self.cost_multiplier = multiplier.max(1);
    }

    /// The current externally-imposed compute inflation.
    pub fn cost_multiplier(&self) -> u64 {
        self.cost_multiplier
    }

    /// Evicts everything still queued, returning the requests and
    /// forgetting their trace state **without** emitting terminal
    /// events — the fleet calls this when ejecting a replica and either
    /// resubmits the requests elsewhere (new trace on the destination)
    /// or sheds them at the fleet level with a typed reason.
    pub fn evict_queued(&mut self) -> Vec<Request> {
        let mut evicted = Vec::with_capacity(self.queue.len());
        while let Some(req) = self.queue.pop() {
            self.traces.remove(&req.id);
            evicted.push(req);
        }
        evicted
    }

    /// Offers a request for admission at `now` (call [`tick`] with the
    /// same `now` first so the queue reflects the present). Returns the
    /// typed rejection when the request is shed, `None` when admitted.
    ///
    /// [`tick`]: ServeEngine::tick
    pub fn submit(&mut self, req: Request, now: Micros) -> Option<Rejection> {
        self.stats.submitted += 1;
        metrics::counter("hs_serve_requests_total").inc();
        // Every submission opens a trace, derived purely from the
        // configured seed and the submission sequence number.
        let root = TraceCtx::root(self.cfg.trace_seed, self.trace_seq);
        self.trace_seq += 1;
        self.traces.insert(
            req.id,
            TraceState {
                ctx: root,
                class: req.class,
                admitted: false,
            },
        );
        if self.queue.len() >= self.queue.capacity() {
            let reason = RejectReason::QueueFull {
                depth: self.queue.len(),
                capacity: self.queue.capacity(),
            };
            return Some(self.shed(req.id, reason, now));
        }
        let projected = self.projected_completion(now);
        if projected > req.deadline {
            let reason = RejectReason::DeadlineUnmeetable {
                projected,
                deadline: req.deadline,
            };
            return Some(self.shed(req.id, reason, now));
        }
        let id = req.id;
        let class = req.class;
        if let Err(reason) = self.queue.push(req) {
            return Some(self.shed(id, reason, now));
        }
        if let Some(state) = self.traces.get_mut(&id) {
            state.admitted = true;
        }
        self.emit_request(id, "accepted", Level::Info, &root, |e| {
            e.field("slo_class", class)
                .field("at", now)
                .field("depth", self.queue.len())
        });
        None
    }

    /// When the next batch will flush, if anything is queued. Drivers
    /// jump virtual time straight to this instant.
    pub fn next_event(&self) -> Option<Micros> {
        let flush_candidate = if self.queue.len() >= self.cfg.batch_max {
            self.queue.peek(self.cfg.batch_max - 1)?.arrival
        } else {
            self.queue.oldest_arrival()? + self.cfg.linger
        };
        let gate = self.breaker.gate().unwrap_or(0);
        Some(flush_candidate.max(self.busy_until).max(gate))
    }

    /// Advances virtual time to `now`, executing every batch whose
    /// flush time has been reached. Returns the terminal outcomes
    /// produced along the way.
    ///
    /// # Errors
    ///
    /// [`ServeError::Nn`] when a forward pass fails (a startup shape
    /// mismatch — not a load-shedding condition).
    pub fn tick(&mut self, now: Micros) -> Result<Vec<Outcome>, ServeError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_event() {
            if t > now {
                break;
            }
            if !self.run_batch(t, &mut out)? {
                break;
            }
        }
        Ok(out)
    }

    /// Drains everything still queued after the last arrival, advancing
    /// virtual time as far as the remaining work needs.
    ///
    /// # Errors
    ///
    /// Same as [`tick`](ServeEngine::tick).
    pub fn drain(&mut self) -> Result<Vec<Outcome>, ServeError> {
        let mut out = Vec::new();
        while let Some(t) = self.next_event() {
            if !self.run_batch(t, &mut out)? {
                break;
            }
        }
        Ok(out)
    }

    /// Modeled duration of a `len`-request batch on `slot`.
    fn batch_cost(&self, len: usize, slot: SlotKind, slowed: bool) -> Micros {
        let nominal = self.cfg.base_cost + self.cfg.per_item_cost * len as Micros;
        let scale = match slot {
            SlotKind::Dense => 1.0,
            SlotKind::Pruned => self.cfg.pruned_cost_scale,
        };
        let scaled = ((nominal as f64) * scale).round().max(1.0) as Micros * self.cost_multiplier;
        if slowed {
            scaled * self.cfg.slow_factor.max(1)
        } else {
            scaled
        }
    }

    /// Admission-time completion estimate for one more request: the
    /// engine frees up at `busy_until` (or the breaker's gate), then
    /// needs a whole number of full batches to reach the newcomer.
    fn projected_completion(&self, now: Micros) -> Micros {
        let start = now
            .max(self.busy_until)
            .max(self.breaker.gate().unwrap_or(0));
        let queued = self.queue.len() + 1;
        let batches = queued.div_ceil(self.cfg.batch_max) as Micros;
        start + batches * self.batch_cost(self.cfg.batch_max, self.slots.active(), false)
    }

    /// Executes one batch at flush time `t`. Returns whether progress
    /// was made (always true today; the bool guards `tick` against any
    /// future stall path looping forever).
    fn run_batch(&mut self, t: Micros, out: &mut Vec<Outcome>) -> Result<bool, ServeError> {
        if !self.breaker.allow(t) {
            return Ok(false);
        }
        self.note_overload(t);

        let mut batch = Vec::with_capacity(self.cfg.batch_max);
        while batch.len() < self.cfg.batch_max {
            match self.queue.pop() {
                Some(req) => batch.push(req),
                None => break,
            }
        }
        if batch.is_empty() {
            return Ok(true);
        }

        // Drop requests whose deadline the batch cannot meet even at
        // nominal speed; cost shrinks with the batch, so iterate.
        self.drop_expired(&mut batch, t, false, out);
        if batch.is_empty() {
            return Ok(true);
        }

        // One fault sample per batch execution attempt.
        let slowed = faults::armed() && faults::trip("slow_infer", "infer");
        let duration = self.batch_cost(batch.len(), self.slots.active(), slowed);

        if duration > self.cfg.batch_timeout {
            // Abandon the batch: record the failure, hold the lane for
            // the timeout, and requeue the requests for retry.
            self.stats.batch_timeouts += 1;
            metrics::counter("hs_serve_batch_timeouts_total").inc();
            self.busy_until = t + self.cfg.batch_timeout;
            self.healthy_streak = 0;
            self.emit_batch(batch.len(), "timeout", Level::Warn, t, duration);
            for req in batch.into_iter().rev() {
                self.queue.push_front(req);
            }
            let tripped = self.breaker.on_failure(t);
            self.stats.breaker_trips = self.breaker.trips();
            if tripped {
                flight::trigger("breaker_trip");
                if !self.degraded {
                    self.degrade("breaker_open", t);
                }
            }
            return Ok(true);
        }

        // A slow-but-within-timeout batch may still blow deadlines;
        // re-drop against the actual duration so every completed
        // response is in deadline by construction.
        if slowed {
            self.drop_expired(&mut batch, t, true, out);
            if batch.is_empty() {
                return Ok(true);
            }
        }

        let duration = self.batch_cost(batch.len(), self.slots.active(), slowed);
        let completed = t + duration;
        let indices: Vec<usize> = batch.iter().map(|r| r.sample % self.pool).collect();
        let batch_input = self
            .inputs
            .index_select(0, &indices)
            .map_err(|e| ServeError::Nn(hs_nn::NnError::Tensor(e)))?;
        let classes = self.slots.active_model().classify(&batch_input)?;

        self.busy_until = completed;
        self.stats.batches += 1;
        metrics::counter("hs_serve_batches_total").inc();
        let batch_ordinal = self.emit_batch(batch.len(), "ok", Level::Info, t, duration);

        for (req, class) in batch.into_iter().zip(classes) {
            let latency = completed - req.arrival;
            self.stats.completed += 1;
            self.stats.total_latency_micros += latency;
            self.stats.max_latency_micros = self.stats.max_latency_micros.max(latency);
            metrics::counter("hs_serve_completed_total").inc();
            metrics::histogram("hs_serve_latency_micros", &LATENCY_BUCKETS).observe(latency as f64);
            let model = self.slots.active();
            let ctx = match self.traces.remove(&req.id) {
                Some(s) => s.ctx.child(1),
                None => TraceCtx::root(self.cfg.trace_seed, u64::MAX),
            };
            if self.slo.record(req.class, true, completed) {
                self.stats.slo_burns += 1;
            }
            self.emit_request(req.id, "completed", Level::Info, &ctx, |e| {
                e.field("class", class)
                    .field("slo_class", req.class)
                    .field("model", model.as_str())
                    .field("batch", batch_ordinal)
                    .field("latency", latency)
            });
            out.push(Outcome::Completed(Response {
                id: req.id,
                class,
                model,
                completed,
                deadline: req.deadline,
                queued_micros: t - req.arrival,
                infer_micros: duration,
            }));
        }

        let recovered = self.breaker.on_success(completed);
        if recovered {
            self.healthy_streak = 0;
        }
        self.note_health(completed);
        Ok(true)
    }

    /// Iteratively drops queued-past-deadline requests from `batch`,
    /// recomputing the (shrinking) batch cost each round.
    fn drop_expired(
        &mut self,
        batch: &mut Vec<Request>,
        t: Micros,
        slowed: bool,
        out: &mut Vec<Outcome>,
    ) {
        loop {
            let duration = self.batch_cost(batch.len(), self.slots.active(), slowed);
            let finish = t + duration;
            let before = batch.len();
            let mut kept = Vec::with_capacity(before);
            for req in batch.drain(..) {
                if req.deadline < finish {
                    out.push(Outcome::Rejected(self.shed(
                        req.id,
                        RejectReason::DeadlineExpired {
                            now: t,
                            deadline: req.deadline,
                        },
                        t,
                    )));
                } else {
                    kept.push(req);
                }
            }
            *batch = kept;
            if batch.len() == before || batch.is_empty() {
                return;
            }
        }
    }

    /// Counts an overload strike when the queue is deep at flush time;
    /// enough consecutive strikes degrade to the pruned model.
    fn note_overload(&mut self, t: Micros) {
        if self.queue.len() >= self.cfg.degrade_high {
            self.overload_strikes += 1;
            if self.overload_strikes >= self.cfg.overload_strikes && !self.degraded {
                self.degrade("sustained_overload", t);
            }
        } else {
            self.overload_strikes = 0;
        }
    }

    /// Counts a healthy batch toward recovery; enough of them restore
    /// the dense model.
    fn note_health(&mut self, t: Micros) {
        if !self.degraded {
            return;
        }
        if self.breaker.state() == BreakerState::Closed && self.queue.len() <= self.cfg.recover_low
        {
            self.healthy_streak += 1;
            if self.healthy_streak >= self.cfg.recovery_batches {
                self.restore(t);
            }
        } else {
            self.healthy_streak = 0;
        }
    }

    fn degrade(&mut self, reason: &str, t: Micros) {
        self.degraded = true;
        self.healthy_streak = 0;
        self.slots.swap_to(SlotKind::Pruned);
        self.stats.degrades += 1;
        metrics::counter("hs_serve_degrades_total").inc();
        let ctx = self.engine_ctx.child(self.engine_seq);
        self.engine_seq += 1;
        let mut event = Event::new(EventKind::Degrade, Level::Warn, "serve/degrade")
            .message(format!("degrading to pruned model: {reason}"))
            .field("reason", reason)
            .field("model", SlotKind::Pruned.as_str())
            .field("at", t)
            .traced(&ctx);
        if let Some(replica) = self.cfg.replica {
            event = event.field("replica", replica);
        }
        hs_telemetry::emit(event);
        if reason == "sustained_overload" {
            flight::trigger("sustained_overload");
        }
    }

    fn restore(&mut self, t: Micros) {
        self.degraded = false;
        self.healthy_streak = 0;
        self.slots.swap_to(SlotKind::Dense);
        self.stats.restores += 1;
        metrics::counter("hs_serve_restores_total").inc();
        let ctx = self.engine_ctx.child(self.engine_seq);
        self.engine_seq += 1;
        let mut event = Event::new(EventKind::Restore, Level::Info, "serve/restore")
            .message("restoring dense model: recovered")
            .field("reason", "recovered")
            .field("model", SlotKind::Dense.as_str())
            .field("at", t)
            .traced(&ctx);
        if let Some(replica) = self.cfg.replica {
            event = event.field("replica", replica);
        }
        hs_telemetry::emit(event);
    }

    /// Records a typed rejection (event + counters + SLO miss) and
    /// returns it. The terminal event is a child of the request's root
    /// span when the request was admitted, or the root itself when it
    /// was shed at admission (the shed is then the trace's only event).
    fn shed(&mut self, id: u64, reason: RejectReason, at: Micros) -> Rejection {
        match reason {
            RejectReason::QueueFull { .. } => self.stats.rejected_queue_full += 1,
            RejectReason::DeadlineUnmeetable { .. } => self.stats.rejected_unmeetable += 1,
            RejectReason::DeadlineExpired { .. } => self.stats.rejected_expired += 1,
        }
        metrics::counter("hs_serve_rejected_total").inc();
        let (ctx, class) = match self.traces.remove(&id) {
            Some(s) => (if s.admitted { s.ctx.child(1) } else { s.ctx }, s.class),
            // A shed for an id never submitted (impossible today);
            // derive a stable orphan trace rather than panic.
            None => (TraceCtx::root(self.cfg.trace_seed, u64::MAX), 0),
        };
        if self.slo.record(class, false, at) {
            self.stats.slo_burns += 1;
        }
        let name = reason.as_str();
        self.emit_request(id, name, Level::Warn, &ctx, |e| {
            e.field("slo_class", class).field("at", at)
        });
        Rejection { id, reason, at }
    }

    fn emit_request(
        &self,
        id: u64,
        outcome: &str,
        level: Level,
        ctx: &TraceCtx,
        extra: impl FnOnce(Event) -> Event,
    ) {
        let mut event = Event::new(EventKind::ServeRequest, level, "serve/request")
            .field("id", id)
            .field("outcome", outcome)
            .traced(ctx);
        if let Some(replica) = self.cfg.replica {
            event = event.field("replica", replica);
        }
        hs_telemetry::emit(extra(event));
    }

    /// Emits one batch event under its own per-batch trace and returns
    /// the batch ordinal (echoed on completion events for linkage).
    fn emit_batch(
        &mut self,
        size: usize,
        outcome: &str,
        level: Level,
        t: Micros,
        duration: Micros,
    ) -> u64 {
        let ordinal = self.batch_seq;
        self.batch_seq += 1;
        let ctx = trace::unit_ctx(self.cfg.trace_seed, "serve_batch", ordinal as usize);
        let mut event = Event::new(EventKind::ServeBatch, level, "serve/batch")
            .field("size", size)
            .field("model", self.slots.active().as_str())
            .field("outcome", outcome)
            .field("batch", ordinal)
            .field("at", t)
            .field("duration", duration)
            .traced(&ctx);
        if let Some(replica) = self.cfg.replica {
            event = event.field("replica", replica);
        }
        hs_telemetry::emit(event);
        ordinal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_nn::infer::SharedNetwork;
    use hs_nn::models;
    use hs_tensor::{Rng, Shape};

    fn tiny_engine(cfg: ServeConfig) -> ServeEngine {
        let mut rng = Rng::seed_from(7);
        let net = models::lenet(1, 4, 8, 0.5, &mut rng).unwrap();
        let slots = ModelSlots::new(SharedNetwork::new(net.clone()), SharedNetwork::new(net));
        let inputs = Tensor::randn(Shape::d4(6, 1, 8, 8), &mut Rng::seed_from(3));
        ServeEngine::new(cfg, slots, inputs).unwrap()
    }

    fn req(id: u64, arrival: Micros, deadline: Micros) -> Request {
        Request {
            id,
            sample: id as usize,
            class: 0,
            tenant: 0,
            arrival,
            deadline,
        }
    }

    #[test]
    fn full_batch_flushes_at_arrival_partial_batch_lingers() {
        let _guard = crate::fault_test_lock();
        let cfg = ServeConfig {
            queue_capacity: 8,
            batch_max: 2,
            linger: 1_000,
            base_cost: 100,
            per_item_cost: 50,
            ..ServeConfig::default()
        };
        let mut eng = tiny_engine(cfg);
        assert!(eng.submit(req(0, 10, 100_000), 10).is_none());
        // Partial batch: flush when the oldest request has lingered.
        assert_eq!(eng.next_event(), Some(1_010));
        assert!(eng.submit(req(1, 20, 100_000), 20).is_none());
        // Full batch: flush at the closing request's arrival.
        assert_eq!(eng.next_event(), Some(20));
        let outcomes = eng.tick(20).unwrap();
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            match o {
                Outcome::Completed(r) => {
                    assert_eq!(r.completed, 20 + 100 + 2 * 50);
                    assert!(r.completed <= r.deadline);
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
        assert_eq!(eng.summary().completed, 2);
    }

    #[test]
    fn sheds_hopeless_deadlines_at_admission() {
        let cfg = ServeConfig {
            batch_max: 2,
            base_cost: 1_000,
            per_item_cost: 1_000,
            ..ServeConfig::default()
        };
        let mut eng = tiny_engine(cfg);
        // A full dense batch costs 3_000; deadline 100 is hopeless.
        let rej = eng.submit(req(0, 0, 100), 0).expect("must be shed");
        match rej.reason {
            RejectReason::DeadlineUnmeetable {
                projected,
                deadline,
            } => {
                assert_eq!(projected, 3_000);
                assert_eq!(deadline, 100);
            }
            other => panic!("expected DeadlineUnmeetable, got {other:?}"),
        }
        assert_eq!(eng.summary().rejected_unmeetable, 1);
        assert_eq!(eng.queue_depth(), 0);
    }

    #[test]
    fn predictions_match_direct_inference() {
        let _guard = crate::fault_test_lock();
        let cfg = ServeConfig {
            batch_max: 4,
            linger: 10,
            ..ServeConfig::default()
        };
        let mut eng = tiny_engine(cfg);
        for id in 0..3u64 {
            assert!(eng.submit(req(id, id, 1_000_000), id).is_none());
        }
        let outcomes = eng.drain().unwrap();
        let expected = {
            let mut rng = Rng::seed_from(7);
            let mut net = models::lenet(1, 4, 8, 0.5, &mut rng).unwrap();
            let inputs = Tensor::randn(Shape::d4(6, 1, 8, 8), &mut Rng::seed_from(3));
            hs_nn::infer::predict(&mut net, &inputs).unwrap()
        };
        assert_eq!(outcomes.len(), 3);
        for o in outcomes {
            match o {
                Outcome::Completed(r) => {
                    assert_eq!(r.class, expected[(r.id as usize) % expected.len()]);
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
    }

    #[test]
    fn slow_fault_trips_breaker_and_degrades_then_recovers() {
        use hs_telemetry::faults::{Fault, FaultPlan};
        let _guard = crate::fault_test_lock();
        let cfg = ServeConfig {
            queue_capacity: 8,
            batch_max: 2,
            linger: 500,
            base_cost: 1_000,
            per_item_cost: 1_000,
            batch_timeout: 10_000,
            breaker_threshold: 2,
            breaker_cooldown: 20_000,
            slow_factor: 20,
            pruned_cost_scale: 0.25,
            recover_low: 8,
            recovery_batches: 1,
            ..ServeConfig::default()
        };
        let mut eng = tiny_engine(cfg);
        faults::arm(FaultPlan {
            faults: [1u64, 2]
                .iter()
                .map(|nth| Fault {
                    kind: "slow_infer".to_string(),
                    site: "infer".to_string(),
                    nth: *nth,
                })
                .collect(),
        });
        for id in 0..4u64 {
            assert!(eng.submit(req(id, id * 10, 1_000_000), id * 10).is_none());
        }
        let outcomes = eng.drain().unwrap();
        faults::disarm();
        // Two slowed batches time out back to back, tripping the
        // breaker and degrading; after the cooldown the requeued
        // requests complete on the pruned model, and the healthy batch
        // restores dense.
        let s = eng.summary();
        assert_eq!(s.batch_timeouts, 2);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.degrades, 1);
        assert_eq!(s.restores, 1);
        assert_eq!(s.completed, 4);
        assert!(!eng.degraded());
        assert_eq!(eng.active(), SlotKind::Dense);
        let completions = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Completed(_)))
            .count();
        assert_eq!(completions, 4);
        for o in outcomes {
            if let Outcome::Completed(r) = o {
                // ids 0/1 complete on the degraded (pruned) probe
                // batch; the restore then puts 2/3 back on dense.
                let expected = if r.id < 2 {
                    SlotKind::Pruned
                } else {
                    SlotKind::Dense
                };
                assert_eq!(r.model, expected);
                assert!(r.completed <= r.deadline);
            }
        }
    }
}
