//! The sharded batch-evaluation executor.
//!
//! [`Coordinator`] owns a set of persistent worker threads and implements
//! [`EvalExecutor`] by splitting each episode's candidate actions across
//! them with a [`ShardPlan`], evaluating every action against a
//! worker-local scratch clone of the network, and folding the rewards
//! back **by item index** — never by completion order. Because reward
//! evaluation is RNG-free and apply-and-restore (the [`ParallelReward`]
//! contract), the fold is bit-identical to the serial executor for any
//! worker count, including under worker loss.
//!
//! # Worker dropout
//!
//! The `worker_lost:worker` fault site (or any future real health check)
//! kills a worker mid-shard: it records its remaining item indices and
//! abandons them. The coordinator marks the worker dead for the rest of
//! the run, emits a `worker_lost` event, and replays the abandoned items
//! inline on the primary network — deterministically, in index order —
//! so the final rewards are byte-identical to an undisturbed run.
//!
//! # Telemetry
//!
//! Lifecycle events (`worker_start`, `worker_done`, `worker_lost`) and
//! the `hs_coord_*` metrics are all emitted from the coordinator thread
//! at deterministic points; worker threads never emit, so a healthy
//! fixed-`N` run produces a deterministic telemetry stream. The
//! utilization gauge is computed from item counts, not wall-clock.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hs_core::{EvalExecutor, HeadStartError, ParallelReward, PruningUnit, SerialExecutor};
use hs_nn::Network;
use hs_telemetry::{emit, faults, metrics, trace, Event, EventKind, Level, TraceCtx};

use crate::plan::ShardPlan;

/// Telemetry `name` used by every coordinator event.
const EVENT_NAME: &str = "coord";

/// Buckets for the per-worker evaluation-count histogram.
const ITEM_BUCKETS: [f64; 6] = [16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0];

/// A lifetime-erased shard job. Sound because [`Coordinator::eval_batch`]
/// blocks until every dispatched job has finished (same erasure as
/// `hs_tensor::pool::run_tasks`).
type Job = Box<dyn FnOnce() + Send + 'static>;

enum Cmd {
    Run(Job),
    Exit,
}

/// One worker's private command channel.
#[derive(Default)]
struct Channel {
    queue: Mutex<VecDeque<Cmd>>,
    ready: Condvar,
}

impl Channel {
    fn send(&self, cmd: Cmd) {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(cmd);
        self.ready.notify_one();
    }
}

fn worker_loop(channel: &Channel) {
    loop {
        let cmd = {
            let mut queue = channel
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                match queue.pop_front() {
                    Some(cmd) => break cmd,
                    None => {
                        queue = channel
                            .ready
                            .wait(queue)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            }
        };
        match cmd {
            Cmd::Run(job) => job(),
            Cmd::Exit => return,
        }
    }
}

struct Worker {
    channel: Arc<Channel>,
    thread: Option<JoinHandle<()>>,
    /// Logically alive: a "lost" worker's thread keeps idling on its
    /// channel (it only abandoned its items), but it is never assigned
    /// work again and gets no `worker_done` event.
    alive: bool,
    /// Total candidate evaluations this worker completed.
    items_done: u64,
    /// Scratch clone of the network, refreshed per unit by `begin_unit`.
    net: Option<Network>,
}

/// Sharded candidate evaluation over `N` persistent worker threads.
///
/// Workers are dedicated coordinator threads, independent of the
/// `HS_NUM_THREADS` tensor pool; a worker evaluating a candidate may
/// itself lean on the shared pool for the forward passes (non-pool
/// threads enqueue and help drain, which is safe for concurrent
/// callers).
///
/// Dropping the coordinator shuts it down; [`Coordinator::shutdown`]
/// does so explicitly (and idempotently) when event ordering matters.
pub struct Coordinator {
    workers: Vec<Worker>,
    /// Worker-slots that received at least one item, across all batches.
    busy_slots: u64,
    /// Worker-slots available across all batches.
    total_slots: u64,
    finished: bool,
    /// Fleet-lifecycle root span: `worker_start` events are its children
    /// `child(id)`, `worker_done` events `child(n + id)`.
    fleet_ctx: TraceCtx,
    /// Root span of the unit currently being evaluated (set by
    /// `begin_unit`); `worker_lost` events hang off it so a loss is
    /// queryable from the owning unit's trace.
    unit_ctx: Option<TraceCtx>,
    /// Units this executor has begun — the unit ordinal fed into
    /// [`trace::unit_ctx`] (executors see units in sequence).
    units_begun: usize,
    trace_seed: u64,
}

impl Coordinator {
    /// Spawns `workers` evaluation threads (clamped to at least 1) and
    /// emits one `worker_start` event per worker. Trace ids derive from
    /// seed 0; use [`Coordinator::with_trace_seed`] to align them with a
    /// run's seed.
    pub fn new(workers: usize) -> Coordinator {
        Coordinator::with_trace_seed(workers, 0)
    }

    /// As [`Coordinator::new`], deriving every `worker_*` trace id from
    /// `trace_seed` (the same seed the engine's observer uses, so unit
    /// and worker events join up).
    pub fn with_trace_seed(workers: usize, trace_seed: u64) -> Coordinator {
        let n = workers.max(1);
        let fleet_ctx = trace::unit_ctx(trace_seed, "coord", 0);
        let mut spawned = Vec::with_capacity(n);
        for id in 0..n {
            let channel = Arc::new(Channel::default());
            let loop_channel = Arc::clone(&channel);
            let thread = std::thread::Builder::new()
                .name(format!("hs-coord-{id}"))
                .spawn(move || worker_loop(&loop_channel))
                .expect("failed to spawn hs-coord worker thread");
            emit(
                Event::new(EventKind::WorkerStart, Level::Info, EVENT_NAME)
                    .field("worker", id)
                    .traced(&fleet_ctx.child(id as u64)),
            );
            metrics::counter("hs_coord_workers_started_total").inc();
            spawned.push(Worker {
                channel,
                thread: Some(thread),
                alive: true,
                items_done: 0,
                net: None,
            });
        }
        Coordinator {
            workers: spawned,
            busy_slots: 0,
            total_slots: 0,
            finished: false,
            fleet_ctx,
            unit_ctx: None,
            units_begun: 0,
            trace_seed,
        }
    }

    /// Number of worker threads (dead or alive).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of workers still accepting work.
    pub fn live_count(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Fraction of worker-slots that received work, over every batch so
    /// far. Derived from item counts only, so it is deterministic.
    pub fn utilization(&self) -> f64 {
        if self.total_slots == 0 {
            0.0
        } else {
            self.busy_slots as f64 / self.total_slots as f64
        }
    }

    /// Joins every worker, emits `worker_done` events (for workers that
    /// survived) plus the per-worker item histogram and utilization
    /// gauge. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        for worker in &self.workers {
            worker.channel.send(Cmd::Exit);
        }
        let n = self.workers.len();
        for (id, worker) in self.workers.iter_mut().enumerate() {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
            metrics::histogram("hs_coord_worker_items", &ITEM_BUCKETS)
                .observe(worker.items_done as f64);
            if worker.alive {
                emit(
                    Event::new(EventKind::WorkerDone, Level::Info, EVENT_NAME)
                        .field("worker", id)
                        .field("items", worker.items_done)
                        .traced(&self.fleet_ctx.child((n + id) as u64)),
                );
            }
        }
        metrics::gauge("hs_coord_utilization").set(self.utilization());
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("workers", &self.worker_count())
            .field("live", &self.live_count())
            .field("finished", &self.finished)
            .finish()
    }
}

/// Evaluates one worker's shard against its scratch network. On a
/// `worker_lost` fault the remaining items are recorded in `abandoned`
/// and the shard is cut short; on a reward error the shard stops (the
/// error lands in `results` before any of the worker's later `None`
/// slots, so the fold surfaces it first).
fn run_shard(
    par: &dyn ParallelReward,
    net: &mut Network,
    actions: &[Vec<bool>],
    worker_id: usize,
    items: &[usize],
    results: &Mutex<Vec<Option<Result<f32, HeadStartError>>>>,
    abandoned: &Mutex<Vec<(usize, Vec<usize>)>>,
) {
    for (pos, &item) in items.iter().enumerate() {
        if faults::armed() && faults::trip("worker_lost", "worker") {
            abandoned
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push((worker_id, items[pos..].to_vec()));
            return;
        }
        let reward = par.reward(net, &actions[item]);
        let stop = reward.is_err();
        results
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[item] = Some(reward);
        if stop {
            return;
        }
    }
}

impl EvalExecutor for Coordinator {
    fn begin_unit(&mut self, net: &Network, unit_kind: &'static str) {
        self.unit_ctx = Some(trace::unit_ctx(
            self.trace_seed,
            unit_kind,
            self.units_begun,
        ));
        self.units_begun += 1;
        for worker in self.workers.iter_mut().filter(|w| w.alive) {
            worker.net = Some(net.clone());
        }
    }

    fn eval_batch(
        &mut self,
        unit: &mut dyn PruningUnit,
        net: &mut Network,
        actions: &[Vec<bool>],
    ) -> Result<Vec<f32>, HeadStartError> {
        if self.finished {
            return Err(HeadStartError::BadTarget {
                detail: "coordinator used after shutdown".to_string(),
            });
        }
        let live = self.live_count();
        let par = match unit.as_parallel() {
            Some(par) if live > 0 && actions.len() > 1 => par,
            // Units without a thread-safe reward (test doubles with
            // mutable counters), trivial batches, or an all-dead fleet
            // fall back to in-order serial evaluation on the primary
            // network — identical rewards, by the ParallelReward
            // contract.
            _ => return SerialExecutor.eval_batch(unit, net, actions),
        };

        metrics::counter("hs_coord_batches_total").inc();
        metrics::counter("hs_coord_items_total").add(actions.len() as u64);
        let plan = ShardPlan::assign(actions.len(), live);
        self.total_slots += live as u64;
        self.busy_slots += plan.shards().iter().filter(|s| !s.is_empty()).count() as u64;

        let results: Mutex<Vec<Option<Result<f32, HeadStartError>>>> =
            Mutex::new(vec![None; actions.len()]);
        let abandoned: Mutex<Vec<(usize, Vec<usize>)>> = Mutex::new(Vec::new());
        let pending = Mutex::new(0usize);
        let batch_done = Condvar::new();
        let panicked = AtomicBool::new(false);

        let mut slot = 0usize;
        for (id, worker) in self.workers.iter_mut().enumerate() {
            if !worker.alive {
                continue;
            }
            let items = plan.shards()[slot].clone();
            slot += 1;
            if items.is_empty() {
                continue;
            }
            *pending
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
            let channel = Arc::clone(&worker.channel);
            if worker.net.is_none() {
                // begin_unit normally snapshots this; cover direct use.
                worker.net = Some(net.clone());
            }
            let scratch = worker.net.as_mut().expect("scratch network present");
            let (results, abandoned) = (&results, &abandoned);
            let (pending, batch_done, panicked) = (&pending, &batch_done, &panicked);
            let job = move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_shard(par, scratch, actions, id, &items, results, abandoned);
                }));
                if outcome.is_err() {
                    panicked.store(true, Ordering::SeqCst);
                }
                let mut left = pending
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                *left -= 1;
                if *left == 0 {
                    batch_done.notify_all();
                }
            };
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(job);
            // SAFETY: the job borrows `par`, the worker's scratch network,
            // `actions`, the result/abandon slots and the completion
            // latch. Erasing its lifetime is sound because this function
            // never returns or unwinds while a job of its batch is queued
            // or running: each job catches its shard's panic before it
            // counts itself done; every lock here recovers from poison
            // instead of panicking; nothing between the first send and the
            // wait below can panic (the plan has one shard per live
            // worker, and a scratch network is installed just above); and
            // the wait on `pending == 0` comes before the batch's panic is
            // re-raised. Same erasure as hs_tensor::pool; pinned by
            // `a_panicking_shard_waits_for_its_running_siblings` and
            // `nested_pool_batches_finish_before_the_batch_returns`.
            let job: Job = unsafe { std::mem::transmute(job) };
            channel.send(Cmd::Run(job));
        }

        {
            let mut left = pending
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while *left > 0 {
                left = batch_done
                    .wait(left)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        if panicked.load(Ordering::SeqCst) {
            panic!("hs-coord worker panicked during batch evaluation");
        }

        let mut slots = results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);

        // Credit completed items before processing losses: an abandoned
        // item has no result yet, so the filter naturally excludes it.
        let mut slot = 0usize;
        for worker in self.workers.iter_mut() {
            if !worker.alive {
                continue;
            }
            let shard = &plan.shards()[slot];
            slot += 1;
            worker.items_done += shard.iter().filter(|&&i| slots[i].is_some()).count() as u64;
        }

        // Bury lost workers and replay their abandoned items inline on
        // the primary network, in index order — rewards are apply-and-
        // restore, so the values match what the worker would have
        // produced and the output stays bit-identical under loss.
        let mut lost = abandoned
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        lost.sort_by_key(|(id, _)| *id);
        for (id, items) in lost {
            self.workers[id].alive = false;
            self.workers[id].net = None;
            // A loss belongs to the unit being evaluated; fall back to
            // the fleet trace when eval_batch was driven directly.
            let loss_ctx = self
                .unit_ctx
                .unwrap_or(self.fleet_ctx)
                .child((2 * self.workers.len() + id) as u64);
            emit(
                Event::new(EventKind::WorkerLost, Level::Warn, EVENT_NAME)
                    .message("worker lost mid-batch; items reassigned")
                    .field("worker", id)
                    .field("reassigned", items.len())
                    .traced(&loss_ctx),
            );
            metrics::counter("hs_coord_workers_lost_total").inc();
            metrics::counter("hs_coord_reassigned_items_total").add(items.len() as u64);
            for item in items {
                slots[item] = Some(par.reward(net, &actions[item]));
            }
        }

        let mut rewards = Vec::with_capacity(actions.len());
        for (item, result) in slots.into_iter().enumerate() {
            match result {
                Some(Ok(reward)) => rewards.push(reward),
                Some(Err(err)) => return Err(err),
                None => {
                    return Err(HeadStartError::BadTarget {
                        detail: format!(
                            "coordinator lost the reward for item {item} without a recorded error"
                        ),
                    })
                }
            }
        }
        Ok(rewards)
    }
}
