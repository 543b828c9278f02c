//! Persistent worker pool shared by every parallel kernel in the
//! workspace.
//!
//! The seed implementation spawned fresh crossbeam scoped threads on every
//! large matmul call — thousands of thread spawns per HeadStart search
//! episode. This module replaces that with a process-wide pool created
//! lazily on first use and kept alive for the process lifetime: submitting
//! a batch of tasks is a queue push + condvar wake, not a `clone(2)`.
//!
//! # Sizing
//!
//! The pool holds [`num_threads`]`- 1` workers (the submitting thread
//! itself executes tasks while it waits, so total concurrency equals
//! [`num_threads`]). The count defaults to `std::thread::available_parallelism`
//! and can be overridden with the `HS_NUM_THREADS` environment variable,
//! read once at first use. `HS_NUM_THREADS=1` disables worker threads
//! entirely; every task then runs inline on the caller.
//!
//! # Determinism
//!
//! Kernels built on this pool split work into chunks whose boundaries
//! depend only on the problem size — never on the thread count — and each
//! output element is produced by exactly one task with a fixed internal
//! reduction order. Results are therefore bit-identical for any
//! `HS_NUM_THREADS`, including 1.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// A unit of work submitted to the pool. Lifetimes are erased by
/// [`run_tasks`], which joins all tasks before returning.
type Task = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    tasks: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

struct Pool {
    queue: Arc<Queue>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();
static THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Set for pool workers: tasks that themselves call [`run_tasks`]
    /// execute their subtasks inline instead of re-entering the queue,
    /// which rules out worker-starvation deadlocks from nested
    /// parallelism.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Parses an `HS_NUM_THREADS`-style override; `None`/garbage/0 falls back
/// to the machine's available parallelism.
fn resolve_threads(var: Option<&str>) -> usize {
    match var.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The pool's concurrency: `HS_NUM_THREADS` if set to a positive integer,
/// otherwise `std::thread::available_parallelism()`. Read once; later
/// changes to the environment variable have no effect.
pub fn num_threads() -> usize {
    *THREADS.get_or_init(|| resolve_threads(std::env::var("HS_NUM_THREADS").ok().as_deref()))
}

/// The pool size actually in use: spawned workers plus the submitting
/// thread. Forces pool creation, so the answer reflects what parallel
/// kernels really run on — unlike [`num_threads`], which only reports
/// the configured target and can disagree with reality if worker
/// spawning failed. Benchmarks record this value.
pub fn effective_threads() -> usize {
    pool().workers + 1
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let queue = Arc::new(Queue {
            tasks: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        let workers = num_threads().saturating_sub(1);
        for i in 0..workers {
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name(format!("hs-pool-{i}"))
                .spawn(move || {
                    IS_WORKER.with(|w| w.set(true));
                    worker_loop(&queue);
                })
                .expect("failed to spawn pool worker");
        }
        Pool { queue, workers }
    })
}

fn worker_loop(queue: &Queue) {
    loop {
        let task = {
            let mut tasks = queue.tasks.lock().expect("pool queue poisoned");
            loop {
                if let Some(task) = tasks.pop_front() {
                    break task;
                }
                tasks = queue.ready.wait(tasks).expect("pool queue poisoned");
            }
        };
        task();
    }
}

/// Tracks completion (and panics) of one `run_tasks` batch.
struct Batch {
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicUsize,
}

impl Batch {
    fn finish_one(&self) {
        let mut pending = self.pending.lock().expect("pool batch poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Executes every task, using the pool when it helps, and returns when all
/// are done. Task closures may borrow from the caller's stack: the borrow
/// is sound because this function does not return until every task has
/// finished.
///
/// Tasks run in submission order when executed inline (one thread) and in
/// an unspecified interleaving otherwise, so they must write to disjoint
/// data. Panics in tasks are re-raised on the caller.
pub fn run_tasks(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
    if tasks.is_empty() {
        return;
    }
    crate::telem::pool_batches().inc();
    crate::telem::pool_tasks().add(tasks.len() as u64);
    let inline = tasks.len() == 1 || IS_WORKER.with(|w| w.get());
    if inline || pool().workers == 0 {
        // Same panic behavior as the pooled path: run every task, then
        // report a single batch-level panic.
        let mut panicked = false;
        for task in tasks {
            panicked |= std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err();
        }
        if panicked {
            panic!("a pool task panicked");
        }
        return;
    }
    let pool = pool();
    let batch = Arc::new(Batch {
        pending: Mutex::new(tasks.len()),
        done: Condvar::new(),
        panicked: AtomicUsize::new(0),
    });
    {
        let mut queue = pool.queue.tasks.lock().expect("pool queue poisoned");
        for task in tasks {
            // SAFETY: the closure may borrow the caller's data ('_); the
            // queue requires 'static. Erasing the lifetime is sound because
            // this call never returns or unwinds while a task of its batch
            // is queued or running: every task runs inside `catch_unwind`
            // and then counts itself done, whichever thread pops it (the
            // submitter included); the locks guard no user code, so they
            // cannot be poisoned; and the submitter blocks below until the
            // count reaches zero before it re-raises a panic. Pinned by
            // `crates/tensor/tests/pool_soundness.rs`.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
            let batch = Arc::clone(&batch);
            queue.push_back(Box::new(move || {
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
                    batch.panicked.fetch_add(1, Ordering::Relaxed);
                }
                batch.finish_one();
            }));
        }
        pool.queue.ready.notify_all();
    }
    // Help drain the queue instead of idling: the submitting thread is one
    // of the `num_threads()` compute lanes.
    loop {
        let task = {
            let mut queue = pool.queue.tasks.lock().expect("pool queue poisoned");
            queue.pop_front()
        };
        match task {
            Some(task) => task(),
            None => break,
        }
    }
    let mut pending = batch.pending.lock().expect("pool batch poisoned");
    while *pending > 0 {
        pending = batch.done.wait(pending).expect("pool batch poisoned");
    }
    drop(pending);
    if batch.panicked.load(Ordering::Relaxed) > 0 {
        panic!("a pool task panicked");
    }
}

/// Splits `0..len` into chunks of `chunk` elements (the last may be
/// shorter) and runs `f(start, end)` for each, in parallel when the pool
/// has workers. Chunk boundaries depend only on `len` and `chunk`, keeping
/// results thread-count-invariant.
pub fn for_each_chunk(len: usize, chunk: usize, f: impl Fn(usize, usize) + Sync) {
    if len == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..len.div_ceil(chunk))
        .map(|i| {
            let start = i * chunk;
            let end = (start + chunk).min(len);
            Box::new(move || f(start, end)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    run_tasks(tasks);
}

/// Deterministic parallel reduction: maps each fixed-size chunk of `0..len`
/// to an `f64` partial and combines the partials **in chunk order** on the
/// caller. The partitioning depends only on `len` and `chunk`, so the
/// result is bit-identical for every thread count.
pub fn reduce_chunks(len: usize, chunk: usize, map: impl Fn(usize, usize) -> f64 + Sync) -> f64 {
    if len == 0 {
        return 0.0;
    }
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    let mut partials = vec![0.0f64; n_chunks];
    {
        let map = &map;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = partials
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let start = i * chunk;
                let end = (start + chunk).min(len);
                Box::new(move || *slot = map(start, end)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_tasks(tasks);
    }
    partials.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_parses_and_falls_back() {
        assert_eq!(resolve_threads(Some("3")), 3);
        assert_eq!(resolve_threads(Some(" 12 ")), 12);
        let fallback = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(resolve_threads(Some("0")), fallback);
        assert_eq!(resolve_threads(Some("plenty")), fallback);
        assert_eq!(resolve_threads(None), fallback);
    }

    #[test]
    fn effective_threads_matches_configuration() {
        // workers + the submitting thread == the configured concurrency.
        assert_eq!(effective_threads(), num_threads());
    }

    #[test]
    fn run_tasks_completes_all() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_tasks(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn for_each_chunk_covers_range_exactly_once() {
        let len = 1003;
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        for_each_chunk(len, 17, |start, end| {
            for slot in &hits[start..end] {
                slot.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reduce_chunks_matches_serial_sum() {
        let data: Vec<f64> = (0..5000).map(|i| i as f64 * 0.25).collect();
        let total = reduce_chunks(data.len(), 64, |s, e| data[s..e].iter().sum());
        let serial: f64 = data.iter().sum();
        assert_eq!(total, serial);
    }

    #[test]
    fn nested_run_tasks_does_not_deadlock() {
        let counter = AtomicUsize::new(0);
        for_each_chunk(8, 1, |_, _| {
            for_each_chunk(8, 1, |_, _| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    #[should_panic(expected = "pool task panicked")]
    fn task_panics_propagate() {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("boom");
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_tasks(tasks);
    }
}
