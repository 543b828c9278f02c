//! The invariant behind the pool's lifetime-erasing `transmute`:
//! `run_tasks` never returns or unwinds while a task of its batch is
//! queued or running, so a task may borrow the caller's stack.
//!
//! In each scenario a task panics while its siblings are held mid-task
//! by a [`Gate`] the panicking task opens. The siblings then write
//! through their borrows, after a short nap, and the caller checks the
//! writes are visible as soon as `run_tasks` (or the `catch_unwind`
//! around it) returns. A call that came back early would find a write
//! still pending — the dangling borrow the erasure must never allow. On a
//! correct pool the outcome does not depend on timing; the nap only
//! widens the window in which an early return would be seen. The pool
//! reads `HS_NUM_THREADS` once, so the visible test re-runs the hidden
//! scenarios in a subprocess with four threads, where tasks really run on
//! workers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Duration;

use hs_tensor::pool::{effective_threads, run_tasks};

type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

const NAP: Duration = Duration::from_millis(20);

/// A latch tasks wait on until another task opens it. Waits give up after
/// a few seconds, so a pool that never runs the opening task fails an
/// assertion instead of hanging.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let open = self.open.lock().expect("gate lock");
        let wait = self
            .opened
            .wait_timeout_while(open, Duration::from_secs(5), |o| !*o);
        drop(wait.expect("gate lock"));
    }
}

/// A task panics while its siblings wait mid-task; each sibling then
/// writes through its `&mut` borrow.
fn panic_waits_for_running_siblings() {
    let gate = Gate::default();
    let mut slots = [0u32; 6];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let gate = &gate;
        // Queued first, so no sibling can wait on a task still queued.
        let mut tasks: Vec<Task<'_>> = vec![Box::new(move || {
            gate.open();
            panic!("a task fails mid-batch");
        })];
        for slot in slots.iter_mut() {
            tasks.push(Box::new(move || {
                gate.wait();
                thread::sleep(NAP);
                *slot = 1;
            }));
        }
        run_tasks(tasks);
    }));
    assert!(outcome.is_err(), "the task's panic must reach the caller");
    assert_eq!(slots, [1; 6], "run_tasks unwound before its siblings wrote");
}

/// Every task dispatches nested batches whose tasks write through borrows
/// of the outer task's locals, and one nested task panics while its
/// sibling waits. A task on a worker runs its nested batches inline; one
/// the submitter runs queues them.
fn nested_batches_join_before_their_parent() {
    let mut sums = [0u32; 8];
    let outer: Vec<Task<'_>> = sums
        .iter_mut()
        .map(|sum| {
            Box::new(move || {
                let mut parts = [0u32; 4];
                let nested: Vec<Task<'_>> = parts
                    .iter_mut()
                    .enumerate()
                    .map(|(i, part)| Box::new(move || *part = i as u32 + 1) as Task<'_>)
                    .collect();
                run_tasks(nested);
                let (gate, mut late) = (Gate::default(), 0u32);
                let failing = catch_unwind(AssertUnwindSafe(|| {
                    let (gate, late) = (&gate, &mut late);
                    run_tasks(vec![
                        Box::new(move || {
                            gate.open();
                            panic!("a nested task fails");
                        }),
                        Box::new(move || {
                            gate.wait();
                            thread::sleep(NAP);
                            *late = 10;
                        }),
                    ]);
                }));
                assert!(failing.is_err());
                *sum = parts.iter().sum::<u32>() + late;
            }) as Task<'_>
        })
        .collect();
    run_tasks(outer);
    assert_eq!(
        sums, [20; 8],
        "a nested batch returned before its tasks wrote"
    );
}

/// The tasks on workers wait until the submitting thread has run one of
/// its batch's tasks itself, which panics; then they write. The
/// submitter must still wait for them.
fn submitter_task_panic_waits_for_workers() {
    let submitter = thread::current().id();
    let (gate, by_submitter) = (Gate::default(), AtomicUsize::new(0));
    let mut slots = [0u32; 16];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let tasks: Vec<Task<'_>> = slots
            .iter_mut()
            .map(|slot| {
                let (gate, by_submitter) = (&gate, &by_submitter);
                Box::new(move || {
                    if thread::current().id() == submitter {
                        by_submitter.fetch_add(1, Ordering::SeqCst);
                        gate.open();
                        panic!("the submitter's own task fails");
                    }
                    gate.wait();
                    thread::sleep(NAP);
                    *slot = 1;
                }) as Task<'_>
            })
            .collect();
        run_tasks(tasks);
    }));
    let panicked = by_submitter.load(Ordering::SeqCst);
    assert!(panicked > 0, "the submitter never ran a task of its batch");
    assert!(outcome.is_err());
    let written = slots.iter().filter(|&&s| s == 1).count();
    assert_eq!(
        written + panicked,
        slots.len(),
        "run_tasks unwound before the workers wrote"
    );
}

/// Hidden worker for [`borrows_outlive_every_task_of_a_batch`].
#[test]
#[ignore = "subprocess worker for borrows_outlive_every_task_of_a_batch"]
fn scenarios() {
    assert!(
        effective_threads() > 1,
        "run with HS_NUM_THREADS of 2 or more"
    );
    panic_waits_for_running_siblings();
    nested_batches_join_before_their_parent();
    submitter_task_panic_waits_for_workers();
}

#[test]
fn borrows_outlive_every_task_of_a_batch() {
    let exe = std::env::current_exe().expect("current test binary path");
    let out = Command::new(exe)
        .args(["--ignored", "--exact", "scenarios", "--nocapture"])
        .env("HS_NUM_THREADS", "4")
        .output()
        .expect("spawn the scenarios subprocess");
    assert!(
        out.status.success(),
        "pool soundness scenarios failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
