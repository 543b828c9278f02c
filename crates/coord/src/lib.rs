//! **hs-coord**: deterministic sharded candidate evaluation for the
//! HeadStart REINFORCE search.
//!
//! The REINFORCE episode loop is inherently sequential — each policy
//! update depends on the previous episode's rewards — but *within* one
//! episode the `k` sampled actions plus the inference action are
//! independent, RNG-free, net-restoring reward evaluations. The engine
//! exposes that batch through [`hs_core::EvalExecutor`]; this crate
//! provides the sharded implementation:
//!
//! - [`ShardPlan`] — the deterministic work-assignment schedule
//!   (round-robin by item index; an exact partition for any
//!   item/worker count).
//! - [`Coordinator`] — `N` persistent worker threads, each evaluating
//!   its shard against a worker-local clone of the network; rewards
//!   fold back in schedule order, so output is **bit-identical for any
//!   worker count**. Handles worker dropout (the `worker_lost:worker`
//!   fault site) by reassigning and replaying abandoned items, and
//!   emits `worker_start` / `worker_done` / `worker_lost` lifecycle
//!   telemetry plus `hs_coord_*` metrics.
//! - [`executor_for`] — picks [`hs_core::SerialExecutor`] for a single
//!   worker and a [`Coordinator`] otherwise.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coordinator;
mod plan;

pub use coordinator::Coordinator;
pub use plan::ShardPlan;

use hs_core::{EvalExecutor, SerialExecutor};

/// The executor for a requested worker count: serial in-process
/// evaluation for `workers <= 1`, a sharded [`Coordinator`] otherwise.
/// Both produce bit-identical results; only wall-clock differs.
/// `trace_seed` feeds the coordinator's `worker_*` trace-id derivation
/// (pass the run's pruning seed so unit and worker events join up).
pub fn executor_for(workers: usize, trace_seed: u64) -> Box<dyn EvalExecutor> {
    if workers <= 1 {
        Box::new(SerialExecutor)
    } else {
        Box::new(Coordinator::with_trace_seed(workers, trace_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_core::{HeadStartError, ParallelReward, PruningUnit};
    use hs_nn::{models, Network};
    use hs_tensor::Rng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::thread;
    use std::time::Duration;

    /// A pure, thread-safe toy unit: reward is a deterministic function
    /// of the action bits alone.
    struct ToyUnit;

    impl ToyUnit {
        fn score(action: &[bool]) -> f32 {
            let kept = action.iter().filter(|&&b| b).count() as f32;
            let weighted: f32 = action
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| (i as f32 + 1.0).recip())
                .sum();
            weighted - 0.1 * kept
        }
    }

    impl PruningUnit for ToyUnit {
        fn kind(&self) -> &'static str {
            "toy"
        }
        fn unit_count(&self) -> usize {
            8
        }
        fn action_reward(
            &mut self,
            _net: &mut Network,
            action: &[bool],
        ) -> Result<f32, HeadStartError> {
            Ok(ToyUnit::score(action))
        }
        fn as_parallel(&self) -> Option<&dyn ParallelReward> {
            Some(self)
        }
    }

    impl ParallelReward for ToyUnit {
        fn reward(&self, _net: &mut Network, action: &[bool]) -> Result<f32, HeadStartError> {
            Ok(ToyUnit::score(action))
        }
    }

    /// A unit that refuses to expose a parallel view (models the test
    /// doubles in hs-core that mutate counters in `action_reward`).
    struct SerialOnlyUnit {
        calls: usize,
    }

    impl PruningUnit for SerialOnlyUnit {
        fn kind(&self) -> &'static str {
            "serial-only"
        }
        fn unit_count(&self) -> usize {
            4
        }
        fn action_reward(
            &mut self,
            _net: &mut Network,
            action: &[bool],
        ) -> Result<f32, HeadStartError> {
            self.calls += 1;
            Ok(action.iter().filter(|&&b| b).count() as f32)
        }
    }

    /// A thread-safe unit for the soundness tests. An action that keeps
    /// unit 0 opens `gate` and panics. Any other waits for the gate, naps,
    /// fills locals through a pool batch of its own, then counts itself in
    /// `done`: a write through the job's borrow of the unit. The wait
    /// gives up after a few seconds, so a broken coordinator fails an
    /// assertion instead of hanging.
    #[derive(Default)]
    struct SlowOrPanicking {
        gate: (Mutex<bool>, Condvar),
        done: AtomicUsize,
    }

    impl SlowOrPanicking {
        fn open(&self) {
            *self.gate.0.lock().expect("gate lock") = true;
            self.gate.1.notify_all();
        }
    }

    impl PruningUnit for SlowOrPanicking {
        fn kind(&self) -> &'static str {
            "slow-or-panicking"
        }
        fn unit_count(&self) -> usize {
            8
        }
        fn action_reward(
            &mut self,
            net: &mut Network,
            action: &[bool],
        ) -> Result<f32, HeadStartError> {
            self.reward(net, action)
        }
        fn as_parallel(&self) -> Option<&dyn ParallelReward> {
            Some(self)
        }
    }

    impl ParallelReward for SlowOrPanicking {
        fn reward(&self, _net: &mut Network, action: &[bool]) -> Result<f32, HeadStartError> {
            if action[0] {
                self.open();
                panic!("reward fails");
            }
            let open = self.gate.0.lock().expect("gate lock");
            let wait = self
                .gate
                .1
                .wait_timeout_while(open, Duration::from_secs(5), |o| !*o);
            drop(wait.expect("gate lock"));
            thread::sleep(Duration::from_millis(20));
            let mut parts = [0.0f32; 4];
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = parts
                .iter_mut()
                .enumerate()
                .map(|(i, part)| {
                    Box::new(move || *part = i as f32) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            hs_tensor::pool::run_tasks(tasks);
            self.done.fetch_add(1, Ordering::SeqCst);
            Ok(parts.iter().sum())
        }
    }

    fn tiny_net() -> Network {
        let mut rng = Rng::seed_from(7);
        models::vgg11(3, 2, 8, 0.125, &mut rng).unwrap()
    }

    fn batch(n: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|i| (0..8).map(|b| (i >> (b % 4)) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn coordinator_matches_serial_bitwise() {
        let mut net = tiny_net();
        let actions = batch(7);
        let serial = SerialExecutor
            .eval_batch(&mut ToyUnit, &mut net, &actions)
            .unwrap();
        for workers in [1, 2, 3, 8] {
            let mut coord = Coordinator::new(workers);
            coord.begin_unit(&net, "toy");
            let sharded = coord.eval_batch(&mut ToyUnit, &mut net, &actions).unwrap();
            assert_eq!(
                serial.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                sharded.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                "workers = {workers}"
            );
            coord.shutdown();
            assert_eq!(coord.live_count(), workers);
            assert!(coord.utilization() > 0.0);
        }
    }

    #[test]
    fn serial_only_units_fall_back_in_order() {
        let mut net = tiny_net();
        let mut unit = SerialOnlyUnit { calls: 0 };
        let actions = batch(5);
        let mut coord = Coordinator::new(4);
        coord.begin_unit(&net, "toy");
        let rewards = coord.eval_batch(&mut unit, &mut net, &actions).unwrap();
        assert_eq!(rewards.len(), 5);
        assert_eq!(unit.calls, 5);
        // No sharded batches ran, so no worker received items.
        assert_eq!(coord.utilization(), 0.0);
    }

    #[test]
    fn single_item_batches_stay_on_the_primary_path() {
        let mut net = tiny_net();
        let actions = batch(1);
        let mut coord = Coordinator::new(2);
        coord.begin_unit(&net, "toy");
        let rewards = coord.eval_batch(&mut ToyUnit, &mut net, &actions).unwrap();
        assert_eq!(rewards.len(), 1);
        assert_eq!(coord.utilization(), 0.0);
    }

    #[test]
    fn executor_for_picks_serial_under_two_workers() {
        // Smoke: both variants evaluate the same batch identically.
        let mut net = tiny_net();
        let actions = batch(4);
        let mut one = executor_for(1, 0);
        let mut eight = executor_for(8, 0);
        one.begin_unit(&net, "toy");
        eight.begin_unit(&net, "toy");
        let a = one.eval_batch(&mut ToyUnit, &mut net, &actions).unwrap();
        let b = eight.eval_batch(&mut ToyUnit, &mut net, &actions).unwrap();
        assert_eq!(
            a.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_panicking_shard_waits_for_its_running_siblings() {
        // Round-robin: worker 0's only item panics while workers 1 and 2
        // wait mid-shard. The batch's panic may surface only after both
        // have written through their borrows.
        let mut net = tiny_net();
        let actions: Vec<Vec<bool>> = (0..3).map(|i| vec![i == 0; 8]).collect();
        let mut unit = SlowOrPanicking::default();
        let mut coord = Coordinator::new(3);
        coord.begin_unit(&net, "toy");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            coord.eval_batch(&mut unit, &mut net, &actions)
        }));
        assert!(outcome.is_err(), "the shard's panic must reach the caller");
        assert_eq!(
            unit.done.load(Ordering::SeqCst),
            2,
            "eval_batch unwound early"
        );
    }

    #[test]
    fn nested_pool_batches_finish_before_the_batch_returns() {
        // Each job's reward dispatches a pool batch that writes through
        // borrows of the job's own locals.
        let mut net = tiny_net();
        let actions = vec![vec![false; 8]; 5];
        let mut unit = SlowOrPanicking::default();
        unit.open();
        let mut coord = Coordinator::new(2);
        coord.begin_unit(&net, "toy");
        let rewards = coord.eval_batch(&mut unit, &mut net, &actions).unwrap();
        assert_eq!(rewards, vec![6.0; 5]);
        assert_eq!(unit.done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_reuse() {
        let mut net = tiny_net();
        let mut coord = Coordinator::new(2);
        coord.shutdown();
        coord.shutdown();
        let err = coord
            .eval_batch(&mut ToyUnit, &mut net, &batch(3))
            .unwrap_err();
        assert!(matches!(err, HeadStartError::BadTarget { .. }));
    }
}
