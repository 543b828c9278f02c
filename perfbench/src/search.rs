//! `search`: HeadStart layer-wise pruning of a quarter-width VGG-11,
//! the batch job behind `hs_run --quick`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hs_coord::Coordinator;
use hs_core::{EvalExecutor, HeadStartError, PruningUnit, SerialExecutor};
use hs_data::{Dataset, DatasetSpec};
use hs_nn::accounting::analyze;
use hs_nn::{checkpoint, train, Network};
use hs_pruning::driver::FineTune;
use hs_runner::{pretrain, Budget, Method, MethodRun, ModelChoice, ModelKind, Prepared};
use hs_tensor::Rng;

use crate::common::{derive_seed, repeat_setup, timed, RegistryDelta, Report};
use crate::stats::median;
use crate::trace;

/// Evaluation workers of the timed search, as `hs_run --workers 2`.
pub const WORKERS: usize = 2;
const SP: f32 = 2.0;
/// Final test accuracy every run must beat: chance on the 16-class set,
/// which is also what a net that predicts one class scores on its
/// balanced test split. The quick budget leaves accuracy low (0.1–0.4).
const ACCURACY_FLOOR: f32 = 1.0 / 16.0;
/// Timed repetitions of one test-set evaluation and one fine-tune
/// epoch (traced mode).
const LAYER_REPS: usize = 5;

/// Wraps an executor and times each `eval_batch` call (one per episode)
/// and the gap between two calls of one unit (the policy step). Rewards
/// pass through untouched.
struct TimingExecutor<'a> {
    inner: &'a mut dyn EvalExecutor,
    episodes: usize,
    candidates: usize,
    eval: Duration,
    policy: Duration,
    policy_steps: usize,
    last_end: Option<Instant>,
}

impl<'a> TimingExecutor<'a> {
    fn new(inner: &'a mut dyn EvalExecutor) -> Self {
        TimingExecutor {
            inner,
            episodes: 0,
            candidates: 0,
            eval: Duration::ZERO,
            policy: Duration::ZERO,
            policy_steps: 0,
            last_end: None,
        }
    }
}

impl EvalExecutor for TimingExecutor<'_> {
    fn begin_unit(&mut self, net: &Network, unit_kind: &'static str) {
        self.last_end = None;
        self.inner.begin_unit(net, unit_kind);
    }

    fn eval_batch(
        &mut self,
        unit: &mut dyn PruningUnit,
        net: &mut Network,
        actions: &[Vec<bool>],
    ) -> Result<Vec<f32>, HeadStartError> {
        let start = Instant::now();
        if let Some(end) = self.last_end {
            self.policy += start - end;
            self.policy_steps += 1;
            trace::record("core.policy", end, start);
        }
        let rewards = {
            let _span = trace::begin("core.eval_batch");
            self.inner.eval_batch(unit, net, actions)
        };
        let end = Instant::now();
        self.eval += end - start;
        self.episodes += 1;
        self.candidates += actions.len();
        self.last_end = Some(end);
        rewards
    }
}

/// One timed pipeline run and its episode split.
struct Run {
    out: MethodRun,
    secs: f64,
    episodes: usize,
    candidates: usize,
    eval_secs: f64,
    policy_secs: f64,
    policy_steps: usize,
}

fn run_once(prepared: &Prepared, prune_seed: u64, workers: usize) -> Result<Run, String> {
    let mut serial = SerialExecutor;
    let mut coord;
    let inner: &mut dyn EvalExecutor = if workers > 1 {
        coord = Coordinator::with_trace_seed(workers, prune_seed);
        &mut coord
    } else {
        &mut serial
    };
    let mut exec = TimingExecutor::new(inner);
    let method = Method::HeadStartLayers { sp: SP };
    let (out, secs) = {
        let _span = trace::begin("runner.run_method_with");
        timed(|| prepared.run_method_with(&method, prune_seed, &mut exec))
    };
    let out = out.map_err(|e| format!("search failed: {e}"))?;
    Ok(Run {
        out,
        secs,
        episodes: exec.episodes,
        candidates: exec.candidates,
        eval_secs: exec.eval.as_secs_f64(),
        policy_secs: exec.policy.as_secs_f64(),
        policy_steps: exec.policy_steps,
    })
}

/// What a search run decides: final accuracy and maps kept per layer.
fn decision(run: &MethodRun) -> (u32, Vec<usize>) {
    (
        run.final_accuracy.to_bits(),
        run.traces.iter().map(|t| t.maps_after).collect(),
    )
}

fn setup(spec: &DatasetSpec, init_seed: u64, budget: Budget) -> Result<Prepared, String> {
    let ds = {
        let _span = trace::begin("data.generate");
        Arc::new(Dataset::generate(spec).map_err(|e| e.to_string())?)
    };
    let mut rng = Rng::seed_from(init_seed);
    let mut net = ModelChoice::new(ModelKind::Vgg11, 0.25)
        .build(&ds, &mut rng)
        .map_err(|e| e.to_string())?;
    let original_accuracy = {
        let _span = trace::begin("nn.pretrain");
        pretrain(&mut net, &ds, budget.pretrain_epochs, &mut rng).map_err(|e| e.to_string())?
    };
    let original_cost = analyze(&net, ds.channels(), ds.image_size()).map_err(|e| e.to_string())?;
    Ok(Prepared {
        ds,
        net,
        original_accuracy,
        original_cost,
        budget,
        stages: Vec::new(),
    })
}

fn same_model(a: &Prepared, b: &Prepared) -> bool {
    matches!(
        (checkpoint::to_bytes(&a.net), checkpoint::to_bytes(&b.net)),
        (Ok(x), Ok(y)) if x == y
    )
}

/// Runs the workload. `traced` adds the spans and the extra passes the
/// per-layer split needs.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    let spec = DatasetSpec::cifar_like().with_seed(derive_seed(seed, 1));
    let init_seed = derive_seed(seed, 2);
    let prune_seed = derive_seed(seed, 3);
    let budget = Budget::quick();

    let (prepared, setup_s) = repeat_setup(report, || setup(&spec, init_seed, budget), same_model)?;
    report.e2e.insert("setup_s", setup_s);

    let mut runs: Vec<Run> = Vec::new();
    let delta = RegistryDelta::start();
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        trace::set_run(runs.len() as u64 + 1);
        let _span = trace::begin("search.run");
        report.attempted += 1;
        let run = run_once(&prepared, prune_seed, WORKERS)?;
        if !check_run(report, &run, runs.first()) {
            report.failed += 1;
        }
        runs.push(run);
    }
    trace::set_run(0);
    let n = runs.len();
    let search_s = median(&runs.iter().map(|r| r.secs).collect::<Vec<_>>());
    report.e2e.insert("op_p50_ms", search_s * 1e3);
    report.e2e.insert(
        "throughput_per_s",
        median(
            &runs
                .iter()
                .map(|r| r.candidates as f64 / r.secs)
                .collect::<Vec<_>>(),
        ),
    );
    report.named("search_s", search_s, "s");
    report.named("search_runs", n as f64, "count");
    report.named(
        "final_accuracy",
        f64::from(runs[0].out.final_accuracy),
        "ratio",
    );
    let kept: usize = runs[0].out.traces.iter().map(|t| t.maps_after).sum();
    report.named("maps_kept", kept as f64, "count");
    report.named(
        "pruned_mflops",
        runs[0].out.cost.total_flops as f64 / 1e6,
        "MFLOP",
    );

    if !traced {
        return Ok(());
    }
    delta.tensor_metrics(report, n);
    let now = crate::common::registry();
    report.layer(
        "coord.items",
        delta.get(&now, "hs_coord_items_total") / n as f64,
    );
    report.layer(
        "coord.batches",
        delta.get(&now, "hs_coord_batches_total") / n as f64,
    );
    report.layer(
        "coord.utilization",
        now.get("hs_coord_utilization").copied().unwrap_or(0.0),
    );
    let per_run = |f: &dyn Fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let eval_ms = per_run(&|r| r.eval_secs / r.episodes as f64 * 1e3);
    report.layer("core.episodes", per_run(&|r| r.episodes as f64));
    report.layer("core.candidates", per_run(&|r| r.candidates as f64));
    report.layer("core.eval_ms", eval_ms);
    report.layer(
        "core.policy_ms",
        per_run(&|r| r.policy_secs / r.policy_steps.max(1) as f64 * 1e3),
    );
    report.layer(
        "core.unit_gap_s",
        per_run(&|r| r.secs - r.eval_secs - r.policy_secs),
    );

    // The single-worker pass: same decision, and the evaluation time
    // the coordinator's speed-up is measured against.
    trace::set_run(n as u64 + 1);
    let serial = {
        let _span = trace::begin("search.run_1_worker");
        run_once(&prepared, prune_seed, 1)?
    };
    trace::set_run(0);
    report.check(decision(&serial.out) == decision(&runs[0].out), || {
        "1-worker search decided differently from the 2-worker search".to_string()
    });
    let serial_eval_ms = serial.eval_secs / serial.episodes as f64 * 1e3;
    report.layer("coord.eval_speedup", serial_eval_ms / eval_ms);

    let mut net = prepared.net.clone();
    let ds = &prepared.ds;
    let mut eval_ms = Vec::new();
    let mut finetune_ms = Vec::new();
    let ft = FineTune {
        epochs: 1,
        ..FineTune::default()
    };
    let mut rng = Rng::seed_from(prune_seed);
    for _ in 0..LAYER_REPS {
        let (acc, s) = {
            let _span = trace::begin("nn.evaluate");
            timed(|| train::evaluate(&mut net, &ds.test_images, &ds.test_labels, 64))
        };
        acc.map_err(|e| e.to_string())?;
        eval_ms.push(s * 1e3);
        let mut tuned = prepared.net.clone();
        let (r, s) = {
            let _span = trace::begin("pruning.finetune_epoch");
            timed(|| ft.run(&mut tuned, &ds.train_images, &ds.train_labels, &mut rng))
        };
        r.map_err(|e| e.to_string())?;
        finetune_ms.push(s * 1e3);
    }
    report.layer("nn.evaluate_ms", median(&eval_ms));
    report.layer("pruning.finetune_epoch_ms", median(&finetune_ms));
    Ok(())
}

/// The per-run output checks: fixed work, a sane pruned model, and the
/// same decision as the first run.
fn check_run(report: &mut Report, run: &Run, first: Option<&Run>) -> bool {
    let traces = &run.out.traces;
    let mut ok = report.check(traces.iter().all(|t| t.maps_after >= 1), || {
        "a pruned layer kept no feature map".to_string()
    });
    ok &= report.check(
        !traces.is_empty() && run.out.final_accuracy > ACCURACY_FLOOR,
        || {
            format!(
                "final accuracy {} not above the floor {ACCURACY_FLOOR}",
                run.out.final_accuracy
            )
        },
    );
    ok &= report.check(run.episodes == 96 && run.candidates == 384, || {
        format!(
            "expected 96 episodes and 384 candidates, ran {} and {}",
            run.episodes, run.candidates
        )
    });
    if let Some(first) = first {
        ok &= report.check(decision(&run.out) == decision(&first.out), || {
            "search runs of one invocation decided differently".to_string()
        });
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_core::ParallelReward;
    use hs_nn::models;

    /// A deterministic unit whose reward depends on the action bits.
    struct BitsUnit;

    impl PruningUnit for BitsUnit {
        fn kind(&self) -> &'static str {
            "bits"
        }
        fn unit_count(&self) -> usize {
            6
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

    impl ParallelReward for BitsUnit {
        fn reward(&self, _net: &mut Network, action: &[bool]) -> Result<f32, HeadStartError> {
            Ok(action
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| 1.0 / (i as f32 + 3.0))
                .sum())
        }
    }

    #[test]
    fn timing_executor_returns_inner_rewards_unchanged() {
        let mut net = models::vgg11(3, 2, 8, 0.125, &mut Rng::seed_from(5)).unwrap();
        let actions: Vec<Vec<bool>> = (0..5u32)
            .map(|i| (0..6).map(|b| (i >> (b % 3)) & 1 == 1).collect())
            .collect();
        let expected = SerialExecutor
            .eval_batch(&mut BitsUnit, &mut net, &actions)
            .unwrap();
        for workers in [1, 2] {
            let mut coord = Coordinator::new(workers);
            let mut exec = TimingExecutor::new(&mut coord);
            exec.begin_unit(&net, "bits");
            for _ in 0..3 {
                let got = exec.eval_batch(&mut BitsUnit, &mut net, &actions).unwrap();
                assert_eq!(
                    got.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
                );
            }
            assert_eq!((exec.episodes, exec.candidates), (3, 15));
            assert_eq!(exec.policy_steps, 2);
        }
    }
}
