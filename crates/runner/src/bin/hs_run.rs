//! `hs_run` — one pipeline run from the command line.
//!
//! ```text
//! hs_run --data cifar --model vgg11 --method headstart --sp 2 \
//!        --checkpoint vgg11.hsck --artifact run.json
//! ```
//!
//! Flags: `--label --data --model --width --method --sp --keep --seed
//! --prune-seed --quick --smoke --pretrain --finetune --episodes
//! --eval-images --checkpoint --artifact --telemetry --metrics
//! --log-level --run-dir --compact --workers`, parsed by
//! `RunnerConfig::from_args` (`--quick`/`--smoke` set the budget before
//! the per-field budget flags, wherever they appear).
//!
//! With `--workers N` the REINFORCE search shards each episode's
//! candidate evaluations across `N` coordinator worker threads
//! (`hs-coord`); results are bit-identical for every `N`, only
//! wall-clock differs.
//!
//! With `--run-dir DIR` the run journals its progress into `DIR` (one
//! checkpoint per pruned unit plus `run.journal.json`); after a crash,
//! `hs_run --resume DIR` continues from the last completed unit and
//! produces results bit-identical to the uninterrupted run. Setting
//! `HS_FAULT=kind:site[:n],…` arms the deterministic fault-injection
//! harness (kinds: `io_error io_flaky corrupt truncate kill_after
//! nan_reward worker_lost`).

use std::path::Path;
use std::process::ExitCode;

use hs_runner::{pct, resume_run, run, PipelineReport, RunnerConfig, RunnerError};
use hs_telemetry::flags::Flags;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: hs_run [--data cifar|cub] [--model vgg11|vgg16|resnet20|resnet38|lenet|alexnet]\n\
             \x20             [--width F] [--method headstart|headstart-blocks|headstart-inner|\n\
             \x20              random|l1|apoz|thinet|autopruner] [--sp F] [--keep F]\n\
             \x20             [--seed N] [--prune-seed N] [--quick|--smoke]\n\
             \x20             [--pretrain N] [--finetune N] [--episodes N] [--eval-images N]\n\
             \x20             [--checkpoint PATH] [--artifact PATH] [--label NAME]\n\
             \x20             [--telemetry PATH.jsonl] [--metrics PATH.prom]\n\
             \x20             [--log-level error|warn|info|debug|trace]\n\
             \x20             [--run-dir DIR] [--compact] [--workers N]\n\
             \x20      hs_run --resume DIR\n\
             \n\
             \x20 --run-dir DIR  journal the run into DIR (crash-safe, resumable)\n\
             \x20 --compact      physically shrink the pruned model into DIR/compact.hsck\n\
             \x20 --workers N    shard RL candidate evaluation across N worker threads\n\
             \x20                (bit-identical output for any N; default 1 = serial)\n\
             \x20 --resume DIR   continue an interrupted journaled run\n\
             \x20 HS_FAULT=kind:site[:n],...  arm deterministic fault injection"
        );
        return ExitCode::SUCCESS;
    }
    if let Err(e) = hs_telemetry::faults::arm_from_env().map_err(RunnerError::BadConfig) {
        eprintln!("hs_run: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match Flags::new(args.clone()).value("--resume") {
        Ok(Some(dir)) if args.len() == 2 => resume_run(Path::new(&dir)),
        Ok(Some(_)) => Err(RunnerError::BadConfig(
            "--resume takes no other flags (the journal carries the config)".to_string(),
        )),
        Err(e) => Err(RunnerError::BadConfig(e)),
        Ok(None) => match RunnerConfig::from_args(&args) {
            Ok(cfg) => run(&cfg),
            Err(e) => {
                eprintln!("hs_run: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    match outcome {
        Ok(report) => {
            print_summary(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            // Keep whatever telemetry the failed run buffered.
            hs_telemetry::flush();
            eprintln!("hs_run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_summary(report: &PipelineReport) {
    println!(
        "{}: accuracy {} -> {} | params {} -> {} ({}% of original)",
        report.label,
        pct(report.original_accuracy),
        pct(report.final_accuracy),
        report.original_cost.total_params,
        report.final_cost.total_params,
        format_args!("{:.1}", report.compression_pct()),
    );
    if let Some(c) = &report.compact {
        println!(
            "{}: compact {} | flop speedup {:.2}x (target {:.1}x) | {} unit(s) rewritten",
            report.label, c.checkpoint, c.achieved_speedup, c.target_speedup, c.units
        );
    }
}
