//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload search|infer|serve|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process, so the tensor pool, the metrics registry
//! and the peak RSS belong to that workload; `all` (the default) runs
//! each workload in a child process of its own. The last stdout line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`,
//! holding every end-to-end metric, or with `--trace 1` every per-layer
//! metric. The exit code is non-zero when any output check fails.

mod common;
mod infer;
mod search;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use common::{Report, E2E_METRICS, LAYER_METRICS};

const WORKLOADS: [&str; 3] = ["search", "infer", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (use search, infer, serve or all)",
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    match name {
        "search" => search::run(seed, seconds, traced, report),
        "infer" => infer::run(seed, seconds, traced, report),
        "serve" => serve::run(seed, seconds, traced, report),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_metrics(values: &[(String, f64, String)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

/// Runs one workload in this process and prints its result.
fn single(args: &Args) -> Result<bool, String> {
    let workers = if args.workload == "search" {
        search::WORKERS
    } else {
        1
    };
    common::configure_telemetry(None).map_err(|e| format!("telemetry: {e}"))?;
    let mut report = Report::default();
    let mut untraced = Report::default();
    let ticks_before = common::cpu_ticks();
    if args.trace {
        // An untraced pass first, so the traced pass's own end-to-end
        // figures show what tracing costs.
        run_workload(
            &args.workload,
            args.seed,
            args.seconds / 2.0,
            false,
            &mut untraced,
        )?;
        trace::enable();
        run_workload(
            &args.workload,
            args.seed,
            args.seconds / 2.0,
            true,
            &mut report,
        )?;
    } else {
        run_workload(&args.workload, args.seed, args.seconds, false, &mut report)?;
    }
    let spans = trace::take();
    for (metric, span, scale) in [
        ("data.generate_s", "data.generate", 1.0),
        ("nn.pretrain_s", "nn.pretrain", 1.0),
        ("nn.compact_ms", "nn.compact", 1e3),
    ] {
        let secs = trace::durations(&spans, span);
        if !secs.is_empty() {
            report.layer(metric, stats::median(&secs) * scale);
        }
    }
    let rss = common::peak_rss_mb().ok_or("peak RSS unavailable: no /proc/self/status")?;
    report.e2e.insert("peak_rss_mb", rss);

    println!("{}", common::environment(workers));
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks_before, common::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "cpu: {:.1}% of machine CPU time stolen during the run",
            share * 100.0
        );
    }
    let mut line = format!("{}:", args.workload);
    for (name, value, unit) in &report.named {
        let _ = write!(line, " {name}={value:.6} {unit};");
    }
    println!("{line}");
    for note in &report.notes {
        println!("{note}");
    }

    let (list, values) = if args.trace {
        (LAYER_METRICS, &report.layer)
    } else {
        (E2E_METRICS, &report.e2e)
    };
    let mut metrics = Vec::new();
    for &(name, unit) in list {
        match values.get(name) {
            Some(v) if v.is_finite() => metrics.push((name.to_string(), *v, unit.to_string())),
            // A layer this workload leaves idle.
            None if args.trace => metrics.push((name.to_string(), 0.0, unit.to_string())),
            other => report.failures.push(format!("metric {name} is {other:?}")),
        }
    }
    if args.trace {
        print_trace(args, &report, &untraced, &spans)?;
    }
    report.failures.extend(untraced.failures);
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    let correct = report.failures.is_empty();
    let attempted = report.attempted + untraced.attempted;
    let failed = report.failed + untraced.failed;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Prints the per-layer table, the span self times and the tracing
/// overhead, and writes the spans to `out/`.
fn print_trace(
    args: &Args,
    report: &Report,
    untraced: &Report,
    spans: &[trace::Span],
) -> Result<(), String> {
    for (name, value) in &report.layer {
        println!("layer {name} = {value:.6}");
    }
    for (name, traced) in &report.e2e {
        if let Some(plain) = untraced.e2e.get(name) {
            println!(
                "trace overhead {name}: untraced {plain:.6}, traced {traced:.6} ({:+.2}%)",
                (traced / plain - 1.0) * 100.0
            );
        }
    }
    let mut by_name: Vec<_> = trace::self_times(spans).into_iter().collect();
    by_name.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    for (name, (count, total, self_s)) in by_name {
        println!("span {name}: {count} calls, total {total:.6} s, self {self_s:.6} s");
    }
    let path = common::out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_jsonl(spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// Runs every workload in a child process and sums up.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let Some(obj) = hs_telemetry::schema::parse(last)
            .ok()
            .and_then(|p| p.as_obj().cloned())
        else {
            eprintln!("perfbench: {w} printed no result ({})", out.status);
            correct = false;
            continue;
        };
        correct &= out.status.success()
            && matches!(
                obj.get("correct"),
                Some(hs_telemetry::schema::Json::Bool(true))
            );
        attempted += obj.get("attempted").and_then(|v| v.as_num()).unwrap_or(0.0) as u64;
        failed += obj.get("failed").and_then(|v| v.as_num()).unwrap_or(0.0) as u64;
        let ms = obj
            .get("metrics")
            .and_then(|m| m.as_obj())
            .ok_or_else(|| format!("{w}: no metrics"))?;
        for (name, m) in ms {
            let m = m
                .as_obj()
                .ok_or_else(|| format!("{w}: bad metric {name}"))?;
            let value = m.get("value").and_then(|v| v.as_num()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or("");
            metrics.push((format!("{w}.{name}"), value, unit.to_string()));
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        all(&args)
    } else {
        single(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
