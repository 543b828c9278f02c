//! `hs_obs` — offline analysis over the deterministic telemetry JSONL
//! stream.
//!
//! ```text
//! hs_obs trace <ID> --events EVENTS.jsonl
//! hs_obs report --events EVENTS.jsonl [--json]
//! hs_obs diff A.jsonl B.jsonl [--threshold F]
//! hs_obs bench-check CURRENT.json --baseline BASELINE.json
//!         [--tolerance F] [--warn-only]
//! ```
//!
//! `trace` prints the causal timeline of one trace — the argument is a
//! hex trace id or a decimal serve request id. `report` summarises a
//! serving run (latency percentiles, shed reasons, breaker/degrade
//! timelines, worker utilization, SLO burn). `diff` compares the final
//! metric values of two runs. `bench-check` exits non-zero when a
//! benchmark row regressed beyond tolerance — the CI gate over
//! `BENCH_kernels.json`.

use std::path::Path;
use std::process::ExitCode;

use hs_obs::{
    bench_check, build_report, diff_metrics, final_metrics, load_events, render_timeline,
    report_json, report_table, resolve_trace, trace_timeline, EventRec,
};
use hs_telemetry::flags::Flags;
use hs_telemetry::schema::{self, Json};

const USAGE: &str = "usage: hs_obs <command> [args]

commands:
  trace <ID> --events FILE      causal timeline of a trace (hex trace id
                                or decimal serve request id)
  report --events FILE [--json] serving report: latency percentiles,
                                shed reasons, breaker/degrade timelines,
                                worker utilization, SLO burn
  diff A B [--threshold F]      final-metric deltas between two event
                                streams beyond F (relative, default 0.05)
  bench-check CURRENT --baseline BASE [--tolerance F] [--warn-only]
                                flag GFLOP/s or forward-speedup rows of
                                CURRENT that regressed beyond F (relative,
                                default 0.3) against BASE; exits 1 on
                                regression unless --warn-only";

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("hs_obs: {message}");
    ExitCode::from(2)
}

fn read_events(path: &Path) -> Result<Vec<EventRec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    load_events(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    schema::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_trace(mut f: Flags) -> Result<ExitCode, String> {
    let events_path = f.value("--events")?.ok_or("trace needs --events FILE")?;
    let [query] = f
        .finish()?
        .try_into()
        .map_err(|_| "trace needs exactly one ID argument")?;
    let events = read_events(Path::new(&events_path))?;
    let trace_id = resolve_trace(&events, &query)?;
    let rows = trace_timeline(&events, trace_id);
    print!("{}", render_timeline(trace_id, &rows));
    Ok(ExitCode::SUCCESS)
}

fn cmd_report(mut f: Flags) -> Result<ExitCode, String> {
    let events_path = f.value("--events")?.ok_or("report needs --events FILE")?;
    let as_json = f.switch("--json")?;
    f.done()?;
    let events = read_events(Path::new(&events_path))?;
    let report = build_report(&events);
    if as_json {
        println!("{}", report_json(&report).render_compact());
    } else {
        print!("{}", report_table(&report));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(mut f: Flags) -> Result<ExitCode, String> {
    let threshold = f.parse("--threshold", "a number")?.unwrap_or(0.05);
    let [a, b] = f
        .finish()?
        .try_into()
        .map_err(|_| "diff needs exactly two event files")?;
    let metrics_a = final_metrics(&read_events(Path::new(&a))?);
    let metrics_b = final_metrics(&read_events(Path::new(&b))?);
    let deltas = diff_metrics(&metrics_a, &metrics_b, threshold);
    if deltas.is_empty() {
        println!("no metric moved beyond {threshold} (relative)");
    } else {
        for d in &deltas {
            println!(
                "{:<40} {:>14} -> {:<14} ({:+.1}%)",
                d.name,
                d.a,
                d.b,
                (d.b - d.a) / d.a.abs().max(f64::MIN_POSITIVE) * 100.0
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench_check(mut f: Flags) -> Result<ExitCode, String> {
    let baseline_path = f
        .value("--baseline")?
        .ok_or("bench-check needs --baseline FILE")?;
    let tolerance = f.parse("--tolerance", "a number")?.unwrap_or(0.3);
    let warn_only = f.switch("--warn-only")?;
    let [current_path] = f
        .finish()?
        .try_into()
        .map_err(|_| "bench-check needs exactly one CURRENT file")?;
    let current = read_json(Path::new(&current_path))?;
    let baseline = read_json(Path::new(&baseline_path))?;
    let regressions = bench_check(&current, &baseline, tolerance);
    if regressions.is_empty() {
        println!("bench-check: no regression beyond {tolerance} (relative)");
        return Ok(ExitCode::SUCCESS);
    }
    for r in &regressions {
        println!(
            "REGRESSION {:<40} baseline {:>10.3} current {:>10.3}",
            r.what, r.baseline, r.current
        );
    }
    if warn_only {
        println!(
            "bench-check: {} regression(s) (warn-only, not failing)",
            regressions.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = args.remove(0);
    let flags = Flags::new(args);
    let result = match command.as_str() {
        "trace" => cmd_trace(flags),
        "report" => cmd_report(flags),
        "diff" => cmd_diff(flags),
        "bench-check" => cmd_bench_check(flags),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => fail(message),
    }
}
