//! `hs_chaos` — seeded chaos campaigns over the HeadStart pipeline,
//! coordinator, and serving fleet.
//!
//! ```text
//! hs_chaos campaign --seed 7 --schedules 50          # sweep all targets
//! hs_chaos exec --target fleet --plan 'probe_loss:replica1:2' \
//!     --seed 123 --dir /tmp/repro                    # replay one schedule
//! hs_chaos shrink --target pipeline --plan '...' --oracle parity \
//!     --seed 123 --dir /tmp/shrink                   # minimize by hand
//! ```
//!
//! Exit codes: 0 clean, 1 invariant violations found, 2 usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hs_chaos::{
    eval_to_json, exec_schedule, generate_plan, reference_final, run_campaign, shrink_plan,
    CampaignConfig, Target, ORACLES,
};
use hs_telemetry::faults::FaultPlan;

const USAGE: &str = "usage: hs_chaos <command> [args]

commands:
  campaign --seed N --schedules N   run N seeded fault schedules per target,
           [--targets a,b,c]        check every invariant oracle, shrink any
           [--intensity K]          failure to a minimal HS_FAULT repro;
           [--out DIR]              writes <out>/campaign.json (byte-identical
           [--subprocess]           across runs of the same seed) and a
           [--keep-dirs]            repro-*.json per violation
  exec --target T --plan SPEC       replay one schedule under a fault plan
       --dir DIR [--seed N]         and report oracle violations (this is the
       [--reference HSCK]           one-command repro a campaign emits; with
       [--result FILE]              no --reference, a fault-free reference run
                                    is made first for the parity oracle)
  shrink --target T --plan SPEC     delta-debug a failing plan down to a
         --oracle NAME --dir DIR    locally-minimal HS_FAULT spec that still
         [--seed N]                 violates the named oracle

targets: pipeline (journaled hs_run), coord (sharded evaluation workers),
         fleet (replicated serving on the virtual clock)
oracles: completion, parity, integrity, liveness, deadline, conservation,
         telemetry";

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("hs_chaos: {message}");
    ExitCode::from(2)
}

/// Pulls the value after `flag` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return false;
    };
    args.remove(pos);
    true
}

/// Parses a count flag with `hs_run --workers` parity: non-integers name
/// the flag and the value, zero is rejected rather than clamped.
fn parse_count(value: &str, flag: &str) -> Result<u64, String> {
    let n = value
        .parse::<u64>()
        .map_err(|_| format!("{flag}: expected integer, got `{value}`"))?;
    if n == 0 {
        return Err(format!("{flag}: must be at least 1"));
    }
    Ok(n)
}

fn parse_target(value: &str) -> Result<Target, String> {
    Target::parse(value)
        .ok_or_else(|| format!("unknown target `{value}` (valid targets: pipeline, coord, fleet)"))
}

fn parse_plan(spec: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(spec).map_err(|e| e.to_string())
}

fn reject_extras(args: &[String]) -> Result<(), String> {
    if let Some(extra) = args.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    Ok(())
}

/// Resolves the parity reference for a pipeline-family exec/shrink: the
/// `--reference` file when given, a fresh fault-free run otherwise.
fn resolve_reference(
    target: Target,
    reference: Option<&String>,
    dir: &Path,
) -> Result<Vec<u8>, String> {
    if target == Target::Fleet {
        return Ok(Vec::new());
    }
    match reference {
        Some(path) => std::fs::read(path).map_err(|e| format!("--reference {path}: {e}")),
        None => reference_final(&dir.join("reference-run")),
    }
}

fn cmd_campaign(mut args: Vec<String>) -> Result<ExitCode, String> {
    let seed = take_flag(&mut args, "--seed")?.ok_or("campaign needs --seed N")?;
    let seed = parse_count(&seed, "--seed")?;
    let schedules = take_flag(&mut args, "--schedules")?.ok_or("campaign needs --schedules N")?;
    let schedules = parse_count(&schedules, "--schedules")?;
    let targets = match take_flag(&mut args, "--targets")? {
        Some(csv) => csv
            .split(',')
            .map(parse_target)
            .collect::<Result<Vec<_>, _>>()?,
        None => Target::ALL.to_vec(),
    };
    let intensity = match take_flag(&mut args, "--intensity")? {
        Some(value) => parse_count(&value, "--intensity")? as usize,
        None => 3,
    };
    let out_dir =
        take_flag(&mut args, "--out")?.map_or_else(|| PathBuf::from("chaos-out"), PathBuf::from);
    let subprocess = take_switch(&mut args, "--subprocess");
    let keep_dirs = take_switch(&mut args, "--keep-dirs");
    reject_extras(&args)?;

    let cfg = CampaignConfig {
        seed,
        schedules,
        targets,
        intensity,
        out_dir,
        subprocess,
        keep_dirs,
    };
    let outcome = run_campaign(&cfg)?;
    for record in &outcome.records {
        for v in &record.eval.violations {
            println!(
                "VIOLATION {}/s{:04} [{}] plan={} minimal={} — {}",
                record.target.as_str(),
                record.index,
                v.oracle,
                record.plan,
                record.minimal.as_ref().unwrap_or(&record.plan),
                v.detail
            );
        }
    }
    let injected: usize = outcome.records.iter().map(|r| r.eval.injected.len()).sum();
    println!(
        "campaign seed {} — {} schedules across {} target(s), {} faults injected, {} violation(s)",
        cfg.seed,
        outcome.records.len(),
        cfg.targets.len(),
        injected,
        outcome.violations()
    );
    println!("report: {}", cfg.out_dir.join("campaign.json").display());
    Ok(if outcome.violations() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_exec(mut args: Vec<String>) -> Result<ExitCode, String> {
    let target = take_flag(&mut args, "--target")?.ok_or("exec needs --target T")?;
    let target = parse_target(&target)?;
    let dir = take_flag(&mut args, "--dir")?.ok_or("exec needs --dir DIR")?;
    let dir = PathBuf::from(dir);
    let seed = match take_flag(&mut args, "--seed")? {
        Some(value) => parse_count(&value, "--seed")?,
        None => 1,
    };
    let plan = match take_flag(&mut args, "--plan")? {
        Some(spec) => parse_plan(&spec)?,
        // With no explicit plan, derive the schedule exactly as a
        // campaign with this seed/index would.
        None => generate_plan(target, seed, 3),
    };
    let reference = take_flag(&mut args, "--reference")?;
    let result_path = take_flag(&mut args, "--result")?;
    reject_extras(&args)?;

    let reference = resolve_reference(target, reference.as_ref(), &dir)?;
    let eval = exec_schedule(target, &plan, seed, &dir, &reference);
    if let Some(path) = result_path {
        std::fs::write(&path, eval_to_json(&eval).render_compact())
            .map_err(|e| format!("--result {path}: {e}"))?;
    }
    for (kind, site) in &eval.injected {
        println!("injected {kind} at {site}");
    }
    for v in &eval.violations {
        println!("VIOLATION [{}] {}", v.oracle, v.detail);
    }
    if eval.violations.is_empty() {
        println!("clean: plan {plan} held every oracle");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_shrink(mut args: Vec<String>) -> Result<ExitCode, String> {
    let target = take_flag(&mut args, "--target")?.ok_or("shrink needs --target T")?;
    let target = parse_target(&target)?;
    let plan = take_flag(&mut args, "--plan")?.ok_or("shrink needs --plan SPEC")?;
    let plan = parse_plan(&plan)?;
    let oracle = take_flag(&mut args, "--oracle")?.ok_or("shrink needs --oracle NAME")?;
    if !ORACLES.contains(&oracle.as_str()) {
        return Err(format!(
            "unknown oracle `{oracle}` (valid oracles: {})",
            ORACLES.join(", ")
        ));
    }
    let dir = take_flag(&mut args, "--dir")?.ok_or("shrink needs --dir DIR")?;
    let dir = PathBuf::from(dir);
    let seed = match take_flag(&mut args, "--seed")? {
        Some(value) => parse_count(&value, "--seed")?,
        None => 1,
    };
    let reference = take_flag(&mut args, "--reference")?;
    reject_extras(&args)?;

    let reference = resolve_reference(target, reference.as_ref(), &dir)?;
    let work = dir.join("shrink-work");
    let minimal = shrink_plan(&plan, |candidate| {
        let _ = std::fs::remove_dir_all(&work);
        let eval = exec_schedule(target, candidate, seed, &work, &reference);
        eval.violations.iter().any(|v| v.oracle == oracle)
    });
    let _ = std::fs::remove_dir_all(&work);
    println!("minimal plan: {minimal}");
    println!("HS_FAULT={minimal}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = args.remove(0);
    let result = match command.as_str() {
        "campaign" => cmd_campaign(args),
        "exec" => cmd_exec(args),
        "shrink" => cmd_shrink(args),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => fail(message),
    }
}
