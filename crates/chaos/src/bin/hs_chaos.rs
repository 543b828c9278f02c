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
use hs_telemetry::flags::Flags;

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

fn parse_target(value: &str) -> Result<Target, String> {
    Target::parse(value)
        .ok_or_else(|| format!("unknown target `{value}` (valid targets: pipeline, coord, fleet)"))
}

fn parse_plan(spec: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(spec).map_err(|e| e.to_string())
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

fn cmd_campaign(mut f: Flags) -> Result<ExitCode, String> {
    let seed = f.count("--seed")?.ok_or("campaign needs --seed N")?;
    let schedules = f
        .count("--schedules")?
        .ok_or("campaign needs --schedules N")?;
    let targets = match f.value("--targets")? {
        Some(csv) => csv
            .split(',')
            .map(parse_target)
            .collect::<Result<Vec<_>, _>>()?,
        None => Target::ALL.to_vec(),
    };
    let intensity = f.count("--intensity")?.unwrap_or(3) as usize;
    let out_dir = PathBuf::from(f.value("--out")?.unwrap_or("chaos-out".into()));
    let subprocess = f.switch("--subprocess")?;
    let keep_dirs = f.switch("--keep-dirs")?;
    f.done()?;

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

fn cmd_exec(mut f: Flags) -> Result<ExitCode, String> {
    let target = parse_target(&f.value("--target")?.ok_or("exec needs --target T")?)?;
    let dir = PathBuf::from(f.value("--dir")?.ok_or("exec needs --dir DIR")?);
    let seed = f.count("--seed")?.unwrap_or(1);
    let plan = match f.value("--plan")? {
        Some(spec) => parse_plan(&spec)?,
        // With no explicit plan, derive the schedule exactly as a
        // campaign with this seed/index would.
        None => generate_plan(target, seed, 3),
    };
    let reference = f.value("--reference")?;
    let result_path = f.value("--result")?;
    f.done()?;

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

fn cmd_shrink(mut f: Flags) -> Result<ExitCode, String> {
    let target = parse_target(&f.value("--target")?.ok_or("shrink needs --target T")?)?;
    let plan = parse_plan(&f.value("--plan")?.ok_or("shrink needs --plan SPEC")?)?;
    let oracle = f.value("--oracle")?.ok_or("shrink needs --oracle NAME")?;
    if !ORACLES.contains(&oracle.as_str()) {
        return Err(format!(
            "unknown oracle `{oracle}` (valid oracles: {})",
            ORACLES.join(", ")
        ));
    }
    let dir = PathBuf::from(f.value("--dir")?.ok_or("shrink needs --dir DIR")?);
    let seed = f.count("--seed")?.unwrap_or(1);
    let reference = f.value("--reference")?;
    f.done()?;

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
    let flags = Flags::new(args);
    let result = match command.as_str() {
        "campaign" => cmd_campaign(flags),
        "exec" => cmd_exec(flags),
        "shrink" => cmd_shrink(flags),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => fail(message),
    }
}
