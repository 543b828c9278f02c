//! `hs_loadgen` — write a deterministic load plan for `hs_serve`.
//!
//! ```text
//! hs_loadgen --mode open --requests 200 --gap-us 800 --deadline-us 30000 \
//!            --seed 7 --out load.json
//! ```
//!
//! `--mode open` pre-computes the full arrival schedule (arrivals keep
//! coming regardless of server health — the honest overload workload);
//! `--mode closed` records a client-simulation spec (`--concurrency`
//! clients, `--think-us` pause after each outcome). Either way the
//! output is a plain JSON file: the same flags always produce the same
//! bytes, so a serving run driven by it is replayable.

use std::path::PathBuf;
use std::process::ExitCode;

use hs_serve::LoadSpec;
use hs_telemetry::flags::Flags;

fn usage() {
    eprintln!(
        "usage: hs_loadgen [--mode open|closed] [--requests N] [--gap-us N]\n\
         \x20                [--deadline-us N] [--seed N] [--concurrency N] [--think-us N]\n\
         \x20                [--classes N] [--tenants N] --out PATH.json\n\
         \n\
         \x20 --mode open    fixed arrival schedule (default)\n\
         \x20 --mode closed  think-time client simulation spec\n\
         \x20 --classes N    spread requests over N SLO classes (id % N; default 1)\n\
         \x20 --tenants N    spread requests over N fleet tenants (id % N; default 1)"
    );
}

fn run(args: Vec<String>) -> Result<(), String> {
    const INT: &str = "integer";
    let mut f = Flags::new(args);
    let closed = f
        .parse_with("--mode", "`open` or `closed`", |v| match v {
            "open" => Some(false),
            "closed" => Some(true),
            _ => None,
        })?
        .unwrap_or(false);
    let out = f.value("--out")?.map(PathBuf::from);
    let mut spec = LoadSpec::default();
    f.set("--requests", INT, &mut spec.requests)?;
    f.set("--gap-us", INT, &mut spec.gap)?;
    f.set("--deadline-us", INT, &mut spec.deadline)?;
    f.set("--seed", INT, &mut spec.seed)?;
    f.set("--concurrency", INT, &mut spec.concurrency)?;
    f.set("--think-us", INT, &mut spec.think)?;
    f.set("--classes", INT, &mut spec.classes)?;
    f.set("--tenants", INT, &mut spec.tenants)?;
    f.done()?;
    let out = out.ok_or("--out is required")?;
    if closed {
        spec.save(&out).map_err(|e| e.to_string())?;
        println!(
            "wrote closed-loop plan: {} requests from {} clients (think {} us) -> {}",
            spec.requests,
            spec.concurrency,
            spec.think,
            out.display()
        );
    } else {
        let profile = spec.open_profile();
        profile.save(&out).map_err(|e| e.to_string())?;
        println!(
            "wrote open-loop plan: {} arrivals over {} us -> {}",
            profile.entries.len(),
            profile.entries.last().map(|e| e.at).unwrap_or(0),
            out.display()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hs_loadgen: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}
