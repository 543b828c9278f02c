//! Campaign-engine integration: a clean tree yields zero violations and
//! byte-identical reports across runs of the same seed, and a
//! deliberately broken invariant (`HS_CHAOS_BREAK`) is shrunk to a
//! one-entry `HS_FAULT` repro artifact.

use std::path::PathBuf;
use std::sync::Mutex;

use hs_chaos::{run_campaign, CampaignConfig, Target, BREAK_ENV};

/// The fault registry and telemetry sinks are process-global, and the
/// break hook is an env var: campaigns in this file must not overlap.
static CAMPAIGNS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CAMPAIGNS.lock().unwrap_or_else(|p| p.into_inner())
}

fn config(name: &str, targets: Vec<Target>, schedules: u64) -> CampaignConfig {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&out_dir);
    CampaignConfig {
        seed: 0x4853,
        schedules,
        targets,
        intensity: 3,
        out_dir,
        subprocess: false,
        keep_dirs: false,
    }
}

#[test]
fn campaigns_are_clean_and_byte_reproducible() {
    let _guard = lock();
    std::env::remove_var(BREAK_ENV);
    let cfg_a = config("camp-a", vec![Target::Pipeline, Target::Fleet], 2);
    let a = run_campaign(&cfg_a).expect("campaign a");
    assert_eq!(
        a.violations(),
        0,
        "clean tree violated:\n{}",
        a.report.render_compact()
    );
    assert!(
        a.records.iter().any(|r| !r.eval.injected.is_empty()),
        "campaign injected nothing"
    );

    let cfg_b = config("camp-b", vec![Target::Pipeline, Target::Fleet], 2);
    let b = run_campaign(&cfg_b).expect("campaign b");
    assert_eq!(
        a.report.render_compact(),
        b.report.render_compact(),
        "same seed rendered different reports"
    );
    let file_a = std::fs::read(cfg_a.out_dir.join("campaign.json")).expect("report a");
    let file_b = std::fs::read(cfg_b.out_dir.join("campaign.json")).expect("report b");
    assert_eq!(file_a, file_b, "campaign.json not byte-identical");
    // The report is relocatable evidence: no filesystem paths inside.
    let text = String::from_utf8(file_a).unwrap();
    assert!(
        !text.contains("camp-a"),
        "report leaked its out dir: {text}"
    );
}

#[test]
fn a_broken_invariant_is_shrunk_to_a_one_entry_repro() {
    let _guard = lock();
    std::env::set_var(BREAK_ENV, "conservation");
    let cfg = config("camp-broken", vec![Target::Fleet], 3);
    let outcome = run_campaign(&cfg);
    std::env::remove_var(BREAK_ENV);
    let outcome = outcome.expect("campaign");

    let failing: Vec<_> = outcome
        .records
        .iter()
        .filter(|r| !r.eval.violations.is_empty())
        .collect();
    assert!(!failing.is_empty(), "break hook fired no violations");
    for record in failing {
        let minimal = record.minimal.as_ref().expect("shrunk plan");
        // The broken oracle trips on any schedule with >= 1 injected
        // fault, so local minimality means exactly one firing entry.
        assert_eq!(
            minimal.faults.len(),
            1,
            "not locally minimal: {minimal} (from {})",
            record.plan
        );
        let repro = cfg
            .out_dir
            .join(format!("repro-fleet-{:04}.json", record.index));
        let text = std::fs::read_to_string(&repro).expect("repro artifact");
        assert!(
            text.contains(&format!("\"hs_fault\":\"HS_FAULT={minimal}\"")),
            "{text}"
        );
        assert!(text.contains("\"oracle\":\"conservation\""), "{text}");
        assert!(text.contains("hs_chaos exec --target fleet"), "{text}");
    }
    assert!(outcome
        .report
        .render_compact()
        .contains("\"result\":\"fail\""));
}
