//! `hs_serve` CLI contract tests: input validation is typed, line-
//! anchored, and matches `hs_run --workers` parity (zero replicas are
//! rejected at parse time, not silently clamped).

use std::process::Command;

fn hs_serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hs_serve"))
        .args(args)
        .output()
        .expect("spawn hs_serve")
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = hs_serve(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage: hs_serve"), "stderr: {text}");
    assert!(
        text.contains("probe_loss"),
        "usage must advertise the probe_loss fault kind: {text}"
    );
}

#[test]
fn zero_replicas_are_rejected_with_a_typed_error() {
    let out = hs_serve(&["--manifest", "nowhere", "--replicas", "0"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("hs_serve: --replicas: must be at least 1"),
        "stderr: {text}"
    );
}

#[test]
fn non_integer_replicas_name_the_flag_and_the_value() {
    let out = hs_serve(&["--manifest", "nowhere", "--replicas", "three"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("--replicas: expected integer, got `three`"),
        "stderr: {text}"
    );
}

#[test]
fn fleet_flags_need_two_or_more_replicas() {
    // A fleet command line that lost its `--replicas` must fail rather
    // than silently serve on one engine.
    for args in [
        &["--manifest", "nowhere", "--balancer", "jsq"][..],
        &[
            "--manifest",
            "nowhere",
            "--replicas",
            "1",
            "--hedge-budget",
            "4",
        ],
    ] {
        let out = hs_serve(args);
        assert!(!out.status.success());
        let text = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert!(
            text.contains(&format!(
                "hs_serve: {flag} configures a fleet: it needs --replicas 2 or more"
            )),
            "stderr: {text}"
        );
    }
}

#[test]
fn a_bad_fault_spec_fails_at_startup_with_a_suggestion() {
    let out = Command::new(env!("CARGO_BIN_EXE_hs_serve"))
        .args(["--manifest", "nowhere"])
        .env("HS_FAULT", "probe_los:replica1:2")
        .output()
        .expect("spawn hs_serve");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(
        text.contains("did you mean `probe_loss`?"),
        "stderr: {text}"
    );
}
