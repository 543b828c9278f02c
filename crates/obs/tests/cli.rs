//! End-to-end checks of the `hs_obs` binary: the bench-check gate must
//! actually fail the process on a synthetically regressed benchmark
//! file, and stay green (or warn-only) otherwise.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hs_obs_cli");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

fn bench_file(name: &str, gflops: f64, speedup: f64) -> PathBuf {
    let path = tmp(name);
    let doc = format!(
        r#"{{"schema_version":1,
            "gemm":[{{"size":256,"new_gflops":{gflops},"speedup":2.0}}],
            "forward":[{{"model":"vgg11","sp":2,"measured_speedup":{speedup}}}]}}"#
    );
    std::fs::write(&path, doc).expect("write bench file");
    path
}

fn hs_obs(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hs_obs"))
        .args(args)
        .output()
        .expect("run hs_obs")
}

#[test]
fn bench_check_exits_nonzero_on_synthetic_regression() {
    let baseline = bench_file("baseline.json", 10.0, 1.8);
    let regressed = bench_file("regressed.json", 4.0, 1.8);

    let out = hs_obs(&[
        "bench-check",
        regressed.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--tolerance",
        "0.3",
    ]);
    assert!(
        !out.status.success(),
        "a regressed GFLOP/s rate must fail bench-check"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("gemm[256].new_gflops"),
        "the regression must be named: {stdout}"
    );

    // The same comparison passes in --warn-only mode (CI on noisy
    // shared runners) and against an identical file.
    let out = hs_obs(&[
        "bench-check",
        regressed.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--warn-only",
    ]);
    assert!(out.status.success(), "warn-only must not fail the process");

    let out = hs_obs(&[
        "bench-check",
        baseline.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "identical files must pass");
}

#[test]
fn deeply_nested_bench_files_fail_with_a_message_instead_of_aborting() {
    let deep = tmp("deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).expect("write deep file");
    let path = deep.to_str().unwrap();
    let out = hs_obs(&["bench-check", path, "--baseline", path]);
    // Exit code 2 is the CLI's unreadable-input code; a stack overflow
    // would abort the process with a signal and no exit code.
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting deeper than"), "stderr: {stderr}");
}

#[test]
fn unknown_commands_and_missing_files_fail_with_usage() {
    let out = hs_obs(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = hs_obs(&["report", "--events", "/nonexistent/events.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
}
