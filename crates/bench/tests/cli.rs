//! End-to-end checks of the `experiments` binary surface: the trace
//! subcommands and the `--out` contract (missing output directories —
//! parents included — are created, never reported as errors).

use std::path::PathBuf;
use std::process::Command;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtrace-cli-{}-{label}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("spawn binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn trace_record_info_replay_create_missing_out_dirs() {
    let dir = scratch("roundtrip");
    // The trace file's parent directories don't exist yet.
    let trace = dir.join("deep/nested/rnd.vtrace");
    let (ok, stdout, stderr) = run(&[
        "trace",
        "record",
        "RND",
        "--out",
        trace.to_str().unwrap(),
        "--warmup",
        "500",
        "--instr",
        "5000",
    ]);
    assert!(ok, "record failed: {stderr}");
    assert!(stdout.contains("recorded"), "{stdout}");
    assert!(trace.is_file(), "record must create missing parent directories");

    // `--out DIR` artifact emission shares the experiments `--out` path:
    // a missing nested directory is created, not reported as an error.
    let artifacts = dir.join("artifacts/also/missing");
    let (ok, _, stderr) = run(&[
        "trace",
        "info",
        trace.to_str().unwrap(),
        "--format",
        "json",
        "--out",
        artifacts.to_str().unwrap(),
    ]);
    assert!(ok, "info failed: {stderr}");
    let info_json = artifacts.join("trace_info.json");
    assert!(info_json.is_file(), "info artifact lands in the created directory");
    assert!(artifacts.join("REPORT.md").is_file());
    let parsed = report::json::from_json(&std::fs::read_to_string(&info_json).unwrap())
        .expect("trace info emits a valid report-schema artifact");
    assert_eq!(parsed.id, "trace_info");
    assert!(parsed.metric("records").unwrap().value > 0.0);
    assert!(parsed.metric("file_bytes").unwrap().value > 0.0);

    // Replay through the same binary (single worker keeps it cheap).
    let (ok, stdout, stderr) = run(&["trace", "replay", trace.to_str().unwrap(), "--jobs", "1"]);
    assert!(ok, "replay failed: {stderr}");
    assert!(stdout.contains("Trace replay"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_cli_rejects_bad_inputs() {
    let (ok, _, stderr) = run(&["trace", "record", "RND"]);
    assert!(!ok);
    assert!(stderr.contains("--out"), "{stderr}");

    let (ok, _, stderr) = run(&["trace", "info", "/nonexistent/nope.vtrace"]);
    assert!(!ok);
    assert!(stderr.contains("trace info failed"), "{stderr}");

    let (ok, _, stderr) = run(&["trace", "record", "RND", "--out", "/tmp/x.vtrace", "--config", "warp"]);
    assert!(!ok);
    assert!(stderr.contains("unknown config"), "{stderr}");

    // A non-trace file is refused with a format diagnostic, not a crash.
    let bogus = scratch("bogus");
    std::fs::create_dir_all(&bogus).unwrap();
    let not_a_trace = bogus.join("not_a_trace.vtrace");
    std::fs::write(&not_a_trace, b"definitely not VTRC").unwrap();
    let (ok, _, stderr) = run(&["trace", "info", not_a_trace.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("magic"), "{stderr}");
    std::fs::remove_dir_all(&bogus).ok();
}

/// A reader that has gone away (`experiments --list | head -1`) ends the
/// process quietly: no panic from a failed stdout write.
#[test]
fn closed_stdout_pipe_ends_quietly() {
    let (reader, writer) = std::io::pipe().expect("create pipe");
    // Closed before the spawn, so the very first write fails.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--list")
        .stdout(writer)
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "exited like a panic: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
