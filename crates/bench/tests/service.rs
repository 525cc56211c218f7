//! End-to-end sweep-service checks against the real `experiments`
//! binary: a daemon process driving worker *processes* (the svc crate's
//! own tests use the in-process backend). Covers the full CLI surface —
//! `serve`, `submit` (daemon and `--local`), `status` — plus the two
//! crash contracts: an aborting worker is isolated to its spec, and a
//! SIGKILLed daemon restarts into its on-disk cache and journal.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

/// Tiny sweep shared by every test: 2 configs x 2 workloads, small
/// enough that even the 1-vCPU CI host clears a cold pass in seconds.
const SWEEP: &[&str] =
    &["--configs", "radix,victima", "--workloads", "RND,XS", "--warmup", "200", "--instr", "2000"];

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("victima-svc-cli-{}-{label}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A `serve` child that is killed (best effort) when the test ends, so
/// a failing assertion doesn't leak daemons.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

fn serve(dir: &Path, envs: &[(&str, &str)]) -> Daemon {
    let mut cmd = Command::new(BIN);
    cmd.args(["serve", "--dir", dir.to_str().unwrap(), "--workers", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    // Wrapped immediately: `Daemon`'s Drop kills and reaps the child
    // even when the readiness wait below panics.
    let daemon = Daemon(cmd.spawn().expect("serve spawns"));
    // The daemon advertises readiness by writing its address file.
    let addr = dir.join(svc::ADDR_FILE);
    for _ in 0..600 {
        if addr.is_file() {
            return daemon;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("daemon did not write {} within 12s", addr.display());
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn submit(dir: &Path, extra: &[&str]) -> (bool, String, String) {
    let mut args = vec!["submit", "--dir", dir.to_str().unwrap()];
    args.extend_from_slice(SWEEP);
    args.extend_from_slice(extra);
    run(&args)
}

#[test]
fn daemon_cli_cold_warm_local_and_status_roundtrip() {
    let dir = scratch("roundtrip");
    let _daemon = serve(&dir, &[]);

    // Cold pass: every spec simulates in a worker process.
    let cold_out = dir.join("cold.jsonl");
    let (ok, cold_stdout, stderr) = submit(&dir, &["--out", cold_out.to_str().unwrap()]);
    assert!(ok, "cold submit failed: {stderr}");
    assert_eq!(cold_stdout.lines().count(), 4, "{cold_stdout}");
    assert!(stderr.contains("4 result(s), 0 cached, 0 error(s)"), "{stderr}");

    // Warm pass: zero simulation, byte-identical artifact.
    let warm_out = dir.join("warm.jsonl");
    let (ok, warm_stdout, stderr) = submit(&dir, &["--out", warm_out.to_str().unwrap()]);
    assert!(ok, "warm submit failed: {stderr}");
    assert!(stderr.contains("4 cached"), "{stderr}");
    assert_eq!(warm_stdout, cold_stdout, "warm stream must replay the cold bytes");
    let (cold_file, warm_file) = (std::fs::read(&cold_out).unwrap(), std::fs::read(&warm_out).unwrap());
    assert_eq!(warm_file, cold_file, "--out artifacts must be byte-identical across resubmits");

    // The daemon-free path emits the very same bytes (CI diffs this).
    let (ok, local_stdout, stderr) = submit(&dir, &["--local"]);
    assert!(ok, "local submit failed: {stderr}");
    assert_eq!(local_stdout, cold_stdout, "--local must emit the daemon's bytes");

    // Every streamed line is a parseable result carrying a report.
    for line in cold_stdout.lines() {
        match svc::parse_stream_line(line).expect("stream lines parse") {
            svc::StreamLine::Result { report, .. } => assert_eq!(report.id, "sweep_result"),
            other => panic!("expected a result line, got {other:?}"),
        }
    }

    let (ok, status_stdout, stderr) = run(&["status", "--dir", dir.to_str().unwrap()]);
    assert!(ok, "status failed: {stderr}");
    assert!(status_stdout.contains(svc::PROTO_ID), "{status_stdout}");
    assert!(stderr.contains("2/2 done"), "{stderr}");

    let (ok, _, stderr) = run(&["status", "--dir", dir.to_str().unwrap(), "--shutdown"]);
    assert!(ok, "shutdown failed: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aborting_worker_process_is_isolated_to_its_spec() {
    let dir = scratch("crash");
    // The daemon's fault plan makes any worker simulating BC call
    // abort() mid-run, killing that worker process for real.
    let _daemon = serve(&dir, &[(svc::FAULTS_ENV, "abort=BC")]);

    let args = [
        "submit",
        "--dir",
        dir.to_str().unwrap(),
        "--configs",
        "radix,victima",
        "--workloads",
        "RND,BC",
        "--warmup",
        "200",
        "--instr",
        "2000",
    ];
    let (ok, stdout, stderr) = run(&args);
    assert!(!ok, "a sweep with failed specs must exit nonzero");
    assert!(stderr.contains("2 result(s)"), "{stderr}");
    assert!(stderr.contains("2 error(s)"), "{stderr}");
    let mut results = 0;
    let mut errors = 0;
    for line in stdout.lines() {
        match svc::parse_stream_line(line).expect("stream lines parse") {
            svc::StreamLine::Result { report, .. } => {
                results += 1;
                assert_eq!(report.provenance.workloads, ["RND"]);
            }
            svc::StreamLine::Error { workload, error, .. } => {
                errors += 1;
                assert_eq!(workload, "BC");
                assert!(error.contains("worker process exited unexpectedly"), "{error}");
            }
            other => panic!("unexpected line {other:?}"),
        }
    }
    assert_eq!((results, errors), (2, 2), "{stdout}");

    // The daemon survived both worker deaths: a follow-up sweep of the
    // healthy workload completes on a respawned worker.
    let (ok, _, stderr) = submit(&dir, &[]);
    assert!(ok, "post-crash submit failed: {stderr}");
    assert!(stderr.contains("0 error(s)"), "{stderr}");

    let (ok, _, stderr) = run(&["status", "--dir", dir.to_str().unwrap(), "--shutdown"]);
    assert!(ok, "shutdown failed: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkilled_daemon_restarts_into_cache_and_resumes_journal() {
    let dir = scratch("sigkill");
    let daemon = serve(&dir, &[]);

    let (ok, cold_stdout, stderr) = submit(&dir, &[]);
    assert!(ok, "cold submit failed: {stderr}");

    // SIGKILL the daemon — no shutdown handshake, no cleanup.
    drop(daemon);
    std::fs::remove_file(dir.join(svc::ADDR_FILE)).ok();

    // Forge the state a SIGKILL mid-sweep leaves behind: a journaled job
    // with no done marker. The restarted daemon must finish it unasked.
    let journal = svc::Journal::open(dir.join("journal")).unwrap();
    let pending = svc::SweepRequest {
        configs: vec!["radix".into()],
        workloads: vec!["XS".into()],
        scale: workloads::Scale::Tiny,
        warmup: 200,
        instructions: 2_000,
        seed: vm_types::DEFAULT_SEED,
        sampling: None,
    };
    journal.record(&svc::Journal::job_id(2), &pending.to_line()).unwrap();

    let _daemon = serve(&dir, &[]);
    let deadline = std::time::Instant::now() + Duration::from_secs(12);
    loop {
        let (ok, _, stderr) = run(&["status", "--dir", dir.to_str().unwrap()]);
        if ok && stderr.contains("jobs 1/1 done") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "journaled job not resumed: {stderr}");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(journal.pending().unwrap().is_empty(), "resumed job must be marked done");

    // The pre-kill cache survived on disk: the same sweep replays
    // byte-identically with zero simulation.
    let (ok, warm_stdout, stderr) = submit(&dir, &[]);
    assert!(ok, "post-restart submit failed: {stderr}");
    assert!(stderr.contains("4 cached"), "{stderr}");
    assert_eq!(warm_stdout, cold_stdout, "restart must serve the pre-kill bytes");

    let (ok, _, stderr) = run(&["status", "--dir", dir.to_str().unwrap(), "--shutdown"]);
    assert!(ok, "shutdown failed: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_without_a_daemon_points_at_serve() {
    let dir = scratch("nodaemon");
    let (ok, _, stderr) = submit(&dir, &[]);
    assert!(!ok);
    assert!(stderr.contains("experiments serve"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
