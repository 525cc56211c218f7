//! End-to-end daemon tests over real localhost TCP, using the in-process
//! worker backend (the process backend is exercised against the real
//! `experiments` binary in `victima-bench`'s service tests).

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use svc::{DaemonConfig, DaemonHandle, FaultPlan, StreamLine, SweepRequest, WorkerBackend};
use workloads::Scale;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("victima-svc-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_daemon(dir: &Path, faults: FaultPlan) -> DaemonHandle {
    svc::start(DaemonConfig { workers: 2, faults, ..DaemonConfig::new(dir, WorkerBackend::InProcess) })
        .expect("daemon starts")
}

fn tiny_request(workloads: &[&str]) -> SweepRequest {
    SweepRequest {
        configs: vec!["radix".into(), "victima".into()],
        workloads: workloads.iter().map(|&w| w.to_owned()).collect(),
        scale: Scale::Tiny,
        warmup: 200,
        instructions: 2_000,
        seed: vm_types::DEFAULT_SEED,
        sampling: None,
    }
}

fn submit_lines(dir: &Path, req: &SweepRequest) -> (svc::SweepSummary, Vec<String>) {
    let mut lines = Vec::new();
    let stream = svc::connect(dir).expect("daemon reachable");
    let summary = svc::submit(stream, req, |raw, _| lines.push(raw.to_owned())).expect("sweep completes");
    (summary, lines)
}

#[test]
fn cold_then_warm_submit_is_byte_identical_with_zero_simulation() {
    let dir = tmp_dir("warm");
    let handle = start_daemon(&dir, FaultPlan::none());
    let req = tiny_request(&["RND", "XS"]);

    let (cold, cold_lines) = submit_lines(&dir, &req);
    assert_eq!((cold.specs, cold.results, cold.cached, cold.errors), (4, 4, 0, 0));
    assert_eq!(cold_lines.len(), 4);
    // Streamed strictly in sweep order: configs-major, workloads minor.
    let labels: Vec<(String, String)> = cold_lines
        .iter()
        .map(|l| match svc::parse_stream_line(l).unwrap() {
            StreamLine::Result { report, .. } => {
                (report.provenance.configs[0].clone(), report.provenance.workloads[0].clone())
            }
            other => panic!("expected results, got {other:?}"),
        })
        .collect();
    let want = [("Radix", "RND"), ("Radix", "XS"), ("Victima", "RND"), ("Victima", "XS")]
        .map(|(c, w)| (c.to_owned(), w.to_owned()));
    assert_eq!(labels, want);

    let before = svc::status(&dir).expect("status answers");
    assert_eq!(before.specs_simulated, 4);
    assert_eq!(before.cache_entries, 4);

    // Warm resubmission: zero simulation, byte-identical stream.
    let (warm, warm_lines) = submit_lines(&dir, &req);
    assert_eq!((warm.results, warm.cached, warm.errors), (4, 4, 0));
    assert_eq!(warm_lines, cold_lines, "warm stream must replay the cold bytes exactly");
    let after = svc::status(&dir).expect("status answers");
    assert_eq!(after.specs_simulated, 4, "warm resubmit must not simulate");
    assert_eq!(after.specs_cached, 4);
    assert_eq!(after.jobs_completed, 2);

    // And the daemon-free local runner produces the very same bytes.
    let mut local_lines = Vec::new();
    svc::run_local(&req, |l| local_lines.push(l.to_owned())).expect("local run completes");
    assert_eq!(local_lines, cold_lines, "run_local must emit the daemon's bytes");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_invalid_requests_fault_without_side_effects() {
    let dir = tmp_dir("fault");
    let handle = start_daemon(&dir, FaultPlan::none());

    let mut bad = tiny_request(&["RND"]);
    bad.configs = vec!["warp-drive".into()];
    let stream = svc::connect(&dir).expect("daemon reachable");
    let err = svc::submit(stream, &bad, |_, _| {}).expect_err("unknown config must fault");
    assert!(err.contains("unknown config"), "{err}");

    let status = svc::status(&dir).expect("status answers");
    assert_eq!(status.jobs_accepted, 0, "a faulted request must not be journaled");
    assert_eq!(status.cache_entries, 0);

    // Hostile lines: a nesting bomb, and a line past the length cap
    // (sent without its newline so the daemon reads every byte).
    let bomb = format!("{}\n", "[".repeat(200_000));
    let long = "x".repeat(svc::MAX_REQUEST_BYTES as usize + 1);
    for (what, raw) in [("nesting bomb", bomb), ("over-long line", long)] {
        let mut stream = svc::connect(&dir).expect("daemon reachable");
        stream.write_all(raw.as_bytes()).expect("send raw line");
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).expect("read reply");
        match svc::parse_stream_line(reply.trim()) {
            Ok(StreamLine::Fault { .. }) => {}
            other => panic!("{what}: expected a fault reply, got {other:?}"),
        }
        let status = svc::status(&dir).unwrap_or_else(|e| panic!("{what}: status must still answer: {e}"));
        assert_eq!(status.jobs_accepted, 0, "{what} must not be journaled");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashing_spec_yields_a_typed_error_and_spares_the_sweep() {
    let dir = tmp_dir("crash");
    let handle = start_daemon(&dir, FaultPlan::parse("abort=BC").expect("valid plan"));
    let req = tiny_request(&["RND", "BC"]);

    let (summary, lines) = submit_lines(&dir, &req);
    assert_eq!((summary.specs, summary.results, summary.errors), (4, 2, 2));
    for line in &lines {
        match svc::parse_stream_line(line).unwrap() {
            StreamLine::Result { report, .. } => assert_eq!(report.provenance.workloads, ["RND"]),
            StreamLine::Error { workload, error, .. } => {
                assert_eq!(workload, "BC");
                assert!(error.contains("crash") || error.contains("panicked"), "{error}");
            }
            other => panic!("unexpected line {other:?}"),
        }
    }
    let status = svc::status(&dir).expect("status answers");
    assert_eq!(status.specs_failed, 2);
    assert_eq!(status.cache_entries, 2, "failed specs must not be cached");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_daemon_resumes_a_journaled_sweep() {
    let dir = tmp_dir("resume");
    let req = tiny_request(&["RND"]);
    // Simulate a daemon killed after accepting but before finishing: the
    // journal holds the request with no done marker (this is exactly the
    // on-disk state a SIGKILL mid-sweep leaves behind).
    let journal = svc::Journal::open(dir.join("journal")).unwrap();
    journal.record(&svc::Journal::job_id(1), &req.to_line()).unwrap();

    let handle = start_daemon(&dir, FaultPlan::none());
    // The resume runs in the background; poll status until it completes.
    let mut done = false;
    for _ in 0..500 {
        let status = svc::status(&dir).expect("status answers");
        if status.jobs_completed >= 1 {
            done = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(done, "journaled job was not resumed within 5s");
    assert!(journal.pending().unwrap().is_empty(), "resumed job must be marked done");

    // The resumed results are in the cache: resubmitting simulates nothing.
    let (warm, _) = submit_lines(&dir, &req);
    assert_eq!((warm.results, warm.cached, warm.errors), (2, 2, 0));
    let status = svc::status(&dir).expect("status answers");
    assert_eq!(status.specs_simulated, 2, "only the resumed pass simulated");
    // A fresh submit gets a job id beyond the journaled one.
    assert_eq!(warm.job, "job-000002");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
