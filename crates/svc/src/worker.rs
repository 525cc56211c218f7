//! Spec execution: the worker-process protocol and the daemon-side
//! executor.
//!
//! The daemon never simulates in its own process. Each dispatcher thread
//! owns one **worker process** — the `experiments` binary re-exec'd with
//! the hidden [`WORKER_ARG`] subcommand — and feeds it one [`SpecDesc`]
//! line on stdin per spec, reading one `result` line back on stdout. A
//! spec that panics or aborts takes down only its worker: the dispatcher
//! observes the EOF, reports a typed error entry for that spec, respawns
//! a fresh worker, and the rest of the sweep completes untouched. Replies
//! are read through a pump thread, so the dispatcher can give up on a
//! *hung* (not just dead) worker at its per-spec deadline and kill it.
//!
//! Fault injection rides the same stdin line: when the daemon's
//! [`crate::FaultPlan`] selects a fault for an attempt, the spec line
//! carries an extra `"inject"` member (`hang` / `abort` / `slow:MS`) the
//! worker honours before simulating. All decisions stay daemon-side;
//! worker processes are env-free.
//!
//! Tests and benches that want the protocol without process overhead use
//! [`WorkerBackend::InProcess`], which runs specs on the dispatcher
//! thread behind `catch_unwind` — same typed-error surface, no fork. Two
//! injected faults degrade gracefully there: `abort` becomes a catchable
//! typed error and `hang` becomes an immediate typed timeout (a thread,
//! unlike a process, cannot be killed), so the in-process chaos tests see
//! the same line grammar the process backend produces.

use crate::fault::WorkerFault;
use crate::proto::{result_line, result_report, SpecDesc};
use report::json::parse_json;
use sim::SimEngine;
use std::io::{self, BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// The hidden CLI subcommand that enters [`worker_main`].
pub const WORKER_ARG: &str = "service-worker";

/// Runs one descriptor to completion, returning its `result` line. The
/// single execution path shared by the worker process, the in-process
/// backend, and `submit --local` — which is why all three produce
/// byte-identical lines for the same spec.
pub fn run_spec(desc: &SpecDesc) -> Result<String, String> {
    let spec = desc.to_run_spec()?;
    let fingerprint = spec.fingerprint();
    let result = SimEngine::run_one(0, &spec);
    Ok(result_line(&fingerprint, &result_report(desc, &spec, &result.stats)))
}

/// Honours an injected fault on the worker side. `hang` parks the thread
/// forever (the daemon's deadline kills the process); `abort` dies the
/// way a real heap corruption would; `slow` just delays.
fn apply_inject(fault: &WorkerFault) {
    match fault {
        WorkerFault::Hang => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        WorkerFault::Abort => std::process::abort(),
        WorkerFault::Slow(ms) => std::thread::sleep(Duration::from_millis(*ms)),
    }
}

/// The worker-process main loop: one [`SpecDesc`] line in, one `result`
/// line out, until stdin closes. Returns the process exit code.
///
/// Failure handling is deliberately blunt: a malformed descriptor or an
/// I/O error exits non-zero, and a simulation panic unwinds out of the
/// process entirely — the daemon treats any missing reply as this
/// worker's death and isolates the damage to the one spec in flight.
pub fn worker_main() -> i32 {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { return 1 };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // The daemon may ask this attempt to misbehave (fault injection).
        if let Some(inject) =
            parse_json(line).ok().and_then(|doc| doc.get("inject")?.as_str().map(WorkerFault::from_wire))
        {
            match inject {
                Ok(fault) => apply_inject(&fault),
                Err(e) => {
                    eprintln!("service-worker: {e}");
                    return 1;
                }
            }
        }
        let desc = match SpecDesc::from_line(line) {
            Ok(desc) => desc,
            Err(e) => {
                eprintln!("service-worker: bad spec line: {e}");
                return 1;
            }
        };
        let reply = match run_spec(&desc) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("service-worker: {e}");
                return 1;
            }
        };
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            return 1;
        }
    }
    0
}

/// How the daemon executes specs.
#[derive(Clone, Debug)]
pub enum WorkerBackend {
    /// Spawn worker processes from the given `experiments` binary — the
    /// production backend; panicking specs die in their own process and
    /// hung specs are killed at the dispatcher's deadline.
    Process(PathBuf),
    /// Run specs on the dispatcher thread behind `catch_unwind` — the
    /// test/bench backend; no isolation from aborts (injected aborts
    /// degrade to typed errors, injected hangs to immediate typed
    /// timeouts), but the same typed outcome surface.
    InProcess,
}

/// How one execution attempt failed — the split the dispatcher needs to
/// stream a typed `timeout` vs `error` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ExecError {
    /// The worker missed the per-spec deadline and was killed.
    TimedOut(String),
    /// The worker died (or the spec panicked in-process).
    Failed(String),
}

impl ExecError {
    pub(crate) fn message(&self) -> &str {
        match self {
            ExecError::TimedOut(m) | ExecError::Failed(m) => m,
        }
    }
}

/// One live worker process with its pipes; replies arrive through a pump
/// thread so reads can time out.
#[derive(Debug)]
struct ProcessWorker {
    child: Child,
    stdin: ChildStdin,
    replies: mpsc::Receiver<io::Result<String>>,
}

impl ProcessWorker {
    fn spawn(exe: &PathBuf) -> io::Result<Self> {
        let mut child =
            Command::new(exe).arg(WORKER_ARG).stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (tx, replies) = mpsc::channel();
        // The pump exits when the worker's stdout closes (death or clean
        // EOF after we drop stdin) or when the receiver is gone.
        std::thread::spawn(move || {
            for line in stdout.lines() {
                let dead = line.is_err();
                if tx.send(line).is_err() || dead {
                    return;
                }
            }
        });
        Ok(Self { child, stdin, replies })
    }

    /// Sends one spec line and waits up to `deadline` for the reply.
    fn run(&mut self, spec_line: &str, deadline: Duration) -> Result<String, ExecError> {
        if let Err(e) = writeln!(self.stdin, "{spec_line}").and_then(|()| self.stdin.flush()) {
            return Err(ExecError::Failed(format!("worker stdin closed: {e}")));
        }
        match self.replies.recv_timeout(deadline) {
            Ok(Ok(line)) => Ok(line),
            Ok(Err(e)) => Err(ExecError::Failed(format!("worker stdout read failed: {e}"))),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(ExecError::Failed("worker closed its stdout".to_owned()))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ExecError::TimedOut(format!(
                "worker missed the {}ms per-spec deadline",
                deadline.as_millis()
            ))),
        }
    }

    /// Reaps the (dead, dying, or hung) worker, reporting its exit status.
    fn reap(mut self) -> String {
        let _ = self.child.kill();
        match self.child.wait() {
            Ok(status) => format!("{status}"),
            Err(_) => "unknown status".to_owned(),
        }
    }
}

impl Drop for ProcessWorker {
    /// Never leak a live worker: kill and reap so daemon shutdown leaves
    /// no orphans or zombies behind.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A dispatcher thread's executor: lazily (re)spawns its worker process,
/// or runs in-process per the backend.
#[derive(Debug)]
pub(crate) struct Executor {
    backend: WorkerBackend,
    worker: Option<ProcessWorker>,
}

impl Executor {
    pub(crate) fn new(backend: WorkerBackend) -> Self {
        Self { backend, worker: None }
    }

    /// Executes one attempt of a spec, returning its `result` stream
    /// line, or a typed description of the failure. `inject` is the fault
    /// the daemon's plan selected for this attempt (if any); `deadline`
    /// bounds the wait for a reply on the process backend.
    pub(crate) fn run(
        &mut self,
        desc: &SpecDesc,
        inject: Option<&WorkerFault>,
        deadline: Duration,
    ) -> Result<String, ExecError> {
        match &self.backend {
            WorkerBackend::InProcess => {
                match inject {
                    // A thread cannot be killed, so the two lethal faults
                    // short-circuit to their typed outcomes.
                    Some(WorkerFault::Hang) => {
                        return Err(ExecError::TimedOut(format!(
                            "worker missed the {}ms per-spec deadline (injected hang)",
                            deadline.as_millis()
                        )));
                    }
                    Some(WorkerFault::Abort) => {
                        return Err(ExecError::Failed(format!(
                            "worker crashed simulating {} (injected abort)",
                            desc.label()
                        )));
                    }
                    Some(WorkerFault::Slow(ms)) => std::thread::sleep(Duration::from_millis(*ms)),
                    None => {}
                }
                catch_unwind(AssertUnwindSafe(|| run_spec(desc)))
                    .unwrap_or_else(|p| {
                        Err(format!("worker panicked simulating {}: {}", desc.label(), panic_text(&p)))
                    })
                    .map_err(ExecError::Failed)
            }
            WorkerBackend::Process(exe) => {
                if self.worker.is_none() {
                    self.worker = Some(
                        ProcessWorker::spawn(exe)
                            .map_err(|e| ExecError::Failed(format!("failed to spawn worker: {e}")))?,
                    );
                }
                let worker = self.worker.as_mut().expect("worker just spawned");
                let line = match inject {
                    Some(fault) => inject_line(&desc.to_line(), fault),
                    None => desc.to_line(),
                };
                match worker.run(&line, deadline) {
                    Ok(line) => Ok(line),
                    Err(ExecError::TimedOut(e)) => {
                        // Hung, not dead: kill it so the next spec gets a
                        // fresh process instead of a stale reply.
                        let status = self.worker.take().expect("worker present on timeout path").reap();
                        Err(ExecError::TimedOut(format!(
                            "{e} simulating {}; killed worker ({status})",
                            desc.label()
                        )))
                    }
                    Err(ExecError::Failed(e)) => {
                        let status = self.worker.take().expect("worker present on error path").reap();
                        Err(ExecError::Failed(format!(
                            "worker process exited unexpectedly ({status}) while simulating {}: {e}",
                            desc.label()
                        )))
                    }
                }
            }
        }
    }
}

/// Splices an `"inject"` member into a spec's wire line (the line is a
/// compact one-line JSON object, so this is a pure suffix rewrite).
fn inject_line(spec_line: &str, fault: &WorkerFault) -> String {
    let body = spec_line.strip_suffix('}').expect("spec lines are JSON objects");
    format!("{body},\"inject\":\"{}\"}}", fault.wire())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    const DEADLINE: Duration = Duration::from_secs(60);

    fn tiny_desc(workload: &str) -> SpecDesc {
        SpecDesc {
            config: "radix".into(),
            workload: workload.into(),
            scale: Scale::Tiny,
            warmup: 200,
            instructions: 2_000,
            seed: vm_types::DEFAULT_SEED,
            sampling: None,
        }
    }

    #[test]
    fn in_process_executor_runs_a_spec() {
        let mut exec = Executor::new(WorkerBackend::InProcess);
        let line = exec.run(&tiny_desc("RND"), None, DEADLINE).unwrap();
        match crate::proto::parse_stream_line(&line).unwrap() {
            crate::proto::StreamLine::Result { report, .. } => {
                assert_eq!(report.provenance.workloads, ["RND"]);
            }
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn in_process_executor_turns_panics_into_typed_errors() {
        // A bogus workload name passes `to_run_spec` but panics in the
        // registry at simulation time — the generic panic path.
        let mut exec = Executor::new(WorkerBackend::InProcess);
        let err = exec.run(&tiny_desc("NOPE"), None, DEADLINE).unwrap_err();
        assert!(matches!(err, ExecError::Failed(_)), "{err:?}");
        assert!(err.message().contains("panicked"), "{err:?}");
        // The executor survives and runs the next spec normally.
        assert!(exec.run(&tiny_desc("RND"), None, DEADLINE).is_ok());
    }

    #[test]
    fn in_process_injected_faults_yield_typed_outcomes() {
        let mut exec = Executor::new(WorkerBackend::InProcess);
        let timeout = exec.run(&tiny_desc("RND"), Some(&WorkerFault::Hang), DEADLINE).unwrap_err();
        assert!(matches!(timeout, ExecError::TimedOut(_)), "{timeout:?}");
        let died = exec.run(&tiny_desc("RND"), Some(&WorkerFault::Abort), DEADLINE).unwrap_err();
        assert!(matches!(died, ExecError::Failed(_)), "{died:?}");
        // Slow is only a delay: the spec still completes with the same
        // bytes an uninjected run produces.
        let slow = exec.run(&tiny_desc("RND"), Some(&WorkerFault::Slow(10)), DEADLINE).unwrap();
        let clean = exec.run(&tiny_desc("RND"), None, DEADLINE).unwrap();
        assert_eq!(slow, clean);
    }

    #[test]
    fn identical_specs_yield_byte_identical_lines() {
        let mut exec = Executor::new(WorkerBackend::InProcess);
        let a = exec.run(&tiny_desc("XS"), None, DEADLINE).unwrap();
        let b = exec.run(&tiny_desc("XS"), None, DEADLINE).unwrap();
        assert_eq!(a, b);
        // And the shared single-spec path agrees with the executor.
        assert_eq!(run_spec(&tiny_desc("XS")).unwrap(), a);
    }

    #[test]
    fn inject_splices_into_the_wire_line() {
        let line = tiny_desc("RND").to_line();
        let injected = inject_line(&line, &WorkerFault::Slow(25));
        let doc = parse_json(&injected).unwrap();
        assert_eq!(doc.get("inject").and_then(|v| v.as_str()), Some("slow:25"));
        // The descriptor part still parses identically.
        assert_eq!(SpecDesc::from_line(&injected).unwrap(), tiny_desc("RND"));
    }
}
