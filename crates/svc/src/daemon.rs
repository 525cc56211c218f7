//! The resident sweep daemon: accept loop, job queue, dispatcher pool,
//! and crash recovery.
//!
//! One daemon owns a service directory (`cache/`, `journal/`,
//! `daemon.addr`, `daemon.pid`) and a localhost TCP listener. Each client
//! connection carries one request line; `submit` connections then stream
//! the sweep back incrementally. Specs fan out over a pool of dispatcher
//! threads — each owning one worker (see [`crate::worker`]) — while an
//! in-order release buffer on the handler side keeps the stream in sweep
//! order no matter which worker finishes first.
//!
//! Crash story, all directions:
//!
//! - **Worker dies** (panic/abort/SIGKILL): its dispatcher re-dispatches
//!   the spec with exponential backoff up to the retry budget, then
//!   reports a typed `error` entry; either way it respawns and the sweep
//!   completes.
//! - **Worker hangs** (deadlock, livelock, injected hang): the
//!   per-spec deadline kills it, the same retry ladder applies, and the
//!   exhausted case is a typed `timeout` entry — a hung worker can stall
//!   one spec for at most `(retries + 1) × deadline` plus backoff, never
//!   the shard.
//! - **Daemon dies**: every accepted job is journaled before its first
//!   spec runs, and every finished spec is already in the cache. The
//!   restarted daemon resumes each unfinished journal entry in the
//!   background, paying only for the specs that never finished; a
//!   journal record that no longer reads or parses is skipped with a
//!   warning (and counted in `status`), never allowed to poison the
//!   restart.
//! - **Client is hostile**: a request line past [`MAX_REQUEST_BYTES`] or
//!   nested past the JSON parser's depth cap gets a `fault` reply; the
//!   daemon never buffers or recurses without bound.
//!
//! The daemon can also turn these failures on *itself*: a
//! [`FaultPlan`] (from `serve --faults` / `VICTIMA_SVC_FAULTS`) injects
//! worker hangs/aborts/slowdowns, torn/corrupt/empty cache stores,
//! truncated journal records, and dropped client connections at
//! deterministic, seeded decision points — the chaos suite drives every
//! recovery path above through the real binary.

use crate::cache::ResultCache;
use crate::fault::FaultPlan;
use crate::journal::Journal;
use crate::log::Logger;
use crate::proto::{
    accepted_line, done_line, error_line, fault_line, ok_line, parse_request, timeout_line, MetricsInfo,
    Request, SpecDesc, StatusInfo, SweepRequest,
};
use crate::worker::{ExecError, Executor, WorkerBackend};
use obs::{MetricId, Registry};
use report::json::JsonValue;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// File (inside the service directory) holding the daemon's bound
/// address, written on startup — how clients find a daemon whose port
/// was ephemeral.
pub const ADDR_FILE: &str = "daemon.addr";

/// File holding the daemon's process id (the kill target for the
/// crash-recovery tests and for operators).
pub const PID_FILE: &str = "daemon.pid";

/// Default per-spec wall-clock deadline. Generous — a Paper-scale spec
/// takes minutes, and a false timeout wastes a whole re-simulation —
/// but finite, so a hung worker can never stall its shard forever.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(600);

/// Default re-dispatch budget after a worker death or timeout.
pub const DEFAULT_RETRIES: u32 = 2;

/// First backoff pause before a re-dispatch; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Backoff ceiling (keeps `--retries 10` from sleeping for minutes).
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Longest request line (newline included) a connection may send; a
/// longer one is answered with a fault instead of being buffered.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Startup parameters for a daemon.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Service directory: cache, journal, addr/pid files.
    pub dir: PathBuf,
    /// How specs execute (worker processes vs. in-process).
    pub backend: WorkerBackend,
    /// Dispatcher threads (= concurrent workers), clamped to ≥ 1.
    pub workers: usize,
    /// TCP port to bind on 127.0.0.1; `0` picks an ephemeral port (the
    /// bound address is always written to [`ADDR_FILE`]).
    pub port: u16,
    /// Per-spec wall-clock deadline; a worker that misses it is killed
    /// and the spec re-dispatched (then reported as a typed `timeout`).
    pub deadline: Duration,
    /// How many times a failed/timed-out spec is re-dispatched before
    /// its typed entry is streamed.
    pub retries: u32,
    /// Result-cache size bound; oldest entries are evicted past it.
    pub cache_max_bytes: Option<u64>,
    /// Faults this daemon injects into itself (chaos testing).
    pub faults: FaultPlan,
}

impl DaemonConfig {
    /// A config with production defaults: 1 worker, ephemeral port,
    /// [`DEFAULT_DEADLINE`], [`DEFAULT_RETRIES`], unbounded cache, no
    /// faults. Override fields with struct-update syntax.
    pub fn new(dir: impl Into<PathBuf>, backend: WorkerBackend) -> Self {
        Self {
            dir: dir.into(),
            backend,
            workers: 1,
            port: 0,
            deadline: DEFAULT_DEADLINE,
            retries: DEFAULT_RETRIES,
            cache_max_bytes: None,
            faults: FaultPlan::none(),
        }
    }
}

/// One queued spec plus its reply route.
struct Task {
    desc: SpecDesc,
    fingerprint: String,
    index: usize,
    reply: mpsc::Sender<(usize, Outcome)>,
}

/// What a dispatcher hands back for a spec.
enum Outcome {
    /// The rendered `result` line (already stored in the cache).
    Line(String),
    /// The worker died (retries exhausted); the typed error message.
    Failed(String),
    /// The worker missed its deadline (retries exhausted).
    TimedOut(String),
}

/// The daemon's own observability registry (`svc.`-rooted, mirroring the
/// simulator's `sim.` namespace — DESIGN.md "Observability"): the spec
/// latency distribution, cache effectiveness, respawn pressure, and
/// per-worker utilization. Served verbatim by the `metrics` op; never
/// consulted by anything that produces result bytes.
struct SvcMetrics {
    reg: Registry,
    /// Histogram: wall-clock latency of successful spec executions, ms.
    latency_ms: MetricId,
    /// Worker processes discarded (death or deadline) and respawned.
    respawns: MetricId,
    /// Specs answered straight from the result cache.
    cache_hit: MetricId,
    /// Specs dispatched to a worker (cache misses).
    cache_miss: MetricId,
    /// Per-worker milliseconds spent inside spec execution.
    worker_busy_ms: Vec<MetricId>,
    /// Per-worker specs run to a final outcome.
    worker_specs: Vec<MetricId>,
}

impl SvcMetrics {
    fn install(workers: usize) -> Self {
        let mut reg = Registry::new();
        let latency_ms = reg.histogram("svc.spec.latency_ms");
        let respawns = reg.counter("svc.worker.respawns");
        let cache_hit = reg.counter("svc.cache.hit");
        let cache_miss = reg.counter("svc.cache.miss");
        let mut worker_busy_ms = Vec::with_capacity(workers);
        let mut worker_specs = Vec::with_capacity(workers);
        for i in 0..workers {
            worker_busy_ms.push(reg.counter(&format!("svc.worker.{i}.busy_ms")));
            worker_specs.push(reg.counter(&format!("svc.worker.{i}.specs")));
        }
        Self { reg, latency_ms, respawns, cache_hit, cache_miss, worker_busy_ms, worker_specs }
    }
}

#[derive(Default)]
struct Counters {
    jobs_accepted: AtomicU64,
    jobs_completed: AtomicU64,
    specs_completed: AtomicU64,
    specs_simulated: AtomicU64,
    specs_cached: AtomicU64,
    specs_failed: AtomicU64,
    specs_timed_out: AtomicU64,
    specs_retried: AtomicU64,
    journal_skipped: AtomicU64,
    conn_drops: AtomicU64,
}

struct State {
    dir: PathBuf,
    addr: SocketAddr,
    backend: WorkerBackend,
    workers: usize,
    deadline: Duration,
    retries: u32,
    faults: FaultPlan,
    cache: ResultCache,
    journal: Journal,
    next_job: AtomicU64,
    queue: Mutex<VecDeque<Task>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    log: Logger,
    metrics: SvcMetrics,
}

impl State {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag, drains the queue (dropping queued tasks'
    /// senders so blocked handlers observe the disconnect), wakes the
    /// dispatchers, and pokes the accept loop with a dummy connection.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.lock().expect("task queue poisoned").clear();
        self.queue_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
    }

    /// Consumes one unit of the fault plan's dropped-connection budget.
    fn take_conn_drop(&self) -> bool {
        let budget = self.faults.drop_conn_budget();
        if budget == 0 {
            return false;
        }
        // Racy increments past the budget are harmless: fetch_add hands
        // out distinct tickets, and only tickets < budget drop.
        self.counters.conn_drops.fetch_add(1, Ordering::SeqCst) < budget
    }

    fn status(&self) -> StatusInfo {
        let jobs_accepted = self.counters.jobs_accepted.load(Ordering::Relaxed);
        let jobs_completed = self.counters.jobs_completed.load(Ordering::Relaxed);
        StatusInfo {
            engine: sim::ENGINE_ID.to_owned(),
            workers: self.workers as u64,
            jobs_accepted,
            jobs_completed,
            specs_completed: self.counters.specs_completed.load(Ordering::Relaxed),
            specs_simulated: self.counters.specs_simulated.load(Ordering::Relaxed),
            specs_cached: self.counters.specs_cached.load(Ordering::Relaxed),
            specs_failed: self.counters.specs_failed.load(Ordering::Relaxed),
            specs_timed_out: self.counters.specs_timed_out.load(Ordering::Relaxed),
            specs_retried: self.counters.specs_retried.load(Ordering::Relaxed),
            cache_entries: self.cache.entries().unwrap_or(0),
            cache_bytes: self.cache.bytes().unwrap_or(0),
            cache_quarantined: self.cache.quarantined(),
            cache_evicted: self.cache.evicted(),
            journal_skipped: self.counters.journal_skipped.load(Ordering::Relaxed),
            uptime_ms: self.log.uptime_ms(),
            jobs_pending: jobs_accepted.saturating_sub(jobs_completed),
        }
    }

    /// Snapshots the observability registry for the `metrics` op.
    fn metrics_info(&self) -> MetricsInfo {
        let m = &self.metrics;
        let latency = m.reg.histogram_snapshot(m.latency_ms);
        MetricsInfo {
            uptime_ms: self.log.uptime_ms(),
            queue_depth: self.queue.lock().expect("task queue poisoned").len() as u64,
            workers: self.workers as u64,
            worker_busy_ms: m.worker_busy_ms.iter().map(|&id| m.reg.value(id)).collect(),
            worker_specs: m.worker_specs.iter().map(|&id| m.reg.value(id)).collect(),
            latency_count: latency.count,
            latency_sum_ms: latency.sum,
            latency_buckets: latency.buckets.to_vec(),
            cache_hits: m.reg.value(m.cache_hit),
            cache_misses: m.reg.value(m.cache_miss),
            retries: self.counters.specs_retried.load(Ordering::Relaxed),
            timeouts: self.counters.specs_timed_out.load(Ordering::Relaxed),
            failures: self.counters.specs_failed.load(Ordering::Relaxed),
            quarantined: self.cache.quarantined(),
            worker_respawns: m.reg.value(m.respawns),
        }
    }
}

/// A started daemon: its address plus the threads to join at shutdown.
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon shuts down (a client sent the `shutdown`
    /// op), then joins every service thread.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Requests shutdown over the wire and joins — the clean stop used by
    /// tests and benches.
    pub fn shutdown(self) {
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let _ = writeln!(stream, "{{\"op\":\"shutdown\"}}");
            let mut reply = String::new();
            let _ = BufReader::new(&stream).read_line(&mut reply);
        }
        self.join();
    }
}

/// Starts a daemon in the background, returning once the listener is
/// bound and [`ADDR_FILE`] is written.
pub fn start(cfg: DaemonConfig) -> io::Result<DaemonHandle> {
    std::fs::create_dir_all(&cfg.dir)?;
    let cache = ResultCache::open_bounded(cfg.dir.join("cache"), cfg.cache_max_bytes)?;
    let journal = Journal::open(cfg.dir.join("journal"))?;
    let next_job = journal.next_job_number()?;
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;
    std::fs::write(cfg.dir.join(ADDR_FILE), format!("{addr}\n"))?;
    std::fs::write(cfg.dir.join(PID_FILE), format!("{}\n", std::process::id()))?;
    let workers = cfg.workers.max(1);
    let log = Logger::new(&cfg.dir);
    if !cfg.faults.is_empty() {
        log.warn(
            "fault_injection",
            "FAULT INJECTION ACTIVE",
            &[("plan", JsonValue::Str(cfg.faults.to_string()))],
        );
    }
    log.info(
        "listening",
        "daemon up",
        &[
            ("addr", JsonValue::Str(addr.to_string())),
            ("workers", JsonValue::Int(workers as i64)),
            ("backend", JsonValue::Str(format!("{:?}", cfg.backend))),
        ],
    );
    let state = Arc::new(State {
        dir: cfg.dir,
        addr,
        backend: cfg.backend,
        workers,
        deadline: cfg.deadline,
        retries: cfg.retries,
        faults: cfg.faults,
        cache,
        journal,
        next_job: AtomicU64::new(next_job),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
        log,
        metrics: SvcMetrics::install(workers),
    });
    let mut threads = Vec::with_capacity(workers + 2);
    for slot in 0..workers {
        let st = Arc::clone(&state);
        threads.push(std::thread::spawn(move || dispatcher(&st, slot)));
    }
    let pending = state.journal.pending()?;
    if !pending.is_empty() {
        let st = Arc::clone(&state);
        threads.push(std::thread::spawn(move || resume_pending(&st, pending)));
    }
    let st = Arc::clone(&state);
    threads.push(std::thread::spawn(move || accept_loop(&st, listener)));
    Ok(DaemonHandle { addr, threads })
}

/// Runs a daemon in the foreground until a client shuts it down — the
/// `experiments serve` entry point.
pub fn run(cfg: DaemonConfig) -> io::Result<()> {
    // The structured `listening` event (with the address) is emitted by
    // `start`; everything after this is driven by client requests.
    let handle = start(cfg)?;
    handle.join();
    Ok(())
}

fn accept_loop(state: &Arc<State>, listener: TcpListener) {
    for conn in listener.incoming() {
        if state.shutting_down() {
            break;
        }
        let Ok(stream) = conn else { continue };
        let st = Arc::clone(state);
        std::thread::spawn(move || handle_conn(&st, stream));
    }
    // Best-effort tidy-up so stale files never point at a dead daemon.
    let _ = std::fs::remove_file(state.dir.join(ADDR_FILE));
    let _ = std::fs::remove_file(state.dir.join(PID_FILE));
}

/// Exponential backoff pause before re-dispatching `attempt` (1-based).
fn backoff(attempt: u32) -> Duration {
    BACKOFF_BASE.saturating_mul(1u32 << attempt.min(10).saturating_sub(1)).min(BACKOFF_CAP)
}

/// Runs one task to its final outcome: attempt, and on worker death or
/// deadline miss, back off and re-dispatch up to the retry budget. The
/// fault plan is consulted per attempt (the attempt number perturbs
/// probabilistic draws, so a `@p` fault can clear on retry).
fn run_task(state: &Arc<State>, exec: &mut Executor, task: &Task) -> Outcome {
    let key = crate::fault::fnv1a64(task.fingerprint.as_bytes());
    let attempts = state.retries + 1;
    let mut last = ExecError::Failed("spec never attempted".to_owned());
    for attempt in 0..attempts {
        if attempt > 0 {
            state.counters.specs_retried.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff(attempt));
            if state.shutting_down() {
                break;
            }
        }
        let inject = state.faults.worker_fault(&task.desc.workload, key, attempt);
        let t0 = Instant::now();
        match exec.run(&task.desc, inject.as_ref(), state.deadline) {
            Ok(line) => {
                let m = &state.metrics;
                m.reg.observe(m.latency_ms, t0.elapsed().as_millis() as u64);
                state.counters.specs_simulated.fetch_add(1, Ordering::Relaxed);
                let fault = state.faults.cache_fault(key, u64::from(attempt));
                if let Err(e) = state.cache.store_injected(&task.fingerprint, &line, fault) {
                    state.log.error(
                        "cache_store_failed",
                        &format!("cache store failed: {e}"),
                        &[("fingerprint", JsonValue::Str(task.fingerprint.clone()))],
                    );
                }
                return Outcome::Line(line);
            }
            Err(e) => {
                // The executor discarded its worker (death or deadline
                // kill) and will spawn a fresh one on the next attempt —
                // the structured respawn event names the spec and attempt
                // so a respawn storm is attributable from the log alone.
                state.metrics.reg.inc(state.metrics.respawns);
                state.log.warn(
                    "worker_respawn",
                    e.message(),
                    &[
                        ("fingerprint", JsonValue::Str(task.fingerprint.clone())),
                        ("spec", JsonValue::Str(task.desc.label())),
                        ("attempt", JsonValue::Int(i64::from(attempt) + 1)),
                        ("attempts", JsonValue::Int(i64::from(attempts))),
                    ],
                );
                last = e;
            }
        }
    }
    match last {
        ExecError::TimedOut(m) => {
            state.counters.specs_timed_out.fetch_add(1, Ordering::Relaxed);
            Outcome::TimedOut(format!("{m} (after {attempts} attempt(s))"))
        }
        ExecError::Failed(m) => {
            state.counters.specs_failed.fetch_add(1, Ordering::Relaxed);
            Outcome::Failed(format!("{m} (after {attempts} attempt(s))"))
        }
    }
}

fn dispatcher(state: &Arc<State>, slot: usize) {
    let mut exec = Executor::new(state.backend.clone());
    loop {
        let task = {
            let mut queue = state.queue.lock().expect("task queue poisoned");
            loop {
                if state.shutting_down() {
                    return;
                }
                match queue.pop_front() {
                    Some(task) => break task,
                    None => queue = state.queue_cv.wait(queue).expect("task queue poisoned"),
                }
            }
        };
        let t0 = Instant::now();
        let outcome = run_task(state, &mut exec, &task);
        let m = &state.metrics;
        m.reg.add(m.worker_busy_ms[slot], t0.elapsed().as_millis() as u64);
        m.reg.inc(m.worker_specs[slot]);
        // A send error just means the job's handler gave up (shutdown);
        // the result is in the cache either way.
        let _ = task.reply.send((task.index, outcome));
    }
}

fn resume_pending(state: &Arc<State>, pending: Vec<(String, String)>) {
    for (job, line) in pending {
        if state.shutting_down() {
            return;
        }
        let req = match SweepRequest::from_line(&line) {
            Ok(req) => req,
            Err(e) => {
                state.log.warn(
                    "journal_skipped",
                    &format!("journal entry does not parse ({e}); skipping it"),
                    &[("job", JsonValue::Str(job.clone()))],
                );
                state.counters.journal_skipped.fetch_add(1, Ordering::Relaxed);
                let _ = state.journal.complete(&job);
                continue;
            }
        };
        let specs = match req.specs() {
            Ok(specs) => specs,
            Err(e) => {
                state.log.warn(
                    "journal_skipped",
                    &format!("journal entry no longer expands ({e}); skipping it"),
                    &[("job", JsonValue::Str(job.clone()))],
                );
                state.counters.journal_skipped.fetch_add(1, Ordering::Relaxed);
                let _ = state.journal.complete(&job);
                continue;
            }
        };
        state.log.info(
            "journal_resume",
            "resuming journaled job",
            &[("job", JsonValue::Str(job.clone())), ("specs", JsonValue::Int(specs.len() as i64))],
        );
        state.counters.jobs_accepted.fetch_add(1, Ordering::Relaxed);
        let (_, _, errors) = run_job(state, specs, &mut None);
        if state.shutting_down() && errors > 0 {
            // Interrupted again before finishing: leave the journal entry
            // pending for the next restart.
            continue;
        }
        let _ = state.journal.complete(&job);
        state.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
}

fn handle_conn(state: &Arc<State>, mut stream: TcpStream) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone.take(MAX_REQUEST_BYTES + 1),
        Err(_) => return,
    });
    let mut line = String::new();
    let n = reader.read_line(&mut line).unwrap_or(0);
    if n == 0 {
        return;
    }
    let mut sink = Some(&mut stream);
    if n as u64 > MAX_REQUEST_BYTES {
        send(&mut sink, &fault_line(&format!("request line longer than {MAX_REQUEST_BYTES} bytes")));
        return;
    }
    match parse_request(line.trim()) {
        Err(e) => send(&mut sink, &fault_line(&e)),
        Ok(Request::Status) => send(&mut sink, &state.status().to_line()),
        Ok(Request::Metrics) => send(&mut sink, &state.metrics_info().to_line()),
        Ok(Request::Shutdown) => {
            send(&mut sink, &ok_line());
            state.begin_shutdown();
        }
        Ok(Request::Submit(req)) => handle_submit(state, &req, sink),
    }
}

fn handle_submit(state: &Arc<State>, req: &SweepRequest, mut sink: Option<&mut TcpStream>) {
    let specs = match req.specs() {
        Ok(specs) => specs,
        Err(e) => {
            send(&mut sink, &fault_line(&e));
            return;
        }
    };
    let job = Journal::job_id(state.next_job.fetch_add(1, Ordering::SeqCst));
    let torn = state.faults.journal_truncate(crate::fault::fnv1a64(job.as_bytes()));
    if let Err(e) = state.journal.record_injected(&job, &req.to_line(), torn) {
        send(&mut sink, &fault_line(&format!("journal write failed: {e}")));
        return;
    }
    state.counters.jobs_accepted.fetch_add(1, Ordering::Relaxed);
    send(&mut sink, &accepted_line(&job, specs.len() as u64));
    // The job runs to completion even if the client disconnects
    // mid-stream — results land in the cache regardless.
    let (results, cached, errors) = run_job(state, specs, &mut sink);
    // Complete durably *before* the done line: a client that has seen
    // `done` must observe the journal marker and the bumped counter.
    if !state.shutting_down() {
        let _ = state.journal.complete(&job);
        state.counters.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
    send(&mut sink, &done_line(&job, results, cached, errors));
}

/// Runs one expanded sweep: cache hits answer immediately, misses fan out
/// to the dispatchers, and entries are released to `sink` strictly in
/// sweep order. Returns `(results, cached, errors)` — `errors` counts
/// both `error` and `timeout` entries.
fn run_job(state: &Arc<State>, specs: Vec<SpecDesc>, sink: &mut Option<&mut TcpStream>) -> (u64, u64, u64) {
    let total = specs.len();
    let fingerprints: Vec<String> = specs
        .iter()
        .map(|d| d.to_run_spec().expect("specs were validated by SweepRequest::specs").fingerprint())
        .collect();
    let mut slots: Vec<Option<String>> = vec![None; total];
    let mut cached = 0u64;
    for (slot, fp) in slots.iter_mut().zip(&fingerprints) {
        if let Some(line) = state.cache.lookup(fp) {
            *slot = Some(line);
            cached += 1;
        }
    }
    state.counters.specs_cached.fetch_add(cached, Ordering::Relaxed);
    state.metrics.reg.add(state.metrics.cache_hit, cached);
    state.metrics.reg.add(state.metrics.cache_miss, total as u64 - cached);
    let (tx, rx) = mpsc::channel();
    {
        let mut queue = state.queue.lock().expect("task queue poisoned");
        if !state.shutting_down() {
            for (index, desc) in specs.iter().enumerate() {
                if slots[index].is_none() {
                    queue.push_back(Task {
                        desc: desc.clone(),
                        fingerprint: fingerprints[index].clone(),
                        index,
                        reply: tx.clone(),
                    });
                }
            }
        }
    }
    state.queue_cv.notify_all();
    drop(tx);
    let mut errors = 0u64;
    let mut next = 0usize;
    while next < total {
        if let Some(line) = slots[next].take() {
            send(sink, &line);
            state.counters.specs_completed.fetch_add(1, Ordering::Relaxed);
            next += 1;
            // Injected client-facing failure: sever the stream mid-sweep
            // (the job keeps running; the client must reconnect-resume).
            if sink.is_some() && state.take_conn_drop() {
                state.log.warn(
                    "conn_drop_injected",
                    "injected connection drop mid-stream",
                    &[("spec", JsonValue::Int(next as i64)), ("total", JsonValue::Int(total as i64))],
                );
                if let Some(stream) = sink {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                *sink = None;
            }
            continue;
        }
        match rx.recv() {
            Ok((index, Outcome::Line(line))) => slots[index] = Some(line),
            Ok((index, Outcome::Failed(msg))) => {
                errors += 1;
                slots[index] = Some(error_line(&fingerprints[index], &specs[index], &msg));
            }
            Ok((index, Outcome::TimedOut(msg))) => {
                errors += 1;
                slots[index] = Some(timeout_line(&fingerprints[index], &specs[index], &msg));
            }
            Err(_) => {
                // Every sender is gone with slots still empty: the daemon
                // is shutting down under us. Fail the remainder loudly.
                for index in next..total {
                    if slots[index].is_none() {
                        errors += 1;
                        slots[index] = Some(error_line(
                            &fingerprints[index],
                            &specs[index],
                            "daemon shut down before this spec ran",
                        ));
                    }
                }
            }
        }
    }
    (total as u64 - errors, cached, errors)
}

/// Writes one protocol line to the sink, closing it on the first client
/// error (the job keeps running for the cache's benefit).
fn send(sink: &mut Option<&mut TcpStream>, line: &str) {
    if let Some(stream) = sink {
        if writeln!(stream, "{line}").and_then(|()| stream.flush()).is_err() {
            *sink = None;
        }
    }
}
