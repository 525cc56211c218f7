//! The `service` workload: a real sweep daemon (`svc::start`, worker
//! processes, one worker per logical CPU) driven by one closed-loop
//! client in the benchmark process.
//!
//! Each round submits the base sweep — {radix, victima, victima+stlb,
//! pom} × the 11 simulator workloads at Tiny, all cached after round 0 —
//! and then a cold sweep of {radix, victima} × the six benchmark
//! simulator workloads at a fresh seed, so 12 of every round's 56 specs
//! are simulated and stored while the rest are read back from the
//! cache. Round 0 fills the cache and is checked but not timed.

use crate::check::Expected;
use crate::simrun::SIM_WORKLOADS;
use crate::util::{median, peak_rss_mb, percentile, results_dir, Spans};
use crate::{Options, Outcome};
use report::json::{parse_json, to_json};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use svc::{DaemonConfig, DaemonHandle, Journal, ResultCache, StreamLine, SweepRequest, WorkerBackend};
use workloads::registry::WORKLOAD_NAMES;
use workloads::Scale;

/// Daemon starts timed for `setup_s` (the median is reported).
const SETUP_STARTS: usize = 15;

/// Share of the measured sweeps (the quietest ones) the timings are
/// taken from.
const QUIET_SHARE: usize = 10;

/// Shape of the service traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct SvcPlan {
    /// Configs of the base (cached) sweep.
    pub configs: Vec<String>,
    /// Configs of each round's cold sweep.
    pub cold_configs: Vec<String>,
    /// Simulator workloads of the base sweep.
    pub workloads: Vec<String>,
    /// Simulator workloads of each cold sweep.
    pub cold_workloads: Vec<String>,
    /// Footprint scale.
    pub scale: Scale,
    /// Warm-up instructions per spec.
    pub warmup: u64,
    /// Measured instructions per spec.
    pub instructions: u64,
}

fn strings(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| (*s).to_owned()).collect()
}

impl SvcPlan {
    /// The service plan; `smoke` shrinks it to two workloads and a few
    /// thousand instructions.
    pub fn new(smoke: bool) -> Self {
        let (workloads, cold_workloads) = if smoke {
            (strings(&["RND", "XS"]), strings(&["RND", "XS"]))
        } else {
            (strings(&WORKLOAD_NAMES), strings(&SIM_WORKLOADS))
        };
        let (warmup, instructions) = if smoke { (500, 2_000) } else { (1_000, 5_000) };
        Self {
            configs: strings(&sim::config::CONFIG_KEYS),
            cold_configs: strings(&["radix", "victima"]),
            workloads,
            cold_workloads,
            scale: Scale::Tiny,
            warmup,
            instructions,
        }
    }

    /// The base sweep at `seed`.
    pub fn base(&self, seed: u64) -> SweepRequest {
        self.request(self.configs.clone(), self.workloads.clone(), seed)
    }

    /// Round `round`'s cold sweep: a seed no other round uses.
    pub fn cold(&self, seed: u64, round: usize) -> SweepRequest {
        let seed = seed.wrapping_add((round as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.request(self.cold_configs.clone(), self.cold_workloads.clone(), seed)
    }

    fn request(&self, configs: Vec<String>, workloads: Vec<String>, seed: u64) -> SweepRequest {
        SweepRequest {
            configs,
            workloads,
            scale: self.scale,
            warmup: self.warmup,
            instructions: self.instructions,
            seed,
            sampling: None,
        }
    }

    /// Spec labels of a request, in stream order.
    pub fn labels(req: &SweepRequest) -> Vec<String> {
        req.configs.iter().flat_map(|c| req.workloads.iter().map(move |w| format!("{c}/{w}"))).collect()
    }

    /// Provenance facts.
    pub fn facts(&self, out: &mut Outcome) {
        out.fact("scale", format!("\"{:?}\"", self.scale));
        out.fact("warmup", self.warmup.to_string());
        out.fact("instructions", self.instructions.to_string());
        out.fact("configs", format!("{:?}", self.configs));
        out.fact("cold_configs", format!("{:?}", self.cold_configs));
        out.fact("sim_workloads", format!("{:?}", self.workloads));
        out.fact("cold_sim_workloads", format!("{:?}", self.cold_workloads));
        out.fact("workers", workers().to_string());
    }
}

/// Daemon worker count: one per logical CPU.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A running daemon in its own service directory under `results/`.
pub struct Daemon {
    /// Service directory.
    pub dir: PathBuf,
    handle: Option<DaemonHandle>,
}

impl Daemon {
    /// Starts a daemon whose workers run `worker_exe`, and waits
    /// for its first `status` answer. Returns it with the start time.
    pub fn start(dir: &Path, worker_exe: &Path) -> Result<(Self, f64), String> {
        let backend = WorkerBackend::Process(worker_exe.to_owned());
        let cfg = DaemonConfig { workers: workers(), ..DaemonConfig::new(dir, backend) };
        let t = Instant::now();
        let handle = svc::start(cfg).map_err(|e| format!("daemon start failed: {e}"))?;
        let daemon = Self { dir: dir.to_owned(), handle: Some(handle) };
        svc::status(dir)?;
        Ok((daemon, t.elapsed().as_secs_f64()))
    }

    /// Submits a sweep over a fresh connection; returns each per-spec
    /// line with its latency from the submit call (ms), and the wall
    /// time of the whole sweep (s).
    pub fn submit(&self, req: &SweepRequest) -> Result<(Vec<(f64, String)>, f64), String> {
        let t = Instant::now();
        let stream = svc::connect(&self.dir).map_err(|e| e.to_string())?;
        let mut lines = Vec::new();
        let summary = svc::submit(stream, req, |line, _| {
            lines.push((t.elapsed().as_secs_f64() * 1e3, line.to_owned()));
        })?;
        if summary.results + summary.errors != lines.len() as u64 {
            return Err(format!("sweep {} streamed {} lines for {:?}", summary.job, lines.len(), summary));
        }
        Ok((lines, t.elapsed().as_secs_f64()))
    }
}

impl Drop for Daemon {
    /// Shuts the daemon down, joining its threads (which reap the worker
    /// processes).
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

/// A fresh service directory, unique within this process.
pub fn service_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = results_dir().join(format!("svc-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Whether a streamed line is a result (not an `error`/`timeout` entry).
fn line_error(label: &str, line: &str) -> Option<String> {
    match svc::parse_stream_line(line) {
        Ok(StreamLine::Result { .. }) => None,
        Ok(other) => Some(format!("{label}: {other:?}")),
        Err(e) => Some(format!("{label}: unparsable line: {e}")),
    }
}

/// Geometric mean over simulator workloads of victima IPC ÷ radix IPC,
/// read from a base sweep's result lines (simulated time).
pub fn victima_speedup(req: &SweepRequest, lines: &[String]) -> f64 {
    let labels = SvcPlan::labels(req);
    let ipc = |label: String| -> Option<f64> {
        let i = labels.iter().position(|l| *l == label)?;
        match svc::parse_stream_line(lines.get(i)?).ok()? {
            StreamLine::Result { report, .. } => {
                report.metrics.iter().find(|m| m.name == "ipc").map(|m| m.value)
            }
            _ => None,
        }
    };
    let ratios: Vec<f64> = req
        .workloads
        .iter()
        .filter_map(|w| Some(ipc(format!("victima/{w}"))? / ipc(format!("radix/{w}"))?))
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    vm_types::geomean(&ratios)
}

/// Compares a streamed sweep with `svc::run_local` on the same request,
/// line by line and byte for byte; one checked operation per spec.
fn check_against_local(req: &SweepRequest, lines: &[String], out: &mut Outcome) {
    let mut local = Vec::new();
    if let Err(e) = svc::run_local(req, |l| local.push(l.to_owned())) {
        out.check(Some(format!("run_local failed: {e}")));
        return;
    }
    for (i, label) in SvcPlan::labels(req).iter().enumerate() {
        let err = match (lines.get(i), local.get(i)) {
            (Some(a), Some(b)) if a == b => line_error(label, a),
            (Some(_), Some(_)) => Some(format!("{label}: daemon line differs from run_local")),
            _ => Some(format!("{label}: missing line")),
        };
        out.check(err);
    }
}

fn failed_outcome(mut out: Outcome, err: String) -> Outcome {
    out.check(Some(err));
    for (name, unit) in crate::END_TO_END {
        if out.value(name).is_none() {
            out.metric(name, 0.0, unit);
        }
    }
    out
}

/// The untraced run of the service workload.
pub fn run(opts: &Options, expected: Option<&Expected>) -> Outcome {
    let plan = SvcPlan::new(opts.smoke);
    let mut out = Outcome::default();
    plan.facts(&mut out);
    let dir = service_dir("service");
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_STARTS {
        drop(daemon.take());
        match Daemon::start(&dir, &opts.worker_exe) {
            Ok((d, secs)) => {
                setup.push(secs);
                daemon = Some(d);
            }
            Err(e) => return failed_outcome(out, e),
        }
    }
    let daemon = daemon.expect("at least one daemon start");

    // Round 0: fills the cache with the base sweep; checked, not timed.
    let base = plan.base(opts.seed);
    let labels = SvcPlan::labels(&base);
    let base_lines: Vec<String> = match daemon.submit(&base) {
        Ok((lines, _)) => lines.into_iter().map(|(_, l)| l).collect(),
        Err(e) => return failed_outcome(out, e),
    };
    if let Some(exp) = expected {
        for (label, line) in labels.iter().zip(&base_lines) {
            out.check(exp.verify(label, &crate::util::digest(line)));
        }
    }
    out.digests =
        labels.iter().zip(&base_lines).map(|(l, line)| (l.clone(), crate::util::digest(line))).collect();
    check_against_local(&base, &base_lines, &mut out);

    let mut cold_sweeps = Vec::new();
    // Per measured sweep: (wall s, line latencies ms).
    let (mut warm_sweeps, mut cold_timed) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while round < 2 || start.elapsed() < opts.seconds {
        round += 1;
        let warm = daemon.submit(&base);
        let cold_req = plan.cold(opts.seed, round);
        let cold = daemon.submit(&cold_req);
        let ((warm, warm_s), (cold, cold_s)) = match (warm, cold) {
            (Ok(w), Ok(c)) => (w, c),
            (Err(e), _) | (_, Err(e)) => return failed_outcome(out, e),
        };
        for (i, (_, line)) in warm.iter().enumerate() {
            let err = (base_lines.get(i) != Some(line))
                .then(|| format!("{}: warm line differs from round 0", labels[i]));
            out.check(err);
        }
        warm_sweeps.push((warm_s, warm.iter().map(|(ms, _)| *ms).collect::<Vec<_>>()));
        cold_timed.push((cold_s, cold.iter().map(|(ms, _)| *ms).collect::<Vec<_>>()));
        // Rounds 1, 2, 4, 8, … are re-simulated with `run_local` after the
        // timed phase; every other cold line is checked to be a result.
        if round.is_power_of_two() {
            cold_sweeps.push((cold_req, cold.into_iter().map(|(_, l)| l).collect::<Vec<_>>()));
        } else {
            for (label, (_, line)) in SvcPlan::labels(&cold_req).iter().zip(&cold) {
                out.check(line_error(label, line));
            }
        }
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    for (req, lines) in &cold_sweeps {
        check_against_local(req, lines, &mut out);
    }

    // Host noise on a shared machine comes in multi-second phases; the
    // timings are taken from the quietest tenth of the warm and of the
    // cold sweeps (shortest wall time), which estimates the uncontended
    // cost.
    let (warm_s, warm_lat) = quietest(&mut warm_sweeps);
    let (cold_s, cold_lat) = quietest(&mut cold_timed);
    let latency_ms: Vec<f64> = warm_lat.into_iter().chain(cold_lat).collect();
    let (n_warm, n_cold) = (base_lines.len() as f64, SvcPlan::labels(&plan.cold(opts.seed, 0)).len() as f64);
    out.fact("rounds", round.to_string());
    out.fact("latency_samples", latency_ms.len().to_string());
    out.fact("setup_samples_ms", format!("{:.3?}", setup.iter().map(|s| s * 1e3).collect::<Vec<_>>()));
    let cold_instr = n_cold * (plan.warmup + plan.instructions) as f64;
    out.metric("sim_minstr_per_s", cold_instr / cold_s / 1e6, "Minstr/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("specs_per_s", (n_warm + n_cold) / (warm_s + cold_s), "specs/s");
    out.metric("spec_latency_p50_ms", percentile(&latency_ms, 50.0), "ms");
    out.metric("spec_latency_p99_ms", percentile(&latency_ms, 99.0), "ms");
    out.metric("pass_rate", 1.0 - out.fail_rate(), "fraction");
    out.metric("victima_speedup", victima_speedup(&base, &base_lines), "factor");
    out
}

/// The quietest tenth of `sweeps` (shortest wall time): their median wall
/// time and their pooled line latencies.
fn quietest(sweeps: &mut Vec<(f64, Vec<f64>)>) -> (f64, Vec<f64>) {
    sweeps.sort_by(|a, b| a.0.total_cmp(&b.0));
    sweeps.truncate(sweeps.len().div_ceil(QUIET_SHARE));
    let walls: Vec<f64> = sweeps.iter().map(|s| s.0).collect();
    (median(&walls), sweeps.iter().flat_map(|s| s.1.iter().copied()).collect())
}

/// Median per-call time (µs) of `f` over `items`, repeated in passes
/// until at least `min` host time has been spent.
fn per_call_us<T>(items: &[T], min: Duration, mut f: impl FnMut(usize, &T)) -> f64 {
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < 3 || start.elapsed() < min {
        let t = Instant::now();
        for (i, item) in items.iter().enumerate() {
            f(i, item);
        }
        passes.push(t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64);
    }
    median(&passes)
}

/// The `svc` and `report` layer metrics: one cold and one warm sweep of
/// `plan` against a fresh daemon (queue depth polled through the
/// `metrics` op while they run), then timings of the public calls each
/// layer makes per spec, fed with the lines those sweeps produced.
pub fn probe(plan: &SvcPlan, opts: &Options, spans: &mut Spans, out: &mut Outcome) {
    let seed = opts.seed;
    let dir = service_dir("probe");
    let started = spans.span("svc", "start", |_| Daemon::start(&dir, &opts.worker_exe));
    let daemon = match started {
        Ok((d, _)) => d,
        Err(e) => {
            out.check(Some(e));
            return;
        }
    };
    let req = plan.base(seed);
    let labels = SvcPlan::labels(&req);
    let stop = AtomicBool::new(false);
    let (cold, warm, depth_max) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut max = 0u64;
            while !stop.load(Ordering::SeqCst) {
                if let Ok(m) = svc::metrics(&dir) {
                    max = max.max(m.queue_depth);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            max
        });
        let cold = spans.span("svc", "submit_cold", |_| daemon.submit(&req));
        let warm = spans.span("svc", "submit_warm", |_| daemon.submit(&req));
        stop.store(true, Ordering::SeqCst);
        (cold, warm, poller.join().expect("metrics poller panicked"))
    });
    let ((cold, _), (warm, _)) = match (cold, warm) {
        (Ok(c), Ok(w)) => (c, w),
        (Err(e), _) | (_, Err(e)) => {
            out.check(Some(e));
            return;
        }
    };
    for (i, ((_, c), (_, w))) in cold.iter().zip(&warm).enumerate() {
        let label = &labels[i];
        out.check(
            line_error(label, c)
                .or_else(|| (c != w).then(|| format!("{label}: warm line differs from cold"))),
        );
    }
    let metrics = spans.span("svc", "metrics", |_| svc::metrics(&dir));
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    let m = match metrics {
        Ok(m) => m,
        Err(e) => {
            out.check(Some(e));
            return;
        }
    };
    out.metric("svc.first_result_ms", cold.first().map_or(0.0, |(ms, _)| *ms), "ms");

    let lines: Vec<String> = cold.into_iter().map(|(_, l)| l).collect();
    let fingerprints: Vec<String> = lines
        .iter()
        .map(|l| match svc::parse_stream_line(l) {
            Ok(StreamLine::Result { fingerprint, .. }) => fingerprint,
            _ => String::new(),
        })
        .collect();
    let reports: Vec<report::ExperimentReport> = lines
        .iter()
        .filter_map(|l| match svc::parse_stream_line(l) {
            Ok(StreamLine::Result { report, .. }) => Some(*report),
            _ => None,
        })
        .collect();
    let request_lines = vec![req.to_line(), plan.cold(seed, 0).to_line()];
    let budget = Duration::from_millis(150);
    let micro_dir = service_dir("micro");
    let cache = ResultCache::open(micro_dir.join("cache"));
    let journal = Journal::open(micro_dir.join("journal"));
    let (cache, journal) = match (cache, journal) {
        (Ok(c), Ok(j)) => (c, j),
        (Err(e), _) | (_, Err(e)) => {
            out.check(Some(format!("micro-benchmark directories: {e}")));
            return;
        }
    };
    let mut io_errors = 0u64;
    let parse_us = spans.span("svc", "parse_request", |_| {
        per_call_us(&request_lines, budget, |_, l| {
            std::hint::black_box(svc::parse_request(std::hint::black_box(l)).is_ok());
        })
    });
    let store_us = spans.span("svc", "cache_store", |_| {
        per_call_us(&lines, budget, |i, l| io_errors += u64::from(cache.store(&fingerprints[i], l).is_err()))
    });
    let lookup_us = spans.span("svc", "cache_lookup", |_| {
        per_call_us(&fingerprints, budget, |_, fp| {
            io_errors += u64::from(std::hint::black_box(cache.lookup(fp)).is_none());
        })
    });
    let mut job = 0u64;
    let record_us = spans.span("svc", "journal_record", |_| {
        per_call_us(&request_lines, budget, |_, l| {
            job += 1;
            io_errors += u64::from(journal.record(&Journal::job_id(job), l).is_err());
        })
    });
    let parse_json_us = spans.span("report", "parse_json", |_| {
        per_call_us(&lines, budget, |_, l| {
            std::hint::black_box(parse_json(std::hint::black_box(l)).is_ok());
        })
    });
    let to_json_us = spans.span("report", "to_json", |_| {
        per_call_us(&reports, budget, |_, r| {
            std::hint::black_box(to_json(std::hint::black_box(r)));
        })
    });
    let _ = std::fs::remove_dir_all(&micro_dir);
    out.check((io_errors > 0).then(|| format!("{io_errors} cache/journal micro-benchmark calls failed")));
    out.metric("svc.proto.parse_request_us", parse_us, "us");
    out.metric("svc.cache.lookup_us", lookup_us, "us");
    out.metric("svc.cache.store_us", store_us, "us");
    out.metric("svc.journal.record_us", record_us, "us");
    out.metric("svc.cache.hit_frac", m.cache_hit_ratio(), "fraction");
    out.metric("svc.worker.busy_frac", m.worker_utilization(), "fraction");
    out.metric("svc.queue.depth_max", depth_max as f64, "count");
    out.metric("svc.retries", m.retries as f64, "count");
    out.metric("svc.respawns", m.worker_respawns as f64, "count");
    out.metric("report.parse_json_us", parse_json_us, "us");
    out.metric("report.to_json_us", to_json_us, "us");
}
