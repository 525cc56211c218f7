//! The sweep-service wire protocol: newline-delimited JSON.
//!
//! Every message — request or response — is one compact JSON document on
//! one `\n`-terminated line, built with the `report` crate's hand-rolled
//! writer so the workspace stays dependency-free. A client connects,
//! writes one request line, and reads response lines until the stream
//! ends:
//!
//! ```text
//! request  := submit | status | shutdown
//! submit   := {"op":"submit","configs":[..],"workloads":[..],"scale":S,
//!              "warmup":N,"instructions":N,"seed":"0x..","sampling":"U:D:W"|null}
//! status   := {"op":"status"}
//! shutdown := {"op":"shutdown"}
//! ```
//!
//! A submit elicits `accepted`, then one `result`, `error` or `timeout`
//! line per spec **in sweep order** (configs-major, workloads minor —
//! regardless of which worker finishes first), then `done`:
//!
//! ```text
//! accepted := {"svc":ID,"type":"accepted","job":J,"specs":N}
//! result   := {"svc":ID,"type":"result","fingerprint":F,"report":{..}}
//! error    := {"svc":ID,"type":"error","fingerprint":F,"config":C,
//!              "workload":W,"error":MSG}
//! timeout  := {"svc":ID,"type":"timeout","fingerprint":F,"config":C,
//!              "workload":W,"error":MSG}
//! done     := {"svc":ID,"type":"done","job":J,"results":N,"cached":N,"errors":N}
//! ```
//!
//! `timeout` is an `error` whose cause is a missed per-spec deadline (a
//! *hung*, killed-and-respawned worker, as opposed to a dead one) —
//! typed separately so clients and dashboards can tell overload from
//! breakage. Both count as `errors` in the `done` tally.
//!
//! The `report` member of a `result` line is a complete
//! [`ExperimentReport`] in the `victima-report/1` artifact schema — the
//! same document `experiments --format json` writes, so downstream
//! tooling needs exactly one parser. `result` lines are also the cache
//! payload: the daemon stores them byte-for-byte under the spec
//! fingerprint, which is what makes a warm resubmission byte-identical
//! to the cold run that populated it.

use report::json::{
    obj, parse_json, report_to_value, req, req_str, req_str_arr, req_u64, str_arr, value_to_report,
    write_json_compact, JsonValue,
};
use report::{Column, ExperimentReport, Metric, Provenance, Unit, Value};
use sim::{RunSpec, SamplingConfig, SimStats, SystemConfig, ENGINE_ID};
use workloads::{registry, Scale};

/// Protocol identity stamped on every response line. Bump when the line
/// grammar changes incompatibly.
pub const PROTO_ID: &str = "victima-svc/1";

/// Reads an integer member that newer daemons emit and older ones do not
/// (additive `victima-svc/1` extensions); absent means zero.
fn opt_u64(doc: &JsonValue, key: &str) -> Result<u64, String> {
    match doc.get(key) {
        None => Ok(0),
        Some(v) => v.as_u64().ok_or_else(|| format!("{key:?} must be a non-negative integer")),
    }
}

fn req_u64_arr(doc: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    req(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("{key:?} must be an array"))?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| format!("{key:?} entries must be non-negative integers")))
        .collect()
}

fn u64_arr(items: &[u64]) -> JsonValue {
    JsonValue::Arr(items.iter().map(|&v| JsonValue::Int(v as i64)).collect())
}

fn seed_of(doc: &JsonValue, key: &str) -> Result<u64, String> {
    let s = req_str(doc, key)?;
    let hex = s.strip_prefix("0x").ok_or_else(|| format!("{key:?} must be 0x-hex, got {s:?}"))?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("{key:?}: {e}"))
}

/// The lowercase CLI spelling of a scale ([`Scale::parse`]'s domain).
pub fn scale_key(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
        Scale::Paper => "paper",
    }
}

// ----------------------------------------------------------------- requests

/// A sweep job: the cross product of `configs × workloads`, all at one
/// (scale, budget, seed, sampling) profile. This is the body of a
/// `submit` request and the unit the journal persists.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRequest {
    /// System-config registry keys (`sim::config::CONFIG_KEYS`).
    pub configs: Vec<String>,
    /// Workload abbreviations (`workloads::registry::WORKLOAD_NAMES`).
    pub workloads: Vec<String>,
    /// Footprint scale for every spec.
    pub scale: Scale,
    /// Warm-up instructions per spec.
    pub warmup: u64,
    /// Measured instructions per spec.
    pub instructions: u64,
    /// Base deterministic seed.
    pub seed: u64,
    /// Optional SMARTS interval-sampling schedule.
    pub sampling: Option<SamplingConfig>,
}

impl SweepRequest {
    /// Serialises the request as its one-line wire form.
    pub fn to_line(&self) -> String {
        let sampling = match &self.sampling {
            Some(s) => JsonValue::Str(s.spec()),
            None => JsonValue::Null,
        };
        write_json_compact(&obj(vec![
            ("op", JsonValue::Str("submit".into())),
            ("configs", str_arr(&self.configs)),
            ("workloads", str_arr(&self.workloads)),
            ("scale", JsonValue::Str(scale_key(self.scale).into())),
            ("warmup", JsonValue::Int(self.warmup as i64)),
            ("instructions", JsonValue::Int(self.instructions as i64)),
            ("seed", JsonValue::Str(format!("0x{:x}", self.seed))),
            ("sampling", sampling),
        ]))
    }

    /// Parses the body of a `submit` request.
    pub fn from_value(doc: &JsonValue) -> Result<Self, String> {
        let scale_tag = req_str(doc, "scale")?;
        let scale = Scale::parse(&scale_tag)
            .ok_or_else(|| format!("unknown scale {scale_tag:?} (tiny|small|full|paper)"))?;
        let sampling = match req(doc, "sampling")? {
            JsonValue::Null => None,
            JsonValue::Str(spec) => Some(SamplingConfig::parse(spec)?),
            _ => return Err("\"sampling\" must be a \"U:D:W\" string or null".into()),
        };
        Ok(Self {
            configs: req_str_arr(doc, "configs")?,
            workloads: req_str_arr(doc, "workloads")?,
            scale,
            warmup: req_u64(doc, "warmup")?,
            instructions: req_u64(doc, "instructions")?,
            seed: seed_of(doc, "seed")?,
            sampling,
        })
    }

    /// Parses a full request line (must be a `submit`).
    pub fn from_line(line: &str) -> Result<Self, String> {
        match parse_request(line)? {
            Request::Submit(req) => Ok(req),
            other => Err(format!("expected a submit request, got {other:?}")),
        }
    }

    /// Validates the request and expands it into per-spec descriptors in
    /// sweep order (configs-major, workloads minor — the order response
    /// lines are streamed in).
    pub fn specs(&self) -> Result<Vec<SpecDesc>, String> {
        if self.configs.is_empty() {
            return Err("a sweep needs at least one config".into());
        }
        if self.workloads.is_empty() {
            return Err("a sweep needs at least one workload".into());
        }
        for c in &self.configs {
            if SystemConfig::by_name(c).is_none() {
                return Err(format!("unknown config {c:?} (known: {})", sim::config::CONFIG_KEYS.join(", ")));
            }
        }
        for w in &self.workloads {
            if !registry::WORKLOAD_NAMES.contains(&w.as_str()) {
                return Err(format!(
                    "unknown workload {w:?} (known: {})",
                    registry::WORKLOAD_NAMES.join(", ")
                ));
            }
        }
        if let Some(s) = &self.sampling {
            s.validate()?;
        }
        let mut specs = Vec::with_capacity(self.configs.len() * self.workloads.len());
        for config in &self.configs {
            for workload in &self.workloads {
                specs.push(SpecDesc {
                    config: config.clone(),
                    workload: workload.clone(),
                    scale: self.scale,
                    warmup: self.warmup,
                    instructions: self.instructions,
                    seed: self.seed,
                    sampling: self.sampling,
                });
            }
        }
        Ok(specs)
    }
}

/// One spec of a sweep, in the name-keyed form that crosses the daemon →
/// worker process boundary (a full [`RunSpec`] carries a resolved
/// [`SystemConfig`]; the descriptor re-resolves it from the registry key
/// on the worker, keeping the wire format small and stable).
#[derive(Clone, Debug, PartialEq)]
pub struct SpecDesc {
    /// System-config registry key ("radix", "victima", …).
    pub config: String,
    /// Workload abbreviation.
    pub workload: String,
    /// Footprint scale.
    pub scale: Scale,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Base deterministic seed.
    pub seed: u64,
    /// Optional sampling schedule.
    pub sampling: Option<SamplingConfig>,
}

impl SpecDesc {
    /// A short "config/workload" label for logs and error entries.
    pub fn label(&self) -> String {
        format!("{}/{}", self.config, self.workload)
    }

    /// Resolves the descriptor into a runnable [`RunSpec`].
    pub fn to_run_spec(&self) -> Result<RunSpec, String> {
        let cfg =
            SystemConfig::by_name(&self.config).ok_or_else(|| format!("unknown config {:?}", self.config))?;
        let mut spec = RunSpec::new(self.workload.clone(), cfg, self.scale, self.warmup, self.instructions)
            .with_seed(self.seed);
        if let Some(s) = self.sampling {
            spec = spec.with_sampling(s);
        }
        Ok(spec)
    }

    /// Serialises the descriptor as its one-line wire form (the daemon →
    /// worker stdin protocol).
    pub fn to_line(&self) -> String {
        let sampling = match &self.sampling {
            Some(s) => JsonValue::Str(s.spec()),
            None => JsonValue::Null,
        };
        write_json_compact(&obj(vec![
            ("config", JsonValue::Str(self.config.clone())),
            ("workload", JsonValue::Str(self.workload.clone())),
            ("scale", JsonValue::Str(scale_key(self.scale).into())),
            ("warmup", JsonValue::Int(self.warmup as i64)),
            ("instructions", JsonValue::Int(self.instructions as i64)),
            ("seed", JsonValue::Str(format!("0x{:x}", self.seed))),
            ("sampling", sampling),
        ]))
    }

    /// Parses a descriptor line.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let doc = parse_json(line).map_err(|e| e.to_string())?;
        let scale_tag = req_str(&doc, "scale")?;
        let scale = Scale::parse(&scale_tag).ok_or_else(|| format!("unknown scale {scale_tag:?}"))?;
        let sampling = match req(&doc, "sampling")? {
            JsonValue::Null => None,
            JsonValue::Str(spec) => Some(SamplingConfig::parse(spec)?),
            _ => return Err("\"sampling\" must be a \"U:D:W\" string or null".into()),
        };
        Ok(Self {
            config: req_str(&doc, "config")?,
            workload: req_str(&doc, "workload")?,
            scale,
            warmup: req_u64(&doc, "warmup")?,
            instructions: req_u64(&doc, "instructions")?,
            seed: seed_of(&doc, "seed")?,
            sampling,
        })
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a sweep, streaming results back.
    Submit(SweepRequest),
    /// Report daemon counters.
    Status,
    /// Report the daemon's observability registry: queue depth, spec
    /// latency histogram, per-worker utilization, cache hit ratio.
    Metrics,
    /// Stop accepting work and exit.
    Shutdown,
}

/// Parses one client request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = parse_json(line).map_err(|e| e.to_string())?;
    match req_str(&doc, "op")?.as_str() {
        "submit" => Ok(Request::Submit(SweepRequest::from_value(&doc)?)),
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?} (submit|status|metrics|shutdown)")),
    }
}

// ---------------------------------------------------------------- responses

/// Builds the per-spec result report: one `sweep_result` document in the
/// `victima-report/1` schema, carrying the headline counters as rows and
/// the paper's two summary metrics. Pure function of `(spec, stats)`, so
/// the rendered line is byte-stable — the property the result cache and
/// the warm-resubmit guarantee rest on.
pub fn result_report(desc: &SpecDesc, spec: &RunSpec, stats: &SimStats) -> ExperimentReport {
    let mut r = ExperimentReport::new("sweep_result", format!("Sweep result: {}", spec.label()))
        .with_label_name("stat")
        .with_columns([Column::new("value", Unit::Raw)])
        .with_provenance(Provenance {
            scale: format!("{:?}", desc.scale),
            warmup: desc.warmup,
            instructions: desc.instructions,
            seed: desc.seed,
            engine: ENGINE_ID.to_owned(),
            configs: vec![spec.config.name.clone()],
            workloads: vec![desc.workload.clone()],
        });
    r.push_row("instructions", [Value::from(stats.instructions)]);
    r.push_row("mem_refs", [Value::from(stats.mem_refs)]);
    r.push_row("cycles", [Value::from(stats.cycles())]);
    r.push_row("l1_tlb_misses", [Value::from(stats.l1_tlb_misses)]);
    r.push_row("l2_tlb_misses", [Value::from(stats.l2_tlb_misses)]);
    r.push_row("ptws", [Value::from(stats.ptws)]);
    r.push_metric(Metric::new("ipc", stats.ipc(), Unit::Ipc));
    r.push_metric(Metric::new("l2_tlb_mpki", stats.l2_tlb_mpki(), Unit::Mpki));
    if let Some(s) = &stats.sampling {
        r.push_metric(Metric::new("sampling_periods", s.periods as f64, Unit::Count));
        r.note(format!("sampled estimate: IPC 95% CI ±{:.4} over {} windows", s.ipc_ci95, s.periods));
    }
    r
}

/// Renders a `result` stream line (also the cache payload).
pub fn result_line(fingerprint: &str, report: &ExperimentReport) -> String {
    write_json_compact(&obj(vec![
        ("svc", JsonValue::Str(PROTO_ID.into())),
        ("type", JsonValue::Str("result".into())),
        ("fingerprint", JsonValue::Str(fingerprint.into())),
        ("report", report_to_value(report)),
    ]))
}

/// Renders a typed `error` stream line for a spec that failed.
pub fn error_line(fingerprint: &str, desc: &SpecDesc, error: &str) -> String {
    write_json_compact(&obj(vec![
        ("svc", JsonValue::Str(PROTO_ID.into())),
        ("type", JsonValue::Str("error".into())),
        ("fingerprint", JsonValue::Str(fingerprint.into())),
        ("config", JsonValue::Str(desc.config.clone())),
        ("workload", JsonValue::Str(desc.workload.clone())),
        ("error", JsonValue::Str(error.into())),
    ]))
}

/// Renders a typed `timeout` stream line for a spec whose worker missed
/// the per-spec deadline (killed and respawned; retries exhausted).
pub fn timeout_line(fingerprint: &str, desc: &SpecDesc, error: &str) -> String {
    write_json_compact(&obj(vec![
        ("svc", JsonValue::Str(PROTO_ID.into())),
        ("type", JsonValue::Str("timeout".into())),
        ("fingerprint", JsonValue::Str(fingerprint.into())),
        ("config", JsonValue::Str(desc.config.clone())),
        ("workload", JsonValue::Str(desc.workload.clone())),
        ("error", JsonValue::Str(error.into())),
    ]))
}

/// Renders the `accepted` line that opens a submit response.
pub fn accepted_line(job: &str, specs: u64) -> String {
    write_json_compact(&obj(vec![
        ("svc", JsonValue::Str(PROTO_ID.into())),
        ("type", JsonValue::Str("accepted".into())),
        ("job", JsonValue::Str(job.into())),
        ("specs", JsonValue::Int(specs as i64)),
    ]))
}

/// Renders the `done` line that closes a submit response.
pub fn done_line(job: &str, results: u64, cached: u64, errors: u64) -> String {
    write_json_compact(&obj(vec![
        ("svc", JsonValue::Str(PROTO_ID.into())),
        ("type", JsonValue::Str("done".into())),
        ("job", JsonValue::Str(job.into())),
        ("results", JsonValue::Int(results as i64)),
        ("cached", JsonValue::Int(cached as i64)),
        ("errors", JsonValue::Int(errors as i64)),
    ]))
}

/// Renders a request-level `fault` line (malformed request, unknown
/// config — nothing was accepted).
pub fn fault_line(error: &str) -> String {
    write_json_compact(&obj(vec![
        ("svc", JsonValue::Str(PROTO_ID.into())),
        ("type", JsonValue::Str("fault".into())),
        ("error", JsonValue::Str(error.into())),
    ]))
}

/// Renders the bare acknowledgement line (`shutdown` response).
pub fn ok_line() -> String {
    write_json_compact(&obj(vec![
        ("svc", JsonValue::Str(PROTO_ID.into())),
        ("type", JsonValue::Str("ok".into())),
    ]))
}

/// Daemon counters reported by the `status` op.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusInfo {
    /// Engine identity (`sim::ENGINE_ID`) — cache keys embed it.
    pub engine: String,
    /// Worker slots serving the queue.
    pub workers: u64,
    /// Jobs accepted since start (resumed journal jobs included).
    pub jobs_accepted: u64,
    /// Jobs run to completion.
    pub jobs_completed: u64,
    /// Spec entries streamed (results and errors).
    pub specs_completed: u64,
    /// Specs actually simulated by a worker.
    pub specs_simulated: u64,
    /// Specs answered straight from the cache.
    pub specs_cached: u64,
    /// Specs that failed (worker death, panic) after exhausting retries.
    pub specs_failed: u64,
    /// Specs that missed their deadline after exhausting retries.
    pub specs_timed_out: u64,
    /// Spec attempts re-dispatched after a failure or timeout.
    pub specs_retried: u64,
    /// Result lines currently in the on-disk cache.
    pub cache_entries: u64,
    /// Total bytes of live cache entries.
    pub cache_bytes: u64,
    /// Invalid cache entries quarantined since daemon start.
    pub cache_quarantined: u64,
    /// Cache entries evicted by the size bound since daemon start.
    pub cache_evicted: u64,
    /// Journal records skipped as unreadable/unparseable on restart.
    pub journal_skipped: u64,
    /// Milliseconds since the daemon started (additive `victima-svc/1`
    /// extension; absent from pre-extension daemons parses as 0).
    pub uptime_ms: u64,
    /// Jobs accepted but not yet completed (queue + in flight; additive
    /// extension, same compatibility rule).
    pub jobs_pending: u64,
}

impl StatusInfo {
    /// Renders the `status` response line.
    pub fn to_line(&self) -> String {
        write_json_compact(&obj(vec![
            ("svc", JsonValue::Str(PROTO_ID.into())),
            ("type", JsonValue::Str("status".into())),
            ("engine", JsonValue::Str(self.engine.clone())),
            ("workers", JsonValue::Int(self.workers as i64)),
            ("jobs_accepted", JsonValue::Int(self.jobs_accepted as i64)),
            ("jobs_completed", JsonValue::Int(self.jobs_completed as i64)),
            ("specs_completed", JsonValue::Int(self.specs_completed as i64)),
            ("specs_simulated", JsonValue::Int(self.specs_simulated as i64)),
            ("specs_cached", JsonValue::Int(self.specs_cached as i64)),
            ("specs_failed", JsonValue::Int(self.specs_failed as i64)),
            ("specs_timed_out", JsonValue::Int(self.specs_timed_out as i64)),
            ("specs_retried", JsonValue::Int(self.specs_retried as i64)),
            ("cache_entries", JsonValue::Int(self.cache_entries as i64)),
            ("cache_bytes", JsonValue::Int(self.cache_bytes as i64)),
            ("cache_quarantined", JsonValue::Int(self.cache_quarantined as i64)),
            ("cache_evicted", JsonValue::Int(self.cache_evicted as i64)),
            ("journal_skipped", JsonValue::Int(self.journal_skipped as i64)),
            ("uptime_ms", JsonValue::Int(self.uptime_ms as i64)),
            ("jobs_pending", JsonValue::Int(self.jobs_pending as i64)),
        ]))
    }

    fn from_value(doc: &JsonValue) -> Result<Self, String> {
        Ok(Self {
            engine: req_str(doc, "engine")?,
            workers: req_u64(doc, "workers")?,
            jobs_accepted: req_u64(doc, "jobs_accepted")?,
            jobs_completed: req_u64(doc, "jobs_completed")?,
            specs_completed: req_u64(doc, "specs_completed")?,
            specs_simulated: req_u64(doc, "specs_simulated")?,
            specs_cached: req_u64(doc, "specs_cached")?,
            specs_failed: req_u64(doc, "specs_failed")?,
            specs_timed_out: req_u64(doc, "specs_timed_out")?,
            specs_retried: req_u64(doc, "specs_retried")?,
            cache_entries: req_u64(doc, "cache_entries")?,
            cache_bytes: req_u64(doc, "cache_bytes")?,
            cache_quarantined: req_u64(doc, "cache_quarantined")?,
            cache_evicted: req_u64(doc, "cache_evicted")?,
            journal_skipped: req_u64(doc, "journal_skipped")?,
            uptime_ms: opt_u64(doc, "uptime_ms")?,
            jobs_pending: opt_u64(doc, "jobs_pending")?,
        })
    }
}

/// The daemon's observability registry, reported by the `metrics` op:
/// everything `status` cannot answer — live queue depth, the spec
/// latency distribution, per-worker utilization, and cache
/// effectiveness. All values are diagnostics over the daemon's own
/// monotonic clock; nothing here touches result bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsInfo {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Specs sitting in the dispatch queue right now.
    pub queue_depth: u64,
    /// Worker slots (= lengths of the per-worker vectors).
    pub workers: u64,
    /// Per-worker milliseconds spent executing specs.
    pub worker_busy_ms: Vec<u64>,
    /// Per-worker specs run to a final outcome.
    pub worker_specs: Vec<u64>,
    /// Successful spec executions observed by the latency histogram.
    pub latency_count: u64,
    /// Sum of observed spec latencies, in milliseconds.
    pub latency_sum_ms: u64,
    /// Power-of-two latency buckets (ms): bucket `i` counts latencies
    /// whose floor is `2^(i-1)` ms (bucket 0 is `< 1 ms`, the last
    /// bucket is open-ended). Same geometry as `obs::HistSnapshot`.
    pub latency_buckets: Vec<u64>,
    /// Specs answered straight from the result cache.
    pub cache_hits: u64,
    /// Specs that missed the cache and were dispatched to a worker.
    pub cache_misses: u64,
    /// Spec attempts re-dispatched after a failure or timeout.
    pub retries: u64,
    /// Specs that exhausted retries on the deadline path.
    pub timeouts: u64,
    /// Specs that exhausted retries on the worker-death path.
    pub failures: u64,
    /// Cache entries quarantined as corrupt since start.
    pub quarantined: u64,
    /// Worker processes discarded and respawned (death or deadline).
    pub worker_respawns: u64,
}

impl MetricsInfo {
    /// Cache hit ratio in `[0, 1]` (0 when nothing was looked up).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean spec latency in milliseconds (0 with no observations).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum_ms as f64 / self.latency_count as f64
        }
    }

    /// Mean worker utilization in `[0, 1]`: busy time over wall time,
    /// averaged across the pool (0 before the clock has ticked).
    pub fn worker_utilization(&self) -> f64 {
        if self.uptime_ms == 0 || self.worker_busy_ms.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.worker_busy_ms.iter().sum();
        busy as f64 / (self.uptime_ms as f64 * self.worker_busy_ms.len() as f64)
    }

    /// Renders the `metrics` response line.
    pub fn to_line(&self) -> String {
        write_json_compact(&obj(vec![
            ("svc", JsonValue::Str(PROTO_ID.into())),
            ("type", JsonValue::Str("metrics".into())),
            ("uptime_ms", JsonValue::Int(self.uptime_ms as i64)),
            ("queue_depth", JsonValue::Int(self.queue_depth as i64)),
            ("workers", JsonValue::Int(self.workers as i64)),
            ("worker_busy_ms", u64_arr(&self.worker_busy_ms)),
            ("worker_specs", u64_arr(&self.worker_specs)),
            ("latency_count", JsonValue::Int(self.latency_count as i64)),
            ("latency_sum_ms", JsonValue::Int(self.latency_sum_ms as i64)),
            ("latency_buckets", u64_arr(&self.latency_buckets)),
            ("cache_hits", JsonValue::Int(self.cache_hits as i64)),
            ("cache_misses", JsonValue::Int(self.cache_misses as i64)),
            ("cache_hit_ratio", JsonValue::Num(self.cache_hit_ratio())),
            ("retries", JsonValue::Int(self.retries as i64)),
            ("timeouts", JsonValue::Int(self.timeouts as i64)),
            ("failures", JsonValue::Int(self.failures as i64)),
            ("quarantined", JsonValue::Int(self.quarantined as i64)),
            ("worker_respawns", JsonValue::Int(self.worker_respawns as i64)),
        ]))
    }

    fn from_value(doc: &JsonValue) -> Result<Self, String> {
        // `cache_hit_ratio` is derived on render and recomputed on read.
        Ok(Self {
            uptime_ms: req_u64(doc, "uptime_ms")?,
            queue_depth: req_u64(doc, "queue_depth")?,
            workers: req_u64(doc, "workers")?,
            worker_busy_ms: req_u64_arr(doc, "worker_busy_ms")?,
            worker_specs: req_u64_arr(doc, "worker_specs")?,
            latency_count: req_u64(doc, "latency_count")?,
            latency_sum_ms: req_u64(doc, "latency_sum_ms")?,
            latency_buckets: req_u64_arr(doc, "latency_buckets")?,
            cache_hits: req_u64(doc, "cache_hits")?,
            cache_misses: req_u64(doc, "cache_misses")?,
            retries: req_u64(doc, "retries")?,
            timeouts: req_u64(doc, "timeouts")?,
            failures: req_u64(doc, "failures")?,
            quarantined: req_u64(doc, "quarantined")?,
            worker_respawns: req_u64(doc, "worker_respawns")?,
        })
    }
}

/// A parsed response stream line.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamLine {
    /// The sweep was accepted; `specs` entries will follow.
    Accepted {
        /// Journal job id.
        job: String,
        /// Number of spec entries the stream will carry.
        specs: u64,
    },
    /// One spec's result report.
    Result {
        /// Content address of the spec (cache key).
        fingerprint: String,
        /// The full per-spec report document (boxed: a report dwarfs
        /// every other variant).
        report: Box<ExperimentReport>,
    },
    /// One spec failed; the rest of the sweep is unaffected.
    Error {
        /// Content address of the spec.
        fingerprint: String,
        /// Config registry key.
        config: String,
        /// Workload abbreviation.
        workload: String,
        /// What went wrong.
        error: String,
    },
    /// One spec's worker missed the per-spec deadline (killed and
    /// respawned); the rest of the sweep is unaffected.
    Timeout {
        /// Content address of the spec.
        fingerprint: String,
        /// Config registry key.
        config: String,
        /// Workload abbreviation.
        workload: String,
        /// Deadline details (budget, attempts).
        error: String,
    },
    /// The sweep finished.
    Done {
        /// Journal job id.
        job: String,
        /// Result entries streamed (cached + simulated).
        results: u64,
        /// How many of those came from the cache.
        cached: u64,
        /// Error entries streamed.
        errors: u64,
    },
    /// Status counters.
    Status(StatusInfo),
    /// Observability registry dump.
    Metrics(MetricsInfo),
    /// The request itself was rejected.
    Fault {
        /// Why the request was rejected.
        error: String,
    },
    /// Bare acknowledgement.
    Ok,
}

/// Parses one response stream line.
pub fn parse_stream_line(line: &str) -> Result<StreamLine, String> {
    let doc = parse_json(line).map_err(|e| e.to_string())?;
    let proto = req_str(&doc, "svc")?;
    if proto != PROTO_ID {
        return Err(format!("unsupported protocol {proto:?} (this client speaks {PROTO_ID:?})"));
    }
    match req_str(&doc, "type")?.as_str() {
        "accepted" => Ok(StreamLine::Accepted { job: req_str(&doc, "job")?, specs: req_u64(&doc, "specs")? }),
        "result" => Ok(StreamLine::Result {
            fingerprint: req_str(&doc, "fingerprint")?,
            report: Box::new(value_to_report(req(&doc, "report")?)?),
        }),
        "error" => Ok(StreamLine::Error {
            fingerprint: req_str(&doc, "fingerprint")?,
            config: req_str(&doc, "config")?,
            workload: req_str(&doc, "workload")?,
            error: req_str(&doc, "error")?,
        }),
        "timeout" => Ok(StreamLine::Timeout {
            fingerprint: req_str(&doc, "fingerprint")?,
            config: req_str(&doc, "config")?,
            workload: req_str(&doc, "workload")?,
            error: req_str(&doc, "error")?,
        }),
        "done" => Ok(StreamLine::Done {
            job: req_str(&doc, "job")?,
            results: req_u64(&doc, "results")?,
            cached: req_u64(&doc, "cached")?,
            errors: req_u64(&doc, "errors")?,
        }),
        "status" => Ok(StreamLine::Status(StatusInfo::from_value(&doc)?)),
        "metrics" => Ok(StreamLine::Metrics(MetricsInfo::from_value(&doc)?)),
        "fault" => Ok(StreamLine::Fault { error: req_str(&doc, "error")? }),
        "ok" => Ok(StreamLine::Ok),
        other => Err(format!("unknown stream line type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> SweepRequest {
        SweepRequest {
            configs: vec!["radix".into(), "victima".into()],
            workloads: vec!["RND".into(), "XS".into()],
            scale: Scale::Tiny,
            warmup: 1_000,
            instructions: 10_000,
            seed: 0xfeed_beef,
            sampling: None,
        }
    }

    #[test]
    fn request_round_trips_through_its_line_form() {
        let req = sample_request();
        assert_eq!(SweepRequest::from_line(&req.to_line()).unwrap(), req);
        let sampled = SweepRequest {
            sampling: Some(SamplingConfig { fast: 20_000, detailed: 2_000, warm: 1_000 }),
            ..sample_request()
        };
        assert_eq!(SweepRequest::from_line(&sampled.to_line()).unwrap(), sampled);
    }

    #[test]
    fn specs_expand_in_sweep_order() {
        let specs = sample_request().specs().unwrap();
        let labels: Vec<String> = specs.iter().map(SpecDesc::label).collect();
        assert_eq!(labels, ["radix/RND", "radix/XS", "victima/RND", "victima/XS"]);
    }

    #[test]
    fn specs_reject_unknown_names_up_front() {
        let mut req = sample_request();
        req.configs = vec!["warp-drive".into()];
        assert!(req.specs().unwrap_err().contains("unknown config"));
        let mut req = sample_request();
        req.workloads = vec!["NOPE".into()];
        assert!(req.specs().unwrap_err().contains("unknown workload"));
        let mut req = sample_request();
        req.workloads.clear();
        assert!(req.specs().unwrap_err().contains("at least one workload"));
    }

    #[test]
    fn spec_desc_round_trips_and_resolves() {
        let desc = sample_request().specs().unwrap().remove(2);
        assert_eq!(SpecDesc::from_line(&desc.to_line()).unwrap(), desc);
        let spec = desc.to_run_spec().unwrap();
        assert_eq!(spec.config.name, "Victima");
        assert_eq!(spec.seed, 0xfeed_beef);
    }

    #[test]
    fn result_line_carries_a_full_report_document() {
        let desc = sample_request().specs().unwrap().remove(0);
        let spec = desc.to_run_spec().unwrap();
        let stats = SimStats::default();
        let line = result_line(&spec.fingerprint(), &result_report(&desc, &spec, &stats));
        assert!(!line.contains('\n'));
        match parse_stream_line(&line).unwrap() {
            StreamLine::Result { fingerprint, report } => {
                assert_eq!(fingerprint, spec.fingerprint());
                assert_eq!(report.id, "sweep_result");
                assert_eq!(report.provenance.engine, ENGINE_ID);
                assert_eq!(report.provenance.workloads, ["RND"]);
                assert!(report.metric("ipc").is_some());
            }
            other => panic!("expected a result line, got {other:?}"),
        }
    }

    #[test]
    fn control_lines_round_trip() {
        let desc = sample_request().specs().unwrap().remove(0);
        let status =
            StatusInfo { engine: ENGINE_ID.into(), workers: 2, specs_cached: 7, ..Default::default() };
        let cases = [
            (accepted_line("job-000001", 4), StreamLine::Accepted { job: "job-000001".into(), specs: 4 }),
            (
                done_line("job-000001", 3, 2, 1),
                StreamLine::Done { job: "job-000001".into(), results: 3, cached: 2, errors: 1 },
            ),
            (
                error_line("ab", &desc, "worker died"),
                StreamLine::Error {
                    fingerprint: "ab".into(),
                    config: "radix".into(),
                    workload: "RND".into(),
                    error: "worker died".into(),
                },
            ),
            (
                timeout_line("ab", &desc, "missed the 500ms deadline"),
                StreamLine::Timeout {
                    fingerprint: "ab".into(),
                    config: "radix".into(),
                    workload: "RND".into(),
                    error: "missed the 500ms deadline".into(),
                },
            ),
            (fault_line("bad request"), StreamLine::Fault { error: "bad request".into() }),
            (status.to_line(), StreamLine::Status(status)),
            (ok_line(), StreamLine::Ok),
        ];
        for (line, want) in cases {
            assert_eq!(parse_stream_line(&line).unwrap(), want, "{line}");
        }
    }

    #[test]
    fn metrics_line_round_trips_and_derives_ratios() {
        let info = MetricsInfo {
            uptime_ms: 10_000,
            queue_depth: 3,
            workers: 2,
            worker_busy_ms: vec![4_000, 6_000],
            worker_specs: vec![7, 9],
            latency_count: 16,
            latency_sum_ms: 800,
            latency_buckets: vec![0; 16],
            cache_hits: 30,
            cache_misses: 10,
            retries: 2,
            timeouts: 1,
            failures: 1,
            quarantined: 0,
            worker_respawns: 2,
        };
        assert_eq!(info.cache_hit_ratio(), 0.75);
        assert_eq!(info.mean_latency_ms(), 50.0);
        assert_eq!(info.worker_utilization(), 0.5);
        let line = info.to_line();
        assert!(!line.contains('\n'));
        match parse_stream_line(&line).unwrap() {
            StreamLine::Metrics(parsed) => assert_eq!(parsed, info),
            other => panic!("expected a metrics line, got {other:?}"),
        }
        // Zero denominators never divide.
        let empty = MetricsInfo::default();
        assert_eq!(empty.cache_hit_ratio(), 0.0);
        assert_eq!(empty.mean_latency_ms(), 0.0);
        assert_eq!(empty.worker_utilization(), 0.0);
    }

    #[test]
    fn status_line_tolerates_missing_additive_fields() {
        // A pre-extension daemon's status line (no uptime_ms /
        // jobs_pending) must still parse — the proto id did not bump.
        let status =
            StatusInfo { engine: ENGINE_ID.into(), uptime_ms: 123, jobs_pending: 1, ..Default::default() };
        let line = status.to_line();
        let stripped = line.replace(",\"uptime_ms\":123", "").replace(",\"jobs_pending\":1", "");
        match parse_stream_line(&stripped).unwrap() {
            StreamLine::Status(parsed) => {
                assert_eq!(parsed.uptime_ms, 0);
                assert_eq!(parsed.jobs_pending, 0);
                assert_eq!(parsed.engine, ENGINE_ID);
            }
            other => panic!("expected a status line, got {other:?}"),
        }
    }

    #[test]
    fn foreign_protocol_ids_are_rejected() {
        let line = ok_line().replace(PROTO_ID, "victima-svc/999");
        assert!(parse_stream_line(&line).unwrap_err().contains("unsupported protocol"));
        assert!(parse_request("{\"op\":\"fly\"}").unwrap_err().contains("unknown op"));
    }
}
