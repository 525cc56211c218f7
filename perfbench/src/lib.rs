//! The repository benchmark.
//!
//! One command runs a named workload for a fixed host-time budget, checks
//! every output it produced, and prints each end-to-end metric by name
//! with its unit; `--trace 1` runs the same workload traced and prints
//! the per-layer metrics instead (also written to
//! `results/<workload>.layers.json`). The benchmark drives the system
//! only through public entry points — `System::{new, skip, fast_forward,
//! run}`, `svc::{start, submit, metrics, run_local}` and the structure
//! APIs of `mem`, `tlb`, `core`, `pt` and `report` — so anything behind
//! them can change. README.md in this directory records why each
//! workload exists and which end-to-end metric each layer metric moves.

pub mod check;
pub mod layers;
pub mod service;
pub mod simrun;
pub mod util;

use std::time::Duration;

/// The benchmark's default seed: the one the committed expected digests
/// (`expected/`) were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics (untraced runs), with units. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_minstr_per_s", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("specs_per_s", "specs/s"),
    ("spec_latency_p50_ms", "ms"),
    ("spec_latency_p99_ms", "ms"),
    ("pass_rate", "fraction"),
    ("victima_speedup", "factor"),
];

/// Per-layer metrics (traced runs), with units, named
/// `<layer>.<quantity>` after this repository's crates.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.stream_ns_per_instr", "ns/instr"),
    ("workloads.build_ms", "ms"),
    ("sim.functional_ns_per_instr", "ns/instr"),
    ("sim.detailed_ns_per_instr.radix", "ns/instr"),
    ("sim.detailed_ns_per_instr.radix-nopf", "ns/instr"),
    ("sim.detailed_ns_per_instr.victima", "ns/instr"),
    ("sim.detailed_ns_per_instr.np", "ns/instr"),
    ("sim.detailed_ns_per_instr.victima-virt", "ns/instr"),
    ("sim.nested_ns_per_instr", "ns/instr"),
    ("sim.system_new_ms", "ms"),
    ("mem.prefetch_ns_per_instr", "ns/instr"),
    ("mem.hierarchy_access_ns", "ns"),
    ("mem.l2_mpki", "MPKI"),
    ("mem.l3_mpki", "MPKI"),
    ("tlb.l2_probe_ns", "ns"),
    ("tlb.l2_mpki", "MPKI"),
    ("tlb.pwc_hit_frac", "fraction"),
    ("core.victima_ns_per_instr", "ns/instr"),
    ("core.victima_probe_ns", "ns"),
    ("core.victima_hit_frac", "fraction"),
    ("core.bg_walks_pki", "PKI"),
    ("pt.walk_ns", "ns"),
    ("svc.first_result_ms", "ms"),
    ("svc.proto.parse_request_us", "us"),
    ("svc.cache.lookup_us", "us"),
    ("svc.cache.store_us", "us"),
    ("svc.journal.record_us", "us"),
    ("svc.cache.hit_frac", "fraction"),
    ("svc.worker.busy_frac", "fraction"),
    ("svc.queue.depth_max", "count"),
    ("svc.retries", "count"),
    ("svc.respawns", "count"),
    ("report.parse_json_us", "us"),
    ("report.to_json_us", "us"),
    ("obs.tracing_overhead_frac", "fraction"),
];

/// The four benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full detail at Small scale, radix and Victima.
    Native,
    /// Full detail at Small scale, nested paging and Victima-virt.
    Virt,
    /// SMARTS interval sampling at Paper scale, radix and Victima.
    Sampled,
    /// A sweep daemon driven by one closed-loop client.
    Service,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [Workload::Native, Workload::Virt, Workload::Sampled, Workload::Service];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Native => "native",
            Workload::Virt => "virt",
            Workload::Sampled => "sampled",
            Workload::Service => "service",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host time the measured phase lasts.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Minimum-length budgets (self-tests only).
    pub smoke: bool,
    /// The executable the `service` daemon spawns as its workers: the
    /// benchmark binary, which enters `svc::worker_main` when given
    /// `svc::WORKER_ARG`.
    pub worker_exe: std::path::PathBuf,
}

/// What a run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Checked operations (spec executions or result lines).
    pub attempted: u64,
    /// Operations that panicked, returned an error, or mismatched.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra facts recorded with the result (scale, budgets, sample
    /// counts), as `(key, JSON value)`.
    pub provenance: Vec<(String, String)>,
    /// Round-0 result digest per spec label (what `--bless` commits).
    pub digests: Vec<(String, String)>,
}

impl Outcome {
    /// Records one checked operation; `err` is `Some` when it failed.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a provenance fact (`value` is already JSON).
    pub fn fact(&mut self, key: &str, value: String) {
        self.provenance.push((key.to_owned(), value));
    }

    /// Failed share of attempted operations.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The machine-readable result: the benchmark's last stdout line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    util::json_str(n),
                    util::json_num(*v),
                    util::json_str(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance record: host facts plus the run's own facts.
    pub fn provenance_line(&self, opts: &Options) -> String {
        let mut fields = vec![
            ("workload".to_owned(), util::json_str(opts.workload.name())),
            ("seed".to_owned(), opts.seed.to_string()),
            ("seconds".to_owned(), util::json_num(opts.seconds.as_secs_f64())),
            ("trace".to_owned(), opts.trace.to_string()),
        ];
        fields.extend(util::host_facts().into_iter().map(|(k, v)| (k.to_owned(), util::json_str(&v))));
        fields.extend(self.provenance.iter().cloned());
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", util::json_str(k))).collect();
        format!("{{\"provenance\": {{{}}}}}", body.join(", "))
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Outcome {
    let expected = check::Expected::committed(opts.workload);
    let expected = (opts.seed == DEFAULT_SEED).then_some(&expected);
    match (opts.workload, opts.trace) {
        (Workload::Service, false) => service::run(opts, expected),
        (w, false) => simrun::run(&simrun::SimPlan::new(w, opts.smoke), opts, expected),
        (_, true) => layers::run(opts, expected),
    }
}
