//! The simulation workloads (`native`, `virt`, `sampled`): batch work on
//! one thread, driven through `System::{new, run, skip, fast_forward}`.
//!
//! A run repeats *rounds*; a round builds and runs every spec of the
//! workload once (six simulator workloads × two configs). Round 0 warms
//! the host (page cache, allocator, frequency) and is checked but not
//! timed; the measured rounds then repeat until the time budget is
//! spent. Every round must reproduce round 0's result digests exactly,
//! and at the default seed round 0 must match the committed digests.

use crate::check::Expected;
use crate::util::{digest, peak_rss_mb, percentile};
use crate::{Options, Outcome, Workload};
use sim::sampling::run_sampled;
use sim::{SamplingConfig, SimStats, System, SystemConfig};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;
use vm_types::MemRef;
use workloads::{registry, Scale};

/// The simulator workloads every benchmark workload draws from: the two
/// heaviest-translating of each family (GUPS/genomics, DLRM/XSBench,
/// BFS/TC).
pub const SIM_WORKLOADS: [&str; 6] = ["RND", "GEN", "DLRM", "XS", "BFS", "TC"];

/// Instructions whose references are spot-checked against page-table
/// ground truth after each spec's timed run.
const CHECK_INSTR: u64 = 4_000;

/// Scale, budgets and configs of one simulation workload.
#[derive(Clone, Debug, PartialEq)]
pub struct SimPlan {
    /// Footprint scale.
    pub scale: Scale,
    /// Warm-up instructions per spec (timed: it is simulated work).
    pub warmup: u64,
    /// Measured instructions per spec (detailed instructions when
    /// sampled).
    pub instructions: u64,
    /// Interval-sampling schedule, if any.
    pub sampling: Option<SamplingConfig>,
    /// Config keys: `[baseline, victima]`.
    pub configs: [&'static str; 2],
}

impl SimPlan {
    /// The plan of a simulation workload; `smoke` shrinks it to the
    /// minimum (Tiny scale, a few thousand instructions).
    ///
    /// # Panics
    ///
    /// Panics for [`Workload::Service`], which is not a simulation plan.
    pub fn new(w: Workload, smoke: bool) -> Self {
        let (scale, warmup, instructions) = if smoke {
            (Scale::Tiny, 1_000, 4_000)
        } else if w == Workload::Sampled {
            (Scale::Paper, 50_000, 150_000)
        } else {
            (Scale::Small, 100_000, 800_000)
        };
        let sampling = (w == Workload::Sampled).then_some(if smoke {
            SamplingConfig { fast: 20_000, detailed: 2_000, warm: 1_000 }
        } else {
            SamplingConfig { fast: 12_000_000, detailed: 50_000, warm: 25_000 }
        });
        let configs = match w {
            Workload::Native | Workload::Sampled => ["radix", "victima"],
            Workload::Virt => ["np", "victima-virt"],
            Workload::Service => panic!("the service workload has no simulation plan"),
        };
        Self { scale, warmup, instructions, sampling, configs }
    }

    /// Specs in run order: `(config key, simulator workload)`.
    pub fn specs(&self) -> Vec<(&'static str, &'static str)> {
        self.configs.iter().flat_map(|&c| SIM_WORKLOADS.iter().map(move |&w| (c, w))).collect()
    }

    /// Provenance facts: scale and budgets.
    pub fn facts(&self, out: &mut Outcome) {
        out.fact("scale", format!("\"{:?}\"", self.scale));
        out.fact("warmup", self.warmup.to_string());
        out.fact("instructions", self.instructions.to_string());
        let sampling = self.sampling.map_or("null".to_owned(), |s| format!("\"{}\"", s.spec()));
        out.fact("sampling", sampling);
        out.fact("configs", format!("[\"{}\", \"{}\"]", self.configs[0], self.configs[1]));
        out.fact("sim_workloads", format!("{:?}", SIM_WORKLOADS));
    }
}

/// Resolves a benchmark config key, including the two ladder-only ones
/// (`radix-nopf`: radix with the prefetchers off).
///
/// # Panics
///
/// Panics on an unknown key (a bug in this benchmark).
pub fn config(key: &str) -> SystemConfig {
    match key {
        "radix-nopf" => {
            let mut c = SystemConfig::radix();
            c.hierarchy.prefetchers = false;
            c
        }
        "np" => SystemConfig::nested_paging(),
        "victima-virt" => SystemConfig::victima_virt(),
        k => SystemConfig::by_name(k).unwrap_or_else(|| panic!("unknown benchmark config {k}")),
    }
}

/// Host-time split of building one system.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Workload construction (`registry::by_name_seeded`), seconds.
    pub build_s: f64,
    /// `System::new`, seconds.
    pub new_s: f64,
}

/// Builds the system for `(config key, simulator workload)` at `seed`.
pub fn build(config_key: &str, workload: &str, scale: Scale, seed: u64) -> (System, Setup) {
    let mut cfg = config(config_key);
    cfg.seed = seed;
    let t = Instant::now();
    let wl = registry::by_name_seeded(workload, scale, seed).expect("benchmark workloads are registered");
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sys = System::new(cfg, wl);
    (sys, Setup { build_s, new_s: t.elapsed().as_secs_f64() })
}

/// Runs the plan's warm-up and measured phases; returns the simulated
/// instructions covered (for a sampled run: the whole span, skipped and
/// fast-forwarded instructions included).
pub fn drive(sys: &mut System, plan: &SimPlan) -> u64 {
    match &plan.sampling {
        Some(s) => {
            run_sampled(sys, plan.warmup, plan.instructions, s);
            let m = sys.stats.sampling.as_ref().expect("sampled runs stamp their metadata");
            plan.warmup + m.measured_instructions + m.skipped_instructions + m.warm_instructions
        }
        None => {
            sys.run_with_warmup(plan.warmup, plan.instructions);
            sys.finalize_stats();
            plan.warmup + plan.instructions
        }
    }
}

/// The result digest of a simulation spec: FNV-1a over the counters
/// that define its behaviour.
pub fn stats_digest(s: &SimStats) -> String {
    digest(&format!(
        "instr={} refs={} cycles={} l1h={} l1m={} l2h={} l2m={} ptw={} hptw={} vh={} vbg={} tc={} dc={}",
        s.instructions,
        s.mem_refs,
        s.cycles(),
        s.l1_tlb_hits,
        s.l1_tlb_misses,
        s.l2_tlb_hits,
        s.l2_tlb_misses,
        s.ptws,
        s.host_ptws,
        s.victima_hits,
        s.victima_background_walks,
        s.translation_cycles,
        s.data_cycles
    ))
}

/// Captures the references of the next `instructions` instructions by
/// running the system with a record hook.
pub fn capture(sys: &mut System, instructions: u64, cap: usize) -> Vec<MemRef> {
    let buf = Rc::new(RefCell::new(Vec::with_capacity(cap)));
    let sink = Rc::clone(&buf);
    sys.set_record_hook(Box::new(move |r| {
        let mut b = sink.borrow_mut();
        if b.len() < cap {
            b.push(r);
        }
    }));
    sys.run(instructions);
    drop(sys.take_record_hook());
    Rc::try_unwrap(buf).map(RefCell::into_inner).unwrap_or_default()
}

/// Spot-checks the simulated translation of freshly captured references
/// against page-table ground truth. Returns a failure reason, if any.
pub fn spot_check(sys: &mut System) -> Option<String> {
    let refs = capture(sys, CHECK_INSTR, 256);
    if refs.is_empty() {
        return Some("spot check captured no references".to_owned());
    }
    for r in refs.iter().step_by(4) {
        let truth = sys.ground_truth(r.vaddr);
        let got = sys.translate_once(r.vaddr);
        if truth != Some(got) {
            return Some(format!("translation of {} gave {got}, ground truth {truth:?}", r.vaddr));
        }
    }
    None
}

/// One spec execution.
#[derive(Clone, Debug)]
pub struct SpecRun {
    /// Set-up host time.
    pub setup: Setup,
    /// Warm-up + measured host time, seconds.
    pub run_s: f64,
    /// Simulated instructions covered.
    pub covered: u64,
    /// End-of-run statistics.
    pub stats: SimStats,
    /// [`stats_digest`] of `stats`.
    pub digest: String,
    /// Ground-truth spot-check failure, if any.
    pub check: Option<String>,
}

/// Builds and runs one spec, catching panics as failures.
pub fn run_spec(plan: &SimPlan, config_key: &str, workload: &str, seed: u64) -> Result<SpecRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let (mut sys, setup) = build(config_key, workload, plan.scale, seed);
        let t = Instant::now();
        let covered = drive(&mut sys, plan);
        let run_s = t.elapsed().as_secs_f64();
        let stats = sys.stats.clone();
        let check = spot_check(&mut sys);
        SpecRun { setup, run_s, covered, digest: stats_digest(&stats), stats, check }
    }))
    .map_err(|e| {
        let msg =
            e.downcast_ref::<String>().cloned().or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()));
        format!("{config_key}/{workload}: panicked: {}", msg.unwrap_or_default())
    })
}

/// One round: every spec once, in order.
pub fn run_round(plan: &SimPlan, seed: u64) -> Vec<Result<SpecRun, String>> {
    plan.specs().iter().map(|(c, w)| run_spec(plan, c, w, seed)).collect()
}

/// Geometric mean over simulator workloads of Victima IPC ÷ baseline
/// IPC, from one round's results (simulated time; deterministic).
pub fn victima_speedup(plan: &SimPlan, runs: &[Result<SpecRun, String>]) -> f64 {
    let specs = plan.specs();
    let ipc = |config: &str, w: &str| {
        specs
            .iter()
            .position(|s| *s == (config, w))
            .and_then(|i| runs[i].as_ref().ok())
            .map(|r| r.stats.ipc())
    };
    let ratios: Vec<f64> = SIM_WORKLOADS
        .iter()
        .filter_map(|w| Some(ipc(plan.configs[1], w)? / ipc(plan.configs[0], w)?))
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    vm_types::geomean(&ratios)
}

/// Checks one round against the reference digests: round 0 against the
/// committed ones (when given), later rounds against round 0.
fn check_round(
    plan: &SimPlan,
    runs: &[Result<SpecRun, String>],
    reference: &[String],
    expected: Option<&Expected>,
    out: &mut Outcome,
) {
    for (i, (c, w)) in plan.specs().iter().enumerate() {
        let label = format!("{c}/{w}");
        let err = match &runs[i] {
            Err(e) => Some(e.clone()),
            Ok(r) => r.check.clone().map(|e| format!("{label}: {e}")).or_else(|| match expected {
                Some(exp) => exp.verify(&label, &r.digest),
                None if r.digest != reference[i] => {
                    Some(format!("{label}: digest {} differs from round 0 ({})", r.digest, reference[i]))
                }
                None => None,
            }),
        };
        out.check(err);
    }
}

/// The untraced run of a simulation workload.
pub fn run(plan: &SimPlan, opts: &Options, expected: Option<&Expected>) -> Outcome {
    let mut out = Outcome::default();
    plan.facts(&mut out);
    let first = run_round(plan, opts.seed);
    let reference: Vec<String> =
        first.iter().map(|r| r.as_ref().map_or_else(|_| String::new(), |r| r.digest.clone())).collect();
    check_round(plan, &first, &reference, expected, &mut out);
    out.digests =
        plan.specs().iter().zip(&reference).map(|((c, w), d)| (format!("{c}/{w}"), d.clone())).collect();

    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 2 || start.elapsed() < opts.seconds {
        let runs = run_round(plan, opts.seed);
        check_round(plan, &runs, &reference, None, &mut out);
        rounds.push(runs);
    }

    // Host noise on a shared machine comes in multi-second phases, so
    // each spec's set-up and run times are its best over the measured
    // rounds: the uncontended cost.
    let n = plan.specs().len();
    let (mut best_setup, mut best_run) = (vec![f64::INFINITY; n], vec![f64::INFINITY; n]);
    let mut covered = vec![0u64; n];
    let mut round_minstr = Vec::new();
    for runs in &rounds {
        let (mut instr, mut secs) = (0u64, 0f64);
        for (i, r) in runs.iter().enumerate() {
            let Ok(r) = r else { continue };
            best_setup[i] = best_setup[i].min(r.setup.build_s + r.setup.new_s);
            best_run[i] = best_run[i].min(r.run_s);
            covered[i] = r.covered;
            instr += r.covered;
            secs += r.run_s;
        }
        round_minstr.push(instr as f64 / secs.max(1e-9) / 1e6);
    }
    let ok: Vec<usize> = (0..n).filter(|&i| best_run[i].is_finite()).collect();
    let latency_ms: Vec<f64> = ok.iter().map(|&i| (best_setup[i] + best_run[i]) * 1e3).collect();
    let setup_s: f64 = ok.iter().map(|&i| best_setup[i]).sum();
    let run_s: f64 = ok.iter().map(|&i| best_run[i]).sum();
    let instr: u64 = ok.iter().map(|&i| covered[i]).sum();
    out.fact("rounds", rounds.len().to_string());
    out.fact("round_minstr_per_s", format!("{round_minstr:.3?}"));
    out.fact("latency_samples", latency_ms.len().to_string());
    out.metric("sim_minstr_per_s", instr as f64 / run_s.max(1e-9) / 1e6, "Minstr/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric("specs_per_s", ok.len() as f64 / (setup_s + run_s).max(1e-9), "specs/s");
    out.metric("spec_latency_p50_ms", percentile(&latency_ms, 50.0), "ms");
    out.metric("spec_latency_p99_ms", percentile(&latency_ms, 99.0), "ms");
    out.metric("pass_rate", 1.0 - out.fail_rate(), "fraction");
    out.metric("victima_speedup", victima_speedup(plan, &first), "factor");
    out
}
