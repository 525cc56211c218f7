//! Parallel batch execution engine.
//!
//! Every result in the paper is a matrix of (workload × config × mode)
//! simulations. [`SimEngine`] takes that matrix as a flat `Vec` of
//! [`RunSpec`]s, fans the runs out across a scoped worker pool, and
//! returns [`RunResult`]s in submission order. Each run is a pure
//! function of its spec — workloads are constructed *on the worker* from
//! the registry's `Send` builders and seeded per spec — so the returned
//! statistics are byte-identical regardless of worker count or schedule.
//!
//! The worker count comes from the `VICTIMA_JOBS` environment variable,
//! defaulting to the machine's available parallelism (see DESIGN.md,
//! "Scale knobs").
//!
//! # Examples
//!
//! ```
//! use sim::{RunSpec, SimEngine, SystemConfig};
//! use workloads::Scale;
//!
//! let engine = SimEngine::with_jobs(2);
//! let specs = vec![
//!     RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 5_000, 50_000),
//!     RunSpec::new("RND", SystemConfig::victima(), Scale::Tiny, 5_000, 50_000),
//! ];
//! let results = engine.run_batch(specs);
//! assert_eq!(results[0].config_name, "Radix");
//! assert!(results[1].stats.instructions >= 50_000);
//! ```

use crate::config::SystemConfig;
use crate::obs::ObsMode;
use crate::sampling::{run_sampled, SamplingConfig};
use crate::stats::SimStats;
use crate::system::System;
use obs::{MetricValue, SpanEvent, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use victima::features::FeatureTracker;
use workloads::{registry, Scale};

/// Engine identity string recorded in artifact provenance (`report`
/// crate). Bump the trailing version when a change intentionally alters
/// simulation results, so stale baselines fail the `--check` gate with a
/// provenance mismatch instead of a wall of metric diffs.
pub const ENGINE_ID: &str = "victima-sim-engine/1";

/// One simulation to run: a (workload, config, scale, budgets, seed)
/// tuple. Specs are cheap to clone and `Send`, so batches can be built
/// anywhere and executed on any worker.
///
/// # Examples
///
/// ```
/// use sim::{RunSpec, SystemConfig};
/// use workloads::Scale;
///
/// let spec = RunSpec::new("BFS", SystemConfig::victima(), Scale::Tiny, 1_000, 10_000).with_seed(7);
/// assert_eq!(spec.label(), "Victima/BFS");
/// assert_eq!(spec.seed, 7);
/// assert!(!spec.collect_features);
/// ```
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Registry workload abbreviation ("BFS", "RND", …).
    pub workload: String,
    /// The system to simulate.
    pub config: SystemConfig,
    /// Workload footprint scale.
    pub scale: Scale,
    /// Warm-up instructions (statistics discarded).
    pub warmup: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Base seed for the run: drives the workload generator and the
    /// system's allocators. Defaults to the config's seed; two specs
    /// differing only in seed simulate statistically independent runs.
    pub seed: u64,
    /// Collect per-page Table 1 features during the measured window
    /// (slower; used by the Table 2 design study).
    pub collect_features: bool,
    /// Interval-sampling schedule. `None` (the default) runs every
    /// measured instruction in full detail; `Some` runs SMARTS-style
    /// alternating detailed/functional intervals ([`crate::sampling`])
    /// and stamps the result's [`SimStats::sampling`].
    pub sampling: Option<SamplingConfig>,
}

impl RunSpec {
    /// Creates a spec with no feature collection. The run seed is taken
    /// from `config.seed`, so a caller-seeded [`SystemConfig`] keeps its
    /// seed; [`RunSpec::with_seed`] overrides it for the whole run.
    pub fn new(
        workload: impl Into<String>,
        config: SystemConfig,
        scale: Scale,
        warmup: u64,
        instructions: u64,
    ) -> Self {
        let seed = config.seed;
        Self {
            workload: workload.into(),
            config,
            scale,
            warmup,
            instructions,
            seed,
            collect_features: false,
            sampling: None,
        }
    }

    /// Overrides the run seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-page feature collection.
    pub fn with_features(mut self) -> Self {
        self.collect_features = true;
        self
    }

    /// Runs the measured window under interval sampling instead of full
    /// detail.
    pub fn with_sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// A short "config/workload" label for logs.
    pub fn label(&self) -> String {
        format!("{}/{}", self.config.name, self.workload)
    }

    /// The canonical pre-image of [`RunSpec::fingerprint`]: a stable text
    /// rendering of everything that determines this spec's results — the
    /// engine identity, workload, scale, budgets, seed, sampling schedule,
    /// feature collection, and the *fully resolved* system configuration
    /// (so two configs sharing a display name but differing in any
    /// parameter fingerprint differently).
    pub fn fingerprint_text(&self) -> String {
        let sampling = match &self.sampling {
            Some(s) => s.spec(),
            None => "none".to_owned(),
        };
        format!(
            "{} workload={} scale={:?} warmup={} instr={} seed={:#x} sampling={} features={} config={:?}",
            ENGINE_ID,
            self.workload,
            self.scale,
            self.warmup,
            self.instructions,
            self.seed,
            sampling,
            self.collect_features,
            self.config
        )
    }

    /// Content-address of this spec's deterministic result: the 64-bit
    /// FNV-1a hash of [`RunSpec::fingerprint_text`] as 16 lowercase hex
    /// digits. Because every run is a pure function of its spec and the
    /// engine version is folded in via [`ENGINE_ID`], two specs with the
    /// same fingerprint produce byte-identical statistics — the sweep
    /// service's result cache is keyed on exactly this value.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim::{RunSpec, SystemConfig};
    /// use workloads::Scale;
    ///
    /// let a = RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 1_000, 10_000);
    /// let b = a.clone();
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// assert_ne!(a.fingerprint(), a.clone().with_seed(7).fingerprint());
    /// ```
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a64(self.fingerprint_text().as_bytes()))
    }
}

/// 64-bit FNV-1a over a byte string (the spec-fingerprint hash; stable
/// across platforms and builds by construction).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The outcome of one [`RunSpec`].
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Index of the spec in the submitted batch.
    pub index: usize,
    /// The spec's workload abbreviation.
    pub workload: String,
    /// The spec's config display name.
    pub config_name: String,
    /// End-of-run statistics.
    pub stats: SimStats,
    /// Wall-clock time this run took on its worker.
    pub wall: Duration,
    /// The feature tracker, when the spec asked for collection.
    pub features: Option<FeatureTracker>,
    /// Phase spans recorded when tracing was enabled (empty otherwise).
    /// Wall-clock payload: never folded into [`SimStats`] or `--check`
    /// artifacts.
    pub spans: Vec<SpanEvent>,
    /// Metric-registry snapshot when metrics were enabled (`None`
    /// otherwise). Deterministic: mirrors simulation events only.
    pub metrics: Option<Vec<(String, MetricValue)>>,
}

/// Multi-threaded batch runner over [`RunSpec`]s.
#[derive(Clone, Debug)]
pub struct SimEngine {
    jobs: usize,
    obs: ObsMode,
}

fn env_jobs() -> usize {
    std::env::var("VICTIMA_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

impl SimEngine {
    /// Creates an engine with the worker count from `VICTIMA_JOBS`
    /// (default: available parallelism).
    pub fn new() -> Self {
        Self::with_jobs(env_jobs())
    }

    /// Creates an engine with an explicit worker count (clamped to ≥ 1).
    /// Observability defaults to the ambient `VICTIMA_OBS` knob
    /// ([`ObsMode::from_env`]); [`SimEngine::with_obs`] overrides it.
    pub fn with_jobs(jobs: usize) -> Self {
        Self { jobs: jobs.max(1), obs: ObsMode::from_env() }
    }

    /// Overrides the observability mode for every run this engine
    /// executes. Metrics and spans ride back on the [`RunResult`];
    /// statistics are identical in every mode.
    pub fn with_obs(mut self, obs: ObsMode) -> Self {
        self.obs = obs;
        self
    }

    /// The engine's observability mode.
    pub fn obs(&self) -> ObsMode {
        self.obs
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Builds and runs one spec to completion. Pure function of the spec
    /// (plus `index`, which is echoed into the result): this is the unit
    /// of work the pool schedules, and the determinism guarantee rests on
    /// it touching no shared state.
    ///
    /// # Panics
    ///
    /// Panics if the spec names an unknown workload or pairs a mechanism
    /// with an unsupported execution mode.
    pub fn run_one(index: usize, spec: &RunSpec) -> RunResult {
        Self::run_one_observed(index, spec, ObsMode::from_env())
    }

    /// [`SimEngine::run_one`] with an explicit observability mode (the
    /// worker-pool entry point). Enablement is post-construction system
    /// state (like the record hook), so the spec fingerprint and the
    /// statistics are untouched in every mode; metrics and spans come
    /// back on the result as side channels. With tracing on, the first
    /// span is `setup`: the workload build plus `System::new`.
    pub fn run_one_observed(index: usize, spec: &RunSpec, obs: ObsMode) -> RunResult {
        let start = Instant::now();
        // A fresh tracer's clock reads 0, so a tracer made before set-up
        // times the workload build and `System::new` as span [0, now).
        let tracer = obs.tracing_enabled().then(Tracer::new);
        let mut cfg = spec.config.clone();
        cfg.seed = spec.seed;
        let workload = registry::by_name_seeded(&spec.workload, spec.scale, spec.seed)
            .unwrap_or_else(|| panic!("unknown workload {}", spec.workload));
        let mut sys = System::new(cfg, workload);
        if let Some(mut tracer) = tracer {
            tracer.record("setup", 0, &[]);
            sys.tracer = Some(tracer);
        }
        if spec.collect_features {
            sys.enable_feature_tracking();
        }
        if obs.metrics_enabled() {
            sys.enable_metrics();
        }
        match &spec.sampling {
            Some(sampling) => run_sampled(&mut sys, spec.warmup, spec.instructions, sampling),
            None => {
                sys.run_with_warmup(spec.warmup, spec.instructions);
                sys.finalize_stats();
            }
        }
        RunResult {
            index,
            workload: spec.workload.clone(),
            config_name: spec.config.name.clone(),
            stats: sys.stats.clone(),
            wall: start.elapsed(),
            features: sys.tracker.take(),
            spans: sys.take_tracer().map(|mut t| t.take()).unwrap_or_default(),
            metrics: sys.take_metrics().map(|m| m.snapshot()),
        }
    }

    /// Runs a batch across the worker pool. Results come back in
    /// submission order and are byte-identical for any worker count.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim::{RunSpec, SimEngine, SystemConfig};
    /// use workloads::Scale;
    ///
    /// let specs = vec![
    ///     RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000),
    ///     RunSpec::new("RND", SystemConfig::victima(), Scale::Tiny, 2_000, 20_000),
    /// ];
    /// let results = SimEngine::with_jobs(2).run_batch(specs);
    /// assert_eq!(results.len(), 2);
    /// assert_eq!(results[1].config_name, "Victima");
    /// assert!(results[0].stats.instructions >= 20_000);
    /// ```
    pub fn run_batch(&self, specs: Vec<RunSpec>) -> Vec<RunResult> {
        let obs = self.obs;
        self.map(specs, move |i, spec| Self::run_one_observed(i, spec, obs))
    }

    /// Deterministic parallel map over arbitrary work items: applies `f`
    /// to every item on the worker pool and returns the results in item
    /// order. `f` must be a pure function of `(index, item)` — that is
    /// what makes the output schedule-independent. This is the engine's
    /// generic fan-out primitive; [`SimEngine::run_batch`] and the
    /// multi-core mix sweeps are built on it.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = self.jobs.min(items.len());
        if n <= 1 {
            return items.iter().enumerate().map(|(i, s)| f(i, s)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let result = f(i, &items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("result slot poisoned").expect("worker filled every slot"))
            .collect()
    }
}

impl Default for SimEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// The 11 suite specs for one config, in figure order.
pub fn suite_specs(cfg: &SystemConfig, scale: Scale, warmup: u64, instructions: u64) -> Vec<RunSpec> {
    registry::WORKLOAD_NAMES
        .iter()
        .map(|&name| RunSpec::new(name, cfg.clone(), scale, warmup, instructions))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_specs() -> Vec<RunSpec> {
        vec![
            RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000),
            RunSpec::new("RND", SystemConfig::victima(), Scale::Tiny, 2_000, 20_000),
            RunSpec::new("XS", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000),
            // A duplicate of the first spec: must produce identical stats.
            RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000),
        ]
    }

    #[test]
    fn results_preserve_submission_order() {
        let results = SimEngine::with_jobs(3).run_batch(tiny_specs());
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        assert_eq!(results[0].config_name, "Radix");
        assert_eq!(results[1].config_name, "Victima");
        assert_eq!(results[2].workload, "XS");
    }

    #[test]
    fn worker_count_does_not_change_stats() {
        let seq = SimEngine::with_jobs(1).run_batch(tiny_specs());
        let par = SimEngine::with_jobs(4).run_batch(tiny_specs());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.stats, b.stats, "{}: stats diverged across worker counts", a.workload);
        }
    }

    #[test]
    fn duplicated_specs_produce_identical_stats() {
        let results = SimEngine::with_jobs(2).run_batch(tiny_specs());
        assert_eq!(results[0].stats, results[3].stats);
    }

    #[test]
    fn seed_changes_the_run() {
        let base = RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000);
        let reseeded = base.clone().with_seed(0xfeed);
        let results = SimEngine::with_jobs(2).run_batch(vec![base, reseeded]);
        assert_ne!(results[0].stats, results[1].stats, "a fresh seed must perturb the run");
    }

    #[test]
    fn feature_collection_rides_along() {
        let spec = RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000).with_features();
        let r = SimEngine::with_jobs(1).run_batch(vec![spec]);
        assert!(r[0].features.is_some());
        assert!(!r[0].features.as_ref().unwrap().dataset(0.3).is_empty());
    }

    #[test]
    fn tiny_radix_run_produces_activity() {
        let spec = RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 5_000, 50_000);
        let s = SimEngine::run_one(0, &spec).stats;
        assert!(s.instructions >= 50_000);
        assert!(s.cycles() > s.instructions / 4, "at least base CPI");
        assert!(s.l2_tlb_misses > 0, "RND must thrash the TLB");
        assert!(s.ptws > 0);
        assert!(s.ptw_latency_mean > 20.0);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(SimEngine::with_jobs(4).run_batch(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let spec = RunSpec::new("NOPE", SystemConfig::radix(), Scale::Tiny, 10, 10);
        SimEngine::with_jobs(1).run_batch(vec![spec]);
    }

    #[test]
    fn fingerprints_separate_every_spec_dimension() {
        let base = RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000);
        let same = RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000);
        assert_eq!(base.fingerprint(), same.fingerprint());
        assert_eq!(base.fingerprint().len(), 16);
        let variants = [
            RunSpec::new("XS", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000),
            RunSpec::new("RND", SystemConfig::victima(), Scale::Tiny, 2_000, 20_000),
            RunSpec::new("RND", SystemConfig::radix(), Scale::Small, 2_000, 20_000),
            RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 1_000, 20_000),
            RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 30_000),
            base.clone().with_seed(7),
            base.clone().with_features(),
            base.clone().with_sampling(SamplingConfig { fast: 10_000, detailed: 1_000, warm: 500 }),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{} must differ", v.fingerprint_text());
        }
        // Config *parameters* count, not just the display name.
        let mut tweaked = SystemConfig::radix();
        tweaked.phys_mem_bytes += 1;
        let c = RunSpec::new("RND", tweaked, Scale::Tiny, 2_000, 20_000);
        assert_ne!(base.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_folds_in_the_engine_id() {
        let spec = RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 2_000, 20_000);
        assert!(spec.fingerprint_text().starts_with(ENGINE_ID));
    }

    #[test]
    fn env_jobs_parsing() {
        // Engine clamps to >= 1 regardless of input.
        assert_eq!(SimEngine::with_jobs(0).jobs(), 1);
        assert_eq!(SimEngine::with_jobs(7).jobs(), 7);
    }
}
