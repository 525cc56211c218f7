//! Experiment harness: regenerates every table and figure of the Victima
//! paper's evaluation (see DESIGN.md for the per-experiment index).
//!
//! Experiments share simulation runs through a cache (e.g. Figs.
//! 20–24 all read the same six system×workload sweeps) and execute
//! uncached runs as one batch on the [`SimEngine`] worker pool
//! (`VICTIMA_JOBS` workers). Each experiment returns a typed
//! [`ExperimentReport`] (the `report` crate) that renders to text, JSON,
//! CSV or markdown and feeds the `--check` regression gate.

pub mod ckpt;
pub mod cli;
pub mod experiments;
pub mod profile;
pub mod service;
pub mod trace;

use obs::{merge_snapshots, MetricValue, SpanEvent};
use report::Provenance;
use sim::{ObsMode, RunSpec, SamplingConfig, SimEngine, SimStats, SystemConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use workloads::{registry::WORKLOAD_NAMES, Scale};

pub use report::{Column, ExperimentReport, Metric, Unit, Value};

/// Observability captured across a context's runs: every phase span plus
/// the merged metric snapshot (counters summed, gauges high-watered,
/// histograms merged — `obs::merge_snapshots`).
#[derive(Default)]
struct ObsData {
    spans: Vec<SpanEvent>,
    metrics: Vec<(String, MetricValue)>,
}

/// Shared context for all experiments.
#[derive(Clone)]
pub struct ExpCtx {
    scale: Scale,
    warmup: u64,
    instructions: u64,
    engine: SimEngine,
    /// When set, suite runs execute under SMARTS-style interval sampling
    /// (the `--sampling` flag) instead of full detail.
    sampling: Option<SamplingConfig>,
    cache: Arc<Mutex<HashMap<(String, &'static str), SimStats>>>,
    /// When set (`with_obs`), every engine run collects spans + metrics
    /// here. Diagnostics only — `SimStats` and artifacts never read it.
    obs: Option<Arc<Mutex<ObsData>>>,
}

/// Parses one budget variable's raw value: unset falls back to
/// `default`, a set value must be a non-negative integer.
fn parse_budget(name: &str, raw: Option<&str>, default: u64) -> Result<u64, String> {
    match raw {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: expected a non-negative integer, got {v:?}")),
    }
}

fn env_budget(name: &str, default: u64) -> Result<u64, String> {
    parse_budget(name, std::env::var(name).ok().as_deref(), default)
}

impl ExpCtx {
    /// A context with explicit scale and budgets; workers come from
    /// `VICTIMA_JOBS` (override with [`ExpCtx::with_jobs`]).
    pub fn with_budget(scale: Scale, warmup: u64, instructions: u64) -> Self {
        Self {
            scale,
            warmup,
            instructions,
            engine: SimEngine::new(),
            sampling: None,
            cache: Arc::new(Mutex::new(HashMap::new())),
            obs: None,
        }
    }

    /// Context at an explicit workload scale (the `--scale` flag), with
    /// budgets from `VICTIMA_INSTR`/`VICTIMA_WARMUP` (defaults 2M/200K).
    /// Errors name the variable when either is set but not a
    /// non-negative integer.
    pub fn at_scale(scale: Scale) -> Result<Self, String> {
        let instructions = env_budget("VICTIMA_INSTR", 2_000_000)?;
        let warmup = env_budget("VICTIMA_WARMUP", 200_000)?;
        Ok(Self::with_budget(scale, warmup, instructions))
    }

    /// The `--quick` profile: 60K warm-up + 600K measured instructions,
    /// for smoke runs of whole experiments (`experiments --quick all`).
    pub fn quick_at(scale: Scale) -> Self {
        Self::with_budget(scale, 60_000, 600_000)
    }

    /// The pinned regression-check profile: Tiny scale, fixed budgets,
    /// *independent of every environment variable except* `VICTIMA_JOBS`
    /// (which cannot change results — the engine is schedule-
    /// deterministic). Committed baselines under `crates/bench/baselines/`
    /// are generated at exactly this profile; `--check` refuses baselines
    /// whose provenance differs.
    pub fn check() -> Self {
        Self::with_budget(Scale::Tiny, 5_000, 50_000)
    }

    /// Overrides the worker count (the `--jobs` flag): takes precedence
    /// over the ambient `VICTIMA_JOBS`, so scripted reproduction runs
    /// don't depend on environment state. Results are identical at any
    /// worker count; this only changes wall-clock.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        // Preserve the enablement `with_obs` (or the env) already chose.
        let obs = self.engine.obs();
        self.engine = SimEngine::with_jobs(jobs).with_obs(obs);
        self
    }

    /// Enables full observability (metrics + phase spans) on every run
    /// this context executes, collecting them for [`ExpCtx::obs_spans`] /
    /// [`ExpCtx::obs_metrics`] — the `experiments profile` path. Results
    /// (`SimStats`, artifacts, `--check` bytes) are unchanged.
    pub fn with_obs(mut self) -> Self {
        self.engine = self.engine.with_obs(ObsMode::Full);
        self.obs = Some(Arc::new(Mutex::new(ObsData::default())));
        self
    }

    /// Every phase span collected so far (empty without `with_obs`).
    pub fn obs_spans(&self) -> Vec<SpanEvent> {
        self.obs.as_ref().map_or_else(Vec::new, |o| o.lock().expect("obs collector poisoned").spans.clone())
    }

    /// The merged metric snapshot so far (empty without `with_obs`).
    pub fn obs_metrics(&self) -> Vec<(String, MetricValue)> {
        self.obs.as_ref().map_or_else(Vec::new, |o| o.lock().expect("obs collector poisoned").metrics.clone())
    }

    /// Runs every suite simulation under SMARTS-style interval sampling
    /// (the `--sampling U:D[:W]` flag). Statistics then estimate the
    /// full-detail run — use for scaled-up exploration, never for the
    /// pinned `--check` profile.
    pub fn with_sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// The context's `(scale, warmup, instructions)` profile.
    pub fn budget(&self) -> (Scale, u64, u64) {
        (self.scale, self.warmup, self.instructions)
    }

    /// The underlying batch engine.
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// Artifact provenance for an experiment that swept `cfgs` (any
    /// iterable of config references — a `&Vec<SystemConfig>`, an
    /// `[&SystemConfig; N]` array, or a `once(..).chain(..)`). Worker
    /// count and wall-clock are deliberately absent: artifacts must be
    /// byte-identical across `VICTIMA_JOBS` settings.
    pub fn provenance<'a>(&self, cfgs: impl IntoIterator<Item = &'a SystemConfig>) -> Provenance {
        Provenance {
            scale: format!("{:?}", self.scale),
            warmup: self.warmup,
            instructions: self.instructions,
            seed: vm_types::DEFAULT_SEED,
            engine: sim::ENGINE_ID.to_owned(),
            configs: cfgs.into_iter().map(|c| c.name.clone()).collect(),
            workloads: WORKLOAD_NAMES.iter().map(|&w| w.to_owned()).collect(),
        }
    }

    /// Runs `cfg` over the whole 11-workload suite (cached, parallel).
    /// Returns stats in figure order.
    pub fn suite(&self, cfg: &SystemConfig) -> Vec<SimStats> {
        self.suites(std::slice::from_ref(cfg)).remove(0)
    }

    /// Runs several configs over the suite as one batch on the worker
    /// pool, skipping runs the cache already holds.
    pub fn suites(&self, cfgs: &[SystemConfig]) -> Vec<Vec<SimStats>> {
        // Collect jobs not yet cached.
        let mut jobs: Vec<(SystemConfig, &'static str)> = Vec::new();
        {
            let cache = self.cache.lock().expect("run cache poisoned");
            for cfg in cfgs {
                for &w in WORKLOAD_NAMES.iter() {
                    if !cache.contains_key(&(cfg.name.clone(), w)) {
                        jobs.push((cfg.clone(), w));
                    }
                }
            }
        }
        self.run_jobs(jobs);
        let cache = self.cache.lock().expect("run cache poisoned");
        cfgs.iter()
            .map(|cfg| {
                WORKLOAD_NAMES
                    .iter()
                    .map(|&w| cache.get(&(cfg.name.clone(), w)).expect("job just ran").clone())
                    .collect()
            })
            .collect()
    }

    /// Runs one (config, workload) pair through the cache.
    pub fn one(&self, cfg: &SystemConfig, workload: &'static str) -> SimStats {
        if let Some(s) = self.cache.lock().expect("run cache poisoned").get(&(cfg.name.clone(), workload)) {
            return s.clone();
        }
        self.run_jobs(vec![(cfg.clone(), workload)]);
        self.cache
            .lock()
            .expect("run cache poisoned")
            .get(&(cfg.name.clone(), workload))
            .expect("job just ran")
            .clone()
    }

    /// Fans the uncached jobs out as one engine batch and fills the cache.
    fn run_jobs(&self, jobs: Vec<(SystemConfig, &'static str)>) {
        if jobs.is_empty() {
            return;
        }
        let specs: Vec<RunSpec> = jobs
            .iter()
            .map(|(cfg, w)| {
                let spec = RunSpec::new(*w, cfg.clone(), self.scale, self.warmup, self.instructions);
                match self.sampling {
                    Some(s) => spec.with_sampling(s),
                    None => spec,
                }
            })
            .collect();
        let results = self.engine.run_batch(specs);
        if let Some(col) = &self.obs {
            let mut data = col.lock().expect("obs collector poisoned");
            for r in &results {
                data.spans.extend(r.spans.iter().cloned());
                if let Some(m) = &r.metrics {
                    merge_snapshots(&mut data.metrics, m);
                }
            }
        }
        let mut cache = self.cache.lock().expect("run cache poisoned");
        for ((cfg, w), r) in jobs.into_iter().zip(results) {
            cache.insert((cfg.name, w), r.stats);
        }
    }
}

/// Builds the common "one row per workload, one column per swept system"
/// report shape: `columns[i]` names series `i`, `values[i][wi]` is that
/// series' measurement for workload `wi` (figure order). Metrics and
/// notes are the caller's to add.
pub fn workload_matrix(
    id: &str,
    title: &str,
    unit: Unit,
    columns: &[String],
    values: &[Vec<f64>],
) -> ExperimentReport {
    assert_eq!(columns.len(), values.len(), "one column per series");
    let mut r =
        ExperimentReport::new(id, title).with_columns(columns.iter().map(|c| Column::new(c.clone(), unit)));
    for (wi, name) in WORKLOAD_NAMES.iter().enumerate() {
        r.push_row(*name, values.iter().map(|series| Value::from(series[wi])));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_deduplicates_runs() {
        let ctx = ExpCtx::with_budget(Scale::Tiny, 2_000, 20_000).with_jobs(2);
        let cfg = SystemConfig::radix();
        let a = ctx.one(&cfg, "RND");
        let b = ctx.one(&cfg, "RND");
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(ctx.cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn suites_batch_through_the_engine() {
        let ctx = ExpCtx::with_budget(Scale::Tiny, 500, 5_000).with_jobs(2);
        let cfgs = [SystemConfig::radix(), SystemConfig::victima()];
        let results = ctx.suites(&cfgs);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.len() == WORKLOAD_NAMES.len()));
        assert_eq!(ctx.cache.lock().unwrap().len(), 2 * WORKLOAD_NAMES.len());
        // A second call is served entirely from the cache.
        let again = ctx.suites(&cfgs);
        assert_eq!(again[0][0], results[0][0]);
    }

    #[test]
    fn provenance_captures_profile_and_configs() {
        let ctx = ExpCtx::check();
        let cfg = SystemConfig::victima();
        let p = ctx.provenance([&cfg]);
        assert_eq!(p.scale, "Tiny");
        assert_eq!((p.warmup, p.instructions), (5_000, 50_000));
        assert_eq!(p.configs, vec!["Victima"]);
        assert_eq!(p.workloads.len(), WORKLOAD_NAMES.len());
        assert_eq!(p.engine, sim::ENGINE_ID);
    }

    #[test]
    fn budget_variables_default_when_unset_and_reject_garbage() {
        assert_eq!(parse_budget("VICTIMA_INSTR", None, 2_000_000), Ok(2_000_000));
        assert_eq!(parse_budget("VICTIMA_INSTR", Some("60000"), 2_000_000), Ok(60_000));
        assert_eq!(parse_budget("VICTIMA_WARMUP", Some("0"), 200_000), Ok(0));
        assert_eq!(
            parse_budget("VICTIMA_INSTR", Some("2e6"), 2_000_000),
            Err("VICTIMA_INSTR: expected a non-negative integer, got \"2e6\"".to_owned())
        );
        for bad in ["", "-1", " 5", "1_000"] {
            assert!(parse_budget("VICTIMA_WARMUP", Some(bad), 200_000).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn workload_matrix_shapes_rows_by_workload() {
        let cols = vec!["A".to_owned(), "B".to_owned()];
        let vals = vec![vec![1.0; WORKLOAD_NAMES.len()], vec![2.0; WORKLOAD_NAMES.len()]];
        let r = workload_matrix("figX", "t", Unit::Factor, &cols, &vals);
        assert_eq!(r.rows.len(), WORKLOAD_NAMES.len());
        assert_eq!(r.columns.len(), 2);
        assert_eq!(r.rows[0].cells[1], Value::Float(2.0));
    }
}
