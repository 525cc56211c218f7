//! Observability overhead gate: with hot-path metrics ENABLED, the
//! steady-state simulation loop must still perform zero heap
//! allocations — every counter, gauge and histogram bucket is a
//! preallocated word in the system's single-writer `obs::LocalBuf`,
//! so recording is a plain `Cell` add, never an alloc (and never an
//! atomic RMW; deltas drain to the shared registry at snapshot time).
//! (The disabled path is pinned separately by `no_alloc.rs`: obs off is
//! the default, so that gate already runs with `metrics == None`.)
//!
//! The second gate is the determinism contract: enabling metrics (and
//! tracing) must not change a single simulated statistic — the
//! instrumentation observes events, it never participates in them.
//!
//! The allocation gate counts only its own thread's allocations
//! (`alloc_count`), so the determinism gate may run beside it.

mod alloc_count;

use sim::{ObsMode, RunSpec, SimEngine, System, SystemConfig, TranslationMechanism};
use workloads::{registry, Scale};

/// Warm a system up with metrics recording live, then assert the
/// measured window allocates nothing: metric recording must be as
/// silent as the uninstrumented hot path (`no_alloc.rs`).
fn assert_metrics_path_alloc_free(config: SystemConfig, workload: &str) {
    let w = registry::by_name_seeded(workload, Scale::Tiny, config.seed).expect("known workload");
    let mut sys = System::new(config, w);
    sys.enable_metrics();
    sys.run(200_000);

    let before = alloc_count::allocations();
    sys.run(400_000);
    let got = alloc_count::allocations() - before;
    assert_eq!(
        got, 0,
        "{workload}: metric recording must be allocation-free in steady state \
         (got {got} allocation(s) over 400K instructions)"
    );
    // The window actually exercised the instrumented paths.
    let m = sys.metrics().expect("metrics enabled");
    let snap = m.snapshot();
    let total: u64 = snap
        .iter()
        .filter_map(|(_, v)| match v {
            obs::MetricValue::Counter(n) => Some(*n),
            _ => None,
        })
        .sum();
    assert!(total > 0, "{workload}: instrumented run recorded no events at all");
}

#[test]
fn metric_recording_is_allocation_free_in_steady_state() {
    // RND under Victima: the TLB-hostile worst case drives every
    // instrumented flow — L1/L2 TLB misses, demand walks, PWC probes,
    // Victima inserts, prefetch fills, cache miss counters.
    assert_metrics_path_alloc_free(SystemConfig::victima(), "RND");
    // The radix baseline's pure walk path.
    assert_metrics_path_alloc_free(SystemConfig::radix(), "RND");
}

#[test]
fn observability_cannot_change_results() {
    let configs = [
        SystemConfig::radix(),
        SystemConfig::victima(),
        SystemConfig::pom_tlb(),
        SystemConfig::nested_paging(),
        SystemConfig::ideal_shadow_paging(),
        SystemConfig::pom_tlb_virt(),
        SystemConfig::victima_virt(),
    ];
    for cfg in configs {
        let config = cfg.name.clone();
        let victima = cfg.mechanism.is_victima();
        let pom = matches!(cfg.mechanism, TranslationMechanism::PomTlb(_));
        let spec = RunSpec::new("RND", cfg, Scale::Tiny, 2_000, 20_000);
        let off = SimEngine::run_one_observed(0, &spec, &mut Default::default(), ObsMode::Off);
        let full = SimEngine::run_one_observed(0, &spec, &mut Default::default(), ObsMode::Full);
        assert_eq!(off.stats, full.stats, "{config}: obs must be invisible to SimStats");
        assert!(off.spans.is_empty() && off.metrics.is_none(), "{config}: Off collects nothing");
        assert!(!full.spans.is_empty(), "{config}: Full collects phase spans");

        // Every exec mode runs the same miss pipeline, so every mode
        // records the walk, Victima and POM-TLB metrics.
        let metrics = full.metrics.expect("Full collects metrics");
        let counter = |name: &str| match metrics.iter().find(|(n, _)| n == name) {
            Some((_, obs::MetricValue::Counter(n))) => *n,
            other => panic!("{config}: {name} is not a registered counter: {other:?}"),
        };
        assert!(counter("sim.ptw.walks") > 0, "{config}: no walks recorded");
        if victima {
            assert!(counter("sim.victima.hit") > 0, "{config}: no Victima hits recorded");
        }
        if pom {
            assert!(
                counter("sim.pom.hit") + counter("sim.pom.miss") > 0,
                "{config}: no POM-TLB lookups recorded"
            );
        }
    }
}
