//! Observability gates.
//!
//! The allocation gate: with metrics ENABLED, the steady-state
//! simulation loop must still perform zero heap allocations. The hot
//! path records nothing metric-specific — the `sim.*` metrics are read
//! off `SimStats` and component counters when a window is finalized —
//! so a metrics-on run costs what a metrics-off run costs. (The
//! disabled path is pinned separately by `no_alloc.rs`.)
//!
//! The determinism gate: enabling metrics (and tracing) must not change
//! a single simulated statistic, and the metrics it reports must
//! reconcile with `SimStats` in every exec mode and in sampled runs.
//!
//! The allocation gate counts only its own thread's allocations
//! (`alloc_count`), so the determinism gate may run beside it.

mod alloc_count;

use obs::{HistSnapshot, MetricValue};
use sim::{
    ExecMode, ObsMode, RunSpec, SamplingConfig, SimEngine, SimStats, System, SystemConfig,
    TranslationMechanism,
};
use workloads::{registry, Scale};

/// Warm a system up with metrics enabled, then assert the measured
/// window allocates nothing (as silent as the uninstrumented hot path,
/// `no_alloc.rs`) and that finalizing it folds a non-empty reading.
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
        "{workload}: a metrics-on run must be allocation-free in steady state \
         (got {got} allocation(s) over 400K instructions)"
    );
    // The window actually exercised the measured paths.
    sys.finalize_stats();
    let m = sys.metrics().expect("metrics enabled");
    let snap = m.snapshot();
    let total: u64 = snap
        .iter()
        .filter_map(|(_, v)| match v {
            MetricValue::Counter(n) => Some(*n),
            _ => None,
        })
        .sum();
    assert!(total > 0, "{workload}: instrumented run recorded no events at all");
}

#[test]
fn metrics_enabled_run_is_allocation_free_in_steady_state() {
    // RND under Victima: the TLB-hostile worst case drives every
    // counted flow — L1/L2 TLB misses, demand walks, PWC probes,
    // Victima inserts, prefetch fills, cache miss counters.
    assert_metrics_path_alloc_free(SystemConfig::victima(), "RND");
    // The radix baseline's pure walk path.
    assert_metrics_path_alloc_free(SystemConfig::radix(), "RND");
}

/// A counter's value in a metric snapshot.
fn counter(metrics: &[(String, MetricValue)], name: &str) -> u64 {
    match metrics.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Counter(n))) => *n,
        other => panic!("{name} is not a registered counter: {other:?}"),
    }
}

/// A histogram's reading in a metric snapshot.
fn histogram<'a>(metrics: &'a [(String, MetricValue)], name: &str) -> &'a HistSnapshot {
    match metrics.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Histogram(h))) => h,
        other => panic!("{name} is not a registered histogram: {other:?}"),
    }
}

/// The `sim.*` metrics are a view over the measured window: every
/// counter `SimStats` also keeps must equal its field, and the walk and
/// miss-latency distributions must cover exactly the walks and misses
/// `SimStats` counts — warm-up and sampling warm windows excluded.
fn assert_metrics_reconcile(label: &str, s: &SimStats, metrics: &[(String, MetricValue)]) {
    let mirrored = [
        ("sim.tlb.l1.hit", s.l1_tlb_hits),
        ("sim.tlb.l1.miss", s.l1_tlb_misses),
        ("sim.tlb.l2.hit", s.l2_tlb_hits),
        ("sim.tlb.l2.miss", s.l2_tlb_misses),
        ("sim.tlb.l3.hit", s.l3_tlb_hits),
        ("sim.victima.hit", s.victima_hits),
        ("sim.victima.insert", s.victima_inserts),
        ("sim.victima.bg_walk", s.victima_background_walks),
        ("sim.pom.hit", s.pom_hits),
        ("sim.pom.miss", s.pom_misses),
        ("sim.ptw.walks", s.ptws),
        ("sim.host.walks", s.host_ptws),
        ("sim.host.translations", s.host_translations),
        ("sim.nested.tlb.hit", s.nested_tlb_hits),
        ("sim.nested.block.hit", s.nested_block_hits),
    ];
    for (name, field) in mirrored {
        assert_eq!(counter(metrics, name), field, "{label}: {name} disagrees with SimStats");
    }
    let walks = [
        histogram(metrics, "sim.ptw.latency").count,
        histogram(metrics, "sim.ptw.depth").count,
        counter(metrics, "sim.pwc.hit") + counter(metrics, "sim.pwc.miss"),
    ];
    assert_eq!(walks, [s.ptws; 3], "{label}: walk latency/depth/PWC counts disagree with ptws");
    let miss = histogram(metrics, "sim.tlb.l2_miss_latency");
    assert_eq!(
        (miss.count, miss.sum),
        (s.l2_tlb_misses, s.l2_miss_latency_sum),
        "{label}: L2-miss latency histogram disagrees with SimStats"
    );
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
    let sampling = SamplingConfig::parse("20000:2000:1000").expect("valid schedule");
    let specs = configs.into_iter().map(|cfg| RunSpec::new("RND", cfg, Scale::Tiny, 2_000, 20_000)).chain(
        [SystemConfig::radix(), SystemConfig::victima()]
            .map(|cfg| RunSpec::new("BFS", cfg, Scale::Tiny, 2_000, 20_000).with_sampling(sampling)),
    );
    for spec in specs {
        let label = spec.label();
        let cfg = &spec.config;
        let off = SimEngine::run_one_observed(0, &spec, &mut Default::default(), ObsMode::Off);
        let full = SimEngine::run_one_observed(0, &spec, &mut Default::default(), ObsMode::Full);
        assert_eq!(off.stats, full.stats, "{label}: obs must be invisible to SimStats");
        assert!(off.spans.is_empty() && off.metrics.is_none(), "{label}: Off collects nothing");
        assert!(!full.spans.is_empty(), "{label}: Full collects phase spans");

        let metrics = full.metrics.expect("Full collects metrics");
        assert_metrics_reconcile(&label, &full.stats, &metrics);
        // Every exec mode runs the same miss pipeline, so every mode
        // records walks, Victima hits and POM-TLB lookups.
        assert!(counter(&metrics, "sim.ptw.walks") > 0, "{label}: no walks recorded");
        if cfg.mechanism.is_victima() {
            assert!(counter(&metrics, "sim.victima.hit") > 0, "{label}: no Victima hits recorded");
        }
        if matches!(cfg.mechanism, TranslationMechanism::PomTlb(_)) {
            assert!(
                counter(&metrics, "sim.pom.hit") + counter(&metrics, "sim.pom.miss") > 0,
                "{label}: no POM-TLB lookups recorded"
            );
        }
        // Nested paging walks the host tables; I-SP's shadow table does not.
        if cfg.mode == ExecMode::VirtualizedNested {
            assert!(counter(&metrics, "sim.host.walks") > 0, "{label}: no host walks recorded");
        }
    }
}
