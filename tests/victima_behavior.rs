//! Integration tests for the paper's headline behaviours at test scale:
//! Victima's reach, its PTW reductions, the predictor's effect, and the
//! eviction flow.

use victima_repro::sim::{RunSpec, SimEngine, SimStats, SystemConfig, TranslationMechanism};
use victima_repro::workloads::Scale;

/// One RND run at Tiny scale with the shared test budget.
fn run(cfg: SystemConfig) -> SimStats {
    SimEngine::run_one(0, &RunSpec::new("RND", cfg, Scale::Tiny, 20_000, 200_000)).stats
}

#[test]
fn victima_extends_translation_reach() {
    let s = run(SystemConfig::victima());
    // Baseline L2 TLB reach is 1536 x 4KB = 6MB; TLB blocks should extend
    // well beyond that even at Tiny scale.
    assert!(
        s.reach_mean_bytes > 6.0 * (1 << 20) as f64,
        "reach {:.1}MB should exceed the L2 TLB's 6MB",
        s.reach_mean_bytes / (1 << 20) as f64
    );
    assert!(s.reach_max_bytes > s.reach_mean_bytes as u64 / 2);
}

#[test]
fn victima_reduces_both_walks_and_miss_latency() {
    let base = run(SystemConfig::radix());
    let vic = run(SystemConfig::victima());
    assert!(vic.ptw_reduction_vs(&base) > 0.1, "PTW reduction {:.2}", vic.ptw_reduction_vs(&base));
    assert!(
        vic.l2_miss_latency() < base.l2_miss_latency(),
        "miss latency should drop: {:.0} vs {:.0}",
        vic.l2_miss_latency(),
        base.l2_miss_latency()
    );
    assert!(vic.speedup_over(&base) > 1.0);
}

#[test]
fn eviction_flow_issues_background_walks() {
    // At Tiny scale every TLB block fits in the 2MB L2, so the eviction
    // flow's presence check correctly suppresses all background walks;
    // shrink the cache so blocks actually get displaced.
    let cfg = SystemConfig::victima().with_l2_cache_bytes(256 << 10);
    let s = run(cfg);
    assert!(s.victima_background_walks > 0, "L2 TLB evictions should trigger background walks");
    assert!(s.victima_inserts > 0);
}

#[test]
fn disabling_insertion_flows_disables_the_benefit() {
    let mut off = SystemConfig::victima();
    if let TranslationMechanism::Victima(v) = &mut off.mechanism {
        v.insert_on_miss = false;
        v.insert_on_eviction = false;
    }
    off.name = "Victima-disabled".into();
    let s = run(off);
    assert_eq!(s.victima_hits, 0, "no inserts → no probe hits");
    let base = run(SystemConfig::radix());
    // Without insertions Victima degenerates to the baseline (same walks).
    let reduction = s.ptw_reduction_vs(&base);
    assert!(reduction.abs() < 0.02, "expected ≈0 PTW reduction, got {reduction:.3}");
}

#[test]
fn tlb_aware_policy_keeps_more_blocks_than_agnostic() {
    let aware = run(SystemConfig::victima());
    let agnostic = run(SystemConfig::victima_agnostic_srrip());
    // Both work; the aware policy should hold at least as much reach.
    assert!(aware.reach_mean_bytes >= agnostic.reach_mean_bytes * 0.8);
    assert!(agnostic.victima_hits > 0);
}

#[test]
fn stlb_behind_victima_adds_nothing_meaningful() {
    // Sec. 10: the paper finds a DUCATI-style full-memory STLB behind
    // Victima is worth only ~0.8%; the TLB blocks capture the value.
    let vic = run(SystemConfig::victima());
    let combo = run(SystemConfig::victima_plus_stlb());
    assert!(combo.victima_hits > 0, "Victima still runs inside the combo");
    let gain = combo.speedup_over(&vic) - 1.0;
    assert!(gain < 0.05, "the STLB should not add meaningful speedup, got {gain:.3}");
}

#[test]
fn pom_tlb_hits_and_spills() {
    let s = run(SystemConfig::pom_tlb());
    assert!(s.pom_hits > 0, "POM-TLB should serve some misses");
    assert!(s.pom_misses > 0, "POM-TLB can't be perfect on RND");
}

#[test]
fn ideal_backstops_order_by_latency() {
    let l1 = run(SystemConfig::ideal_backstop(4, "ideal-l1"));
    let l2 = run(SystemConfig::ideal_backstop(16, "ideal-l2"));
    let llc = run(SystemConfig::ideal_backstop(35, "ideal-llc"));
    assert!(l1.l2_miss_latency() < l2.l2_miss_latency());
    assert!(l2.l2_miss_latency() < llc.l2_miss_latency());
    assert_eq!(l1.ptws, 0, "the oracle serves every miss");
}

#[test]
fn larger_l2_tlbs_reduce_mpki_monotonically() {
    let mut last = f64::INFINITY;
    for entries in [1536usize, 8192, 65536] {
        let s = run(SystemConfig::with_l2_tlb(entries, 12));
        let mpki = s.l2_tlb_mpki();
        assert!(mpki <= last + 0.5, "MPKI should not grow with TLB size: {entries} gave {mpki:.1}");
        last = mpki;
    }
}
