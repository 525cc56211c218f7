//! Integration tests for virtualised execution: the two-dimensional
//! translation must agree with ground truth under nested paging, shadow
//! paging and virtualised Victima, and the virtualised mechanisms must
//! show the paper's qualitative behaviour.

use victima_repro::sim::{RunSpec, SimEngine, SimStats, System, SystemConfig};
use victima_repro::workloads::{registry, Scale};

/// One RND run at Tiny scale with the shared test budget.
fn run(cfg: SystemConfig) -> SimStats {
    SimEngine::run_one(0, &RunSpec::new("RND", cfg, Scale::Tiny, 10_000, 120_000)).stats
}

#[test]
fn nested_paging_translates_correctly() {
    for cfg in [SystemConfig::nested_paging(), SystemConfig::pom_tlb_virt()] {
        let mut sys = System::new(cfg.clone(), registry::by_name("RND", Scale::Tiny).unwrap());
        sys.run(60_000);
        // Spot-check agreement on addresses the workload actually maps.
        let mut rng = victima_repro::types::SplitMix64::new(11);
        let mut checked = 0;
        while checked < 1_000 {
            let va = victima_repro::types::VirtAddr::new(0x2000_0000 + rng.next_below(60 << 20));
            if let Some(truth) = sys.ground_truth(va) {
                assert_eq!(sys.translate_once(va), truth, "{} mistranslated {va}", cfg.name);
                checked += 1;
            }
        }
    }
}

#[test]
fn victima_virt_translates_correctly_and_reduces_walks() {
    let np = run(SystemConfig::nested_paging());
    let vic = run(SystemConfig::victima_virt());
    assert!(vic.victima_hits > 0, "guest TLB blocks should serve misses");
    assert!(
        vic.host_ptw_reduction_vs(&np) > 0.3,
        "nested blocks + nested TLB should cut host walks, got {:.2}",
        vic.host_ptw_reduction_vs(&np)
    );
    assert!(vic.ptw_reduction_vs(&np) > 0.0, "guest walks should shrink");

    // Correctness under the virtualised Victima flows.
    let mut sys = System::new(SystemConfig::victima_virt(), registry::by_name("RND", Scale::Tiny).unwrap());
    sys.run(60_000);
    let mut rng = victima_repro::types::SplitMix64::new(12);
    let mut checked = 0;
    while checked < 1_000 {
        let va = victima_repro::types::VirtAddr::new(0x2000_0000 + rng.next_below(60 << 20));
        if let Some(truth) = sys.ground_truth(va) {
            assert_eq!(sys.translate_once(va), truth, "Victima-virt mistranslated {va}");
            checked += 1;
        }
    }
}

#[test]
fn shadow_paging_matches_nested_translation() {
    let mut sys =
        System::new(SystemConfig::ideal_shadow_paging(), registry::by_name("XS", Scale::Tiny).unwrap());
    sys.run(60_000);
    let mut rng = victima_repro::types::SplitMix64::new(13);
    let mut checked = 0;
    while checked < 1_000 {
        let va = victima_repro::types::VirtAddr::new(0x2000_0000 + rng.next_below(60 << 20));
        if let Some(truth) = sys.ground_truth(va) {
            assert_eq!(sys.translate_once(va), truth, "I-SP mistranslated {va}");
            checked += 1;
        }
    }
}

#[test]
fn nested_walks_cost_more_than_native_walks() {
    let native = run(SystemConfig::radix());
    let np = run(SystemConfig::nested_paging());
    assert!(
        np.l2_miss_latency() > native.l2_miss_latency(),
        "2D walks must be costlier: native {:.0} vs NP {:.0}",
        native.l2_miss_latency(),
        np.l2_miss_latency()
    );
    assert!(np.host_ptws > 0, "NP performs host walks");
}

#[test]
fn ideal_shadow_paging_beats_nested_paging() {
    let np = run(SystemConfig::nested_paging());
    let isp = run(SystemConfig::ideal_shadow_paging());
    assert!(isp.speedup_over(&np) > 1.0, "I-SP ≥ NP expected, got {:.3}", isp.speedup_over(&np));
    assert_eq!(isp.host_ptws, 0, "shadow paging needs no host walks");
}
