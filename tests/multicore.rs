//! Integration tests for the multi-core, multi-programmed subsystem:
//! shared-LLC wiring, schedule determinism, oversubscription with every
//! context-switch policy, and inter-core shootdowns.

use sim::multicore::run_mix_pinned;
use sim::{CtxSwitchPolicy, MultiCoreSystem, SchedConfig, SystemConfig};
use vm_types::VirtAddr;
use workloads::{mixes, registry, Scale};

fn two_core(cfg: &SystemConfig, sched: SchedConfig) -> MultiCoreSystem {
    let w = vec![
        registry::by_name_seeded("RND", Scale::Tiny, 7).unwrap(),
        registry::by_name_seeded("XS", Scale::Tiny, 8).unwrap(),
    ];
    MultiCoreSystem::new(cfg, w, 2, sched)
}

#[test]
fn pinned_two_core_runs_and_shares_the_llc() {
    let cfg = SystemConfig::victima();
    let mut sys = two_core(&cfg, SchedConfig::pinned(500));
    sys.run_with_warmup(2_000, 20_000);

    let procs = sys.proc_summaries();
    assert_eq!(procs.len(), 2);
    assert_eq!(procs[0].workload, "RND");
    assert_eq!(procs[1].workload, "XS");
    for p in &procs {
        assert!(p.instructions >= 20_000, "{}: ran its budget", p.workload);
        assert!(p.ipc > 0.0);
    }
    // Distinct ASIDs per process.
    assert_ne!(procs[0].asid, procs[1].asid);
    // Both cores generated L2 misses that drained into the one LLC.
    let l3_lookups = sys.llc().borrow().l3().stats.hits + sys.llc().borrow().l3().stats.misses;
    assert!(l3_lookups > 0, "shared L3 must see traffic");
    let per_core_activity: Vec<u64> = sys.core_stats().iter().map(|s| s.l2_tlb_misses).collect();
    assert!(per_core_activity.iter().all(|&m| m > 0), "both cores were exercised: {per_core_activity:?}");
    // Pinned mode never context-switches.
    assert_eq!(sys.stats.context_switches, 0);
}

#[test]
fn multicore_runs_are_deterministic() {
    let cfg = SystemConfig::victima();
    let mut a = two_core(&cfg, SchedConfig::pinned(500));
    let mut b = two_core(&cfg, SchedConfig::pinned(500));
    a.run_with_warmup(2_000, 20_000);
    b.run_with_warmup(2_000, 20_000);
    for (sa, sb) in a.core_stats().iter().zip(b.core_stats()) {
        assert_eq!(*sa, sb, "identical constructions must replay identically");
    }
    let (pa, pb) = (a.proc_summaries(), b.proc_summaries());
    for (x, y) in pa.iter().zip(&pb) {
        assert_eq!(x.instructions, y.instructions);
        assert_eq!(x.ipc.to_bits(), y.ipc.to_bits(), "bit-exact IPC");
    }
}

#[test]
fn slot_seeding_separates_identical_workloads() {
    // Two RND instances in one mix must not stream in lockstep; if they
    // did, their per-core stats would be identical.
    let cfg = SystemConfig::radix();
    let w = vec![
        registry::by_name_seeded("RND", Scale::Tiny, sim::slot_seed(cfg.seed, 0)).unwrap(),
        registry::by_name_seeded("RND", Scale::Tiny, sim::slot_seed(cfg.seed, 1)).unwrap(),
    ];
    let mut sys = MultiCoreSystem::new(&cfg, w, 2, SchedConfig::pinned(500));
    sys.run_with_warmup(1_000, 10_000);
    let stats = sys.core_stats();
    assert_ne!(*stats[0], *stats[1], "distinct slot seeds must desynchronise the streams");
}

#[test]
fn oversubscription_context_switches_under_every_policy() {
    for policy in [CtxSwitchPolicy::AsidTagged, CtxSwitchPolicy::AsidSelective, CtxSwitchPolicy::FullFlush] {
        let cfg = SystemConfig::radix();
        let w = ["RND", "XS", "BFS"]
            .iter()
            .enumerate()
            .map(|(i, n)| registry::by_name_seeded(n, Scale::Tiny, sim::slot_seed(cfg.seed, i)).unwrap())
            .collect();
        // 3 processes over 2 cores.
        let mut sys = MultiCoreSystem::new(&cfg, w, 2, SchedConfig::round_robin(500, policy));
        sys.run_with_warmup(1_000, 10_000);
        assert!(sys.stats.context_switches > 0, "{policy:?}: oversubscription must switch");
        for p in sys.proc_summaries() {
            assert!(p.instructions >= 10_000, "{policy:?}/{}: every process finishes", p.workload);
        }
    }
}

#[test]
fn flush_policies_order_by_cost() {
    // Full flush can only hurt relative to ASID-tagged hardware: same
    // schedule, strictly less warm TLB state after every switch.
    let run = |policy| {
        let cfg = SystemConfig::radix();
        let w = ["RND", "XS", "BFS"]
            .iter()
            .enumerate()
            .map(|(i, n)| registry::by_name_seeded(n, Scale::Tiny, sim::slot_seed(cfg.seed, i)).unwrap())
            .collect();
        let mut sys = MultiCoreSystem::new(&cfg, w, 2, SchedConfig::round_robin(500, policy));
        sys.run_with_warmup(2_000, 20_000);
        sys.core_stats().iter().map(|s| s.l2_tlb_misses).sum::<u64>()
    };
    let tagged = run(CtxSwitchPolicy::AsidTagged);
    let flush = run(CtxSwitchPolicy::FullFlush);
    assert!(flush > tagged, "full flush must cost TLB misses: tagged={tagged} flush={flush}");
}

#[test]
fn inter_core_shootdown_reaches_every_core() {
    let cfg = SystemConfig::victima();
    let mut sys = two_core(&cfg, SchedConfig::pinned(500));
    sys.run(5_000);
    // Migrate a page of process 0 (its code region base is always mapped
    // 4KB) and let the broadcast clean up all cores.
    let va = VirtAddr::new(0x2000_0000);
    let old = sys.cores()[0].ground_truth(va).expect("code page mapped");
    let new = sys.migrate_page(0, va);
    assert_ne!(new, old);
    assert_eq!(sys.stats.migrations, 1);
    // Only the owning core runs this ASID, and two of its hardware TLBs
    // held the code page.
    assert_eq!(sys.stats.shootdown_invalidations, 2, "the owning core held the entry");
    assert_eq!(sys.cores()[0].ground_truth(va), Some(new));
    // Run on: no stale-translation panics, all cores still make progress.
    sys.run(2_000);
}

#[test]
fn run_mix_pinned_reports_every_slot() {
    let mix = mixes::by_name("MIX2-A").expect("committed mix");
    let res = run_mix_pinned(&SystemConfig::victima(), mix, Scale::Tiny, 500, 1_000, 10_000);
    assert_eq!(res.mix, "MIX2-A");
    assert_eq!(res.config_name, "Victima");
    assert_eq!(res.procs.len(), 2);
    assert_eq!(res.cores.len(), 2);
    assert!(res.procs.iter().all(|p| p.instructions >= 10_000 && p.ipc > 0.0));
}
