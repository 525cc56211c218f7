//! Cross-crate integration tests: functional correctness of address
//! translation under every mechanism — whatever the TLBs, POM-TLB or
//! Victima's TLB blocks cache, the translation the core observes must
//! equal the page table's ground truth, including across shootdowns and
//! migrations.

use victima_repro::sim::{RunSpec, SimEngine, System, SystemConfig};
use victima_repro::types::{SplitMix64, VirtAddr};
use victima_repro::workloads::{registry, RegionSpec, Scale, Workload};

/// A tiny deterministic workload that touches a fixed region randomly.
struct Probe {
    base: VirtAddr,
    bytes: u64,
    rng: SplitMix64,
}

impl Probe {
    fn new(bytes: u64) -> Self {
        Self { base: VirtAddr::new(0), bytes, rng: SplitMix64::new(0x9e0) }
    }
}

impl Workload for Probe {
    fn name(&self) -> &'static str {
        "PROBE"
    }
    fn region_specs(&self) -> Vec<RegionSpec> {
        vec![RegionSpec { name: "data", bytes: self.bytes, huge_fraction: 0.3 }]
    }
    fn init(&mut self, bases: &[VirtAddr]) {
        self.base = bases[0];
    }
    fn fill(&mut self, out: &mut Vec<victima_repro::types::MemRef>) {
        for _ in 0..16 {
            let off = self.rng.next_below(self.bytes);
            out.push(victima_repro::types::MemRef::load(self.base.add(off), 0x40_0000, 2));
        }
    }
}

fn probe_system(cfg: SystemConfig) -> (System, VirtAddr, u64) {
    let bytes = 64 << 20;
    let sys = System::new(cfg, Box::new(Probe::new(bytes)));
    // The probe region is the second mapped region (code is first); find
    // its base via ground truth on a known offset pattern: the Probe
    // workload stored it, but we can simply re-derive by scanning the run.
    // Simplest: run a little, then use translate_once on addresses we know
    // are mapped by checking ground_truth.
    (sys, VirtAddr::new(0), bytes)
}

/// Exhaustive agreement between the timed translation path and ground
/// truth, for every mechanism, while the system is running (so TLBs,
/// POM-TLB and TLB blocks are all warm and in arbitrary states).
#[test]
fn translation_agrees_with_ground_truth_under_all_mechanisms() {
    let configs = [
        SystemConfig::radix(),
        SystemConfig::with_l3_tlb(8192, 15),
        SystemConfig::pom_tlb(),
        SystemConfig::victima(),
        SystemConfig::victima_agnostic_srrip(),
        SystemConfig::victima_plus_stlb(),
        SystemConfig::ideal_backstop(16, "TLB-hit-L2"),
    ];
    let mut rng = SplitMix64::new(42);
    for cfg in configs {
        let name = cfg.name.clone();
        let (mut sys, _, _) = probe_system(cfg);
        sys.run(100_000);
        // Probe random addresses: find mapped ones via ground truth.
        let mut checked = 0;
        while checked < 2_000 {
            let va = VirtAddr::new(0x2000_0000 + rng.next_below(80 << 20));
            if let Some(truth) = sys.ground_truth(va) {
                let got = sys.translate_once(va);
                assert_eq!(got, truth, "{name}: wrong translation for {va}");
                checked += 1;
            }
        }
        // And keep running afterwards — the probes must not have corrupted
        // any state.
        sys.run(20_000);
    }
}

/// After a page migration + TLB shootdown, every mechanism must observe
/// the new mapping (stale TLB entries, POM entries, and Victima TLB
/// blocks must all be dropped).
#[test]
fn shootdown_invalidates_every_cached_translation() {
    for cfg in [SystemConfig::radix(), SystemConfig::pom_tlb(), SystemConfig::victima()] {
        let name = cfg.name.clone();
        let (mut sys, _, _) = probe_system(cfg);
        sys.run(200_000);
        // Pick a mapped 4KB page (the Probe region mixes sizes; search).
        let mut rng = SplitMix64::new(7);
        // migrate_page works on 4KB pages; find a mapped one.
        let va = loop {
            let cand = VirtAddr::new(0x2000_0000 + rng.next_below(80 << 20));
            if sys.page_size_at(cand) == Some(victima_repro::types::PageSize::Size4K) {
                break cand;
            }
        };
        // Warm the translation into every structure.
        let old = sys.translate_once(va);
        assert_eq!(Some(old), sys.ground_truth(va));
        // Migrate and shoot down.
        let new = sys.migrate_page(va);
        assert_ne!(old, new, "{name}: migration must change the frame");
        sys.tlb_shootdown(va);
        let got = sys.translate_once(va);
        assert_eq!(got, new, "{name}: stale translation survived the shootdown");
        assert_eq!(Some(new), sys.ground_truth(va));
    }
}

/// A full context-switch flush must leave the system consistent and
/// functional.
#[test]
fn context_switch_flush_is_safe() {
    let (mut sys, _, _) = probe_system(SystemConfig::victima());
    sys.run(150_000);
    sys.context_switch_flush();
    // All translation state dropped; runs must still be correct.
    let mut rng = SplitMix64::new(3);
    let mut checked = 0;
    while checked < 500 {
        let va = VirtAddr::new(0x2000_0000 + rng.next_below(80 << 20));
        if let Some(truth) = sys.ground_truth(va) {
            assert_eq!(sys.translate_once(va), truth);
            checked += 1;
        }
    }
    sys.run(50_000);
}

/// Every registry workload runs end-to-end on the baseline at Tiny scale
/// without page faults and with plausible statistics.
#[test]
fn all_workloads_run_on_baseline() {
    for name in registry::WORKLOAD_NAMES {
        let spec = RunSpec::new(name, SystemConfig::radix(), Scale::Tiny, 2_000, 30_000);
        let stats = SimEngine::run_one(0, &spec).stats;
        assert!(stats.instructions >= 30_000, "{name}");
        assert!(stats.mem_refs > 0, "{name}");
        assert!(stats.cycles() > 0, "{name}");
        assert!(stats.l1_tlb_hits + stats.l1_tlb_misses >= stats.mem_refs, "{name}");
    }
}
