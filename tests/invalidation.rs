//! Unit tests for the invalidation paths the multi-core layer leans on:
//! single-page shootdowns, full context-switch flushes, page migration,
//! and ASID-selective invalidation (entries of *other* address spaces must
//! survive).

use sim::{System, SystemConfig};
use tlb_sim::{SetAssocTlb, TlbConfig, TlbEntry};
use vm_types::{Asid, PageSize, VirtAddr};
use workloads::{registry, Scale};

fn warm_system(cfg: &SystemConfig) -> (System, VirtAddr) {
    let mut sys = System::new(cfg.clone(), registry::by_name("RND", Scale::Tiny).unwrap());
    sys.run(5_000);
    // Find a 4KB-mapped address the TLBs now hold: translate a fresh one.
    let mut probe = 0x2000_0000u64;
    let va = loop {
        let va = VirtAddr::new(probe);
        if sys.page_size_at(va) == Some(PageSize::Size4K) {
            break va;
        }
        probe += 4096;
    };
    sys.translate_once(va);
    (sys, va)
}

/// After a shootdown, the next translation must re-walk (the stale frame
/// is gone from every TLB level) and agree with ground truth.
#[test]
fn tlb_shootdown_forces_rewalk_to_new_ground_truth() {
    for cfg in [SystemConfig::radix(), SystemConfig::victima(), SystemConfig::pom_tlb()] {
        let (mut sys, va) = warm_system(&cfg);
        let before = sys.ground_truth(va).expect("mapped");
        assert_eq!(sys.translate_once(va), before, "{}: warm TLB agrees", cfg.name);

        let after = sys.migrate_page(va);
        assert_ne!(after, before, "{}: migration must move the frame", cfg.name);
        sys.tlb_shootdown(va);

        assert_eq!(sys.translate_once(va), after, "{}: post-shootdown translation is fresh", cfg.name);
        assert_eq!(sys.ground_truth(va), Some(after));
    }
}

/// Without the shootdown, the stale TLB entry keeps translating to the old
/// frame — proving the shootdown (not the migration) does the work.
#[test]
fn migration_without_shootdown_leaves_stale_entries() {
    let (mut sys, va) = warm_system(&SystemConfig::radix());
    sys.allow_stale_translations();
    let before = sys.translate_once(va);
    let after = sys.migrate_page(va);
    assert_ne!(after, before);
    assert_eq!(sys.translate_once(va), before, "stale entry must still hit");
    assert_ne!(sys.ground_truth(va), Some(before), "page table already moved on");
}

/// The same stale hit without the opt-out trips the debug-build
/// translation oracle.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "translation oracle")]
fn stale_translation_trips_the_oracle() {
    let (mut sys, va) = warm_system(&SystemConfig::radix());
    sys.migrate_page(va);
    sys.translate_once(va);
}

/// A full context-switch flush drops every translation; the stream keeps
/// running correctly afterwards (it re-walks everything).
#[test]
fn context_switch_flush_drops_all_translations() {
    let (mut sys, va) = warm_system(&SystemConfig::victima());
    let truth = sys.ground_truth(va).expect("mapped");
    let walks_before = sys.stats.ptws;
    sys.context_switch_flush();
    let l2_misses_before = sys.stats.l2_tlb_misses;
    assert_eq!(sys.translate_once(va), truth, "flush must not corrupt translation");
    assert!(sys.stats.l2_tlb_misses > l2_misses_before, "first post-flush access misses");
    assert!(sys.stats.ptws > walks_before, "and must walk the page table");
}

/// ASID-selective invalidation on the raw TLB: victims of the flushed
/// address space disappear, every other ASID's entry survives.
#[test]
fn invalidate_asid_spares_other_address_spaces() {
    let mut tlb = SetAssocTlb::new(TlbConfig { name: "T", entries: 64, ways: 4, latency: 1 });
    let (a, b, c) = (Asid::new(1), Asid::new(2), Asid::new(3));
    for vpn in 0..8u64 {
        tlb.fill(TlbEntry::new(vpn, a, PageSize::Size4K, vpn));
        tlb.fill(TlbEntry::new(vpn, b, PageSize::Size4K, 100 + vpn));
        tlb.fill(TlbEntry::new(vpn, c, PageSize::Size2M, 200 + vpn));
    }
    assert_eq!(tlb.invalidate_asid(b), 8);
    for vpn in 0..8u64 {
        assert!(tlb.probe(vpn, b, PageSize::Size4K).is_none(), "ASID 2 flushed");
        assert_eq!(tlb.probe(vpn, a, PageSize::Size4K).expect("ASID 1 survives").frame, vpn);
        assert_eq!(tlb.probe(vpn, c, PageSize::Size2M).expect("ASID 3 survives").frame, 200 + vpn);
    }
    assert_eq!(tlb.invalidate_asid(b), 0, "second selective flush finds nothing");
}

/// The system-level ASID-selective path: after `invalidate_asid` for the
/// resident space, translations re-walk, and the invalidation count is
/// visible in the TLB statistics.
#[test]
fn system_invalidate_asid_forces_rewalk() {
    let (mut sys, va) = warm_system(&SystemConfig::victima());
    let truth = sys.ground_truth(va).expect("mapped");
    let asid = sys.process().asid();
    let dropped = sys.invalidate_asid(asid);
    assert!(dropped > 0, "a warm system holds entries to drop");
    let walks_before = sys.stats.ptws;
    assert_eq!(sys.translate_once(va), truth);
    assert!(sys.stats.ptws > walks_before, "selective flush forces a re-walk");
    // Invalidating a never-used ASID is a no-op.
    assert_eq!(sys.invalidate_asid(Asid::new(999)), 0);
}
