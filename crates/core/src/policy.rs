//! The TLB-aware SRRIP replacement policy (Listing 1 of the paper).
//!
//! Three deviations from baseline SRRIP, all gated on high translation
//! pressure (L2 TLB MPKI > 5):
//!
//! 1. **Insertion**: TLB blocks are inserted with a re-reference interval
//!    of 0 (near-immediate reuse predicted) instead of the long interval.
//! 2. **Victim selection**: if the chosen victim is a TLB block, one more
//!    attempt is made to find a non-TLB victim.
//! 3. **Promotion**: a hit on a TLB block lowers its RRPV by 3 instead of
//!    1, keeping hot translation clusters resident.
//!
//! The implementation lives in `mem_sim` as the
//! [`Policy::TlbAwareSrrip`](mem_sim::Policy) variant — replacement is
//! dispatched statically on the cache's hot path, so the policy is an
//! enum variant rather than a trait object; this module re-exports it and
//! keeps the paper-facing behavioural tests. Build a TLB-aware L2 like
//! any other cache:
//!
//! ```
//! use mem_sim::{Cache, CacheConfig, Policy};
//!
//! let cache = Cache::new(
//!     CacheConfig { name: "L2", size_bytes: 2 << 20, ways: 16, block_bytes: 64, latency: 16 },
//!     Policy::tlb_aware_srrip(),
//! );
//! assert_eq!(cache.policy_name(), "TLB-aware-SRRIP");
//! ```

pub use mem_sim::{Policy, ReplacementCtx, RRIP_INSERT, RRIP_MAX};

#[cfg(test)]
mod tests {
    use super::*;
    use mem_sim::{BlockKind, Cache, CacheConfig};
    use vm_types::{Asid, PageSize, PhysAddr};

    const PRESSURE: ReplacementCtx = ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 0.0 };
    const CALM: ReplacementCtx = ReplacementCtx { l2_tlb_mpki: 0.0, l2_cache_mpki: 0.0 };

    /// A 2-way single-purpose cache: one set exercises Listing 1 end to
    /// end through the real packed-array scan paths.
    fn two_way() -> Cache {
        Cache::new(
            CacheConfig { name: "T", size_bytes: 128, ways: 2, block_bytes: 64, latency: 16 },
            Policy::tlb_aware_srrip(),
        )
    }

    #[test]
    fn tlb_blocks_survive_data_pressure_under_high_mpki() {
        // A TLB block inserted under pressure (RRPV 0) outlives several
        // conflicting data fills: victim selection keeps diverting to the
        // aged data ways until the TLB block itself reaches RRIP_MAX with
        // no non-TLB alternative (Listing 1 grants exactly one retry).
        let mut c = two_way();
        c.fill_translation(0, 0x1, BlockKind::Tlb, Asid::new(1), PageSize::Size4K, &PRESSURE);
        for i in 0..4u64 {
            c.fill_data(PhysAddr::new(i * 128), false, false, &PRESSURE);
        }
        assert!(
            c.contains_translation(0, 0x1, BlockKind::Tlb, Asid::new(1), PageSize::Size4K),
            "the TLB block must still be resident after 4 conflicting data fills"
        );
        assert_eq!(c.translation_block_count(), 1);
    }

    #[test]
    fn tlb_blocks_are_ordinary_without_pressure() {
        // Without translation pressure the same stream evicts the TLB
        // block at the very first capacity conflict (it is the first way
        // the SRRIP scan reaches at RRIP_MAX).
        let mut c = two_way();
        c.fill_translation(0, 0x1, BlockKind::Tlb, Asid::new(1), PageSize::Size4K, &CALM);
        for i in 0..2u64 {
            c.fill_data(PhysAddr::new(i * 128), false, false, &CALM);
        }
        assert_eq!(c.translation_block_count(), 0, "calm-mode TLB blocks get no protection");
    }

    #[test]
    fn all_tlb_set_still_yields_victims() {
        // Even under pressure a set full of TLB blocks must accept fills.
        let mut c = two_way();
        let evicted = (0..4u64)
            .filter_map(|tag| {
                c.fill_translation(0, tag, BlockKind::Tlb, Asid::new(1), PageSize::Size4K, &PRESSURE)
            })
            .filter(|e| e.block.kind == BlockKind::Tlb)
            .count();
        assert_eq!(c.translation_block_count(), 2, "2-way set holds exactly two TLB blocks");
        assert_eq!(evicted, 2);
    }

    #[test]
    fn hot_tlb_blocks_out_promote_hot_data() {
        // Promotion asymmetry: after one hit each, the TLB block sits at
        // RRPV 0 while the data block is still aging toward RRIP_MAX, so
        // the next conflict evicts the data line (no-pressure scan order
        // would have preferred the TLB way).
        let mut c = two_way();
        c.fill_translation(0, 0x1, BlockKind::Tlb, Asid::new(1), PageSize::Size4K, &PRESSURE);
        c.fill_data(PhysAddr::new(0), false, false, &PRESSURE);
        assert!(c.probe_translation(0, 0x1, BlockKind::Tlb, Asid::new(1), PageSize::Size4K, &PRESSURE));
        assert!(c.access_data(PhysAddr::new(0), false, &PRESSURE));
        c.fill_data(PhysAddr::new(128), false, false, &PRESSURE);
        assert!(c.contains_translation(0, 0x1, BlockKind::Tlb, Asid::new(1), PageSize::Size4K));
        assert!(!c.contains_data(PhysAddr::new(0)), "the data line lost the eviction race");
    }

    #[test]
    fn nested_tlb_blocks_get_the_same_treatment() {
        let mut c = two_way();
        c.fill_translation(0, 0x1, BlockKind::NestedTlb, Asid::new(1), PageSize::Size4K, &PRESSURE);
        for i in 0..4u64 {
            c.fill_data(PhysAddr::new(i * 128), false, false, &PRESSURE);
        }
        assert_eq!(c.translation_block_count(), 1, "nested blocks enjoy Listing 1 too");
    }
}
