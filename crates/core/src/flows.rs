//! Victima's runtime engine: the translation-path probe, the two insertion
//! flows and the TLB maintenance operations.
//!
//! - **Probe (Fig. 17)**: on an L2 TLB miss the L2 cache is probed twice in
//!   parallel — once under a 4KB-page tag, once under a 2MB-page tag —
//!   alongside the page-table walk; a hit aborts the walk.
//! - **Insertion on L2 TLB miss (Fig. 14)**: if PTW-CP predicts the page
//!   costly-to-translate, the data block holding the just-fetched leaf PTE
//!   cluster is *transformed* into a TLB block (re-tagged under the
//!   virtual page-group number; the PA-indexed data copy is invalidated).
//! - **Insertion on L2 TLB eviction**: if PTW-CP is positive and the block
//!   is absent, a background walk fetches the PTE cluster and transforms
//!   it (the `sim` crate performs the actual walk; see
//!   [`Victima::wants_eviction_insert`]).
//! - **Maintenance (Sec. 6)**: full flush, per-ASID flush, and single-VA
//!   shootdown over the TLB blocks residing in the L2.
//!
//! Nested TLB blocks (virtualised mode, Figs. 18–19) use the same engine
//! with [`BlockKind::NestedTlb`].

use crate::predictor::PtwCostPredictor;
use crate::tlb_block::tlb_block_index;
use mem_sim::{BlockKind, Cache, ReplacementCtx};
use tlb_sim::WalkOutcome;
use vm_types::{Asid, PageSize, VirtAddr};

/// Static configuration of the engine.
#[derive(Clone, Debug)]
pub struct VictimaConfig {
    /// Insert TLB blocks on L2 TLB misses (Fig. 14 top flow).
    pub insert_on_miss: bool,
    /// Insert TLB blocks on L2 TLB evictions (background walks).
    pub insert_on_eviction: bool,
    /// Comparator thresholds for the PTW cost predictor.
    pub thresholds: crate::predictor::Thresholds,
}

impl Default for VictimaConfig {
    fn default() -> Self {
        Self {
            insert_on_miss: true,
            insert_on_eviction: true,
            thresholds: crate::predictor::Thresholds::default(),
        }
    }
}

/// The Victima engine. One instance per core; it owns the PTW cost
/// predictor and operates on the L2 cache passed into each call.
#[derive(Clone, Debug, Default)]
pub struct Victima {
    /// Configuration.
    pub cfg: VictimaConfig,
    /// The PTW cost predictor.
    pub predictor: PtwCostPredictor,
}

/// Outcome of a successful translation-path probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeHit {
    /// Page size of the TLB block that hit.
    pub size: PageSize,
}

impl Victima {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: VictimaConfig) -> Self {
        Self { predictor: PtwCostPredictor::with_thresholds(cfg.thresholds), cfg }
    }

    /// The Fig. 17 probe: two parallel typed lookups (4KB and 2MB page
    /// tags). Returns the hit, if any; the caller serves the translation
    /// from the block (one L2 access latency) and aborts the PTW.
    pub fn probe(
        &mut self,
        l2: &mut Cache,
        va: VirtAddr,
        asid: Asid,
        kind: BlockKind,
        ctx: &ReplacementCtx,
    ) -> Option<ProbeHit> {
        debug_assert!(kind.is_translation());
        let sets = l2.num_sets();
        for size in PageSize::ALL {
            let (set, tag) = tlb_block_index(va, size, sets);
            if l2.probe_translation(set, tag, kind, asid, size, ctx) {
                return Some(ProbeHit { size });
            }
        }
        None
    }

    /// Non-destructive presence check (step ② in Figs. 14/18).
    pub fn block_present(
        &self,
        l2: &Cache,
        va: VirtAddr,
        asid: Asid,
        kind: BlockKind,
        size: PageSize,
    ) -> bool {
        let (set, tag) = tlb_block_index(va, size, l2.num_sets());
        l2.contains_translation(set, tag, kind, asid, size)
    }

    /// The L2-TLB-miss insertion flow (Fig. 14): consult PTW-CP with the
    /// counters the walk just fetched; on a positive prediction, transform
    /// the leaf PTE cluster's cache block into a TLB block. Returns whether
    /// a block was inserted.
    pub fn insert_after_walk(
        &mut self,
        l2: &mut Cache,
        va: VirtAddr,
        asid: Asid,
        kind: BlockKind,
        walk: &WalkOutcome,
        ctx: &ReplacementCtx,
    ) -> bool {
        let (freq, cost) = (walk.leaf_pte.ptw_freq(), walk.leaf_pte.ptw_cost());
        self.cfg.insert_on_miss
            && self.predictor.should_insert(freq, cost, ctx)
            && transform(l2, va, asid, kind, walk, ctx)
    }

    /// First half of the eviction flow: should the MMU issue a background
    /// walk for this evicted L2 TLB entry? (PTW-CP positive and block not
    /// already present.) `freq`/`cost` are the counter snapshots the entry
    /// carried.
    #[allow(clippy::too_many_arguments)]
    pub fn wants_eviction_insert(
        &mut self,
        l2: &Cache,
        va: VirtAddr,
        asid: Asid,
        kind: BlockKind,
        size: PageSize,
        freq: u8,
        cost: u8,
        ctx: &ReplacementCtx,
    ) -> bool {
        self.cfg.insert_on_eviction
            && self.predictor.should_insert(freq, cost, ctx)
            && !self.block_present(l2, va, asid, kind, size)
    }

    /// Second half of the eviction flow: the caller performed the
    /// background walk (off the critical path); transform its leaf block.
    pub fn insert_after_eviction_walk(
        &mut self,
        l2: &mut Cache,
        va: VirtAddr,
        asid: Asid,
        kind: BlockKind,
        walk: &WalkOutcome,
        ctx: &ReplacementCtx,
    ) -> bool {
        // The predictor already approved this insertion in
        // `wants_eviction_insert`; transform unconditionally.
        transform(l2, va, asid, kind, walk, ctx)
    }

    /// Sec. 6.1(i): invalidate all TLB blocks (full TLB flush).
    pub fn flush_all(&mut self, l2: &mut Cache) -> usize {
        l2.invalidate_translation_blocks(|_| true)
    }

    /// Sec. 6.1(ii): invalidate all TLB blocks of one address space.
    pub fn flush_asid(&mut self, l2: &mut Cache, asid: Asid) -> usize {
        l2.invalidate_translation_blocks(|b| b.asid == asid)
    }

    /// Sec. 6.2(i): single-entry shootdown. Invalidating one TLB entry
    /// drops the whole 8-entry block (both page-size views are checked).
    pub fn shootdown(&mut self, l2: &mut Cache, va: VirtAddr, asid: Asid) -> bool {
        let sets = l2.num_sets();
        let mut any = false;
        for kind in [BlockKind::Tlb, BlockKind::NestedTlb] {
            for size in PageSize::ALL {
                let (set, tag) = tlb_block_index(va, size, sets);
                any |= l2.invalidate_translation_at(set, tag, kind, asid, size);
            }
        }
        any
    }

    /// Sec. 6.2(ii): range shootdown — one command per page in the range.
    pub fn shootdown_range(&mut self, l2: &mut Cache, base: VirtAddr, bytes: u64, asid: Asid) -> usize {
        let mut dropped = 0;
        let mut off = 0;
        while off < bytes {
            if self.shootdown(l2, base.add(off), asid) {
                dropped += 1;
            }
            off += PageSize::Size4K.bytes();
        }
        dropped
    }

    /// Translation reach provided by the TLB blocks currently in the L2
    /// cache, in bytes, assuming 4KB pages as in Fig. 23.
    pub fn reach_bytes(&self, l2: &Cache) -> u64 {
        l2.translation_block_count() as u64 * crate::tlb_block::block_coverage_bytes(PageSize::Size4K)
    }
}

/// Transforms the leaf PTE cluster `walk` fetched into a TLB block:
/// unless the block is already resident, drops the cluster's PA-indexed
/// data copy (the walk just brought it into the L2) and inserts the
/// VA-indexed TLB block. Returns whether a block was inserted.
fn transform(
    l2: &mut Cache,
    va: VirtAddr,
    asid: Asid,
    kind: BlockKind,
    walk: &WalkOutcome,
    ctx: &ReplacementCtx,
) -> bool {
    let (set, tag) = tlb_block_index(va, walk.page_size, l2.num_sets());
    if l2.contains_translation(set, tag, kind, asid, walk.page_size) {
        return false;
    }
    l2.invalidate_data(walk.leaf_pte_paddr);
    l2.fill_translation(set, tag, kind, asid, walk.page_size, ctx);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_sim::{CacheConfig, Hierarchy, HierarchyConfig};
    use page_table::{FrameAllocator, RadixPageTable};
    use tlb_sim::PageTableWalker;

    fn l2() -> Cache {
        Cache::new(
            CacheConfig { name: "L2", size_bytes: 2 << 20, ways: 16, block_bytes: 64, latency: 16 },
            mem_sim::Policy::tlb_aware_srrip(),
        )
    }

    /// Builds a real walk outcome against a real page table + hierarchy.
    fn walk_for(
        va: VirtAddr,
        size: PageSize,
    ) -> (WalkOutcome, Cache, RadixPageTable, Hierarchy, FrameAllocator) {
        let mut alloc = FrameAllocator::new(1 << 30, 3);
        let mut pt = RadixPageTable::new(&mut alloc);
        let frame = alloc.alloc(size);
        pt.map(va, frame, size, &mut alloc);
        let mut hier = Hierarchy::new(HierarchyConfig { prefetchers: false, ..HierarchyConfig::default() });
        let mut walker = PageTableWalker::new();
        let ctx = ReplacementCtx::default();
        let walk = walker.walk(&mut pt, va, Asid::new(1), &mut hier, &ctx).unwrap();
        (walk, l2(), pt, hier, alloc)
    }

    const PRESSURE: ReplacementCtx = ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 0.0 };

    #[test]
    fn miss_flow_inserts_when_predictor_positive() {
        let va = VirtAddr::new(0x4000_0000);
        let (walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        let mut v = Victima::default();
        // Cold page: freq=1, cost=1 after the first walk → inside the box.
        assert!(v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &PRESSURE));
        assert_eq!(l2.translation_block_count(), 1);
        // Probe now hits under the 4KB tag.
        let hit = v.probe(&mut l2, va, Asid::new(1), BlockKind::Tlb, &PRESSURE).unwrap();
        assert_eq!(hit.size, PageSize::Size4K);
    }

    #[test]
    fn predictor_negative_suppresses_insert() {
        let va = VirtAddr::new(0x4100_0000);
        let (mut walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        // Forge a leaf PTE with zero counters (outside the bounding box).
        walk.leaf_pte = page_table::Pte::leaf(walk.frame, walk.page_size);
        let mut v = Victima::default();
        assert!(!v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &PRESSURE));
        assert_eq!(l2.translation_block_count(), 0);
    }

    #[test]
    fn high_cache_mpki_bypasses_predictor() {
        let va = VirtAddr::new(0x4200_0000);
        let (mut walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        walk.leaf_pte = page_table::Pte::leaf(walk.frame, walk.page_size);
        let thrash = ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 40.0 };
        let mut v = Victima::default();
        assert!(v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &thrash));
    }

    #[test]
    fn transform_invalidates_data_copy() {
        let va = VirtAddr::new(0x4300_0000);
        let (walk, mut l2, _pt, mut hier, _a) = walk_for(va, PageSize::Size4K);
        // Load the leaf cluster into our test L2 as a data block first.
        let ctx = ReplacementCtx::default();
        l2.fill_data(walk.leaf_pte_paddr, false, false, &ctx);
        assert!(l2.contains_data(walk.leaf_pte_paddr));
        let mut v = Victima::default();
        assert!(v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &PRESSURE));
        assert!(!l2.contains_data(walk.leaf_pte_paddr), "data copy must be gone");
        let _ = &mut hier;
    }

    #[test]
    fn duplicate_insert_is_suppressed() {
        let va = VirtAddr::new(0x4400_0000);
        let (walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        let mut v = Victima::default();
        assert!(v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &PRESSURE));
        assert!(!v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &PRESSURE));
        assert_eq!(l2.translation_block_count(), 1);
    }

    #[test]
    fn eviction_flow_two_phase() {
        let va = VirtAddr::new(0x4500_0000);
        let (walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        let mut v = Victima::default();
        let a = Asid::new(1);
        // Positive counters → wants a background walk.
        assert!(v.wants_eviction_insert(&l2, va, a, BlockKind::Tlb, PageSize::Size4K, 2, 3, &PRESSURE));
        assert!(v.insert_after_eviction_walk(&mut l2, va, a, BlockKind::Tlb, &walk, &PRESSURE));
        assert_eq!(l2.translation_block_count(), 1);
        // A second transform of a resident block is suppressed.
        assert!(!v.insert_after_eviction_walk(&mut l2, va, a, BlockKind::Tlb, &walk, &PRESSURE));
        // Now present → second eviction of the same page does nothing.
        assert!(!v.wants_eviction_insert(&l2, va, a, BlockKind::Tlb, PageSize::Size4K, 2, 3, &PRESSURE));
        // Zero counters → predictor rejects.
        assert!(!v.wants_eviction_insert(
            &l2,
            VirtAddr::new(0x9990_0000),
            a,
            BlockKind::Tlb,
            PageSize::Size4K,
            0,
            0,
            &PRESSURE
        ));
    }

    #[test]
    fn probe_distinguishes_block_kinds() {
        let va = VirtAddr::new(0x4600_0000);
        let (walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        let mut v = Victima::default();
        v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::NestedTlb, &walk, &PRESSURE);
        assert!(v.probe(&mut l2, va, Asid::new(1), BlockKind::Tlb, &PRESSURE).is_none());
        assert!(v.probe(&mut l2, va, Asid::new(1), BlockKind::NestedTlb, &PRESSURE).is_some());
    }

    #[test]
    fn probe_finds_2m_blocks() {
        let va = VirtAddr::new(0x8000_0000);
        let (walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size2M);
        let mut v = Victima::default();
        assert!(v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &PRESSURE));
        // Any address within the 16MB the block covers hits.
        let hit =
            v.probe(&mut l2, VirtAddr::new(0x8000_0000 + (5 << 20)), Asid::new(1), BlockKind::Tlb, &PRESSURE);
        assert_eq!(hit.unwrap().size, PageSize::Size2M);
    }

    #[test]
    fn maintenance_operations_drop_blocks() {
        let va = VirtAddr::new(0x4700_0000);
        let (walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        let mut v = Victima::default();
        let a1 = Asid::new(1);
        v.insert_after_walk(&mut l2, va, a1, BlockKind::Tlb, &walk, &PRESSURE);
        // Shootdown of any page in the 8-page cluster drops the block.
        assert!(v.shootdown(&mut l2, va.add(3 * 4096), a1));
        assert_eq!(l2.translation_block_count(), 0);
        // Re-insert then flush by ASID.
        v.insert_after_eviction_walk(&mut l2, va, a1, BlockKind::Tlb, &walk, &PRESSURE);
        assert_eq!(v.flush_asid(&mut l2, Asid::new(9)), 0);
        assert_eq!(v.flush_asid(&mut l2, a1), 1);
        // Re-insert then full flush.
        v.insert_after_eviction_walk(&mut l2, va, a1, BlockKind::Tlb, &walk, &PRESSURE);
        assert_eq!(v.flush_all(&mut l2), 1);
    }

    #[test]
    fn reach_counts_blocks_times_32kb() {
        let va = VirtAddr::new(0x4800_0000);
        let (walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        let mut v = Victima::default();
        assert_eq!(v.reach_bytes(&l2), 0);
        v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &PRESSURE);
        assert_eq!(v.reach_bytes(&l2), 32 << 10);
    }

    #[test]
    fn range_shootdown_covers_all_pages() {
        let va = VirtAddr::new(0x4900_0000);
        let (walk, mut l2, _pt, _hier, _a) = walk_for(va, PageSize::Size4K);
        let mut v = Victima::default();
        v.insert_after_walk(&mut l2, va, Asid::new(1), BlockKind::Tlb, &walk, &PRESSURE);
        let dropped = v.shootdown_range(&mut l2, va, 32 << 10, Asid::new(1));
        assert_eq!(dropped, 1, "first page's command drops the block; rest are no-ops");
        assert_eq!(l2.translation_block_count(), 0);
    }
}
