//! The hardware page-table walker.
//!
//! On an L2 TLB miss the MMU triggers a walk (Fig. 2): the walker probes
//! the split PWCs, then issues one cache-hierarchy access per remaining
//! page-table level, pointer-chasing serially. The walker also updates the
//! PTE-embedded PTW frequency/cost counters that Victima's predictor reads
//! (Sec. 5.2). It keeps no statistics: each [`WalkOutcome`] carries the
//! walk's latency, DRAM touch and depth, and the caller counts them.
//!
//! The same walker is reused for the host page table and the shadow page
//! table in virtualised mode; the 2D nested-walk *flow* is composed in the
//! `sim` crate from two walkers plus the nested TLB.

use crate::pwc::{PageWalkCaches, PWC_LATENCY};
use mem_sim::{Hierarchy, MemClass, ReplacementCtx};
use page_table::{Pte, RadixPageTable};
use vm_types::{Asid, Cycles, PageSize, PhysAddr, VirtAddr};

/// Result of one page-table walk.
#[derive(Clone, Copy, Debug)]
pub struct WalkOutcome {
    /// Total walk latency (PWC probe + serial memory accesses).
    pub latency: Cycles,
    /// Whether any access during the walk touched DRAM.
    pub dram_touched: bool,
    /// Output frame (4KB-frame number of the page base).
    pub frame: u64,
    /// Page size of the mapping.
    pub page_size: PageSize,
    /// Leaf PTE value *after* the counter updates of this walk.
    pub leaf_pte: Pte,
    /// Physical address of the leaf PTE (its 64B block holds the cluster
    /// of 8 PTEs that Victima transforms into a TLB block).
    pub leaf_pte_paddr: PhysAddr,
    /// Number of memory accesses the walk issued (0 when all upper levels
    /// hit in the PWC is impossible — the leaf always goes to memory).
    pub memory_accesses: u8,
}

/// A hardware page-table walker with its split PWCs.
#[derive(Debug, Default)]
pub struct PageTableWalker {
    /// The split page-walk caches.
    pub pwc: PageWalkCaches,
}

impl PageTableWalker {
    /// Creates a walker with cold PWCs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Performs one walk of `pt` for `va`, issuing real hierarchy accesses
    /// for the levels not covered by the PWCs. Returns `None` if `va` is
    /// unmapped (a page fault, which the simulated workloads never incur).
    pub fn walk(
        &mut self,
        pt: &mut RadixPageTable,
        va: VirtAddr,
        asid: Asid,
        hier: &mut Hierarchy,
        ctx: &ReplacementCtx,
    ) -> Option<WalkOutcome> {
        let walk = pt.walk(va)?;
        let leaf_level = walk.page_size.leaf_level();
        let mut latency = PWC_LATENCY;
        let deepest = self.pwc.deepest_hit(va, asid, leaf_level);
        let mut dram_touched = false;
        let mut accesses = 0u8;
        for step in walk.steps() {
            // Skip levels whose results the PWC already holds: a hit at
            // PWC level l covers levels 3..=l.
            if let Some(l) = deepest {
                if step.level >= l {
                    continue;
                }
            }
            let r = hier.access(step.pte_paddr, false, MemClass::Ptw, ctx);
            latency += r.latency;
            dram_touched |= r.dram_access;
            accesses += 1;
        }
        self.pwc.fill_all(va, asid, leaf_level);

        let mut leaf_pte = walk.leaf_pte;
        pt.update_leaf(va, |pte| {
            pte.bump_ptw_freq();
            if dram_touched {
                pte.bump_ptw_cost();
            }
            leaf_pte = *pte;
        });

        Some(WalkOutcome {
            latency,
            dram_touched,
            frame: walk.frame,
            page_size: walk.page_size,
            leaf_pte,
            leaf_pte_paddr: walk.leaf_pte_paddr(),
            memory_accesses: accesses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_sim::HierarchyConfig;
    use page_table::FrameAllocator;

    fn setup() -> (FrameAllocator, RadixPageTable, Hierarchy, PageTableWalker) {
        let mut alloc = FrameAllocator::new(1 << 30, 5);
        let pt = RadixPageTable::new(&mut alloc);
        let hier = Hierarchy::new(HierarchyConfig { prefetchers: false, ..HierarchyConfig::default() });
        (alloc, pt, hier, PageTableWalker::new())
    }

    #[test]
    fn cold_walk_issues_four_accesses() {
        let (mut alloc, mut pt, mut hier, mut w) = setup();
        let va = VirtAddr::new(0x4000_0000);
        let frame = alloc.alloc_4k();
        pt.map(va, frame, PageSize::Size4K, &mut alloc);
        let ctx = ReplacementCtx::default();
        let out = w.walk(&mut pt, va, Asid::new(1), &mut hier, &ctx).expect("mapped");
        assert_eq!(out.memory_accesses, 4);
        assert_eq!(out.frame, frame);
        assert!(out.dram_touched);
        assert!(out.latency > 100, "cold walk should reach DRAM, got {}", out.latency);
    }

    #[test]
    fn warm_walk_uses_pwc_and_is_much_faster() {
        let (mut alloc, mut pt, mut hier, mut w) = setup();
        let va = VirtAddr::new(0x4000_0000);
        pt.map(va, alloc.alloc_4k(), PageSize::Size4K, &mut alloc);
        // A neighbouring page in the same PD region (same leaf table).
        let vb = VirtAddr::new(0x4000_1000);
        pt.map(vb, alloc.alloc_4k(), PageSize::Size4K, &mut alloc);
        let ctx = ReplacementCtx::default();
        w.walk(&mut pt, va, Asid::new(1), &mut hier, &ctx).unwrap();
        let out = w.walk(&mut pt, vb, Asid::new(1), &mut hier, &ctx).unwrap();
        assert_eq!(out.memory_accesses, 1, "PWC covers all upper levels");
        // The leaf block was just fetched into L2 by the first walk.
        assert_eq!(out.latency, PWC_LATENCY + 16);
    }

    #[test]
    fn walk_updates_pte_counters() {
        let (mut alloc, mut pt, mut hier, mut w) = setup();
        let va = VirtAddr::new(0x5000_0000);
        pt.map(va, alloc.alloc_4k(), PageSize::Size4K, &mut alloc);
        let ctx = ReplacementCtx::default();
        let o1 = w.walk(&mut pt, va, Asid::new(1), &mut hier, &ctx).unwrap();
        assert_eq!(o1.leaf_pte.ptw_freq(), 1);
        assert_eq!(o1.leaf_pte.ptw_cost(), 1, "cold walk touched DRAM");
        let o2 = w.walk(&mut pt, va, Asid::new(1), &mut hier, &ctx).unwrap();
        assert_eq!(o2.leaf_pte.ptw_freq(), 2);
        assert_eq!(o2.leaf_pte.ptw_cost(), 1, "warm walk stayed in caches");
    }

    #[test]
    fn huge_page_walk_is_three_levels() {
        let (mut alloc, mut pt, mut hier, mut w) = setup();
        let va = VirtAddr::new(0x8000_0000);
        pt.map(va, alloc.alloc_2m(), PageSize::Size2M, &mut alloc);
        let ctx = ReplacementCtx::default();
        let out = w.walk(&mut pt, va, Asid::new(1), &mut hier, &ctx).unwrap();
        assert_eq!(out.memory_accesses, 3);
        assert_eq!(out.page_size, PageSize::Size2M);
    }

    #[test]
    fn unmapped_walk_returns_none() {
        let (_, mut pt, mut hier, mut w) = setup();
        let ctx = ReplacementCtx::default();
        assert!(w.walk(&mut pt, VirtAddr::new(0x123), Asid::new(1), &mut hier, &ctx).is_none());
    }
}
