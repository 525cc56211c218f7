//! The hardware page-table walker: the simulator's one walk loop.
//!
//! On an L2 TLB miss the MMU triggers a walk (Fig. 2): the walker probes
//! the split PWCs, then issues one cache-hierarchy access per remaining
//! page-table level, pointer-chasing serially. The walker also updates the
//! PTE-embedded PTW frequency/cost counters that Victima's predictor reads
//! (Sec. 5.2). It keeps no statistics: each [`WalkOutcome`] carries the
//! walk's latency, DRAM touch and depth, and the caller counts them.
//!
//! [`walk`] runs over a [`WalkEnv`]: a table, its PWCs and a per-step hook
//! that reads one PTE. [`PageTableWalker::walk`] is the one-dimensional
//! walk (native, host and I-SP shadow tables, Victima's background walks),
//! whose hook reads each PTE at its own address. The `sim` crate's nested
//! 2D walk (Sec. 2.3) runs the same loop over the guest table with a hook
//! that first translates each guest PTE address gPA→hPA.

use crate::pwc::{PageWalkCaches, PWC_LATENCY};
use mem_sim::{AccessResult, Hierarchy, MemClass, ReplacementCtx};
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
    /// Number of memory accesses the walk issued: at least one, since the
    /// PWCs never cover the leaf level.
    pub memory_accesses: u8,
}

/// What a walk runs over. Each method borrows only for its call, so
/// [`WalkEnv::read_pte`] may re-enter whatever owns the table and the PWCs
/// (a nested walk's host translation walks another table).
pub trait WalkEnv {
    /// The table walked.
    fn table(&mut self) -> &mut RadixPageTable;
    /// The PWCs covering the table's upper levels.
    fn pwc(&mut self) -> &mut PageWalkCaches;
    /// Reads the PTE at `pte_addr`. Returns the address actually read, the
    /// hierarchy access and the cycles spent translating `pte_addr` into
    /// that address first.
    fn read_pte(&mut self, pte_addr: PhysAddr) -> (PhysAddr, AccessResult, Cycles);
}

/// Walks `env`'s table for `va`, reading the PTE of every level the PWCs
/// do not cover. Returns the walk and the translation cycles its PTE reads
/// spent, which its `latency` leaves out; `None` if `va` is unmapped (a
/// page fault, which the simulated workloads never incur).
pub fn walk<E: WalkEnv>(env: &mut E, va: VirtAddr, asid: Asid) -> Option<(WalkOutcome, Cycles)> {
    let walk = env.table().walk(va)?;
    let leaf_level = walk.page_size.leaf_level();
    let mut latency = PWC_LATENCY;
    let mut translation: Cycles = 0;
    let deepest = env.pwc().deepest_hit(va, asid, leaf_level);
    let mut dram_touched = false;
    let mut accesses = 0u8;
    let mut leaf_pte_paddr = PhysAddr::new(0);
    for step in walk.steps() {
        // Skip levels whose results the PWC already holds: a hit at
        // PWC level l covers levels 3..=l. The PWCs never cover the leaf
        // level, so the last address read is the leaf PTE's.
        if let Some(l) = deepest {
            if step.level >= l {
                continue;
            }
        }
        let (addr, r, t) = env.read_pte(step.pte_paddr);
        leaf_pte_paddr = addr;
        translation += t;
        latency += r.latency;
        dram_touched |= r.dram_access;
        accesses += 1;
    }
    env.pwc().fill_all(va, asid, leaf_level);

    let mut leaf_pte = walk.leaf_pte;
    env.table().update_leaf(va, |pte| {
        pte.bump_ptw_freq();
        if dram_touched {
            pte.bump_ptw_cost();
        }
        leaf_pte = *pte;
    });

    let outcome = WalkOutcome {
        latency,
        dram_touched,
        frame: walk.frame,
        page_size: walk.page_size,
        leaf_pte,
        leaf_pte_paddr,
        memory_accesses: accesses,
    };
    Some((outcome, translation))
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
        walk(&mut FlatWalk { pt, pwc: &mut self.pwc, hier, ctx }, va, asid).map(|(w, _)| w)
    }
}

/// A one-dimensional walk: every PTE is read at its own address.
struct FlatWalk<'a> {
    pt: &'a mut RadixPageTable,
    pwc: &'a mut PageWalkCaches,
    hier: &'a mut Hierarchy,
    ctx: &'a ReplacementCtx,
}

impl WalkEnv for FlatWalk<'_> {
    fn table(&mut self) -> &mut RadixPageTable {
        self.pt
    }

    fn pwc(&mut self) -> &mut PageWalkCaches {
        self.pwc
    }

    fn read_pte(&mut self, pte_addr: PhysAddr) -> (PhysAddr, AccessResult, Cycles) {
        (pte_addr, self.hier.access(pte_addr, false, MemClass::Ptw, self.ctx), 0)
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

    /// A fake 2D environment: each PTE address is offset before it is read,
    /// at a fixed translation cost and a fixed read latency.
    struct Offsetting<'a> {
        pt: &'a mut RadixPageTable,
        pwc: &'a mut PageWalkCaches,
        requested: Vec<PhysAddr>,
    }

    const OFFSET: u64 = 1 << 40;
    const TRANSLATE: Cycles = 7;
    const READ: Cycles = 30;

    impl WalkEnv for Offsetting<'_> {
        fn table(&mut self) -> &mut RadixPageTable {
            self.pt
        }

        fn pwc(&mut self) -> &mut PageWalkCaches {
            self.pwc
        }

        fn read_pte(&mut self, pte_addr: PhysAddr) -> (PhysAddr, AccessResult, Cycles) {
            self.requested.push(pte_addr);
            let r = AccessResult { latency: READ, served_by: mem_sim::MemLevel::L2, dram_access: false };
            (PhysAddr::new(pte_addr.raw() + OFFSET), r, TRANSLATE)
        }
    }

    #[test]
    fn hook_translates_every_read_and_reports_its_cycles_apart() {
        let (mut alloc, mut pt, _, mut w) = setup();
        let va = VirtAddr::new(0x4000_0000);
        pt.map(va, alloc.alloc_4k(), PageSize::Size4K, &mut alloc);
        let steps: Vec<PhysAddr> = pt.walk(va).unwrap().steps().iter().map(|s| s.pte_paddr).collect();
        let env = &mut Offsetting { pt: &mut pt, pwc: &mut w.pwc, requested: Vec::new() };
        let (out, translation) = walk(env, va, Asid::new(1)).expect("mapped");
        assert_eq!(env.requested, steps, "a cold walk reads every level, root first");
        assert_eq!(usize::from(out.memory_accesses), steps.len());
        assert_eq!(translation, 4 * TRANSLATE);
        assert_eq!(out.latency, PWC_LATENCY + 4 * READ, "translation cycles stay out of the walk latency");
        assert_eq!(out.leaf_pte_paddr, PhysAddr::new(steps[3].raw() + OFFSET));
    }

    #[test]
    fn hook_never_sees_pwc_covered_levels() {
        let (mut alloc, mut pt, _, mut w) = setup();
        let va = VirtAddr::new(0x4000_0000);
        let vb = VirtAddr::new(0x4000_1000);
        pt.map(va, alloc.alloc_4k(), PageSize::Size4K, &mut alloc);
        pt.map(vb, alloc.alloc_4k(), PageSize::Size4K, &mut alloc);
        let leaf = pt.walk(vb).unwrap().leaf_pte_paddr();
        let env = &mut Offsetting { pt: &mut pt, pwc: &mut w.pwc, requested: Vec::new() };
        walk(env, va, Asid::new(1)).expect("mapped");
        env.requested.clear();
        let (out, translation) = walk(env, vb, Asid::new(1)).expect("mapped");
        assert_eq!(env.requested, [leaf], "the PWCs cover every upper level");
        assert_eq!(out.memory_accesses, 1);
        assert_eq!(translation, TRANSLATE);
        assert_eq!(out.latency, PWC_LATENCY + READ);
        assert_eq!(out.leaf_pte_paddr, PhysAddr::new(leaf.raw() + OFFSET));
        assert_eq!(out.leaf_pte.ptw_freq(), 1, "the leaf counters update through the hook's table");
    }

    #[test]
    fn unmapped_walk_returns_none() {
        let (_, mut pt, mut hier, mut w) = setup();
        let ctx = ReplacementCtx::default();
        assert!(w.walk(&mut pt, VirtAddr::new(0x123), Asid::new(1), &mut hier, &ctx).is_none());
    }
}
