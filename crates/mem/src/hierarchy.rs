//! The three-level cache hierarchy plus DRAM, with the paper's Table 3
//! defaults: 32KB 8-way L1I/L1D (4-cycle, LRU, IP-stride prefetcher),
//! 2MB 16-way L2 (16-cycle, SRRIP, stream prefetcher) and 2MB/core 16-way
//! L3 (35-cycle, SRRIP).
//!
//! Latency convention: a hit at level X costs X's configured latency from
//! the core's point of view (not the sum of the levels above); a DRAM
//! access costs the L3 latency (the lookup that missed) plus the DRAM
//! device latency. Page-table-walk and POM-TLB accesses bypass the L1s and
//! are served from L2 downward, which is also where Victima finds the leaf
//! PTE cluster it transforms into a TLB block.

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::prefetch::{IpStridePrefetcher, StreamPrefetcher};
use crate::replacement::{Policy, ReplacementCtx};
use std::cell::{Ref, RefCell};
use std::rc::Rc;
use vm_types::{Cycles, PhysAddr};

/// Which unit issued a memory access; determines entry level and fills.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemClass {
    /// Instruction fetch: L1I → L2 → L3 → DRAM.
    IFetch,
    /// Demand data: L1D → L2 → L3 → DRAM.
    Data,
    /// Page-table-walker access: L2 → L3 → DRAM (PTEs are cached as data
    /// in L2/L3 but not in the L1s).
    Ptw,
    /// POM-TLB entry access: L2 → L3 → DRAM.
    PomTlb,
}

impl MemClass {
    /// Whether the access starts at an L1.
    #[inline]
    pub const fn uses_l1(self) -> bool {
        matches!(self, MemClass::IFetch | MemClass::Data)
    }
}

/// Which level served an access.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MemLevel {
    /// Served by L1I or L1D.
    L1,
    /// Served by the unified L2.
    L2,
    /// Served by the last-level cache.
    L3,
    /// Served by main memory.
    Dram,
}

/// Outcome of one hierarchy access.
#[derive(Clone, Copy, Debug)]
pub struct AccessResult {
    /// Total latency seen by the requester.
    pub latency: Cycles,
    /// Level that provided the line.
    pub served_by: MemLevel,
    /// Whether DRAM was touched (drives the PTW-cost PTE counter).
    pub dram_access: bool,
}

/// Configuration of the whole hierarchy.
#[derive(Clone, Debug)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub l3: CacheConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// Enable the IP-stride (L1D) and stream (L2) prefetchers.
    pub prefetchers: bool,
}

impl Default for HierarchyConfig {
    /// The paper's Table 3 baseline.
    fn default() -> Self {
        Self {
            l1i: CacheConfig { name: "L1I", size_bytes: 32 << 10, ways: 8, block_bytes: 64, latency: 4 },
            l1d: CacheConfig { name: "L1D", size_bytes: 32 << 10, ways: 8, block_bytes: 64, latency: 4 },
            l2: CacheConfig { name: "L2", size_bytes: 2 << 20, ways: 16, block_bytes: 64, latency: 16 },
            l3: CacheConfig { name: "L3", size_bytes: 2 << 20, ways: 16, block_bytes: 64, latency: 35 },
            dram: DramConfig::default(),
            prefetchers: true,
        }
    }
}

/// The backing store behind the private caches: the last-level cache plus
/// DRAM. One instance can be shared by several [`Hierarchy`] front-ends
/// (the multi-core model's shared LLC); a single-core hierarchy owns a
/// private one. Shared through `Rc<RefCell<_>>` — simulation cores are
/// stepped one at a time by a deterministic scheduler, never concurrently.
pub struct SharedLlc {
    l3: Cache,
    dram: Dram,
}

impl std::fmt::Debug for SharedLlc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedLlc").field("l3", &self.l3).field("dram", &self.dram).finish()
    }
}

impl SharedLlc {
    /// Builds an LLC + DRAM pair.
    pub fn new(l3: CacheConfig, dram: DramConfig) -> Self {
        Self { l3: Cache::new(l3, Policy::srrip()), dram: Dram::new(dram) }
    }

    /// Builds one wrapped for sharing between hierarchies.
    pub fn shared(l3: CacheConfig, dram: DramConfig) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Self::new(l3, dram)))
    }

    /// The last-level cache.
    pub fn l3(&self) -> &Cache {
        &self.l3
    }

    /// The DRAM model.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// One demand access below the L2: L3 probe, then DRAM + L3 fill on a
    /// miss. Returns the latency seen by the L2 and whether DRAM was
    /// touched.
    fn access(&mut self, pa: PhysAddr, ctx: &ReplacementCtx) -> (Cycles, bool) {
        if self.l3.access_data(pa, false, ctx) {
            (self.l3.latency(), false)
        } else {
            let dram_latency = self.dram.access(pa);
            self.l3.fill_data(pa, false, false, ctx);
            (self.l3.latency() + dram_latency, true)
        }
    }

    /// Whether the L3 holds the line (prefetch-path check; no statistics).
    fn contains(&self, pa: PhysAddr) -> bool {
        self.l3.contains_data(pa)
    }

    /// Prefetch fill: DRAM fetch plus an L3 fill marked as a prefetch.
    fn prefetch_fill(&mut self, pa: PhysAddr, ctx: &ReplacementCtx) {
        self.dram.access(pa);
        self.l3.fill_data(pa, false, true, ctx);
    }

    /// Clears statistics (contents stay warm).
    pub fn reset_stats(&mut self) {
        self.l3.reset_stats();
        self.dram.stats = Default::default();
    }
}

/// The L1I/L1D/L2 stack in front of a (possibly shared) [`SharedLlc`].
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Rc<RefCell<SharedLlc>>,
    ip_stride: IpStridePrefetcher,
    stream: StreamPrefetcher,
    prefetchers: bool,
    /// Reused stream-prefetch candidate buffer: cleared per L2 demand
    /// miss and reserved at the prefetch degree up front, so no miss
    /// allocates, not even the first confident one.
    pf_scratch: Vec<PhysAddr>,
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("l1i", &self.l1i)
            .field("l1d", &self.l1d)
            .field("l2", &self.l2)
            .field("llc", &self.llc.borrow())
            .finish()
    }
}

impl Hierarchy {
    /// Builds the hierarchy with default policies (LRU L1s, SRRIP L2/L3).
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self::with_l2_policy(cfg, Policy::srrip())
    }

    /// Builds the hierarchy with a caller-supplied L2 replacement policy —
    /// this is how Victima and POM-TLB install the TLB-aware SRRIP.
    pub fn with_l2_policy(cfg: HierarchyConfig, l2_policy: Policy) -> Self {
        let llc = SharedLlc::shared(cfg.l3.clone(), cfg.dram.clone());
        Self::with_shared_llc(cfg, l2_policy, llc)
    }

    /// Builds the core-private part of the hierarchy (L1s + L2) in front of
    /// an externally owned LLC. `cfg.l3`/`cfg.dram` are ignored: the shared
    /// LLC was sized by whoever built it (the multi-core system scales the
    /// L3 by core count).
    pub fn with_shared_llc(cfg: HierarchyConfig, l2_policy: Policy, llc: Rc<RefCell<SharedLlc>>) -> Self {
        let stream = StreamPrefetcher::default();
        Self {
            l1i: Cache::new(cfg.l1i.clone(), Policy::lru()),
            l1d: Cache::new(cfg.l1d.clone(), Policy::lru()),
            l2: Cache::new(cfg.l2.clone(), l2_policy),
            llc,
            ip_stride: IpStridePrefetcher::default(),
            pf_scratch: Vec::with_capacity(stream.degree()),
            stream,
            prefetchers: cfg.prefetchers,
        }
    }

    /// Immutable access to the L2 (Victima probes TLB blocks there).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Mutable access to the L2 for Victima's typed-block operations.
    pub fn l2_mut(&mut self) -> &mut Cache {
        &mut self.l2
    }

    /// Immutable access to the L3 (a `RefCell` guard: the LLC may be shared
    /// with other cores' hierarchies).
    pub fn l3(&self) -> Ref<'_, Cache> {
        Ref::map(self.llc.borrow(), |llc| &llc.l3)
    }

    /// Immutable access to the L1D.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Immutable access to the L1I.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The DRAM model (a `RefCell` guard, like [`Hierarchy::l3`]).
    pub fn dram(&self) -> Ref<'_, Dram> {
        Ref::map(self.llc.borrow(), |llc| &llc.dram)
    }

    /// The LLC handle this hierarchy drains into (shared in multi-core
    /// systems, private otherwise).
    pub fn llc(&self) -> &Rc<RefCell<SharedLlc>> {
        &self.llc
    }

    /// One demand access with `pc = 0` (no prefetcher training context).
    pub fn access(
        &mut self,
        pa: PhysAddr,
        write: bool,
        class: MemClass,
        ctx: &ReplacementCtx,
    ) -> AccessResult {
        self.access_pc(pa, write, class, 0, ctx)
    }

    /// One demand access, with the program counter for IP-stride training.
    pub fn access_pc(
        &mut self,
        pa: PhysAddr,
        write: bool,
        class: MemClass,
        pc: u64,
        ctx: &ReplacementCtx,
    ) -> AccessResult {
        // L1 stage.
        if class.uses_l1() {
            let l1 = match class {
                MemClass::IFetch => &mut self.l1i,
                _ => &mut self.l1d,
            };
            let hit = l1.access_data(pa, write, ctx);
            let latency = l1.latency();
            if class == MemClass::Data && self.prefetchers && pc != 0 {
                if let Some(target) = self.ip_stride.train(pc, pa) {
                    self.prefetch_fill_l1d(target, ctx);
                }
            }
            if hit {
                return AccessResult { latency, served_by: MemLevel::L1, dram_access: false };
            }
        }

        // L2 stage.
        if self.l2.access_data(pa, write && !class.uses_l1(), ctx) {
            self.fill_upper(pa, class, ctx);
            return AccessResult { latency: self.l2.latency(), served_by: MemLevel::L2, dram_access: false };
        }
        if class == MemClass::Data && self.prefetchers {
            // Reuse one scratch buffer across misses (allocation-free in
            // steady state); it is taken out while the fills run because
            // they need `&mut self` too.
            let mut candidates = std::mem::take(&mut self.pf_scratch);
            candidates.clear();
            self.stream.train_into(pa, &mut candidates);
            for &c in &candidates {
                self.prefetch_fill_l2(c, ctx);
            }
            self.pf_scratch = candidates;
        }

        // L3 + DRAM stage (the shared LLC).
        let (latency, dram_access) = self.llc.borrow_mut().access(pa, ctx);
        self.l2.fill_data(pa, write && !class.uses_l1(), false, ctx);
        self.fill_upper(pa, class, ctx);
        AccessResult {
            latency,
            served_by: if dram_access { MemLevel::Dram } else { MemLevel::L3 },
            dram_access,
        }
    }

    /// Fills the appropriate L1 after a lower-level hit/fill.
    fn fill_upper(&mut self, pa: PhysAddr, class: MemClass, ctx: &ReplacementCtx) {
        match class {
            MemClass::IFetch => {
                self.l1i.fill_data(pa, false, false, ctx);
            }
            MemClass::Data => {
                self.l1d.fill_data(pa, false, false, ctx);
            }
            MemClass::Ptw | MemClass::PomTlb => {}
        }
    }

    fn prefetch_fill_l1d(&mut self, pa: PhysAddr, ctx: &ReplacementCtx) {
        if !self.l1d.contains_data(pa) {
            {
                let mut llc = self.llc.borrow_mut();
                if !llc.contains(pa) {
                    llc.prefetch_fill(pa, ctx);
                }
            }
            if !self.l2.contains_data(pa) {
                self.l2.fill_data(pa, false, true, ctx);
            }
            self.l1d.fill_data(pa, false, true, ctx);
        }
    }

    fn prefetch_fill_l2(&mut self, pa: PhysAddr, ctx: &ReplacementCtx) {
        if !self.l2.contains_data(pa) {
            {
                let mut llc = self.llc.borrow_mut();
                if !llc.contains(pa) {
                    llc.prefetch_fill(pa, ctx);
                }
            }
            self.l2.fill_data(pa, false, true, ctx);
        }
    }

    /// Serialises the whole hierarchy's microarchitectural state — the
    /// three private caches, the LLC and DRAM behind them, and both
    /// prefetchers — into one flat checkpoint-word stream. Sub-component
    /// boundaries are implied by each component's geometry
    /// (`state_words`), so a stream only restores into an identically
    /// configured hierarchy.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.l1i.save_state(out);
        self.l1d.save_state(out);
        self.l2.save_state(out);
        let llc = self.llc.borrow();
        llc.l3.save_state(out);
        llc.dram.save_state(out);
        self.ip_stride.save_state(out);
        self.stream.save_state(out);
    }

    /// Restores state captured by [`Hierarchy::save_state`] into an
    /// identically configured hierarchy.
    ///
    /// # Errors
    ///
    /// Returns a message if the stream's length does not match this
    /// hierarchy's geometry, or any sub-section is malformed.
    pub fn restore_state(&mut self, words: &[u64]) -> Result<(), String> {
        let mut llc = self.llc.borrow_mut();
        let sizes = [
            self.l1i.state_words(),
            self.l1d.state_words(),
            self.l2.state_words(),
            llc.l3.state_words(),
            llc.dram.state_words(),
            self.ip_stride.state_words(),
            self.stream.state_words(),
        ];
        let total: usize = sizes.iter().sum();
        if words.len() != total {
            return Err(format!(
                "hierarchy: checkpoint section has {} words, geometry needs {total}",
                words.len()
            ));
        }
        let mut pos = 0;
        let mut next = |n: usize| {
            let s = &words[pos..pos + n];
            pos += n;
            s
        };
        self.l1i.restore_state(next(sizes[0]))?;
        self.l1d.restore_state(next(sizes[1]))?;
        self.l2.restore_state(next(sizes[2]))?;
        llc.l3.restore_state(next(sizes[3]))?;
        llc.dram.restore_state(next(sizes[4]))?;
        self.ip_stride.restore_state(next(sizes[5]))?;
        self.stream.restore_state(next(sizes[6]))?;
        Ok(())
    }

    /// Clears statistics on every component (contents stay warm). Also
    /// resets the LLC — idempotent when the LLC is shared and each core's
    /// hierarchy resets in turn.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.borrow_mut().reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig { prefetchers: false, ..HierarchyConfig::default() })
    }

    #[test]
    fn cold_access_goes_to_dram_then_warms_all_levels() {
        let mut h = hier();
        let ctx = ReplacementCtx::default();
        let pa = PhysAddr::new(0x40_0000);
        let r1 = h.access(pa, false, MemClass::Data, &ctx);
        assert_eq!(r1.served_by, MemLevel::Dram);
        assert!(r1.dram_access);
        assert!(r1.latency > 100);
        let r2 = h.access(pa, false, MemClass::Data, &ctx);
        assert_eq!(r2.served_by, MemLevel::L1);
        assert_eq!(r2.latency, 4);
    }

    #[test]
    fn ptw_class_skips_l1_but_warms_l2() {
        let mut h = hier();
        let ctx = ReplacementCtx::default();
        let pa = PhysAddr::new(0x80_0000);
        let r1 = h.access(pa, false, MemClass::Ptw, &ctx);
        assert_eq!(r1.served_by, MemLevel::Dram);
        let r2 = h.access(pa, false, MemClass::Ptw, &ctx);
        assert_eq!(r2.served_by, MemLevel::L2);
        assert_eq!(r2.latency, 16);
        // The L1D never saw the line.
        assert!(!h.l1d().contains_data(pa));
        // But the L2 holds it, which is what Victima's transform relies on.
        assert!(h.l2().contains_data(pa));
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut h = hier();
        let ctx = ReplacementCtx::default();
        let pa = PhysAddr::new(0x1000);
        h.access(pa, false, MemClass::IFetch, &ctx);
        let r = h.access(pa, false, MemClass::IFetch, &ctx);
        assert_eq!(r.served_by, MemLevel::L1);
        assert!(h.l1i().contains_data(pa));
        assert!(!h.l1d().contains_data(pa));
    }

    #[test]
    fn l3_hit_after_l2_eviction() {
        // Give the L3 twice the L2's sets so an L2 conflict pattern spreads
        // over two L3 sets and the victim line survives there.
        let mut cfg = HierarchyConfig { prefetchers: false, ..HierarchyConfig::default() };
        cfg.l3.size_bytes = 4 << 20;
        let mut h = Hierarchy::new(cfg);
        let ctx = ReplacementCtx::default();
        let pa = PhysAddr::new(0x123_4000);
        h.access(pa, false, MemClass::Ptw, &ctx);
        // Thrash the L2 set holding `pa` with conflicting PTW lines.
        // L2: 2MB/64B/16 = 2048 sets; set stride = 2048*64 = 128KB.
        for i in 1..=16u64 {
            h.access(PhysAddr::new(pa.raw() + i * 2048 * 64), false, MemClass::Ptw, &ctx);
        }
        let r = h.access(pa, false, MemClass::Ptw, &ctx);
        assert!(r.served_by == MemLevel::L3 || r.served_by == MemLevel::L2);
    }

    #[test]
    fn cold_accesses_of_every_class_reach_dram() {
        let mut h = hier();
        let ctx = ReplacementCtx::default();
        for (pa, class) in [(0x9000, MemClass::Data), (0xa000, MemClass::Ptw), (0xb000, MemClass::PomTlb)] {
            let r = h.access(PhysAddr::new(pa), false, class, &ctx);
            assert!(r.dram_access && r.served_by == MemLevel::Dram, "{class:?}");
        }
    }

    #[test]
    fn stores_mark_lines_dirty_for_writeback() {
        let mut h = hier();
        let ctx = ReplacementCtx::default();
        let pa = PhysAddr::new(0xc000);
        h.access(pa, true, MemClass::Data, &ctx);
        h.access(pa, true, MemClass::Data, &ctx);
        // Dirty bit is tracked in L1D after the write hit.
        assert!(h.l1d().iter_valid().any(|b| b.dirty));
    }

    #[test]
    fn save_restore_keeps_timing_in_lockstep() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let ctx = ReplacementCtx::default();
        let mut rng = vm_types::SplitMix64::new(42);
        for _ in 0..2_000 {
            let pa = PhysAddr::new(rng.next_below(8 << 20) & !7);
            h.access_pc(pa, rng.chance(0.2), MemClass::Data, 0x400000 + rng.next_below(64), &ctx);
        }
        let mut words = Vec::new();
        h.save_state(&mut words);
        let mut g = Hierarchy::new(HierarchyConfig::default());
        g.restore_state(&words).expect("same geometry");
        // Replay an identical access sequence on both: every latency and
        // serving level must match, or warm state diverged somewhere.
        let mut ra = vm_types::SplitMix64::new(7);
        let mut rb = vm_types::SplitMix64::new(7);
        for i in 0..2_000 {
            let pa_a = PhysAddr::new(ra.next_below(8 << 20) & !7);
            let pa_b = PhysAddr::new(rb.next_below(8 << 20) & !7);
            let a = h.access_pc(pa_a, false, MemClass::Data, 0x400abc, &ctx);
            let b = g.access_pc(pa_b, false, MemClass::Data, 0x400abc, &ctx);
            assert_eq!((a.latency, a.served_by), (b.latency, b.served_by), "divergence at access {i}");
        }
        assert!(g.restore_state(&words[..100]).is_err(), "short stream must be rejected");
    }

    /// FNV-1a over the checkpoint words after a seeded mixed stream on a
    /// hierarchy with a TLB-aware L2: demand data (prefetchers on, real
    /// PCs), PTW and POM-TLB accesses, translation probes, fills and
    /// invalidations under calm and pressure contexts, and one ASID
    /// flush. It pins every replacement decision and every word's
    /// checkpoint encoding, RRPV bits included.
    #[test]
    fn checkpoint_words_are_pinned() {
        use crate::block::BlockKind;
        use vm_types::{Asid, PageSize};

        let mut cfg = HierarchyConfig::default();
        // Small L2/L3 so the stream keeps every set under eviction.
        cfg.l2.size_bytes = 64 << 10;
        cfg.l3.size_bytes = 128 << 10;
        let mut h = Hierarchy::with_l2_policy(cfg, Policy::tlb_aware_srrip());
        let contexts = [ReplacementCtx::default(), ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 8.0 }];
        let sets = h.l2().num_sets();
        let mut rng = vm_types::SplitMix64::new(0x9e37);
        let mut stride_pa = 0u64;
        for op in 0..60_000u64 {
            let ctx = contexts[(op / 500 % 2) as usize];
            let pa = PhysAddr::new(rng.next_below(1 << 20) & !7);
            let group = rng.next_below(4096);
            let (set, tag) = ((group as usize) & (sets - 1), group >> sets.trailing_zeros());
            let asid = Asid::new(1 + rng.next_below(3) as u16);
            let kind = if rng.chance(0.7) { BlockKind::Tlb } else { BlockKind::NestedTlb };
            let size = if rng.chance(0.2) { PageSize::Size2M } else { PageSize::Size4K };
            match rng.next_below(100) {
                0..=29 => {
                    let pc = 0x40_0000 + rng.next_below(16) * 4;
                    h.access_pc(pa, rng.chance(0.3), MemClass::Data, pc, &ctx);
                }
                30..=49 => {
                    // One strided stream trains both prefetchers.
                    stride_pa = (stride_pa + 64) % (4 << 20);
                    h.access_pc(PhysAddr::new(stride_pa), false, MemClass::Data, 0x40_1000, &ctx);
                }
                50..=59 => {
                    h.access(pa, false, MemClass::Ptw, &ctx);
                }
                60..=64 => {
                    h.access(pa, rng.chance(0.5), MemClass::PomTlb, &ctx);
                }
                65..=89 => {
                    let l2 = h.l2_mut();
                    if !l2.probe_translation(set, tag, kind, asid, size, &ctx) {
                        l2.fill_translation(set, tag, kind, asid, size, &ctx);
                    }
                }
                90..=94 => {
                    h.l2_mut().invalidate_translation_at(set, tag, kind, asid, size);
                }
                _ => {
                    h.l2_mut().invalidate_data(pa);
                }
            }
            if op == 30_000 {
                h.l2_mut().invalidate_translation_blocks(|b| b.asid == Asid::new(2));
            }
        }
        let l2 = &h.l2().stats;
        assert!(l2.tlb_reuse.total() > 0 && l2.prefetch_fills > 0 && h.l1d().stats.prefetch_fills > 0);
        let mut words = Vec::new();
        h.save_state(&mut words);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for w in &words {
            for b in w.to_le_bytes() {
                hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(hash, 0xab7e_7ab7_5f7b_9a0f, "checkpoint hash {hash:#018x}");
    }

    #[test]
    fn prefetchers_fill_without_timing_charge() {
        let mut h = Hierarchy::new(HierarchyConfig::default());
        let ctx = ReplacementCtx::default();
        // Strided loads from one PC: after training, next blocks appear.
        for i in 0..16u64 {
            h.access_pc(PhysAddr::new(0x50_0000 + i * 64), false, MemClass::Data, 0x400abc, &ctx);
        }
        assert!(h.l1d().stats.prefetch_fills > 0 || h.l2().stats.prefetch_fills > 0);
    }
}
