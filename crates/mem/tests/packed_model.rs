//! Differential property test: the packed-tag-array [`Cache`] against a
//! naive reference model.
//!
//! The reference model stores one fat struct per way and scans/updates it
//! exactly the way the pre-packing implementation did (linear `matches`
//! scans, policy state in the block structs, stepwise SRRIP ageing). Both
//! models are driven with the same SplitMix64-seeded stream of accesses,
//! typed probes, fills and invalidations — 100K operations per policy and
//! associativity (2, 8 and 16 ways: the SRRIP lane masks depend on the
//! way count) — and must produce identical hit/miss results, identical
//! eviction reports and identical statistics at every step. Every 10K
//! operations the packed cache is checkpointed, restored into a fresh
//! cache, and the run continues on the restored copy. The `#[ignore]`d
//! case runs 1M operations per policy and associativity (release CI).

use mem_sim::{BlockKind, Cache, CacheConfig, CacheStats, EvictedBlock, Policy, ReplacementCtx};
use vm_types::{Asid, PageSize, PhysAddr, SplitMix64};

const RRIP_MAX: u8 = 3;
const RRIP_INSERT: u8 = 2;

/// One way of the reference model: every field the original fat layout
/// kept per block.
#[derive(Clone, Copy, Default)]
struct RefBlock {
    valid: bool,
    dirty: bool,
    tag: u64,
    kind: BlockKind,
    asid: Asid,
    size: PageSize,
    rrip: u8,
    lru: u64,
    reuse: u32,
    prefetched: bool,
}

impl RefBlock {
    fn matches(&self, tag: u64, kind: BlockKind, asid: Asid, size: PageSize) -> bool {
        self.valid
            && self.kind == kind
            && self.tag == tag
            && (kind == BlockKind::Data || (self.asid == asid && self.size == size))
    }
}

enum RefPolicy {
    Lru,
    Srrip,
    TlbAware,
}

/// The naive reference cache: linear scans over fat structs, stepwise
/// SRRIP aging, policy switch by enum.
struct RefCache {
    ways: usize,
    set_mask: u64,
    blocks: Vec<RefBlock>,
    policy: RefPolicy,
    tick: u64,
    translation_blocks: usize,
    hits: u64,
    misses: u64,
    prefetch_fills: u64,
}

impl RefCache {
    fn new(size_bytes: u64, ways: usize, policy: RefPolicy) -> Self {
        let sets = (size_bytes / 64) as usize / ways;
        Self {
            ways,
            set_mask: sets as u64 - 1,
            blocks: vec![RefBlock::default(); sets * ways],
            policy,
            tick: 0,
            translation_blocks: 0,
            hits: 0,
            misses: 0,
            prefetch_fills: 0,
        }
    }

    fn data_set(&self, pa: u64) -> usize {
        ((pa / 64) & self.set_mask) as usize
    }

    fn data_tag(&self, pa: u64) -> u64 {
        (pa / 64) >> self.set_mask.count_ones()
    }

    fn on_hit(&mut self, start: usize, way: usize, ctx: &ReplacementCtx) {
        let b = &mut self.blocks[start + way];
        match self.policy {
            RefPolicy::Lru => {
                self.tick += 1;
                b.lru = self.tick;
            }
            RefPolicy::Srrip => b.rrip = b.rrip.saturating_sub(1),
            RefPolicy::TlbAware => {
                let p = if b.kind.is_translation() && ctx.tlb_pressure_high() { 3 } else { 1 };
                b.rrip = b.rrip.saturating_sub(p);
            }
        }
    }

    fn on_fill(&mut self, start: usize, way: usize, ctx: &ReplacementCtx) {
        let b = &mut self.blocks[start + way];
        match self.policy {
            RefPolicy::Lru => {
                self.tick += 1;
                b.lru = self.tick;
            }
            RefPolicy::Srrip => b.rrip = RRIP_INSERT,
            RefPolicy::TlbAware => {
                b.rrip = if b.kind.is_translation() && ctx.tlb_pressure_high() { 0 } else { RRIP_INSERT };
            }
        }
    }

    /// The original stepwise SRRIP victim scan.
    fn scan_victim(set: &mut [RefBlock]) -> usize {
        if let Some(way) = set.iter().position(|b| !b.valid) {
            return way;
        }
        loop {
            if let Some(way) = set.iter().position(|b| b.rrip >= RRIP_MAX) {
                return way;
            }
            for b in set.iter_mut() {
                b.rrip = (b.rrip + 1).min(RRIP_MAX);
            }
        }
    }

    fn choose_victim(&mut self, start: usize, ctx: &ReplacementCtx) -> usize {
        let set = &mut self.blocks[start..start + self.ways];
        match self.policy {
            RefPolicy::Lru => match set.iter().position(|b| !b.valid) {
                Some(w) => w,
                None => set.iter().enumerate().min_by_key(|(_, b)| b.lru).map(|(i, _)| i).expect("nonempty"),
            },
            RefPolicy::Srrip => Self::scan_victim(set),
            RefPolicy::TlbAware => {
                let way = Self::scan_victim(set);
                if set[way].valid && set[way].kind.is_translation() && ctx.tlb_pressure_high() {
                    if let Some(alt) =
                        set.iter().position(|b| b.valid && !b.kind.is_translation() && b.rrip >= RRIP_MAX)
                    {
                        return alt;
                    }
                }
                way
            }
        }
    }

    fn access_data(&mut self, pa: u64, write: bool, ctx: &ReplacementCtx) -> bool {
        let start = self.data_set(pa) * self.ways;
        let tag = self.data_tag(pa);
        let way = (0..self.ways)
            .find(|&w| self.blocks[start + w].matches(tag, BlockKind::Data, Asid::KERNEL, PageSize::Size4K));
        match way {
            Some(w) => {
                self.hits += 1;
                let b = &mut self.blocks[start + w];
                b.reuse = b.reuse.saturating_add(1);
                if write {
                    b.dirty = true;
                }
                self.on_hit(start, w, ctx);
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn probe_translation(
        &mut self,
        set: usize,
        tag: u64,
        kind: BlockKind,
        asid: Asid,
        size: PageSize,
        ctx: &ReplacementCtx,
    ) -> bool {
        let start = set * self.ways;
        let way = (0..self.ways).find(|&w| self.blocks[start + w].matches(tag, kind, asid, size));
        match way {
            Some(w) => {
                self.blocks[start + w].reuse = self.blocks[start + w].reuse.saturating_add(1);
                self.on_hit(start, w, ctx);
                true
            }
            None => false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn fill_at(
        &mut self,
        set: usize,
        tag: u64,
        kind: BlockKind,
        asid: Asid,
        size: PageSize,
        dirty: bool,
        prefetched: bool,
        ctx: &ReplacementCtx,
    ) -> Option<RefBlock> {
        let start = set * self.ways;
        let victim = self.choose_victim(start, ctx);
        let old = self.blocks[start + victim];
        let evicted = old.valid.then_some(old);
        if evicted.is_some_and(|ev| ev.kind.is_translation()) {
            self.translation_blocks -= 1;
        }
        self.blocks[start + victim] =
            RefBlock { valid: true, dirty, tag, kind, asid, size, rrip: 0, lru: 0, reuse: 0, prefetched };
        if kind.is_translation() {
            self.translation_blocks += 1;
        }
        if prefetched {
            self.prefetch_fills += 1;
        }
        self.on_fill(start, victim, ctx);
        evicted
    }

    fn fill_data(
        &mut self,
        pa: u64,
        dirty: bool,
        prefetched: bool,
        ctx: &ReplacementCtx,
    ) -> Option<RefBlock> {
        let set = self.data_set(pa);
        let tag = self.data_tag(pa);
        self.fill_at(set, tag, BlockKind::Data, Asid::KERNEL, PageSize::Size4K, dirty, prefetched, ctx)
    }

    fn invalidate_data(&mut self, pa: u64) -> bool {
        let start = self.data_set(pa) * self.ways;
        let tag = self.data_tag(pa);
        for w in 0..self.ways {
            if self.blocks[start + w].matches(tag, BlockKind::Data, Asid::KERNEL, PageSize::Size4K) {
                self.blocks[start + w].valid = false;
                return true;
            }
        }
        false
    }

    fn invalidate_translation_blocks_by_asid(&mut self, asid: Asid) -> usize {
        let mut dropped = 0;
        for b in self.blocks.iter_mut() {
            if b.valid && b.kind.is_translation() && b.asid == asid {
                b.valid = false;
                dropped += 1;
            }
        }
        self.translation_blocks -= dropped;
        dropped
    }
}

/// Asserts the packed cache's statistics equal the reference's.
fn assert_stats(model: &RefCache, stats: &CacheStats, translation_blocks: usize, ctx_label: &str) {
    assert_eq!(stats.hits, model.hits, "{ctx_label}: hits diverged");
    assert_eq!(stats.misses, model.misses, "{ctx_label}: misses diverged");
    assert_eq!(stats.prefetch_fills, model.prefetch_fills, "{ctx_label}: prefetch fills diverged");
    assert_eq!(translation_blocks, model.translation_blocks, "{ctx_label}: translation population diverged");
}

fn assert_same_eviction(packed: Option<EvictedBlock>, reference: Option<RefBlock>, op: u64) {
    match (packed, reference) {
        (None, None) => {}
        (Some(p), Some(r)) => {
            let b = p.block;
            assert_eq!(b.tag, r.tag, "op {op}: evicted tag diverged");
            assert_eq!(b.kind, r.kind, "op {op}: evicted kind diverged");
            assert_eq!(b.asid, r.asid, "op {op}: evicted asid diverged");
            assert_eq!(b.page_size, r.size, "op {op}: evicted size diverged");
            assert_eq!(b.dirty, r.dirty, "op {op}: evicted dirty bit diverged");
            assert_eq!(b.reuse, r.reuse, "op {op}: evicted reuse diverged");
            assert_eq!(b.prefetched, r.prefetched, "op {op}: evicted prefetched bit diverged");
        }
        (p, r) => {
            panic!("op {op}: eviction presence diverged (packed {:?} vs ref {:?})", p.is_some(), r.is_some())
        }
    }
}

/// The associativities every differential run covers.
const WAYS: [usize; 3] = [2, 8, 16];

/// Operations between two checkpoint round trips of the packed cache.
const RESTORE_EVERY: u64 = 10_000;

/// The packed policy and its reference twin for a policy name.
fn policies(policy_name: &str) -> (Policy, RefPolicy) {
    match policy_name {
        "lru" => (Policy::lru(), RefPolicy::Lru),
        "srrip" => (Policy::srrip(), RefPolicy::Srrip),
        _ => (Policy::tlb_aware_srrip(), RefPolicy::TlbAware),
    }
}

/// Saves `dut`'s state and restores it into a fresh cache of the same
/// geometry and policy, carrying the statistics over (they are not part
/// of a checkpoint).
fn round_trip(dut: &Cache, policy_name: &str) -> Cache {
    let mut words = Vec::new();
    dut.save_state(&mut words);
    let mut fresh = Cache::new(dut.config().clone(), policies(policy_name).0);
    fresh.restore_state(&words).expect("same geometry");
    fresh.stats = dut.stats.clone();
    fresh.assert_packed_consistency();
    let mut again = Vec::new();
    fresh.save_state(&mut again);
    assert_eq!(words, again, "{policy_name}: a restored cache must save the same words");
    fresh
}

/// Runs the differential at every associativity in [`WAYS`].
fn run_differential(policy_name: &str, ops: u64, seed: u64) {
    for ways in WAYS {
        run_differential_ways(policy_name, ways, ops, seed ^ ways as u64);
    }
}

/// Drives both models with one op stream and checks every observable.
fn run_differential_ways(policy_name: &str, ways: usize, ops: u64, seed: u64) {
    let cfg = CacheConfig { name: "DUT", size_bytes: 64 << 10, ways, block_bytes: 64, latency: 1 };
    let (policy, rp) = policies(policy_name);
    let mut dut = Cache::new(cfg, policy);
    let mut model = RefCache::new(64 << 10, ways, rp);
    let sets = dut.num_sets();
    let label = format!("{policy_name}/{ways}-way");

    let mut rng = SplitMix64::new(seed);
    // Alternate pressure regimes so the TLB-aware arms both fire.
    let contexts = [ReplacementCtx::default(), ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 2.0 }];

    for op in 0..ops {
        if op > 0 && op % RESTORE_EVERY == 0 {
            dut.assert_packed_consistency();
            dut = round_trip(&dut, policy_name);
        }
        let ctx = contexts[(op / 1000 % 2) as usize];
        // Addresses over 4x the cache: plenty of conflict misses.
        let pa = rng.next_below(4 * (64 << 10)) & !63;
        let group = rng.next_below(8192);
        let set = (group as usize) & (sets - 1);
        let tag = group >> sets.trailing_zeros();
        let asid = Asid::new(1 + (rng.next_below(3) as u16));
        let kind = if rng.chance(0.5) { BlockKind::Tlb } else { BlockKind::NestedTlb };
        let size = if rng.chance(0.3) { PageSize::Size2M } else { PageSize::Size4K };
        match rng.next_below(100) {
            // Demand access; fill on miss (the hierarchy's usage pattern).
            0..=44 => {
                let write = rng.chance(0.3);
                let a = dut.access_data(PhysAddr::new(pa), write, &ctx);
                let b = model.access_data(pa, write, &ctx);
                assert_eq!(a, b, "op {op}: data hit/miss diverged");
                if !a {
                    let dirty = rng.chance(0.2);
                    let pf = rng.chance(0.2);
                    let e1 = dut.fill_data(PhysAddr::new(pa), dirty, pf, &ctx);
                    let e2 = model.fill_data(pa, dirty, pf, &ctx);
                    assert_same_eviction(e1, e2, op);
                }
            }
            // Typed probe; fill on miss (Victima's usage pattern).
            45..=79 => {
                let a = dut.probe_translation(set, tag, kind, asid, size, &ctx);
                let b = model.probe_translation(set, tag, kind, asid, size, &ctx);
                assert_eq!(a, b, "op {op}: translation hit/miss diverged");
                if !a {
                    let e1 = dut.fill_translation(set, tag, kind, asid, size, &ctx);
                    let e2 = model.fill_at(set, tag, kind, asid, size, false, false, &ctx);
                    assert_same_eviction(e1, e2, op);
                }
            }
            // Data invalidation (Victima's block transform).
            80..=89 => {
                assert_eq!(
                    dut.invalidate_data(PhysAddr::new(pa)),
                    model.invalidate_data(pa),
                    "op {op}: data invalidation diverged"
                );
            }
            // Presence checks (non-destructive).
            90..=94 => {
                assert_eq!(
                    dut.contains_data(PhysAddr::new(pa)),
                    (0..ways).any(|w| model.blocks[model.data_set(pa) * ways + w].matches(
                        model.data_tag(pa),
                        BlockKind::Data,
                        Asid::KERNEL,
                        PageSize::Size4K
                    )),
                    "op {op}: contains_data diverged"
                );
            }
            // ASID flush (Sec. 6 maintenance).
            _ => {
                let a = dut.invalidate_translation_blocks(|b| b.asid == asid);
                let b = model.invalidate_translation_blocks_by_asid(asid);
                assert_eq!(a, b, "op {op}: asid flush drop count diverged");
            }
        }
    }
    dut.assert_packed_consistency();
    assert_stats(&model, &dut.stats, dut.translation_block_count(), &label);

    // Final population must agree block for block.
    let key =
        |tag: u64, kind: BlockKind, asid: Asid, size: PageSize| (tag, kind as u8, asid.raw(), size.shift());
    let mut packed: Vec<_> = dut.iter_valid().map(|b| key(b.tag, b.kind, b.asid, b.page_size)).collect();
    let mut reference: Vec<_> =
        model.blocks.iter().filter(|b| b.valid).map(|b| key(b.tag, b.kind, b.asid, b.size)).collect();
    packed.sort_unstable();
    reference.sort_unstable();
    assert_eq!(packed, reference, "{label}: final populations diverged");
}

#[test]
fn packed_cache_matches_reference_model_lru() {
    run_differential("lru", 100_000, 0xCAFE_0001);
}

#[test]
fn packed_cache_matches_reference_model_srrip() {
    run_differential("srrip", 100_000, 0xCAFE_0002);
}

#[test]
fn packed_cache_matches_reference_model_tlb_aware() {
    run_differential("tlb-aware", 100_000, 0xCAFE_0003);
}

/// The same differential at 1M operations per policy and associativity:
/// too slow for the debug tier-1 run, so release CI runs it.
#[test]
#[ignore]
fn packed_cache_matches_reference_model_long() {
    for (policy_name, seed) in [("lru", 0xCAFE_1001), ("srrip", 0xCAFE_1002), ("tlb-aware", 0xCAFE_1003)] {
        run_differential(policy_name, 1_000_000, seed);
    }
}
