//! Set-associative cache with typed blocks.
//!
//! Data blocks are indexed by physical block number. Victima's TLB blocks
//! live in the same data store but are indexed by a *virtual* set/tag pair
//! computed by the `victima` crate (Fig. 13 of the paper shows how the same
//! address maps to different sets as a data vs. TLB block); the typed
//! lookup/fill/invalidate entry points here take the precomputed set and
//! tag so this crate stays mechanism-agnostic.
//!
//! # Hot-path layout
//!
//! The per-access path scans one *packed tag array*; fat [`CacheBlock`]
//! records are materialised only for evictions and inspection:
//!
//! - `words` — one presence word per way ([`crate::block::pack_word`]):
//!   valid + kind + page size + ASID + tag + dirty/prefetched + reuse in
//!   a single `u64`. A lookup is one masked compare per way over
//!   contiguous memory, and hits, fills and evictions mutate the same
//!   cache lines the scan loaded.
//! - `lru` — packed LRU stamps, allocated only for LRU (L1) caches.
//! - `lanes` — one word of 3-bit SRRIP lanes per set, allocated only for
//!   the SRRIP family (see [`crate::replacement`]): victim selection and
//!   ageing are a few mask operations on it, whatever the associativity.
//!
//! A 16-way set is exactly two cache lines plus one lane word, versus
//! ~1 KB of block structs in a naive layout; a simulated 2 MB cache's
//! whole state is 272 KB and lives comfortably in the host's cache
//! hierarchy.

use crate::block::{
    pack_data_word, pack_word, pack_word_flags, word_asid, word_bump_reuse, word_dirty, word_is_translation,
    word_is_valid, word_kind, word_prefetched, word_reuse, word_rrip, word_set_dirty, word_size, word_tag,
    word_with_rrip, BlockKind, CacheBlock, INVALID_WORD, WORD_KEY_MASK, WORD_RRIP_MASK,
};
use crate::replacement::{empty_lanes, lane, with_lane, Policy, ReplacementCtx, LANE_INVALID, MAX_LANE_WAYS};
use vm_types::{Asid, Cycles, PageSize, PhysAddr, ReuseHistogram};

/// Geometry and latency of one cache.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Human-readable name, e.g. "L2".
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Block size in bytes (64 throughout the paper).
    pub block_bytes: u64,
    /// Access latency in cycles when this cache hits.
    pub latency: Cycles,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate or not a power of two.
    pub fn num_sets(&self) -> usize {
        assert!(self.ways > 0 && self.block_bytes > 0 && self.size_bytes > 0);
        let sets = (self.size_bytes / self.block_bytes) as usize / self.ways;
        assert!(sets > 0, "{}: capacity too small for geometry", self.name);
        assert!(sets.is_power_of_two(), "{}: set count must be a power of two", self.name);
        sets
    }
}

/// Statistics for one cache.
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    /// Demand lookups that hit (any kind).
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Lines filled by prefetchers.
    pub prefetch_fills: u64,
    /// Reuse at eviction for data blocks (Fig. 11).
    pub data_reuse: ReuseHistogram,
    /// Reuse at eviction for TLB blocks (Fig. 24).
    pub tlb_reuse: ReuseHistogram,
}

impl CacheStats {
    /// Demand accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Demand miss ratio (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

/// A block displaced by a fill, reported to the caller so upper layers can
/// track writebacks or react to TLB-block eviction (Victima drops them).
#[derive(Clone, Copy, Debug)]
pub struct EvictedBlock {
    /// Metadata of the evicted line.
    pub block: CacheBlock,
}

/// A set-associative, typed-block cache over packed tag arrays.
pub struct Cache {
    cfg: CacheConfig,
    num_sets: usize,
    set_mask: u64,
    /// log2(block_bytes): set/tag math is pure shifts, no division.
    block_shift: u32,
    /// log2(block_bytes * num_sets): the tag's right-shift distance.
    tag_shift: u32,
    /// Packed presence words, one per way: the only per-access array.
    words: Vec<u64>,
    /// Packed per-way LRU stamps; allocated only for [`Policy::Lru`]
    /// caches (the SRRIP family never reads them, and the empty `Vec`
    /// keeps a big L2/L3's footprint out of the host's caches).
    lru: Vec<u64>,
    /// One word of SRRIP lanes per set; allocated only for the SRRIP
    /// family (LRU caches keep stamps instead).
    lanes: Vec<u64>,
    policy: Policy,
    /// Count of valid TLB/NestedTlb blocks (translation-reach sampling).
    translation_blocks: usize,
    /// Statistics.
    pub stats: CacheStats,
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("name", &self.cfg.name)
            .field("size_bytes", &self.cfg.size_bytes)
            .field("ways", &self.cfg.ways)
            .field("sets", &self.num_sets)
            .field("policy", &self.policy.name())
            .field("translation_blocks", &self.translation_blocks)
            .finish()
    }
}

impl Cache {
    /// Creates a cache with the given geometry and replacement policy.
    pub fn new(cfg: CacheConfig, policy: Policy) -> Self {
        let num_sets = cfg.num_sets();
        assert!(cfg.block_bytes.is_power_of_two(), "{}: block size must be a power of two", cfg.name);
        let n = num_sets * cfg.ways;
        let block_shift = cfg.block_bytes.trailing_zeros();
        let lru = policy.is_lru();
        assert!(
            cfg.ways <= MAX_LANE_WAYS,
            "{}: replacement state holds at most {MAX_LANE_WAYS} ways",
            cfg.name
        );
        Self {
            set_mask: num_sets as u64 - 1,
            block_shift,
            tag_shift: block_shift + num_sets.trailing_zeros(),
            words: vec![INVALID_WORD; n],
            lru: if lru { vec![0; n] } else { Vec::new() },
            lanes: if lru { Vec::new() } else { vec![empty_lanes(cfg.ways); num_sets] },
            num_sets,
            cfg,
            policy,
            translation_blocks: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit latency.
    #[inline]
    pub fn latency(&self) -> Cycles {
        self.cfg.latency
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> usize {
        self.cfg.ways
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.words.len()
    }

    /// Number of valid translation (TLB + nested TLB) blocks currently held.
    #[inline]
    pub fn translation_block_count(&self) -> usize {
        self.translation_blocks
    }

    /// Replacement policy name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Set index for a physical (data) address.
    #[inline]
    pub fn data_set_index(&self, pa: PhysAddr) -> usize {
        ((pa.raw() >> self.block_shift) & self.set_mask) as usize
    }

    /// Tag for a physical (data) address.
    #[inline]
    pub fn data_tag(&self, pa: PhysAddr) -> u64 {
        pa.raw() >> self.tag_shift
    }

    /// Scans one set's presence words for the identity `key` (counter and
    /// flag bits masked out); returns the way.
    #[inline]
    fn find(&self, start: usize, key: u64) -> Option<usize> {
        self.words[start..start + self.cfg.ways].iter().position(|&w| w & WORD_KEY_MASK == key)
    }

    /// Materialises the reporting record for way `i`.
    #[inline]
    fn block_at(&self, i: usize) -> CacheBlock {
        let w = self.words[i];
        if !word_is_valid(w) {
            return CacheBlock::INVALID;
        }
        CacheBlock {
            valid: true,
            dirty: word_dirty(w),
            tag: word_tag(w),
            kind: word_kind(w),
            asid: word_asid(w),
            page_size: word_size(w),
            reuse: word_reuse(w),
            prefetched: word_prefetched(w),
        }
    }

    /// Splits out the policy and way `way` of set `set`'s replacement
    /// metadata word: its LRU stamp, or the set's SRRIP lane word (the
    /// borrows are disjoint fields, which the compiler can only see inside
    /// a single function body).
    #[inline]
    fn repl(&mut self, set: usize, way: usize) -> (&mut Policy, &mut u64) {
        let meta = if self.lanes.is_empty() {
            &mut self.lru[set * self.cfg.ways + way]
        } else {
            &mut self.lanes[set]
        };
        (&mut self.policy, meta)
    }

    /// Invalidates way `way` of set `set`.
    #[inline]
    fn invalidate_way(&mut self, set: usize, way: usize) {
        self.words[set * self.cfg.ways + way] = INVALID_WORD;
        let (policy, meta) = self.repl(set, way);
        policy.on_invalidate(meta, way);
    }

    /// Demand data access. Returns `true` on hit and updates replacement /
    /// reuse state; on a miss the caller is expected to fetch the line from
    /// the next level and call [`Cache::fill_data`].
    pub fn access_data(&mut self, pa: PhysAddr, write: bool, ctx: &ReplacementCtx) -> bool {
        let set = self.data_set_index(pa);
        let start = set * self.cfg.ways;
        match self.find(start, pack_data_word(self.data_tag(pa))) {
            Some(w) => {
                self.stats.hits += 1;
                let word = &mut self.words[start + w];
                *word = word_bump_reuse(*word);
                if write {
                    *word = word_set_dirty(*word);
                }
                let word = *word;
                let (policy, meta) = self.repl(set, w);
                policy.on_hit(meta, w, word, ctx);
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Non-destructive data probe: no stats, no replacement update.
    pub fn contains_data(&self, pa: PhysAddr) -> bool {
        let start = self.data_set_index(pa) * self.cfg.ways;
        self.find(start, pack_data_word(self.data_tag(pa))).is_some()
    }

    /// Fills a data line after a miss. Returns the displaced block, if any
    /// valid line had to be evicted.
    pub fn fill_data(
        &mut self,
        pa: PhysAddr,
        dirty: bool,
        prefetched: bool,
        ctx: &ReplacementCtx,
    ) -> Option<EvictedBlock> {
        let set = self.data_set_index(pa);
        let tag = self.data_tag(pa);
        self.fill_at(set, tag, BlockKind::Data, Asid::KERNEL, PageSize::Size4K, dirty, prefetched, ctx)
    }

    /// Typed probe used by Victima: looks up a translation block by
    /// precomputed set/tag plus ASID and page size. Updates replacement
    /// state on hit.
    pub fn probe_translation(
        &mut self,
        set: usize,
        tag: u64,
        kind: BlockKind,
        asid: Asid,
        size: PageSize,
        ctx: &ReplacementCtx,
    ) -> bool {
        debug_assert!(kind.is_translation());
        let start = set * self.cfg.ways;
        match self.find(start, pack_word(tag, kind, asid, size)) {
            Some(w) => {
                let word = &mut self.words[start + w];
                *word = word_bump_reuse(*word);
                let word = *word;
                let (policy, meta) = self.repl(set, w);
                policy.on_hit(meta, w, word, ctx);
                true
            }
            None => false,
        }
    }

    /// Non-destructive typed probe.
    pub fn contains_translation(
        &self,
        set: usize,
        tag: u64,
        kind: BlockKind,
        asid: Asid,
        size: PageSize,
    ) -> bool {
        self.find(set * self.cfg.ways, pack_word(tag, kind, asid, size)).is_some()
    }

    /// Inserts a translation block at the given (virtually indexed) set.
    /// Returns the displaced block, if any.
    pub fn fill_translation(
        &mut self,
        set: usize,
        tag: u64,
        kind: BlockKind,
        asid: Asid,
        size: PageSize,
        ctx: &ReplacementCtx,
    ) -> Option<EvictedBlock> {
        debug_assert!(kind.is_translation());
        self.fill_at(set, tag, kind, asid, size, false, false, ctx)
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
    ) -> Option<EvictedBlock> {
        // Hard bound check on the (rare) fill path: an overflowing tag
        // must never be stored, or it would alias another block's key
        // (lookups with overflowing tags simply miss).
        assert!(tag < 1 << crate::block::WORD_TAG_BITS, "{}: tag overflows the presence word", self.cfg.name);
        let start = set * self.cfg.ways;
        let end = start + self.cfg.ways;
        let victim_way = {
            // Each cache allocates either stamps or lanes; the policy never
            // reads the other.
            let mut no_lanes = 0;
            let lanes = self.lanes.get_mut(set).unwrap_or(&mut no_lanes);
            let stamps = self.lru.get(start..end).unwrap_or(&[]);
            self.policy.choose_victim(&self.words[start..end], stamps, lanes, ctx)
        };
        let victim = start + victim_way;
        let evicted = word_is_valid(self.words[victim]).then(|| {
            let block = self.block_at(victim);
            self.account_eviction(&block);
            EvictedBlock { block }
        });
        self.words[victim] = pack_word_flags(tag, kind, asid, size, dirty, prefetched);
        if kind.is_translation() {
            self.translation_blocks += 1;
        }
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        let word = self.words[victim];
        let (policy, meta) = self.repl(set, victim_way);
        policy.on_fill(meta, victim_way, word, ctx);
        evicted
    }

    fn account_eviction(&mut self, block: &CacheBlock) {
        match block.kind {
            BlockKind::Data => self.stats.data_reuse.record(block.reuse as u64),
            BlockKind::Tlb | BlockKind::NestedTlb => {
                self.stats.tlb_reuse.record(block.reuse as u64);
                self.translation_blocks = self.translation_blocks.saturating_sub(1);
            }
        }
    }

    /// Invalidates the data block holding `pa`, if present. Returns whether
    /// a block was invalidated. Used by Victima's block transformation: the
    /// PTE cluster's data copy is re-tagged as a TLB block.
    pub fn invalidate_data(&mut self, pa: PhysAddr) -> bool {
        let set = self.data_set_index(pa);
        match self.find(set * self.cfg.ways, pack_data_word(self.data_tag(pa))) {
            Some(w) => {
                self.invalidate_way(set, w);
                true
            }
            None => false,
        }
    }

    /// Invalidates one translation block identified by its exact location
    /// key (single-entry shootdown, Sec. 6.2(i): invalidating one TLB entry
    /// drops the whole 8-entry block). Returns whether a block was dropped.
    pub fn invalidate_translation_at(
        &mut self,
        set: usize,
        tag: u64,
        kind: BlockKind,
        asid: Asid,
        size: PageSize,
    ) -> bool {
        match self.find(set * self.cfg.ways, pack_word(tag, kind, asid, size)) {
            Some(w) => {
                self.invalidate_way(set, w);
                self.translation_blocks = self.translation_blocks.saturating_sub(1);
                true
            }
            None => false,
        }
    }

    /// Invalidates every translation block matching `pred`, returning how
    /// many were dropped. Implements the paper's Sec. 6 maintenance
    /// operations (full flush, per-ASID flush, per-VA shootdown).
    pub fn invalidate_translation_blocks<F>(&mut self, mut pred: F) -> usize
    where
        F: FnMut(&CacheBlock) -> bool,
    {
        let mut dropped = 0;
        for i in 0..self.words.len() {
            if word_is_translation(self.words[i]) && pred(&self.block_at(i)) {
                self.invalidate_way(i / self.cfg.ways, i % self.cfg.ways);
                dropped += 1;
            }
        }
        self.translation_blocks = self.translation_blocks.saturating_sub(dropped);
        dropped
    }

    /// Iterates over all valid blocks (materialised records), for
    /// inspection in tests and reach sampling.
    pub fn iter_valid(&self) -> impl Iterator<Item = CacheBlock> + '_ {
        (0..self.words.len()).filter(|&i| word_is_valid(self.words[i])).map(|i| self.block_at(i))
    }

    /// Clears the statistics; contents stay warm (used between warm-up
    /// and measurement).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of checkpoint words [`Cache::save_state`] emits for this
    /// geometry: one policy word plus the packed presence and LRU arrays.
    pub fn state_words(&self) -> usize {
        1 + self.words.len() + self.lru.len()
    }

    /// Serialises the cache's contents into checkpoint words: the
    /// replacement policy's global tick (0 for the stateless SRRIP
    /// family), the packed presence words, and the LRU stamp array (empty
    /// for SRRIP caches). An SRRIP-family cache composes each valid way's
    /// RRPV lane into bits 63:62 of its presence word, so the lanes need
    /// no section of their own.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(match &self.policy {
            Policy::Lru { tick } => *tick,
            _ => 0,
        });
        if self.lanes.is_empty() {
            out.extend_from_slice(&self.words);
        } else {
            for (set, &lanes) in self.words.chunks_exact(self.cfg.ways).zip(&self.lanes) {
                out.extend(set.iter().enumerate().map(|(way, &w)| {
                    if word_is_valid(w) {
                        word_with_rrip(w, lane(lanes, way))
                    } else {
                        w
                    }
                }));
            }
        }
        out.extend_from_slice(&self.lru);
    }

    /// Restores state captured by [`Cache::save_state`] into a cache of
    /// identical geometry and policy, recomputing the translation-block
    /// count from the restored presence words.
    ///
    /// # Errors
    ///
    /// Returns a message if the word count does not match this geometry.
    pub fn restore_state(&mut self, words: &[u64]) -> Result<(), String> {
        if words.len() != self.state_words() {
            return Err(format!(
                "{}: checkpoint section has {} words, geometry needs {}",
                self.cfg.name,
                words.len(),
                self.state_words()
            ));
        }
        if let Policy::Lru { tick } = &mut self.policy {
            *tick = words[0];
        }
        let n = self.words.len();
        self.words.copy_from_slice(&words[1..1 + n]);
        self.lru.copy_from_slice(&words[1 + n..]);
        let ways = self.cfg.ways;
        for (set, lanes) in self.words.chunks_exact_mut(ways).zip(self.lanes.iter_mut()) {
            *lanes = set.iter().enumerate().fold(0, |acc, (way, &w)| {
                with_lane(acc, way, if word_is_valid(w) { word_rrip(w) } else { LANE_INVALID })
            });
        }
        for w in &mut self.words {
            *w &= !WORD_RRIP_MASK;
        }
        self.translation_blocks = self.words.iter().filter(|&&w| word_is_translation(w)).count();
        Ok(())
    }

    /// Consistency check (tests): the translation-block counter must
    /// match the packed population, resident words carry zero RRPV bits,
    /// and in an SRRIP-family cache a way's lane marks it invalid exactly
    /// when its word is invalid (and holds an RRPV otherwise), with every
    /// lane past the last way zero.
    pub fn assert_packed_consistency(&self) {
        let translations = self.words.iter().filter(|&&w| word_is_translation(w)).count();
        assert_eq!(translations, self.translation_blocks, "translation block count diverged");
        assert!(self.words.iter().all(|&w| w & WORD_RRIP_MASK == 0), "a resident word carries RRPV bits");
        let ways = self.cfg.ways;
        for (set, (words, &lanes)) in self.words.chunks_exact(ways).zip(&self.lanes).enumerate() {
            for (way, &w) in words.iter().enumerate() {
                let l = lane(lanes, way);
                assert_eq!(
                    l == LANE_INVALID,
                    !word_is_valid(w),
                    "set {set} way {way}: lane {l} vs word {w:#x}"
                );
                assert!(l <= LANE_INVALID, "set {set} way {way}: lane {l} out of range");
            }
            assert_eq!(lanes >> (3 * ways), 0, "set {set}: lanes past the last way are set");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(
            CacheConfig { name: "T", size_bytes: 4096, ways: 4, block_bytes: 64, latency: 10 },
            Policy::lru(),
        )
    }

    #[test]
    fn geometry() {
        let c = small_cache();
        assert_eq!(c.num_sets(), 16);
        assert_eq!(c.num_blocks(), 64);
        assert_eq!(c.latency(), 10);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        let pa = PhysAddr::new(0x1040);
        assert!(!c.access_data(pa, false, &ctx));
        assert!(c.fill_data(pa, false, false, &ctx).is_none());
        assert!(c.access_data(pa, false, &ctx));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert!(c.contains_data(pa));
        c.assert_packed_consistency();
    }

    #[test]
    fn same_block_different_offset_hits() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        c.fill_data(PhysAddr::new(0x1040), false, false, &ctx);
        assert!(c.access_data(PhysAddr::new(0x107f), false, &ctx));
        assert!(!c.access_data(PhysAddr::new(0x1080), false, &ctx));
    }

    #[test]
    fn eviction_reports_displaced_block_and_reuse() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        // Fill one set (set 0) beyond capacity: addresses with identical
        // set index, different tags. Set stride = 16 sets * 64B = 1024B.
        for i in 0..4u64 {
            c.fill_data(PhysAddr::new(i * 1024), false, false, &ctx);
        }
        // Hit way 0 twice so its reuse counter is 2.
        assert!(c.access_data(PhysAddr::new(0), false, &ctx));
        assert!(c.access_data(PhysAddr::new(8), false, &ctx));
        let evicted = c.fill_data(PhysAddr::new(4 * 1024), false, false, &ctx);
        assert_eq!(evicted.map(|e| e.block.tag), Some(1), "the LRU way is displaced");
        // One data block was recorded in the reuse histogram.
        assert_eq!(c.stats.data_reuse.total(), 1);
        c.assert_packed_consistency();
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        c.fill_data(PhysAddr::new(0), true, false, &ctx);
        let dirty = (1..=4u64)
            .filter_map(|i| c.fill_data(PhysAddr::new(i * 1024), false, false, &ctx))
            .filter(|e| e.block.dirty)
            .count();
        assert_eq!(dirty, 1);
    }

    #[test]
    fn translation_blocks_tracked_and_probed() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        let asid = Asid::new(3);
        assert!(!c.probe_translation(5, 0xaa, BlockKind::Tlb, asid, PageSize::Size4K, &ctx));
        c.fill_translation(5, 0xaa, BlockKind::Tlb, asid, PageSize::Size4K, &ctx);
        assert_eq!(c.translation_block_count(), 1);
        assert!(c.probe_translation(5, 0xaa, BlockKind::Tlb, asid, PageSize::Size4K, &ctx));
        // Wrong ASID, page size, or kind must miss.
        assert!(!c.probe_translation(5, 0xaa, BlockKind::Tlb, Asid::new(4), PageSize::Size4K, &ctx));
        assert!(!c.probe_translation(5, 0xaa, BlockKind::Tlb, asid, PageSize::Size2M, &ctx));
        assert!(!c.probe_translation(5, 0xaa, BlockKind::NestedTlb, asid, PageSize::Size4K, &ctx));
        c.assert_packed_consistency();
    }

    #[test]
    fn translation_block_eviction_updates_count_and_histogram() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        c.fill_translation(0, 0x1, BlockKind::Tlb, Asid::new(1), PageSize::Size4K, &ctx);
        // Displace it with data fills into the same set.
        let evicted: Vec<_> =
            (0..4u64).filter_map(|i| c.fill_data(PhysAddr::new(i * 1024), false, false, &ctx)).collect();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].block.kind, BlockKind::Tlb);
        assert_eq!(c.translation_block_count(), 0);
        assert_eq!(c.stats.tlb_reuse.total(), 1);
    }

    #[test]
    fn invalidate_data_removes_block() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        let pa = PhysAddr::new(0x2040);
        c.fill_data(pa, false, false, &ctx);
        assert!(c.invalidate_data(pa));
        assert!(!c.contains_data(pa));
        assert!(!c.invalidate_data(pa));
        c.assert_packed_consistency();
    }

    #[test]
    fn invalidate_translation_blocks_by_asid() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        c.fill_translation(1, 0x1, BlockKind::Tlb, Asid::new(1), PageSize::Size4K, &ctx);
        c.fill_translation(2, 0x2, BlockKind::Tlb, Asid::new(2), PageSize::Size4K, &ctx);
        c.fill_translation(3, 0x3, BlockKind::NestedTlb, Asid::new(1), PageSize::Size4K, &ctx);
        let dropped = c.invalidate_translation_blocks(|b| b.asid == Asid::new(1));
        assert_eq!(dropped, 2);
        assert_eq!(c.translation_block_count(), 1);
        assert!(c.contains_translation(2, 0x2, BlockKind::Tlb, Asid::new(2), PageSize::Size4K));
        c.assert_packed_consistency();
    }

    #[test]
    fn srrip_cache_end_to_end() {
        let mut c = Cache::new(
            CacheConfig { name: "S", size_bytes: 4096, ways: 4, block_bytes: 64, latency: 16 },
            Policy::srrip(),
        );
        let ctx = ReplacementCtx::default();
        let mut evictions = 0;
        for i in 0..64u64 {
            let pa = PhysAddr::new(i * 64);
            if !c.access_data(pa, false, &ctx) {
                evictions += c.fill_data(pa, false, false, &ctx).iter().count();
            }
        }
        // Cache exactly full: all 64 blocks valid, no evictions.
        assert_eq!(c.iter_valid().count(), 64);
        assert_eq!(evictions, 0);
        // Re-touch everything: all hits.
        for i in 0..64u64 {
            assert!(c.access_data(PhysAddr::new(i * 64), false, &ctx));
        }
        c.assert_packed_consistency();
    }

    #[test]
    fn materialised_blocks_round_trip_identity() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        c.fill_translation(3, 0x7, BlockKind::NestedTlb, Asid::new(9), PageSize::Size2M, &ctx);
        let b = c.iter_valid().next().expect("one valid block");
        assert!(b.valid && !b.dirty && !b.prefetched);
        assert_eq!(b.tag, 0x7);
        assert_eq!(b.kind, BlockKind::NestedTlb);
        assert_eq!(b.asid, Asid::new(9));
        assert_eq!(b.page_size, PageSize::Size2M);
        assert!(b.matches(0x7, BlockKind::NestedTlb, Asid::new(9), PageSize::Size2M));
    }

    #[test]
    fn save_restore_round_trips_contents_and_policy_state() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        for i in 0..12u64 {
            c.fill_data(PhysAddr::new(i * 1024), i % 3 == 0, false, &ctx);
        }
        c.fill_translation(5, 0xaa, BlockKind::Tlb, Asid::new(3), PageSize::Size4K, &ctx);
        c.access_data(PhysAddr::new(0), false, &ctx);
        let mut words = Vec::new();
        c.save_state(&mut words);
        assert_eq!(words.len(), c.state_words());
        let mut d = small_cache();
        d.restore_state(&words).expect("same geometry");
        d.assert_packed_consistency();
        assert_eq!(d.translation_block_count(), 1);
        assert!(d.contains_translation(5, 0xaa, BlockKind::Tlb, Asid::new(3), PageSize::Size4K));
        // The two caches must make identical eviction decisions from here.
        for i in 12..40u64 {
            let pa = PhysAddr::new(i * 1024);
            let ec = c.fill_data(pa, false, false, &ctx).map(|e| e.block.tag);
            let ed = d.fill_data(pa, false, false, &ctx).map(|e| e.block.tag);
            assert_eq!(ec, ed, "divergent victim at fill {i}");
        }
        assert!(d.restore_state(&words[1..]).is_err(), "short section must be rejected");
    }

    #[test]
    fn miss_ratio_math() {
        let mut c = small_cache();
        let ctx = ReplacementCtx::default();
        let pa = PhysAddr::new(0);
        c.access_data(pa, false, &ctx);
        c.fill_data(pa, false, false, &ctx);
        c.access_data(pa, false, &ctx);
        assert!((c.stats.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
