//! Cache replacement policies, statically dispatched.
//!
//! The baseline system uses LRU in the L1s and SRRIP [Jaleel+, ISCA'10] in
//! the L2/L3 (Table 3); Victima's TLB-aware SRRIP variant (Listing 1 of
//! the paper) is the third [`Policy`] variant. Policies are an `enum`
//! rather than a trait object so the per-access hot path pays a jump
//! table, not a vtable load, and so the compiler can inline the match
//! arms into [`crate::Cache`]'s hit and fill paths.
//!
//! # SRRIP lanes
//!
//! The SRRIP family keeps one `u64` per set: way `w`'s re-reference
//! prediction value (RRPV) sits in the 3-bit *lane* at bits
//! `[3w + 2 : 3w]`. A lane of 0–3 is the RRPV of a valid way and 4
//! marks an invalid way; lanes past the set's last way stay 0, and at
//! most 21 ways fit. With `ones` the word holding a 1 in the low bit of
//! every way's lane:
//!
//! - the invalid ways are `lanes & (ones << 2)`, and the victim is the
//!   lowest of them;
//! - otherwise every lane is 0–3, the ways at RRPV 3 are
//!   `lanes & (lanes >> 1) & ones`, and the victim is the first way at
//!   the highest RRPV present;
//! - ageing the set until that way reaches [`RRIP_MAX`] is one add of
//!   `(RRIP_MAX - max) * ones`, which cannot carry between lanes because
//!   every lane is at most `max`.
//!
//! A victim is therefore a few mask operations and one `trailing_zeros`,
//! whatever the associativity. Hits, fills and invalidations each write
//! one lane. The presence words ([`crate::block`]) carry no RRPV while
//! resident; checkpoints compose it back into their bits 63:62.
//!
//! LRU caches keep one stamp per way from a per-cache tick. Their victim
//! is one branch-free min fold over `(valid, stamp, way)` keys, in which
//! an invalid way keys on its index alone.
//!
//! The dynamic context a policy may consult — whether address-translation
//! pressure is currently high — travels in [`ReplacementCtx`].

use crate::block::{word_is_translation, word_is_valid};

/// Maximum re-reference prediction value for 2-bit SRRIP counters.
pub const RRIP_MAX: u8 = 3;
/// Insertion RRPV for SRRIP ("long re-reference interval").
pub const RRIP_INSERT: u8 = 2;

/// The lane value of an invalid way.
pub(crate) const LANE_INVALID: u8 = 4;

/// Width of one way's lane in a set's lane word.
const LANE_BITS: u32 = 3;

/// Most ways one lane word holds (21 lanes of 3 bits).
pub(crate) const MAX_LANE_WAYS: usize = (u64::BITS / LANE_BITS) as usize;

/// A 1 in the low bit of each of the `MAX_LANE_WAYS` lanes.
const ALL_LANE_ONES: u64 = 0x1249_2492_4924_9249;

/// A 1 in the low bit of each of the first `ways` lanes.
#[inline]
pub(crate) const fn lane_ones(ways: usize) -> u64 {
    ALL_LANE_ONES >> (LANE_BITS as usize * (MAX_LANE_WAYS - ways))
}

/// The lane word of a set whose `ways` ways are all invalid.
#[inline]
pub(crate) const fn empty_lanes(ways: usize) -> u64 {
    lane_ones(ways) * LANE_INVALID as u64
}

/// Way `way`'s lane in a set's lane word.
#[inline]
pub(crate) const fn lane(lanes: u64, way: usize) -> u8 {
    ((lanes >> (LANE_BITS as usize * way)) & 0b111) as u8
}

/// Returns `lanes` with way `way`'s lane replaced by `value`.
#[inline]
pub(crate) const fn with_lane(lanes: u64, way: usize, value: u8) -> u64 {
    let shift = LANE_BITS as usize * way;
    (lanes & !(0b111 << shift)) | ((value as u64) << shift)
}

/// Dynamic context a policy may consult when inserting / evicting.
///
/// The paper keys the TLB-aware behaviour on "translation pressure", i.e.
/// the L2 TLB MPKI measured over recent execution exceeding 5 (Listing 1),
/// and bypasses the PTW cost predictor when the L2 *cache* MPKI exceeds 5
/// (Fig. 15). Both signals are epoch-sampled by the `sim` crate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplacementCtx {
    /// L2 TLB misses per kilo-instruction over the last epoch.
    pub l2_tlb_mpki: f64,
    /// L2 cache misses per kilo-instruction over the last epoch.
    pub l2_cache_mpki: f64,
}

impl ReplacementCtx {
    /// The paper's pressure threshold (MPKI > 5) for both signals.
    pub const PRESSURE_THRESHOLD: f64 = 5.0;

    /// Whether address translation pressure is high (Listing 1's
    /// `TLB_MPKI > 5`).
    #[inline]
    pub fn tlb_pressure_high(&self) -> bool {
        self.l2_tlb_mpki > Self::PRESSURE_THRESHOLD
    }

    /// Whether data caching is currently unprofitable (Fig. 15's bypass:
    /// L2 cache MPKI > 5 means data exhibits low locality).
    #[inline]
    pub fn cache_pressure_high(&self) -> bool {
        self.l2_cache_mpki > Self::PRESSURE_THRESHOLD
    }
}

/// A statically dispatched cache replacement policy. One value serves one
/// cache; the only policy-global state is LRU's monotonic tick.
///
/// The per-way hooks take the way's *metadata word* `meta`: its LRU stamp
/// in an LRU cache, or its set's lane word in an SRRIP-family cache.
#[derive(Clone, Debug)]
pub enum Policy {
    /// Least-recently-used (the L1 caches).
    Lru {
        /// Monotonic touch tick; the way with the smallest stamp loses.
        tick: u64,
    },
    /// Static re-reference interval prediction (SRRIP-HP) with 2-bit
    /// RRPVs: fills insert at [`RRIP_INSERT`], hits promote by one, and
    /// victim selection searches for [`RRIP_MAX`], aging the set until
    /// one is found.
    Srrip,
    /// Victima's TLB-aware SRRIP (Listing 1). Three deviations from
    /// baseline SRRIP, all gated on high translation pressure:
    /// TLB blocks insert at RRPV 0, a hit on one promotes by 3, and a
    /// TLB-block victim triggers one retry for a non-TLB alternative.
    TlbAwareSrrip,
}

impl Policy {
    /// Creates the LRU policy.
    pub fn lru() -> Self {
        Policy::Lru { tick: 0 }
    }

    /// Creates the SRRIP policy.
    pub fn srrip() -> Self {
        Policy::Srrip
    }

    /// Creates Victima's TLB-aware SRRIP policy.
    pub fn tlb_aware_srrip() -> Self {
        Policy::TlbAwareSrrip
    }

    /// Human-readable policy name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Lru { .. } => "LRU",
            Policy::Srrip => "SRRIP",
            Policy::TlbAwareSrrip => "TLB-aware-SRRIP",
        }
    }

    /// Whether the policy keeps per-way LRU stamps (else SRRIP lanes).
    #[inline]
    pub(crate) fn is_lru(&self) -> bool {
        matches!(self, Policy::Lru { .. })
    }

    /// Called after `way` has been (re)filled with presence word `word`.
    #[inline]
    pub fn on_fill(&mut self, meta: &mut u64, way: usize, word: u64, ctx: &ReplacementCtx) {
        let rrpv = match self {
            Policy::Lru { tick } => {
                *tick += 1;
                *meta = *tick;
                return;
            }
            Policy::Srrip => RRIP_INSERT,
            Policy::TlbAwareSrrip => {
                if word_is_translation(word) && ctx.tlb_pressure_high() {
                    0
                } else {
                    RRIP_INSERT
                }
            }
        };
        *meta = with_lane(*meta, way, rrpv);
    }

    /// Called when `way`, holding presence word `word`, hits.
    #[inline]
    pub fn on_hit(&mut self, meta: &mut u64, way: usize, word: u64, ctx: &ReplacementCtx) {
        let promote = match self {
            Policy::Lru { tick } => {
                *tick += 1;
                *meta = *tick;
                return;
            }
            Policy::Srrip => 1,
            Policy::TlbAwareSrrip => {
                if word_is_translation(word) && ctx.tlb_pressure_high() {
                    3
                } else {
                    1
                }
            }
        };
        // A valid way's lane is its RRPV, so this subtraction cannot
        // borrow from the next lane.
        *meta -= (lane(*meta, way).min(promote) as u64) << (LANE_BITS as usize * way);
    }

    /// Called after `way` has been invalidated.
    #[inline]
    pub fn on_invalidate(&self, meta: &mut u64, way: usize) {
        if !self.is_lru() {
            *meta = with_lane(*meta, way, LANE_INVALID);
        }
    }

    /// Chooses a victim way of a set with presence words `words`, LRU
    /// stamps `stamps` (empty for the SRRIP family) and lane word `lanes`
    /// (unused by LRU). The SRRIP family ages the set's lanes. Invalid
    /// ways are preferred.
    #[inline]
    pub fn choose_victim(
        &mut self,
        words: &[u64],
        stamps: &[u64],
        lanes: &mut u64,
        ctx: &ReplacementCtx,
    ) -> usize {
        match self {
            Policy::Lru { .. } => lru_victim(words, stamps),
            Policy::Srrip => srrip_victim(lanes, words.len()),
            Policy::TlbAwareSrrip => {
                let way = srrip_victim(lanes, words.len());
                if word_is_translation(words[way]) && ctx.tlb_pressure_high() {
                    // One more attempt (Listing 1 line 23): prefer the
                    // first non-TLB block that has also aged to RRIP_MAX.
                    // The set is full here (an invalid victim is never a
                    // translation), so every lane is an RRPV. If no such
                    // block exists, the TLB block is evicted (and dropped,
                    // not written back).
                    let mut at_max = *lanes & (*lanes >> 1) & lane_ones(words.len());
                    while at_max != 0 {
                        let alt = (at_max.trailing_zeros() / LANE_BITS) as usize;
                        if !word_is_translation(words[alt]) {
                            return alt;
                        }
                        at_max &= at_max - 1;
                    }
                }
                way
            }
        }
    }
}

/// LRU victim: the first invalid way, else the first way with the
/// smallest stamp, as one branch-free min fold over `valid << 63 |
/// stamp << 8 | way` keys, in which an invalid way's stamp reads 0.
/// Stamps count the cache's accesses, so they stay far below the 2^55
/// the key holds, and a set has at most [`MAX_LANE_WAYS`] ways.
#[inline]
fn lru_victim(words: &[u64], stamps: &[u64]) -> usize {
    let mut best = u64::MAX;
    for (way, (&word, &stamp)) in words.iter().zip(stamps).enumerate() {
        let valid = word_is_valid(word) as u64;
        best = best.min((valid << 63) | ((stamp << 8) & valid.wrapping_neg()) | way as u64);
    }
    (best & 0xff) as usize
}

/// SRRIP victim over a set's lane word: the first invalid way, else the
/// first way at the highest RRPV present, ageing every lane by
/// `RRIP_MAX - max` — exactly where the stepwise age-and-rescan loop
/// stops, with the same victim.
#[inline]
fn srrip_victim(lanes: &mut u64, ways: usize) -> usize {
    let ones = lane_ones(ways);
    let invalid = *lanes & (ones << 2);
    if invalid != 0 {
        return (invalid.trailing_zeros() / LANE_BITS) as usize;
    }
    let low = *lanes & ones;
    let high = (*lanes >> 1) & ones;
    let (at_max, age) = if low & high != 0 {
        (low & high, 0)
    } else if high != 0 {
        (high, 1)
    } else if low != 0 {
        (low, 2)
    } else {
        (ones, 3)
    };
    *lanes += age * ones;
    (at_max.trailing_zeros() / LANE_BITS) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{pack_word, BlockKind, INVALID_WORD};
    use vm_types::{Asid, PageSize};

    const PRESSURE: ReplacementCtx = ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 0.0 };
    const CALM: ReplacementCtx = ReplacementCtx { l2_tlb_mpki: 0.0, l2_cache_mpki: 0.0 };

    /// A free-standing set for driving policies directly in tests: every
    /// way valid at RRPV 0 until a test says otherwise.
    struct TestSet {
        words: Vec<u64>,
        lru: Vec<u64>,
        lanes: u64,
    }

    impl TestSet {
        fn new(kinds: &[BlockKind]) -> Self {
            Self {
                words: kinds
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| pack_word(i as u64, k, Asid::new(1), PageSize::Size4K))
                    .collect(),
                lru: vec![0; kinds.len()],
                lanes: 0,
            }
        }

        /// Way `way`'s metadata word under policy `p`.
        fn meta(&mut self, p: &Policy, way: usize) -> &mut u64 {
            if p.is_lru() {
                &mut self.lru[way]
            } else {
                &mut self.lanes
            }
        }

        fn fill(&mut self, p: &mut Policy, way: usize, ctx: &ReplacementCtx) {
            let word = self.words[way];
            p.on_fill(self.meta(p, way), way, word, ctx);
        }

        fn hit(&mut self, p: &mut Policy, way: usize, ctx: &ReplacementCtx) {
            let word = self.words[way];
            p.on_hit(self.meta(p, way), way, word, ctx);
        }

        fn victim(&mut self, p: &mut Policy, ctx: &ReplacementCtx) -> usize {
            p.choose_victim(&self.words, &self.lru, &mut self.lanes, ctx)
        }

        fn rrip(&self, way: usize) -> u8 {
            lane(self.lanes, way)
        }

        fn set_rrip(&mut self, way: usize, r: u8) {
            self.lanes = with_lane(self.lanes, way, r);
        }

        fn invalidate(&mut self, way: usize) {
            self.words[way] = INVALID_WORD;
            Policy::srrip().on_invalidate(&mut self.lanes, way);
        }
    }

    #[test]
    fn lru_prefers_invalid_ways() {
        let mut lru = Policy::lru();
        let mut set = TestSet::new(&[BlockKind::Data; 4]);
        set.words[2] = INVALID_WORD;
        assert_eq!(set.victim(&mut lru, &CALM), 2, "valid ways at stamp 0 still lose");
        set.words[3] = INVALID_WORD;
        for way in 0..4 {
            set.hit(&mut lru, way, &CALM);
        }
        assert_eq!(set.victim(&mut lru, &CALM), 2, "the first invalid way, whatever its stamp");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Policy::lru();
        let mut set = TestSet::new(&[BlockKind::Data; 4]);
        for way in [0, 1, 2, 3, 0, 1, 3] {
            set.hit(&mut lru, way, &CALM);
        }
        // Way 2 was touched least recently.
        assert_eq!(set.victim(&mut lru, &CALM), 2);
    }

    #[test]
    fn srrip_inserts_long_and_promotes_on_hit() {
        let mut p = Policy::srrip();
        let mut set = TestSet::new(&[BlockKind::Data; 2]);
        set.fill(&mut p, 0, &CALM);
        assert_eq!(set.rrip(0), RRIP_INSERT);
        set.hit(&mut p, 0, &CALM);
        assert_eq!(set.rrip(0), RRIP_INSERT - 1);
    }

    #[test]
    fn srrip_ages_until_victim_found() {
        let mut p = Policy::srrip();
        let mut set = TestSet::new(&[BlockKind::Data; 4]);
        set.set_rrip(1, 2);
        let victim = set.victim(&mut p, &CALM);
        assert_eq!(victim, 1, "the block closest to RRIP_MAX is aged there first");
        // Everyone has been aged by the same amount.
        assert!((0..4).all(|w| set.rrip(w) >= 1));
    }

    #[test]
    fn closed_form_aging_matches_stepwise_semantics() {
        // rrip = [1, 0, 2, 1]: the stepwise loop ages once (→ [2,1,3,2])
        // then picks way 2; everyone's counter must read exactly that.
        let mut p = Policy::srrip();
        let mut set = TestSet::new(&[BlockKind::Data; 4]);
        for (way, r) in [1u8, 0, 2, 1].into_iter().enumerate() {
            set.set_rrip(way, r);
        }
        assert_eq!(set.victim(&mut p, &CALM), 2);
        assert_eq!((0..4).map(|w| set.rrip(w)).collect::<Vec<_>>(), vec![2, 1, 3, 2]);
        // A way already at RRIP_MAX means no aging at all.
        let mut set = TestSet::new(&[BlockKind::Data; 3]);
        for (way, r) in [0u8, 3, 3].into_iter().enumerate() {
            set.set_rrip(way, r);
        }
        assert_eq!(set.victim(&mut p, &CALM), 1, "first way at the max wins");
        assert_eq!(set.rrip(0), 0, "no aging when a victim already exists");
    }

    #[test]
    fn tlb_fill_under_pressure_gets_rrpv_zero() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb, BlockKind::Data]);
        set.set_rrip(0, 3);
        set.set_rrip(1, 3);
        set.fill(&mut p, 0, &PRESSURE);
        set.fill(&mut p, 1, &PRESSURE);
        assert_eq!(set.rrip(0), 0);
        assert_eq!(set.rrip(1), RRIP_INSERT);
    }

    #[test]
    fn tlb_fill_without_pressure_is_ordinary() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb]);
        set.fill(&mut p, 0, &CALM);
        assert_eq!(set.rrip(0), RRIP_INSERT);
    }

    #[test]
    fn tlb_hit_promotes_by_three() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb, BlockKind::Data]);
        set.set_rrip(0, 3);
        set.set_rrip(1, 3);
        set.hit(&mut p, 0, &PRESSURE);
        set.hit(&mut p, 1, &PRESSURE);
        assert_eq!(set.rrip(0), 0, "TLB promotion is -3");
        assert_eq!(set.rrip(1), 2, "data promotion is -1");
    }

    #[test]
    fn victim_diverts_away_from_tlb_blocks_under_pressure() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb, BlockKind::Data]);
        set.set_rrip(0, RRIP_MAX);
        set.set_rrip(1, RRIP_MAX);
        // The scan finds way 0 (the TLB block) first; the second attempt
        // must divert to the data block.
        assert_eq!(set.victim(&mut p, &PRESSURE), 1);
        // Without pressure the TLB block is fair game.
        set.set_rrip(0, RRIP_MAX);
        set.set_rrip(1, RRIP_MAX);
        assert_eq!(set.victim(&mut p, &CALM), 0);
    }

    #[test]
    fn tlb_block_still_evictable_when_no_alternative() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Tlb, BlockKind::Tlb]);
        set.set_rrip(0, RRIP_MAX);
        set.set_rrip(1, 1);
        assert_eq!(set.victim(&mut p, &PRESSURE), 0, "all-TLB set must still yield a victim");
    }

    #[test]
    fn nested_tlb_blocks_get_the_same_treatment() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::NestedTlb]);
        set.set_rrip(0, 3);
        set.fill(&mut p, 0, &PRESSURE);
        assert_eq!(set.rrip(0), 0);
    }

    #[test]
    fn invalid_ways_win_immediately() {
        let mut p = Policy::tlb_aware_srrip();
        let mut set = TestSet::new(&[BlockKind::Data, BlockKind::Data, BlockKind::Data]);
        set.set_rrip(0, RRIP_MAX);
        set.invalidate(1);
        set.invalidate(2);
        assert_eq!(set.victim(&mut p, &PRESSURE), 1);
        assert_eq!(set.rrip(0), RRIP_MAX, "no ageing when an invalid way exists");
        set.fill(&mut p, 1, &CALM);
        assert_eq!(set.rrip(1), RRIP_INSERT, "a fill overwrites the invalid lane");
        assert_eq!(set.victim(&mut p, &PRESSURE), 2);
    }

    #[test]
    fn lane_masks_follow_the_way_count() {
        for ways in 1..=MAX_LANE_WAYS {
            let ones = lane_ones(ways);
            assert_eq!(ones.count_ones() as usize, ways);
            assert_eq!((0..ways).map(|w| lane(empty_lanes(ways), w)).max(), Some(LANE_INVALID));
            // A full set whose last way alone sits at RRPV 1: it is the
            // victim, and the add ages every lane by 2 without carrying.
            let lanes = with_lane(0, ways - 1, 1);
            let mut aged = lanes;
            assert_eq!(srrip_victim(&mut aged, ways), ways - 1, "{ways} ways");
            assert_eq!(aged, lanes + 2 * ones);
            assert_eq!(lane(aged, ways - 1), RRIP_MAX);
        }
    }

    #[test]
    fn tlb_retry_takes_the_first_data_way_at_max() {
        let mut p = Policy::tlb_aware_srrip();
        let kinds = [BlockKind::Tlb, BlockKind::Tlb, BlockKind::Data, BlockKind::Data, BlockKind::Data];
        let mut set = TestSet::new(&kinds);
        for (way, r) in [2u8, 1, 1, 2, 2].into_iter().enumerate() {
            set.set_rrip(way, r);
        }
        // Ageing by 1 puts ways 0, 3 and 4 at RRIP_MAX; the scan finds the
        // TLB way 0 first and the retry diverts to data way 3.
        assert_eq!(set.victim(&mut p, &PRESSURE), 3);
        assert_eq!((0..5).map(|w| set.rrip(w)).collect::<Vec<_>>(), vec![3, 2, 2, 3, 3]);
    }

    #[test]
    fn policy_names() {
        assert_eq!(Policy::lru().name(), "LRU");
        assert_eq!(Policy::srrip().name(), "SRRIP");
        assert_eq!(Policy::tlb_aware_srrip().name(), "TLB-aware-SRRIP");
    }

    #[test]
    fn ctx_thresholds_follow_paper() {
        let ctx = ReplacementCtx { l2_tlb_mpki: 5.1, l2_cache_mpki: 4.9 };
        assert!(ctx.tlb_pressure_high());
        assert!(!ctx.cache_pressure_high());
        let ctx = ReplacementCtx { l2_tlb_mpki: 5.0, l2_cache_mpki: 5.0 };
        assert!(!ctx.tlb_pressure_high(), "threshold is strictly greater-than");
    }
}
