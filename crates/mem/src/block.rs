//! Cache block metadata.
//!
//! Victima extends each L2 block with a TLB-entry bit and a nested-TLB bit
//! (Sec. 5.1 / Sec. 7 of the paper: 2 extra bits per block, 0.4% storage
//! overhead). We fold both bits into [`BlockKind`] and additionally keep the
//! ASID, the page size of the translations the block holds, and a reuse
//! counter (used for Figs. 11 and 24).
//!
//! # Packed presence words
//!
//! The cache's per-access hot path never scans [`CacheBlock`] structs.
//! Each way's block state — valid bit, kind, page size, ASID, tag,
//! dirty/prefetched bits and a saturating reuse counter — packs into one
//! `u64` presence word ([`pack_word`]), so a lookup is one masked
//! equality compare per way over contiguous memory, and hits, fills and
//! evictions mutate the very cache lines the scan just loaded. The SRRIP
//! re-reference value lives in the set's lane word instead (see
//! [`crate::replacement`]): in a resident word bits 63:62 are zero, and
//! only checkpoint words carry the RRPV there ([`word_with_rrip`]).
//! Layout, high bit first:
//!
//! ```text
//! [63:62] rrip       (0 while resident; the 2-bit RRPV in checkpoints)
//! [61]    dirty
//! [60]    prefetched
//! [59:50] reuse      (hits since fill, saturating at 1023 — far beyond
//!                     the top ">20" reuse-histogram bucket)
//! [49:16] tag        (34 bits; see below)
//! [15:4]  asid       (12-bit PCID)
//! [3]     page size  (0 = 4KB, 1 = 2MB)
//! [2:1]   kind       (0 = data, 1 = TLB, 2 = nested TLB)
//! [0]     valid
//! ```
//!
//! Everything above bit 49 is masked out of lookups. 34 tag bits cover
//! every reachable identity: data tags are `pa >> (6 + log2 sets)` with
//! physical memory far below 1 TB, and Victima TLB-block tags are
//! `(vpn >> 3) >> log2 sets` of a 48-bit VA, at most 33 bits.
//! `Cache` fills enforce the bound with a hard assert (so an overflowing
//! tag can never be *stored* and alias another block); the packing
//! helpers themselves carry a debug assert only, which keeps the
//! per-lookup path branch-free in release builds — an overflowing
//! *lookup* key deterministically misses.
//!
//! An invalid way is all-zero ([`INVALID_WORD`]), so "any invalid way?"
//! is also a plain masked compare. [`CacheBlock`] is the *reporting*
//! record the cache reconstructs from a presence word when a block is
//! evicted or inspected.

use vm_types::{Asid, PageSize};

/// What a cache block currently stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum BlockKind {
    /// A conventional data block, indexed by physical address.
    #[default]
    Data,
    /// A Victima TLB block: a cluster of 8 PTEs for 8 contiguous virtual
    /// pages, indexed by virtual page number + ASID.
    Tlb,
    /// A Victima nested TLB block: 8 host PTEs mapping guest-physical to
    /// host-physical pages (virtualised mode, Sec. 5.4).
    NestedTlb,
}

impl BlockKind {
    /// Whether the block holds translations rather than data.
    #[inline]
    pub const fn is_translation(self) -> bool {
        !matches!(self, BlockKind::Data)
    }

    #[inline]
    const fn code(self) -> u64 {
        match self {
            BlockKind::Data => 0,
            BlockKind::Tlb => 1,
            BlockKind::NestedTlb => 2,
        }
    }

    #[inline]
    const fn from_code(code: u64) -> Self {
        match code {
            1 => BlockKind::Tlb,
            2 => BlockKind::NestedTlb,
            _ => BlockKind::Data,
        }
    }
}

/// The presence word of an invalid way.
pub const INVALID_WORD: u64 = 0;

/// Number of low bits holding the valid/kind/size/asid metadata; the tag
/// occupies the bits between them and the counter fields.
pub const WORD_META_BITS: u32 = 16;

/// Number of tag bits a presence word can hold.
pub const WORD_TAG_BITS: u32 = 34;

/// Bit position of the embedded saturating reuse counter.
pub const WORD_REUSE_SHIFT: u32 = WORD_META_BITS + WORD_TAG_BITS;

/// Saturation value of the embedded reuse counter (10 bits).
pub const WORD_REUSE_MAX: u64 = 0x3ff;

/// Bit position of the prefetched bit.
pub const WORD_PREFETCHED_SHIFT: u32 = 60;

/// Bit position of the dirty bit.
pub const WORD_DIRTY_SHIFT: u32 = 61;

/// Bit position of the 2-bit SRRIP counter a checkpoint word carries.
pub const WORD_RRIP_SHIFT: u32 = 62;

/// Mask selecting the checkpoint SRRIP counter (zero in resident words).
pub const WORD_RRIP_MASK: u64 = 0b11 << WORD_RRIP_SHIFT;

/// Mask selecting a way's identity (valid + kind + size + asid + tag);
/// the mutable counter/flag bits above are excluded from lookups.
pub const WORD_KEY_MASK: u64 = (1 << WORD_REUSE_SHIFT) - 1;

/// Packs a way's identity and fill-time flags into its presence word with
/// zero reuse and RRIP fields (see the module docs for the layout). Data
/// blocks are always stored under `Asid::KERNEL` / `Size4K`, which is
/// what makes a data lookup a single masked compare.
///
/// # Panics
///
/// Panics in debug builds if `tag` exceeds [`WORD_TAG_BITS`] —
/// unreachable for any simulated physical memory below 1 TB and any
/// 48-bit virtual address (the differential model tests exercise the
/// bound).
#[inline]
pub const fn pack_word_flags(
    tag: u64,
    kind: BlockKind,
    asid: Asid,
    size: PageSize,
    dirty: bool,
    prefetched: bool,
) -> u64 {
    debug_assert!(tag < 1 << WORD_TAG_BITS, "tag overflows the presence word");
    ((dirty as u64) << WORD_DIRTY_SHIFT)
        | ((prefetched as u64) << WORD_PREFETCHED_SHIFT)
        | (tag << WORD_META_BITS)
        | ((asid.raw() as u64) << 4)
        | ((size.is_huge() as u64) << 3)
        | (kind.code() << 1)
        | 1
}

/// Packs a clean, demand-filled identity (no flag bits set).
#[inline]
pub const fn pack_word(tag: u64, kind: BlockKind, asid: Asid, size: PageSize) -> u64 {
    pack_word_flags(tag, kind, asid, size, false, false)
}

/// Presence word of a clean data block (the hot-path common case).
#[inline]
pub const fn pack_data_word(tag: u64) -> u64 {
    pack_word(tag, BlockKind::Data, Asid::KERNEL, PageSize::Size4K)
}

/// Whether a presence word denotes a valid way.
#[inline]
pub const fn word_is_valid(word: u64) -> bool {
    word & 1 != 0
}

/// Whether a presence word denotes a valid *translation* (TLB or nested
/// TLB) block.
#[inline]
pub const fn word_is_translation(word: u64) -> bool {
    word_is_valid(word) && (word >> 1) & 0b11 != 0
}

/// The SRRIP counter of a checkpoint word.
#[inline]
pub const fn word_rrip(word: u64) -> u8 {
    (word >> WORD_RRIP_SHIFT) as u8
}

/// Returns `word` with its checkpoint SRRIP counter replaced.
#[inline]
pub const fn word_with_rrip(word: u64, rrip: u8) -> u64 {
    (word & !WORD_RRIP_MASK) | ((rrip as u64 & 0b11) << WORD_RRIP_SHIFT)
}

/// The embedded reuse counter of a presence word.
#[inline]
pub const fn word_reuse(word: u64) -> u32 {
    ((word >> WORD_REUSE_SHIFT) & WORD_REUSE_MAX) as u32
}

/// Returns `word` with the reuse counter bumped (saturating at
/// [`WORD_REUSE_MAX`], far beyond the top reuse-histogram bucket).
#[inline]
pub const fn word_bump_reuse(word: u64) -> u64 {
    if (word >> WORD_REUSE_SHIFT) & WORD_REUSE_MAX == WORD_REUSE_MAX {
        word
    } else {
        word + (1 << WORD_REUSE_SHIFT)
    }
}

/// The dirty bit of a presence word.
#[inline]
pub const fn word_dirty(word: u64) -> bool {
    (word >> WORD_DIRTY_SHIFT) & 1 != 0
}

/// Returns `word` with the dirty bit set.
#[inline]
pub const fn word_set_dirty(word: u64) -> u64 {
    word | (1 << WORD_DIRTY_SHIFT)
}

/// The prefetched bit of a presence word.
#[inline]
pub const fn word_prefetched(word: u64) -> bool {
    (word >> WORD_PREFETCHED_SHIFT) & 1 != 0
}

/// The tag stored in a presence word.
#[inline]
pub const fn word_tag(word: u64) -> u64 {
    (word & WORD_KEY_MASK) >> WORD_META_BITS
}

/// The block kind stored in a presence word.
#[inline]
pub const fn word_kind(word: u64) -> BlockKind {
    BlockKind::from_code((word >> 1) & 0b11)
}

/// The ASID stored in a presence word.
#[inline]
pub const fn word_asid(word: u64) -> Asid {
    Asid::new(((word >> 4) & 0xfff) as u16)
}

/// The page size stored in a presence word.
#[inline]
pub const fn word_size(word: u64) -> PageSize {
    if (word >> 3) & 1 != 0 {
        PageSize::Size2M
    } else {
        PageSize::Size4K
    }
}

/// One 64-byte cache block's metadata as a self-contained record (the
/// simulator never stores the data payload itself). The hot path keeps
/// this information packed in the presence word and materialises a
/// `CacheBlock` only for evictions, maintenance predicates and
/// inspection.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheBlock {
    /// Valid bit.
    pub valid: bool,
    /// Dirty bit (set by stores and by POM-TLB entry updates).
    pub dirty: bool,
    /// Tag. For data blocks this is derived from the physical block number;
    /// for (nested) TLB blocks from the virtual page group number.
    pub tag: u64,
    /// Data vs. TLB vs. nested-TLB block.
    pub kind: BlockKind,
    /// Address-space identifier, meaningful only for translation blocks.
    pub asid: Asid,
    /// Page size of the 8 translations held, meaningful only for
    /// translation blocks.
    pub page_size: PageSize,
    /// Hits this block has received since it was filled.
    pub reuse: u32,
    /// Whether the block was brought in by a prefetcher.
    pub prefetched: bool,
}

impl CacheBlock {
    /// An invalid block.
    pub const INVALID: CacheBlock = CacheBlock {
        valid: false,
        dirty: false,
        tag: 0,
        kind: BlockKind::Data,
        asid: Asid::KERNEL,
        page_size: PageSize::Size4K,
        reuse: 0,
        prefetched: false,
    };

    /// Whether this block matches a typed lookup.
    #[inline]
    pub fn matches(&self, tag: u64, kind: BlockKind, asid: Asid, size: PageSize) -> bool {
        self.valid
            && self.kind == kind
            && self.tag == tag
            && (kind == BlockKind::Data || (self.asid == asid && self.page_size == size))
    }

    /// Whether this block matches a data lookup.
    #[inline]
    pub fn matches_data(&self, tag: u64) -> bool {
        self.valid && self.kind == BlockKind::Data && self.tag == tag
    }

    /// Resets the block to hold a freshly filled line.
    #[inline]
    pub fn refill(
        &mut self,
        tag: u64,
        kind: BlockKind,
        asid: Asid,
        size: PageSize,
        dirty: bool,
        prefetched: bool,
    ) {
        self.valid = true;
        self.dirty = dirty;
        self.tag = tag;
        self.kind = kind;
        self.asid = asid;
        self.page_size = size;
        self.reuse = 0;
        self.prefetched = prefetched;
    }

    /// The presence word this block packs to (RRIP bits zero; the reuse
    /// counter saturates at [`WORD_REUSE_MAX`]).
    #[inline]
    pub fn word(&self) -> u64 {
        if self.valid {
            pack_word_flags(self.tag, self.kind, self.asid, self.page_size, self.dirty, self.prefetched)
                | ((self.reuse as u64).min(WORD_REUSE_MAX) << WORD_REUSE_SHIFT)
        } else {
            INVALID_WORD
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_block_matches_nothing() {
        let b = CacheBlock::INVALID;
        assert!(!b.matches_data(0));
        assert!(!b.matches(0, BlockKind::Data, Asid::KERNEL, PageSize::Size4K));
        assert_eq!(b.word(), INVALID_WORD);
    }

    #[test]
    fn data_match_ignores_asid_and_size() {
        let mut b = CacheBlock::INVALID;
        b.refill(42, BlockKind::Data, Asid::new(5), PageSize::Size2M, false, false);
        assert!(b.matches(42, BlockKind::Data, Asid::new(9), PageSize::Size4K));
        assert!(b.matches_data(42));
        assert!(!b.matches_data(43));
    }

    #[test]
    fn tlb_match_requires_asid_and_size() {
        let mut b = CacheBlock::INVALID;
        b.refill(42, BlockKind::Tlb, Asid::new(5), PageSize::Size4K, false, false);
        assert!(b.matches(42, BlockKind::Tlb, Asid::new(5), PageSize::Size4K));
        assert!(!b.matches(42, BlockKind::Tlb, Asid::new(6), PageSize::Size4K));
        assert!(!b.matches(42, BlockKind::Tlb, Asid::new(5), PageSize::Size2M));
        assert!(!b.matches(42, BlockKind::NestedTlb, Asid::new(5), PageSize::Size4K));
        assert!(!b.matches_data(42), "a TLB block must not satisfy data lookups");
    }

    #[test]
    fn refill_clears_reuse_and_sets_flags() {
        let mut b = CacheBlock::INVALID;
        b.reuse = 7;
        b.refill(1, BlockKind::Data, Asid::KERNEL, PageSize::Size4K, true, true);
        assert_eq!(b.reuse, 0);
        assert!(b.dirty && b.prefetched && b.valid);
    }

    #[test]
    fn translation_kinds() {
        assert!(!BlockKind::Data.is_translation());
        assert!(BlockKind::Tlb.is_translation());
        assert!(BlockKind::NestedTlb.is_translation());
    }

    #[test]
    fn packed_words_are_injective_over_identity() {
        let mut seen = std::collections::HashSet::new();
        for tag in [0u64, 1, 42, 0xffff_ffff] {
            for kind in [BlockKind::Data, BlockKind::Tlb, BlockKind::NestedTlb] {
                for asid in [Asid::KERNEL, Asid::new(1), Asid::new(0xfff)] {
                    for size in PageSize::ALL {
                        assert!(seen.insert(pack_word(tag, kind, asid, size)));
                    }
                }
            }
        }
    }

    #[test]
    fn word_predicates() {
        assert!(!word_is_valid(INVALID_WORD));
        assert!(!word_is_translation(INVALID_WORD));
        let data = pack_data_word(7);
        assert!(word_is_valid(data) && !word_is_translation(data));
        for kind in [BlockKind::Tlb, BlockKind::NestedTlb] {
            let w = pack_word(7, kind, Asid::new(3), PageSize::Size2M);
            assert!(word_is_valid(w) && word_is_translation(w));
        }
    }

    #[test]
    fn word_fields_round_trip() {
        // Largest representable tag: 34 bits.
        let w = pack_word(0x3_ffff_abcd, BlockKind::NestedTlb, Asid::new(0xabc), PageSize::Size2M);
        assert_eq!(word_tag(w), 0x3_ffff_abcd);
        assert_eq!(word_kind(w), BlockKind::NestedTlb);
        assert_eq!(word_asid(w), Asid::new(0xabc));
        assert_eq!(word_size(w), PageSize::Size2M);
        assert!(word_is_valid(w));
    }

    #[test]
    fn rrip_bits_do_not_disturb_identity() {
        let w = pack_word(99, BlockKind::Tlb, Asid::new(7), PageSize::Size4K);
        assert_eq!(word_rrip(w), 0);
        for r in 0..=3u8 {
            let aged = word_with_rrip(w, r);
            assert_eq!(word_rrip(aged), r);
            assert_eq!(aged & WORD_KEY_MASK, w & WORD_KEY_MASK);
            assert_eq!(word_tag(aged), 99);
        }
    }

    #[test]
    fn block_word_round_trips_identity() {
        let mut b = CacheBlock::INVALID;
        b.refill(99, BlockKind::Tlb, Asid::new(7), PageSize::Size2M, false, false);
        assert_eq!(b.word(), pack_word(99, BlockKind::Tlb, Asid::new(7), PageSize::Size2M));
    }
}
