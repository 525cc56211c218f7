//! The OS layer: per-process address spaces and eager region mapping with
//! transparent-huge-page mixing.
//!
//! The paper extracts each workload's page-size profile from a real system
//! running THP (Sec. 8); we reproduce that with a per-region huge-page
//! fraction: each 2MB-aligned chunk of a region is mapped either as one
//! 2MB page (with probability `huge_fraction`) or as 512 4KB pages, using
//! scattered physical frames from the shared [`FrameAllocator`].

use crate::frame_alloc::FrameAllocator;
use crate::radix::RadixPageTable;
use vm_types::{Asid, PageSize, SplitMix64, VirtAddr};

const CHUNK: u64 = 2 << 20;
const PAGES_PER_CHUNK: usize = (CHUNK / 4096) as usize;
/// Guard gap between regions, so workload regions never share leaf PTE
/// blocks.
const GUARD: u64 = 64 << 20;

/// A virtually contiguous, eagerly mapped region.
#[derive(Clone, Copy, Debug)]
pub struct MappedRegion {
    /// First virtual address of the region.
    pub base: VirtAddr,
    /// Region length in bytes.
    pub bytes: u64,
    /// Fraction of 2MB chunks that were mapped with a huge page.
    pub huge_fraction: f64,
}

impl MappedRegion {
    /// Address `offset` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `offset` is out of bounds.
    #[inline]
    pub fn at(&self, offset: u64) -> VirtAddr {
        debug_assert!(offset < self.bytes, "offset {offset} outside region of {} bytes", self.bytes);
        self.base.add(offset)
    }

    /// One-past-the-end address.
    pub fn end(&self) -> VirtAddr {
        self.base.add(self.bytes)
    }
}

/// A process address space: an ASID, a radix page table and a bump
/// allocator for region placement.
pub struct AddressSpace {
    asid: Asid,
    /// The process's page table.
    pub page_table: RadixPageTable,
    next_va: u64,
    rng: SplitMix64,
    regions: Vec<MappedRegion>,
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressSpace")
            .field("asid", &self.asid)
            .field("regions", &self.regions.len())
            .field("page_table", &self.page_table)
            .finish()
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new(asid: Asid, alloc: &mut FrameAllocator, seed: u64) -> Self {
        Self {
            asid,
            page_table: RadixPageTable::new(alloc),
            next_va: 0x2000_0000, // leave the low 512MB for "code"
            rng: SplitMix64::new(seed ^ 0xA5CE55),
            regions: Vec::new(),
        }
    }

    /// The address space identifier.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Regions mapped so far.
    pub fn regions(&self) -> &[MappedRegion] {
        &self.regions
    }

    /// Total mapped bytes across regions.
    pub fn footprint(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Maps a fresh region of `bytes` (rounded up to 2MB), mixing page
    /// sizes per `huge_fraction`, and returns it.
    pub fn map_region(&mut self, bytes: u64, huge_fraction: f64, alloc: &mut FrameAllocator) -> MappedRegion {
        let bytes = bytes.next_multiple_of(CHUNK);
        let base = VirtAddr::new(self.next_va);
        self.next_va += bytes + GUARD;
        let mut va = base;
        let chunks = bytes / CHUNK;
        for _ in 0..chunks {
            if self.rng.chance(huge_fraction) {
                let frame = alloc.alloc_2m();
                self.page_table.map(va, frame, PageSize::Size2M, alloc);
            } else {
                self.page_table.map_4k_run(va, PAGES_PER_CHUNK, alloc, FrameAllocator::alloc_4k);
            }
            va = va.add(CHUNK);
        }
        let region = MappedRegion { base, bytes, huge_fraction };
        self.regions.push(region);
        region
    }

    /// Maps a small region entirely with 4KB pages (e.g. the code region).
    pub fn map_small_region(&mut self, bytes: u64, alloc: &mut FrameAllocator) -> MappedRegion {
        self.map_region(bytes, 0.0, alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (FrameAllocator, AddressSpace) {
        let mut alloc = FrameAllocator::new(4 << 30, 21);
        let asp = AddressSpace::new(Asid::new(1), &mut alloc, 21);
        (alloc, asp)
    }

    #[test]
    fn region_is_fully_mapped() {
        let (mut alloc, mut asp) = space();
        let r = asp.map_region(8 << 20, 0.5, &mut alloc);
        for off in (0..r.bytes).step_by(4096) {
            assert!(asp.page_table.translate(r.at(off)).is_some(), "hole at offset {off}");
        }
    }

    #[test]
    fn huge_fraction_zero_uses_only_4k() {
        let (mut alloc, mut asp) = space();
        let r = asp.map_region(4 << 20, 0.0, &mut alloc);
        for off in (0..r.bytes).step_by(2 << 20) {
            let (_, size) = asp.page_table.translate(r.at(off)).unwrap();
            assert_eq!(size, PageSize::Size4K);
        }
    }

    #[test]
    fn huge_fraction_one_uses_only_2m() {
        let (mut alloc, mut asp) = space();
        let r = asp.map_region(4 << 20, 1.0, &mut alloc);
        for off in (0..r.bytes).step_by(2 << 20) {
            let (_, size) = asp.page_table.translate(r.at(off)).unwrap();
            assert_eq!(size, PageSize::Size2M);
        }
    }

    #[test]
    fn mixed_fraction_yields_both_sizes() {
        let (mut alloc, mut asp) = space();
        let r = asp.map_region(64 << 20, 0.4, &mut alloc);
        let mut sizes = std::collections::HashSet::new();
        for off in (0..r.bytes).step_by(2 << 20) {
            sizes.insert(asp.page_table.translate(r.at(off)).unwrap().1);
        }
        assert_eq!(sizes.len(), 2, "expected a mix of 4KB and 2MB pages");
    }

    #[test]
    fn regions_do_not_overlap() {
        let (mut alloc, mut asp) = space();
        let a = asp.map_region(4 << 20, 0.0, &mut alloc);
        let b = asp.map_region(4 << 20, 0.0, &mut alloc);
        assert!(b.base.raw() >= a.end().raw() + GUARD - 1);
        assert_eq!(asp.regions().len(), 2);
        assert_eq!(asp.footprint(), 8 << 20);
    }

    #[test]
    fn distinct_virtual_pages_get_distinct_frames() {
        let (mut alloc, mut asp) = space();
        let r = asp.map_region(2 << 20, 0.0, &mut alloc);
        let mut frames = std::collections::HashSet::new();
        for off in (0..r.bytes).step_by(4096) {
            let (pa, _) = asp.page_table.translate(r.at(off)).unwrap();
            assert!(frames.insert(pa.frame(PageSize::Size4K)));
        }
    }
}
