//! Virtualised-memory substrate: guest and host page tables for nested
//! paging (Sec. 2.3) plus the shadow page table used by the ideal shadow
//! paging baseline (I-SP, Sec. 8).
//!
//! Layout:
//! - the **guest page table** maps guest-virtual → guest-physical and its
//!   table frames live in guest-physical space (so every guest-walk access
//!   itself needs a host translation — the 2D walk);
//! - the **host page table** maps guest-physical → host-physical with its
//!   tables in host-physical space;
//! - the **shadow page table** maps guest-virtual → host-physical directly
//!   (kept in sync at map time; I-SP assumes updates are free).

use crate::frame_alloc::FrameAllocator;
use crate::process::{AddressSpace, MappedRegion};
use crate::radix::RadixPageTable;
use vm_types::{Asid, PageSize, PhysAddr, SplitMix64, VirtAddr};

/// A shadow page table: guest-virtual → host-physical.
pub struct ShadowPageTable {
    /// The underlying radix table (tables live in host-physical space).
    pub table: RadixPageTable,
}

impl std::fmt::Debug for ShadowPageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowPageTable").field("table", &self.table).finish()
    }
}

/// The memory image of one guest VM running a single data-intensive
/// process, with all three page tables kept consistent.
pub struct NestedMemory {
    /// Guest-physical frame allocator.
    pub guest_alloc: FrameAllocator,
    /// Host-physical frame allocator.
    pub host_alloc: FrameAllocator,
    /// The guest process address space (gVA → gPA).
    pub guest: AddressSpace,
    /// Host page table (gPA → hPA). Guest-physical addresses are fed in as
    /// the "virtual" input of this radix table.
    pub host_pt: RadixPageTable,
    /// Shadow table (gVA → hPA) for the I-SP baseline.
    pub shadow: ShadowPageTable,
    host_huge_fraction: f64,
    rng: SplitMix64,
}

impl std::fmt::Debug for NestedMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NestedMemory").field("guest", &self.guest).field("host_pt", &self.host_pt).finish()
    }
}

impl NestedMemory {
    /// Creates a guest with `guest_phys_bytes` of guest-physical memory
    /// backed by `host_phys_bytes` of host-physical memory.
    ///
    /// `host_huge_fraction` is the probability that the host backs a 2MB
    /// guest-physical extent with a host huge page.
    pub fn new(
        asid: Asid,
        guest_phys_bytes: u64,
        host_phys_bytes: u64,
        host_huge_fraction: f64,
        seed: u64,
    ) -> Self {
        let mut guest_alloc = FrameAllocator::new(guest_phys_bytes, seed ^ 0x6e57);
        // A freshly booted guest sees an unfragmented "physical" space:
        // its allocator is dense, which is what lets the host back it at
        // 2MB granularity (EPT THP).
        guest_alloc.max_skip = 0;
        guest_alloc.set_logging(true);
        let mut host_alloc = FrameAllocator::new(host_phys_bytes, seed ^ 0x4057);
        let guest = AddressSpace::new(asid, &mut guest_alloc, seed);
        let host_pt = RadixPageTable::new(&mut host_alloc);
        let shadow = ShadowPageTable { table: RadixPageTable::new(&mut host_alloc) };
        let mut this = Self {
            guest_alloc,
            host_alloc,
            guest,
            host_pt,
            shadow,
            host_huge_fraction,
            rng: SplitMix64::new(seed ^ shadow_seed()),
        };
        // Host-map the guest root table frame allocated in `AddressSpace::new`.
        this.host_map_pending();
        this
    }

    /// Maps a region in the guest and backs every newly allocated
    /// guest-physical frame (data *and* guest page-table frames) in the
    /// host page table; also updates the shadow table.
    pub fn map_region(&mut self, bytes: u64, guest_huge_fraction: f64) -> MappedRegion {
        let region = self.guest.map_region(bytes, guest_huge_fraction, &mut self.guest_alloc);
        self.host_map_pending();
        self.shadow_map_region(&region);
        region
    }

    /// Maps a small 4KB-only guest region (code).
    pub fn map_small_region(&mut self, bytes: u64) -> MappedRegion {
        self.map_region(bytes, 0.0)
    }

    /// Backs all guest-physical frames allocated since the last call.
    ///
    /// Like a hypervisor using THP for VM backing, the host populates the
    /// guest-physical space in whole 2MB-aligned *chunks* on first touch:
    /// with probability `host_huge_fraction` a chunk gets one host 2MB
    /// page, otherwise 512 scattered host 4KB frames.
    fn host_map_pending(&mut self) {
        let log = self.guest_alloc.drain_log();
        for (frame, count) in log {
            let first_chunk = frame >> 9;
            let last_chunk = (frame + count as u64 - 1) >> 9;
            for chunk in first_chunk..=last_chunk {
                let gpa_base = gpa_as_va(chunk << 9);
                if self.host_pt.translate(gpa_base).is_some() {
                    continue; // chunk already backed
                }
                if self.rng.chance(self.host_huge_fraction) {
                    let hframe = self.host_alloc.alloc_2m();
                    self.host_pt.map(gpa_base, hframe, PageSize::Size2M, &mut self.host_alloc);
                } else {
                    self.host_pt.map_4k_run(gpa_base, 512, &mut self.host_alloc, FrameAllocator::alloc_4k);
                }
            }
        }
    }

    /// Builds shadow (gVA → hPA) entries for a freshly mapped region,
    /// one 2MB chunk at a time (regions are 2MB-aligned multiples of 2MB).
    /// Shadow granularity is 2MB only when both the guest page and the
    /// backing host extent are 2MB (page splintering otherwise).
    fn shadow_map_region(&mut self, region: &MappedRegion) {
        let (guest, host) = (&self.guest.page_table, &self.host_pt);
        for off in (0..region.bytes).step_by(2 << 20) {
            let gva = region.at(off);
            let (gpa, gsize) = guest.translate(gva).expect("region must be guest-mapped");
            let (hpa, hsize) = self.host_translate(gpa).expect("gpa must be host-mapped");
            if gsize == PageSize::Size2M
                && hsize == PageSize::Size2M
                && hpa.page_offset(PageSize::Size2M) == 0
            {
                self.shadow.table.map(
                    gva,
                    hpa.frame(PageSize::Size4K),
                    PageSize::Size2M,
                    &mut self.host_alloc,
                );
            } else {
                let mut page = gva;
                self.shadow.table.map_4k_run(gva, 512, &mut self.host_alloc, |_| {
                    let hpa = compose(guest, host, page).expect("gva must translate end to end");
                    page = page.add(4096);
                    hpa.frame(PageSize::Size4K)
                });
            }
        }
    }

    /// Host-translates a guest-physical address.
    pub fn host_translate(&self, gpa: PhysAddr) -> Option<(PhysAddr, PageSize)> {
        self.host_pt.translate(gpa_as_va_addr(gpa))
    }

    /// End-to-end translation gVA → hPA via guest + host tables (ground
    /// truth; must agree with the shadow table).
    pub fn full_translate(&self, gva: VirtAddr) -> Option<PhysAddr> {
        compose(&self.guest.page_table, &self.host_pt, gva)
    }
}

/// gVA → hPA through a guest and a host table.
fn compose(guest: &RadixPageTable, host: &RadixPageTable, gva: VirtAddr) -> Option<PhysAddr> {
    let (gpa, _) = guest.translate(gva)?;
    let (hpa, _) = host.translate(gpa_as_va_addr(gpa))?;
    Some(hpa)
}

/// Reinterprets a guest-physical frame number as the "virtual" input of the
/// host page table.
#[inline]
pub fn gpa_as_va(gframe: u64) -> VirtAddr {
    VirtAddr::new(gframe * 4096)
}

/// Reinterprets a guest-physical address as the host table's input.
#[inline]
pub fn gpa_as_va_addr(gpa: PhysAddr) -> VirtAddr {
    VirtAddr::new(gpa.raw())
}

// A tiny obfuscation-free helper so the seed expression above reads clearly.
#[inline]
const fn shadow_seed() -> u64 {
    0x5AD0_77AB
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> NestedMemory {
        NestedMemory::new(Asid::new(2), 1 << 30, 4 << 30, 0.3, 99)
    }

    #[test]
    fn guest_and_host_translations_compose() {
        let mut n = nested();
        let r = n.map_region(16 << 20, 0.3);
        for off in (0..r.bytes).step_by(4096) {
            let gva = r.at(off);
            assert!(n.full_translate(gva).is_some(), "untranslatable gva at {off}");
        }
    }

    #[test]
    fn shadow_agrees_with_two_level_translation() {
        let mut n = nested();
        let r = n.map_region(8 << 20, 0.5);
        for off in (0..r.bytes).step_by(4096) {
            let gva = r.at(off);
            let direct = n.full_translate(gva).unwrap();
            let (shadowed, _) = n.shadow.table.translate(gva).expect("shadow hole");
            assert_eq!(direct, shadowed, "shadow mismatch at offset {off}");
        }
    }

    #[test]
    fn guest_pt_frames_are_host_mapped() {
        let mut n = nested();
        let r = n.map_region(4 << 20, 0.0);
        // Every guest-walk step's PTE address (a gPA) must be host-mapped,
        // otherwise the 2D walker could not fetch guest PTEs.
        for off in (0..r.bytes).step_by(4096) {
            let walk = n.guest.page_table.walk(r.at(off)).unwrap();
            for step in walk.steps() {
                assert!(
                    n.host_translate(step.pte_paddr).is_some(),
                    "guest PTE at {:?} not host-mapped",
                    step.pte_paddr
                );
            }
        }
    }

    #[test]
    fn host_huge_pages_appear_when_requested() {
        let mut n = NestedMemory::new(Asid::new(3), 1 << 30, 4 << 30, 1.0, 7);
        let r = n.map_region(8 << 20, 1.0);
        let (gpa, gsize) = n.guest.page_table.translate(r.base).unwrap();
        assert_eq!(gsize, PageSize::Size2M);
        let (_, hsize) = n.host_translate(gpa).unwrap();
        assert_eq!(hsize, PageSize::Size2M);
        // Shadow should then also be 2MB.
        let (_, ssize) = n.shadow.table.translate(r.base).unwrap();
        assert_eq!(ssize, PageSize::Size2M);
    }
}
