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
//!
//! Only I-SP walks the shadow, so only an image built for it fills one.
//! Every other image still draws each frame the shadow would take from
//! the host allocator, so host-physical frame numbers do not depend on the
//! execution mode, but builds only the shadow's directories.
//!
//! The guest allocator logs its frames in runs, and the host backs each
//! guest-physical 2MB chunk a run touches with one lookup.

use crate::frame_alloc::FrameAllocator;
use crate::process::{AddressSpace, MappedRegion};
use crate::radix::{Extent, RadixPageTable, TABLE_ENTRIES};
use vm_types::{Asid, PageSize, PhysAddr, SplitMix64, VirtAddr};

/// The memory image of one guest VM running a single data-intensive
/// process, with its page tables kept consistent.
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
    /// Shadow table (gVA → hPA) for the I-SP baseline; only its
    /// directories unless `shadow_leaves` ([`NestedMemory::shadow`]).
    shadow: RadixPageTable,
    shadow_leaves: bool,
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
    /// guest-physical extent with a host huge page. `shadow_leaves` fills
    /// the shadow table (I-SP); without it the shadow takes the same host
    /// frames but gets no leaf tables.
    pub fn new(
        asid: Asid,
        guest_phys_bytes: u64,
        host_phys_bytes: u64,
        host_huge_fraction: f64,
        seed: u64,
        shadow_leaves: bool,
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
        let shadow = RadixPageTable::new(&mut host_alloc);
        let mut this = Self {
            guest_alloc,
            host_alloc,
            guest,
            host_pt,
            shadow,
            shadow_leaves,
            host_huge_fraction,
            rng: SplitMix64::new(seed ^ shadow_seed()),
        };
        // Host-map the guest root table frame allocated in `AddressSpace::new`.
        this.host_map_pending();
        this
    }

    /// The shadow table (gVA → hPA), or `None` if this image was built
    /// without one.
    pub fn shadow(&self) -> Option<&RadixPageTable> {
        self.shadow_leaves.then_some(&self.shadow)
    }

    /// [`NestedMemory::shadow`], mutably (walks update the leaf counters).
    pub fn shadow_mut(&mut self) -> Option<&mut RadixPageTable> {
        self.shadow_leaves.then_some(&mut self.shadow)
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
    /// page, otherwise 512 scattered host 4KB frames. Each chunk a logged
    /// run touches is looked up once; a run starting in the chunk the
    /// previous one ended in skips it.
    fn host_map_pending(&mut self) {
        let log = self.guest_alloc.drain_log();
        let mut handled = None;
        for (frame, count) in log {
            let first_chunk = frame >> 9;
            let last_chunk = (frame + count as u64 - 1) >> 9;
            for chunk in first_chunk..=last_chunk {
                if handled.replace(chunk) == Some(chunk) {
                    continue; // backed by the previous entry
                }
                let gpa_base = gpa_as_va(chunk << 9);
                if self.host_pt.translate(gpa_base).is_some() {
                    continue; // chunk already backed
                }
                if self.rng.chance(self.host_huge_fraction) {
                    let hframe = self.host_alloc.alloc_2m();
                    self.host_pt.map(gpa_base, hframe, PageSize::Size2M, &mut self.host_alloc);
                } else {
                    self.host_pt.map_4k_run(
                        gpa_base,
                        512,
                        &mut self.host_alloc,
                        FrameAllocator::alloc_4k_into,
                    );
                }
            }
        }
    }

    /// Builds shadow (gVA → hPA) entries for a freshly mapped region,
    /// one 2MB chunk at a time (regions are 2MB-aligned multiples of 2MB).
    /// Shadow granularity is 2MB only when both the guest page and the
    /// backing host extent are 2MB (page splintering otherwise). A 4KB
    /// chunk's 512 host frames are composed from one read of the guest
    /// extent and one host lookup per guest-physical 2MB chunk it touches.
    /// Without shadow leaves, a chunk only draws the frames of its
    /// directories and, when 4KB-shadowed, of its leaf table.
    fn shadow_map_region(&mut self, region: &MappedRegion) {
        let mut frames = [0u64; TABLE_ENTRIES];
        for off in (0..region.bytes).step_by(2 << 20) {
            let gva = region.at(off);
            let guest = self.guest.page_table.extent(gva).expect("region must be guest-mapped");
            let huge = match guest {
                Extent::Huge(gbase) if gbase % 512 == 0 => {
                    match self.host_pt.extent(gpa_as_va(gbase)).expect("gpa must be host-mapped") {
                        Extent::Huge(hbase) => Some(hbase),
                        Extent::Table(_) => None,
                    }
                }
                _ => None,
            };
            if !self.shadow_leaves {
                self.shadow.directory(gva, PageSize::Size2M.leaf_level(), &mut self.host_alloc);
                if huge.is_none() {
                    self.host_alloc.alloc_4k(); // the leaf table's frame
                }
                continue;
            }
            if let Some(hbase) = huge {
                self.shadow.map(gva, hbase, PageSize::Size2M, &mut self.host_alloc);
                continue;
            }
            // (guest-physical chunk, its host extent); no chunk is u64::MAX.
            let mut host = (u64::MAX, Extent::Huge(0));
            for (i, slot) in frames.iter_mut().enumerate() {
                let gframe = guest.frame(i).expect("region must be guest-mapped");
                let chunk = gframe >> 9;
                if chunk != host.0 {
                    let extent = self.host_pt.extent(gpa_as_va(chunk << 9)).expect("gpa must be host-mapped");
                    host = (chunk, extent);
                }
                *slot = host.1.frame((gframe % 512) as usize).expect("gpa must be host-mapped");
            }
            let mut next = 0;
            self.shadow.map_4k_run(gva, TABLE_ENTRIES, &mut self.host_alloc, |_, out| {
                out.copy_from_slice(&frames[next..next + out.len()]);
                next += out.len();
            });
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
        NestedMemory::new(Asid::new(2), 1 << 30, 4 << 30, 0.3, 99, true)
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
        // Every guest/host page-size pairing: 4KB over 4KB, 4KB over
        // 2MB, 2MB over 4KB and 2MB over 2MB chunks.
        for host_huge in [0.0, 0.3, 1.0] {
            for guest_huge in [0.0, 0.5, 1.0] {
                let mut n = NestedMemory::new(Asid::new(2), 1 << 30, 4 << 30, host_huge, 99, true);
                let r = n.map_region(8 << 20, guest_huge);
                for off in (0..r.bytes).step_by(4096) {
                    let gva = r.at(off);
                    let direct = n.full_translate(gva).unwrap();
                    let (shadowed, _) = n.shadow().unwrap().translate(gva).expect("shadow hole");
                    assert_eq!(
                        direct, shadowed,
                        "host {host_huge}, guest {guest_huge}: shadow mismatch at offset {off}"
                    );
                }
            }
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
        let mut n = NestedMemory::new(Asid::new(3), 1 << 30, 4 << 30, 1.0, 7, true);
        let r = n.map_region(8 << 20, 1.0);
        let (gpa, gsize) = n.guest.page_table.translate(r.base).unwrap();
        assert_eq!(gsize, PageSize::Size2M);
        let (_, hsize) = n.host_translate(gpa).unwrap();
        assert_eq!(hsize, PageSize::Size2M);
        // Shadow should then also be 2MB.
        let (_, ssize) = n.shadow().unwrap().translate(r.base).unwrap();
        assert_eq!(ssize, PageSize::Size2M);
    }

    #[test]
    fn a_run_straddling_a_chunk_boundary_backs_both_chunks_once() {
        let mut n = NestedMemory::new(Asid::new(4), 1 << 30, 4 << 30, 0.0, 5, false);
        // Move the guest cursor near the end of chunk 1 without logging.
        n.guest_alloc.set_logging(false);
        let mut skip = vec![0; 1000 - n.guest_alloc.frames_used() as usize];
        n.guest_alloc.alloc_4k_into(&mut skip);
        n.guest_alloc.set_logging(true);
        let mut run = [0; 48];
        n.guest_alloc.alloc_4k_into(&mut run);
        assert_eq!((run[0], run[47]), (1000, 1047), "the run straddles chunks 1 and 2");
        let before = n.host_pt.mapped_pages();
        n.host_map_pending();
        // 512 host 4KB pages per chunk: each was backed exactly once.
        assert_eq!(n.host_pt.mapped_pages() - before, 2 * 512);
        for frame in 512..3 * 512 {
            assert!(n.host_pt.translate(gpa_as_va(frame)).is_some(), "guest frame {frame} unbacked");
        }
        assert!(n.host_pt.translate(gpa_as_va(3 * 512)).is_none(), "chunk 3 was never touched");
    }
}
