//! The virtualised half of the translation pipeline: nested paging's
//! two-dimensional walk and the gPA→hPA translations it needs (nested
//! TLB, Victima's nested TLB blocks of Fig. 18, host walk).
//!
//! The L2-TLB-miss pipeline itself (`System::resolve_l2_miss`) and
//! Victima's eviction flow are shared with native mode. The 2D walk is
//! `tlb_sim::walker`'s one walk loop over the guest table, whose per-step
//! hook translates each guest PTE address to host-physical before reading
//! it; ideal shadow paging walks the shadow table like a native table.
//! Hardware TLB entries in virtualised mode hold the *composed* gVA→hPA
//! translation at the splintered granularity: 2MB only when both the guest
//! page and its host backing are 2MB-aligned huge mappings.

use crate::system::{entry_from, frame_pa, System};
use mem_sim::{AccessResult, BlockKind, MemClass, ReplacementCtx};
use page_table::nested::gpa_as_va_addr;
use page_table::{NestedMemory, RadixPageTable};
use tlb_sim::{walker, PageWalkCaches, TlbEntry, WalkEnv, WalkOutcome};
use vm_types::{Asid, Cycles, PageSize, PhysAddr, VirtAddr};

/// The guest dimension of the 2D walk: the guest table under the demand
/// walker's PWCs, each guest PTE read at its host-physical address.
struct GuestWalk<'a> {
    sys: &'a mut System,
    ctx: ReplacementCtx,
    demand: bool,
}

impl WalkEnv for GuestWalk<'_> {
    fn table(&mut self) -> &mut RadixPageTable {
        &mut self.sys.proc.memory.nested().guest.page_table
    }

    fn pwc(&mut self) -> &mut PageWalkCaches {
        &mut self.sys.walker.pwc
    }

    fn read_pte(&mut self, gpa: PhysAddr) -> (PhysAddr, AccessResult, Cycles) {
        let (hpa, h) = self.sys.host_translate(gpa, self.demand);
        (hpa, self.sys.hier.access(hpa, false, MemClass::Ptw, &self.ctx), h)
    }
}

impl System {
    /// The two-dimensional nested walk (Sec. 2.3): every guest page-table
    /// access needs its own gPA→hPA translation, and so does the final
    /// data page — up to 24 memory accesses when everything misses.
    ///
    /// Returns the composed gVA→hPA entry, the guest walk (its
    /// `leaf_pte_paddr` is the leaf PTE's *host*-physical address, where
    /// Victima finds the cluster) and the host-translation latency. The
    /// caller inserts TLB blocks. `demand` distinguishes core-visible
    /// walks from Victima's background eviction-flow walks (traffic
    /// without stall, and no demand statistics).
    pub(crate) fn nested_walk(&mut self, gva: VirtAddr, demand: bool) -> (TlbEntry, WalkOutcome, Cycles) {
        let asid = self.proc.asid;
        let guest = &mut GuestWalk { ctx: self.epoch.ctx(), sys: self, demand };
        let (walk, mut host_lat) =
            walker::walk(guest, gva, asid).unwrap_or_else(|| panic!("guest page fault at {gva}"));

        // Compose the final gVA→hPA entry (+ final host translation).
        let gpa = frame_pa(walk.frame, walk.page_size, gva);
        let (hpa_piece, h) = self.host_translate(PhysAddr::new(gpa.raw() & !0xfff), demand);
        host_lat += h;
        let e = compose_entry(self.proc.memory.nested(), gva, asid, walk.page_size, gpa, hpa_piece);
        (entry_from(gva, asid, e.size, e.frame, walk.leaf_pte), walk, host_lat)
    }

    /// Translates a guest-physical address to host-physical through the
    /// nested TLB, Victima's nested TLB blocks (Fig. 18) and the host
    /// page-table walker, returning the hPA and the latency.
    pub(crate) fn host_translate(&mut self, gpa: PhysAddr, demand: bool) -> (PhysAddr, Cycles) {
        if demand {
            self.stats.host_translations += 1;
        }
        let ctx = self.epoch.ctx();
        let asid = self.proc.asid;
        let gpa_va = gpa_as_va_addr(gpa);
        let mut latency = self.nested_tlb.latency();

        // Nested TLB, both host page sizes.
        for size in PageSize::ALL {
            if let Some(e) = self.nested_tlb.probe(gpa_va.vpn(size), asid, size) {
                if demand {
                    self.stats.nested_tlb_hits += 1;
                }
                return (frame_pa(e.frame, size, gpa_va), latency);
            }
        }

        // Victima: nested TLB block in the L2 cache.
        if let Some(v) = self.victima.as_mut() {
            if let Some(hit) = v.probe(self.hier.l2_mut(), gpa_va, asid, BlockKind::NestedTlb, &ctx) {
                // One software walk of the host table validates the hit's
                // page-size view *and* yields the entry.
                let entry = self
                    .proc
                    .memory
                    .nested()
                    .host_pt
                    .walk(gpa_va)
                    .filter(|w| w.page_size == hit.size)
                    .map(|w| entry_from(gpa_va, asid, w.page_size, w.frame, w.leaf_pte));
                if let Some(e) = entry {
                    latency += self.hier.l2().latency();
                    if demand {
                        self.stats.nested_block_hits += 1;
                    }
                    self.fill_nested_tlb(e);
                    return (frame_pa(e.frame, e.size, gpa_va), latency);
                }
            }
        }

        // Host page-table walk.
        let walk = self
            .host_walker
            .walk(&mut self.proc.memory.nested().host_pt, gpa_va, asid, &mut self.hier, &ctx)
            .unwrap_or_else(|| panic!("host page fault at gpa {gpa}"));
        if demand {
            self.stats.host_ptws += 1;
        }
        latency += walk.latency;
        self.fill_nested_tlb(entry_from(gpa_va, asid, walk.page_size, walk.frame, walk.leaf_pte));
        if let Some(v) = self.victima.as_mut() {
            v.insert_after_walk(self.hier.l2_mut(), gpa_va, asid, BlockKind::NestedTlb, &walk, &ctx);
        }
        (frame_pa(walk.frame, walk.page_size, gpa_va), latency)
    }

    /// Fills the nested TLB; a displaced entry runs Victima's eviction
    /// flow for nested TLB blocks.
    fn fill_nested_tlb(&mut self, e: TlbEntry) {
        if let Some(ev) = self.nested_tlb.fill(e) {
            self.victima_eviction_flow(ev, BlockKind::NestedTlb);
        }
    }
}

/// The composed (possibly splintered) gVA→hPA TLB entry for `gva`, whose
/// guest page of `gsize` maps it to `gpa`; `hpa_piece` is the
/// host-physical address of `gpa`'s 4KB piece. The entry is 2MB only when the host backs the
/// whole guest 2MB page with one aligned 2MB mapping. Both the timed
/// nested walk and the untimed TLB-block hit path build entries here.
pub(crate) fn compose_entry(
    nested: &NestedMemory,
    gva: VirtAddr,
    asid: Asid,
    gsize: PageSize,
    gpa: PhysAddr,
    hpa_piece: PhysAddr,
) -> TlbEntry {
    if gsize == PageSize::Size2M {
        let gpa_base = PhysAddr::new(gpa.raw() & !((2u64 << 20) - 1));
        if let Some((hpa_base, PageSize::Size2M)) = nested.host_translate(gpa_base) {
            if hpa_base.page_offset(PageSize::Size2M) == 0 {
                return TlbEntry::new(
                    gva.vpn(PageSize::Size2M),
                    asid,
                    PageSize::Size2M,
                    hpa_base.frame(PageSize::Size4K),
                );
            }
        }
    }
    TlbEntry::new(gva.vpn(PageSize::Size4K), asid, PageSize::Size4K, hpa_piece.frame(PageSize::Size4K))
}
