//! The four-level radix page table (x86-64 style, Fig. 1 of the paper).
//!
//! Every table occupies a simulated 4KB physical frame; traversal is O(1)
//! per level because non-leaf entries store the child's *table index*
//! internally while the table's physical frame (used to compute each PTE's
//! physical address for the cache model) is tracked per table. Leaf entries
//! are genuine [`Pte`]s carrying the output frame, the PS bit and Victima's
//! PTW frequency/cost counters.

use crate::frame_alloc::FrameAllocator;
use crate::pte::Pte;
use vm_types::{PageSize, PhysAddr, VirtAddr};

/// Entries per table (512 = 9 bits per level).
pub const TABLE_ENTRIES: usize = 512;
/// Bytes per PTE.
pub const PTE_BYTES: u64 = 8;

/// Number of levels (PML4, PDPT, PD, PT).
pub const LEVELS: u8 = 4;

#[derive(Clone)]
struct Table {
    frame: u64,
    entries: Box<[u64; TABLE_ENTRIES]>,
}

impl Table {
    fn new(frame: u64) -> Self {
        Self { frame, entries: Box::new([0u64; TABLE_ENTRIES]) }
    }
}

/// One level of a completed walk: where the PTE lives and what it said.
#[derive(Clone, Copy, Debug)]
pub struct WalkStep {
    /// Radix level (3 = PML4 … 0 = PT).
    pub level: u8,
    /// Physical address of the PTE that was read.
    pub pte_paddr: PhysAddr,
}

/// A completed page-table walk: up to four steps plus the leaf outcome.
#[derive(Clone, Copy, Debug)]
pub struct Walk {
    steps: [WalkStep; LEVELS as usize],
    len: u8,
    /// Output frame (4KB-frame number of the page base).
    pub frame: u64,
    /// Page size of the mapping found.
    pub page_size: PageSize,
    /// The leaf PTE value (carries the predictor counters).
    pub leaf_pte: Pte,
}

impl Walk {
    /// The per-level steps, root first. 4 steps for 4KB pages, 3 for 2MB.
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len as usize]
    }

    /// Physical address of the leaf PTE (the one Victima's transform needs:
    /// its 64B cache block holds 8 consecutive PTEs).
    pub fn leaf_pte_paddr(&self) -> PhysAddr {
        self.steps[self.len as usize - 1].pte_paddr
    }

    /// Full output physical address for `va`.
    pub fn output(&self, va: VirtAddr) -> PhysAddr {
        PhysAddr::from_frame(
            self.frame >> (self.page_size.shift() - 12),
            self.page_size,
            va.page_offset(self.page_size),
        )
    }
}

/// How one 2MB-aligned extent is mapped ([`RadixPageTable::extent`]).
pub(crate) enum Extent<'a> {
    /// One 2MB page starting at this 4KB frame.
    Huge(u64),
    /// A leaf table of 4KB entries.
    Table(&'a [u64; TABLE_ENTRIES]),
}

impl Extent<'_> {
    /// The 4KB frame that page `index` (0..512) of the extent maps to,
    /// or `None` if that page is unmapped.
    #[inline]
    pub(crate) fn frame(&self, index: usize) -> Option<u64> {
        match *self {
            Extent::Huge(base) => Some(base + index as u64),
            Extent::Table(entries) => {
                let entry = entries[index];
                is_present(entry).then(|| decode_leaf(entry).frame())
            }
        }
    }
}

/// A per-address-space four-level radix page table.
pub struct RadixPageTable {
    tables: Vec<Table>,
    root: usize,
    mapped_pages: u64,
}

impl std::fmt::Debug for RadixPageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadixPageTable")
            .field("tables", &self.tables.len())
            .field("mapped_pages", &self.mapped_pages)
            .finish()
    }
}

// Internal encoding of non-leaf entries: present bit | child table index in
// the frame field. The walker never interprets these bits — it only uses
// per-step PTE physical addresses — so the encoding is private.
const NONLEAF_PRESENT: u64 = 1;
const NONLEAF_LEAFBIT: u64 = 1 << 1;

fn nonleaf(child: usize) -> u64 {
    NONLEAF_PRESENT | ((child as u64) << 12)
}

fn child_of(entry: u64) -> usize {
    (entry >> 12) as usize
}

fn is_present(entry: u64) -> bool {
    entry & NONLEAF_PRESENT != 0
}

fn is_leaf(entry: u64) -> bool {
    entry & NONLEAF_LEAFBIT != 0
}

fn encode_leaf(pte: Pte) -> u64 {
    // Leaf entries are stored shifted so the internal present/leaf bits
    // don't collide with the PTE's own bits.
    (pte.raw() << 2) | NONLEAF_PRESENT | NONLEAF_LEAFBIT
}

fn decode_leaf(entry: u64) -> Pte {
    Pte::from_raw(entry >> 2)
}

impl RadixPageTable {
    /// Creates an empty page table, allocating the root frame.
    pub fn new(alloc: &mut FrameAllocator) -> Self {
        let root_frame = alloc.alloc_4k();
        Self { tables: vec![Table::new(root_frame)], root: 0, mapped_pages: 0 }
    }

    /// Physical address of the root table (the CR3 value).
    pub fn root_paddr(&self) -> PhysAddr {
        PhysAddr::new(self.tables[self.root].frame * 4096)
    }

    /// Number of 4KB frames consumed by the tables themselves.
    pub fn table_frames(&self) -> u64 {
        self.tables.len() as u64
    }

    /// Number of leaf mappings installed.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// Maps `va` → `frame` with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if the mapping would overwrite an existing incompatible
    /// mapping (the OS layer never double-maps).
    pub fn map(&mut self, va: VirtAddr, frame: u64, size: PageSize, alloc: &mut FrameAllocator) {
        self.map_in_table(va, frame, size, alloc);
    }

    /// Maps `count` consecutive 4KB pages from `va`, a run inside one leaf
    /// table, with frames from `fill`, which fills a slice with the next
    /// frames in page order (e.g. [`FrameAllocator::alloc_4k_into`]). The
    /// first page's frame is drawn alone and mapped through
    /// [`RadixPageTable::map`], so it is drawn before any intermediate
    /// table the run needs, exactly as a per-page loop would draw them;
    /// the other `count - 1` frames are drawn in one call once their
    /// slots are known to be free, and written straight into the leaf
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero, if the run crosses a leaf-table boundary,
    /// or if any page of it is already mapped.
    pub fn map_4k_run(
        &mut self,
        va: VirtAddr,
        count: usize,
        alloc: &mut FrameAllocator,
        mut fill: impl FnMut(&mut FrameAllocator, &mut [u64]),
    ) {
        let first = va.radix_index(0);
        assert!(
            count > 0 && first + count <= TABLE_ENTRIES,
            "a run of {count} 4KB pages at {va} does not fit one leaf table"
        );
        let mut frames = [0u64; TABLE_ENTRIES];
        fill(alloc, &mut frames[..1]);
        let table = self.map_in_table(va, frames[0], PageSize::Size4K, alloc);
        let slots = &mut self.tables[table].entries[first + 1..first + count];
        if let Some(i) = slots.iter().position(|&slot| is_present(slot)) {
            panic!("double mapping at {}", va.add((i as u64 + 1) * 4096));
        }
        let rest = &mut frames[1..count];
        fill(alloc, rest);
        for (slot, &frame) in slots.iter_mut().zip(rest.iter()) {
            *slot = encode_leaf(Pte::leaf(frame, PageSize::Size4K));
        }
        self.mapped_pages += count as u64 - 1;
    }

    /// How the 2MB extent holding `va` is mapped, or `None` if it is not:
    /// lets a caller read a whole leaf table's frames with one walk.
    pub(crate) fn extent(&self, va: VirtAddr) -> Option<Extent<'_>> {
        let mut table = self.root;
        for level in (1..LEVELS).rev() {
            let entry = self.tables[table].entries[va.radix_index(level)];
            if !is_present(entry) {
                return None;
            }
            if is_leaf(entry) {
                return (level == 1).then(|| Extent::Huge(decode_leaf(entry).frame()));
            }
            table = child_of(entry);
        }
        Some(Extent::Table(&self.tables[table].entries))
    }

    /// The index of the table at `level` on `va`'s path. Each missing
    /// table above it is created on the way down, root side first, with a
    /// frame from `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if the path runs through a leaf above `level`.
    pub(crate) fn directory(&mut self, va: VirtAddr, level: u8, alloc: &mut FrameAllocator) -> usize {
        let mut table = self.root;
        for parent in (level + 1..LEVELS).rev() {
            let idx = va.radix_index(parent);
            let entry = self.tables[table].entries[idx];
            table = if is_present(entry) {
                assert!(!is_leaf(entry), "cannot map through an existing leaf at level {parent}");
                child_of(entry)
            } else {
                let child = self.tables.len();
                self.tables.push(Table::new(alloc.alloc_4k()));
                self.tables[table].entries[idx] = nonleaf(child);
                child
            };
        }
        table
    }

    /// [`RadixPageTable::map`], returning the index of the table that holds
    /// the new leaf entry.
    fn map_in_table(
        &mut self,
        va: VirtAddr,
        frame: u64,
        size: PageSize,
        alloc: &mut FrameAllocator,
    ) -> usize {
        let leaf_level = size.leaf_level();
        let table = self.directory(va, leaf_level, alloc);
        let idx = va.radix_index(leaf_level);
        let slot = &mut self.tables[table].entries[idx];
        assert!(!is_present(*slot), "double mapping at {va}");
        *slot = encode_leaf(Pte::leaf(frame, size));
        self.mapped_pages += 1;
        table
    }

    /// Walks the table for `va`, recording the PTE physical address touched
    /// at each level. Returns `None` if the address is unmapped.
    pub fn walk(&self, va: VirtAddr) -> Option<Walk> {
        let mut steps = [WalkStep { level: 0, pte_paddr: PhysAddr::new(0) }; LEVELS as usize];
        let mut len = 0u8;
        let mut table = self.root;
        let mut level = LEVELS - 1;
        loop {
            let idx = va.radix_index(level);
            let pte_paddr = PhysAddr::new(self.tables[table].frame * 4096 + idx as u64 * PTE_BYTES);
            steps[len as usize] = WalkStep { level, pte_paddr };
            len += 1;
            let entry = self.tables[table].entries[idx];
            if !is_present(entry) {
                return None;
            }
            if is_leaf(entry) {
                let pte = decode_leaf(entry);
                return Some(Walk {
                    steps,
                    len,
                    frame: pte.frame(),
                    page_size: pte.page_size(),
                    leaf_pte: pte,
                });
            }
            if level == 0 {
                return None; // malformed: non-leaf at PT level
            }
            table = child_of(entry);
            level -= 1;
        }
    }

    /// Translates `va` without recording steps.
    pub fn translate(&self, va: VirtAddr) -> Option<(PhysAddr, PageSize)> {
        self.walk(va).map(|w| (w.output(va), w.page_size))
    }

    /// Applies `f` to the leaf PTE of `va` (used by the MMU to update the
    /// PTW frequency/cost counters after a walk). No-op if unmapped.
    pub fn update_leaf<F: FnOnce(&mut Pte)>(&mut self, va: VirtAddr, f: F) {
        let mut table = self.root;
        let mut level = LEVELS - 1;
        loop {
            let idx = va.radix_index(level);
            let entry = self.tables[table].entries[idx];
            if !is_present(entry) {
                return;
            }
            if is_leaf(entry) {
                let mut pte = decode_leaf(entry);
                f(&mut pte);
                self.tables[table].entries[idx] = encode_leaf(pte);
                return;
            }
            if level == 0 {
                return;
            }
            table = child_of(entry);
            level -= 1;
        }
    }

    /// Serialises the PTW-counter state as (global entry index, raw PTE)
    /// pairs, one per leaf whose frequency/cost counters are nonzero. The
    /// table topology and mappings are deterministic from workload
    /// construction, so a warm-state checkpoint only needs the counters
    /// that walks have bumped since.
    pub fn save_counters(&self, out: &mut Vec<u64>) {
        for (t, table) in self.tables.iter().enumerate() {
            for (i, &entry) in table.entries.iter().enumerate() {
                if is_present(entry) && is_leaf(entry) {
                    let pte = decode_leaf(entry);
                    if pte.ptw_freq() != 0 || pte.ptw_cost() != 0 {
                        out.push((t * TABLE_ENTRIES + i) as u64);
                        out.push(pte.raw());
                    }
                }
            }
        }
    }

    /// Restores counters captured by [`RadixPageTable::save_counters`]
    /// into an identically constructed page table, verifying along the way
    /// that every target is a leaf translating to the same frame — a
    /// mismatch means the checkpoint was taken against a different
    /// workload/seed construction.
    ///
    /// # Errors
    ///
    /// Returns a message on odd word counts, out-of-range indices,
    /// non-leaf targets, or translation mismatches.
    pub fn restore_counters(&mut self, words: &[u64]) -> Result<(), String> {
        if !words.len().is_multiple_of(2) {
            return Err("page table: counter section has an odd word count".into());
        }
        for pair in words.chunks_exact(2) {
            let (idx, raw) = (pair[0] as usize, pair[1]);
            let (t, i) = (idx / TABLE_ENTRIES, idx % TABLE_ENTRIES);
            let entry = self
                .tables
                .get(t)
                .map(|table| table.entries[i])
                .ok_or_else(|| format!("page table: counter index {idx} is out of range"))?;
            if !is_present(entry) || !is_leaf(entry) {
                return Err(format!("page table: counter index {idx} is not a mapped leaf"));
            }
            let (old, new) = (decode_leaf(entry), Pte::from_raw(raw));
            if old.frame() != new.frame() || old.page_size() != new.page_size() {
                return Err(format!(
                    "page table: counter index {idx} translates differently (checkpoint from another construction?)"
                ));
            }
            self.tables[t].entries[i] = encode_leaf(new);
        }
        Ok(())
    }

    /// Removes the mapping for `va` (TLB-shootdown scenarios). Returns the
    /// removed PTE if one existed.
    pub fn unmap(&mut self, va: VirtAddr) -> Option<Pte> {
        let mut table = self.root;
        let mut level = LEVELS - 1;
        loop {
            let idx = va.radix_index(level);
            let entry = self.tables[table].entries[idx];
            if !is_present(entry) {
                return None;
            }
            if is_leaf(entry) {
                self.tables[table].entries[idx] = 0;
                self.mapped_pages -= 1;
                return Some(decode_leaf(entry));
            }
            if level == 0 {
                return None;
            }
            table = child_of(entry);
            level -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FrameAllocator, RadixPageTable) {
        let mut alloc = FrameAllocator::new(1 << 30, 11);
        let pt = RadixPageTable::new(&mut alloc);
        (alloc, pt)
    }

    #[test]
    fn map_and_walk_4k() {
        let (mut alloc, mut pt) = setup();
        let frame = alloc.alloc_4k();
        let va = VirtAddr::new(0x7f00_1234_5000);
        pt.map(va, frame, PageSize::Size4K, &mut alloc);
        let walk = pt.walk(va).expect("mapped");
        assert_eq!(walk.steps().len(), 4);
        assert_eq!(walk.frame, frame);
        assert_eq!(walk.page_size, PageSize::Size4K);
        // Levels descend 3,2,1,0.
        let levels: Vec<u8> = walk.steps().iter().map(|s| s.level).collect();
        assert_eq!(levels, vec![3, 2, 1, 0]);
    }

    #[test]
    fn map_and_walk_2m_has_three_steps() {
        let (mut alloc, mut pt) = setup();
        let frame = alloc.alloc_2m();
        let va = VirtAddr::new(0x40_0000 * 3);
        pt.map(va, frame, PageSize::Size2M, &mut alloc);
        let walk = pt.walk(va.add(0x12_3456)).expect("mapped");
        assert_eq!(walk.steps().len(), 3);
        assert_eq!(walk.page_size, PageSize::Size2M);
        let out = walk.output(va.add(0x12_3456));
        assert_eq!(out.raw(), frame * 4096 + 0x12_3456);
    }

    #[test]
    fn unmapped_returns_none() {
        let (_, pt) = setup();
        assert!(pt.walk(VirtAddr::new(0xdead_beef)).is_none());
        assert!(pt.translate(VirtAddr::new(0xdead_beef)).is_none());
    }

    #[test]
    fn pte_addresses_are_distinct_across_levels() {
        let (mut alloc, mut pt) = setup();
        let frame = alloc.alloc_4k();
        let va = VirtAddr::new(0x1000_0000);
        pt.map(va, frame, PageSize::Size4K, &mut alloc);
        let walk = pt.walk(va).unwrap();
        let mut addrs: Vec<u64> = walk.steps().iter().map(|s| s.pte_paddr.raw()).collect();
        addrs.dedup();
        assert_eq!(addrs.len(), 4);
    }

    #[test]
    fn contiguous_pages_share_leaf_block() {
        // 8 PTEs fit one 64B block: VPNs differing only in the low 3 bits
        // must land in the same leaf cache block — the cluster Victima
        // transforms (footnote 3 of the paper).
        let (mut alloc, mut pt) = setup();
        let base = VirtAddr::new(0x2000_0000); // 8-page aligned
        let mut blocks = std::collections::HashSet::new();
        for i in 0..8u64 {
            let frame = alloc.alloc_4k();
            let va = base.add(i * 4096);
            pt.map(va, frame, PageSize::Size4K, &mut alloc);
            let walk = pt.walk(va).unwrap();
            blocks.insert(walk.leaf_pte_paddr().block_align());
        }
        assert_eq!(blocks.len(), 1, "8 contiguous PTEs must share one cache block");
    }

    #[test]
    fn update_leaf_bumps_counters_visible_to_walks() {
        let (mut alloc, mut pt) = setup();
        let frame = alloc.alloc_4k();
        let va = VirtAddr::new(0x3000_0000);
        pt.map(va, frame, PageSize::Size4K, &mut alloc);
        pt.update_leaf(va, |pte| {
            pte.bump_ptw_freq();
            pte.bump_ptw_cost();
        });
        let walk = pt.walk(va).unwrap();
        assert_eq!(walk.leaf_pte.ptw_freq(), 1);
        assert_eq!(walk.leaf_pte.ptw_cost(), 1);
        assert_eq!(walk.frame, frame, "counter updates must not corrupt the frame");
    }

    #[test]
    fn counter_snapshot_round_trips_and_verifies() {
        let build = || {
            let mut alloc = FrameAllocator::new(1 << 30, 11);
            let mut pt = RadixPageTable::new(&mut alloc);
            for i in 0..100u64 {
                let frame = alloc.alloc_4k();
                pt.map(VirtAddr::new(0x1_0000_0000 + i * 4096), frame, PageSize::Size4K, &mut alloc);
            }
            pt
        };
        let mut pt = build();
        for i in (0..100u64).step_by(7) {
            pt.update_leaf(VirtAddr::new(0x1_0000_0000 + i * 4096), |p| {
                p.bump_ptw_freq();
                p.bump_ptw_cost();
            });
        }
        let mut words = Vec::new();
        pt.save_counters(&mut words);
        assert_eq!(words.len(), 2 * 15, "only bumped leaves are recorded");
        let mut fresh = build();
        fresh.restore_counters(&words).expect("identical construction");
        for i in 0..100u64 {
            let va = VirtAddr::new(0x1_0000_0000 + i * 4096);
            let (a, b) = (pt.walk(va).unwrap().leaf_pte, fresh.walk(va).unwrap().leaf_pte);
            assert_eq!(a.raw(), b.raw(), "leaf {i} diverged after restore");
        }
        // A differently seeded construction translates differently and is
        // rejected rather than silently corrupted.
        let mut alloc = FrameAllocator::new(1 << 30, 999);
        let mut other = RadixPageTable::new(&mut alloc);
        for i in 0..100u64 {
            let frame = alloc.alloc_4k();
            other.map(VirtAddr::new(0x1_0000_0000 + i * 4096), frame, PageSize::Size4K, &mut alloc);
        }
        assert!(other.restore_counters(&words).is_err());
        assert!(fresh.restore_counters(&words[..3]).is_err(), "odd word count rejected");
    }

    #[test]
    fn unmap_removes_mapping() {
        let (mut alloc, mut pt) = setup();
        let frame = alloc.alloc_4k();
        let va = VirtAddr::new(0x5000_0000);
        pt.map(va, frame, PageSize::Size4K, &mut alloc);
        assert_eq!(pt.mapped_pages(), 1);
        let removed = pt.unmap(va).expect("was mapped");
        assert_eq!(removed.frame(), frame);
        assert!(pt.walk(va).is_none());
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "double mapping")]
    fn double_map_panics() {
        let (mut alloc, mut pt) = setup();
        let va = VirtAddr::new(0x6000_0000);
        let f = alloc.alloc_4k();
        pt.map(va, f, PageSize::Size4K, &mut alloc);
        let g = alloc.alloc_4k();
        pt.map(va, g, PageSize::Size4K, &mut alloc);
    }

    /// Frame, page-size shift and walk-step PTE addresses of `va`; empty
    /// when unmapped.
    fn walk_key(pt: &RadixPageTable, va: VirtAddr) -> Vec<u64> {
        pt.walk(va).map_or(Vec::new(), |w| {
            [w.frame, w.page_size.shift()]
                .into_iter()
                .chain(w.steps().iter().map(|s| s.pte_paddr.raw()))
                .collect()
        })
    }

    #[test]
    fn map_4k_run_matches_a_per_page_map_loop() {
        let mut rng = vm_types::SplitMix64::new(0x4b52_756e);
        for case in 0..300 {
            // Twin tables over twin allocators receive the same set-up.
            let (mut alloc_run, mut run) = setup();
            let (mut alloc_loop, mut per_page) = setup();
            let leaf = VirtAddr::new(rng.next_below(1 << 26) << 21);
            let start = rng.next_below(512) as usize;
            let count = 1 + rng.next_below(512 - start as u64) as usize;
            let va = leaf.add(start as u64 * 4096);
            // Neighbours already mapped in the same leaf table (which then
            // exists), a 4KB or 2MB sibling under the same directory, or
            // fresh intermediate tables.
            let mut prior = Vec::new();
            match rng.next_below(3) {
                0 => {
                    for p in (0..start).chain(start + count..512) {
                        if rng.chance(0.3) {
                            prior.push((leaf.add(p as u64 * 4096), PageSize::Size4K));
                        }
                    }
                }
                1 => {
                    let size = if rng.chance(0.5) { PageSize::Size2M } else { PageSize::Size4K };
                    prior.push((VirtAddr::new(leaf.raw() ^ (1 << 21)), size));
                }
                _ => {}
            }
            for (alloc, pt) in [(&mut alloc_run, &mut run), (&mut alloc_loop, &mut per_page)] {
                for &(pva, size) in &prior {
                    let frame = alloc.alloc(size);
                    pt.map(pva, frame, size, alloc);
                }
            }
            run.map_4k_run(va, count, &mut alloc_run, FrameAllocator::alloc_4k_into);
            for i in 0..count as u64 {
                let frame = alloc_loop.alloc_4k();
                per_page.map(va.add(i * 4096), frame, PageSize::Size4K, &mut alloc_loop);
            }
            for p in 0..512u64 {
                let pva = leaf.add(p * 4096);
                assert_eq!(walk_key(&run, pva), walk_key(&per_page, pva), "case {case}: page {p} differs");
            }
            for &(pva, _) in &prior {
                assert_eq!(
                    walk_key(&run, pva),
                    walk_key(&per_page, pva),
                    "case {case}: prior mapping differs"
                );
            }
            assert_eq!(run.table_frames(), per_page.table_frames(), "case {case}");
            assert_eq!(run.mapped_pages(), per_page.mapped_pages(), "case {case}");
            assert_eq!(alloc_run.frames_used(), alloc_loop.frames_used(), "case {case}");
            assert_eq!(alloc_run.rng_state(), alloc_loop.rng_state(), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit one leaf table")]
    fn map_4k_run_across_a_leaf_table_boundary_panics() {
        let (mut alloc, mut pt) = setup();
        pt.map_4k_run(VirtAddr::new(0x4000_0000 + 500 * 4096), 13, &mut alloc, FrameAllocator::alloc_4k_into);
    }

    #[test]
    #[should_panic(expected = "double mapping")]
    fn map_4k_run_over_a_mapped_page_panics() {
        let (mut alloc, mut pt) = setup();
        let f = alloc.alloc_4k();
        pt.map(VirtAddr::new(0x4000_0000 + 7 * 4096), f, PageSize::Size4K, &mut alloc);
        pt.map_4k_run(VirtAddr::new(0x4000_0000), 16, &mut alloc, FrameAllocator::alloc_4k_into);
    }

    #[test]
    fn many_mappings_walk_back_correctly() {
        let (mut alloc, mut pt) = setup();
        let mut expected = Vec::new();
        for i in 0..1000u64 {
            let va = VirtAddr::new(0x1_0000_0000 + i * 4096);
            let frame = alloc.alloc_4k();
            pt.map(va, frame, PageSize::Size4K, &mut alloc);
            expected.push((va, frame));
        }
        for (va, frame) in expected {
            assert_eq!(pt.walk(va).unwrap().frame, frame);
        }
    }
}
