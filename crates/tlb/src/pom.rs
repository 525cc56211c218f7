//! POM-TLB: the "part-of-memory" software-managed L3 TLB of Ryoo et al.
//! [ISCA'17], the paper's main software-managed-TLB comparison point.
//!
//! POM-TLB is a very large set-associative TLB that *lives in DRAM*: each
//! lookup computes the physical address of the indexed entry group and
//! fetches it through the data-cache hierarchy, so a hit costs a cache/
//! memory access rather than an SRAM probe. The structure itself needs a
//! physically contiguous allocation (tens of MB — Sec. 3.2's second
//! drawback), which the `page_table::FrameAllocator` provides.
//!
//! This module models the logical content (who hits) with an LRU
//! set-associative directory, and exposes the physical address of the line
//! each operation touches so the simulator charges realistic latencies.

use vm_types::{Asid, PageSize, PhysAddr};

/// Geometry of the POM-TLB.
#[derive(Clone, Debug)]
pub struct PomTlbConfig {
    /// Total entries (the paper evaluates 64K).
    pub entries: usize,
    /// Associativity (16 in Table 3).
    pub ways: usize,
    /// Bytes per entry in memory (VPN tag + PPN + metadata).
    pub entry_bytes: u64,
}

impl Default for PomTlbConfig {
    fn default() -> Self {
        Self { entries: 64 * 1024, ways: 16, entry_bytes: 16 }
    }
}

impl PomTlbConfig {
    /// Sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent.
    pub fn num_sets(&self) -> usize {
        assert!(self.ways > 0 && self.entries.is_multiple_of(self.ways));
        let sets = self.entries / self.ways;
        assert!(sets.is_power_of_two());
        sets
    }

    /// Total backing storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.entries as u64 * self.entry_bytes
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct PomEntry {
    valid: bool,
    vpn: u64,
    asid: Asid,
    size: PageSize,
    frame: u64,
    lru: u64,
}

/// The in-memory software-managed TLB.
pub struct PomTlb {
    cfg: PomTlbConfig,
    base: PhysAddr,
    set_mask: u64,
    entries: Vec<PomEntry>,
    tick: u64,
}

impl std::fmt::Debug for PomTlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PomTlb")
            .field("entries", &self.cfg.entries)
            .field("ways", &self.cfg.ways)
            .field("base", &self.base)
            .finish()
    }
}

/// Result of a POM-TLB lookup: the translation, if present, plus the
/// physical line address the hardware had to fetch to find out.
#[derive(Clone, Copy, Debug)]
pub struct PomLookup {
    /// The translated frame, if the lookup hit.
    pub frame: Option<u64>,
    /// Physical address of the entry line that was read.
    pub line: PhysAddr,
}

impl PomTlb {
    /// Creates a POM-TLB whose backing store starts at `base` (obtain it
    /// from [`page_table::FrameAllocator::alloc_contiguous`] with
    /// [`PomTlbConfig::storage_bytes`] bytes).
    pub fn new(cfg: PomTlbConfig, base: PhysAddr) -> Self {
        let sets = cfg.num_sets();
        Self {
            set_mask: sets as u64 - 1,
            entries: vec![PomEntry::default(); cfg.entries],
            base,
            cfg,
            tick: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PomTlbConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        // Hash the VPN so 4KB and 2MB pages spread over the same sets.
        (vm_types::mix64(vpn) & self.set_mask) as usize
    }

    /// Physical address of the line holding way `way` of `set`.
    #[inline]
    fn line_addr(&self, set: usize, way: usize) -> PhysAddr {
        let offset = (set * self.cfg.ways + way) as u64 * self.cfg.entry_bytes;
        self.base.add(offset).block_align()
    }

    /// Looks up `vpn` (of the given size); returns the hit/miss outcome and
    /// the memory line the lookup read. The caller must charge one
    /// hierarchy access to `line`.
    pub fn lookup(&mut self, vpn: u64, asid: Asid, size: PageSize) -> PomLookup {
        let set = self.set_of(vpn);
        self.tick += 1;
        let tick = self.tick;
        let start = set * self.cfg.ways;
        for w in 0..self.cfg.ways {
            let e = &mut self.entries[start + w];
            if e.valid && e.vpn == vpn && e.asid == asid && e.size == size {
                e.lru = tick;
                return PomLookup { frame: Some(e.frame), line: self.line_addr(set, w) };
            }
        }
        PomLookup { frame: None, line: self.line_addr(set, 0) }
    }

    /// Installs a translation (after a PTW or on L2 TLB eviction); returns
    /// the memory line written, which the caller charges as a store.
    pub fn insert(&mut self, vpn: u64, asid: Asid, size: PageSize, frame: u64) -> PhysAddr {
        let set = self.set_of(vpn);
        self.tick += 1;
        let tick = self.tick;
        let start = set * self.cfg.ways;
        let set_slice = &mut self.entries[start..start + self.cfg.ways];
        let way = if let Some(w) =
            set_slice.iter().position(|e| e.valid && e.vpn == vpn && e.asid == asid && e.size == size)
        {
            w
        } else if let Some(w) = set_slice.iter().position(|e| !e.valid) {
            w
        } else {
            set_slice.iter().enumerate().min_by_key(|(_, e)| e.lru).map(|(i, _)| i).unwrap()
        };
        set_slice[way] = PomEntry { valid: true, vpn, asid, size, frame, lru: tick };
        self.line_addr(set, way)
    }

    /// Invalidates one translation (shootdown support for the software
    /// TLB); returns whether an entry was dropped.
    pub fn invalidate(&mut self, vpn: u64, asid: Asid, size: PageSize) -> bool {
        let set = self.set_of(vpn);
        let start = set * self.cfg.ways;
        for e in &mut self.entries[start..start + self.cfg.ways] {
            if e.valid && e.vpn == vpn && e.asid == asid && e.size == size {
                e.valid = false;
                return true;
            }
        }
        false
    }

    /// Serialises the directory contents and LRU clock into checkpoint
    /// words (geometry and backing-store base are rebuilt from the
    /// config).
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.tick);
        for e in &self.entries {
            out.push(e.valid as u64 | (e.size.is_huge() as u64) << 1 | (e.asid.raw() as u64) << 4);
            out.push(e.vpn);
            out.push(e.frame);
            out.push(e.lru);
        }
    }

    /// Restores state captured by [`PomTlb::save_state`] into a POM-TLB
    /// of identical geometry.
    ///
    /// # Errors
    ///
    /// Returns a message if the word count does not match this geometry.
    pub fn restore_state(&mut self, words: &[u64]) -> Result<(), String> {
        let expect = 1 + 4 * self.cfg.entries;
        if words.len() != expect {
            return Err(format!(
                "POM-TLB: checkpoint section has {} words, geometry needs {expect}",
                words.len()
            ));
        }
        self.tick = words[0];
        for (e, w) in self.entries.iter_mut().zip(words[1..].chunks_exact(4)) {
            *e = PomEntry {
                valid: w[0] & 1 != 0,
                size: if w[0] & 1 << 1 != 0 { PageSize::Size2M } else { PageSize::Size4K },
                asid: Asid::new((w[0] >> 4) as u16),
                vpn: w[1],
                frame: w[2],
                lru: w[3],
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pom() -> PomTlb {
        PomTlb::new(PomTlbConfig { entries: 1024, ways: 16, entry_bytes: 16 }, PhysAddr::new(0x40_0000))
    }

    #[test]
    fn storage_math_matches_paper_scale() {
        let cfg = PomTlbConfig::default();
        assert_eq!(cfg.storage_bytes(), 1 << 20, "64K x 16B = 1MB backing store");
        assert_eq!(cfg.num_sets(), 4096);
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut p = pom();
        let a = Asid::new(1);
        let l = p.lookup(0x42, a, PageSize::Size4K);
        assert!(l.frame.is_none());
        p.insert(0x42, a, PageSize::Size4K, 0x99);
        let l = p.lookup(0x42, a, PageSize::Size4K);
        assert_eq!(l.frame, Some(0x99));
    }

    #[test]
    fn line_addresses_fall_inside_backing_store() {
        let mut p = pom();
        let a = Asid::new(2);
        for vpn in 0..500u64 {
            let line = p.insert(vpn, a, PageSize::Size4K, vpn);
            assert!(line.raw() >= 0x40_0000);
            assert!(line.raw() < 0x40_0000 + p.config().storage_bytes());
            assert_eq!(line.raw() % 64, 0, "lines are block aligned");
        }
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut p = PomTlb::new(PomTlbConfig { entries: 16, ways: 16, entry_bytes: 16 }, PhysAddr::new(0));
        let a = Asid::new(1);
        for vpn in 0..16u64 {
            p.insert(vpn, a, PageSize::Size4K, vpn);
        }
        // Touch vpn 0 so it is MRU, then insert one more.
        p.lookup(0, a, PageSize::Size4K);
        p.insert(100, a, PageSize::Size4K, 100);
        assert!(p.lookup(0, a, PageSize::Size4K).frame.is_some());
        // Exactly one of the untouched entries was displaced.
        let missing = (1..16u64).filter(|&v| p.lookup(v, a, PageSize::Size4K).frame.is_none()).count();
        assert_eq!(missing, 1);
    }

    #[test]
    fn sizes_and_asids_are_distinct_keys() {
        let mut p = pom();
        p.insert(7, Asid::new(1), PageSize::Size4K, 1);
        assert!(p.lookup(7, Asid::new(2), PageSize::Size4K).frame.is_none());
        assert!(p.lookup(7, Asid::new(1), PageSize::Size2M).frame.is_none());
    }

    #[test]
    fn invalidate_drops_entry() {
        let mut p = pom();
        let a = Asid::new(1);
        p.insert(9, a, PageSize::Size4K, 5);
        assert!(p.invalidate(9, a, PageSize::Size4K));
        assert!(p.lookup(9, a, PageSize::Size4K).frame.is_none());
        assert!(!p.invalidate(9, a, PageSize::Size4K));
    }

    #[test]
    fn save_restore_round_trips_directory() {
        let mut p = pom();
        let a = Asid::new(6);
        for vpn in 0..200u64 {
            p.insert(vpn, a, PageSize::Size4K, vpn + 1000);
        }
        p.insert(7, a, PageSize::Size2M, 4096);
        let mut words = Vec::new();
        p.save_state(&mut words);
        let mut q = pom();
        q.restore_state(&words).expect("same geometry");
        for vpn in 0..200u64 {
            assert_eq!(q.lookup(vpn, a, PageSize::Size4K).frame, p.lookup(vpn, a, PageSize::Size4K).frame);
        }
        assert_eq!(q.lookup(7, a, PageSize::Size2M).frame, Some(4096));
        assert!(q.restore_state(&words[..10]).is_err());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut p = pom();
        let a = Asid::new(1);
        p.insert(3, a, PageSize::Size4K, 10);
        p.insert(3, a, PageSize::Size4K, 20);
        assert_eq!(p.lookup(3, a, PageSize::Size4K).frame, Some(20));
    }
}
