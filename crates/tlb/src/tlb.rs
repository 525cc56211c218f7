//! Set-associative translation lookaside buffers.
//!
//! One implementation serves every TLB in the paper's MMU: the L1 I-TLB,
//! the split L1 D-TLBs (one per page size), the unified multi-page-size L2
//! TLB, the hardware L3 TLBs of Sec. 3.1, and the 64-entry nested TLB of
//! virtualised mode (where the "virtual page number" key is a
//! guest-physical frame number).
//!
//! # Packed key words
//!
//! Like `mem_sim::Cache`, the probe path scans a packed parallel key
//! array, not the fat [`TlbEntry`] payloads: each way's identity (valid
//! bit, page size, ASID, VPN) packs into one `u64`, so a probe is one
//! equality compare per way over contiguous memory. Payload entries
//! (output frame + PTW counter snapshots) are touched only on hits and
//! fills, and LRU stamps live in their own packed array. Layout, low bit
//! first:
//!
//! ```text
//! [63:16] vpn   (48 bits; VPNs of a 48-bit VA need ≤ 36)
//! [15:4]  asid  (12-bit PCID)
//! [3]     page size (0 = 4KB, 1 = 2MB)
//! [0]     valid
//! ```

use vm_types::{Asid, Cycles, PageSize};

/// One TLB entry.
///
/// Besides the translation itself, entries snapshot the PTE's PTW
/// frequency/cost counters at fill time: Victima's eviction flow consults
/// the predictor with these values when the entry leaves the L2 TLB
/// (Sec. 5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Valid bit.
    pub valid: bool,
    /// Virtual page number (for `size`-sized pages).
    pub vpn: u64,
    /// Address-space identifier.
    pub asid: Asid,
    /// Page size of the mapping.
    pub size: PageSize,
    /// Output frame (4KB-frame number of the page base).
    pub frame: u64,
    /// PTW frequency counter snapshot (3-bit).
    pub ptw_freq: u8,
    /// PTW cost counter snapshot (4-bit).
    pub ptw_cost: u8,
}

impl TlbEntry {
    /// Creates a valid entry with zeroed counters.
    pub fn new(vpn: u64, asid: Asid, size: PageSize, frame: u64) -> Self {
        Self { valid: true, vpn, asid, size, frame, ptw_freq: 0, ptw_cost: 0 }
    }

    /// Creates a valid entry carrying counter snapshots.
    pub fn with_counters(vpn: u64, asid: Asid, size: PageSize, frame: u64, freq: u8, cost: u8) -> Self {
        Self { valid: true, vpn, asid, size, frame, ptw_freq: freq, ptw_cost: cost }
    }

    /// The packed key word of this entry's identity.
    #[inline]
    fn key(&self) -> u64 {
        pack_key(self.vpn, self.asid, self.size)
    }

    /// The packed payload word: `frame | freq<<56 | cost<<60` (40-bit
    /// frames leave bits 56+ free). Everything else about an entry is
    /// recoverable from its key word.
    #[inline]
    fn payload(&self) -> u64 {
        self.frame | (self.ptw_freq as u64) << 56 | (self.ptw_cost as u64) << 60
    }

    /// Reconstructs an entry from its packed key and payload words.
    #[inline]
    fn unpack(key: u64, payload: u64) -> TlbEntry {
        debug_assert!(key_is_valid(key), "unpacking an invalid way");
        TlbEntry {
            valid: true,
            vpn: key >> 16,
            asid: key_asid(key),
            size: if key & (1 << 3) != 0 { PageSize::Size2M } else { PageSize::Size4K },
            frame: payload & ((1 << 56) - 1),
            ptw_freq: (payload >> 56 & 0x7) as u8,
            ptw_cost: (payload >> 60 & 0xf) as u8,
        }
    }
}

/// Packs a (vpn, asid, size) identity into a key word (see module docs).
#[inline]
const fn pack_key(vpn: u64, asid: Asid, size: PageSize) -> u64 {
    debug_assert!(vpn < 1 << 48, "vpn overflows the key word");
    (vpn << 16) | ((asid.raw() as u64) << 4) | ((size.is_huge() as u64) << 3) | 1
}

/// The key word of an empty way.
const INVALID_KEY: u64 = 0;

#[inline]
const fn key_is_valid(key: u64) -> bool {
    key & 1 != 0
}

#[inline]
const fn key_asid(key: u64) -> Asid {
    Asid::new(((key >> 4) & 0xfff) as u16)
}

/// Geometry of a TLB.
#[derive(Clone, Debug)]
pub struct TlbConfig {
    /// Name for diagnostics, e.g. "L2-TLB".
    pub name: &'static str,
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Probe latency in cycles.
    pub latency: Cycles,
}

impl TlbConfig {
    /// The paper's unified L2 TLB shape: `entries` total, 12-cycle latency.
    pub fn l2_unified(entries: usize, ways: usize) -> Self {
        Self { name: "L2-TLB", entries, ways, latency: 12 }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if geometry is inconsistent or the set count is not a power
    /// of two.
    pub fn num_sets(&self) -> usize {
        assert!(
            self.ways > 0 && self.entries.is_multiple_of(self.ways),
            "{}: entries must divide by ways",
            self.name
        );
        let sets = self.entries / self.ways;
        assert!(sets.is_power_of_two(), "{}: set count {} must be a power of two", self.name, sets);
        sets
    }
}

/// A set-associative, LRU TLB over packed key words.
pub struct SetAssocTlb {
    cfg: TlbConfig,
    set_mask: u64,
    /// Packed identity keys, one per way (the scanned hot array).
    keys: Vec<u64>,
    /// LRU stamps, one per way, packed separately so the fill-time victim
    /// scan reads one or two cache lines per set instead of walking a
    /// payload array.
    stamps: Vec<u64>,
    /// Packed payload words (`frame | freq<<56 | cost<<60`), one per way.
    /// Together the three word arrays keep even the paper's 1536-entry
    /// L2 TLB in ~36KB of dense state — [`TlbEntry`] values exist only at
    /// the API boundary.
    payloads: Vec<u64>,
    tick: u64,
}

impl std::fmt::Debug for SetAssocTlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocTlb")
            .field("name", &self.cfg.name)
            .field("entries", &self.cfg.entries)
            .field("ways", &self.cfg.ways)
            .field("latency", &self.cfg.latency)
            .finish()
    }
}

impl SetAssocTlb {
    /// Creates a TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        let sets = cfg.num_sets();
        assert!(cfg.ways <= 256, "{}: victim packing carries the way index in 8 bits", cfg.name);
        Self {
            set_mask: sets as u64 - 1,
            keys: vec![INVALID_KEY; cfg.entries],
            stamps: vec![0; cfg.entries],
            payloads: vec![0; cfg.entries],
            cfg,
            tick: 0,
        }
    }

    /// Probe latency.
    #[inline]
    pub fn latency(&self) -> Cycles {
        self.cfg.latency
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    #[inline]
    fn set_start(&self, vpn: u64) -> usize {
        (vpn & self.set_mask) as usize * self.cfg.ways
    }

    /// Scans one set's keys for `key`; returns the absolute index.
    #[inline]
    fn find(&self, start: usize, key: u64) -> Option<usize> {
        self.keys[start..start + self.cfg.ways].iter().position(|&k| k == key).map(|w| start + w)
    }

    /// Looks up a translation, updating LRU.
    pub fn probe(&mut self, vpn: u64, asid: Asid, size: PageSize) -> Option<TlbEntry> {
        self.tick += 1;
        let start = self.set_start(vpn);
        let key = pack_key(vpn, asid, size);
        self.find(start, key).map(|i| {
            self.stamps[i] = self.tick;
            TlbEntry::unpack(key, self.payloads[i])
        })
    }

    /// Non-destructive lookup (no LRU update).
    pub fn contains(&self, vpn: u64, asid: Asid, size: PageSize) -> bool {
        self.find(self.set_start(vpn), pack_key(vpn, asid, size)).is_some()
    }

    /// Inserts an entry; returns the entry displaced, if a valid one was.
    /// Re-filling an already-present translation refreshes it in place.
    pub fn fill(&mut self, mut entry: TlbEntry) -> Option<TlbEntry> {
        self.tick += 1;
        entry.valid = true;
        let key = entry.key();
        let start = self.set_start(entry.vpn);
        // One scan resolves both outcomes. Each way is packed as
        // `valid<<63 | stamp<<8 | way` and the minimum folded as the scan
        // goes, so if the translation is absent the fold has already
        // picked the victim — an invalid way (lowest index first) always
        // beats a valid one, and ties on stamp resolve to the lowest way:
        // the classic "first free way, else first-LRU" policy as a
        // branchless cmp+cmov fold. A present translation exits early
        // into the refresh path.
        let set_keys = &self.keys[start..start + self.cfg.ways];
        let set_stamps = &self.stamps[start..start + self.cfg.ways];
        let mut best = u64::MAX;
        let mut present = usize::MAX;
        for w in 0..self.cfg.ways {
            let k = set_keys[w];
            if k == key {
                present = w;
                break;
            }
            best = best.min((k & 1) << 63 | set_stamps[w] << 8 | w as u64);
        }
        // Refresh in place if present.
        if present != usize::MAX {
            let i = start + present;
            self.payloads[i] = entry.payload();
            self.stamps[i] = self.tick;
            return None;
        }
        let victim = start + (best & 0xff) as usize;
        let displaced = key_is_valid(self.keys[victim])
            .then(|| TlbEntry::unpack(self.keys[victim], self.payloads[victim]));
        self.keys[victim] = key;
        self.payloads[victim] = entry.payload();
        self.stamps[victim] = self.tick;
        displaced
    }

    /// Invalidates one translation; returns whether one was present.
    pub fn invalidate(&mut self, vpn: u64, asid: Asid, size: PageSize) -> bool {
        match self.find(self.set_start(vpn), pack_key(vpn, asid, size)) {
            Some(i) => {
                self.keys[i] = INVALID_KEY;
                self.stamps[i] = 0;
                true
            }
            None => false,
        }
    }

    /// Invalidates every entry of an address space; returns the count.
    pub fn invalidate_asid(&mut self, asid: Asid) -> u64 {
        let mut n = 0;
        for (k, s) in self.keys.iter_mut().zip(self.stamps.iter_mut()) {
            if key_is_valid(*k) && key_asid(*k) == asid {
                *k = INVALID_KEY;
                *s = 0;
                n += 1;
            }
        }
        n
    }

    /// Invalidates everything; returns the count.
    pub fn invalidate_all(&mut self) -> u64 {
        let mut n = 0;
        for (k, s) in self.keys.iter_mut().zip(self.stamps.iter_mut()) {
            if key_is_valid(*k) {
                *k = INVALID_KEY;
                *s = 0;
                n += 1;
            }
        }
        n
    }

    /// Number of currently valid entries.
    pub fn valid_entries(&self) -> usize {
        self.keys.iter().filter(|&&k| key_is_valid(k)).count()
    }

    /// Serialises the TLB's microarchitectural state (LRU clock, packed
    /// keys, payloads) into checkpoint words. Per way
    /// the payload packs `frame | freq<<56 | cost<<60` (40-bit frames
    /// leave bits 56+ free), followed by the LRU stamp; everything else
    /// about an entry is recoverable from its key word.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.tick);
        for ((k, p), s) in self.keys.iter().zip(&self.payloads).zip(&self.stamps) {
            out.push(*k);
            out.push(*p);
            out.push(*s);
        }
    }

    /// Restores state captured by [`SetAssocTlb::save_state`] into a TLB
    /// of identical geometry.
    ///
    /// # Errors
    ///
    /// Returns a message if the word count does not match this geometry.
    pub fn restore_state(&mut self, words: &[u64]) -> Result<(), String> {
        let expect = 1 + 3 * self.cfg.entries;
        if words.len() != expect {
            return Err(format!(
                "{}: checkpoint section has {} words, geometry needs {expect}",
                self.cfg.name,
                words.len()
            ));
        }
        self.tick = words[0];
        for (i, way) in words[1..].chunks_exact(3).enumerate() {
            self.keys[i] = way[0];
            self.payloads[i] = way[1];
            self.stamps[i] = way[2];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: usize, ways: usize) -> SetAssocTlb {
        SetAssocTlb::new(TlbConfig { name: "T", entries, ways, latency: 1 })
    }

    #[test]
    fn probe_miss_then_fill_then_hit() {
        let mut t = tlb(64, 4);
        let a = Asid::new(1);
        assert!(t.probe(10, a, PageSize::Size4K).is_none());
        t.fill(TlbEntry::new(10, a, PageSize::Size4K, 99));
        let e = t.probe(10, a, PageSize::Size4K).expect("hit");
        assert_eq!(e.frame, 99);
    }

    #[test]
    fn asid_and_size_disambiguate() {
        let mut t = tlb(64, 4);
        t.fill(TlbEntry::new(10, Asid::new(1), PageSize::Size4K, 99));
        assert!(t.probe(10, Asid::new(2), PageSize::Size4K).is_none());
        assert!(t.probe(10, Asid::new(1), PageSize::Size2M).is_none());
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut t = tlb(4, 4); // single set
        let a = Asid::new(1);
        for vpn in 0..4u64 {
            t.fill(TlbEntry::new(vpn, a, PageSize::Size4K, vpn));
        }
        // Note: with one set all vpns collide. Touch vpn 0 to refresh it.
        t.probe(0, a, PageSize::Size4K);
        let displaced = t.fill(TlbEntry::new(100, a, PageSize::Size4K, 7)).expect("full set evicts");
        assert_eq!(displaced.vpn, 1, "vpn 1 is least recently used");
    }

    #[test]
    fn refill_in_place_does_not_evict() {
        let mut t = tlb(4, 4);
        let a = Asid::new(1);
        for vpn in 0..4u64 {
            t.fill(TlbEntry::new(vpn, a, PageSize::Size4K, vpn));
        }
        assert!(t.fill(TlbEntry::new(2, a, PageSize::Size4K, 42)).is_none());
        assert_eq!(t.probe(2, a, PageSize::Size4K).unwrap().frame, 42);
        assert_eq!(t.valid_entries(), 4);
    }

    #[test]
    fn invalidate_single_and_asid_and_all() {
        let mut t = tlb(64, 4);
        t.fill(TlbEntry::new(1, Asid::new(1), PageSize::Size4K, 1));
        t.fill(TlbEntry::new(2, Asid::new(1), PageSize::Size4K, 2));
        t.fill(TlbEntry::new(3, Asid::new(2), PageSize::Size4K, 3));
        assert!(t.invalidate(1, Asid::new(1), PageSize::Size4K));
        assert!(!t.invalidate(1, Asid::new(1), PageSize::Size4K));
        assert_eq!(t.invalidate_asid(Asid::new(1)), 1);
        assert_eq!(t.invalidate_all(), 1);
        assert_eq!(t.valid_entries(), 0);
    }

    #[test]
    fn counters_survive_fill_and_probe() {
        let mut t = tlb(64, 4);
        t.fill(TlbEntry::with_counters(5, Asid::new(1), PageSize::Size4K, 50, 3, 7));
        let e = t.probe(5, Asid::new(1), PageSize::Size4K).unwrap();
        assert_eq!((e.ptw_freq, e.ptw_cost), (3, 7));
    }

    #[test]
    fn paper_l2_geometry_is_valid() {
        // 1536 entries, 12 ways -> 128 sets.
        let t = SetAssocTlb::new(TlbConfig::l2_unified(1536, 12));
        assert_eq!(t.config().num_sets(), 128);
        assert_eq!(t.latency(), 12);
    }

    #[test]
    fn eviction_happens_only_when_set_full() {
        let mut t = tlb(8, 4); // 2 sets
        let a = Asid::new(1);
        // vpns 0,2,4,6 land in set 0; 1,3 in set 1.
        for vpn in [0u64, 2, 4, 6] {
            assert!(t.fill(TlbEntry::new(vpn, a, PageSize::Size4K, vpn)).is_none());
        }
        assert!(t.fill(TlbEntry::new(8, a, PageSize::Size4K, 8)).is_some());
        assert!(t.fill(TlbEntry::new(1, a, PageSize::Size4K, 1)).is_none());
    }

    #[test]
    fn save_restore_round_trips_contents_and_lru() {
        let mut t = tlb(16, 4);
        let a = Asid::new(5);
        for vpn in 0..10u64 {
            t.fill(TlbEntry::with_counters(vpn, a, PageSize::Size4K, vpn * 7, 3, 9));
        }
        t.fill(TlbEntry::new(99, a, PageSize::Size2M, 512));
        t.probe(4, a, PageSize::Size4K);
        let mut words = Vec::new();
        t.save_state(&mut words);
        let mut u = tlb(16, 4);
        u.restore_state(&words).expect("same geometry");
        assert_eq!(u.valid_entries(), t.valid_entries());
        let e = u.probe(4, a, PageSize::Size4K).expect("restored entry");
        assert_eq!((e.frame, e.ptw_freq, e.ptw_cost), (28, 3, 9));
        assert_eq!(u.probe(99, a, PageSize::Size2M).unwrap().frame, 512);
        // Mirror the verification probes so both LRU clocks stay in sync.
        t.probe(4, a, PageSize::Size4K);
        t.probe(99, a, PageSize::Size2M);
        // After identical post-restore operations the two TLBs stay in
        // lockstep: same victim choices (LRU state survived).
        for vpn in 100..120u64 {
            let dt = t.fill(TlbEntry::new(vpn, a, PageSize::Size4K, vpn));
            let du = u.fill(TlbEntry::new(vpn, a, PageSize::Size4K, vpn));
            assert_eq!(dt, du, "divergent eviction after restore at vpn {vpn}");
        }
    }

    #[test]
    fn restore_rejects_wrong_geometry() {
        let t = tlb(16, 4);
        let mut words = Vec::new();
        t.save_state(&mut words);
        let mut u = tlb(32, 4);
        assert!(u.restore_state(&words).is_err());
    }

    #[test]
    fn keys_stay_consistent_with_payloads() {
        let mut t = tlb(16, 4);
        let mut rng = vm_types::SplitMix64::new(77);
        for _ in 0..500 {
            let vpn = rng.next_below(32);
            let asid = Asid::new(1 + (rng.next_below(2) as u16));
            match rng.next_below(3) {
                0 => {
                    t.fill(TlbEntry::new(vpn, asid, PageSize::Size4K, vpn));
                }
                1 => {
                    t.probe(vpn, asid, PageSize::Size4K);
                }
                _ => {
                    t.invalidate(vpn, asid, PageSize::Size4K);
                }
            }
        }
        for i in 0..t.keys.len() {
            if key_is_valid(t.keys[i]) {
                let e = TlbEntry::unpack(t.keys[i], t.payloads[i]);
                assert!(e.valid);
                assert_eq!(t.keys[i], e.key(), "key {i} diverged from payload");
            }
        }
    }
}
