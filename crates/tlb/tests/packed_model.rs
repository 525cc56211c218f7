//! Differential property test: the packed-key [`SetAssocTlb`] against a
//! naive reference model.
//!
//! The reference stores fat entries only and scans them with full field
//! compares, exactly like the pre-packing implementation. Both models are
//! driven with the same SplitMix64-seeded stream of probes, fills and
//! invalidations — 100K operations, 1M in the `#[ignore]`d case release
//! CI runs — and must report identical hits (including frames and counter
//! snapshots), identical displaced entries and identical invalidation
//! results.

use tlb_sim::{SetAssocTlb, TlbConfig, TlbEntry};
use vm_types::{Asid, PageSize, SplitMix64};

#[derive(Clone, Copy, Default)]
struct RefEntry {
    valid: bool,
    vpn: u64,
    asid: Asid,
    size: PageSize,
    frame: u64,
    freq: u8,
    cost: u8,
    lru: u64,
}

impl RefEntry {
    fn matches(&self, vpn: u64, asid: Asid, size: PageSize) -> bool {
        self.valid && self.vpn == vpn && self.asid == asid && self.size == size
    }
}

/// The pre-packing TLB: one fat array, linear scans, LRU stamps inline.
struct RefTlb {
    ways: usize,
    set_mask: u64,
    entries: Vec<RefEntry>,
    tick: u64,
}

impl RefTlb {
    fn new(entries: usize, ways: usize) -> Self {
        Self {
            ways,
            set_mask: (entries / ways) as u64 - 1,
            entries: vec![RefEntry::default(); entries],
            tick: 0,
        }
    }

    fn range(&self, vpn: u64) -> std::ops::Range<usize> {
        let s = (vpn & self.set_mask) as usize * self.ways;
        s..s + self.ways
    }

    fn probe(&mut self, vpn: u64, asid: Asid, size: PageSize) -> Option<(u64, u8, u8)> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.range(vpn);
        for e in &mut self.entries[range] {
            if e.matches(vpn, asid, size) {
                e.lru = tick;
                return Some((e.frame, e.freq, e.cost));
            }
        }
        None
    }

    fn fill(&mut self, vpn: u64, asid: Asid, size: PageSize, frame: u64, freq: u8, cost: u8) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.range(vpn);
        let set = &mut self.entries[range];
        let fresh = RefEntry { valid: true, vpn, asid, size, frame, freq, cost, lru: tick };
        if let Some(e) = set.iter_mut().find(|e| e.matches(vpn, asid, size)) {
            *e = fresh;
            return None;
        }
        let victim = match set.iter().position(|e| !e.valid) {
            Some(i) => i,
            None => set.iter().enumerate().min_by_key(|(_, e)| e.lru).map(|(i, _)| i).expect("nonempty"),
        };
        let displaced = set[victim].valid.then_some(set[victim].vpn);
        set[victim] = fresh;
        displaced
    }

    fn invalidate(&mut self, vpn: u64, asid: Asid, size: PageSize) -> bool {
        let range = self.range(vpn);
        for e in &mut self.entries[range] {
            if e.matches(vpn, asid, size) {
                e.valid = false;
                return true;
            }
        }
        false
    }

    fn invalidate_asid(&mut self, asid: Asid) -> u64 {
        let mut n = 0;
        for e in &mut self.entries {
            if e.valid && e.asid == asid {
                e.valid = false;
                n += 1;
            }
        }
        n
    }

    fn invalidate_all(&mut self) -> u64 {
        let mut n = 0;
        for e in &mut self.entries {
            if e.valid {
                e.valid = false;
                n += 1;
            }
        }
        n
    }

    fn valid_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[test]
fn packed_tlb_matches_reference_model() {
    run_differential(100_000, 0xBEEF_2024);
}

/// The same differential at 1M operations: too slow for the debug tier-1
/// run, so release CI runs it.
#[test]
#[ignore]
fn packed_tlb_matches_reference_model_long() {
    run_differential(1_000_000, 0xBEEF_2025);
}

/// Drives both models with one op stream and checks every observable.
fn run_differential(ops: u64, seed: u64) {
    // The paper's L2 TLB shape: 1536 entries, 12-way.
    let mut dut = SetAssocTlb::new(TlbConfig { name: "DUT", entries: 1536, ways: 12, latency: 1 });
    let mut model = RefTlb::new(1536, 12);
    let mut rng = SplitMix64::new(seed);

    for op in 0..ops {
        // VPNs over ~4x the TLB reach; a few ASIDs; both page sizes.
        let vpn = rng.next_below(6000);
        let asid = Asid::new(1 + (rng.next_below(3) as u16));
        let size = if rng.chance(0.25) { PageSize::Size2M } else { PageSize::Size4K };
        match rng.next_below(100) {
            // Probe; fill on miss (the translation path's usage pattern).
            0..=69 => {
                let a = dut.probe(vpn, asid, size);
                let b = model.probe(vpn, asid, size);
                assert_eq!(a.is_some(), b.is_some(), "op {op}: hit/miss diverged");
                if let (Some(e), Some((frame, freq, cost))) = (a, b) {
                    assert_eq!(e.frame, frame, "op {op}: hit frame diverged");
                    assert_eq!((e.ptw_freq, e.ptw_cost), (freq, cost), "op {op}: counters diverged");
                } else {
                    let frame = rng.next_below(1 << 30);
                    let (freq, cost) = (rng.next_below(8) as u8, rng.next_below(16) as u8);
                    let e1 = dut.fill(TlbEntry::with_counters(vpn, asid, size, frame, freq, cost));
                    let e2 = model.fill(vpn, asid, size, frame, freq, cost);
                    assert_eq!(e1.map(|e| e.vpn), e2, "op {op}: displaced entry diverged");
                }
            }
            // Refresh-in-place fills.
            70..=79 => {
                let frame = rng.next_below(1 << 30);
                let e1 = dut.fill(TlbEntry::new(vpn, asid, size, frame));
                let e2 = model.fill(vpn, asid, size, frame, 0, 0);
                assert_eq!(e1.map(|e| e.vpn), e2, "op {op}: displaced entry diverged");
            }
            // Single-entry shootdown.
            80..=92 => {
                assert_eq!(
                    dut.invalidate(vpn, asid, size),
                    model.invalidate(vpn, asid, size),
                    "op {op}: invalidate diverged"
                );
            }
            // Presence check.
            93..=97 => {
                let want = model.entries[model.range(vpn)].iter().any(|e| e.matches(vpn, asid, size));
                assert_eq!(dut.contains(vpn, asid, size), want, "op {op}: contains diverged");
            }
            // ASID flush, rarely a full flush.
            _ => {
                if rng.chance(0.2) {
                    assert_eq!(dut.invalidate_all(), model.invalidate_all(), "op {op}: full flush diverged");
                } else {
                    assert_eq!(
                        dut.invalidate_asid(asid),
                        model.invalidate_asid(asid),
                        "op {op}: asid flush diverged"
                    );
                }
            }
        }
    }

    assert_eq!(dut.valid_entries(), model.valid_entries(), "final populations diverged");
}
