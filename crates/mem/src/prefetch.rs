//! Hardware prefetchers from the paper's Table 3: an IP-stride prefetcher
//! at the L1D [Fu+, MICRO'92] and a stream prefetcher at the L2
//! [Chen & Baer, TC'95].
//!
//! Prefetchers only produce *candidate physical addresses*; the hierarchy
//! decides to fill them (prefetch fills are not charged latency but do
//! displace blocks, which is exactly why underutilised-cache studies such
//! as Fig. 11 see large zero-reuse populations).

use vm_types::{PhysAddr, CACHE_BLOCK_BYTES};

const PAGE_4K: u64 = 4096;

/// Sentinel head block number for an empty stream slot: far beyond any
/// 52-bit physical address's block number, so adjacency checks never
/// match it.
const INVALID_HEAD: u64 = 1 << 62;

/// Per-PC stride detector driving L1D prefetches.
///
/// Prefetches never cross a 4KB page boundary (physical prefetching cannot
/// assume contiguity beyond a page).
#[derive(Clone, Debug)]
pub struct IpStridePrefetcher {
    entries: Vec<StrideEntry>,
    mask: usize,
    /// Prefetch candidates issued.
    pub issued: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    pc_tag: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

impl IpStridePrefetcher {
    /// Creates a prefetcher with `entries` table slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        Self { entries: vec![StrideEntry::default(); entries], mask: entries - 1, issued: 0 }
    }

    /// Trains on a demand access and possibly returns one prefetch
    /// candidate (the next block in the detected stride, within the page).
    pub fn train(&mut self, pc: u64, pa: PhysAddr) -> Option<PhysAddr> {
        let idx = (vm_types::mix64(pc) as usize) & self.mask;
        let e = &mut self.entries[idx];
        let addr = pa.raw();
        if e.pc_tag != pc {
            *e = StrideEntry { pc_tag: pc, last_addr: addr, stride: 0, confidence: 0 };
            return None;
        }
        let new_stride = addr as i64 - e.last_addr as i64;
        if new_stride == 0 {
            return None;
        }
        if new_stride == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = new_stride;
            e.confidence = 0;
        }
        e.last_addr = addr;
        if e.confidence >= 2 {
            let target = addr.wrapping_add(e.stride as u64);
            // Stay within the same 4KB page.
            if target / PAGE_4K == addr / PAGE_4K {
                self.issued += 1;
                return Some(PhysAddr::new(target).block_align());
            }
        }
        None
    }

    /// Number of checkpoint words [`IpStridePrefetcher::save_state`] emits.
    pub fn state_words(&self) -> usize {
        1 + 4 * self.entries.len()
    }

    /// Serialises the training table and issue counter into checkpoint
    /// words.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.issued);
        for e in &self.entries {
            out.push(e.pc_tag);
            out.push(e.last_addr);
            out.push(e.stride as u64);
            out.push(e.confidence as u64);
        }
    }

    /// Restores state captured by [`IpStridePrefetcher::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a message if the word count does not match this table size.
    pub fn restore_state(&mut self, words: &[u64]) -> Result<(), String> {
        if words.len() != self.state_words() {
            return Err(format!(
                "IP-stride prefetcher: checkpoint section has {} words, expected {}",
                words.len(),
                self.state_words()
            ));
        }
        self.issued = words[0];
        for (e, w) in self.entries.iter_mut().zip(words[1..].chunks_exact(4)) {
            *e = StrideEntry { pc_tag: w[0], last_addr: w[1], stride: w[2] as i64, confidence: w[3] as u8 };
        }
        Ok(())
    }
}

impl Default for IpStridePrefetcher {
    fn default() -> Self {
        Self::new(64)
    }
}

/// Stream prefetcher monitoring L2 misses.
///
/// Tracks up to `streams` active streams; when a miss lands adjacent to a
/// tracked stream head, the stream advances and `degree` next blocks are
/// prefetched (within the 4KB page).
///
/// Stream state is kept in packed parallel arrays — the per-miss scan
/// compares one cache line of head block numbers instead of striding
/// through fat per-stream structs.
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    /// Head block number per stream (`INVALID_HEAD` = empty slot, far
    /// outside any reachable 46-bit block number so it never matches).
    last_block: Vec<u64>,
    /// Packed direction (+1/-1) and 2-bit confidence per stream.
    meta: Vec<StreamMeta>,
    degree: usize,
    next_victim: usize,
    /// Prefetch candidates issued.
    pub issued: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct StreamMeta {
    /// +1 or -1.
    direction: i8,
    confidence: u8,
}

impl StreamPrefetcher {
    /// Creates a stream prefetcher with `streams` trackers issuing
    /// `degree` blocks per advance.
    pub fn new(streams: usize, degree: usize) -> Self {
        Self {
            last_block: vec![INVALID_HEAD; streams],
            meta: vec![StreamMeta::default(); streams],
            degree,
            next_victim: 0,
            issued: 0,
        }
    }

    /// Blocks prefetched per confident advance: the most candidates one
    /// [`StreamPrefetcher::train_into`] call appends.
    pub(crate) fn degree(&self) -> usize {
        self.degree
    }

    /// Trains on an L2 demand miss, appending prefetch candidates to the
    /// caller-owned `out` buffer. The buffer is *not* cleared — callers
    /// clear and reuse one scratch `Vec` across misses, keeping the miss
    /// path allocation-free in steady state.
    pub fn train_into(&mut self, pa: PhysAddr, out: &mut Vec<PhysAddr>) {
        let block = pa.raw() / CACHE_BLOCK_BYTES;
        // Find a stream whose head is within 4 blocks of this miss. Only
        // the packed head array is scanned; `INVALID_HEAD` slots sit 2^62
        // blocks away from any real address and can never match.
        let hit = self.last_block.iter().position(|&head| {
            let delta = block as i64 - head as i64;
            delta != 0 && delta.abs() <= 4
        });
        if let Some(s) = hit {
            let delta = block as i64 - self.last_block[s] as i64;
            let dir = delta.signum() as i8;
            let m = &mut self.meta[s];
            if dir == m.direction {
                m.confidence = (m.confidence + 1).min(3);
            } else {
                m.direction = dir;
                m.confidence = 1;
            }
            let confident = m.confidence >= 2;
            let direction = m.direction as i64;
            self.last_block[s] = block;
            if confident {
                for i in 1..=self.degree as i64 {
                    let t = block as i64 + i * direction;
                    if t < 0 {
                        break;
                    }
                    let target = t as u64 * CACHE_BLOCK_BYTES;
                    if target / PAGE_4K == pa.raw() / PAGE_4K {
                        out.push(PhysAddr::new(target));
                        self.issued += 1;
                    }
                }
            }
            return;
        }
        // Allocate a new stream (round-robin victim).
        let victim = self.next_victim;
        self.next_victim = (self.next_victim + 1) % self.last_block.len();
        self.last_block[victim] = block;
        self.meta[victim] = StreamMeta { direction: 1, confidence: 0 };
    }

    /// Number of checkpoint words [`StreamPrefetcher::save_state`] emits.
    pub fn state_words(&self) -> usize {
        2 + 2 * self.last_block.len()
    }

    /// Serialises the stream trackers, round-robin cursor, and issue
    /// counter into checkpoint words.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        out.push(self.issued);
        out.push(self.next_victim as u64);
        for (b, m) in self.last_block.iter().zip(&self.meta) {
            out.push(*b);
            out.push(m.direction as u8 as u64 | (m.confidence as u64) << 8);
        }
    }

    /// Restores state captured by [`StreamPrefetcher::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a message if the word count does not match this tracker
    /// count.
    pub fn restore_state(&mut self, words: &[u64]) -> Result<(), String> {
        if words.len() != self.state_words() {
            return Err(format!(
                "stream prefetcher: checkpoint section has {} words, expected {}",
                words.len(),
                self.state_words()
            ));
        }
        self.issued = words[0];
        self.next_victim = words[1] as usize % self.last_block.len();
        for (i, w) in words[2..].chunks_exact(2).enumerate() {
            self.last_block[i] = w[0];
            self.meta[i] = StreamMeta { direction: w[1] as u8 as i8, confidence: (w[1] >> 8) as u8 };
        }
        Ok(())
    }
}

impl Default for StreamPrefetcher {
    fn default() -> Self {
        Self::new(16, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_stride_detects_constant_stride() {
        let mut p = IpStridePrefetcher::default();
        let pc = 0x400100;
        let mut got = None;
        for i in 0..8u64 {
            got = p.train(pc, PhysAddr::new(0x1000 + i * 64));
        }
        let pf = got.expect("stride should be confirmed after several accesses");
        assert_eq!(pf.raw() % 64, 0);
        assert!(p.issued > 0);
    }

    #[test]
    fn ip_stride_does_not_cross_page() {
        let mut p = IpStridePrefetcher::default();
        let pc = 0x400200;
        // Stride of 1024 starting near the end of a page.
        let mut last = None;
        for i in 0..8u64 {
            last = p.train(pc, PhysAddr::new(0x1800 + i * 1024));
        }
        // The last trained address is 0x1800+7*1024 = 0x3400; +1024 = 0x3800
        // stays in page 3 -> allowed. Check *crossing* explicitly:
        let _ = last;
        let mut p2 = IpStridePrefetcher::default();
        for a in [0xc00u64, 0xd00, 0xe00, 0xf00] {
            last = p2.train(pc, PhysAddr::new(a));
        }
        assert!(last.is_none(), "prefetch from 0xf00 + 0x100 = 0x1000 crosses the page");
    }

    #[test]
    fn ip_stride_retrains_on_pc_conflict() {
        let mut p = IpStridePrefetcher::new(1); // force conflicts
        assert!(p.train(1, PhysAddr::new(0x1000)).is_none());
        assert!(p.train(2, PhysAddr::new(0x8000)).is_none());
        assert!(p.train(1, PhysAddr::new(0x1040)).is_none());
    }

    #[test]
    fn stream_prefetcher_follows_sequential_misses() {
        let mut p = StreamPrefetcher::default();
        let mut candidates = Vec::new();
        for i in 0..6u64 {
            candidates.clear();
            p.train_into(PhysAddr::new(0x10_0000 + i * 64), &mut candidates);
        }
        assert!(!candidates.is_empty(), "confident stream should prefetch");
        assert_eq!(candidates[0].raw(), 0x10_0000 + 6 * 64);
    }

    #[test]
    fn stream_prefetcher_ignores_random_misses() {
        let mut p = StreamPrefetcher::default();
        let mut rng = vm_types::SplitMix64::new(9);
        let mut scratch = Vec::new();
        for _ in 0..64 {
            let pa = PhysAddr::new(rng.next_u64() & 0xfff_ffff & !63);
            p.train_into(pa, &mut scratch);
        }
        assert!(scratch.is_empty(), "random misses should not trigger streams");
    }

    #[test]
    fn stream_prefetcher_respects_page_boundary() {
        let mut p = StreamPrefetcher::default();
        let base = 0x10_0000u64 + 4096 - 3 * 64; // three blocks before page end
        let mut cands = Vec::new();
        for i in 0..6u64 {
            cands.clear();
            p.train_into(PhysAddr::new(base + i * 64), &mut cands);
        }
        for c in cands {
            assert_eq!(c.raw() / 4096, (base + 5 * 64) / 4096);
        }
    }

    #[test]
    fn train_into_appends_without_clearing() {
        // The buffer contract: `train_into` appends and never clears —
        // callers own the clear so one scratch Vec serves every miss.
        let mut p = StreamPrefetcher::default();
        let mut scratch = vec![PhysAddr::new(0xdead_0000)];
        for i in 0..6u64 {
            p.train_into(PhysAddr::new(0x20_0000 + i * 64), &mut scratch);
        }
        assert_eq!(scratch[0].raw(), 0xdead_0000, "pre-existing entries survive");
        assert!(scratch.len() > 1, "confident stream appended candidates");
    }
}
