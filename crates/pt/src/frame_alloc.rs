//! Simulated physical-memory frame allocation.
//!
//! A bump allocator with pseudo-random skips: real long-running systems
//! hand out physically scattered frames (the fragmentation that makes
//! software-managed TLBs hard to allocate, Sec. 3.2), so consecutive
//! virtual pages should not be physically adjacent by default. 2MB
//! allocations are naturally aligned, and a contiguous-region allocator is
//! provided for structures like POM-TLB that demand tens of megabytes of
//! contiguous physical space.

use vm_types::{PageSize, PhysAddr, SplitMix64};

const FRAME_BYTES: u64 = 4096;
const FRAMES_PER_2M: u64 = 512;

/// Allocates simulated physical frames.
///
/// # Examples
///
/// ```
/// use page_table::FrameAllocator;
/// let mut a = FrameAllocator::new(64 << 20, 7);
/// let f1 = a.alloc_4k();
/// let f2 = a.alloc_4k();
/// assert_ne!(f1, f2);
/// ```
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    next_frame: u64,
    capacity_frames: u64,
    rng: SplitMix64,
    /// Fragmentation knob: maximum random skip (in frames) between
    /// consecutive 4KB allocations. 0 disables skipping.
    pub max_skip: u64,
    log: Vec<(u64, u32)>,
    logging: bool,
}

impl FrameAllocator {
    /// Creates an allocator managing `capacity_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one 2MB region.
    pub fn new(capacity_bytes: u64, seed: u64) -> Self {
        assert!(capacity_bytes >= 2 << 20, "physical memory too small");
        Self {
            next_frame: 1, // keep frame 0 unused (null-ish)
            capacity_frames: capacity_bytes / FRAME_BYTES,
            rng: SplitMix64::new(seed),
            max_skip: 3,
            log: Vec::new(),
            logging: false,
        }
    }

    /// Frames handed out so far (upper bound; includes skipped holes).
    pub fn frames_used(&self) -> u64 {
        self.next_frame
    }

    /// Remaining capacity in frames.
    pub fn frames_left(&self) -> u64 {
        self.capacity_frames.saturating_sub(self.next_frame)
    }

    /// The skip RNG's internal state. Together with
    /// [`FrameAllocator::frames_used`] this fingerprints the allocator's
    /// exact position, letting a checkpoint verify that a rebuilt run
    /// reproduced the same allocation sequence.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Enables allocation logging ([`FrameAllocator::drain_log`]); used by
    /// the nested-memory layer to host-map every guest-physical frame the
    /// guest page tables consume.
    pub fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// Drains the (frame, count) allocation log. The log is kept in
    /// runs: frames that continue the last entry extend it, so a dense
    /// allocator (`max_skip` 0) logs one entry per contiguous stretch.
    pub fn drain_log(&mut self) -> Vec<(u64, u32)> {
        std::mem::take(&mut self.log)
    }

    #[inline]
    fn record(&mut self, frame: u64, count: u32) {
        if !self.logging {
            return;
        }
        match self.log.last_mut() {
            Some((first, len)) if *first + *len as u64 == frame && len.checked_add(count).is_some() => {
                *len += count;
            }
            _ => self.log.push((frame, count)),
        }
    }

    /// Allocates one 4KB frame.
    ///
    /// # Panics
    ///
    /// Panics on physical-memory exhaustion.
    pub fn alloc_4k(&mut self) -> u64 {
        if self.max_skip > 0 {
            self.next_frame += self.rng.next_below(self.max_skip + 1);
        }
        let frame = self.next_frame;
        self.next_frame += 1;
        assert!(frame < self.capacity_frames, "out of simulated physical memory");
        self.record(frame, 1);
        frame
    }

    /// Fills `out` with the frames that `out.len()` calls to
    /// [`FrameAllocator::alloc_4k`] would return, in order, leaving the
    /// allocator (cursor, skip RNG and log) exactly where they would.
    /// The cursor and RNG stay in locals for the whole run.
    ///
    /// # Panics
    ///
    /// Panics on physical-memory exhaustion.
    pub fn alloc_4k_into(&mut self, out: &mut [u64]) {
        let (mut next, mut rng) = (self.next_frame, self.rng.clone());
        for slot in out.iter_mut() {
            if self.max_skip > 0 {
                next += rng.next_below(self.max_skip + 1);
            }
            *slot = next;
            next += 1;
        }
        (self.next_frame, self.rng) = (next, rng);
        // Frames only grow, so the last one decides exhaustion.
        if let Some(&last) = out.last() {
            assert!(last < self.capacity_frames, "out of simulated physical memory");
        }
        if self.logging {
            for &frame in out.iter() {
                self.record(frame, 1);
            }
        }
    }

    /// Allocates one naturally aligned 2MB region; returns its first 4KB
    /// frame number.
    ///
    /// # Panics
    ///
    /// Panics on physical-memory exhaustion.
    pub fn alloc_2m(&mut self) -> u64 {
        let aligned = self.next_frame.next_multiple_of(FRAMES_PER_2M);
        self.next_frame = aligned + FRAMES_PER_2M;
        assert!(self.next_frame <= self.capacity_frames, "out of simulated physical memory");
        self.record(aligned, FRAMES_PER_2M as u32);
        aligned
    }

    /// Allocates a frame for a page of the given size.
    pub fn alloc(&mut self, size: PageSize) -> u64 {
        match size {
            PageSize::Size4K => self.alloc_4k(),
            PageSize::Size2M => self.alloc_2m(),
        }
    }

    /// Allocates `bytes` of physically contiguous memory, 2MB-aligned,
    /// returning its base address. POM-TLB uses this (Sec. 3.2's "10's of
    /// MB of contiguous physical address space").
    ///
    /// # Panics
    ///
    /// Panics on physical-memory exhaustion.
    pub fn alloc_contiguous(&mut self, bytes: u64) -> PhysAddr {
        let frames = bytes.div_ceil(FRAME_BYTES);
        let aligned = self.next_frame.next_multiple_of(FRAMES_PER_2M);
        self.next_frame = aligned + frames;
        assert!(self.next_frame <= self.capacity_frames, "out of simulated physical memory");
        self.record(aligned, frames as u32);
        PhysAddr::new(aligned * FRAME_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_distinct_and_nonzero() {
        let mut a = FrameAllocator::new(16 << 20, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let f = a.alloc_4k();
            assert!(f > 0);
            assert!(seen.insert(f), "frame handed out twice");
        }
    }

    #[test]
    fn two_mb_allocations_are_aligned() {
        let mut a = FrameAllocator::new(64 << 20, 2);
        a.alloc_4k();
        let f = a.alloc_2m();
        assert_eq!(f % FRAMES_PER_2M, 0);
        let g = a.alloc_2m();
        assert_eq!(g % FRAMES_PER_2M, 0);
        assert!(g >= f + FRAMES_PER_2M);
    }

    #[test]
    fn contiguous_region_is_aligned_and_sized() {
        let mut a = FrameAllocator::new(128 << 20, 3);
        let before = a.frames_used();
        let base = a.alloc_contiguous(10 << 20);
        assert_eq!(base.raw() % (2 << 20), 0);
        assert!(a.frames_used() - before >= (10 << 20) / 4096);
    }

    #[test]
    fn fragmentation_skips_spread_frames() {
        let mut a = FrameAllocator::new(64 << 20, 4);
        a.max_skip = 8;
        let frames: Vec<u64> = (0..64).map(|_| a.alloc_4k()).collect();
        let adjacent = frames.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(adjacent < 60, "skips should break most adjacency");
    }

    #[test]
    #[should_panic(expected = "out of simulated physical memory")]
    fn exhaustion_panics() {
        let mut a = FrameAllocator::new(2 << 20, 5);
        for _ in 0..10_000 {
            a.alloc_4k();
        }
    }

    #[test]
    fn run_allocation_equals_per_page_allocation() {
        for max_skip in [0, 3, 8] {
            for logging in [false, true] {
                for len in [0, 1, 7, 511] {
                    let mut run = FrameAllocator::new(64 << 20, 8);
                    run.max_skip = max_skip;
                    run.set_logging(logging);
                    run.alloc_4k(); // start mid-sequence
                    let mut per_page = run.clone();
                    let mut frames = vec![0; len];
                    run.alloc_4k_into(&mut frames);
                    let expected: Vec<u64> = (0..len).map(|_| per_page.alloc_4k()).collect();
                    let case = format!("max_skip {max_skip}, logging {logging}, len {len}");
                    assert_eq!(frames, expected, "{case}");
                    assert_eq!(run.frames_used(), per_page.frames_used(), "{case}");
                    assert_eq!(run.rng_state(), per_page.rng_state(), "{case}");
                    assert_eq!(run.drain_log(), per_page.drain_log(), "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of simulated physical memory")]
    fn run_allocation_exhaustion_panics() {
        let mut a = FrameAllocator::new(2 << 20, 5);
        a.alloc_4k_into(&mut [0; 600]);
    }

    #[test]
    fn logging_records_allocations() {
        let mut a = FrameAllocator::new(64 << 20, 6);
        a.set_logging(true);
        let f = a.alloc_4k();
        let g = a.alloc_2m();
        let log = a.drain_log();
        assert_eq!(log, vec![(f, 1), (g, 512)]);
        assert!(a.drain_log().is_empty());
    }

    #[test]
    fn log_coalesces_contiguous_allocations() {
        let mut a = FrameAllocator::new(64 << 20, 9);
        a.max_skip = 0;
        a.set_logging(true);
        let mut run = [0; 511];
        a.alloc_4k_into(&mut run);
        let first = run[0];
        assert_eq!(a.log, vec![(first, 511)], "a dense run is one entry");
        assert_eq!(a.alloc_4k(), first + 511);
        assert_eq!(a.log, vec![(first, 512)], "an adjacent frame extends it");
        // With skips on, the first skipped frame starts a new entry.
        a.max_skip = 3;
        let mut len = 512;
        let skipped = loop {
            let frame = a.alloc_4k();
            if frame != first + len as u64 {
                break frame;
            }
            len += 1;
        };
        let huge = a.alloc_2m();
        assert_ne!(huge, skipped + 1, "the 2MB region is not adjacent");
        assert_eq!(a.drain_log(), vec![(first, len), (skipped, 1), (huge, 512)]);
        assert!(a.drain_log().is_empty());
        // A drained entry is never extended.
        assert_eq!(a.alloc_2m(), huge + 512);
        assert_eq!(a.drain_log(), vec![(huge + 512, 512)]);
    }
}
