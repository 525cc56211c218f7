//! Procedural data-intensive workload generators.
//!
//! The paper evaluates 11 workloads from five suites (Table 4): seven
//! GraphBIG kernels (BC, BFS, CC, GC, PR, SSSP, TC), GUPS random access
//! (RND), XSBench particle transport (XS), DLRM sparse-length-sum (DLRM)
//! and GenomicsBench k-mer counting (GEN). We reproduce each one's *memory
//! access skeleton*: the data-structure layout (regions with a per-region
//! huge-page fraction, standing in for a real THP profile) and the access
//! pattern the algorithm performs over it. Algorithm state (frontiers,
//! visited bits, hash seeds) is real wherever it steers the stream — TC,
//! whose stream never depends on its intersections, keeps none beyond a
//! vertex cursor; the multi-hundred-MB data arrays are
//! virtual-address-only — generators compute which addresses the program
//! *would* touch, which is everything a translation/cache study observes.
//!
//! Footprints are scaled from the paper's 8–33GB to 1.5–6GB (see
//! DESIGN.md): what matters is footprint ≫ TLB reach (6MB) ≫ L2 capacity
//! (2MB), and that the leaf page tables of the TLB-hostile structures
//! exceed the cache hierarchy, which holds at [`Scale::Full`].
//!
//! Beyond the generators, [`replay`] turns a recorded `.vtrace` file
//! into a workload: the registry name `trace:<path>` replays the file
//! with statistics byte-identical to the live run it was captured from.
//!
//! # Examples
//!
//! ```
//! use workloads::{registry, Scale, WorkloadStream};
//! use vm_types::VirtAddr;
//!
//! let mut w = registry::by_name("RND", Scale::Tiny).expect("known workload");
//! // In real use the simulator maps the regions; here, fake base addresses.
//! let bases: Vec<VirtAddr> =
//!     (0..w.region_specs().len()).map(|i| VirtAddr::new(0x1_0000_0000 * (i as u64 + 1))).collect();
//! w.init(&bases);
//! let mut stream = WorkloadStream::new(w);
//! let r = stream.next_ref();
//! assert!(r.vaddr.raw() >= 0x1_0000_0000);
//! ```

pub mod dlrm;
pub mod genomics;
pub mod graph;
pub mod gups;
pub mod mixes;
pub mod registry;
pub mod replay;
pub mod xsbench;

use vm_types::{MemRef, VirtAddr};

/// A data region the simulator must map before running the workload.
#[derive(Clone, Copy, Debug)]
pub struct RegionSpec {
    /// Human-readable region name ("edges", "hash_table", …).
    pub name: &'static str,
    /// Region size in bytes.
    pub bytes: u64,
    /// Fraction of the region backed by 2MB pages (the workload's THP
    /// profile on a moderately fragmented host).
    pub huge_fraction: f64,
}

/// Workload footprint scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny footprints (tens of MB) for unit tests.
    Tiny,
    /// Intermediate footprints (hundreds of MB): large enough that the
    /// working set dwarfs TLB reach, small enough that a sampled run
    /// finishes in CI (the sampling-accuracy and perf-gate profile).
    Small,
    /// The evaluation scale (hundreds of MB; see DESIGN.md).
    Full,
    /// Paper-scale footprints (GBs), approached via interval sampling
    /// and warm-state checkpoints rather than full-detail simulation.
    Paper,
}

impl Scale {
    /// Multiplier applied to the Tiny base sizes.
    ///
    /// Full-scale footprints must dwarf not only the TLB reach but also
    /// the *leaf page table* vs. the cache hierarchy: the paper's 8-33GB
    /// datasets imply 16-66MB of leaf PTEs, far beyond the 2MB L2; our
    /// 1.5-4GB footprints keep that inequality (3-8MB of leaf PTEs).
    /// Paper doubles Full again (3-12GB footprints) — the fragmentation
    /// skips of the frame allocator consume ~2.5 frames per 4KB page, so
    /// larger factors need `phys_mem_bytes` raised in step.
    pub fn factor(self) -> u64 {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 8,
            Scale::Full => 64,
            Scale::Paper => 128,
        }
    }

    /// Default `(warm-up, measured)` instruction budgets for a
    /// full-detail run at this scale. Tiny matches the pinned baseline
    /// profile; larger scales grow the budget so the measured window
    /// actually covers the bigger footprint. Sampled runs
    /// (`sim::sampling`) spread the same measured budget over detailed
    /// windows instead of running it contiguously.
    pub fn default_budget(self) -> (u64, u64) {
        match self {
            Scale::Tiny => (5_000, 50_000),
            Scale::Small => (100_000, 1_000_000),
            Scale::Full => (200_000, 2_000_000),
            Scale::Paper => (500_000, 10_000_000),
        }
    }

    /// Parses the CLI spelling (`tiny`, `small`, `full`, `paper`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// A memory-access-stream generator.
///
/// Lifecycle: the simulator reads [`Workload::region_specs`], maps each
/// region, calls [`Workload::init`] with the base addresses (in spec
/// order), and then drains references batch-wise via [`Workload::fill`]
/// (or jumps over batches via [`Workload::advance`]). Streams are
/// infinite: generators restart their outer loop as needed.
pub trait Workload: Send {
    /// The paper's workload abbreviation (e.g. "BFS", "RND").
    fn name(&self) -> &'static str;

    /// The data regions to map, in the order `init` expects them.
    fn region_specs(&self) -> Vec<RegionSpec>;

    /// Binds the mapped region base addresses.
    ///
    /// # Panics
    ///
    /// Implementations panic if `bases.len()` mismatches the spec count.
    fn init(&mut self, bases: &[VirtAddr]);

    /// Appends at least one reference to `out`.
    fn fill(&mut self, out: &mut Vec<MemRef>);

    /// Moves the generator forward by whole batches without
    /// materialising them — leaving it exactly where that many `fill`
    /// calls would — and returns the `(instructions, references)`
    /// advanced, neither of which passes its budget. The default
    /// advances nothing, which is always correct:
    /// [`WorkloadStream::skip`] generates whatever `advance` leaves.
    fn advance(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        let _ = (max_instrs, max_refs);
        (0, 0)
    }
}

/// Where a generator's batch goes: the stream's buffer, or (for a dry
/// fill) a tally that only counts it.
pub trait Sink {
    /// Emits one reference.
    fn push(&mut self, r: MemRef);
}

impl Sink for Vec<MemRef> {
    #[inline]
    fn push(&mut self, r: MemRef) {
        Vec::push(self, r);
    }
}

/// A [`Sink`] that keeps only the totals, for dry fills: a batch run
/// into it updates the generator's RNG and algorithm state exactly as
/// `fill` does but pushes nothing.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Tally {
    instrs: u64,
    refs: u64,
}

impl Sink for Tally {
    #[inline]
    fn push(&mut self, r: MemRef) {
        self.instrs += r.instructions();
        self.refs += 1;
    }
}

impl Tally {
    /// Runs `batch` dry while a worst-case batch of `worst =
    /// (instructions, references)` still fits both budgets, so the
    /// totals returned never pass either.
    pub(crate) fn dry_run(
        max_instrs: u64,
        max_refs: u64,
        worst: (u64, u64),
        mut batch: impl FnMut(&mut Tally),
    ) -> (u64, u64) {
        let mut t = Tally::default();
        while t.instrs + worst.0 <= max_instrs && t.refs + worst.1 <= max_refs {
            let before = t;
            batch(&mut t);
            debug_assert!(
                t.instrs - before.instrs <= worst.0 && t.refs - before.refs <= worst.1,
                "a batch exceeded its worst case {worst:?}"
            );
        }
        (t.instrs, t.refs)
    }
}

/// Whole batches of a fixed `per = (instructions, references)` that fit
/// both budgets.
#[inline]
pub(crate) fn whole_batches(max_instrs: u64, max_refs: u64, per: (u64, u64)) -> u64 {
    (max_instrs / per.0).min(max_refs / per.1)
}

/// Pull-based adapter over a [`Workload`]'s batch interface.
pub struct WorkloadStream {
    inner: Box<dyn Workload>,
    buf: Vec<MemRef>,
    pos: usize,
}

impl std::fmt::Debug for WorkloadStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadStream")
            .field("workload", &self.inner.name())
            .field("buffered", &(self.buf.len() - self.pos))
            .finish()
    }
}

impl WorkloadStream {
    /// Wraps an initialised workload.
    pub fn new(inner: Box<dyn Workload>) -> Self {
        Self { inner, buf: Vec::with_capacity(1024), pos: 0 }
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Next memory reference (infinite stream).
    #[inline]
    pub fn next_ref(&mut self) -> MemRef {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            while self.buf.is_empty() {
                self.inner.fill(&mut self.buf);
            }
        }
        let r = self.buf[self.pos];
        self.pos += 1;
        r
    }

    /// Consumes references exactly as repeated [`WorkloadStream::next_ref`]
    /// calls would, stopping after `max_refs` references or at the first
    /// reference whose running instruction total reaches `max_instrs`,
    /// and returns the `(instructions, references)` consumed. The rest
    /// of the buffered batch drains first, [`Workload::advance`] then
    /// jumps over whole batches without generating them, and the
    /// remainder is generated and consumed one reference at a time.
    pub fn skip(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        let (mut instrs, mut refs) = (0u64, 0u64);
        let open = |instrs: u64, refs: u64| instrs < max_instrs && refs < max_refs;
        while open(instrs, refs) && self.pos < self.buf.len() {
            instrs += self.buf[self.pos].instructions();
            refs += 1;
            self.pos += 1;
        }
        if open(instrs, refs) {
            let (i, r) = self.inner.advance(max_instrs - instrs, max_refs - refs);
            instrs += i;
            refs += r;
        }
        while open(instrs, refs) {
            instrs += self.next_ref().instructions();
            refs += 1;
        }
        (instrs, refs)
    }
}

/// Builds a synthetic per-site program counter. Sites are spaced a cache
/// block apart so the IP-stride prefetcher sees distinct streams.
#[inline]
pub(crate) const fn pc(site: u32) -> u64 {
    0x40_0000 + (site as u64) * 64
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        base: VirtAddr,
        n: u64,
    }

    impl Workload for Fake {
        fn name(&self) -> &'static str {
            "FAKE"
        }
        fn region_specs(&self) -> Vec<RegionSpec> {
            vec![RegionSpec { name: "a", bytes: 4096, huge_fraction: 0.0 }]
        }
        fn init(&mut self, bases: &[VirtAddr]) {
            assert_eq!(bases.len(), 1);
            self.base = bases[0];
        }
        fn fill(&mut self, out: &mut Vec<MemRef>) {
            for _ in 0..3 {
                out.push(MemRef::load(self.base.add(self.n % 4096), pc(0), 1));
                self.n += 8;
            }
        }
    }

    #[test]
    fn stream_refills_transparently() {
        let mut w = Box::new(Fake { base: VirtAddr::new(0), n: 0 });
        w.init(&[VirtAddr::new(0x1000)]);
        let mut s = WorkloadStream::new(w);
        let refs: Vec<MemRef> = (0..10).map(|_| s.next_ref()).collect();
        assert_eq!(refs.len(), 10);
        assert!(refs.iter().all(|r| r.vaddr.raw() >= 0x1000));
        // Addresses advance deterministically.
        assert_eq!(refs[1].vaddr.raw() - refs[0].vaddr.raw(), 8);
    }

    #[test]
    fn scale_factors() {
        assert_eq!(Scale::Tiny.factor(), 1);
        assert!(Scale::Small.factor() > Scale::Tiny.factor());
        assert!(Scale::Full.factor() > Scale::Small.factor());
        assert!(Scale::Paper.factor() > Scale::Full.factor());
    }

    #[test]
    fn scale_parse_round_trips() {
        for (name, scale) in
            [("tiny", Scale::Tiny), ("small", Scale::Small), ("full", Scale::Full), ("paper", Scale::Paper)]
        {
            assert_eq!(Scale::parse(name), Some(scale));
        }
        assert_eq!(Scale::parse("medium"), None);
    }

    #[test]
    fn budgets_grow_with_scale() {
        let scales = [Scale::Tiny, Scale::Small, Scale::Full, Scale::Paper];
        for pair in scales.windows(2) {
            let (w0, m0) = pair[0].default_budget();
            let (w1, m1) = pair[1].default_budget();
            assert!(w1 >= w0 && m1 > m0, "{:?} budget must exceed {:?}", pair[1], pair[0]);
        }
    }
}
