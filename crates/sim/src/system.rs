//! One simulated core's memory system, driven by a workload stream.
//!
//! The translation flow follows Fig. 2 (and Figs. 14/17 for Victima):
//! L1 D-TLBs (per page size) → unified L2 TLB → mechanism-specific
//! backstop (radix walk, hardware L3 TLB, POM-TLB lookup, Victima's
//! parallel L2-cache probe, or the Fig. 10 ideal backstop) → page-table
//! walk. One L2-TLB-miss pipeline serves native and virtualised modes,
//! and one walk loop (`tlb_sim::walker::walk`) serves every page-table
//! walk: the radix, host and shadow tables walk it directly, and the
//! nested 2D walk in [`crate::virt`] walks the guest table with a
//! gPA→hPA translation before each PTE read.

use crate::config::{ExecMode, SystemConfig, TranslationMechanism};
use crate::epochs::EpochTracker;
use crate::obs::{window_readings, SimMetrics, WalkProfile};
use crate::stats::SimStats;
use crate::virt::compose_entry;
use mem_sim::{BlockKind, Hierarchy, MemClass, MemLevel, Policy, SharedLlc};
use obs::Tracer;
use page_table::{AddressSpace, FrameAllocator, MappedRegion, NestedMemory, Pte, RadixPageTable};
use std::cell::RefCell;
use std::rc::Rc;
use tlb_sim::{PageTableWalker, PomTlb, SetAssocTlb, TlbEntry};
use victima::{features::FeatureTracker, Victima};
use vm_types::{AccessKind, Asid, Cycles, MemRef, PageSize, PhysAddr, VirtAddr};
use workloads::{Workload, WorkloadStream};

/// Where the translated memory image lives.
pub(crate) enum Memory {
    /// Native: one process address space over (possibly shared) physical
    /// memory.
    Native {
        /// Physical frame allocator — shared between every process of a
        /// multi-core system, private otherwise.
        alloc: Rc<RefCell<FrameAllocator>>,
        /// The process.
        aspace: AddressSpace,
    },
    /// Virtualised: a guest VM with nested (and shadow) page tables
    /// (boxed: the image is much larger than the native variant).
    Virt {
        /// The guest memory image.
        nested: Box<NestedMemory>,
    },
}

impl Memory {
    /// The virtualised image.
    ///
    /// # Panics
    ///
    /// Panics in native mode.
    pub(crate) fn nested(&mut self) -> &mut NestedMemory {
        match self {
            Memory::Virt { nested } => nested,
            Memory::Native { .. } => unreachable!("virtualised flow"),
        }
    }

    /// Physical frames (host frames when virtualised) in use and still
    /// free.
    pub(crate) fn frames(&self) -> (u64, u64) {
        match self {
            Memory::Native { alloc, .. } => {
                let a = alloc.borrow();
                (a.frames_used(), a.frames_left())
            }
            Memory::Virt { nested } => (nested.host_alloc.frames_used(), nested.host_alloc.frames_left()),
        }
    }

    /// The page size backing `va` (guest-side in virtualised mode), or
    /// `None` if unmapped.
    pub(crate) fn page_size(&self, va: VirtAddr) -> Option<PageSize> {
        let pt = match self {
            Memory::Native { aspace, .. } => &aspace.page_table,
            Memory::Virt { nested } => &nested.guest.page_table,
        };
        pt.translate(va).map(|(_, s)| s)
    }

    /// Builds the TLB entry for `va` without timing: the ideal backstop,
    /// functional warming and Victima probe hits, where the hardware reads
    /// the PTE straight out of the hit block. With `size`, returns `None`
    /// unless the mapping has that page size (a stale 2MB/4KB block view),
    /// so one software translation serves both the view check and the
    /// entry. Virtualised entries hold the composed gVA→hPA translation
    /// (Fig. 19). `None` also if unmapped.
    pub(crate) fn soft_entry(&self, va: VirtAddr, asid: Asid, size: Option<PageSize>) -> Option<TlbEntry> {
        match self {
            Memory::Native { aspace, .. } => {
                let w = aspace.page_table.walk(va)?;
                size.is_none_or(|s| s == w.page_size)
                    .then(|| entry_from(va, asid, w.page_size, w.frame, w.leaf_pte))
            }
            Memory::Virt { nested } => {
                let (gpa, gsize) = nested.guest.page_table.translate(va)?;
                if size.is_some_and(|s| s != gsize) {
                    return None;
                }
                let (hpa_piece, _) =
                    nested.host_translate(PhysAddr::new(gpa.raw() & !0xfff)).expect("gpa host-mapped");
                Some(compose_entry(nested, va, asid, gsize, gpa, hpa_piece))
            }
        }
    }

    /// The radix table a one-dimensional walk for a `kind` entry runs
    /// over: the process table natively, the host table for nested TLB
    /// entries, or the I-SP shadow table (gVA → hPA; shadow maintenance
    /// is free by definition of the ideal baseline). `None` selects the
    /// nested 2D walk.
    fn walk_table(&mut self, mode: ExecMode, kind: BlockKind) -> Option<&mut RadixPageTable> {
        match (self, mode, kind) {
            (Memory::Native { aspace, .. }, ..) => Some(&mut aspace.page_table),
            (Memory::Virt { nested }, _, BlockKind::NestedTlb) => Some(&mut nested.host_pt),
            (Memory::Virt { nested }, ExecMode::VirtualizedShadow, _) => {
                Some(nested.shadow_mut().expect("I-SP images fill the shadow table"))
            }
            (Memory::Virt { .. }, ..) => None,
        }
    }
}

/// Everything that belongs to the *process* rather than the core: the
/// memory image, the workload stream, the code region and the ASID — plus
/// per-process progress counters so oversubscribed schedules can account
/// each process individually. The multi-core scheduler context-switches by
/// swapping one of these in and out of a core ([`System`]).
pub struct ProcessCtx {
    pub(crate) memory: Memory,
    pub(crate) stream: WorkloadStream,
    pub(crate) code: MappedRegion,
    pub(crate) asid: Asid,
    /// Instructions this process has retired (across every core it ran on).
    pub retired: u64,
    /// Core cycles this process has consumed (fractional accumulation).
    pub cycles: f64,
}

impl std::fmt::Debug for ProcessCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessCtx")
            .field("workload", &self.stream.name())
            .field("asid", &self.asid)
            .field("retired", &self.retired)
            .finish()
    }
}

impl ProcessCtx {
    /// Builds a native-mode process: allocates its address space and code
    /// region from `alloc`, maps the workload's regions, and binds the
    /// stream. `seed` drives region placement (page-size mixing).
    pub fn new_native(
        asid: Asid,
        mut workload: Box<dyn Workload>,
        alloc: &Rc<RefCell<FrameAllocator>>,
        seed: u64,
    ) -> Self {
        let specs = workload.region_specs();
        let (aspace, code, bases) = {
            let mut a = alloc.borrow_mut();
            let mut aspace = AddressSpace::new(asid, &mut a, seed);
            let code = aspace.map_small_region(256 << 10, &mut a);
            let bases: Vec<VirtAddr> =
                specs.iter().map(|s| aspace.map_region(s.bytes, s.huge_fraction, &mut a).base).collect();
            (aspace, code, bases)
        };
        workload.init(&bases);
        Self {
            memory: Memory::Native { alloc: Rc::clone(alloc), aspace },
            stream: WorkloadStream::new(workload),
            code,
            asid,
            retired: 0,
            cycles: 0.0,
        }
    }

    /// Builds a virtualised process: a guest VM image with nested page
    /// tables (and, for I-SP, a filled shadow table) over `host_bytes`
    /// of host memory, with the code region and the workload's regions
    /// mapped in the guest.
    pub(crate) fn new_virt(
        asid: Asid,
        mut workload: Box<dyn Workload>,
        host_bytes: u64,
        seed: u64,
        shadow: bool,
    ) -> Self {
        let specs = workload.region_specs();
        let footprint: u64 = specs.iter().map(|s| s.bytes).sum();
        // Guest-physical space: footprint plus table overheads and
        // fragmentation-skip slack.
        let guest_phys = footprint * 2 + (1 << 30);
        // Hosts back VM memory with THP (EPT huge pages): 70% of the 2MB
        // chunks of guest-physical space get a host 2MB page
        // (calibrated; see EXPERIMENTS.md).
        let mut nested = NestedMemory::new(asid, guest_phys, host_bytes, 0.7, seed, shadow);
        let code = nested.map_small_region(256 << 10);
        let bases: Vec<VirtAddr> =
            specs.iter().map(|s| nested.map_region(s.bytes, s.huge_fraction).base).collect();
        workload.init(&bases);
        Self {
            memory: Memory::Virt { nested: Box::new(nested) },
            stream: WorkloadStream::new(workload),
            code,
            asid,
            retired: 0,
            cycles: 0.0,
        }
    }

    /// The workload name.
    pub fn workload_name(&self) -> &'static str {
        self.stream.name()
    }

    /// The process's address-space identifier.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Instructions per cycle over this process's whole runtime.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.retired as f64 / self.cycles
        }
    }

    /// Zeroes the progress counters (end of warm-up).
    pub fn reset_counters(&mut self) {
        self.retired = 0;
        self.cycles = 0.0;
    }

    /// Remaps one data page of this process to a fresh physical frame (a
    /// migration), as the OS would before issuing a shootdown. Returns the
    /// new ground truth. Native mode only.
    ///
    /// # Panics
    ///
    /// Panics if `va` is unmapped or the process is virtualised.
    pub fn migrate_page(&mut self, va: VirtAddr) -> PhysAddr {
        let Memory::Native { alloc, aspace } = &mut self.memory else {
            panic!("migrate_page supports native mode only");
        };
        let mut alloc = alloc.borrow_mut();
        let old = aspace.page_table.unmap(va.align_down(PageSize::Size4K)).expect("page must be mapped");
        assert_eq!(old.page_size(), PageSize::Size4K, "migration test uses 4KB pages");
        let frame = alloc.alloc_4k();
        aspace.page_table.map(va.align_down(PageSize::Size4K), frame, PageSize::Size4K, &mut alloc);
        aspace.page_table.translate(va).expect("just mapped").0
    }
}

/// A complete simulated core bound to one resident process.
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) hier: Hierarchy,
    pub(crate) itlb: SetAssocTlb,
    pub(crate) dtlb4k: SetAssocTlb,
    pub(crate) dtlb2m: SetAssocTlb,
    pub(crate) l2_tlb: SetAssocTlb,
    pub(crate) l3_tlb: Option<SetAssocTlb>,
    /// Demand walker (guest-side in virtualised mode). Its PWCs serve the
    /// demand path.
    pub(crate) walker: PageTableWalker,
    /// Walker used for Victima's background (eviction-flow) walks.
    pub(crate) bg_walker: PageTableWalker,
    /// Host page-table walker (virtualised mode).
    pub(crate) host_walker: PageTableWalker,
    /// Nested TLB (gPA → hPA, virtualised mode).
    pub(crate) nested_tlb: SetAssocTlb,
    pub(crate) pom: Option<PomTlb>,
    pub(crate) victima: Option<Victima>,
    /// The resident process (swapped by the multi-core scheduler).
    pub(crate) proc: ProcessCtx,
    pub(crate) epoch: EpochTracker,
    /// Run statistics.
    pub stats: SimStats,
    /// Optional per-page feature tracker (Table 2 profiling runs).
    pub tracker: Option<FeatureTracker>,
    /// Optional tap on the consumed reference stream (trace recording):
    /// sees every [`MemRef`] the stream yields (`System::next_ref`),
    /// warm-up, fast-forwarded and skipped references included, so a
    /// recorded trace replays the whole run.
    record_hook: Option<Box<dyn FnMut(MemRef)>>,
    /// Walk distributions for the `sim.*` metrics (always recorded,
    /// reset with the stats).
    pub(crate) walks: WalkProfile,
    /// Optional `sim.*` metric totals ([`crate::obs`]), folded in at
    /// every [`System::finalize_stats`]; `None` by default.
    pub(crate) metrics: Option<Box<SimMetrics>>,
    /// Optional phase-span tracer: `run_with_warmup`, the sampling loop
    /// and checkpoint restore record wall-clock phase timings into it.
    /// Timings never reach [`SimStats`] or any `--check` artifact.
    pub(crate) tracer: Option<Tracer>,
    /// Memory references consumed from the stream over the system's
    /// whole lifetime (detailed *and* fast-forwarded; never reset).
    /// This is the stream position a checkpoint records so a resumed
    /// run can drain the generator back to the same point.
    refs_consumed: u64,
    /// Set by [`System::allow_stale_translations`].
    stale_ok: bool,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("config", &self.cfg.name)
            .field("workload", &self.proc.stream.name())
            .finish()
    }
}

/// Outcome of resolving one L2 TLB miss.
pub(crate) struct MissResolution {
    pub entry: TlbEntry,
    pub latency: Cycles,
    /// Fig. 22/29 components: (pom, l2-cache, walk, host).
    pub components: [Cycles; 4],
}

impl System {
    /// Builds a system: allocates physical memory, maps the workload's
    /// regions (and the virtualised image if configured), and wires up
    /// every component.
    pub fn new(cfg: SystemConfig, workload: Box<dyn Workload>) -> Self {
        let asid = Asid::new(1);
        // Build the memory image and map regions, then carve out the
        // POM-TLB backing store (host memory when virtualised).
        let (proc, pom) = match cfg.mode {
            ExecMode::Native => {
                let alloc = Rc::new(RefCell::new(FrameAllocator::new(cfg.phys_mem_bytes, cfg.seed)));
                let proc = ProcessCtx::new_native(asid, workload, &alloc, cfg.seed);
                let pom = pom_tlb(&cfg.mechanism, &mut alloc.borrow_mut());
                (proc, pom)
            }
            ExecMode::VirtualizedNested | ExecMode::VirtualizedShadow => {
                // Only I-SP walks the shadow table, so only it fills one.
                let shadow = cfg.mode == ExecMode::VirtualizedShadow;
                let mut proc = ProcessCtx::new_virt(asid, workload, cfg.phys_mem_bytes, cfg.seed, shadow);
                let pom = pom_tlb(&cfg.mechanism, &mut proc.memory.nested().host_alloc);
                (proc, pom)
            }
        };
        Self::assemble(cfg, proc, pom, None)
    }

    /// Builds a core over an externally owned (shared) LLC, bound to a
    /// pre-built native process — the multi-core construction path. The
    /// POM-TLB region, when configured, is carved out of the shared frame
    /// allocator (one private in-DRAM TLB per core).
    pub fn new_shared(
        cfg: SystemConfig,
        proc: ProcessCtx,
        llc: Rc<RefCell<SharedLlc>>,
        alloc: &Rc<RefCell<FrameAllocator>>,
    ) -> Self {
        assert_eq!(cfg.mode, ExecMode::Native, "multi-core cores are native-mode");
        let pom = pom_tlb(&cfg.mechanism, &mut alloc.borrow_mut());
        Self::assemble(cfg, proc, pom, Some(llc))
    }

    /// Wires every hardware component around a process.
    fn assemble(
        cfg: SystemConfig,
        proc: ProcessCtx,
        pom: Option<PomTlb>,
        llc: Option<Rc<RefCell<SharedLlc>>>,
    ) -> Self {
        let l2_policy = match &cfg.mechanism {
            TranslationMechanism::Victima(_)
            | TranslationMechanism::PomTlb(_)
            | TranslationMechanism::VictimaPom(..) => Policy::tlb_aware_srrip(),
            _ => Policy::srrip(),
        };
        let hier = match llc {
            Some(llc) => Hierarchy::with_shared_llc(cfg.hierarchy.clone(), l2_policy, llc),
            None => Hierarchy::with_l2_policy(cfg.hierarchy.clone(), l2_policy),
        };
        let victima = match &cfg.mechanism {
            TranslationMechanism::Victima(v)
            | TranslationMechanism::VictimaAgnostic(v)
            | TranslationMechanism::VictimaPom(v, _) => Some(Victima::new(v.clone())),
            _ => None,
        };

        Self {
            itlb: SetAssocTlb::new(cfg.mmu.l1_itlb.clone()),
            dtlb4k: SetAssocTlb::new(cfg.mmu.l1_dtlb_4k.clone()),
            dtlb2m: SetAssocTlb::new(cfg.mmu.l1_dtlb_2m.clone()),
            l2_tlb: SetAssocTlb::new(cfg.mmu.l2_tlb.clone()),
            l3_tlb: cfg.mmu.l3_tlb.clone().map(SetAssocTlb::new),
            walker: PageTableWalker::new(),
            bg_walker: PageTableWalker::new(),
            host_walker: PageTableWalker::new(),
            nested_tlb: SetAssocTlb::new(cfg.mmu.nested_tlb.clone()),
            pom,
            victima,
            proc,
            epoch: EpochTracker::new(),
            stats: SimStats::default(),
            tracker: None,
            record_hook: None,
            walks: WalkProfile::default(),
            metrics: None,
            tracer: None,
            refs_consumed: 0,
            stale_ok: false,
            hier,
            cfg,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The workload name.
    pub fn workload_name(&self) -> &'static str {
        self.proc.stream.name()
    }

    /// Enables per-page feature collection (Table 2 profiling).
    pub fn enable_feature_tracking(&mut self) {
        self.tracker = Some(FeatureTracker::new());
    }

    /// Installs a tap on the reference stream the core consumes. The
    /// hook fires once per [`MemRef`], *before* the reference executes
    /// and from the very first instruction (warm-up included) — exactly
    /// the stream a `.vtrace` recorder must capture for replay to be
    /// byte-identical to the live run. Replaces any previous hook.
    pub fn set_record_hook(&mut self, hook: Box<dyn FnMut(MemRef)>) {
        self.record_hook = Some(hook);
    }

    /// Removes and returns the record hook, releasing whatever sink it
    /// captured (recorders reclaim their writer through this).
    pub fn take_record_hook(&mut self) -> Option<Box<dyn FnMut(MemRef)>> {
        self.record_hook.take()
    }

    /// Enables the `sim.*` metric totals ([`crate::obs::SimMetrics`]),
    /// which every later [`System::finalize_stats`] extends by the
    /// window just measured. Like the record hook and the feature
    /// tracker, enablement is post-construction state: it never enters
    /// the config or the spec fingerprint, and it cannot change
    /// simulation results.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(Box::default());
    }

    /// The installed metric set, when metrics are enabled.
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.metrics.as_deref()
    }

    /// Removes and returns the metric set (end-of-run harvest).
    pub fn take_metrics(&mut self) -> Option<Box<SimMetrics>> {
        self.metrics.take()
    }

    /// Enables phase-span tracing into a fresh [`Tracer`].
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(Tracer::new());
    }

    /// Removes and returns the tracer (end-of-run harvest).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// Stamps a span start when tracing is on (0 otherwise — the stamp
    /// is only ever consumed by [`System::span_end`], which is a no-op
    /// in that case).
    pub(crate) fn span_start(&self) -> u64 {
        self.tracer.as_ref().map_or(0, Tracer::start)
    }

    /// Closes a phase span opened at `start_us`; no-op when tracing is
    /// off.
    pub(crate) fn span_end(&mut self, name: &'static str, start_us: u64, fields: &[(&'static str, u64)]) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(name, start_us, fields);
        }
    }

    /// Runs for `instructions` instructions (memory + gap instructions).
    ///
    /// The budget is counted locally, not off `stats.instructions`, so
    /// callers that clear statistics mid-run (warm-up resets, sampling
    /// windows) always advance by exactly the requested amount.
    pub fn run(&mut self, instructions: u64) {
        let mut advanced = 0u64;
        while advanced < instructions {
            let r = self.next_ref();
            advanced += r.instructions();
            self.step(r);
        }
    }

    /// Pulls the next reference from the stream, firing the record hook
    /// and counting it in `refs_consumed`.
    fn next_ref(&mut self) -> MemRef {
        let r = self.proc.stream.next_ref();
        if let Some(hook) = self.record_hook.as_mut() {
            hook(r);
        }
        self.refs_consumed += 1;
        r
    }

    /// Runs `warmup` instructions, discards all statistics, then runs
    /// `measured` instructions. The record hook (when installed) sees
    /// every reference of both phases, from the very first warm-up ref,
    /// exactly once — statistics resets never skip or replay hook fires.
    pub fn run_with_warmup(&mut self, warmup: u64, measured: u64) {
        let t0 = self.span_start();
        self.run(warmup);
        self.span_end("warmup", t0, &[("instr", warmup)]);
        self.reset_stats();
        self.proc.reset_counters();
        let t0 = self.span_start();
        self.run(measured);
        self.span_end("measured", t0, &[("instr", measured)]);
    }

    /// Memory references consumed from the workload stream since
    /// construction (never reset; fast-forwarded references included).
    pub fn refs_consumed(&self) -> u64 {
        self.refs_consumed
    }

    /// Advances the system *functionally* for `instructions`
    /// instructions: the workload stream, the L2 TLB's content and the
    /// page-table ground truth move forward, but no timing is accounted
    /// — no cache or DRAM traffic, no prefetcher training, no Victima /
    /// POM-TLB activity, and no PTE counter bumps. This is the
    /// fast-forward phase of SMARTS-style interval sampling
    /// ([`crate::sampling`]): orders of magnitude faster than
    /// [`System::run`], with the smaller structures (L1 TLBs, caches,
    /// PWCs) repaired by the detailed warm-up that precedes each
    /// measurement window. The record hook still sees every reference,
    /// so recording stays exact under sampling.
    ///
    /// # Panics
    ///
    /// Panics in virtualised mode (sampling is native-only).
    pub fn fast_forward(&mut self, instructions: u64) {
        assert_eq!(self.cfg.mode, ExecMode::Native, "fast_forward supports native mode only");
        let asid = self.proc.asid;
        // Page-level short-circuit: consecutive references to the same
        // 4KB-aligned page skip even the L2 TLB probe.
        let mut last_vpn4k = u64::MAX;
        let mut advanced = 0u64;
        while advanced < instructions {
            let r = self.next_ref();
            advanced += r.instructions();
            let vpn4k = r.vaddr.vpn(PageSize::Size4K);
            if vpn4k == last_vpn4k {
                continue;
            }
            last_vpn4k = vpn4k;
            // Walk the page table first (functionally it is a handful of
            // array reads — cheaper than a TLB probe), then fill
            // unconditionally: `fill` refreshes in place when the
            // translation is already resident, so one set scan replaces
            // the probe-then-fill pair. PTE counters are frozen in
            // functional mode, so a refresh writes back an identical
            // payload and only touches the LRU stamp — exactly what a
            // probe hit would do.
            let entry =
                self.proc.memory.soft_entry(r.vaddr, asid, None).unwrap_or_else(|| {
                    panic!("page fault at {}: workload touched an unmapped page", r.vaddr)
                });
            // Raw fill: the eviction-side hooks (Victima background
            // walks, POM spills) are timing/traffic mechanisms and stay
            // off in functional mode.
            self.l2_tlb.fill(entry);
        }
    }

    /// Advances the workload stream for `instructions` instructions
    /// without simulating anything at all — not even the functional L2
    /// TLB warming of [`System::fast_forward`]. It stops at the first
    /// reference whose running instruction total reaches
    /// `instructions`, exactly as a generate-and-drop loop would, and
    /// `refs_consumed` advances by the references passed over, so
    /// checkpoint stream positions stay exact.
    ///
    /// Without a record hook the stream skips without generating
    /// ([`WorkloadStream::skip`]): [`Workload::advance`] jumps whole
    /// batches — in O(1) for RND, DLRM and XS, as allocation-free dry
    /// fills for GEN, TC and BFS — and only the partial batches at
    /// either end are materialised. With a hook installed every
    /// reference is generated so the hook sees each one, and recording
    /// stays exact.
    ///
    /// Sound because workloads never page-fault after construction: the
    /// page-table ground truth cannot change while instructions are
    /// skipped, so the only state a skip loses is TLB recency — which
    /// [`crate::sampling`] repairs with a bounded functional-warming
    /// tail before each measurement window.
    ///
    /// [`WorkloadStream::skip`]: workloads::WorkloadStream::skip
    /// [`Workload::advance`]: workloads::Workload::advance
    pub fn skip(&mut self, instructions: u64) {
        if self.record_hook.is_some() {
            let mut advanced = 0u64;
            while advanced < instructions {
                advanced += self.next_ref().instructions();
            }
        } else {
            let (_, refs) = self.proc.stream.skip(instructions, u64::MAX);
            self.refs_consumed += refs;
        }
    }

    /// Consumes `refs` references from the workload stream without
    /// simulating them or firing the record hook (checkpoint resume:
    /// generators are deterministic, so draining the stream back to a
    /// recorded position reproduces exactly the stream the saved run
    /// would have continued with). Skips without generating, like
    /// [`System::skip`].
    pub(crate) fn drain_stream_refs(&mut self, refs: u64) {
        let (_, drained) = self.proc.stream.skip(u64::MAX, refs);
        debug_assert_eq!(drained, refs);
        self.refs_consumed += refs;
    }

    /// The resident process.
    pub fn process(&self) -> &ProcessCtx {
        &self.proc
    }

    /// Mutable access to the resident process (migrations, counter resets).
    pub fn process_mut(&mut self) -> &mut ProcessCtx {
        &mut self.proc
    }

    /// Swaps the resident process with `other` (a context switch). The
    /// caller applies whatever TLB invalidation policy the hardware model
    /// calls for — see `scheduler::CtxSwitchPolicy`.
    pub fn swap_process(&mut self, other: &mut ProcessCtx) {
        std::mem::swap(&mut self.proc, other);
    }

    /// Clears the run statistics, the walk profile and the cache stats;
    /// cache/TLB contents stay warm.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        self.hier.reset_stats();
        self.walks = WalkProfile::default();
        self.epoch = EpochTracker::new();
    }

    /// Executes one memory reference through the full model.
    fn step(&mut self, r: MemRef) {
        let instrs = r.instructions();
        self.stats.instructions += instrs;
        self.stats.mem_refs += 1;

        // Instruction side: translate and fetch from the small code region.
        let ifetch_lat = self.ifetch(r.pc);

        // Data side.
        let (pa, t_lat) = self.translate_data(r.vaddr, r.kind);
        let ctx = self.epoch.ctx();
        let res = self.hier.access_pc(pa, r.kind.is_write(), MemClass::Data, r.pc, &ctx);
        if matches!(res.served_by, MemLevel::L3 | MemLevel::Dram) {
            self.epoch.on_l2_cache_miss();
        }
        if self.tracker.is_some() {
            let size = self.proc.memory.page_size(r.vaddr).unwrap_or(PageSize::Size4K);
            let asid = self.proc.asid;
            if let Some(t) = self.tracker.as_mut() {
                t.on_access(asid, r.vaddr, size);
                if res.served_by == MemLevel::L2 {
                    t.on_l2_cache_hit(asid, r.vaddr, size);
                }
            }
        }
        let d_stall = if r.kind.is_write() { 0 } else { res.latency };

        self.stats.translation_cycles += t_lat + ifetch_lat;
        self.stats.data_cycles += d_stall;
        let t = &self.cfg.timing;
        let cycles = instrs as f64 / t.issue_width
            + t.t_expose * (t_lat + ifetch_lat) as f64
            + t.d_expose * d_stall as f64;
        self.stats.add_cycles(cycles);
        self.proc.retired += instrs;
        self.proc.cycles += cycles;

        if self.epoch.on_instructions(instrs) {
            let reach = self.hier.l2().translation_block_count() as u64 * 8 * 4096;
            self.epoch.sample_reach(reach);
            self.stats.reach_mean_bytes = self.epoch.reach.mean();
            self.stats.reach_max_bytes = self.epoch.reach_max;
        }
    }

    /// Instruction fetch through the I-TLB and L1I. Returns the exposed
    /// translation latency (nonzero only on I-TLB misses, which are rare
    /// since the code region is small).
    fn ifetch(&mut self, pc: u64) -> Cycles {
        // Code regions are power-of-two sized; masking avoids a 64-bit
        // division per simulated instruction.
        let bytes = self.proc.code.bytes;
        let offset = if bytes.is_power_of_two() { pc & (bytes - 1) } else { pc % bytes };
        let va = self.proc.code.at(offset);
        let vpn = va.vpn(PageSize::Size4K);
        let (frame, lat) = match self.itlb.probe(vpn, self.proc.asid, PageSize::Size4K) {
            Some(e) => (e.frame, 0),
            None => {
                // Miss: L2 TLB, then walk. Code pages are always 4KB.
                self.walks.itlb_misses += 1;
                let mut lat = self.l2_tlb.latency();
                let entry = match self.l2_tlb.probe(vpn, self.proc.asid, PageSize::Size4K) {
                    Some(e) => e,
                    None => {
                        let res = self.resolve_l2_miss(va);
                        lat += res.latency;
                        self.fill_l2_tlb(res.entry);
                        res.entry
                    }
                };
                self.itlb.fill(entry);
                (entry.frame, lat)
            }
        };
        let pa = PhysAddr::from_frame(frame, PageSize::Size4K, va.page_offset(PageSize::Size4K));
        self.check_translation(va, pa, PageSize::Size4K);
        let ctx = self.epoch.ctx();
        self.hier.access(pa, false, MemClass::IFetch, &ctx);
        lat
    }

    /// Full data-side translation. Returns the physical address and the
    /// translation latency beyond the (pipelined) L1 TLB hit.
    pub(crate) fn translate_data(&mut self, va: VirtAddr, _kind: AccessKind) -> (PhysAddr, Cycles) {
        // L1 D-TLBs, one per page size, probed in parallel (1 cycle,
        // hidden in the pipeline).
        if let Some(e) = self.dtlb4k.probe(va.vpn(PageSize::Size4K), self.proc.asid, PageSize::Size4K) {
            self.stats.l1_tlb_hits += 1;
            return (self.translated(va, &e), 0);
        }
        if let Some(e) = self.dtlb2m.probe(va.vpn(PageSize::Size2M), self.proc.asid, PageSize::Size2M) {
            self.stats.l1_tlb_hits += 1;
            return (self.translated(va, &e), 0);
        }
        self.stats.l1_tlb_misses += 1;

        // Unified L2 TLB, both page sizes probed in parallel.
        let mut latency = self.l2_tlb.latency();
        for size in PageSize::ALL {
            if let Some(e) = self.l2_tlb.probe(va.vpn(size), self.proc.asid, size) {
                self.stats.l2_tlb_hits += 1;
                self.fill_l1(e);
                self.track_l1_miss(va, size);
                return (self.translated(va, &e), latency);
            }
        }
        self.stats.l2_tlb_misses += 1;
        self.epoch.on_l2_tlb_miss();

        let res = self.resolve_l2_miss(va);
        latency += res.latency;
        self.walks.l2_miss_latency.record(res.latency);
        self.stats.l2_miss_latency_sum += res.latency;
        self.stats.l2_miss_pom_component += res.components[0];
        self.stats.l2_miss_cache_component += res.components[1];
        self.stats.l2_miss_walk_component += res.components[2];
        self.stats.l2_miss_host_component += res.components[3];

        self.fill_l2_tlb(res.entry);
        self.fill_l1(res.entry);
        self.track_l1_miss(va, res.entry.size);
        self.track_l2_miss(va, res.entry.size);
        (self.translated(va, &res.entry), latency)
    }

    /// The physical address `e` translates `va` to, checked by the
    /// debug-build oracle.
    #[inline]
    fn translated(&self, va: VirtAddr, e: &TlbEntry) -> PhysAddr {
        let pa = frame_pa(e.frame, e.size, va);
        self.check_translation(va, pa, e.size);
        pa
    }

    /// The debug-build translation oracle: `pa`, which the pipeline
    /// produced for `va` through a `size` entry, must be the page
    /// tables' physical address, and natively `size` their page size
    /// too (a virtualised entry may be splintered below its guest page).
    /// Compiled out of release builds.
    #[inline]
    fn check_translation(&self, va: VirtAddr, pa: PhysAddr, size: PageSize) {
        if !cfg!(debug_assertions) || self.stale_ok {
            return;
        }
        assert_eq!(
            Some(pa),
            self.ground_truth(va),
            "translation oracle: {va} disagrees with the page tables"
        );
        if let Memory::Native { .. } = self.proc.memory {
            assert_eq!(Some(size), self.page_size_at(va), "translation oracle: page size of {va}");
        }
    }

    /// Lets translations disagree with the page tables, switching the
    /// debug-build oracle off: for tests that leave a stale TLB entry on
    /// purpose, such as a page migration without a shootdown.
    pub fn allow_stale_translations(&mut self) {
        self.stale_ok = true;
    }

    /// Translates once (public hook for tests and examples): runs the full
    /// translation path with timing and returns the physical address.
    pub fn translate_once(&mut self, va: VirtAddr) -> PhysAddr {
        self.translate_data(va, AccessKind::Load).0
    }

    /// Ground-truth translation straight from the page tables (no timing,
    /// no state changes). `None` if unmapped.
    pub fn ground_truth(&self, va: VirtAddr) -> Option<PhysAddr> {
        match &self.proc.memory {
            Memory::Native { aspace, .. } => aspace.page_table.translate(va).map(|(pa, _)| pa),
            Memory::Virt { nested } => nested.full_translate(va),
        }
    }

    /// The page size backing `va` (guest-side in virtualised mode), or
    /// `None` if unmapped. Software lookup; no timing or state changes.
    pub fn page_size_at(&self, va: VirtAddr) -> Option<PageSize> {
        self.proc.memory.page_size(va)
    }

    fn track_l1_miss(&mut self, va: VirtAddr, size: PageSize) {
        if let Some(t) = self.tracker.as_mut() {
            t.on_l1_tlb_miss(self.proc.asid, va, size);
        }
    }

    fn track_l2_miss(&mut self, va: VirtAddr, size: PageSize) {
        if let Some(t) = self.tracker.as_mut() {
            t.on_l2_tlb_miss(self.proc.asid, va, size);
        }
    }

    fn fill_l1(&mut self, e: TlbEntry) {
        let evicted = match e.size {
            PageSize::Size4K => self.dtlb4k.fill(e),
            PageSize::Size2M => self.dtlb2m.fill(e),
        };
        if let (Some(ev), Some(t)) = (evicted, self.tracker.as_mut()) {
            t.on_l1_tlb_eviction(ev.asid, VirtAddr::new(ev.vpn << ev.size.shift()), ev.size);
        }
    }

    /// Fills the L2 TLB and runs the eviction-side hooks: the POM-TLB
    /// spill, then Victima's eviction flow.
    pub(crate) fn fill_l2_tlb(&mut self, e: TlbEntry) {
        let Some(ev) = self.l2_tlb.fill(e) else {
            return;
        };
        if let Some(t) = self.tracker.as_mut() {
            t.on_l2_tlb_eviction(ev.asid, VirtAddr::new(ev.vpn << ev.size.shift()), ev.size);
        }
        // Spill the evicted entry to the in-memory TLB (off the critical
        // path: traffic only).
        if let Some(pom) = self.pom.as_mut() {
            let line = pom.insert(ev.vpn, ev.asid, ev.size, ev.frame);
            let ctx = self.epoch.ctx();
            self.hier.access(line, true, MemClass::PomTlb, &ctx);
        }
        self.victima_eviction_flow(ev, BlockKind::Tlb);
    }

    /// Victima's eviction flow for an entry displaced from the L2 TLB
    /// (`BlockKind::Tlb`, Fig. 14, right path) or from the nested TLB
    /// (`BlockKind::NestedTlb`, Fig. 18): predictor, background walk, then
    /// block transformation. The background walk generates real cache
    /// traffic but no core stall.
    pub(crate) fn victima_eviction_flow(&mut self, ev: TlbEntry, kind: BlockKind) {
        let Some(v) = self.victima.as_mut() else {
            return;
        };
        let ev_va = VirtAddr::new(ev.vpn << ev.size.shift());
        let mode = self.cfg.mode;
        // Nested-guest TLB entries may be splintered; their TLB block is
        // keyed by the guest page size.
        let size = if kind == BlockKind::Tlb && mode == ExecMode::VirtualizedNested {
            self.proc.memory.page_size(ev_va).unwrap_or(PageSize::Size4K)
        } else {
            ev.size
        };
        let ctx = self.epoch.ctx();
        if !v.wants_eviction_insert(
            self.hier.l2(),
            ev_va,
            ev.asid,
            kind,
            size,
            ev.ptw_freq,
            ev.ptw_cost,
            &ctx,
        ) {
            return;
        }
        self.stats.victima_background_walks += 1;
        let walk = match self.proc.memory.walk_table(mode, kind) {
            Some(pt) => self.bg_walker.walk(pt, ev_va, ev.asid, &mut self.hier, &ctx),
            None => Some(self.nested_walk(ev_va, false).1),
        };
        if let Some(w) = walk {
            let v = self.victima.as_mut().expect("checked above");
            if v.insert_after_eviction_walk(self.hier.l2_mut(), ev_va, ev.asid, kind, &w, &ctx) {
                self.stats.victima_inserts += 1;
            }
        }
    }

    /// Resolves an L2 TLB miss. One pipeline serves every mode: hardware
    /// L3 TLB → Fig. 10 ideal backstop → Victima's L2-cache probe →
    /// POM-TLB lookup → page-table walk → post-walk inserts. Only the
    /// walk depends on the mode (native radix, I-SP shadow table, or the
    /// nested 2D walk).
    pub(crate) fn resolve_l2_miss(&mut self, va: VirtAddr) -> MissResolution {
        let ctx = self.epoch.ctx();
        let asid = self.proc.asid;
        let mut latency: Cycles = 0;
        let mut components = [0u64; 4];

        // Hardware L3 TLB (Fig. 8 design point).
        if let Some(l3) = self.l3_tlb.as_mut() {
            latency += l3.latency();
            components[2] += l3.latency();
            for size in PageSize::ALL {
                if let Some(e) = l3.probe(va.vpn(size), asid, size) {
                    self.stats.l3_tlb_hits += 1;
                    return MissResolution { entry: e, latency, components };
                }
            }
        }

        // Fig. 10 ideal backstop: a fixed-latency oracle.
        if let TranslationMechanism::IdealBackstop(l) = self.cfg.mechanism {
            latency += l;
            components[1] += l;
            let entry = self.proc.memory.soft_entry(va, asid, None).expect("mapped");
            return MissResolution { entry, latency, components };
        }

        // Victima: probe the L2 cache for a TLB block in parallel with the
        // walk (Figs. 17/19). A tag hit still requires the cluster's PTE to
        // actually map this VA (a 2MB-view block spans 16MB that may also
        // contain 4KB-mapped chunks); on a stale view the parallel PTW
        // simply continues, costing nothing extra. Virtualised blocks
        // store direct gVA→hPA mappings, so a hit skips both the guest
        // and the host walk.
        if let Some(v) = self.victima.as_mut() {
            if let Some(hit) = v.probe(self.hier.l2_mut(), va, asid, BlockKind::Tlb, &ctx) {
                if let Some(entry) = self.proc.memory.soft_entry(va, asid, Some(hit.size)) {
                    let l2c = self.hier.l2().latency();
                    latency += l2c;
                    components[1] += l2c;
                    self.stats.victima_hits += 1;
                    return MissResolution { entry, latency, components };
                }
            }
        }

        // POM-TLB lookup (two parallel per-size probes through the data
        // hierarchy); each probe counts as one hit or miss.
        if let Some(pom) = self.pom.as_mut() {
            let mut hit: Option<TlbEntry> = None;
            let mut pom_lat: Cycles = 0;
            for size in PageSize::ALL {
                let lk = pom.lookup(va.vpn(size), asid, size);
                let r = self.hier.access(lk.line, false, MemClass::PomTlb, &ctx);
                pom_lat = pom_lat.max(r.latency);
                if let Some(frame) = lk.frame {
                    self.stats.pom_hits += 1;
                    hit = Some(TlbEntry::new(va.vpn(size), asid, size, frame));
                    break;
                }
                self.stats.pom_misses += 1;
            }
            latency += pom_lat;
            components[0] += pom_lat;
            if let Some(entry) = hit {
                return MissResolution { entry, latency, components };
            }
        }

        // The page-table walk.
        let (entry, walk, host_lat) = match self.proc.memory.walk_table(self.cfg.mode, BlockKind::Tlb) {
            Some(pt) => {
                let w = self
                    .walker
                    .walk(pt, va, asid, &mut self.hier, &ctx)
                    .unwrap_or_else(|| panic!("page fault at {va}: workload touched an unmapped page"));
                // Only 1-D walks feed the PTW latency histogram and the
                // DRAM-walk count, so NP and Victima-virt report a zero
                // PTW latency; recording both arms here is a pending fix
                // that re-records the virtualised baselines.
                self.stats.ptw_latency_hist.record(w.latency);
                self.walks.dram_walks += u64::from(w.dram_touched);
                (entry_from(va, asid, w.page_size, w.frame, w.leaf_pte), w, 0)
            }
            None => self.nested_walk(va, true),
        };
        self.stats.ptws += 1;
        latency += walk.latency + host_lat;
        components[2] += walk.latency;
        components[3] += host_lat;
        // A walk that touched fewer memory levels than the radix depth
        // was largely served by the page-walk caches.
        let pwc_hit = walk.memory_accesses < 4 && walk.page_size == PageSize::Size4K
            || walk.memory_accesses < 3 && walk.page_size == PageSize::Size2M;
        self.walks.pwc_hits += u64::from(pwc_hit);
        self.walks.pwc_misses += u64::from(!pwc_hit);
        self.walks.depth.record(walk.memory_accesses as u64);
        self.walks.latency.record(walk.latency);
        if let Some(t) = self.tracker.as_mut() {
            t.on_walk(asid, va, walk.page_size, walk.latency, walk.dram_touched, pwc_hit);
        }

        // Post-walk insertions.
        if let Some(l3) = self.l3_tlb.as_mut() {
            l3.fill(entry);
        }
        if let Some(pom) = self.pom.as_mut() {
            let line = pom.insert(entry.vpn, entry.asid, entry.size, entry.frame);
            self.hier.access(line, true, MemClass::PomTlb, &ctx);
        }
        if let Some(v) = self.victima.as_mut() {
            if v.insert_after_walk(self.hier.l2_mut(), va, asid, BlockKind::Tlb, &walk, &ctx) {
                self.stats.victima_inserts += 1;
            }
        }
        MissResolution { entry, latency, components }
    }

    /// Finalises the derived statistics (PTW means, cache reuse). Call
    /// once after each measured window: with metrics enabled, this also
    /// folds the window into the `sim.*` totals.
    pub fn finalize_stats(&mut self) {
        let walks = self.stats.ptw_latency_hist.count();
        self.stats.ptw_latency_mean = self.stats.ptw_latency_hist.mean();
        self.stats.ptw_dram_fraction =
            if walks == 0 { 0.0 } else { self.walks.dram_walks as f64 / walks as f64 };
        self.stats.l2_data_reuse = self.hier.l2().stats.data_reuse;
        self.stats.l2_tlb_block_reuse = self.hier.l2().stats.tlb_reuse;
        // Eviction-time reuse alone under-counts the *hottest* TLB blocks:
        // they stay resident for the whole (short) measured window and are
        // never evicted, so snapshot the resident population too.
        for b in self.hier.l2().iter_valid() {
            if b.kind.is_translation() {
                self.stats.l2_tlb_block_reuse.record(b.reuse as u64);
            }
        }
        if let Some(mut m) = self.metrics.take() {
            obs::merge_snapshots(&mut m.totals, &window_readings(self));
            self.metrics = Some(m);
        }
    }

    /// OS-initiated TLB shootdown for one page of the *resident* address
    /// space (Sec. 6.2): invalidates the page in every hardware TLB, the
    /// POM-TLB and Victima's TLB blocks. Returns the number of hardware
    /// TLB entries dropped.
    pub fn tlb_shootdown(&mut self, va: VirtAddr) -> u64 {
        self.tlb_shootdown_asid(va, self.proc.asid)
    }

    /// Shootdown for an explicit address space — the inter-core IPI path:
    /// remote cores invalidate a page of a process that is *not* resident
    /// on them (its entries may still be cached under its ASID). Returns
    /// the number of entries dropped from the I-TLB, the L1 D-TLBs and
    /// the L2 and L3 TLBs.
    pub fn tlb_shootdown_asid(&mut self, va: VirtAddr, asid: Asid) -> u64 {
        let mut n = 0;
        for size in PageSize::ALL {
            let vpn = va.vpn(size);
            n += u64::from(self.itlb.invalidate(vpn, asid, size));
            n += u64::from(self.dtlb4k.invalidate(vpn, asid, size));
            n += u64::from(self.dtlb2m.invalidate(vpn, asid, size));
            n += u64::from(self.l2_tlb.invalidate(vpn, asid, size));
            if let Some(l3) = self.l3_tlb.as_mut() {
                n += u64::from(l3.invalidate(vpn, asid, size));
            }
            if let Some(p) = self.pom.as_mut() {
                p.invalidate(vpn, asid, size);
            }
        }
        if let Some(v) = self.victima.as_mut() {
            v.shootdown(self.hier.l2_mut(), va, asid);
        }
        n
    }

    /// ASID-selective invalidation (Sec. 6.1(ii)): drops every translation
    /// of one address space from the hardware TLBs and Victima's blocks,
    /// leaving other ASIDs' entries warm. Returns the number of hardware
    /// TLB entries dropped. PWCs are not ASID-partitioned in this model,
    /// so they flush entirely.
    pub fn invalidate_asid(&mut self, asid: Asid) -> u64 {
        let mut n = self.itlb.invalidate_asid(asid);
        n += self.dtlb4k.invalidate_asid(asid);
        n += self.dtlb2m.invalidate_asid(asid);
        n += self.l2_tlb.invalidate_asid(asid);
        if let Some(l3) = self.l3_tlb.as_mut() {
            n += l3.invalidate_asid(asid);
        }
        self.walker.pwc.flush();
        if let Some(v) = self.victima.as_mut() {
            v.flush_asid(self.hier.l2_mut(), asid);
        }
        n
    }

    /// Full context-switch flush (Sec. 6.1): drops every translation the
    /// hardware holds for this address space.
    pub fn context_switch_flush(&mut self) {
        self.itlb.invalidate_all();
        self.dtlb4k.invalidate_all();
        self.dtlb2m.invalidate_all();
        self.l2_tlb.invalidate_all();
        if let Some(l3) = self.l3_tlb.as_mut() {
            l3.invalidate_all();
        }
        self.nested_tlb.invalidate_all();
        self.walker.pwc.flush();
        self.host_walker.pwc.flush();
        if let Some(v) = self.victima.as_mut() {
            v.flush_all(self.hier.l2_mut());
        }
    }

    /// Remaps one data page of the resident process to a fresh physical
    /// frame (a migration), as the OS would before issuing a shootdown.
    /// Returns the new ground truth. Native mode only.
    ///
    /// # Panics
    ///
    /// Panics if `va` is unmapped or the system is virtualised.
    pub fn migrate_page(&mut self, va: VirtAddr) -> PhysAddr {
        self.proc.migrate_page(va)
    }
}

/// The POM-TLB `mechanism` calls for, if any, with its contiguous
/// backing store carved out of `alloc`.
fn pom_tlb(mechanism: &TranslationMechanism, alloc: &mut FrameAllocator) -> Option<PomTlb> {
    match mechanism {
        TranslationMechanism::PomTlb(p) | TranslationMechanism::VictimaPom(_, p) => {
            Some(PomTlb::new(p.clone(), alloc.alloc_contiguous(p.storage_bytes())))
        }
        _ => None,
    }
}

/// A TLB entry for `va`'s page of `size` at 4KB frame `frame`, carrying
/// the leaf PTE's predictor counters.
#[inline]
pub(crate) fn entry_from(va: VirtAddr, asid: Asid, size: PageSize, frame: u64, leaf: Pte) -> TlbEntry {
    TlbEntry::with_counters(va.vpn(size), asid, size, frame, leaf.ptw_freq(), leaf.ptw_cost())
}

/// The physical address of `va` in the page of `size` whose base is the
/// 4KB frame `frame` (the TLB entries' frame convention).
#[inline]
pub(crate) fn frame_pa(frame: u64, size: PageSize, va: VirtAddr) -> PhysAddr {
    PhysAddr::from_frame(frame >> (size.shift() - 12), size, va.page_offset(size))
}
