//! The multi-core, multi-programmed system (Figs. 12–13).
//!
//! A [`MultiCoreSystem`] instantiates N cores — each a full [`System`]
//! with private L1/L2 caches, private L1/L2 TLBs, page-walk caches,
//! walkers and (when configured) a Victima engine over its own L2 — in
//! front of **one shared LLC** (L3 + DRAM, sized at the paper's 2MB/core)
//! and **one shared [`FrameAllocator`]**. M ≥ N processes, each with its
//! own [`AddressSpace`](page_table::AddressSpace) under a distinct ASID,
//! are interleaved over the cores by the quantum [`Scheduler`]: pinned
//! placement reproduces the paper's multi-programmed setup, round-robin
//! oversubscription exercises context-switch invalidation policies.
//!
//! Inter-core TLB shootdowns ride the existing single-core hooks: a page
//! migration in one process triggers `tlb_shootdown_asid` on *every* core,
//! dropping the page from all private TLBs, POM-TLB copies and Victima's
//! TLB blocks regardless of where the process last ran.
//!
//! Everything is deterministic: cores step one at a time in index order,
//! the shared LLC and allocator are `Rc<RefCell<_>>` (no threads inside
//! one system), and per-slot workload seeding is derived with
//! [`slot_seed`].

use crate::config::{ExecMode, SystemConfig};
use crate::scheduler::{CtxSwitchPolicy, SchedConfig, Scheduler};
use crate::stats::SimStats;
use crate::system::{ProcessCtx, System};
use mem_sim::SharedLlc;
use page_table::FrameAllocator;
use std::cell::RefCell;
use std::rc::Rc;
use vm_types::{Asid, PhysAddr, SplitMix64, VirtAddr};
use workloads::{mixes::Mix, Scale, Workload};

/// Derives the deterministic seed for mix slot `slot` from a base seed.
/// Distinct slots of the same base draw independent streams, so a mix may
/// contain the same workload twice without replaying identical accesses.
pub fn slot_seed(base: u64, slot: usize) -> u64 {
    let mut rng = SplitMix64::new(base ^ (slot as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64()
}

/// System-level (cross-core) event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MultiCoreStats {
    /// Context switches performed by the scheduler.
    pub context_switches: u64,
    /// Page migrations (each fans out one shootdown IPI per core).
    pub migrations: u64,
    /// Hardware TLB entries dropped by inter-core shootdowns.
    pub shootdown_invalidations: u64,
}

/// Per-process summary, read after the measured phase.
#[derive(Clone, Debug)]
pub struct ProcSummary {
    /// The process's workload abbreviation.
    pub workload: &'static str,
    /// Its address-space identifier.
    pub asid: Asid,
    /// Instructions retired during the measured phase.
    pub instructions: u64,
    /// Instructions per cycle over the measured phase.
    pub ipc: f64,
}

/// N cores, M processes, one shared LLC and frame allocator.
pub struct MultiCoreSystem {
    cores: Vec<System>,
    /// Parked processes; `None` while resident in a core.
    parked: Vec<Option<ProcessCtx>>,
    /// Which process each core currently holds.
    resident: Vec<usize>,
    scheduler: Scheduler,
    llc: Rc<RefCell<SharedLlc>>,
    alloc: Rc<RefCell<FrameAllocator>>,
    /// Cross-core event counters.
    pub stats: MultiCoreStats,
}

impl std::fmt::Debug for MultiCoreSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiCoreSystem")
            .field("cores", &self.cores.len())
            .field("procs", &self.parked.len())
            .finish()
    }
}

impl MultiCoreSystem {
    /// Builds `cores` cores sharing one LLC (L3 scaled to 2MB/core per
    /// Table 3) and one physical-memory pool, with one process per
    /// workload in `workloads` (slot `i` gets ASID `i + 1` and region
    /// placement seeded by [`slot_seed`]). The first N processes start
    /// resident on cores 0..N in slot order.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.mode` is native, `workloads.len() >= cores`, and
    /// the scheduler accepts the (M, N) pair (pinned needs M == N).
    pub fn new(
        cfg: &SystemConfig,
        workloads: Vec<Box<dyn Workload>>,
        cores: usize,
        sched: SchedConfig,
    ) -> Self {
        assert_eq!(cfg.mode, ExecMode::Native, "multi-core systems are native-mode");
        let procs = workloads.len();
        let scheduler = Scheduler::new(sched, procs, cores);

        // Shared backing: every process allocates frames from one pool.
        // Physical memory and the LLC both scale with the core count
        // (Table 3 provisions per core: the config's `phys_mem_bytes` and
        // 2MB of L3 are single-core figures).
        let pool = cfg.phys_mem_bytes * cores as u64;
        let alloc = Rc::new(RefCell::new(FrameAllocator::new(pool, cfg.seed)));
        let mut l3 = cfg.hierarchy.l3.clone();
        l3.size_bytes *= cores as u64;
        let llc = SharedLlc::shared(l3, cfg.hierarchy.dram.clone());

        let mut all_procs: Vec<ProcessCtx> = workloads
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                ProcessCtx::new_native(Asid::new((i + 1) as u16), w, &alloc, slot_seed(cfg.seed, i))
            })
            .collect();

        let mut parked: Vec<Option<ProcessCtx>> = Vec::with_capacity(procs);
        let mut core_systems = Vec::with_capacity(cores);
        // Cores 0..N take processes 0..N; the rest start parked.
        let rest = all_procs.split_off(cores);
        for proc in all_procs {
            core_systems.push(System::new_shared(cfg.clone(), proc, Rc::clone(&llc), &alloc));
            parked.push(None);
        }
        for proc in rest {
            parked.push(Some(proc));
        }

        Self {
            resident: (0..cores).collect(),
            cores: core_systems,
            parked,
            scheduler,
            llc,
            alloc,
            stats: MultiCoreStats::default(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of processes.
    pub fn num_procs(&self) -> usize {
        self.parked.len()
    }

    /// The shared LLC handle (inspection).
    pub fn llc(&self) -> &Rc<RefCell<SharedLlc>> {
        &self.llc
    }

    /// The cores (per-core `SimStats` live on each [`System`]).
    pub fn cores(&self) -> &[System] {
        &self.cores
    }

    /// Instructions process `p` has retired so far.
    fn retired(&self, p: usize) -> u64 {
        match &self.parked[p] {
            Some(ctx) => ctx.retired,
            None => {
                let core = self.resident.iter().position(|&r| r == p).expect("resident somewhere");
                self.cores[core].process().retired
            }
        }
    }

    /// Where process `p` currently lives: `Some(core)` or `None` (parked).
    fn residency(&self) -> Vec<Option<usize>> {
        let mut out = vec![None; self.parked.len()];
        for (core, &p) in self.resident.iter().enumerate() {
            out[p] = Some(core);
        }
        out
    }

    /// Makes process `p` resident on `core`, applying the context-switch
    /// policy to the core's TLB state first.
    fn make_resident(&mut self, core: usize, p: usize) {
        let old = self.resident[core];
        if old == p {
            return;
        }
        let sys = &mut self.cores[core];
        let outgoing_asid = sys.process().asid();
        match self.scheduler.config().policy {
            CtxSwitchPolicy::AsidTagged => {}
            CtxSwitchPolicy::AsidSelective => {
                sys.invalidate_asid(outgoing_asid);
            }
            CtxSwitchPolicy::FullFlush => sys.context_switch_flush(),
        }
        let mut incoming = self.parked[p].take().expect("picked process is parked");
        sys.swap_process(&mut incoming);
        self.parked[old] = Some(incoming);
        self.resident[core] = p;
        self.stats.context_switches += 1;
    }

    /// Runs every process for `instructions` further instructions, cores
    /// interleaved at quantum granularity in index order.
    pub fn run(&mut self, instructions: u64) {
        let quantum = self.scheduler.config().quantum;
        let targets: Vec<u64> = (0..self.num_procs()).map(|p| self.retired(p) + instructions).collect();
        loop {
            let finished: Vec<bool> = (0..self.num_procs()).map(|p| self.retired(p) >= targets[p]).collect();
            if finished.iter().all(|&f| f) {
                break;
            }
            let mut progressed = false;
            for core in 0..self.cores.len() {
                let residency = self.residency();
                let Some(p) = self.scheduler.pick(core, &finished, &residency) else {
                    continue;
                };
                if self.retired(p) >= targets[p] {
                    continue;
                }
                self.make_resident(core, p);
                let remaining = targets[p] - self.cores[core].process().retired;
                self.cores[core].run(remaining.min(quantum));
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Warm-up, statistics reset, then the measured phase — the multi-core
    /// analogue of [`System::run_with_warmup`]. Both budgets are
    /// *per process*.
    pub fn run_with_warmup(&mut self, warmup: u64, measured: u64) {
        self.run(warmup);
        self.reset_stats();
        self.run(measured);
        for core in &mut self.cores {
            core.finalize_stats();
        }
    }

    /// Clears per-core and cross-core statistics; cache, TLB and scheduler
    /// state stay warm.
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.reset_stats();
            core.process_mut().reset_counters();
        }
        for slot in self.parked.iter_mut().flatten() {
            slot.reset_counters();
        }
        self.stats = MultiCoreStats::default();
    }

    /// Migrates one 4KB page of process `p` to a fresh frame from the
    /// shared pool and broadcasts the shootdown to every core (the
    /// inter-core IPI protocol). Returns the new physical address.
    pub fn migrate_page(&mut self, p: usize, va: VirtAddr) -> PhysAddr {
        let (new_pa, asid) = match &mut self.parked[p] {
            Some(ctx) => (ctx.migrate_page(va), ctx.asid()),
            None => {
                let core = self.resident.iter().position(|&r| r == p).expect("resident somewhere");
                let proc = self.cores[core].process_mut();
                (proc.migrate_page(va), proc.asid())
            }
        };
        self.stats.migrations += 1;
        for core in &mut self.cores {
            self.stats.shootdown_invalidations += core.tlb_shootdown_asid(va, asid);
        }
        new_pa
    }

    /// Per-process summaries (measured phase), in slot order.
    pub fn proc_summaries(&self) -> Vec<ProcSummary> {
        let residency = self.residency();
        (0..self.num_procs())
            .map(|p| {
                let ctx = match residency[p] {
                    Some(core) => self.cores[core].process(),
                    None => self.parked[p].as_ref().expect("parked"),
                };
                ProcSummary {
                    workload: ctx.workload_name(),
                    asid: ctx.asid(),
                    instructions: ctx.retired,
                    ipc: ctx.ipc(),
                }
            })
            .collect()
    }

    /// Per-core statistics in core order (TLB MPKIs, walk latencies, …).
    pub fn core_stats(&self) -> Vec<&SimStats> {
        self.cores.iter().map(|c| &c.stats).collect()
    }

    /// Frames handed out from the shared pool (rough footprint gauge).
    pub fn frames_used(&self) -> u64 {
        self.alloc.borrow().frames_used()
    }
}

/// The outcome of one mix run (everything the Figs. 12–13 reports read).
#[derive(Clone, Debug)]
pub struct MixRunResult {
    /// The mix name.
    pub mix: &'static str,
    /// The config's display name.
    pub config_name: String,
    /// Per-process summaries in slot order.
    pub procs: Vec<ProcSummary>,
    /// Per-core statistics in core order.
    pub cores: Vec<SimStats>,
    /// Cross-core event counters.
    pub stats: MultiCoreStats,
}

/// Builds and runs one mix pinned one-process-per-core: the standard
/// Figs. 12–13 measurement. Budgets are per process; slot workloads are
/// seeded with [`slot_seed`] off `cfg.seed`. Deterministic: a pure
/// function of its arguments, safe to fan out on the engine's
/// [`map`](crate::SimEngine::map).
pub fn run_mix_pinned(
    cfg: &SystemConfig,
    mix: &Mix,
    scale: Scale,
    quantum: u64,
    warmup: u64,
    instructions: u64,
) -> MixRunResult {
    let seeds: Vec<u64> = (0..mix.width()).map(|i| slot_seed(cfg.seed, i)).collect();
    let workloads = mix.build(scale, &seeds);
    let mut sys = MultiCoreSystem::new(cfg, workloads, mix.width(), SchedConfig::pinned(quantum));
    sys.run_with_warmup(warmup, instructions);
    MixRunResult {
        mix: mix.name,
        config_name: cfg.name.clone(),
        procs: sys.proc_summaries(),
        cores: sys.core_stats().into_iter().cloned().collect(),
        stats: sys.stats,
    }
}
