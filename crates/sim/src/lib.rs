//! Full-system address-translation/timing simulator for the Victima
//! (MICRO 2023) reproduction.
//!
//! A [`System`] wires together one core's memory system — the two-level
//! TLB hierarchy, page-walk caches and hardware walker (`tlb-sim`), the
//! cache hierarchy and DRAM (`mem-sim`), real radix page tables
//! (`page-table`) and, depending on the configured
//! [`TranslationMechanism`], POM-TLB, a hardware L3 TLB, or Victima
//! (`victima`) — and drives it with a workload's memory-reference stream
//! (`workloads`). Both native execution and virtualised execution (nested
//! paging, ideal shadow paging) are supported (Sec. 8, Table 3).
//!
//! Sweeps — the paper's (workload × config) result matrices — run through
//! the parallel batch engine: build a `Vec` of [`RunSpec`]s and hand it
//! to a [`SimEngine`], which fans the runs out over `VICTIMA_JOBS`
//! workers and returns deterministic results in submission order.
//!
//! The multi-programmed evaluation (Figs. 12–13) instantiates several
//! cores over a shared LLC and frame pool: see [`MultiCoreSystem`], the
//! quantum [`Scheduler`] with its context-switch policies, and
//! [`multicore::run_mix_pinned`] (DESIGN.md, "Multi-core model").
//!
//! # Examples
//!
//! ```
//! use sim::{RunSpec, SimEngine, SystemConfig};
//! use workloads::Scale;
//!
//! let spec = RunSpec::new("RND", SystemConfig::victima(), Scale::Tiny, 20_000, 200_000);
//! let stats = SimEngine::run_one(0, &spec).stats;
//! assert!(stats.instructions >= 200_000);
//! assert!(stats.cycles() > 0);
//! ```

#![deny(missing_docs)]

pub mod ckpt;
pub mod config;
pub mod engine;
pub mod epochs;
pub mod multicore;
pub mod obs;
pub mod sampling;
pub mod scheduler;
pub mod stats;
pub mod system;
pub mod virt;

pub use config::{ExecMode, SystemConfig, TimingConfig, TranslationMechanism};
pub use engine::{suite_specs, RunResult, RunSpec, SimEngine, ENGINE_ID};
pub use epochs::EpochTracker;
pub use multicore::{slot_seed, MultiCoreStats, MultiCoreSystem, ProcSummary};
pub use obs::{ObsMode, SimMetrics};
pub use sampling::SamplingConfig;
pub use scheduler::{CtxSwitchPolicy, SchedConfig, SchedMode, Scheduler};
pub use stats::{weighted_speedup, SamplingMeta, SimStats};
pub use system::{ProcessCtx, System};
