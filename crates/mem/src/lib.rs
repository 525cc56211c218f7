//! Cache hierarchy, prefetchers and DRAM model for the Victima (MICRO 2023)
//! reproduction.
//!
//! The centrepiece is a set-associative [`Cache`] whose blocks are *typed*
//! ([`BlockKind`]): ordinary data blocks are indexed by physical address,
//! while Victima repurposes L2 blocks as TLB blocks indexed by virtual page
//! number (the tag/set math for those lives in the `victima` crate; this
//! crate provides the kind-aware storage, replacement and statistics).
//!
//! The per-access hot path scans packed parallel tag arrays (one presence
//! word per way, see [`block`]) and dispatches replacement through the
//! [`Policy`] enum — LRU, SRRIP, and the paper's TLB-aware SRRIP
//! (Listing 1) — statically, over packed per-set victim metadata. See
//! DESIGN.md, "Hot path & performance model".
//!
//! # Examples
//!
//! ```
//! use mem_sim::{Hierarchy, HierarchyConfig, MemClass, ReplacementCtx};
//! use vm_types::PhysAddr;
//!
//! let mut hier = Hierarchy::new(HierarchyConfig::default());
//! let ctx = ReplacementCtx::default();
//! let first = hier.access(PhysAddr::new(0x4000), false, MemClass::Data, &ctx);
//! let second = hier.access(PhysAddr::new(0x4000), false, MemClass::Data, &ctx);
//! assert!(second.latency < first.latency, "second access should hit in L1");
//! ```

pub mod block;
pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod prefetch;
pub mod replacement;

pub use block::{BlockKind, CacheBlock};
pub use cache::{Cache, CacheConfig, CacheStats, EvictedBlock};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{AccessResult, Hierarchy, HierarchyConfig, MemClass, MemLevel, SharedLlc};
pub use prefetch::{IpStridePrefetcher, StreamPrefetcher};
pub use replacement::{Policy, ReplacementCtx, RRIP_INSERT, RRIP_MAX};
