//! TLBs, page-walk caches, the hardware page-table walker and the POM-TLB
//! baseline for the Victima (MICRO 2023) reproduction.
//!
//! This crate provides the MMU *components* (Fig. 2 of the paper); the
//! full translation flows — native, virtualised nested paging, shadow
//! paging, POM-TLB and Victima — are composed from these parts by the
//! `sim` crate.
//!
//! # Examples
//!
//! ```
//! use tlb_sim::{SetAssocTlb, TlbConfig, TlbEntry};
//! use vm_types::{Asid, PageSize};
//!
//! let mut tlb = SetAssocTlb::new(TlbConfig::l2_unified(1536, 12));
//! let entry = TlbEntry::new(0x1234, Asid::new(1), PageSize::Size4K, 0x5678);
//! tlb.fill(entry);
//! assert!(tlb.probe(0x1234, Asid::new(1), PageSize::Size4K).is_some());
//! ```

pub mod configs;
pub mod pom;
pub mod pwc;
pub mod tlb;
pub mod walker;

pub use configs::MmuConfig;
pub use pom::{PomTlb, PomTlbConfig};
pub use pwc::PageWalkCaches;
pub use tlb::{SetAssocTlb, TlbConfig, TlbEntry};
pub use walker::{PageTableWalker, WalkEnv, WalkOutcome};
