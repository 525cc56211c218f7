//! Four-level radix page tables, physical frame allocation and the OS
//! mapping layer for the Victima (MICRO 2023) reproduction.
//!
//! Page tables here are *real* data structures: every table occupies a
//! simulated 4KB physical frame, and every PTE has a physical address, so
//! the hardware page-table walker in `tlb-sim` can issue genuine cache
//! hierarchy accesses for each level of the walk — which is what Victima's
//! block transformation (leaf PTE cluster → TLB block) depends on.
//!
//! PTEs embed the paper's two predictor counters in their ignored bits:
//! a 3-bit page-table-walk frequency counter and a 4-bit PTW cost counter
//! (Sec. 5.2, Fig. 15).
//!
//! # Examples
//!
//! ```
//! use page_table::{FrameAllocator, RadixPageTable};
//! use vm_types::{PageSize, PhysAddr, VirtAddr};
//!
//! let mut alloc = FrameAllocator::new(1 << 30, 42);
//! let mut pt = RadixPageTable::new(&mut alloc);
//! let frame = alloc.alloc_4k();
//! pt.map(VirtAddr::new(0x4000_0000), frame, PageSize::Size4K, &mut alloc);
//! let walk = pt.walk(VirtAddr::new(0x4000_0123)).expect("mapped");
//! assert_eq!(walk.steps().len(), 4); // PML4 → PDPT → PD → PT
//! assert_eq!(walk.output(VirtAddr::new(0x4000_0123)).page_offset(PageSize::Size4K), 0x123);
//! ```

pub mod frame_alloc;
pub mod nested;
pub mod process;
pub mod pte;
pub mod radix;

pub use frame_alloc::FrameAllocator;
pub use nested::NestedMemory;
pub use process::{AddressSpace, MappedRegion};
pub use pte::Pte;
pub use radix::{RadixPageTable, Walk, WalkStep, PTE_BYTES, TABLE_ENTRIES};
