//! GUPS random access (the paper's **RND**, Table 4: 10GB dataset).
//!
//! The HPCC RandomAccess kernel: read-modify-write updates at uniformly
//! random 8-byte words of a giant table. The canonical worst case for TLB
//! reach — essentially every update touches a new page.

use crate::{pc, whole_batches, RegionSpec, Scale, Workload};
use vm_types::{MemRef, SplitMix64, VirtAddr};

/// Base table size at [`Scale::Tiny`]; ×16 at Full (512MB).
const TABLE_BYTES_TINY: u64 = 48 << 20;
/// Updates per batch: one draw, a load (gap 5) and a store (gap 1) each.
const UPDATES: u64 = 64;
/// `(instructions, references)` of every batch.
const BATCH: (u64, u64) = (UPDATES * 8, UPDATES * 2);

/// The RND workload.
pub struct Gups {
    table_bytes: u64,
    base: VirtAddr,
    rng: SplitMix64,
}

impl Gups {
    /// Creates the workload.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            table_bytes: TABLE_BYTES_TINY * scale.factor(),
            base: VirtAddr::new(0),
            rng: SplitMix64::new(seed ^ 0x6075),
        }
    }
}

impl Workload for Gups {
    fn name(&self) -> &'static str {
        "RND"
    }

    fn region_specs(&self) -> Vec<RegionSpec> {
        vec![RegionSpec { name: "table", bytes: self.table_bytes, huge_fraction: 0.3 }]
    }

    fn init(&mut self, bases: &[VirtAddr]) {
        assert_eq!(bases.len(), 1, "GUPS expects one region");
        self.base = bases[0];
    }

    fn fill(&mut self, out: &mut Vec<MemRef>) {
        // One batch = 64 updates. Each update: load the word, xor it,
        // store it back (the store hits the same page as the load).
        for _ in 0..UPDATES {
            let word = self.rng.next_below(self.table_bytes / 8);
            let addr = self.base.add(word * 8);
            out.push(MemRef::load(addr, pc(0), 5));
            out.push(MemRef::store(addr, pc(1), 1));
        }
    }

    fn advance(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        let n = whole_batches(max_instrs, max_refs, BATCH);
        self.rng.skip_draws(n * UPDATES);
        (n * BATCH.0, n * BATCH.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadStream;

    fn stream() -> WorkloadStream {
        let mut w = Box::new(Gups::new(Scale::Tiny, 1));
        w.init(&[VirtAddr::new(0x10_0000_0000)]);
        WorkloadStream::new(w)
    }

    #[test]
    fn accesses_stay_in_region() {
        let mut s = stream();
        for _ in 0..10_000 {
            let r = s.next_ref();
            let off = r.vaddr.raw() - 0x10_0000_0000;
            assert!(off < TABLE_BYTES_TINY);
        }
    }

    #[test]
    fn loads_and_stores_pair_up() {
        let mut s = stream();
        let a = s.next_ref();
        let b = s.next_ref();
        assert!(!a.kind.is_write());
        assert!(b.kind.is_write());
        assert_eq!(a.vaddr, b.vaddr, "read-modify-write targets one word");
    }

    #[test]
    fn addresses_are_spread_over_many_pages() {
        let mut s = stream();
        let mut pages = std::collections::HashSet::new();
        for _ in 0..4000 {
            pages.insert(s.next_ref().vaddr.raw() >> 12);
        }
        assert!(pages.len() > 1000, "GUPS must thrash pages, got {}", pages.len());
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = stream();
        let mut b = stream();
        for _ in 0..100 {
            assert_eq!(a.next_ref(), b.next_ref());
        }
    }
}
