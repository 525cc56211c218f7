//! GenomicsBench k-mer counting (the paper's **GEN**, Table 4: 33GB
//! dataset).
//!
//! The counting kernel slides a k-mer window along the input reads
//! (sequential, prefetch-friendly) and bumps a counter in a giant hash
//! table (random, TLB-hostile) — a half-streaming/half-random mix that
//! distinguishes it from pure GUPS.

use crate::{pc, RegionSpec, Scale, Sink, Tally, Workload};
use vm_types::{mix2, MemRef, SplitMix64, VirtAddr};

const READS_BYTES_TINY: u64 = 8 << 20; // ×16 = 128MB of reads
const HASH_BYTES_TINY: u64 = 24 << 20; // ×16 = 384MB hash table
const KMER: u64 = 31;
/// K-mers per batch.
const KMERS: u64 = 32;
/// Worst-case `(instructions, references)` of a batch: every k-mer
/// collides (read, bucket load and store, probe: gaps 3, 4, 1, 2).
const WORST_BATCH: (u64, u64) = (KMERS * 14, KMERS * 4);

/// The GEN workload.
pub struct Genomics {
    reads_bytes: u64,
    hash_bytes: u64,
    reads: VirtAddr,
    hash: VirtAddr,
    pos: u64,
    rolling: u64,
    rng: SplitMix64,
}

impl Genomics {
    /// Creates the workload.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            reads_bytes: READS_BYTES_TINY * scale.factor(),
            hash_bytes: HASH_BYTES_TINY * scale.factor(),
            reads: VirtAddr::new(0),
            hash: VirtAddr::new(0),
            pos: 0,
            rolling: seed,
            rng: SplitMix64::new(seed ^ 0x6e0e),
        }
    }
}

impl Workload for Genomics {
    fn name(&self) -> &'static str {
        "GEN"
    }

    fn region_specs(&self) -> Vec<RegionSpec> {
        vec![
            RegionSpec { name: "reads", bytes: self.reads_bytes, huge_fraction: 0.8 },
            RegionSpec { name: "hash_table", bytes: self.hash_bytes, huge_fraction: 0.15 },
        ]
    }

    fn init(&mut self, bases: &[VirtAddr]) {
        assert_eq!(bases.len(), 2, "GEN expects two regions");
        self.reads = bases[0];
        self.hash = bases[1];
    }

    fn fill(&mut self, out: &mut Vec<MemRef>) {
        self.batch(out);
    }

    fn advance(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        Tally::dry_run(max_instrs, max_refs, WORST_BATCH, |t| self.batch(t))
    }
}

impl Genomics {
    fn batch(&mut self, out: &mut impl Sink) {
        // One batch = 32 k-mers. The window advances 4 bases (1 byte of
        // 2-bit-packed sequence) per k-mer; reads are touched sequentially.
        for _ in 0..KMERS {
            out.push(MemRef::load(self.reads.add(self.pos % self.reads_bytes), pc(30), 3));
            self.pos += 1;
            // Rolling hash of the window (simulated with a mixer), then a
            // counter bump in the hash table: load + store one bucket.
            self.rolling = mix2(self.rolling, self.pos ^ KMER);
            let bucket = self.rolling % (self.hash_bytes / 16);
            let addr = self.hash.add(bucket * 16);
            out.push(MemRef::load(addr, pc(31), 4));
            out.push(MemRef::store(addr, pc(32), 1));
            // 1-in-16 k-mers collide and probe the next bucket.
            if self.rng.chance(1.0 / 16.0) {
                out.push(MemRef::load(self.hash.add((bucket * 16 + 16) % self.hash_bytes), pc(33), 2));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadStream;

    const READS_BASE: u64 = 0x10_0000_0000;
    const HASH_BASE: u64 = 0x20_0000_0000;

    fn stream() -> WorkloadStream {
        let mut w = Box::new(Genomics::new(Scale::Tiny, 4));
        w.init(&[VirtAddr::new(READS_BASE), VirtAddr::new(HASH_BASE)]);
        WorkloadStream::new(w)
    }

    #[test]
    fn reads_are_sequential_hash_is_random() {
        let mut s = stream();
        let mut read_addrs = Vec::new();
        let mut hash_pages = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let r = s.next_ref();
            if r.vaddr.raw() < HASH_BASE {
                read_addrs.push(r.vaddr.raw());
            } else {
                hash_pages.insert(r.vaddr.raw() >> 12);
            }
        }
        // Sequential reads advance monotonically byte by byte.
        assert!(read_addrs.windows(2).all(|w| w[1] == w[0] + 1));
        assert!(hash_pages.len() > 500, "hash updates must scatter, got {}", hash_pages.len());
    }

    #[test]
    fn stores_follow_loads_on_the_same_bucket() {
        let mut s = stream();
        let mut prev: Option<MemRef> = None;
        let mut pairs = 0;
        for _ in 0..1000 {
            let r = s.next_ref();
            if let Some(p) = prev {
                if r.kind.is_write() {
                    assert_eq!(r.vaddr, p.vaddr, "counter bump is a RMW");
                    pairs += 1;
                }
            }
            prev = Some(r);
        }
        assert!(pairs > 100);
    }

    #[test]
    fn footprint_is_dominated_by_hash_table() {
        let w = Genomics::new(Scale::Full, 4);
        let specs = w.region_specs();
        assert!(specs[1].bytes > specs[0].bytes);
    }
}
