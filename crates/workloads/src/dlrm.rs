//! DLRM sparse-length-sum (the paper's **DLRM**, Table 4: 10.3GB dataset).
//!
//! The embedding-lookup kernel of deep recommendation models: for each
//! input sample, gather `POOLING` random rows from each of several large
//! embedding tables and sum them. Rows are contiguous (one or two cache
//! blocks) but row *selection* is essentially random — high TLB pressure
//! with short bursts of spatial locality.

use crate::{pc, whole_batches, RegionSpec, Scale, Workload};
use vm_types::{MemRef, SplitMix64, VirtAddr};

const TABLES: u64 = 8;
const ROWS_PER_TABLE_TINY: u64 = 64 << 10; // ×16 at Full = 1M rows
const ROW_BYTES: u64 = 64; // 16 × f32 embedding vector
const POOLING: u64 = 32; // rows gathered per (sample, table)
/// Lookups per batch (one sample): two draws, an index load (gap 2) and
/// a row load (gap 3) each.
const LOOKUPS: u64 = TABLES * POOLING;
/// `(instructions, references)` of every batch.
const BATCH: (u64, u64) = (LOOKUPS * 7, LOOKUPS * 2);

/// The DLRM workload.
pub struct Dlrm {
    rows_per_table: u64,
    tables: Vec<VirtAddr>,
    indices: VirtAddr,
    cursor: u64,
    rng: SplitMix64,
}

impl Dlrm {
    /// Creates the workload.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            rows_per_table: ROWS_PER_TABLE_TINY * scale.factor(),
            tables: Vec::new(),
            indices: VirtAddr::new(0),
            cursor: 0,
            rng: SplitMix64::new(seed ^ 0xd12a),
        }
    }

    fn table_bytes(&self) -> u64 {
        self.rows_per_table * ROW_BYTES
    }
}

const INDICES_BYTES: u64 = 8 << 20;

impl Workload for Dlrm {
    fn name(&self) -> &'static str {
        "DLRM"
    }

    fn region_specs(&self) -> Vec<RegionSpec> {
        let mut specs: Vec<RegionSpec> = (0..TABLES)
            .map(|_| RegionSpec { name: "embedding_table", bytes: self.table_bytes(), huge_fraction: 0.4 })
            .collect();
        specs.push(RegionSpec { name: "indices", bytes: INDICES_BYTES, huge_fraction: 0.0 });
        specs
    }

    fn init(&mut self, bases: &[VirtAddr]) {
        assert_eq!(bases.len(), TABLES as usize + 1, "DLRM expects {} regions", TABLES + 1);
        self.tables = bases[..TABLES as usize].to_vec();
        self.indices = bases[TABLES as usize];
    }

    fn fill(&mut self, out: &mut Vec<MemRef>) {
        // One sample: stream the index list, then gather from each table.
        for t in 0..TABLES {
            for j in 0..POOLING {
                // Sequential read of the sparse index list.
                let idx_off = (self.cursor + t * POOLING + j) * 4 % INDICES_BYTES;
                out.push(MemRef::load(self.indices.add(idx_off), pc(20), 2));
                // Skewed row popularity: 20% of lookups hit a hot head of
                // the table (recommendation traffic is Zipfian).
                let row = if self.rng.chance(0.2) {
                    self.rng.next_below(self.rows_per_table / 64)
                } else {
                    self.rng.next_below(self.rows_per_table)
                };
                let row_base = self.tables[t as usize].add(row * ROW_BYTES);
                out.push(MemRef::load(row_base, pc(21 + t as u32), 3));
            }
        }
        self.cursor += LOOKUPS;
    }

    fn advance(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        // A zero hot-head bound would make `next_below` skip its draw.
        if self.rows_per_table / 64 == 0 {
            return (0, 0);
        }
        let n = whole_batches(max_instrs, max_refs, BATCH);
        self.rng.skip_draws(n * LOOKUPS * 2);
        self.cursor += n * LOOKUPS;
        (n * BATCH.0, n * BATCH.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadStream;

    fn make() -> (WorkloadStream, Vec<(u64, u64)>) {
        let mut w = Box::new(Dlrm::new(Scale::Tiny, 3));
        let specs = w.region_specs();
        let mut bases = Vec::new();
        let mut ranges = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let b = 0x10_0000_0000 + (i as u64) * 0x1_0000_0000;
            bases.push(VirtAddr::new(b));
            ranges.push((b, s.bytes));
        }
        w.init(&bases);
        (WorkloadStream::new(w), ranges)
    }

    #[test]
    fn region_count_is_tables_plus_indices() {
        let w = Dlrm::new(Scale::Tiny, 3);
        assert_eq!(w.region_specs().len(), 9);
    }

    #[test]
    fn accesses_fall_in_regions() {
        let (mut s, ranges) = make();
        for _ in 0..20_000 {
            let r = s.next_ref();
            let va = r.vaddr.raw();
            assert!(ranges.iter().any(|&(b, sz)| va >= b && va < b + sz), "stray access at {va:#x}");
        }
    }

    #[test]
    fn gathers_alternate_index_then_row() {
        let (mut s, ranges) = make();
        let (idx_base, _) = *ranges.last().unwrap();
        let a = s.next_ref();
        let b = s.next_ref();
        assert!(a.vaddr.raw() >= idx_base, "first access reads the index list");
        assert!(b.vaddr.raw() < idx_base, "second access gathers a row");
    }

    #[test]
    fn row_popularity_is_skewed() {
        let (mut s, ranges) = make();
        let (t0, t0_bytes) = ranges[0];
        let head = t0 + t0_bytes / 64;
        let (mut head_hits, mut total) = (0u64, 0u64);
        for _ in 0..100_000 {
            let r = s.next_ref();
            if r.vaddr.raw() >= t0 && r.vaddr.raw() < t0 + t0_bytes {
                total += 1;
                if r.vaddr.raw() < head {
                    head_hits += 1;
                }
            }
        }
        assert!(total > 100);
        let frac = head_hits as f64 / total as f64;
        assert!(frac > 0.15, "hot head should capture ≳20% of gathers, got {frac:.2}");
    }
}
