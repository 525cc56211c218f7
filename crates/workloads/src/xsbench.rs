//! XSBench macroscopic cross-section lookup (the paper's **XS**, Table 4:
//! 9GB dataset).
//!
//! The unionized-energy-grid variant: each "particle history" draws a
//! random energy, binary-searches the unionized grid, then gathers
//! per-nuclide cross sections through the giant index grid — a classic
//! pointer-heavy, low-locality HPC pattern.

use crate::{pc, whole_batches, RegionSpec, Scale, Workload};
use vm_types::{MemRef, SplitMix64, VirtAddr};

const EGRID_POINTS_TINY: u64 = 1 << 18; // 256K points × 8B = 2MB
const NUCLIDES: u64 = 64;
const GRIDPOINTS_PER_NUCLIDE: u64 = 8192;
const XS_ENTRY_BYTES: u64 = 48; // 6 doubles per (nuclide, gridpoint)
const LOOKUPS_PER_HISTORY: u64 = 8; // nuclides gathered per lookup

/// The XS workload.
pub struct XsBench {
    egrid_points: u64,
    egrid: VirtAddr,
    index_grid: VirtAddr,
    nuclide_grids: VirtAddr,
    rng: SplitMix64,
}

impl XsBench {
    /// Creates the workload.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            egrid_points: EGRID_POINTS_TINY * scale.factor(),
            egrid: VirtAddr::new(0),
            index_grid: VirtAddr::new(0),
            nuclide_grids: VirtAddr::new(0),
            rng: SplitMix64::new(seed ^ 0x5bc4),
        }
    }

    fn index_grid_bytes(&self) -> u64 {
        // One 4-byte index per (energy point, nuclide).
        self.egrid_points * NUCLIDES * 4
    }
}

impl Workload for XsBench {
    fn name(&self) -> &'static str {
        "XS"
    }

    fn region_specs(&self) -> Vec<RegionSpec> {
        vec![
            RegionSpec { name: "egrid", bytes: self.egrid_points * 8, huge_fraction: 0.9 },
            RegionSpec { name: "index_grid", bytes: self.index_grid_bytes(), huge_fraction: 0.25 },
            RegionSpec {
                name: "nuclide_grids",
                bytes: NUCLIDES * GRIDPOINTS_PER_NUCLIDE * XS_ENTRY_BYTES,
                huge_fraction: 0.9,
            },
        ]
    }

    fn init(&mut self, bases: &[VirtAddr]) {
        assert_eq!(bases.len(), 3, "XSBench expects three regions");
        self.egrid = bases[0];
        self.index_grid = bases[1];
        self.nuclide_grids = bases[2];
    }

    fn fill(&mut self, out: &mut Vec<MemRef>) {
        // One particle history: binary search + NUCLIDES gathers.
        let target = self.rng.next_below(self.egrid_points);
        // Binary search over the unionized grid: log2(points) probes with
        // geometrically shrinking stride — poor spatial locality at the
        // start, converging to `target`.
        let mut lo = 0u64;
        let mut hi = self.egrid_points - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            out.push(MemRef::load(self.egrid.add(mid * 8), pc(10), 3));
            if mid < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Gather: for a subset of nuclides, read the index-grid entry for
        // this energy point, then two bracketing gridpoints of that
        // nuclide's table.
        for k in 0..LOOKUPS_PER_HISTORY {
            let nuclide = self.rng.next_below(NUCLIDES);
            let idx_addr = self.index_grid.add((target * NUCLIDES + nuclide) * 4);
            out.push(MemRef::load(idx_addr, pc(11), 4));
            let gp = vm_types::mix2(target, nuclide ^ k) % (GRIDPOINTS_PER_NUCLIDE - 1);
            let base = (nuclide * GRIDPOINTS_PER_NUCLIDE + gp) * XS_ENTRY_BYTES;
            out.push(MemRef::load(self.nuclide_grids.add(base), pc(12), 2));
            out.push(MemRef::load(self.nuclide_grids.add(base + XS_ENTRY_BYTES), pc(13), 6));
        }
    }

    fn advance(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        // Over a power-of-two grid every search halves its range exactly,
        // so each history makes log2(points) probes (gap 3) whatever its
        // target, then three gathers (gaps 4, 2, 6) per lookup; it draws
        // the target plus one nuclide per lookup. Other sizes (and an
        // empty grid, whose bound would skip the draw) take the default.
        if !self.egrid_points.is_power_of_two() {
            return (0, 0);
        }
        let probes = self.egrid_points.trailing_zeros() as u64;
        let batch = (probes * 4 + LOOKUPS_PER_HISTORY * 15, probes + LOOKUPS_PER_HISTORY * 3);
        let n = whole_batches(max_instrs, max_refs, batch);
        self.rng.skip_draws(n * (1 + LOOKUPS_PER_HISTORY));
        (n * batch.0, n * batch.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadStream;

    fn stream() -> (WorkloadStream, [u64; 3], [u64; 3]) {
        let mut w = Box::new(XsBench::new(Scale::Tiny, 2));
        let specs = w.region_specs();
        let bases = [0x10_0000_0000u64, 0x20_0000_0000, 0x30_0000_0000];
        let sizes = [specs[0].bytes, specs[1].bytes, specs[2].bytes];
        w.init(&[VirtAddr::new(bases[0]), VirtAddr::new(bases[1]), VirtAddr::new(bases[2])]);
        (WorkloadStream::new(w), bases, sizes)
    }

    #[test]
    fn all_accesses_fall_in_declared_regions() {
        let (mut s, bases, sizes) = stream();
        for _ in 0..20_000 {
            let r = s.next_ref();
            let va = r.vaddr.raw();
            let ok = bases.iter().zip(&sizes).any(|(&b, &sz)| va >= b && va < b + sz);
            assert!(ok, "stray access at {:#x}", va);
        }
    }

    #[test]
    fn index_grid_dominates_footprint() {
        let w = XsBench::new(Scale::Full, 2);
        let specs = w.region_specs();
        assert!(specs[1].bytes > specs[0].bytes);
        assert!(specs[1].bytes > specs[2].bytes);
        // Full-scale index grid is 4GB: 16M points × 64 nuclides × 4B.
        assert_eq!(specs[1].bytes, (EGRID_POINTS_TINY * 64) * NUCLIDES * 4);
    }

    #[test]
    fn histories_touch_many_index_pages() {
        let (mut s, bases, _) = stream();
        let mut pages = std::collections::HashSet::new();
        for _ in 0..30_000 {
            let r = s.next_ref();
            if r.vaddr.raw() >= bases[1] && r.vaddr.raw() < bases[2] {
                pages.insert(r.vaddr.raw() >> 12);
            }
        }
        assert!(pages.len() > 200, "index grid gathers should spread, got {}", pages.len());
    }

    #[test]
    fn binary_search_emits_log_probes() {
        let (mut s, bases, _) = stream();
        // Count egrid probes until the first index-grid access.
        let mut probes = 0;
        loop {
            let r = s.next_ref();
            if r.vaddr.raw() >= bases[1] {
                break;
            }
            probes += 1;
        }
        assert!((10..=20).contains(&probes), "expected ~log2(256K)=18 probes, got {probes}");
    }
}
