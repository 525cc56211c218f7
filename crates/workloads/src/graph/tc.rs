//! Triangle counting (GraphBIG **TC**).
//!
//! For each vertex `v` in order, TC reads `v`'s offsets and its (capped)
//! adjacency list, then for every neighbour `u > v` reads `u`'s offsets
//! and its (capped) adjacency list — the access skeleton of a merge-based
//! intersection. Almost entirely sequential edge-array reads from two
//! cursors: the most cache/prefetch-friendly of the graph kernels, giving
//! the suite its locality spread. The intersection itself is not
//! modelled: which neighbours match never changes the emitted stream, so
//! the generator's only state is its vertex cursor.

use super::{GraphCore, PropKind, EDGE_COST, OFFSETS_COST};
use crate::{RegionSpec, Scale, Sink, Tally, Workload};
use vm_types::{MemRef, VirtAddr};

const PROPS: [PropKind; 0] = [];
/// Cap on list lengths considered per intersection, keeping per-vertex
/// work bounded on power-law hubs (real TC implementations orient edges
/// for the same reason).
const CAP: u64 = 16;
/// `(instructions, references)` of reading one capped adjacency list.
const LIST_COST: (u64, u64) = (OFFSETS_COST.0 + CAP * EDGE_COST.0, OFFSETS_COST.1 + CAP * EDGE_COST.1);
/// Worst-case batch: `v`'s list plus one list per neighbour.
const WORST_BATCH: (u64, u64) = ((1 + CAP) * LIST_COST.0, (1 + CAP) * LIST_COST.1);

/// The TC workload.
pub struct TriangleCount {
    core: GraphCore,
    specs: Vec<RegionSpec>,
    cursor: u64,
}

impl TriangleCount {
    /// Creates the workload.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (core, specs, _) = GraphCore::new(scale, seed, &PROPS);
        Self { core, specs, cursor: 0 }
    }
}

impl Workload for TriangleCount {
    fn name(&self) -> &'static str {
        "TC"
    }

    fn region_specs(&self) -> Vec<RegionSpec> {
        self.specs.clone()
    }

    fn init(&mut self, bases: &[VirtAddr]) {
        self.core.bind(bases, PROPS.len());
    }

    fn fill(&mut self, out: &mut Vec<MemRef>) {
        self.batch(out);
    }

    fn advance(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        Tally::dry_run(max_instrs, max_refs, WORST_BATCH, |t| self.batch(t))
    }
}

impl TriangleCount {
    fn batch(&mut self, out: &mut impl Sink) {
        let (core, graph) = (&self.core, &self.core.graph);
        let v = self.cursor % graph.num_vertices();
        self.cursor += 1;
        core.emit_offsets(v, 110, out);
        let dv = graph.degree(v).min(CAP);
        for i in 0..dv {
            core.emit_edge(v, i, 111, out);
        }
        for i in 0..dv {
            let u = graph.neighbor(v, i);
            if u > v {
                core.emit_offsets(u, 112, out);
                for j in 0..graph.degree(u).min(CAP) {
                    core.emit_edge(u, j, 113, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadStream;

    fn make() -> TriangleCount {
        let mut w = TriangleCount::new(Scale::Tiny, 17);
        let specs = w.region_specs();
        let bases: Vec<VirtAddr> =
            (0..specs.len()).map(|i| VirtAddr::new(0x10_0000_0000 + i as u64 * 0x4_0000_0000)).collect();
        w.init(&bases);
        w
    }

    #[test]
    fn only_offsets_and_edges_regions() {
        let w = TriangleCount::new(Scale::Tiny, 17);
        assert_eq!(w.region_specs().len(), 2);
    }

    #[test]
    fn emits_no_stores() {
        let mut s = WorkloadStream::new(Box::new(make()));
        for _ in 0..50_000 {
            assert!(!s.next_ref().kind.is_write());
        }
    }

    #[test]
    fn edge_reads_are_mostly_sequential() {
        let mut s = WorkloadStream::new(Box::new(make()));
        let edges_base = 0x14_0000_0000u64;
        let mut prev = None;
        let (mut seq, mut total) = (0u64, 0u64);
        for _ in 0..100_000 {
            let r = s.next_ref();
            if r.vaddr.raw() >= edges_base {
                if let Some(p) = prev {
                    total += 1;
                    if r.vaddr.raw() == p + 8 {
                        seq += 1;
                    }
                }
                prev = Some(r.vaddr.raw());
            } else {
                prev = None;
            }
        }
        assert!(seq as f64 > total as f64 * 0.5, "TC reads lists sequentially: {seq}/{total}");
    }
}
