//! Breadth-first search (GraphBIG **BFS**).
//!
//! Frontier-queue BFS with a visited bitmap: offset loads, sequential edge
//! reads, and random visited-bit tests/sets. When a traversal exhausts its
//! component, a new root restarts it (the stream is infinite).

use super::{GraphCore, PropKind, EDGE_COST, OFFSETS_COST};
use crate::{pc, RegionSpec, Scale, Sink, Tally, Workload};
use vm_types::{MemRef, SplitMix64, VirtAddr};

const PROPS: [PropKind; 1] = [PropKind::Bit]; // visited bitmap
/// Frontier vertices expanded per batch.
const VERTICES: u64 = 4;

/// The BFS workload.
pub struct Bfs {
    core: GraphCore,
    specs: Vec<RegionSpec>,
    visited: Vec<u64>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    rng: SplitMix64,
}

impl Bfs {
    /// Creates the workload.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (core, specs, _) = GraphCore::new(scale, seed, &PROPS);
        let words = (core.graph.num_vertices() as usize).div_ceil(64);
        Self {
            core,
            specs,
            visited: vec![0; words],
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            rng: SplitMix64::new(seed ^ 0xbf5),
        }
    }

    fn restart(&mut self) {
        self.visited.iter_mut().for_each(|w| *w = 0);
        let root = self.rng.next_below(self.core.graph.num_vertices());
        self.mark(root);
        self.frontier.clear();
        self.next_frontier.clear();
        self.frontier.push(root as u32);
    }

    #[inline]
    fn is_visited(&self, v: u64) -> bool {
        self.visited[(v / 64) as usize] >> (v % 64) & 1 == 1
    }

    #[inline]
    fn mark(&mut self, v: u64) {
        self.visited[(v / 64) as usize] |= 1 << (v % 64);
    }
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn region_specs(&self) -> Vec<RegionSpec> {
        self.specs.clone()
    }

    fn init(&mut self, bases: &[VirtAddr]) {
        self.core.bind(bases, PROPS.len());
        self.restart();
    }

    fn fill(&mut self, out: &mut Vec<MemRef>) {
        self.batch(out);
    }

    fn advance(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        // Worst case: every vertex has the maximum degree and every
        // neighbour is unvisited (edge, bit load gap 1, bit store gap 0).
        let d = self.core.graph.max_degree();
        let per_vertex = (OFFSETS_COST.0 + d * (EDGE_COST.0 + 3), OFFSETS_COST.1 + d * (EDGE_COST.1 + 2));
        let worst = (VERTICES * per_vertex.0, VERTICES * per_vertex.1);
        Tally::dry_run(max_instrs, max_refs, worst, |t| self.batch(t))
    }
}

impl Bfs {
    fn batch(&mut self, out: &mut impl Sink) {
        // Process up to 4 frontier vertices per batch.
        for _ in 0..VERTICES {
            let v = loop {
                match self.frontier.pop() {
                    Some(v) => break v as u64,
                    None => {
                        if self.next_frontier.is_empty() {
                            self.restart();
                        } else {
                            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
                        }
                    }
                }
            };
            self.core.emit_offsets(v, 40, out);
            for i in 0..self.core.graph.degree(v) {
                let u = self.core.emit_edge(v, i, 41, out);
                out.push(MemRef::load(self.core.prop_bit(0, u), pc(42), 1));
                if !self.is_visited(u) {
                    self.mark(u);
                    out.push(MemRef::store(self.core.prop_bit(0, u), pc(43), 0));
                    self.next_frontier.push(u as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadStream;

    fn stream() -> (WorkloadStream, Vec<(u64, u64)>) {
        let mut w = Box::new(Bfs::new(Scale::Tiny, 5));
        let specs = w.region_specs();
        let mut bases = Vec::new();
        let mut ranges = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let b = 0x10_0000_0000 + i as u64 * 0x4_0000_0000;
            bases.push(VirtAddr::new(b));
            ranges.push((b, s.bytes));
        }
        w.init(&bases);
        (WorkloadStream::new(w), ranges)
    }

    #[test]
    fn emits_only_mapped_addresses() {
        let (mut s, ranges) = stream();
        for _ in 0..50_000 {
            let r = s.next_ref();
            assert!(
                ranges.iter().any(|&(b, sz)| r.vaddr.raw() >= b && r.vaddr.raw() < b + sz),
                "stray access {:#x}",
                r.vaddr.raw()
            );
        }
    }

    #[test]
    fn traversal_visits_many_distinct_vertices() {
        let (mut s, ranges) = stream();
        let (bitmap_base, _) = ranges[2];
        let mut bytes = std::collections::HashSet::new();
        for _ in 0..100_000 {
            let r = s.next_ref();
            if r.vaddr.raw() >= bitmap_base {
                bytes.insert(r.vaddr.raw());
            }
        }
        assert!(bytes.len() > 1000, "visited-bit traffic should spread, got {}", bytes.len());
    }

    #[test]
    fn stream_survives_component_exhaustion() {
        let (mut s, _) = stream();
        // Just drain a lot; restarts must keep the stream infinite.
        for _ in 0..200_000 {
            s.next_ref();
        }
    }

    #[test]
    fn stores_are_a_minority() {
        let (mut s, _) = stream();
        let stores = (0..50_000).filter(|_| s.next_ref().kind.is_write()).count();
        assert!(stores > 0);
        assert!(stores < 25_000);
    }
}
