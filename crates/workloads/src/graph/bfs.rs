//! Breadth-first search (GraphBIG **BFS**).
//!
//! Frontier-queue BFS with a visited bitmap: offset loads, sequential edge
//! reads, and random visited-bit tests/sets. When a traversal exhausts its
//! component, a new root restarts it (the stream is infinite).
//!
//! One kernel, `Search::expand`, expands a frontier vertex for both
//! `fill` and the dry `advance`, so there is no second traversal to keep
//! in step. The neighbour hash key and mask (`ProcGraph::neighbors`), the
//! degree and the visited slice are set up outside its edge loop. The
//! loop tests and sets each neighbour's visited bit and appends fresh
//! neighbours to the next frontier without a branch: every neighbour is
//! written to the next free slot, and the slot advances only past a
//! fresh one. Each edge then goes to a callback. `fill`'s emits the edge
//! load, the bit load and, for a fresh neighbour, the bit store, in slot
//! order. `advance` passes an empty one and counts each vertex in closed
//! form (`vertex_cost`): degree `d` with `fresh` newly visited neighbours
//! is `4 + 4d + fresh` instructions and `2 + 2d + fresh` references, a
//! rule `fill` checks in debug builds.

use super::{GraphCore, ProcGraph, PropKind, EDGE_COST, OFFSETS_COST};
use crate::{pc, RegionSpec, Scale, Workload};
use vm_types::{MemRef, SplitMix64, VirtAddr};

const PROPS: [PropKind; 1] = [PropKind::Bit]; // visited bitmap
/// Frontier vertices expanded per batch.
const VERTICES: u64 = 4;

/// `(instructions, references)` `fill` emits for a vertex of degree `d`
/// with `fresh` unvisited neighbours: its offsets, an edge load and a bit
/// load (gap 1) per edge, and a bit store (gap 0) per fresh neighbour.
const fn vertex_cost(d: u64, fresh: u64) -> (u64, u64) {
    (OFFSETS_COST.0 + d * (EDGE_COST.0 + 2) + fresh, OFFSETS_COST.1 + d * (EDGE_COST.1 + 1) + fresh)
}

/// The traversal state: the visited bitmap, the current and next
/// frontier levels, and the RNG that draws restart roots.
struct Search {
    visited: Vec<u64>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    rng: SplitMix64,
}

impl Search {
    /// Clears the bitmap and starts a traversal from a random root.
    fn restart(&mut self, graph: &ProcGraph) {
        self.visited.iter_mut().for_each(|w| *w = 0);
        let root = self.rng.next_below(graph.num_vertices());
        self.visited[(root / 64) as usize] |= 1 << (root % 64);
        self.frontier.clear();
        self.next.clear();
        self.frontier.push(root as u32);
    }

    /// Pops the next frontier vertex, moving to the next level or
    /// restarting from a new root when the traversal runs dry.
    fn next_vertex(&mut self, graph: &ProcGraph) -> u64 {
        loop {
            match self.frontier.pop() {
                Some(v) => return v as u64,
                None if self.next.is_empty() => self.restart(graph),
                None => std::mem::swap(&mut self.frontier, &mut self.next),
            }
        }
    }

    /// The expansion kernel: in slot order, tests and sets each of `v`'s
    /// neighbours' visited bits, appends the fresh ones to the next
    /// level, and calls `edge(slot, neighbour, fresh)`. Returns `v`'s
    /// degree and fresh count.
    #[inline(always)]
    fn expand(&mut self, graph: &ProcGraph, v: u64, mut edge: impl FnMut(u64, u64, bool)) -> (u64, u64) {
        let (d, base) = (graph.degree(v), self.next.len());
        // Write every neighbour into a slot and advance past fresh ones only.
        self.next.resize(base + d as usize, 0);
        let (visited, slots) = (&mut self.visited[..], &mut self.next[base..]);
        let mut fresh = 0;
        for (i, u) in graph.neighbors(v).enumerate() {
            let (word, bit) = (&mut visited[(u / 64) as usize], 1 << (u % 64));
            let new = *word & bit == 0;
            *word |= bit;
            slots[fresh] = u as u32;
            fresh += new as usize;
            edge(i as u64, u, new);
        }
        self.next.truncate(base + fresh);
        (d, fresh as u64)
    }
}

/// The BFS workload.
pub struct Bfs {
    core: GraphCore,
    specs: Vec<RegionSpec>,
    search: Search,
}

impl Bfs {
    /// Creates the workload.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (core, specs, _) = GraphCore::new(scale, seed, &PROPS);
        let words = (core.graph.num_vertices() as usize).div_ceil(64);
        let search = Search {
            visited: vec![0; words],
            frontier: Vec::new(),
            next: Vec::new(),
            rng: SplitMix64::new(seed ^ 0xbf5),
        };
        Self { core, specs, search }
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
        self.search.restart(&self.core.graph);
    }

    fn fill(&mut self, out: &mut Vec<MemRef>) {
        let core = &self.core;
        for _ in 0..VERTICES {
            let v = self.search.next_vertex(&core.graph);
            let start = out.len();
            core.emit_offsets(v, 40, out);
            let first_slot = core.graph.edge_offset(v);
            let (d, fresh) = self.search.expand(&core.graph, v, |i, u, new| {
                core.emit_edge_slot(first_slot + i, 41, out);
                out.push(MemRef::load(core.prop_bit(0, u), pc(42), 1));
                if new {
                    out.push(MemRef::store(core.prop_bit(0, u), pc(43), 0));
                }
            });
            debug_assert_eq!(
                vertex_cost(d, fresh),
                (out[start..].iter().map(|r| r.instructions()).sum(), (out.len() - start) as u64),
                "closed-form cost of vertex {v}"
            );
        }
    }

    fn advance(&mut self, max_instrs: u64, max_refs: u64) -> (u64, u64) {
        // Whole batches while a worst-case one fits: every vertex of the
        // maximum degree and every neighbour fresh.
        let graph = &self.core.graph;
        let worst = vertex_cost(graph.max_degree(), graph.max_degree());
        let (mut instrs, mut refs) = (0u64, 0u64);
        while instrs + VERTICES * worst.0 <= max_instrs && refs + VERTICES * worst.1 <= max_refs {
            for _ in 0..VERTICES {
                let v = self.search.next_vertex(graph);
                let (d, fresh) = self.search.expand(graph, v, |_, _, _| {});
                let cost = vertex_cost(d, fresh);
                instrs += cost.0;
                refs += cost.1;
            }
        }
        (instrs, refs)
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
