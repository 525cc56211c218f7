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
//!
//! The two frontier levels (`Levels`) are lists of fixed-size chunks
//! carved from one arena `Vec<u32>` with a free list. A chunk that
//! popping empties goes on the free list, and the next level's next
//! chunk reuses it; the arena grows by a chunk only when the free list
//! is empty. Frontier memory then follows the live levels instead of
//! keeping every page either level ever touched (a Paper-scale level
//! swings between a few hundred thousand and a few million vertices).
//! The kernel reserves `d` contiguous slots per vertex, opening a new
//! chunk when the tail chunk has fewer left, so a chunk must hold the
//! graph's maximum degree. Chunks hold `max(V/256, 1024, max degree)`
//! entries: 64K at Paper scale, 4K at Small. One arena rather than one
//! `Vec` per chunk: each chunk-sized block would be its own mapping,
//! and freeing them leaves glibc's dynamic mmap threshold at the chunk
//! size, so later multi-MB allocations (page tables among them) would be
//! mapped and faulted in afresh for every spec instead of reusing the
//! warm heap. Pop order is the two-`Vec` order: last pushed, first
//! popped, level by level.

use super::{GraphCore, ProcGraph, PropKind, EDGE_COST, OFFSETS_COST};
use crate::{pc, RegionSpec, Scale, Workload};
use vm_types::{MemRef, SplitMix64, VirtAddr};

const PROPS: [PropKind; 1] = [PropKind::Bit]; // visited bitmap
/// Frontier vertices expanded per batch.
const VERTICES: u64 = 4;
/// Frontier chunk size floor, in entries (4 KB).
const MIN_CHUNK: usize = 1024;

/// `(instructions, references)` `fill` emits for a vertex of degree `d`
/// with `fresh` unvisited neighbours: its offsets, an edge load and a bit
/// load (gap 1) per edge, and a bit store (gap 0) per fresh neighbour.
const fn vertex_cost(d: u64, fresh: u64) -> (u64, u64) {
    (OFFSETS_COST.0 + d * (EDGE_COST.0 + 2) + fresh, OFFSETS_COST.1 + d * (EDGE_COST.1 + 1) + fresh)
}

/// The current and next frontier levels, each a list of `(arena offset,
/// entries)` chunks in push order, all carved from one arena.
struct Levels {
    arena: Vec<u32>,
    /// Entries per chunk.
    chunk: usize,
    /// Arena offsets of unused chunks.
    free: Vec<usize>,
    cur: Vec<(usize, usize)>,
    next: Vec<(usize, usize)>,
}

impl Levels {
    /// Empty levels of `chunk`-entry chunks for reservations of at most
    /// `max_reserve` slots and at most `max_live` live entries.
    ///
    /// The chunk lists get room up front for the most chunks that many
    /// entries can hold (every chunk but the two levels' tails keeps at
    /// least `chunk - max_reserve + 1`), so only the arena ever grows.
    fn new(chunk: usize, max_reserve: usize, max_live: usize) -> Self {
        assert!(chunk >= max_reserve.max(1), "a {chunk}-entry chunk cannot hold {max_reserve} slots");
        let chunks = max_live.div_ceil(chunk - max_reserve.max(1) + 1) + 2;
        Self {
            arena: Vec::new(),
            chunk,
            free: Vec::with_capacity(chunks),
            cur: Vec::with_capacity(chunks),
            next: Vec::with_capacity(chunks),
        }
    }

    /// A free chunk's offset, growing the arena by one chunk when none is
    /// free.
    fn take_chunk(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            let at = self.arena.len();
            self.arena.resize(at + self.chunk, 0);
            at
        })
    }

    /// Frees both levels' chunks and makes `root` the current level.
    fn reset(&mut self, root: u32) {
        self.free.extend(self.cur.drain(..).chain(self.next.drain(..)).map(|(at, _)| at));
        let at = self.take_chunk();
        self.arena[at] = root;
        self.cur.push((at, 1));
    }

    /// Pops the current level's last entry, freeing its chunk when that
    /// empties it.
    #[inline]
    fn pop(&mut self) -> Option<u32> {
        let (at, len) = self.cur.last_mut()?;
        *len -= 1;
        let v = self.arena[*at + *len];
        if *len == 0 {
            self.free.push(*at);
            self.cur.pop();
        }
        Some(v)
    }

    /// Makes the next level current once the current one is empty.
    /// Returns false, changing nothing, when the next level is empty too.
    fn swap(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        // Only the tail can be empty: a chunk is opened with room for the
        // reservation that opened it, so an empty one never gets a successor.
        if let Some(&(at, 0)) = self.next.last() {
            self.free.push(at);
            self.next.pop();
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        !self.cur.is_empty()
    }

    /// The arena offset of `d` contiguous slots at the next level's tail,
    /// opening a new chunk when the tail chunk has fewer left.
    #[inline]
    fn reserve(&mut self, d: usize) -> usize {
        debug_assert!(d <= self.chunk, "{d} slots exceed a {}-entry chunk", self.chunk);
        match self.next.last() {
            Some(&(at, len)) if len + d <= self.chunk => at + len,
            _ => {
                let at = self.take_chunk();
                self.next.push((at, 0));
                at
            }
        }
    }

    /// Keeps the first `n` slots of the last reservation.
    #[inline]
    fn commit(&mut self, n: usize) {
        if let Some((_, len)) = self.next.last_mut() {
            *len += n;
        }
    }
}

/// The traversal state: the visited bitmap, the two frontier levels, and
/// the RNG that draws restart roots.
struct Search {
    visited: Vec<u64>,
    levels: Levels,
    rng: SplitMix64,
}

impl Search {
    /// Clears the bitmap and starts a traversal from a random root.
    fn restart(&mut self, graph: &ProcGraph) {
        self.visited.iter_mut().for_each(|w| *w = 0);
        let root = self.rng.next_below(graph.num_vertices());
        self.visited[(root / 64) as usize] |= 1 << (root % 64);
        self.levels.reset(root as u32);
    }

    /// Pops the next frontier vertex, moving to the next level or
    /// restarting from a new root when the traversal runs dry.
    fn next_vertex(&mut self, graph: &ProcGraph) -> u64 {
        loop {
            if let Some(v) = self.levels.pop() {
                return v as u64;
            }
            if !self.levels.swap() {
                self.restart(graph);
            }
        }
    }

    /// The expansion kernel: in slot order, tests and sets each of `v`'s
    /// neighbours' visited bits, appends the fresh ones to the next
    /// level, and calls `edge(slot, neighbour, fresh)`. Returns `v`'s
    /// degree and fresh count.
    #[inline(always)]
    fn expand(&mut self, graph: &ProcGraph, v: u64, mut edge: impl FnMut(u64, u64, bool)) -> (u64, u64) {
        let d = graph.degree(v);
        // Write every neighbour into a slot and advance past fresh ones only.
        let base = self.levels.reserve(d as usize);
        let (visited, slots) = (&mut self.visited[..], &mut self.levels.arena[base..base + d as usize]);
        let mut fresh = 0;
        for (i, u) in graph.neighbors(v).enumerate() {
            let (word, bit) = (&mut visited[(u / 64) as usize], 1 << (u % 64));
            let new = *word & bit == 0;
            *word |= bit;
            slots[fresh] = u as u32;
            fresh += new as usize;
            edge(i as u64, u, new);
        }
        self.levels.commit(fresh);
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
        let (v, max_degree) = (core.graph.num_vertices() as usize, core.graph.max_degree() as usize);
        let search = Search {
            visited: vec![0; v.div_ceil(64)],
            // A traversal pushes each vertex at most once.
            levels: Levels::new((v / 256).max(MIN_CHUNK).max(max_degree), max_degree, v),
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

    /// The two-`Vec` levels `Levels` replaced: the reference model.
    #[derive(Default)]
    struct VecLevels {
        cur: Vec<u32>,
        next: Vec<u32>,
    }

    impl Levels {
        fn live(&self) -> (usize, usize) {
            let sum = |l: &[(usize, usize)]| l.iter().map(|&(_, len)| len).sum();
            (sum(&self.cur), sum(&self.next))
        }
    }

    /// Random pushes (reservations of up to `max_reserve` slots, many of
    /// them just over the tail chunk's room), pops across chunk
    /// boundaries, level swaps and restarts, against two plain `Vec`s:
    /// the same pop order, and an arena no longer than the peak live
    /// entries plus two chunks, scaled by the room a reservation can
    /// leave unused at a chunk's end.
    fn assert_levels_match_vecs(chunk: usize, max_reserve: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut levels = Levels::new(chunk, max_reserve, 1 << 16);
        let mut model = VecLevels::default();
        let (mut crossings, mut swaps, mut peak_live) = (0, 0, 0);
        for step in 0..20_000u64 {
            match rng.next_below(100) {
                0 => {
                    let root = rng.next_u64() as u32;
                    levels.reset(root);
                    model = VecLevels { cur: vec![root], next: Vec::new() };
                }
                1..=54 => {
                    let room = levels.next.last().map_or(0, |&(_, len)| chunk - len) as u64;
                    let d = match rng.next_below(3) {
                        0 => rng.next_below(9),
                        1 => (room + rng.next_below(4)).saturating_sub(1),
                        _ => rng.next_below(max_reserve as u64 + 1),
                    }
                    .min(max_reserve as u64) as usize;
                    let kept = rng.next_below(d as u64 + 1) as usize;
                    let opened = d as u64 > room;
                    let base = levels.reserve(d);
                    for slot in &mut levels.arena[base..base + d] {
                        *slot = rng.next_u64() as u32;
                    }
                    model.next.extend_from_slice(&levels.arena[base..base + kept]);
                    levels.commit(kept);
                    crossings += opened as u32;
                }
                _ => {
                    let got = levels.pop();
                    assert_eq!(got, model.cur.pop(), "seed {seed} step {step}: pop");
                    if got.is_none() {
                        let swapped = levels.swap();
                        assert_eq!(swapped, !model.next.is_empty(), "seed {seed} step {step}: swap");
                        std::mem::swap(&mut model.cur, &mut model.next);
                        swaps += swapped as u32;
                    }
                }
            }
            assert_eq!(levels.live(), (model.cur.len(), model.next.len()), "seed {seed} step {step}: live");
            let held = levels.cur.len() + levels.next.len();
            assert_eq!(levels.arena.len(), (held + levels.free.len()) * chunk, "seed {seed} step {step}");
            peak_live = peak_live.max(model.cur.len() + model.next.len());
            let bound = (peak_live / (chunk - max_reserve + 1) + 2) * chunk;
            assert!(
                levels.arena.len() <= bound,
                "seed {seed} step {step}: arena {} > {bound}",
                levels.arena.len()
            );
        }
        assert!(crossings > 100 && swaps > 100, "seed {seed}: {crossings} new chunks, {swaps} swaps");
    }

    #[test]
    fn chunked_levels_match_two_vecs() {
        for seed in 0..4 {
            assert_levels_match_vecs(64, 8, seed);
            assert_levels_match_vecs(64, 40, seed);
            assert_levels_match_vecs(16, 16, seed);
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn a_chunk_must_hold_the_largest_reservation() {
        Levels::new(64, 65, 1 << 10);
    }

    #[test]
    fn a_chunk_holds_the_maximum_degree() {
        for scale in [Scale::Tiny, Scale::Small] {
            let w = Bfs::new(scale, 5);
            let graph = &w.core.graph;
            let chunk = w.search.levels.chunk as u64;
            assert!(chunk >= graph.max_degree() && chunk >= graph.num_vertices() / 256, "{scale:?}: {chunk}");
        }
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
