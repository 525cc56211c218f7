//! GraphBIG-style graph kernels over a procedural power-law graph.
//!
//! The graph is *procedural*: degrees come from a 1024-entry power-law
//! degree table (so CSR edge offsets are O(1) prefix sums) and the i-th
//! neighbour of vertex `v` is a hash of `(seed, v, i)`. The generators
//! therefore emit the exact CSR access skeleton — `offsets[v]`,
//! sequential `edges[...]` runs, random property-array gathers — without
//! materialising multi-hundred-MB arrays in host memory. Algorithm state
//! (frontiers, visited bits, labels, distances) is real wherever it
//! steers the stream; TC has none beyond its vertex cursor.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod gc;
pub mod pagerank;
pub mod sssp;
pub mod tc;

use crate::{pc, RegionSpec, Scale, Sink};
use vm_types::{mix2, MemRef, SplitMix64, VirtAddr};

const DEGREE_TABLE: usize = 1024;
const VERTICES_TINY: u64 = 128 << 10;
const AVG_DEGREE: u64 = 8;
/// Extra vertex multiplier at Full scale: graph kernels gather over
/// per-vertex property arrays, so the *vertex* count must be large enough
/// that the property arrays' own leaf page tables (8B of PTE per 4KB of
/// array) cannot hide in the 2MB L2 + 2MB L3 (32M vertices → 256MB
/// property arrays → ~0.5MB of leaf PTEs each, x several arrays, plus a
/// 2GB edge array with ~4MB of leaf PTEs).
const FULL_VERTEX_BOOST: u64 = 4;

/// A deterministic, procedurally generated power-law graph.
#[derive(Clone, Debug)]
pub struct ProcGraph {
    v: u64,
    seed: u64,
    degrees: Vec<u32>,
    /// Exclusive prefix sums of `degrees`.
    prefix: Vec<u64>,
    block_sum: u64,
    max_degree: u64,
}

impl ProcGraph {
    /// Creates a graph with `v` vertices and roughly `avg_degree`
    /// out-degree following a truncated power law.
    pub fn new(v: u64, avg_degree: u64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x62af);
        let raw: Vec<u64> = (0..DEGREE_TABLE).map(|_| rng.power_law(256)).collect();
        let raw_sum: u64 = raw.iter().sum();
        let target_sum = avg_degree * DEGREE_TABLE as u64;
        let degrees: Vec<u32> =
            raw.iter().map(|&r| ((r * target_sum / raw_sum.max(1)).max(1)) as u32).collect();
        let mut prefix = Vec::with_capacity(DEGREE_TABLE);
        let mut acc = 0u64;
        for &d in &degrees {
            prefix.push(acc);
            acc += d as u64;
        }
        let max_degree = degrees.iter().copied().max().unwrap_or(0) as u64;
        Self { v, seed, degrees, prefix, block_sum: acc, max_degree }
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> u64 {
        self.v
    }

    /// Exact edge count.
    pub fn num_edges(&self) -> u64 {
        self.edge_offset(self.v)
    }

    /// The largest out-degree of any vertex.
    pub(crate) fn max_degree(&self) -> u64 {
        self.max_degree
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u64) -> u64 {
        self.degrees[(v % DEGREE_TABLE as u64) as usize] as u64
    }

    /// CSR offset of `v`'s adjacency list (O(1)).
    #[inline]
    pub fn edge_offset(&self, v: u64) -> u64 {
        (v / DEGREE_TABLE as u64) * self.block_sum + self.prefix[(v % DEGREE_TABLE as u64) as usize]
    }

    /// The `i`-th neighbour of `v` (deterministic hash).
    ///
    /// A power-of-two vertex count (every registry scale) reduces the
    /// hash with a mask instead of a 64-bit division; same neighbour.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `i >= degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: u64, i: u64) -> u64 {
        debug_assert!(i < self.degree(v));
        reduce(mix2(self.seed ^ v, i), self.v)
    }

    /// `v`'s neighbours in slot order, `neighbor(v, i)` for each `i`
    /// below `degree(v)`, with the hash key and vertex count read once.
    #[inline]
    pub(crate) fn neighbors(&self, v: u64) -> impl Iterator<Item = u64> {
        let (key, n) = (self.seed ^ v, self.v);
        (0..self.degree(v)).map(move |i| reduce(mix2(key, i), n))
    }
}

/// Reduces hash `h` to a vertex id below `n`.
#[inline]
fn reduce(h: u64, n: u64) -> u64 {
    if n.is_power_of_two() {
        h & (n - 1)
    } else {
        h % n
    }
}

/// `(instructions, references)` one [`GraphCore::emit_offsets`] emits.
pub(crate) const OFFSETS_COST: (u64, u64) = (4, 2);
/// `(instructions, references)` one [`GraphCore::emit_edge`] emits.
pub(crate) const EDGE_COST: (u64, u64) = (2, 1);

/// Shared CSR layout and emission helpers for all graph kernels.
pub struct GraphCore {
    /// The procedural graph.
    pub graph: ProcGraph,
    offsets: VirtAddr,
    edges: VirtAddr,
    props: Vec<VirtAddr>,
}

impl std::fmt::Debug for GraphCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphCore")
            .field("vertices", &self.graph.num_vertices())
            .field("edges", &self.graph.num_edges())
            .field("props", &self.props.len())
            .finish()
    }
}

/// Bytes per vertex property object. GraphBIG stores multi-field vertex
/// property objects (value + degree + auxiliary fields), not bare words;
/// 32B per vertex makes a 32M-vertex property array 1GB — large enough
/// that its own leaf page table cannot hide in the cache hierarchy.
pub const PROP_OBJECT_BYTES: u64 = 32;

/// Kind of a per-vertex property region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropKind {
    /// One property object per vertex (ranks, labels, distances, …).
    Word,
    /// 1 bit per vertex (visited / in-worklist bitmaps).
    Bit,
}

impl GraphCore {
    /// Creates an unbound core for `scale` with the given property arrays.
    pub fn new(scale: Scale, seed: u64, prop_kinds: &[PropKind]) -> (Self, Vec<RegionSpec>, Vec<PropKind>) {
        let boost = if scale == Scale::Full { FULL_VERTEX_BOOST } else { 1 };
        let v = VERTICES_TINY * scale.factor() * boost;
        let graph = ProcGraph::new(v, AVG_DEGREE, seed);
        // Hot, densely accessed regions (offset array, per-vertex
        // properties) end up khugepaged-promoted on a real THP host; the
        // giant cold edge array stays mostly 4KB on a fragmented machine.
        let mut specs = vec![
            RegionSpec { name: "offsets", bytes: (v + 1) * 8, huge_fraction: 0.7 },
            RegionSpec { name: "edges", bytes: graph.num_edges() * 8, huge_fraction: 0.3 },
        ];
        for kind in prop_kinds {
            let bytes = match kind {
                PropKind::Word => v * PROP_OBJECT_BYTES,
                PropKind::Bit => v.div_ceil(8),
            };
            specs.push(RegionSpec { name: "property", bytes, huge_fraction: 0.65 });
        }
        (
            Self { graph, offsets: VirtAddr::new(0), edges: VirtAddr::new(0), props: Vec::new() },
            specs,
            prop_kinds.to_vec(),
        )
    }

    /// Binds mapped region bases (offsets, edges, then properties).
    pub fn bind(&mut self, bases: &[VirtAddr], n_props: usize) {
        assert_eq!(bases.len(), 2 + n_props, "graph kernel region mismatch");
        self.offsets = bases[0];
        self.edges = bases[1];
        self.props = bases[2..].to_vec();
    }

    /// Emits the two offset-array loads bracketing `v`'s adjacency list.
    #[inline]
    pub fn emit_offsets(&self, v: u64, site: u32, out: &mut impl Sink) {
        out.push(MemRef::load(self.offsets.add(v * 8), pc(site), 2));
        out.push(MemRef::load(self.offsets.add(v * 8 + 8), pc(site), 0));
    }

    /// Emits the load of edge slot `i` of vertex `v` and returns the
    /// neighbour id.
    #[inline]
    pub fn emit_edge(&self, v: u64, i: u64, site: u32, out: &mut impl Sink) -> u64 {
        self.emit_edge_slot(self.graph.edge_offset(v) + i, site, out);
        self.graph.neighbor(v, i)
    }

    /// Emits the load of edge-array slot `slot` (`edge_offset(v) + i`).
    #[inline]
    pub(crate) fn emit_edge_slot(&self, slot: u64, site: u32, out: &mut impl Sink) {
        out.push(MemRef::load(self.edges.add(slot * 8), pc(site), 1));
    }

    /// Address of vertex `u`'s property object in array `p`.
    #[inline]
    pub fn prop_word(&self, p: usize, u: u64) -> VirtAddr {
        self.props[p].add(u * PROP_OBJECT_BYTES)
    }

    /// Address of the byte holding vertex `u`'s bit in bit-property `p`.
    #[inline]
    pub fn prop_bit(&self, p: usize, u: u64) -> VirtAddr {
        self.props[p].add(u / 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> ProcGraph {
        ProcGraph::new(100_000, 16, 7)
    }

    #[test]
    fn degrees_are_power_law_with_target_mean() {
        let g = graph();
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!((12.0..20.0).contains(&avg), "average degree ≈16, got {avg}");
        let max_deg = (0..1024).map(|v| g.degree(v)).max().unwrap();
        let min_deg = (0..1024).map(|v| g.degree(v)).min().unwrap();
        assert!(max_deg > 8 * min_deg, "heavy tail expected: {min_deg}..{max_deg}");
    }

    #[test]
    fn edge_offsets_are_consistent_with_degrees() {
        let g = graph();
        for v in [0u64, 1, 1023, 1024, 54321, 99_998] {
            assert_eq!(g.edge_offset(v + 1), g.edge_offset(v) + g.degree(v), "vertex {v}");
        }
    }

    #[test]
    fn neighbors_are_deterministic_and_in_range() {
        let g = graph();
        for v in [0u64, 999, 77_777] {
            for i in 0..g.degree(v) {
                let u = g.neighbor(v, i);
                assert!(u < g.num_vertices());
                assert_eq!(u, g.neighbor(v, i), "determinism");
            }
        }
    }

    #[test]
    fn neighbor_lists_equal_per_slot_neighbors() {
        for g in [graph(), ProcGraph::new(1 << 17, 8, 7)] {
            for v in [0u64, 999, 77_777] {
                let per_slot: Vec<u64> = (0..g.degree(v)).map(|i| g.neighbor(v, i)).collect();
                assert_eq!(g.neighbors(v).collect::<Vec<_>>(), per_slot, "vertex {v}");
            }
            assert_eq!(g.max_degree(), (0..1024).map(|v| g.degree(v)).max().unwrap());
        }
    }

    #[test]
    fn masked_neighbors_equal_the_modulo_reduction() {
        let g = ProcGraph::new(1 << 17, 8, 7);
        for v in [0u64, 3, 4096, 131_071] {
            for i in 0..g.degree(v) {
                assert_eq!(g.neighbor(v, i), mix2(7 ^ v, i) % (1 << 17), "vertex {v} slot {i}");
            }
        }
    }

    #[test]
    fn neighbors_scatter_widely() {
        let g = graph();
        let mut pages = std::collections::HashSet::new();
        let mut draws = 0;
        for v in 0..200u64 {
            for i in 0..g.degree(v) {
                pages.insert(g.neighbor(v, i) * 8 / 4096);
                draws += 1;
            }
        }
        // An 8B-per-vertex property array spans ~196 pages at V=100K; a
        // few thousand random draws should cover the vast majority.
        let possible = (g.num_vertices() * 8).div_ceil(4096);
        assert!(draws > 2000);
        assert!(
            pages.len() as u64 > possible * 3 / 4,
            "gathers should cover most of the {possible} property pages, got {}",
            pages.len()
        );
    }

    #[test]
    fn core_emits_offsets_and_edges_in_bounds() {
        let (mut core, specs, _) = GraphCore::new(Scale::Tiny, 7, &[PropKind::Word]);
        let bases =
            vec![VirtAddr::new(0x1_0000_0000), VirtAddr::new(0x2_0000_0000), VirtAddr::new(0x3_0000_0000)];
        core.bind(&bases, 1);
        let mut out = Vec::new();
        core.emit_offsets(5, 0, &mut out);
        let u = core.emit_edge(5, 0, 1, &mut out);
        assert!(u < core.graph.num_vertices());
        assert_eq!(out.len(), 3);
        assert!(out[0].vaddr.raw() - 0x1_0000_0000 < specs[0].bytes);
        assert!(out[2].vaddr.raw() - 0x2_0000_0000 < specs[1].bytes);
    }
}
