//! Pins page-table construction.
//!
//! Each case builds one registry workload's memory image the way
//! `System::new` does — natively (as `ProcessCtx::new_native`) or as a
//! nested-paging guest (the virtualised arm) — and hashes with 64-bit
//! FNV-1a:
//! - every 4KB page's translation (frame and page size) in every region;
//! - the walk-step PTE addresses of one address per 2MB chunk, which pin
//!   the table frames and the table topology;
//! - every table's `table_frames()` and `mapped_pages()`;
//! - every allocator's `frames_used()` and `rng_state()`, the fingerprint
//!   a checkpoint verifies on restore.
//!
//! Nested cases hash the guest table over the guest regions, the host
//! table over every guest-physical frame handed out, and the shadow
//! table over the guest regions. A faster construction must leave every
//! fingerprint unchanged; an intended layout change re-records them, and
//! the `--check` baselines move with it.

use page_table::{AddressSpace, FrameAllocator, NestedMemory, RadixPageTable};
use sim::SystemConfig;
use vm_types::{Asid, VirtAddr};
use workloads::{registry, Scale};

const CHUNK: u64 = 2 << 20;

/// Host THP fraction `System::new` backs guest memory with.
const HOST_HUGE_FRACTION: f64 = 0.7;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Translations of every 4KB page and the walk steps of every 2MB
    /// chunk in `[base, base + bytes)`; unmapped pages hash as a marker.
    fn span(&mut self, pt: &RadixPageTable, base: VirtAddr, bytes: u64) {
        for off in (0..bytes).step_by(4096) {
            match pt.translate(base.add(off)) {
                Some((pa, size)) => {
                    self.word(pa.raw() >> 12);
                    self.word(size.shift());
                }
                None => self.word(u64::MAX),
            }
        }
        for off in (0..bytes).step_by(CHUNK as usize) {
            for step in pt.walk(base.add(off)).iter().flat_map(|w| w.steps()) {
                self.word(step.level as u64);
                self.word(step.pte_paddr.raw());
            }
        }
    }

    fn shape(&mut self, pt: &RadixPageTable) {
        self.word(pt.table_frames());
        self.word(pt.mapped_pages());
    }

    fn alloc(&mut self, a: &FrameAllocator) {
        self.word(a.frames_used());
        self.word(a.rng_state());
    }
}

fn native_fingerprint(name: &str, scale: Scale) -> u64 {
    let cfg = SystemConfig::radix();
    let specs = registry::by_name_seeded(name, scale, cfg.seed).expect("known workload").region_specs();
    let mut alloc = FrameAllocator::new(cfg.phys_mem_bytes, cfg.seed);
    let mut aspace = AddressSpace::new(Asid::new(1), &mut alloc, cfg.seed);
    aspace.map_small_region(256 << 10, &mut alloc);
    for s in &specs {
        aspace.map_region(s.bytes, s.huge_fraction, &mut alloc);
    }
    let mut h = Fnv(FNV_OFFSET);
    for r in aspace.regions() {
        h.span(&aspace.page_table, r.base, r.bytes);
    }
    h.shape(&aspace.page_table);
    h.alloc(&alloc);
    h.0
}

fn nested_fingerprint(name: &str, scale: Scale) -> u64 {
    let cfg = SystemConfig::nested_paging();
    let specs = registry::by_name_seeded(name, scale, cfg.seed).expect("known workload").region_specs();
    let guest_phys = specs.iter().map(|s| s.bytes).sum::<u64>() * 2 + (1 << 30);
    let mut n = NestedMemory::new(Asid::new(1), guest_phys, cfg.phys_mem_bytes, HOST_HUGE_FRACTION, cfg.seed);
    n.map_small_region(256 << 10);
    for s in &specs {
        n.map_region(s.bytes, s.huge_fraction);
    }
    let mut h = Fnv(FNV_OFFSET);
    for r in n.guest.regions() {
        h.span(&n.guest.page_table, r.base, r.bytes);
        h.span(&n.shadow.table, r.base, r.bytes);
    }
    h.span(&n.host_pt, VirtAddr::new(0), n.guest_alloc.frames_used().next_multiple_of(512) * 4096);
    for pt in [&n.guest.page_table, &n.host_pt, &n.shadow.table] {
        h.shape(pt);
    }
    h.alloc(&n.guest_alloc);
    h.alloc(&n.host_alloc);
    h.0
}

fn assert_fingerprints(mode: &str, scale: Scale, build: fn(&str, Scale) -> u64, expected: &[(&str, u64)]) {
    let drifted: Vec<String> = expected
        .iter()
        .map(|&(name, want)| (name, want, build(name, scale)))
        .filter(|(_, want, got)| want != got)
        .map(|(name, want, got)| format!("{name}: expected {want:#018x}, got {got:#018x}"))
        .collect();
    assert!(drifted.is_empty(), "{scale:?} {mode} page tables drifted:\n{}", drifted.join("\n"));
}

#[test]
fn tiny_native_tables_match_recorded_fingerprints() {
    assert_fingerprints(
        "native",
        Scale::Tiny,
        native_fingerprint,
        &[
            ("BC", 0x06030fdac713e4f3),
            ("BFS", 0xa5f445461410ed7a),
            ("CC", 0x8e0fecfe494f393a),
            ("DLRM", 0x6eff23892c9c740f),
            ("GEN", 0x9f0986c565a101f3),
            ("GC", 0x8e0fecfe494f393a),
            ("PR", 0x38fe4b3d24845044),
            ("RND", 0x204f2a8d42302d16),
            ("SSSP", 0x60a8966d59fc1f5e),
            ("TC", 0xefb52fd4723df893),
            ("XS", 0x54ed189020c0d18b),
        ],
    );
}

#[test]
fn tiny_nested_tables_match_recorded_fingerprints() {
    assert_fingerprints(
        "nested",
        Scale::Tiny,
        nested_fingerprint,
        &[
            ("BC", 0xdfcd459f3d293a3f),
            ("BFS", 0x54cec6a1c56bbd38),
            ("CC", 0x9c1aafe4359b921d),
            ("DLRM", 0x48dd1f19f2ad49e1),
            ("GEN", 0xea3b19759f0329b2),
            ("GC", 0x9c1aafe4359b921d),
            ("PR", 0x680c38aff339ed74),
            ("RND", 0xba304e461f55e96f),
            ("SSSP", 0xbdc9c232bf624614),
            ("TC", 0xe2b7d5c4a2aec350),
            ("XS", 0xc5dc7ebaacb45108),
        ],
    );
}

// The three largest Paper-scale set-ups take ~10 s in a debug build, so
// tier-1 skips them; CI runs them in release with
// `cargo test --release -p sim --test pt_fingerprints -- --ignored`.

#[test]
#[ignore]
fn paper_native_tables_match_recorded_fingerprints() {
    assert_fingerprints(
        "native",
        Scale::Paper,
        native_fingerprint,
        &[("RND", 0x66680bb928c6b6bf), ("XS", 0xa685477ed07f1caa), ("BFS", 0x0c42d55164352907)],
    );
}

#[test]
#[ignore]
fn paper_nested_tables_match_recorded_fingerprints() {
    assert_fingerprints(
        "nested",
        Scale::Paper,
        nested_fingerprint,
        &[("RND", 0x0061867099438f51), ("XS", 0xedb5d176d6d78678), ("BFS", 0x44647741ccc888ff)],
    );
}
