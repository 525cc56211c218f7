//! Pins every generator's reference stream.
//!
//! Each case hashes the first ~2M instructions' references — vaddr,
//! kind, pc and gap of every `MemRef` — with 64-bit FNV-1a and compares
//! the result with a recorded fingerprint. A generator rewrite that is
//! meant to be stream-identical (a faster `fill`, a cheaper neighbour
//! hash) must leave every fingerprint unchanged; an intended model change
//! re-records them, and the `--check` baselines move with it.

use vm_types::{VirtAddr, DEFAULT_SEED};
use workloads::{registry, Scale, WorkloadStream};

/// Instructions (gap + 1 per reference) hashed per case.
const INSTRUCTIONS: u64 = 2_000_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the first [`INSTRUCTIONS`] instructions of `name`'s
/// stream at `scale` and the default seed, with regions bound at fixed
/// fake bases.
fn fingerprint(name: &str, scale: Scale) -> u64 {
    let mut w = registry::by_name_seeded(name, scale, DEFAULT_SEED).expect("known workload");
    let bases: Vec<VirtAddr> =
        (0..w.region_specs().len()).map(|i| VirtAddr::new(0x100_0000_0000 * (i as u64 + 1))).collect();
    w.init(&bases);
    let mut stream = WorkloadStream::new(w);
    let (mut h, mut instr) = (FNV_OFFSET, 0u64);
    while instr < INSTRUCTIONS {
        let r = stream.next_ref();
        h = fnv1a(h, &r.vaddr.raw().to_le_bytes());
        h = fnv1a(h, &[r.kind as u8]);
        h = fnv1a(h, &r.pc.to_le_bytes());
        h = fnv1a(h, &r.gap.to_le_bytes());
        instr += r.instructions();
    }
    h
}

fn assert_fingerprints(scale: Scale, expected: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = expected.iter().map(|&(name, _)| (name, fingerprint(name, scale))).collect();
    let drifted: Vec<String> = expected
        .iter()
        .zip(&got)
        .filter(|(e, g)| e.1 != g.1)
        .map(|(e, g)| format!("{}: expected {:#018x}, got {:#018x}", e.0, e.1, g.1))
        .collect();
    assert!(drifted.is_empty(), "{scale:?} reference streams drifted:\n{}", drifted.join("\n"));
}

#[test]
fn tiny_streams_match_recorded_fingerprints() {
    assert_fingerprints(
        Scale::Tiny,
        &[
            ("BC", 0x759b4846ed333b9a),
            ("BFS", 0xba941fa1323f68ae),
            ("CC", 0xe65772915556fcf6),
            ("DLRM", 0x55ac98f2ebdee346),
            ("GEN", 0xf9f5fd4dee55dc91),
            ("GC", 0x11bfc4e7b75ae806),
            ("PR", 0x12447579277db7da),
            ("RND", 0x4d823e9dc994796b),
            ("SSSP", 0xa34237f37252b736),
            ("TC", 0xe82ee6ef89e6da19),
            ("XS", 0x91489ca5f00e8373),
        ],
    );
}

#[test]
fn paper_graph_streams_match_recorded_fingerprints() {
    assert_fingerprints(Scale::Paper, &[("BFS", 0x3715f94b1093a32a), ("TC", 0xf8f4534319b1b5c5)]);
}
