//! Micro-benchmarks for the hot data structures: cache access, TLB probe,
//! radix walk, region mapping, and Victima's probe (harness = false; a
//! self-contained timing loop keeps the workspace dependency-free).
//!
//! ```text
//! cargo bench --bench micro [filter]
//! ```

use mem_sim::{BlockKind, Cache, CacheConfig, Hierarchy, HierarchyConfig, MemClass, Policy, ReplacementCtx};
use page_table::{AddressSpace, FrameAllocator, RadixPageTable};
use std::hint::black_box;
use std::time::Instant;
use tlb_sim::{PageTableWalker, SetAssocTlb, TlbConfig, TlbEntry};
use victima::{tlb_block, Victima};
use vm_types::{Asid, PageSize, PhysAddr, SplitMix64, VirtAddr};

/// Times `iters` calls of `f` after a short warm-up and prints ns/op.
fn bench(filter: &[String], name: &str, iters: u64, f: impl FnMut()) {
    bench_per(filter, name, iters, 1, "op", f);
}

/// Like [`bench`] for an `f` that does `units` `unit`s of work per call;
/// prints ns per unit.
fn bench_per(filter: &[String], name: &str, iters: u64, units: u64, unit: &str, mut f: impl FnMut()) {
    if !filter.is_empty() && !filter.iter().any(|p| name.contains(p.as_str())) {
        return;
    }
    for _ in 0..iters / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    println!(
        "{name:<28} {:>9.1} ns/{unit:<4} ({iters} iters, {:.2}s)",
        elapsed.as_nanos() as f64 / (iters * units) as f64,
        elapsed.as_secs_f64()
    );
}

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
    let ctx = ReplacementCtx::default();

    let mut cache = Cache::new(
        CacheConfig { name: "L2", size_bytes: 2 << 20, ways: 16, block_bytes: 64, latency: 16 },
        Policy::srrip(),
    );
    let mut rng = SplitMix64::new(1);
    bench(&filter, "cache_access_random", 2_000_000, || {
        let pa = PhysAddr::new(rng.next_below(64 << 20) & !63);
        if !cache.access_data(black_box(pa), false, &ctx) {
            cache.fill_data(pa, false, false, &ctx);
        }
    });

    let mut hot_cache = Cache::new(
        CacheConfig { name: "L2", size_bytes: 2 << 20, ways: 16, block_bytes: 64, latency: 16 },
        Policy::srrip(),
    );
    let mut rng_h = SplitMix64::new(11);
    // Working set half the cache: after warm-up, every access hits.
    bench(&filter, "cache_access_hit", 4_000_000, || {
        let pa = PhysAddr::new(rng_h.next_below(1 << 20) & !63);
        if !hot_cache.access_data(black_box(pa), false, &ctx) {
            hot_cache.fill_data(pa, false, false, &ctx);
        }
    });

    let mut fill_cache = Cache::new(
        CacheConfig { name: "L2", size_bytes: 2 << 20, ways: 16, block_bytes: 64, latency: 16 },
        Policy::srrip(),
    );
    let mut rng_f = SplitMix64::new(12);
    // Every op evicts + fills (addresses never repeat in cache lifetime).
    let mut next_pa = 0u64;
    bench(&filter, "cache_fill_evict", 2_000_000, || {
        next_pa = next_pa.wrapping_add(rng_f.next_below(1 << 30) | 64) & !63;
        black_box(fill_cache.fill_data(PhysAddr::new(next_pa), false, false, &ctx));
    });

    let mut hier = Hierarchy::new(HierarchyConfig::default());
    let mut rng2 = SplitMix64::new(2);
    bench(&filter, "hierarchy_access_random", 1_000_000, || {
        let pa = PhysAddr::new(rng2.next_below(256 << 20) & !63);
        black_box(hier.access(pa, false, MemClass::Data, &ctx));
    });

    let mut tlb = SetAssocTlb::new(TlbConfig::l2_unified(1536, 12));
    let asid = Asid::new(1);
    for vpn in 0..1536u64 {
        tlb.fill(TlbEntry::new(vpn, asid, PageSize::Size4K, vpn));
    }
    let mut rng3 = SplitMix64::new(3);
    bench(&filter, "l2_tlb_probe", 5_000_000, || {
        let vpn = rng3.next_below(4096);
        black_box(tlb.probe(vpn, asid, PageSize::Size4K));
    });

    let mut alloc = FrameAllocator::new(4 << 30, 4);
    let mut pt = RadixPageTable::new(&mut alloc);
    for i in 0..10_000u64 {
        let frame = alloc.alloc_4k();
        pt.map(VirtAddr::new(0x4000_0000 + i * 4096), frame, PageSize::Size4K, &mut alloc);
    }
    let mut walk_hier = Hierarchy::new(HierarchyConfig::default());
    let mut walker = PageTableWalker::new();
    let mut rng4 = SplitMix64::new(5);
    bench(&filter, "radix_walk", 1_000_000, || {
        let va = VirtAddr::new(0x4000_0000 + rng4.next_below(10_000) * 4096);
        black_box(walker.walk(&mut pt, va, Asid::new(1), &mut walk_hier, &ctx));
    });

    // Eager region set-up: a fresh 256MB region per call, 30% of its 2MB
    // chunks as huge pages and the rest as 512-page leaf runs.
    let mut map_alloc = FrameAllocator::new(1 << 40, 8);
    let mut aspace = AddressSpace::new(Asid::new(1), &mut map_alloc, 8);
    bench_per(&filter, "address_space_map_region", 100, (256 << 20) / 4096, "page", || {
        black_box(aspace.map_region(256 << 20, 0.3, &mut map_alloc));
    });

    let vctx = ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 0.0 };
    let mut l2 = Cache::new(
        CacheConfig { name: "L2", size_bytes: 2 << 20, ways: 16, block_bytes: 64, latency: 16 },
        Policy::tlb_aware_srrip(),
    );
    let mut v = Victima::default();
    let sets = l2.num_sets();
    for g in 0..4096u64 {
        let (set, tag) = tlb_block::group_index(g, sets);
        l2.fill_translation(set, tag, BlockKind::Tlb, Asid::new(1), PageSize::Size4K, &vctx);
    }
    let mut rng5 = SplitMix64::new(6);
    bench(&filter, "victima_probe", 2_000_000, || {
        let va = VirtAddr::new(rng5.next_below(1 << 30) & !0xfff);
        black_box(v.probe(&mut l2, va, Asid::new(1), BlockKind::Tlb, &vctx));
    });

    let mut rng6 = SplitMix64::new(7);
    bench(&filter, "tlb_block_index_math", 10_000_000, || {
        let va = VirtAddr::new(rng6.next_u64());
        black_box(tlb_block::tlb_block_index(va, PageSize::Size4K, 2048));
    });
}
