//! Allocation-freedom gate for the simulation hot path and the stream
//! generators.
//!
//! A counting global allocator wraps the system allocator; after warm-up
//! (which is allowed to grow scratch buffers to their steady-state
//! capacity), running hundreds of thousands of further instructions must
//! perform ZERO heap allocations: no per-access allocation on the
//! L1/L2-hit path and none per L2 demand miss (prefetch candidates land
//! in a scratch buffer reserved up front, walks use fixed-size buffers,
//! TLB fills run the eviction flows in place), and none in the
//! generator's `fill`. The SMARTS fast-forward's pure skip
//! (`System::skip`) is held to the same bound: its batch jumps and dry
//! fills materialise nothing.
//!
//! Every one of the 11 workloads runs under radix (the pure walk path),
//! Victima (walks plus the eviction flows) and POM-TLB (the in-memory
//! TLB's L2 accesses). Three graph generators keep real traversal state
//! in vectors that are cleared, never freed, between traversals: a
//! traversal deeper or wider than any before it still grows them by
//! doubling, a handful of times. Their allowances name those vectors;
//! every other generator, and the simulator itself, must read 0.
//!
//! Each case runs on its own test thread and counts only that thread's
//! allocations (`alloc_count`), so cases may run in parallel.

mod alloc_count;

use sim::{System, SystemConfig};
use workloads::{registry, Scale};

/// The configurations every workload runs under.
fn configs() -> [SystemConfig; 3] {
    [SystemConfig::radix(), SystemConfig::victima(), SystemConfig::pom_tlb()]
}

/// Builds a system for `workload`, warms it up, then asserts the measured
/// window performs at most `allowed` allocations.
fn assert_steady_state_allocs(config: SystemConfig, workload: &str, allowed: u64) {
    let name = config.name.clone();
    let w = registry::by_name_seeded(workload, Scale::Tiny, config.seed).expect("known workload");
    let mut sys = System::new(config, w);
    // Warm-up: caches, TLBs and workload batch buffers all reach
    // steady-state capacity here.
    sys.run(200_000);

    let before = alloc_count::allocations();
    sys.run(400_000);
    let got = alloc_count::allocations() - before;
    assert!(
        got <= allowed,
        "{workload} under {name}: expected at most {allowed} steady-state allocation(s), got {got} over 400K instructions"
    );
}

/// One workload under every configuration.
fn assert_all_configs(workload: &str, allowed: u64) {
    for config in configs() {
        assert_steady_state_allocs(config, workload, allowed);
    }
}

/// RND: the TLB-hostile random-access worst case — every access misses
/// deep, so this drives the L2-demand-miss path (stream prefetcher +
/// walks + Victima eviction flows) hundreds of thousands of times.
#[test]
fn hot_path_is_allocation_free_in_steady_state() {
    assert_all_configs("RND", 0);
}

#[test]
fn gen_is_allocation_free() {
    assert_all_configs("GEN", 0);
}

#[test]
fn dlrm_is_allocation_free() {
    assert_all_configs("DLRM", 0);
}

#[test]
fn xs_is_allocation_free() {
    assert_all_configs("XS", 0);
}

#[test]
fn tc_is_allocation_free() {
    assert_all_configs("TC", 0);
}

#[test]
fn cc_is_allocation_free() {
    assert_all_configs("CC", 0);
}

#[test]
fn gc_is_allocation_free() {
    assert_all_configs("GC", 0);
}

#[test]
fn pr_is_allocation_free() {
    assert_all_configs("PR", 0);
}

/// BFS: streaming traversal — exercises confident stream prefetches (the
/// scratch buffer must never regrow). Only its frontier chunk arena may
/// grow (2 measured).
#[test]
fn bfs_allocates_only_frontier_growth() {
    assert_all_configs("BFS", 4);
}

/// BC: the forward phase's `next` level and the traversal `order` grow
/// to a new high-water mark 4 times in this window.
#[test]
fn bc_allocates_only_traversal_growth() {
    assert_all_configs("BC", 4);
}

/// SSSP: the `worklist` doubles once in this window.
#[test]
fn sssp_allocates_only_worklist_growth() {
    assert_all_configs("SSSP", 1);
}

/// `System::skip` after warm-up: no allocation for any generator but the
/// three above, whose dry fills run the same traversals `fill` does over
/// a longer span (BC's `next`/`order` grow 8 times, SSSP's `worklist`
/// twice, BFS's arena twice).
#[test]
fn skip_is_allocation_free() {
    for workload in registry::WORKLOAD_NAMES {
        let allowed = match workload {
            "BC" => 8,
            "BFS" => 4,
            "SSSP" => 2,
            _ => 0,
        };
        for config in configs() {
            let name = config.name.clone();
            let w = registry::by_name_seeded(workload, Scale::Tiny, config.seed).expect("known workload");
            let mut sys = System::new(config, w);
            sys.run(200_000);

            let before = alloc_count::allocations();
            sys.skip(2_000_000);
            let got = alloc_count::allocations() - before;
            assert!(
                got <= allowed,
                "{workload} under {name}: expected at most {allowed} allocation(s) skipping 2M instructions, got {got}"
            );
        }
    }
}
