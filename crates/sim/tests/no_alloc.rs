//! Allocation-freedom gate for the simulation hot path and the stream
//! generators.
//!
//! A counting global allocator wraps the system allocator; after warm-up
//! (which is allowed to grow scratch buffers to their steady-state
//! capacity), running hundreds of thousands of further instructions must
//! perform ZERO heap allocations: no per-access allocation on the
//! L1/L2-hit path and none per L2 demand miss (prefetch candidates land
//! in the reused scratch buffer, walks use fixed-size buffers, TLB fills
//! run the eviction flows in place), and none in the generator's `fill`.
//! The SMARTS fast-forward's pure skip (`System::skip`) is held to the
//! same bound: its batch jumps and dry fills materialise nothing.
//!
//! Each case runs on its own test thread and counts only that thread's
//! allocations (`alloc_count`), so cases may run in parallel.

mod alloc_count;

use sim::{System, SystemConfig};
use workloads::{registry, Scale};

/// Builds a system for `workload`, warms it up, then asserts the measured
/// window performs at most `allowed` allocations. `allowed` is 0 for
/// every generator but BFS, whose frontier levels are real algorithm
/// state: their chunk arena may still double its capacity a couple of
/// times. The simulator's own access/miss path contributes none of it.
fn assert_steady_state_allocs(config: SystemConfig, workload: &str, allowed: u64) {
    let w = registry::by_name_seeded(workload, Scale::Tiny, config.seed).expect("known workload");
    let mut sys = System::new(config, w);
    // Warm-up: caches, TLBs, workload batch buffers and the prefetch
    // scratch all reach steady-state capacity here.
    sys.run(200_000);

    let before = alloc_count::allocations();
    sys.run(400_000);
    let got = alloc_count::allocations() - before;
    assert!(
        got <= allowed,
        "{workload}: expected at most {allowed} steady-state allocation(s), got {got} over 400K instructions"
    );
}

/// Radix (the pure walk path) and Victima (walks plus the eviction
/// flows) for one workload.
fn assert_both_configs(workload: &str, allowed: u64) {
    assert_steady_state_allocs(SystemConfig::radix(), workload, allowed);
    assert_steady_state_allocs(SystemConfig::victima(), workload, allowed);
}

/// RND: the TLB-hostile random-access worst case — every access misses
/// deep, so this drives the L2-demand-miss path (stream prefetcher +
/// walks + Victima eviction flows) hundreds of thousands of times.
#[test]
fn hot_path_is_allocation_free_in_steady_state() {
    assert_both_configs("RND", 0);
}

#[test]
fn gen_is_allocation_free() {
    assert_both_configs("GEN", 0);
}

#[test]
fn dlrm_is_allocation_free() {
    assert_both_configs("DLRM", 0);
}

#[test]
fn xs_is_allocation_free() {
    assert_both_configs("XS", 0);
}

/// BFS: streaming traversal — exercises confident stream prefetches (the
/// reused scratch buffer must never regrow). Only its frontier arena may
/// grow.
#[test]
fn bfs_allocates_only_frontier_growth() {
    assert_both_configs("BFS", 4);
}

#[test]
fn tc_is_allocation_free() {
    assert_both_configs("TC", 0);
}

/// `System::skip` after warm-up: no allocation for any generator but
/// BFS, whose dry fills grow the same frontier arena `fill` does.
#[test]
fn skip_is_allocation_free() {
    for (workload, allowed) in [("RND", 0), ("GEN", 0), ("DLRM", 0), ("XS", 0), ("TC", 0), ("BFS", 4)] {
        let config = SystemConfig::radix();
        let w = registry::by_name_seeded(workload, Scale::Tiny, config.seed).expect("known workload");
        let mut sys = System::new(config, w);
        sys.run(200_000);

        let before = alloc_count::allocations();
        sys.skip(2_000_000);
        let got = alloc_count::allocations() - before;
        assert!(
            got <= allowed,
            "{workload}: expected at most {allowed} allocation(s) skipping 2M instructions, got {got}"
        );
    }
}
