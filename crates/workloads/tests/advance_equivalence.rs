//! `WorkloadStream::skip` must be indistinguishable from generating the
//! skipped references and dropping them.
//!
//! Each case moves two streams of one generator a few references into
//! their first batch, skips on one (drain the buffer, `Workload::advance`
//! over whole batches, finish reference by reference) and pulls and drops
//! on the other under the same stop rule, for every pair of an
//! instruction budget {0, 1, one batch − 1, a non-multiple of the batch,
//! 3M} and a reference budget {1, 1000, 1M}. The totals `skip` returns
//! must equal the dropped ones, and the next 100K references must match
//! one for one — so any RNG draw or algorithm-state update a jump or a
//! dry fill gets wrong shows up.

use vm_types::{VirtAddr, DEFAULT_SEED};
use workloads::{registry, Scale, Workload, WorkloadStream};

/// References pulled before the skip, so it starts mid-buffer.
const LEAD_IN: usize = 5;
/// References compared after the skip.
const FOLLOW: usize = 100_000;
const REF_BUDGETS: [u64; 3] = [1, 1000, 1_000_000];

fn build(name: &str, scale: Scale) -> Box<dyn Workload> {
    let mut w = registry::by_name_seeded(name, scale, DEFAULT_SEED).expect("known workload");
    let bases: Vec<VirtAddr> =
        (0..w.region_specs().len()).map(|i| VirtAddr::new(0x100_0000_0000 * (i as u64 + 1))).collect();
    w.init(&bases);
    w
}

/// Instructions in the generator's first batch.
fn first_batch_instrs(name: &str, scale: Scale) -> u64 {
    let mut batch = Vec::new();
    build(name, scale).fill(&mut batch);
    batch.iter().map(|r| r.instructions()).sum()
}

fn assert_skip_equals_drop(name: &str, scale: Scale) {
    let batch = first_batch_instrs(name, scale);
    let instr_budgets = [0, 1, batch - 1, 7 * batch + batch / 3 + 1, 3_000_000];
    for max_instrs in instr_budgets {
        for max_refs in REF_BUDGETS {
            assert_budget_skip_equals_drop(name, scale, max_instrs, max_refs);
        }
    }
}

fn assert_budget_skip_equals_drop(name: &str, scale: Scale, max_instrs: u64, max_refs: u64) {
    let case = format!("{name} at {scale:?}, budgets ({max_instrs} instrs, {max_refs} refs)");
    let mut fast = WorkloadStream::new(build(name, scale));
    let mut slow = WorkloadStream::new(build(name, scale));
    for _ in 0..LEAD_IN {
        assert_eq!(fast.next_ref(), slow.next_ref(), "{case}: lead-in");
    }
    let skipped = fast.skip(max_instrs, max_refs);
    let (mut instrs, mut refs) = (0u64, 0u64);
    while instrs < max_instrs && refs < max_refs {
        instrs += slow.next_ref().instructions();
        refs += 1;
    }
    assert_eq!(skipped, (instrs, refs), "{case}: (instructions, references) skipped");
    for k in 0..FOLLOW {
        let (a, b) = (fast.next_ref(), slow.next_ref());
        assert!(a == b, "{case}: reference {k} after the skip differs: {a:?} vs {b:?}");
    }
}

/// BFS's first traversal exhausts its component 3–6M instructions into
/// the Tiny stream, where it clears the visited bitmap and draws a new
/// root. The budgets above stop short of that, so this case skips
/// across the restart.
#[test]
fn tiny_bfs_across_a_restart() {
    assert_budget_skip_equals_drop("BFS", Scale::Tiny, 8_000_000, u64::MAX);
}

macro_rules! equivalence_cases {
    ($($(#[$attr:meta])* $test:ident: $name:literal at $scale:ident;)*) => {
        $(
            #[test]
            $(#[$attr])*
            fn $test() {
                assert_skip_equals_drop($name, Scale::$scale);
            }
        )*
    };
}

equivalence_cases! {
    tiny_bc: "BC" at Tiny;
    tiny_bfs: "BFS" at Tiny;
    tiny_cc: "CC" at Tiny;
    tiny_dlrm: "DLRM" at Tiny;
    tiny_gen: "GEN" at Tiny;
    tiny_gc: "GC" at Tiny;
    tiny_pr: "PR" at Tiny;
    tiny_rnd: "RND" at Tiny;
    tiny_sssp: "SSSP" at Tiny;
    tiny_tc: "TC" at Tiny;
    tiny_xs: "XS" at Tiny;
    paper_rnd: "RND" at Paper;
    paper_gen: "GEN" at Paper;
    paper_dlrm: "DLRM" at Paper;
    paper_xs: "XS" at Paper;
    paper_bfs: "BFS" at Paper;
    paper_tc: "TC" at Paper;
}
