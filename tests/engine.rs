//! Integration tests for the parallel batch engine: determinism across
//! worker counts, submission-order results, and suite coverage.

use victima_repro::sim::{suite_specs, RunSpec, SimEngine, SystemConfig};
use victima_repro::workloads::{registry::WORKLOAD_NAMES, Scale};

/// The same batch must produce identical `SimStats`, in identical order,
/// at 1 worker and at 4 workers — the engine's core guarantee.
#[test]
fn full_suite_is_deterministic_across_worker_counts() {
    let specs = suite_specs(&SystemConfig::victima(), Scale::Tiny, 2_000, 25_000);
    let seq = SimEngine::with_jobs(1).run_batch(specs.clone());
    let par = SimEngine::with_jobs(4).run_batch(specs);
    assert_eq!(seq.len(), WORKLOAD_NAMES.len());
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(a.workload, WORKLOAD_NAMES[i], "results must come back in figure order");
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.index, b.index);
        assert_eq!(a.stats, b.stats, "{}: stats differ between 1 and 4 workers", a.workload);
    }
}

/// A duplicated spec must produce stats identical to its twin, wherever
/// the scheduler places the two copies.
#[test]
fn duplicated_spec_matches_its_twin() {
    let one = RunSpec::new("BFS", SystemConfig::radix(), Scale::Tiny, 2_000, 25_000);
    let mut specs = vec![one.clone()];
    // Pad the batch so the twins land on different workers.
    for w in ["RND", "XS", "GC"] {
        specs.push(RunSpec::new(w, SystemConfig::radix(), Scale::Tiny, 2_000, 25_000));
    }
    specs.push(one);
    let results = SimEngine::with_jobs(3).run_batch(specs);
    assert_eq!(results.first().unwrap().stats, results.last().unwrap().stats);
}

/// Mixed configs and modes batch together; results keep their spec's
/// identity.
#[test]
fn heterogeneous_batches_keep_their_identity() {
    let specs = vec![
        RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 1_000, 10_000),
        RunSpec::new("RND", SystemConfig::victima(), Scale::Tiny, 1_000, 10_000),
        RunSpec::new("XS", SystemConfig::nested_paging(), Scale::Tiny, 1_000, 10_000),
        RunSpec::new("CC", SystemConfig::pom_tlb(), Scale::Tiny, 1_000, 10_000),
    ];
    let results = SimEngine::with_jobs(2).run_batch(specs);
    assert_eq!(results[0].config_name, "Radix");
    assert_eq!(results[1].config_name, "Victima");
    assert_eq!(results[2].config_name, "NP");
    assert_eq!(results[3].config_name, "POM-TLB");
    assert!(results.iter().all(|r| r.stats.instructions >= 10_000));
    assert!(results[1].stats.victima_hits > 0 || results[1].stats.victima_inserts > 0);
    assert!(results[2].stats.host_ptws > 0, "nested paging performs host walks");
}

/// The engine honours explicit seeds: same seed twins match, fresh seeds
/// diverge, and results stay deterministic under parallelism.
#[test]
fn seeded_specs_are_independent_but_reproducible() {
    let base = RunSpec::new("RND", SystemConfig::radix(), Scale::Tiny, 1_000, 15_000);
    let specs = vec![base.clone().with_seed(7), base.clone().with_seed(1234), base.with_seed(7)];
    let results = SimEngine::with_jobs(3).run_batch(specs);
    assert_eq!(results[0].stats, results[2].stats, "equal seeds must reproduce");
    assert_ne!(results[0].stats, results[1].stats, "fresh seeds must perturb the run");
}
