//! End-to-end results-pipeline tests: worker-count byte-stability of the
//! rendered `REPORT.md` (golden file), canonical committed baselines, and
//! the check gate against those baselines.

use victima_bench::{experiments, ExpCtx};
use workloads::Scale;

/// Experiments the golden test renders: fig04/fig11 share the Radix
/// suite, fig24 adds the Victima suite — 22 Tiny runs, a few seconds.
const GOLDEN_IDS: [&str; 3] = ["fig04", "fig11", "fig24"];

fn golden_reports(jobs: usize) -> Vec<victima_bench::ExperimentReport> {
    let ctx = ExpCtx::with_budget(Scale::Tiny, 1_000, 10_000).with_jobs(jobs);
    GOLDEN_IDS.iter().flat_map(|id| experiments::by_id(&ctx, id).expect("known id")).collect()
}

/// `REPORT.md` must be byte-identical whether the suite ran on one worker
/// or four, and must match the committed golden file. Set
/// `VICTIMA_UPDATE_GOLDEN=1` to regenerate the golden after an
/// intentional change.
#[test]
fn report_md_is_byte_stable_across_worker_counts() {
    let md_1 = report::markdown::render_combined(&golden_reports(1));
    let md_4 = report::markdown::render_combined(&golden_reports(4));
    assert_eq!(md_1, md_4, "REPORT.md must not depend on VICTIMA_JOBS");

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/REPORT_tiny.md");
    if std::env::var_os("VICTIMA_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &md_1).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with VICTIMA_UPDATE_GOLDEN=1 to create it");
    assert_eq!(md_1, golden, "REPORT.md drifted from the golden; VICTIMA_UPDATE_GOLDEN=1 if intentional");
}

/// The text and JSON artifacts must be equally schedule-independent.
#[test]
fn text_and_json_artifacts_are_byte_stable_across_worker_counts() {
    let (a, b) = (golden_reports(1), golden_reports(3));
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(report::text::render(ra), report::text::render(rb), "{}", ra.id);
        assert_eq!(report::json::to_json(ra), report::json::to_json(rb), "{}", ra.id);
        assert_eq!(report::csv::to_csv(ra), report::csv::to_csv(rb), "{}", ra.id);
    }
}

/// Every committed baseline parses, is canonical (re-serialising is
/// byte-identical) and carries the pinned check profile's provenance.
#[test]
fn committed_baselines_are_canonical_artifacts() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
    let mut seen = 0;
    for id in experiments::checked_ids() {
        let path = format!("{dir}/{id}.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e}; run experiments --save-baselines"));
        let r = report::json::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(r.id, id, "{path}: id mismatch");
        assert_eq!(report::json::to_json(&r), text, "{path}: not canonical");
        // Every baseline runs at a pinned profile: the Tiny check
        // profile, except sampled_small, which pins its own Small-scale
        // sampling profile (see experiments::sampled_small).
        let (scale, budget) =
            if id == "sampled_small" { ("Small", (20_000, 100_000)) } else { ("Tiny", (5_000, 50_000)) };
        assert_eq!(r.provenance.scale, scale, "{path}: baselines must use their pinned profile");
        assert_eq!((r.provenance.warmup, r.provenance.instructions), budget, "{path}");
        assert_eq!(r.provenance.engine, sim::ENGINE_ID, "{path}");
        assert!(!r.metrics.is_empty(), "{path}: a baseline without metrics gates nothing");
        seen += 1;
    }
    assert_eq!(seen, experiments::checked_ids().len());
}

/// The check gate passes for a cheap experiment subset computed in-process
/// at the pinned profile (the full run is the CI smoke job).
#[test]
fn check_gate_matches_committed_baselines() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
    let ctx = ExpCtx::check();
    for id in ["calibrate", "fig04", "fig11"] {
        let fresh = experiments::by_id(&ctx, id).expect("known id").remove(0);
        let text = std::fs::read_to_string(format!("{dir}/{id}.json")).expect("baseline present");
        let baseline = report::json::from_json(&text).expect("baseline parses");
        let outcome = report::check_report(&fresh, &baseline);
        assert!(outcome.passed(), "{id}: {}", outcome.summary());
    }
}
