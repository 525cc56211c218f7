//! `experiments profile`: run experiments with full observability and
//! aggregate the collected phase spans into one breakdown artifact.
//!
//! The artifact (`BENCH_obs.json` by default) is an ordinary
//! `victima-report/1` document — id [`OBS_ID`], one row per phase
//! (set-up, warm-up, detailed windows, fast-forward, checkpoint
//! restore) with span count, total time, mean span time and share of
//! the profiled wall-clock — so the existing renderers, parsers and CI
//! artifact plumbing all apply unchanged. Headline simulator metrics
//! (walks, TLB misses, PWC hits) ride along as report metrics.
//!
//! Wall-clock numbers are machine-dependent, so this artifact is *not*
//! part of `experiments --check`; nothing here can perturb result bytes
//! (the determinism gate in `crates/bench/tests/obs.rs` pins that).
//! Simulator throughput is the repository benchmark's job (`perfbench/`).

use crate::{experiments, Column, ExpCtx, ExperimentReport, Metric, Unit, Value};
use obs::MetricValue;
use std::path::PathBuf;

/// Artifact id of the profile breakdown report.
pub const OBS_ID: &str = "bench_obs";

/// Where the artifact is written: `VICTIMA_OBS_OUT` or `BENCH_obs.json`
/// in the invoking directory.
pub fn artifact_path() -> PathBuf {
    std::env::var_os("VICTIMA_OBS_OUT").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("BENCH_obs.json"))
}

/// Simulator counters promoted to headline metrics on the profile
/// report (the full registry stays available programmatically via
/// [`ExpCtx::obs_metrics`]).
const HEADLINE: &[&str] = &[
    "sim.tlb.l1.miss",
    "sim.tlb.l2.miss",
    "sim.ptw.walks",
    "sim.pwc.hit",
    "sim.pwc.miss",
    "sim.victima.hit",
    "sim.host.walks",
    "sim.cache.l3.miss",
];

/// Runs every experiment in `ids` on `ctx` (which must have been built
/// [`ExpCtx::with_obs`]) and aggregates the collected spans into the
/// breakdown report.
///
/// # Errors
///
/// Returns the unknown id when one does not resolve, or a diagnostic
/// when the context collected no spans (observability not enabled).
pub fn profile_report(ctx: &ExpCtx, ids: &[&str]) -> Result<ExperimentReport, String> {
    for id in ids {
        if experiments::by_id(ctx, id).is_none() {
            return Err(format!("unknown experiment: {id} (try --list)"));
        }
    }
    let spans = ctx.obs_spans();
    if spans.is_empty() {
        return Err("no spans collected — was the context built with_obs()?".to_owned());
    }
    let aggs = obs::aggregate(&spans);
    let wall_us: u64 = aggs.iter().map(|a| a.total_us).sum();
    let round = |v: f64, decimals: i32| (v * 10f64.powi(decimals)).round() / 10f64.powi(decimals);
    let mut r = ExperimentReport::new(OBS_ID, format!("Per-phase profile: {}", ids.join(", ")))
        .with_label_name("phase")
        .with_provenance(ctx.provenance(std::iter::empty::<&sim::SystemConfig>()))
        .with_columns([
            Column::new("spans", Unit::Count),
            Column::new("total_ms", Unit::Raw),
            Column::new("mean_us", Unit::Raw),
            Column::new("share", Unit::Percent).with_precision(1),
        ]);
    for a in &aggs {
        r.push_row(
            a.name,
            [
                Value::from(a.count),
                Value::from(round(a.total_us as f64 / 1_000.0, 2)),
                Value::from(round(a.total_us as f64 / a.count as f64, 1)),
                // `Unit::Percent` renders fractions (×100 at display time).
                Value::from(a.total_us as f64 / wall_us.max(1) as f64),
            ],
        );
    }
    r.push_metric(Metric::new("phases", aggs.len() as f64, Unit::Count));
    r.push_metric(Metric::new("spans_total", spans.len() as f64, Unit::Count));
    r.push_metric(Metric::new("profiled_ms", wall_us as f64 / 1_000.0, Unit::Raw));
    for (name, v) in ctx.obs_metrics() {
        if let (true, MetricValue::Counter(n)) = (HEADLINE.contains(&name.as_str()), &v) {
            r.push_metric(Metric::new(name, *n as f64, Unit::Count));
        }
    }
    r.note(
        "Span timings are monotonic-clock diagnostics: machine-dependent, outside the \
         determinism contract, never compared by --check.",
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    fn tiny_obs_ctx() -> ExpCtx {
        ExpCtx::with_budget(Scale::Tiny, 500, 5_000).with_jobs(2).with_obs()
    }

    #[test]
    fn profile_report_breaks_wall_clock_into_phases() {
        let ctx = tiny_obs_ctx();
        let r = profile_report(&ctx, &["calibrate"]).expect("profile runs");
        assert_eq!(r.id, OBS_ID);
        assert!(!r.rows.is_empty(), "calibrate must produce phase rows");
        let labels: Vec<&str> = r.rows.iter().map(|row| row.label.as_str()).collect();
        assert!(labels.contains(&"setup"), "{labels:?}");
        assert!(labels.contains(&"warmup"), "{labels:?}");
        assert!(labels.contains(&"measured"), "{labels:?}");
        // Shares are fractions (Percent renders ×100) summing to ~1.
        let share: f64 = r
            .rows
            .iter()
            .map(|row| match row.cells[3] {
                Value::Float(f) => f,
                ref v => panic!("share must be a float, got {v:?}"),
            })
            .sum();
        assert!((share - 1.0).abs() < 0.005, "shares sum to {share}");
        assert!(r.metric("spans_total").is_some());
        assert!(r.metric("sim.ptw.walks").is_some(), "headline counters ride along");
    }

    #[test]
    fn profile_report_splits_a_sampled_fast_forward_into_skip_and_func_warm() {
        let r = profile_report(&tiny_obs_ctx(), &["sampled_small"]).expect("profile runs");
        let labels: Vec<&str> = r.rows.iter().map(|row| row.label.as_str()).collect();
        for phase in ["setup", "warmup", "detailed_window", "skip", "func_warm", "detailed_warm"] {
            assert!(labels.contains(&phase), "{phase} missing from {labels:?}");
        }
    }

    #[test]
    fn profile_report_rejects_unknown_ids_and_blind_contexts() {
        let ctx = tiny_obs_ctx();
        assert!(profile_report(&ctx, &["warp-drive"]).unwrap_err().contains("unknown experiment"));
        let blind = ExpCtx::with_budget(Scale::Tiny, 500, 5_000).with_jobs(1);
        assert!(profile_report(&blind, &["calibrate"]).unwrap_err().contains("no spans"));
    }
}
