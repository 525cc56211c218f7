//! Paper-scale sampling experiments: the Small-scale sampled baseline
//! (`sampled_small`, part of the `--check` gate) and the wall-clock
//! speedup demonstration (`sampling_speedup`, unchecked — it measures
//! time).
//!
//! `sampled_small` pins its own profile — Small scale, fixed budgets and
//! a fixed SMARTS `U:D:W` spec — independent of the ambient context, so
//! its committed baseline is reproducible from any driver invocation,
//! exactly like the Tiny `--check` profile. It reruns the paper's
//! headline comparison (Victima vs. the radix baseline) at 8× the Tiny
//! footprint with ~4% detailed execution, showing that sampling
//! preserves the mechanism ranking at a scale the full-detail check
//! profile never visits.

use crate::{Column, ExpCtx, ExperimentReport, Metric, Unit, Value};
use report::Provenance;
use sim::{RunSpec, SamplingConfig, SimStats, SystemConfig};
use vm_types::geomean;
use workloads::Scale;

/// Workloads swept by `sampled_small`: the two ends of the TLB-stress
/// spectrum (random pointer chasing and the XSBench lookup kernel).
const WORKLOADS: [&str; 2] = ["RND", "XS"];

/// Pinned profile: 20K warm-up, then 20 windows of 5K detailed
/// instructions separated by 245K fast-forwarded + 5K detail-warmed
/// instructions — a ~4.85M-instruction span at ~4% detail.
const WARMUP: u64 = 20_000;
const DETAILED_TOTAL: u64 = 100_000;
const SPEC: &str = "245000:5000:5000";

/// The stream span a sampled run covers (detailed + skipped + warmed):
/// 20 windows, 19 fast-forward/warm gaps.
const SPAN: u64 = DETAILED_TOTAL + 19 * 245_000 + 19 * 5_000;

fn sampling() -> SamplingConfig {
    SamplingConfig::parse(SPEC).expect("pinned spec parses")
}

fn provenance(configs: &[&SystemConfig]) -> Provenance {
    Provenance {
        scale: format!("{:?}", Scale::Small),
        warmup: WARMUP,
        instructions: DETAILED_TOTAL,
        seed: vm_types::DEFAULT_SEED,
        engine: sim::ENGINE_ID.to_owned(),
        configs: configs.iter().map(|c| c.name.clone()).collect(),
        workloads: WORKLOADS.iter().map(|&w| w.to_owned()).collect(),
    }
}

fn sampled_specs(cfgs: &[SystemConfig]) -> Vec<RunSpec> {
    cfgs.iter()
        .flat_map(|cfg| {
            WORKLOADS.iter().map(move |&w| {
                RunSpec::new(w, cfg.clone(), Scale::Small, WARMUP, DETAILED_TOTAL).with_sampling(sampling())
            })
        })
        .collect()
}

/// The Small-scale sampled Victima-vs-radix comparison (checked).
pub fn run(ctx: &ExpCtx) -> Vec<ExperimentReport> {
    let cfgs = [SystemConfig::radix(), SystemConfig::victima()];
    let results = ctx.run_batch(sampled_specs(&cfgs));
    let (radix, victima) = results.split_at(WORKLOADS.len());

    let mut r =
        ExperimentReport::new("sampled_small", "Victima vs. radix at Small scale under SMARTS sampling")
            .with_columns([
                Column::new("Radix IPC", Unit::Ipc),
                Column::new("Victima IPC", Unit::Ipc),
                Column::new("speedup", Unit::Factor),
                Column::new("Radix ±CI95", Unit::Ipc),
                Column::new("Victima ±CI95", Unit::Ipc),
            ])
            .with_provenance(provenance(&[&cfgs[0], &cfgs[1]]));

    let mut speedups = Vec::new();
    for (i, &w) in WORKLOADS.iter().enumerate() {
        let (r0, r1) = (&radix[i].stats, &victima[i].stats);
        let speedup = r1.ipc() / r0.ipc();
        speedups.push(speedup);
        let ci = |s: &SimStats| s.sampling.as_ref().map_or(0.0, |m| m.ipc_ci95);
        r.push_row(
            w,
            [
                Value::from(r0.ipc()),
                Value::from(r1.ipc()),
                Value::from(speedup),
                Value::from(ci(r0)),
                Value::from(ci(r1)),
            ],
        );
    }
    r.push_metric(Metric::new("victima_speedup_gmean", geomean(&speedups), Unit::Factor));
    let meta = radix[0].stats.sampling.as_ref().expect("sampled run carries sampling meta");
    r.push_metric(Metric::new("sampling_periods", meta.periods as f64, Unit::Count));
    r.push_metric(Metric::new(
        "detail_fraction",
        (meta.measured_instructions + meta.warm_instructions) as f64
            / (meta.measured_instructions + meta.warm_instructions + meta.skipped_instructions) as f64,
        Unit::Percent,
    ));
    r.note(format!("SMARTS spec {SPEC} (fast:detailed:warm), {WARMUP} warm-up, ~{SPAN}-instruction span"));
    r.note("the paper's ranking (Victima ≥ radix on TLB-stressed workloads) must survive sampling");
    vec![r]
}

/// Wall-clock speedup of sampling vs. full detail over the same
/// Small-scale stream span (unchecked: it reports time).
pub fn speedup(ctx: &ExpCtx) -> Vec<ExperimentReport> {
    let cfgs = [SystemConfig::radix(), SystemConfig::victima()];
    let sampled = ctx.run_batch(sampled_specs(&cfgs));
    let full: Vec<RunSpec> = cfgs
        .iter()
        .flat_map(|cfg| {
            WORKLOADS.iter().map(move |&w| RunSpec::new(w, cfg.clone(), Scale::Small, WARMUP, SPAN))
        })
        .collect();
    let full = ctx.run_batch(full);

    let mut r = ExperimentReport::new(
        "sampling_speedup",
        "Sampling wall-clock speedup vs. full detail (Small scale)",
    )
    .with_columns([
        Column::new("full s", Unit::Raw),
        Column::new("sampled s", Unit::Raw),
        Column::new("speedup", Unit::Factor),
        Column::new("full IPC", Unit::Ipc),
        Column::new("sampled IPC", Unit::Ipc),
        Column::new("IPC err", Unit::Percent),
    ])
    .with_provenance(provenance(&[&cfgs[0], &cfgs[1]]));
    let mut speedups = Vec::new();
    let mut errs = Vec::new();
    for (f, s) in full.iter().zip(&sampled) {
        let label = format!("{} {}", f.config_name, f.workload);
        let speedup = f.wall.as_secs_f64() / s.wall.as_secs_f64().max(1e-9);
        let err = (s.stats.ipc() - f.stats.ipc()).abs() / f.stats.ipc();
        speedups.push(speedup);
        errs.push(err);
        r.push_row(
            label,
            [
                Value::from(f.wall.as_secs_f64()),
                Value::from(s.wall.as_secs_f64()),
                Value::from(speedup),
                Value::from(f.stats.ipc()),
                Value::from(s.stats.ipc()),
                Value::from(err),
            ],
        );
    }
    r.push_metric(Metric::new("speedup_gmean", geomean(&speedups), Unit::Factor));
    r.push_metric(Metric::new("ipc_err_max", errs.iter().cloned().fold(0.0, f64::max), Unit::Percent));
    r.note(format!("both sides cover the same ~{SPAN}-instruction span; sampling runs {SPEC}"));
    r.note("wall-clock varies by machine — this artifact is informational, never a --check baseline");
    vec![r]
}
