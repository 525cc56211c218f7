//! Calibration probe (not a paper figure): per-workload baseline vitals
//! used to check that the simulator sits in the paper's operating regime
//! (Sec. 3: average L2 TLB MPKI ≈ 39, mean PTW latency ≈ 137 cycles,
//! ≈ 30% of cycles on translation).

use crate::{Column, ExpCtx, ExperimentReport, Metric, Unit, Value};
use sim::SystemConfig;
use vm_types::geomean;
use workloads::registry::WORKLOAD_NAMES;

/// Runs the baseline and reports per-workload vitals.
pub fn run(ctx: &ExpCtx) -> Vec<ExperimentReport> {
    let cfg = SystemConfig::radix();
    let stats = ctx.suite(&cfg);
    let mut r = ExperimentReport::new("calibrate", "Baseline (Radix) vitals per workload")
        .with_columns([
            Column::new("instr", Unit::Count),
            Column::new("refs", Unit::Count),
            Column::new("IPC", Unit::Ipc),
            Column::new("L1TLB-miss%", Unit::Percent),
            Column::new("L2TLB-MPKI", Unit::Mpki),
            Column::new("PTWs", Unit::Count),
            Column::new("PTW-mean", Unit::Cycles),
            Column::new("transl-share", Unit::Percent),
            Column::new("L2$-miss-lat", Unit::Cycles),
        ])
        .with_provenance(ctx.provenance([&cfg]));
    let mut mpkis = Vec::new();
    let mut shares = Vec::new();
    let mut ptw_means = Vec::new();
    for (name, s) in WORKLOAD_NAMES.iter().zip(&stats) {
        let share = s.translation_cycle_share(cfg.timing.t_expose);
        mpkis.push(s.l2_tlb_mpki());
        shares.push(share);
        if s.ptw_latency_mean > 0.0 {
            ptw_means.push(s.ptw_latency_mean);
        }
        r.push_row(
            *name,
            [
                Value::from(s.instructions),
                Value::from(s.mem_refs),
                Value::from(s.ipc()),
                Value::from(s.l1_tlb_misses as f64 / (s.l1_tlb_hits + s.l1_tlb_misses).max(1) as f64),
                Value::from(s.l2_tlb_mpki()),
                Value::from(s.ptws),
                Value::from(s.ptw_latency_mean),
                Value::from(share),
                Value::from(s.l2_miss_latency()),
            ],
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.push_metric(Metric::new("avg_l2_tlb_mpki", avg(&mpkis), Unit::Mpki));
    r.push_metric(Metric::new("mean_ptw_latency", avg(&ptw_means), Unit::Cycles));
    r.push_metric(Metric::new("avg_translation_share", avg(&shares), Unit::Percent));
    r.push_metric(Metric::new(
        "gmean_ipc",
        geomean(&stats.iter().map(|s| s.ipc()).collect::<Vec<_>>()),
        Unit::Ipc,
    ));
    r.note("paper operating regime: avg L2 TLB MPKI ≈ 39, mean PTW latency ≈ 137, translation share ≈ 30%");
    vec![r]
}
