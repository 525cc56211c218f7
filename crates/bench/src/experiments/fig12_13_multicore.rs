//! Figs. 12–13: multi-programmed multi-core results. Each mix runs one
//! process per core (pinned, quantum-interleaved) over a shared LLC and
//! frame pool; radix, POM-TLB and Victima are compared by weighted
//! speedup — each process's co-running IPC over its alone-run IPC on the
//! radix baseline (alone runs are shared with the other figures through
//! the run cache). Per-core translation pressure (L2 TLB MPKI, mean PTW
//! latency) rides along in the row data.

use crate::{Column, ExpCtx, ExperimentReport, Metric, Unit, Value};
use sim::multicore::{run_mix_pinned, MixRunResult};
use sim::{weighted_speedup, SystemConfig};
use vm_types::geomean;
use workloads::mixes::{Mix, MIXES_2, MIXES_4};

/// Scheduler quantum for the mix runs: fine enough to interleave LLC
/// traffic, coarse enough to stay cheap.
const QUANTUM: u64 = 1_000;

fn mechanisms() -> Vec<SystemConfig> {
    vec![SystemConfig::radix(), SystemConfig::pom_tlb(), SystemConfig::victima()]
}

/// Fig. 12: 2-core mixes.
pub fn fig12(ctx: &ExpCtx) -> Vec<ExperimentReport> {
    vec![run_fig(ctx, "fig12", "Weighted speedup of 2-core mixes (shared LLC)", &MIXES_2)]
}

/// Fig. 13: 4-core mixes.
pub fn fig13(ctx: &ExpCtx) -> Vec<ExperimentReport> {
    vec![run_fig(ctx, "fig13", "Weighted speedup of 4-core mixes (shared LLC)", &MIXES_4)]
}

fn run_fig(ctx: &ExpCtx, id: &str, title: &str, mixes: &[Mix]) -> ExperimentReport {
    let mechs = mechanisms();
    let (scale, warmup, instructions) = ctx.budget();

    // Every (mix, mechanism) pair fans out over the engine's worker pool;
    // one mix run is itself a deterministic single-threaded simulation.
    let pairs: Vec<(&Mix, SystemConfig)> =
        mixes.iter().flat_map(|m| mechs.iter().map(move |c| (m, c.clone()))).collect();
    let results: Vec<MixRunResult> = ctx
        .engine()
        .map(pairs, |_, (mix, cfg)| run_mix_pinned(cfg, mix, scale, QUANTUM, warmup, instructions));

    // Alone-run IPCs (radix baseline, single core) come from the radix
    // suite — one parallel batch, shared with the native figures through
    // the run cache.
    let radix = SystemConfig::radix();
    ctx.suite(&radix);
    let alone_ipc = |workload: &'static str| ctx.one(&radix, workload).ipc();

    let mut provenance = ctx.provenance(mechs.iter());
    provenance.workloads = mixes.iter().map(|m| m.name.to_owned()).collect();
    let mut r = ExperimentReport::new(id, title)
        .with_columns([
            Column::text("system"),
            Column::new("weighted speedup", Unit::Factor),
            Column::new("avg core L2TLB MPKI", Unit::Mpki),
            Column::new("mean PTW latency", Unit::Cycles),
            Column::new("throughput (sum IPC)", Unit::Ipc),
        ])
        .with_provenance(provenance);

    // Weighted speedups per (mix, mechanism), mechanism-major for GMEANs.
    let mut ws_by_mech: Vec<Vec<f64>> = vec![Vec::new(); mechs.len()];
    for (pi, res) in results.iter().enumerate() {
        let (mi, ci) = (pi / mechs.len(), pi % mechs.len());
        let mix = &mixes[mi];
        let multi: Vec<f64> = res.procs.iter().map(|p| p.ipc).collect();
        let alone: Vec<f64> = res.procs.iter().map(|p| alone_ipc(p.workload)).collect();
        let ws = weighted_speedup(&multi, &alone);
        ws_by_mech[ci].push(ws);
        let cores = res.cores.len() as f64;
        let mpki = res.cores.iter().map(|c| c.l2_tlb_mpki()).sum::<f64>() / cores;
        let walk = res.cores.iter().map(|c| c.ptw_latency_mean).sum::<f64>() / cores;
        let throughput: f64 = multi.iter().sum();
        r.push_row(
            mix.name,
            [
                Value::from(res.config_name.as_str()),
                Value::from(ws),
                Value::from(mpki),
                Value::from(walk),
                Value::from(throughput),
            ],
        );
    }

    for (cfg, series) in mechs.iter().zip(&ws_by_mech) {
        r.push_metric(Metric::new(format!("gmean_ws/{}", cfg.name), geomean(series), Unit::Factor));
    }
    let victima_ws = &ws_by_mech[2];
    let radix_ws = &ws_by_mech[0];
    let wins = victima_ws.iter().zip(radix_ws).filter(|(v, r)| v >= r).count();
    r.push_metric(Metric::new("victima_wins_vs_radix", wins as f64, Unit::Count).with_tolerance(0.0));
    let gain: Vec<f64> = victima_ws.iter().zip(radix_ws).map(|(v, r)| v / r).collect();
    r.push_metric(Metric::new("gmean_victima_vs_radix", geomean(&gain), Unit::Factor));
    r.note(
        "weighted speedup = mean(IPC_mix / IPC_alone-on-radix); paper: Victima's gains grow with \
         core count as co-runners fight over the shared LLC",
    );
    r
}
