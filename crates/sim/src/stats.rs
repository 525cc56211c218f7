//! End-of-run statistics: everything the paper's figures read off.

use vm_types::{Histogram, ReuseHistogram};

/// How a sampled run's statistics were put together (SMARTS-style
/// interval sampling; see `sim::sampling`). Attached to [`SimStats`]
/// so artifacts record that the numbers are estimates, with how much of
/// the run was measured in detail and how tight the estimate is.
#[derive(Clone, Debug, PartialEq)]
pub struct SamplingMeta {
    /// Detailed measurement windows taken.
    pub periods: u64,
    /// Instructions simulated in detail (sum of the windows; equals
    /// `SimStats::instructions` of the aggregate).
    pub measured_instructions: u64,
    /// Instructions advanced functionally (fast-forward, no timing).
    pub skipped_instructions: u64,
    /// Instructions run in detailed warm-up before each window
    /// (timing discarded; repairs microarchitectural state after each
    /// functional interval).
    pub warm_instructions: u64,
    /// Mean per-window IPC.
    pub ipc_mean: f64,
    /// Half-width of the 95% confidence interval on the window IPC
    /// (`1.96·s/√n`); zero when fewer than two windows were taken.
    pub ipc_ci95: f64,
}

/// Aggregate statistics of one simulation run.
///
/// `PartialEq` compares every counter and distribution exactly — the
/// batch engine's determinism tests rely on byte-identical stats across
/// worker counts.
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    /// Instructions executed (memory + gap instructions).
    pub instructions: u64,
    /// Memory references processed.
    pub mem_refs: u64,
    cycles_f: f64,
    /// Raw translation latency accumulated (pre-exposure).
    pub translation_cycles: u64,
    /// Raw exposed data-stall latency accumulated (pre-exposure factor).
    pub data_cycles: u64,

    /// L1 D-TLB hits (either page size).
    pub l1_tlb_hits: u64,
    /// L1 D-TLB misses.
    pub l1_tlb_misses: u64,
    /// L2 TLB hits.
    pub l2_tlb_hits: u64,
    /// L2 TLB misses.
    pub l2_tlb_misses: u64,
    /// Hardware L3 TLB hits (when configured).
    pub l3_tlb_hits: u64,

    /// Page-table walks (guest-side 2D walks in virtualised mode).
    pub ptws: u64,
    /// Host page-table walks (virtualised mode only).
    pub host_ptws: u64,
    /// Host translations requested during walks / after TLB-block hits
    /// (nested-TLB probes, virtualised mode).
    pub host_translations: u64,
    /// Nested TLB hits.
    pub nested_tlb_hits: u64,
    /// Nested TLB-block (L2 cache) hits.
    pub nested_block_hits: u64,

    /// Total latency of L2-TLB-miss handling (Fig. 9/22/29 numerator).
    pub l2_miss_latency_sum: u64,
    /// ... the POM-TLB lookup component.
    pub l2_miss_pom_component: u64,
    /// ... the L2-cache (Victima TLB-block probe hit) component.
    pub l2_miss_cache_component: u64,
    /// ... the radix-walk component (guest side in virtualised mode).
    pub l2_miss_walk_component: u64,
    /// ... the host-side component (virtualised mode).
    pub l2_miss_host_component: u64,

    /// POM-TLB lookups that hit.
    pub pom_hits: u64,
    /// POM-TLB lookups that missed.
    pub pom_misses: u64,
    /// Victima TLB-block probe hits on the translation path.
    pub victima_hits: u64,
    /// Victima background walks issued by the eviction flow.
    pub victima_background_walks: u64,
    /// Victima TLB blocks inserted.
    pub victima_inserts: u64,

    /// PTW latency distribution (Fig. 4 buckets).
    pub ptw_latency_hist: Histogram,
    /// Mean PTW latency.
    pub ptw_latency_mean: f64,
    /// Fraction of walks that touched DRAM.
    pub ptw_dram_fraction: f64,

    /// L2 cache data-block reuse at eviction (Fig. 11).
    pub l2_data_reuse: ReuseHistogram,
    /// L2 cache TLB-block reuse at eviction (Fig. 24).
    pub l2_tlb_block_reuse: ReuseHistogram,

    /// Mean translation reach provided by TLB blocks in the L2, bytes
    /// (Fig. 23).
    pub reach_mean_bytes: f64,
    /// Peak reach sample.
    pub reach_max_bytes: u64,

    /// Present when these stats were aggregated from sampled detailed
    /// windows rather than one contiguous measured run (`None` for
    /// full-detail runs, so existing baselines compare unchanged).
    pub sampling: Option<SamplingMeta>,
}

impl Default for SimStats {
    fn default() -> Self {
        Self {
            instructions: 0,
            mem_refs: 0,
            cycles_f: 0.0,
            translation_cycles: 0,
            data_cycles: 0,
            l1_tlb_hits: 0,
            l1_tlb_misses: 0,
            l2_tlb_hits: 0,
            l2_tlb_misses: 0,
            l3_tlb_hits: 0,
            ptws: 0,
            host_ptws: 0,
            host_translations: 0,
            nested_tlb_hits: 0,
            nested_block_hits: 0,
            l2_miss_latency_sum: 0,
            l2_miss_pom_component: 0,
            l2_miss_cache_component: 0,
            l2_miss_walk_component: 0,
            l2_miss_host_component: 0,
            pom_hits: 0,
            pom_misses: 0,
            victima_hits: 0,
            victima_background_walks: 0,
            victima_inserts: 0,
            ptw_latency_hist: Histogram::new(20, 10, 17),
            ptw_latency_mean: 0.0,
            ptw_dram_fraction: 0.0,
            l2_data_reuse: ReuseHistogram::new(),
            l2_tlb_block_reuse: ReuseHistogram::new(),
            reach_mean_bytes: 0.0,
            reach_max_bytes: 0,
            sampling: None,
        }
    }
}

impl SimStats {
    /// Adds core cycles (floating-point accumulation).
    #[inline]
    pub fn add_cycles(&mut self, c: f64) {
        self.cycles_f += c;
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles_f.round() as u64
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles_f == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles_f
        }
    }

    /// L2 TLB misses per kilo-instruction (Fig. 5's metric).
    pub fn l2_tlb_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_tlb_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Mean L2-TLB-miss handling latency (Figs. 9/22/29).
    pub fn l2_miss_latency(&self) -> f64 {
        if self.l2_tlb_misses == 0 {
            0.0
        } else {
            self.l2_miss_latency_sum as f64 / self.l2_tlb_misses as f64
        }
    }

    /// Fraction of execution cycles spent on address translation: the
    /// translation cycles the core exposes (scaled by `t_expose`) over
    /// all cycles (0 when no cycles ran).
    pub fn translation_cycle_share(&self, t_expose: f64) -> f64 {
        if self.cycles_f == 0.0 {
            0.0
        } else {
            self.translation_cycles as f64 * t_expose / self.cycles_f
        }
    }

    /// Speedup of `self` relative to `baseline` (execution-time ratio for
    /// the same instruction count).
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        let self_cpi = self.cycles_f / self.instructions.max(1) as f64;
        let base_cpi = baseline.cycles_f / baseline.instructions.max(1) as f64;
        if self_cpi == 0.0 {
            1.0
        } else {
            base_cpi / self_cpi
        }
    }

    /// Fractional reduction of `self.ptws` relative to `baseline`.
    pub fn ptw_reduction_vs(&self, baseline: &SimStats) -> f64 {
        reduction(self.normalized(self.ptws), baseline.normalized(baseline.ptws))
    }

    /// Fractional reduction of host PTWs relative to `baseline`.
    pub fn host_ptw_reduction_vs(&self, baseline: &SimStats) -> f64 {
        reduction(self.normalized(self.host_ptws), baseline.normalized(baseline.host_ptws))
    }

    fn normalized(&self, count: u64) -> f64 {
        count as f64 / self.instructions.max(1) as f64
    }

    /// Folds one finalized detailed-window's stats into this aggregate
    /// (the `sim::sampling` accumulator). Counters and distributions
    /// sum/merge; derived means (`ptw_latency_mean`, `ptw_dram_fraction`,
    /// `reach_mean_bytes`) combine weighted by their window's population
    /// so the aggregate equals what one long run over the same windows
    /// would report.
    ///
    /// # Panics
    ///
    /// Panics if the histograms' geometries differ (they never do: every
    /// window uses the default [`SimStats`] geometry).
    pub fn absorb_window(&mut self, w: &SimStats) {
        // Weighted means first — they need the pre-absorption counts.
        let ptws = (self.ptws + w.ptws).max(1) as f64;
        self.ptw_latency_mean =
            (self.ptw_latency_mean * self.ptws as f64 + w.ptw_latency_mean * w.ptws as f64) / ptws;
        self.ptw_dram_fraction =
            (self.ptw_dram_fraction * self.ptws as f64 + w.ptw_dram_fraction * w.ptws as f64) / ptws;
        let instrs = (self.instructions + w.instructions).max(1) as f64;
        self.reach_mean_bytes = (self.reach_mean_bytes * self.instructions as f64
            + w.reach_mean_bytes * w.instructions as f64)
            / instrs;
        self.reach_max_bytes = self.reach_max_bytes.max(w.reach_max_bytes);

        self.instructions += w.instructions;
        self.mem_refs += w.mem_refs;
        self.cycles_f += w.cycles_f;
        self.translation_cycles += w.translation_cycles;
        self.data_cycles += w.data_cycles;
        self.l1_tlb_hits += w.l1_tlb_hits;
        self.l1_tlb_misses += w.l1_tlb_misses;
        self.l2_tlb_hits += w.l2_tlb_hits;
        self.l2_tlb_misses += w.l2_tlb_misses;
        self.l3_tlb_hits += w.l3_tlb_hits;
        self.ptws += w.ptws;
        self.host_ptws += w.host_ptws;
        self.host_translations += w.host_translations;
        self.nested_tlb_hits += w.nested_tlb_hits;
        self.nested_block_hits += w.nested_block_hits;
        self.l2_miss_latency_sum += w.l2_miss_latency_sum;
        self.l2_miss_pom_component += w.l2_miss_pom_component;
        self.l2_miss_cache_component += w.l2_miss_cache_component;
        self.l2_miss_walk_component += w.l2_miss_walk_component;
        self.l2_miss_host_component += w.l2_miss_host_component;
        self.pom_hits += w.pom_hits;
        self.pom_misses += w.pom_misses;
        self.victima_hits += w.victima_hits;
        self.victima_background_walks += w.victima_background_walks;
        self.victima_inserts += w.victima_inserts;
        self.ptw_latency_hist.merge(&w.ptw_latency_hist);
        self.l2_data_reuse.merge(&w.l2_data_reuse);
        self.l2_tlb_block_reuse.merge(&w.l2_tlb_block_reuse);
    }
}

fn reduction(ours: f64, theirs: f64) -> f64 {
    if theirs == 0.0 {
        0.0
    } else {
        1.0 - ours / theirs
    }
}

/// Weighted speedup of a multi-programmed run: the mean of each process's
/// co-running IPC over its alone-run IPC (Snavely & Tullsen's metric; the
/// Figs. 12–13 y-axis). 1.0 means no contention loss; `alone_ipc` entries
/// of zero contribute zero.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn weighted_speedup(multi_ipc: &[f64], alone_ipc: &[f64]) -> f64 {
    assert_eq!(multi_ipc.len(), alone_ipc.len(), "one alone-run IPC per process");
    assert!(!multi_ipc.is_empty(), "weighted speedup of zero processes");
    let sum: f64 = multi_ipc.iter().zip(alone_ipc).map(|(&m, &a)| if a == 0.0 { 0.0 } else { m / a }).sum();
    sum / multi_ipc.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_accounting_and_ipc() {
        let mut s = SimStats { instructions: 4000, ..SimStats::default() };
        s.add_cycles(1000.0);
        s.add_cycles(1000.0);
        assert_eq!(s.cycles(), 2000);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mpki_math() {
        let s = SimStats { instructions: 1_000_000, l2_tlb_misses: 39_000, ..SimStats::default() };
        assert!((s.l2_tlb_mpki() - 39.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_cpi_ratio() {
        let mut base = SimStats { instructions: 1000, ..SimStats::default() };
        base.add_cycles(2000.0);
        let mut fast = SimStats { instructions: 1000, ..SimStats::default() };
        fast.add_cycles(1000.0);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
        assert!((base.speedup_over(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reductions_normalise_by_instructions() {
        let base = SimStats { instructions: 1000, ptws: 100, host_ptws: 400, ..SimStats::default() };
        let ours = SimStats { instructions: 2000, ptws: 100, host_ptws: 8, ..SimStats::default() };
        // Same PTW count over twice the instructions = 50% reduction.
        assert!((ours.ptw_reduction_vs(&base) - 0.5).abs() < 1e-12);
        assert!(ours.host_ptw_reduction_vs(&base) > 0.98);
    }

    #[test]
    fn miss_latency_handles_zero_misses() {
        let s = SimStats::default();
        assert_eq!(s.l2_miss_latency(), 0.0);
    }

    #[test]
    fn weighted_speedup_is_mean_of_ipc_ratios() {
        // Two processes at half their alone IPC, one unimpeded.
        let ws = weighted_speedup(&[1.0, 0.5, 2.0], &[2.0, 1.0, 2.0]);
        assert!((ws - (0.5 + 0.5 + 1.0) / 3.0).abs() < 1e-12);
        // Zero alone-IPC degrades gracefully.
        assert_eq!(weighted_speedup(&[1.0], &[0.0]), 0.0);
    }
}
