//! Simulator-side observability: the `sim.*` metric view and the
//! engine's enablement knob.
//!
//! The metrics are a view over the measured window, not a second set of
//! counters. The translation path counts each event once, in
//! [`crate::stats::SimStats`] or the always-on `WalkProfile`: the TLBs,
//! walkers, POM-TLB and Victima engine keep no counters of their own,
//! and cache events come from `mem_sim::CacheStats`.
//! [`crate::system::System::finalize_stats`] reads those counts into one
//! table of readings (`window_readings`) and folds it into the
//! [`SimMetrics`] totals. So `sim.*` covers exactly the instructions
//! `SimStats` covers — warm-up and the sampling loop's warm windows
//! excluded — in every exec mode, and a disabled run pays nothing beyond
//! the walk profile's few adds per walk. Counters and histograms sum over
//! finalized windows; gauges are read at finalize and keep their
//! high-water mark across windows (workloads allocate no frames after
//! set-up).
//!
//! [`crate::stats::SimStats`] remains the sole source of `--check`
//! truth; nothing here feeds a fingerprint or a baseline artifact.
//!
//! # Metric naming
//!
//! Dotted lowercase paths, `sim.`-rooted: `sim.<component>.<event>`
//! (counters), with histograms named after the observed quantity
//! (`sim.ptw.depth` observes per-walk memory accesses). The daemon's
//! registry uses the `svc.` root; see DESIGN.md "Observability".

use crate::system::System;
use mem_sim::CacheStats;
use obs::{HistSnapshot, MetricValue};

/// Whether (and how much of) the observability layer a run enables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// No metrics, no tracing: the observability handles stay `None`.
    #[default]
    Off,
    /// `sim.*` metrics only (the throughput-bench configuration).
    Metrics,
    /// Metrics plus phase-span tracing.
    Full,
}

impl ObsMode {
    /// Reads the `VICTIMA_OBS` environment knob: unset, empty, `0` or
    /// `off` → [`ObsMode::Off`]; `metrics` → [`ObsMode::Metrics`];
    /// anything else (`1`, `full`, `trace`) → [`ObsMode::Full`].
    pub fn from_env() -> Self {
        match std::env::var("VICTIMA_OBS").as_deref() {
            Err(_) | Ok("") | Ok("0") | Ok("off") => ObsMode::Off,
            Ok("metrics") => ObsMode::Metrics,
            Ok(_) => ObsMode::Full,
        }
    }

    /// Whether `sim.*` metrics are collected.
    pub fn metrics_enabled(self) -> bool {
        self != ObsMode::Off
    }

    /// Whether phase spans are collected.
    pub fn tracing_enabled(self) -> bool {
        self == ObsMode::Full
    }
}

/// Translation-path counts and walk distributions that
/// [`crate::stats::SimStats`] does not keep, recorded unconditionally on
/// the miss path and reset with the stats.
#[derive(Clone, Debug, Default)]
pub(crate) struct WalkProfile {
    /// I-TLB misses.
    pub itlb_misses: u64,
    /// One-dimensional demand walks that touched DRAM (the numerator of
    /// [`crate::stats::SimStats::ptw_dram_fraction`]).
    pub dram_walks: u64,
    /// Demand walks largely served by the page-walk caches.
    pub pwc_hits: u64,
    /// Demand walks that touched the full radix depth.
    pub pwc_misses: u64,
    /// Memory accesses per demand walk (walk depth).
    pub depth: HistSnapshot,
    /// Demand-walk latency in cycles.
    pub latency: HistSnapshot,
    /// Total L2-TLB-miss resolution latency in cycles (data side).
    pub l2_miss_latency: HistSnapshot,
}

/// The `sim.*` totals over every finalized window. Boxed behind
/// `Option` on [`crate::system::System`]; empty until the first
/// [`crate::system::System::finalize_stats`], which folds each window in
/// with [`obs::merge_snapshots`]: counters and histograms add, gauges
/// keep their high-water mark.
#[derive(Debug, Default)]
pub struct SimMetrics {
    pub(crate) totals: Vec<(String, MetricValue)>,
}

impl SimMetrics {
    /// Every metric, in reading order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.totals.clone()
    }
}

/// The window's readings: one row per `sim.*` metric, read off
/// `SimStats`, the walk profile, the cache stats and the frame pool. Call after the window's stats are final.
pub(crate) fn window_readings(sys: &System) -> Vec<(String, MetricValue)> {
    let s = &sys.stats;
    let w = &sys.walks;
    let counters = [
        ("sim.tlb.l1.hit", s.l1_tlb_hits),
        ("sim.tlb.l1.miss", s.l1_tlb_misses),
        ("sim.tlb.l2.hit", s.l2_tlb_hits),
        ("sim.tlb.l2.miss", s.l2_tlb_misses),
        ("sim.tlb.itlb.miss", w.itlb_misses),
        ("sim.tlb.l3.hit", s.l3_tlb_hits),
        ("sim.victima.hit", s.victima_hits),
        ("sim.victima.insert", s.victima_inserts),
        ("sim.victima.bg_walk", s.victima_background_walks),
        ("sim.pom.hit", s.pom_hits),
        ("sim.pom.miss", s.pom_misses),
        ("sim.ptw.walks", s.ptws),
        ("sim.pwc.hit", w.pwc_hits),
        ("sim.pwc.miss", w.pwc_misses),
        ("sim.host.walks", s.host_ptws),
        ("sim.host.translations", s.host_translations),
        ("sim.nested.tlb.hit", s.nested_tlb_hits),
        ("sim.nested.block.hit", s.nested_block_hits),
    ];
    let histograms = [
        ("sim.ptw.depth", &w.depth),
        ("sim.ptw.latency", &w.latency),
        ("sim.tlb.l2_miss_latency", &w.l2_miss_latency),
    ];
    let mut rows: Vec<(String, MetricValue)> = counters
        .into_iter()
        .map(|(n, v)| (n.to_owned(), MetricValue::Counter(v)))
        .chain(histograms.into_iter().map(|(n, h)| (n.to_owned(), MetricValue::Histogram(h.clone()))))
        .collect();
    let l3 = sys.hier.l3();
    let levels = [("l1d", sys.hier.l1d()), ("l2", sys.hier.l2()), ("l3", &*l3)];
    for (group, event, read) in [
        ("cache", "hit", (|c| c.hits) as fn(&CacheStats) -> u64),
        ("cache", "miss", |c| c.misses),
        ("prefetch", "fill", |c| c.prefetch_fills),
    ] {
        for (level, cache) in levels {
            rows.push((format!("sim.{group}.{level}.{event}"), MetricValue::Counter(read(&cache.stats))));
        }
    }
    let (used, free) = sys.proc.memory.frames();
    rows.push(("sim.frames.used".to_owned(), MetricValue::Gauge(used)));
    rows.push(("sim.frames.free".to_owned(), MetricValue::Gauge(free)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_mode_gates_metrics_and_tracing() {
        assert!(!ObsMode::Off.metrics_enabled());
        assert!(ObsMode::Metrics.metrics_enabled());
        assert!(!ObsMode::Metrics.tracing_enabled());
        assert!(ObsMode::Full.metrics_enabled());
        assert!(ObsMode::Full.tracing_enabled());
    }
}
