//! SMARTS-style interval sampling (Wunderlich et al., ISCA 2003):
//! alternate short *detailed* measurement windows with long *functional*
//! fast-forward intervals, and aggregate the windows into one
//! [`SimStats`] with a confidence interval on the per-window IPC.
//!
//! The schedule is `U:D[:W]` — fast-forward `U` instructions, then run
//! `W` instructions of detailed warm-up (timing discarded; repairs the
//! small structures functional mode skips: L1 TLBs, caches, PWCs,
//! prefetchers), then measure `D` instructions in full detail. The run
//! opens with the caller's ordinary warm-up and its first window starts
//! immediately after, so a `U:D` run with one window degenerates to a
//! plain `run_with_warmup`.
//!
//! Each fast-forward interval is itself split in two: a pure *skip*
//! ([`System::skip`]: stream advancement only, no simulation — sound
//! because the page table cannot change while no instructions retire;
//! whole generator batches are jumped with
//! [`workloads::Workload::advance`] instead of generated, and the skip
//! stops on exactly the reference a generate-and-drop loop would)
//! followed by a [`FUNC_WARM`]-instruction functional-warming tail
//! ([`System::fast_forward`]) that rebuilds the L2 TLB's contents
//! before the window. The tail covers the TLB's reach many times over,
//! so the structure detailed warm-up cannot repair is warm again.
//!
//! Honesty contract: fast-forwarding advances the L2 TLB and the
//! stream but not the rest of the machine, so sampled statistics
//! are estimates. The differential harness (`tests/sampling.rs`) bounds
//! the estimate against full-detail references for every workload; the
//! aggregate carries a [`SamplingMeta`] so artifacts can never pass a
//! sampled number off as an exact one.

use crate::stats::{SamplingMeta, SimStats};
use crate::system::System;

/// Functional-warming tail of each fast-forward interval, in
/// instructions: the stretch immediately before a window's detailed
/// warm-up during which [`System::fast_forward`] fills the L2 TLB;
/// anything earlier is a pure [`System::skip`]. 50K instructions is
/// ~12K references — the paper's 1536-entry L2 TLB is refilled several
/// times over even by a workload that touches a new page every
/// reference.
pub const FUNC_WARM: u64 = 50_000;

/// A sampling schedule: instruction counts for the three interval
/// phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Functional fast-forward instructions per interval (`U`).
    pub fast: u64,
    /// Detailed measured instructions per window (`D`).
    pub detailed: u64,
    /// Detailed warm-up instructions after each fast-forward (`W`).
    pub warm: u64,
}

impl SamplingConfig {
    /// Parses the CLI spelling `U:D` or `U:D:W` (instruction counts;
    /// `W` defaults to `D/2`) and validates the schedule up front
    /// ([`SamplingConfig::validate`]), so malformed flags surface as a
    /// friendly CLI error instead of a panic mid-run.
    ///
    /// # Examples
    ///
    /// ```
    /// use sim::sampling::SamplingConfig;
    /// let c = SamplingConfig::parse("100000:5000").unwrap();
    /// assert_eq!((c.fast, c.detailed, c.warm), (100_000, 5_000, 2_500));
    /// assert!(SamplingConfig::parse("1000:5000").is_err()); // U < D
    /// ```
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!("bad sampling spec {s:?}: expected U:D or U:D:W"));
        }
        let num = |p: &str, what: &str| {
            p.parse::<u64>().map_err(|_| format!("bad sampling spec {s:?}: {what} {p:?} is not a number"))
        };
        let fast = num(parts[0], "fast-forward interval")?;
        let detailed = num(parts[1], "detailed window")?;
        let warm = match parts.get(2) {
            Some(p) => num(p, "warm-up window")?,
            None => detailed / 2,
        };
        let cfg = Self { fast, detailed, warm };
        cfg.validate().map_err(|e| format!("bad sampling spec {s:?}: {e}"))?;
        Ok(cfg)
    }

    /// Checks the schedule is meaningful: the detailed window `D` must be
    /// positive (a zero-width window would measure nothing and never make
    /// progress) and the fast-forward interval `U` must be at least `D` —
    /// a schedule that skips less than it measures is not sampling, and
    /// the estimate contract (detail fraction `D/(U+D+W)` well under 1)
    /// silently breaks. Direct struct construction stays unchecked so
    /// tests can build degenerate schedules deliberately.
    pub fn validate(&self) -> Result<(), String> {
        if self.detailed == 0 {
            return Err("detailed window D must be positive".to_owned());
        }
        if self.fast < self.detailed {
            return Err(format!(
                "fast-forward interval U ({}) must be at least the detailed window D ({}) — \
                 a schedule measuring more than it skips is not sampling; run full detail instead",
                self.fast, self.detailed
            ));
        }
        Ok(())
    }

    /// The canonical `U:D:W` rendering.
    pub fn spec(&self) -> String {
        format!("{}:{}:{}", self.fast, self.detailed, self.warm)
    }
}

/// 95% normal-approximation confidence half-width of a sample mean
/// (`1.96·s/√n`, sample standard deviation; 0 for fewer than two
/// samples).
fn ci95(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    1.96 * var.sqrt() / (n as f64).sqrt()
}

/// Runs `sys` with interval sampling: ordinary `warmup`, then detailed
/// windows of `cfg.detailed` instructions separated by
/// `cfg.fast`-instruction functional intervals (each followed by
/// `cfg.warm` detailed warm-up instructions), until `measured`
/// instructions have been measured in detail. Leaves the aggregate in
/// `sys.stats` with [`SimStats::sampling`] populated; do **not** call
/// [`System::finalize_stats`] afterwards (each window is finalized
/// before being absorbed).
///
/// # Panics
///
/// Panics in virtualised mode (see [`System::fast_forward`]).
pub fn run_sampled(sys: &mut System, warmup: u64, measured: u64, cfg: &SamplingConfig) {
    let t0 = sys.span_start();
    sys.run(warmup);
    sys.span_end("warmup", t0, &[("instr", warmup)]);
    let mut agg = SimStats::default();
    let mut window_ipc = Vec::new();
    let mut measured_done = 0u64;
    let mut skipped = 0u64;
    let mut warmed = 0u64;
    while measured_done < measured {
        let window = cfg.detailed.min(measured - measured_done);
        sys.reset_stats();
        sys.process_mut().reset_counters();
        let t0 = sys.span_start();
        sys.run(window);
        sys.finalize_stats();
        sys.span_end("detailed_window", t0, &[("window", window_ipc.len() as u64), ("instr", window)]);
        window_ipc.push(sys.stats.ipc());
        agg.absorb_window(&sys.stats);
        measured_done += window;
        if measured_done >= measured {
            break;
        }
        let tail = cfg.fast.min(FUNC_WARM);
        let t0 = sys.span_start();
        sys.skip(cfg.fast - tail);
        sys.span_end("skip", t0, &[("instr", cfg.fast - tail)]);
        let t0 = sys.span_start();
        sys.fast_forward(tail);
        sys.span_end("func_warm", t0, &[("instr", tail)]);
        skipped += cfg.fast;
        let t0 = sys.span_start();
        sys.run(cfg.warm);
        sys.span_end("detailed_warm", t0, &[("instr", cfg.warm)]);
        warmed += cfg.warm;
    }
    agg.sampling = Some(SamplingMeta {
        periods: window_ipc.len() as u64,
        measured_instructions: agg.instructions,
        skipped_instructions: skipped,
        warm_instructions: warmed,
        ipc_mean: window_ipc.iter().sum::<f64>() / window_ipc.len().max(1) as f64,
        ipc_ci95: ci95(&window_ipc),
    });
    sys.stats = agg;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use workloads::{registry, Scale};

    fn tiny(workload: &str, cfg: SystemConfig) -> System {
        System::new(cfg, registry::by_name(workload, Scale::Tiny).unwrap())
    }

    #[test]
    fn parse_accepts_two_and_three_part_specs() {
        assert_eq!(
            SamplingConfig::parse("50000:2000:1000"),
            Ok(SamplingConfig { fast: 50_000, detailed: 2_000, warm: 1_000 })
        );
        let c = SamplingConfig::parse("9000:400").unwrap();
        assert_eq!(c.warm, 200);
        assert_eq!(c.spec(), "9000:400:200");
        assert!(SamplingConfig::parse("100").is_err());
        assert!(SamplingConfig::parse("a:b").is_err());
        assert!(SamplingConfig::parse("1:0").is_err());
        assert!(SamplingConfig::parse("1:2:3:4").is_err());
    }

    #[test]
    fn parse_rejects_degenerate_schedules_up_front() {
        // Zero-width detailed window.
        let err = SamplingConfig::parse("50000:0").unwrap_err();
        assert!(err.contains("detailed window D must be positive"), "{err}");
        // U < D: measures more than it skips.
        let err = SamplingConfig::parse("1000:5000").unwrap_err();
        assert!(err.contains("must be at least the detailed window"), "{err}");
        // U == D is the boundary and is allowed.
        assert!(SamplingConfig::parse("5000:5000").is_ok());
        // Direct construction stays unchecked (tests build degenerate
        // schedules deliberately), but validate flags them.
        let c = SamplingConfig { fast: 1, detailed: 10, warm: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn ci95_is_zero_for_tiny_samples_and_positive_for_spread() {
        assert_eq!(ci95(&[]), 0.0);
        assert_eq!(ci95(&[1.0]), 0.0);
        assert_eq!(ci95(&[2.0, 2.0, 2.0]), 0.0);
        assert!(ci95(&[1.0, 2.0, 3.0]) > 0.0);
    }

    #[test]
    fn sampled_run_measures_the_requested_budget() {
        let mut sys = tiny("RND", SystemConfig::radix());
        let cfg = SamplingConfig { fast: 10_000, detailed: 2_000, warm: 1_000 };
        run_sampled(&mut sys, 2_000, 20_000, &cfg);
        let s = &sys.stats;
        let meta = s.sampling.as_ref().expect("sampled stats carry meta");
        assert!(s.instructions >= 20_000);
        assert_eq!(meta.measured_instructions, s.instructions);
        assert_eq!(meta.periods, 10);
        assert_eq!(meta.skipped_instructions, 9 * 10_000);
        assert_eq!(meta.warm_instructions, 9 * 1_000);
        assert!(meta.ipc_mean > 0.0);
        assert!(s.cycles() > 0);
        assert!(s.l2_tlb_misses > 0, "RND still thrashes the TLB under sampling");
    }

    #[test]
    fn sampled_stats_are_deterministic() {
        let cfg = SamplingConfig { fast: 8_000, detailed: 1_000, warm: 500 };
        let run = || {
            let mut sys = tiny("XS", SystemConfig::victima());
            run_sampled(&mut sys, 1_000, 8_000, &cfg);
            sys.stats.clone()
        };
        assert_eq!(run(), run());
    }

    /// `System::skip` skips without generating only when no record hook
    /// is installed; with one it generates every reference for the hook.
    /// Both paths must leave the same stream position and the same
    /// machine, so the next measured window is byte-identical.
    #[test]
    fn skip_with_and_without_a_record_hook_agree() {
        use std::cell::Cell;
        use std::rc::Rc;

        const SKIP: u64 = 300_007;
        for workload in ["RND", "GEN", "DLRM", "XS", "BFS", "TC"] {
            let run = |hook: Option<Rc<Cell<u64>>>| {
                let mut sys = tiny(workload, SystemConfig::victima());
                if let Some(fired) = hook {
                    sys.set_record_hook(Box::new(move |_| fired.set(fired.get() + 1)));
                }
                sys.run(1_000);
                let before = sys.refs_consumed();
                sys.skip(SKIP);
                let skipped = sys.refs_consumed() - before;
                sys.reset_stats();
                sys.process_mut().reset_counters();
                sys.run(5_000);
                sys.finalize_stats();
                (skipped, sys.refs_consumed(), sys.stats.clone())
            };
            let fired = Rc::new(Cell::new(0));
            let hooked = run(Some(Rc::clone(&fired)));
            let plain = run(None);
            assert_eq!(fired.get(), hooked.1, "{workload}: the hook must fire once per consumed reference");
            assert!(hooked.0 > 0, "{workload}: the skip consumed nothing");
            assert_eq!(plain.0, hooked.0, "{workload}: references skipped");
            assert_eq!(plain.1, hooked.1, "{workload}: refs_consumed after the window");
            assert_eq!(plain.2, hooked.2, "{workload}: the window after the skip");
        }
    }

    #[test]
    fn single_window_degenerates_to_full_detail() {
        // A detailed window covering the whole budget takes no
        // fast-forward intervals and must match run_with_warmup exactly.
        let mut full = tiny("RND", SystemConfig::radix());
        full.run_with_warmup(1_000, 10_000);
        full.finalize_stats();
        let mut sampled = tiny("RND", SystemConfig::radix());
        let cfg = SamplingConfig { fast: 1_000_000, detailed: 10_000, warm: 0 };
        run_sampled(&mut sampled, 1_000, 10_000, &cfg);
        let meta = sampled.stats.sampling.take().expect("meta present");
        assert_eq!(meta.periods, 1);
        assert_eq!(meta.skipped_instructions, 0);
        assert_eq!(full.stats, sampled.stats, "one all-covering window must be exact");
    }
}
