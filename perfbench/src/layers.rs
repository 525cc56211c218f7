//! The traced run: the same workload, seed and lengths as the untraced
//! run, split into per-layer metrics.
//!
//! 1. Untraced and traced (`ObsMode::Full`-equivalent: metrics and phase
//!    tracing enabled on every `System`) rounds of the workload's specs,
//!    alternated for the time budget, give `obs.tracing_overhead_frac`
//!    and the set-up split; every round must reproduce the expected
//!    digests.
//! 2. A *ladder* over the six simulator workloads at the workload's
//!    scale: stream only (`System::skip`), functional
//!    (`System::fast_forward`), then detailed `System::run` under radix,
//!    radix without prefetchers, Victima, nested paging and
//!    Victima-virt. Differences between rungs price the prefetchers, the
//!    mechanism and the nested walk; the simulated counts come from the
//!    obs registry of the radix and Victima rungs.
//! 3. Captured-traffic timings: references captured from each radix
//!    rung with `System::set_record_hook`, translated with
//!    `System::ground_truth`, replayed through `Hierarchy::access`,
//!    `SetAssocTlb::probe`, `Victima::probe` and `RadixPageTable::walk`.
//! 4. The `svc`/`report` probe ([`crate::service::probe`]).
//!
//! Every call into a layer runs inside one of the benchmark's own spans
//! ([`Spans`]); the per-layer self times go into the artifact
//! `results/<workload>.layers.json` beside every metric.

use crate::check::Expected;
use crate::service::{self, SvcPlan};
use crate::simrun::{self, SimPlan, SIM_WORKLOADS};
use crate::util::{json_num, json_str, median, results_dir, Spans};
use crate::{Options, Outcome, Workload};
use mem_sim::{BlockKind, Cache, Hierarchy, MemClass, Policy, ReplacementCtx};
use obs::MetricValue;
use page_table::{FrameAllocator, RadixPageTable};
use sim::System;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tlb_sim::{SetAssocTlb, TlbEntry};
use victima::{tlb_block, Victima, VictimaConfig};
use vm_types::{Asid, MemRef, PageSize, PhysAddr, VirtAddr};

/// Detailed-rung configs, in ladder order.
pub const RUNGS: [&str; 5] = ["radix", "radix-nopf", "victima", "np", "victima-virt"];

/// References captured per simulator workload for the structure
/// timings.
const CAPTURE_REFS: usize = 40_000;

/// Host time each structure timing repeats for (median over passes).
const MICRO_BUDGET: Duration = Duration::from_millis(120);

/// The simulation plan a workload's traced run uses: its own plan, or
/// for `service` the sweep's Tiny scale and budgets over the six
/// simulator workloads.
pub fn plan_for(w: Workload, smoke: bool) -> SimPlan {
    match w {
        Workload::Service => {
            let svc = SvcPlan::new(smoke);
            let (warmup, instructions) = (svc.warmup, svc.instructions);
            SimPlan { scale: svc.scale, warmup, instructions, sampling: None, configs: ["radix", "victima"] }
        }
        w => SimPlan::new(w, smoke),
    }
}

/// Sums a counter across obs snapshots.
fn counter(snapshots: &[Vec<(String, MetricValue)>], name: &str) -> u64 {
    snapshots
        .iter()
        .flatten()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(c) | MetricValue::Gauge(c) => *c,
            MetricValue::Histogram(h) => h.count,
        })
        .sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// [`simrun::build`] with a span around each layer's half.
fn traced_build(spans: &mut Spans, config_key: &str, workload: &str, plan: &SimPlan, seed: u64) -> System {
    let mut cfg = simrun::config(config_key);
    cfg.seed = seed;
    let wl = spans.span("workloads", "build", |_| {
        workloads::registry::by_name_seeded(workload, plan.scale, seed)
            .expect("benchmark workloads are registered")
    });
    spans.span("sim", "system_new", |_| System::new(cfg, wl))
}

/// Step 1: alternating untraced and traced rounds of the workload's own
/// specs until the time budget is spent; the overhead compares each
/// spec's best untraced and best traced time (as the untraced run does).
fn overhead(
    plan: &SimPlan,
    opts: &Options,
    expected: Option<&Expected>,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let specs = plan.specs();
    let n = specs.len();
    let mut best = [vec![f64::INFINITY; n], vec![f64::INFINITY; n]];
    let mut covered = vec![0u64; n];
    let mut digests: Vec<Option<String>> = vec![None; n];
    let (mut build_ms, mut new_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < 1 || start.elapsed() < opts.seconds {
        pairs += 1;
        for (i, (c, w)) in specs.iter().enumerate() {
            let label = format!("{c}/{w}");
            let r = match simrun::run_spec(plan, c, w, opts.seed) {
                Ok(r) => r,
                Err(e) => {
                    out.check(Some(e));
                    continue;
                }
            };
            best[0][i] = best[0][i].min(r.run_s);
            covered[i] = r.covered;
            build_ms.push(r.setup.build_s * 1e3);
            new_ms.push(r.setup.new_s * 1e3);
            let want = digests[i].get_or_insert_with(|| r.digest.clone()).clone();
            let err = r.check.map(|e| format!("{label}: {e}")).or_else(|| match (pairs, expected) {
                (1, Some(exp)) => exp.verify(&label, &r.digest),
                _ => (r.digest != want)
                    .then(|| format!("{label}: digest {} differs from the first run", r.digest)),
            });
            out.check(err);

            let traced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut sys = traced_build(spans, c, w, plan, opts.seed);
                sys.enable_metrics();
                sys.enable_tracing();
                let t = Instant::now();
                spans.span("sim", "drive", |_| simrun::drive(&mut sys, plan));
                let run_s = t.elapsed().as_secs_f64();
                spans.span("obs", "harvest", |_| {
                    black_box(sys.take_metrics().map(|m| m.snapshot()));
                    black_box(sys.take_tracer().map(|mut t| t.take()));
                });
                (run_s, simrun::stats_digest(&sys.stats))
            }));
            let err = match traced {
                Ok((run_s, got)) => {
                    best[1][i] = best[1][i].min(run_s);
                    (got != want)
                        .then(|| format!("{label}: traced digest {got} differs from untraced {want}"))
                }
                Err(_) => Some(format!("{label}: traced run panicked")),
            };
            out.check(err);
        }
    }
    let rate = |b: &[f64]| {
        let ok: Vec<usize> = (0..n).filter(|&i| best[0][i].is_finite() && best[1][i].is_finite()).collect();
        ratio(ok.iter().map(|&i| covered[i]).sum::<u64>() as f64, ok.iter().map(|&i| b[i]).sum())
    };
    let (u, t) = (rate(&best[0]), rate(&best[1]));
    out.metric("workloads.build_ms", median(&build_ms), "ms");
    out.metric("sim.system_new_ms", median(&new_ms), "ms");
    out.metric("obs.tracing_overhead_frac", ratio(u - t, u), "fraction");
    out.fact("overhead_rounds", pairs.to_string());
    out.fact("untraced_minstr_per_s", json_num(u / 1e6));
    out.fact("traced_minstr_per_s", json_num(t / 1e6));
}

/// One ladder rung's outcome for one simulator workload.
#[derive(Clone, Debug)]
struct Rung {
    /// Detailed host ns per simulated instruction.
    ns_per_instr: f64,
    stats: sim::SimStats,
    metrics: Vec<(String, MetricValue)>,
}

/// Times `run(len)` after the plan's warm-up on a traced system.
fn detailed(sys: &mut System, plan: &SimPlan, len: u64, spans: &mut Spans) -> Rung {
    sys.enable_metrics();
    sys.enable_tracing();
    spans.span("sim", "warmup", |_| sys.run(plan.warmup));
    sys.reset_stats();
    sys.process_mut().reset_counters();
    let t = Instant::now();
    spans.span("sim", "run", |_| sys.run(len));
    let ns = t.elapsed().as_nanos() as f64 / len as f64;
    sys.finalize_stats();
    let metrics = spans.span("obs", "snapshot", |_| sys.metrics().map(|m| m.snapshot()).unwrap_or_default());
    Rung { ns_per_instr: ns, stats: sys.stats.clone(), metrics }
}

/// A captured reference, translated with page-table ground truth.
#[derive(Clone, Copy, Debug)]
struct Translated {
    va: VirtAddr,
    pa: PhysAddr,
    size: PageSize,
    write: bool,
}

fn translate(sys: &System, refs: &[MemRef]) -> Vec<Translated> {
    refs.iter()
        .filter_map(|r| {
            let pa = sys.ground_truth(r.vaddr)?;
            let size = sys.page_size_at(r.vaddr)?;
            Some(Translated { va: r.vaddr, pa, size, write: r.kind.is_write() })
        })
        .collect()
}

/// Median per-operation ns of `f` over passes through `items`.
fn per_op_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < 3 || start.elapsed() < MICRO_BUDGET {
        let t = Instant::now();
        for item in items {
            f(item);
        }
        passes.push(t.elapsed().as_nanos() as f64 / items.len().max(1) as f64);
    }
    median(&passes)
}

/// Step 3: the structure timings on one workload's captured traffic.
fn structures(refs: &[Translated], seed: u64, spans: &mut Spans) -> [f64; 4] {
    let cfg = simrun::config("radix");
    let asid = Asid::new(1);
    let ctx = ReplacementCtx { l2_tlb_mpki: 10.0, l2_cache_mpki: 0.0 };

    let mut hier = Hierarchy::new(cfg.hierarchy.clone());
    let mem = spans.span("mem", "hierarchy_access", |_| {
        per_op_ns(refs, |r| {
            black_box(hier.access(black_box(r.pa), r.write, MemClass::Data, &ctx));
        })
    });

    let mut l2_tlb = SetAssocTlb::new(cfg.mmu.l2_tlb.clone());
    let tlb = spans.span("tlb", "l2_probe", |_| {
        per_op_ns(refs, |r| {
            let vpn = r.va.vpn(r.size);
            if black_box(l2_tlb.probe(vpn, asid, r.size)).is_none() {
                l2_tlb.fill(TlbEntry::new(vpn, asid, r.size, r.pa.frame(PageSize::Size4K)));
            }
        })
    });

    let mut l2 = Cache::new(cfg.hierarchy.l2.clone(), Policy::tlb_aware_srrip());
    let mut victima = Victima::new(VictimaConfig::default());
    let sets = l2.num_sets();
    let core = spans.span("core", "victima_probe", |_| {
        per_op_ns(refs, |r| {
            if black_box(victima.probe(&mut l2, r.va, asid, BlockKind::Tlb, &ctx)).is_none() {
                let (set, tag) = tlb_block::tlb_block_index(r.va, r.size, sets);
                l2.fill_translation(set, tag, BlockKind::Tlb, asid, r.size, &ctx);
            }
        })
    });

    let mut alloc = FrameAllocator::new(1 << 40, seed);
    let mut pt = RadixPageTable::new(&mut alloc);
    let pages: BTreeSet<(u64, PageSize)> =
        refs.iter().map(|r| (r.va.align_down(r.size).raw(), r.size)).collect();
    for &(base, size) in &pages {
        let frame = alloc.alloc(size);
        pt.map(VirtAddr::new(base), frame, size, &mut alloc);
    }
    let walk = spans.span("pt", "walk", |_| {
        per_op_ns(refs, |r| {
            black_box(pt.walk(black_box(r.va)));
        })
    });
    [mem, tlb, core, walk]
}

/// Per-simulator-workload ladder row (for the artifact).
#[derive(Clone, Debug, Default)]
struct LadderRow {
    workload: &'static str,
    stream: f64,
    functional: f64,
    rungs: Vec<(&'static str, f64)>,
    structures: [f64; 4],
}

/// Steps 2 and 3.
fn ladder(w: Workload, plan: &SimPlan, seed: u64, spans: &mut Spans, out: &mut Outcome) -> Vec<LadderRow> {
    let len = plan.instructions;
    let stream_len = plan.sampling.map_or(len, |s| s.fast);
    let mechanism = if w == Workload::Virt { "victima-virt" } else { "victima" };
    let mut rows = Vec::new();
    let mut base_metrics = Vec::new();
    let mut base_stats = Vec::new();
    let mut mech_stats = Vec::new();
    for &wl in &SIM_WORKLOADS {
        let mut row = LadderRow { workload: wl, ..LadderRow::default() };
        for &rung in &RUNGS {
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut sys = traced_build(spans, rung, wl, plan, seed);
                let mut stream_functional = None;
                if rung == "radix" {
                    let t = Instant::now();
                    spans.span("workloads", "skip", |_| sys.skip(stream_len));
                    let skip = t.elapsed().as_nanos() as f64 / stream_len as f64;
                    let t = Instant::now();
                    spans.span("sim", "fast_forward", |_| sys.fast_forward(stream_len));
                    let ff = t.elapsed().as_nanos() as f64 / stream_len as f64;
                    stream_functional = Some((skip, ff - skip));
                }
                let r = detailed(&mut sys, plan, len, spans);
                let check = simrun::spot_check(&mut sys);
                let captured = (rung == "radix").then(|| {
                    let refs = simrun::capture(&mut sys, len.min(400_000), CAPTURE_REFS);
                    translate(&sys, &refs)
                });
                (r, stream_functional, captured, check)
            }));
            let (r, stream_functional, captured, check) = match built {
                Ok(x) => x,
                Err(_) => {
                    out.check(Some(format!("ladder {rung}/{wl}: panicked")));
                    continue;
                }
            };
            out.check(check.map(|e| format!("ladder {rung}/{wl}: {e}")));
            if let Some((s, f)) = stream_functional {
                row.stream = s;
                row.functional = f;
            }
            if let Some(refs) = captured {
                row.structures = structures(&refs, seed, spans);
            }
            if rung == "radix" {
                base_metrics.push(r.metrics.clone());
                base_stats.push(r.stats.clone());
            }
            if rung == mechanism {
                mech_stats.push(r.stats.clone());
            }
            row.rungs.push((rung, r.ns_per_instr));
        }
        rows.push(row);
    }

    let mean = |f: &dyn Fn(&LadderRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64;
    let rung = |r: &LadderRow, name: &str| r.rungs.iter().find(|x| x.0 == name).map_or(0.0, |x| x.1);
    out.metric("workloads.stream_ns_per_instr", mean(&|r| r.stream), "ns/instr");
    out.metric("sim.functional_ns_per_instr", mean(&|r| r.functional), "ns/instr");
    for name in RUNGS {
        out.metric(&format!("sim.detailed_ns_per_instr.{name}"), mean(&|r| rung(r, name)), "ns/instr");
    }
    out.metric("sim.nested_ns_per_instr", mean(&|r| rung(r, "np") - rung(r, "radix")), "ns/instr");
    out.metric("mem.prefetch_ns_per_instr", mean(&|r| rung(r, "radix") - rung(r, "radix-nopf")), "ns/instr");
    out.metric("mem.hierarchy_access_ns", mean(&|r| r.structures[0]), "ns");
    let kilo_instr = base_stats.iter().map(|s| s.instructions).sum::<u64>() as f64 / 1e3;
    out.metric("mem.l2_mpki", ratio(counter(&base_metrics, "sim.cache.l2.miss") as f64, kilo_instr), "MPKI");
    out.metric("mem.l3_mpki", ratio(counter(&base_metrics, "sim.cache.l3.miss") as f64, kilo_instr), "MPKI");
    out.metric("tlb.l2_probe_ns", mean(&|r| r.structures[1]), "ns");
    let l2_misses = base_stats.iter().map(|s| s.l2_tlb_misses).sum::<u64>() as f64;
    out.metric("tlb.l2_mpki", ratio(l2_misses, kilo_instr), "MPKI");
    let pwc_hit = counter(&base_metrics, "sim.pwc.hit") as f64;
    let pwc_miss = counter(&base_metrics, "sim.pwc.miss") as f64;
    out.metric("tlb.pwc_hit_frac", ratio(pwc_hit, pwc_hit + pwc_miss), "fraction");
    out.metric("core.victima_ns_per_instr", mean(&|r| rung(r, mechanism) - rung(r, "radix")), "ns/instr");
    out.metric("core.victima_probe_ns", mean(&|r| r.structures[2]), "ns");
    let mech_hits = mech_stats.iter().map(|s| s.victima_hits).sum::<u64>() as f64;
    let mech_misses = mech_stats.iter().map(|s| s.l2_tlb_misses).sum::<u64>() as f64;
    let mech_kilo = mech_stats.iter().map(|s| s.instructions).sum::<u64>() as f64 / 1e3;
    out.metric("core.victima_hit_frac", ratio(mech_hits, mech_misses), "fraction");
    let bg = mech_stats.iter().map(|s| s.victima_background_walks).sum::<u64>() as f64;
    out.metric("core.bg_walks_pki", ratio(bg, mech_kilo), "PKI");
    out.metric("pt.walk_ns", mean(&|r| r.structures[3]), "ns");
    rows
}

/// The traced run of any workload.
pub fn run(opts: &Options, expected: Option<&Expected>) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let plan = plan_for(opts.workload, opts.smoke);
    plan.facts(&mut out);
    let svc_plan = SvcPlan::new(opts.smoke);
    // The service workload's expected digests cover its sweep lines, not
    // these in-process specs.
    let sim_expected = expected.filter(|_| opts.workload != Workload::Service);
    overhead(&plan, opts, sim_expected, &mut spans, &mut out);
    let rows = ladder(opts.workload, &plan, opts.seed, &mut spans, &mut out);
    service::probe(&svc_plan, opts, &mut spans, &mut out);

    let mut metrics = Vec::new();
    for (name, unit) in crate::PER_LAYER {
        let v = out.value(name).unwrap_or_else(|| {
            out.check(Some(format!("{name}: not measured")));
            0.0
        });
        metrics.push((name.to_owned(), v, unit));
    }
    out.metrics = metrics;
    if let Err(e) = write_artifact(opts, &out, &rows, &spans) {
        out.check(Some(format!("writing the per-layer artifact: {e}")));
    }
    out
}

/// Writes `results/<workload>.layers.json`: provenance, every per-layer
/// metric, the ladder rows, and per-layer self times from the spans.
fn write_artifact(opts: &Options, out: &Outcome, rows: &[LadderRow], spans: &Spans) -> std::io::Result<()> {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!("    {}: {{\"value\": {}, \"unit\": {}}}", json_str(n), json_num(*v), json_str(u))
        })
        .collect();
    let ladder: Vec<String> = rows
        .iter()
        .map(|r| {
            let rungs: Vec<String> =
                r.rungs.iter().map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v))).collect();
            format!(
                "    {{\"workload\": {}, \"stream_ns_per_instr\": {}, \"functional_ns_per_instr\": {}, \
                 \"detailed_ns_per_instr\": {{{}}}, \"hierarchy_access_ns\": {}, \"l2_probe_ns\": {}, \
                 \"victima_probe_ns\": {}, \"walk_ns\": {}}}",
                json_str(r.workload),
                json_num(r.stream),
                json_num(r.functional),
                rungs.join(", "),
                json_num(r.structures[0]),
                json_num(r.structures[1]),
                json_num(r.structures[2]),
                json_num(r.structures[3])
            )
        })
        .collect();
    let (layers, names) = spans.summary();
    let self_ms: Vec<String> =
        layers.iter().map(|(l, ms)| format!("    {}: {}", json_str(l), json_num(*ms))).collect();
    let span_rows: Vec<String> = names
        .iter()
        .map(|(n, (count, ms))| {
            format!("    {}: {{\"count\": {count}, \"total_ms\": {}}}", json_str(n), json_num(*ms))
        })
        .collect();
    let text = format!(
        "{{\n  \"benchmark\": \"perfbench\",\n  {},\n  \"metrics\": {{\n{}\n  }},\n  \"ladder\": [\n{}\n  ],\n  \
         \"layer_self_ms\": {{\n{}\n  }},\n  \"spans\": {{\n{}\n  }},\n  \"attempted\": {},\n  \"failed\": {}\n}}\n",
        out.provenance_line(opts).strip_prefix('{').and_then(|p| p.strip_suffix('}')).unwrap_or_default(),
        metrics.join(",\n"),
        ladder.join(",\n"),
        self_ms.join(",\n"),
        span_rows.join(",\n"),
        out.attempted,
        out.failed
    );
    std::fs::create_dir_all(results_dir())?;
    std::fs::write(results_dir().join(format!("{}.layers.json", opts.workload.name())), text)
}
