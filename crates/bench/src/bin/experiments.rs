//! Experiment driver: regenerates the paper's tables and figures as typed
//! artifacts.
//!
//! ```text
//! experiments [--quick] [--jobs N] all               # every figure/table, paper order
//! experiments --exp fig20,fig21                      # specific experiments
//! experiments --format json --out artifacts/ all     # one artifact per experiment + REPORT.md
//! experiments --check [ids...]                       # diff against committed baselines
//! experiments --save-baselines [ids...]              # regenerate committed baselines
//! experiments calibrate                              # baseline vitals (not a paper figure)
//! experiments --list
//! experiments trace record RND --out rnd.vtrace      # capture a reference stream
//! experiments trace replay rnd.vtrace [--config victima]
//! experiments trace info rnd.vtrace [--format json --out DIR]
//! experiments serve                                  # resident sweep daemon (localhost TCP)
//! experiments submit --configs radix,victima --workloads RND,XS [--watch]
//! experiments status [--metrics] [--shutdown]
//! experiments profile [ids...]                       # per-phase span profile -> BENCH_obs.json
//! ```
//!
//! Budgets: `VICTIMA_INSTR` / `VICTIMA_WARMUP` env vars (defaults
//! 2,000,000 / 200,000); `--quick` forces 600K/60K. `--scale` picks the
//! workload footprint for the suite (default Full); combine with
//! `--sampling U:D[:W]` for paper-scale exploration. `--check` and
//! `--save-baselines` pin the Tiny-scale check profile (see DESIGN.md,
//! "Results pipeline") so committed baselines are reproducible anywhere.
//! Simulations fan out over `--jobs`/`VICTIMA_JOBS` workers (default: all
//! cores); artifacts are byte-identical at any worker count.

use victima_bench::cli::{
    fail, flag_value, out, parse_config, parse_format, parse_jobs, parse_sampling, parse_scale, parse_u64,
    take_flag, Format,
};
use victima_bench::{experiments, ExpCtx, ExperimentReport};

fn usage() -> ! {
    eprintln!("usage: experiments [--quick] [--jobs N] [--scale tiny|small|full|paper] [--sampling U:D[:W]]");
    eprintln!(
        "                   [--format text|json|jsonl|csv|md] [--out DIR] [--exp IDS] <all|calibrate|...> ..."
    );
    eprintln!("       experiments --check [ids...]          (pinned profile vs committed baselines)");
    eprintln!("       experiments --save-baselines [ids...] (regenerate committed baselines)");
    eprintln!("       experiments --list");
    eprintln!("       experiments trace record <WORKLOAD> --out FILE");
    eprintln!("                   [--config NAME] [--scale tiny|small|full|paper] [--seed N] [--warmup N] [--instr N]");
    eprintln!("       experiments trace replay <FILE> [--config NAME] [--jobs N] [--format F] [--out DIR]");
    eprintln!("       experiments trace info <FILE> [--format F] [--out DIR]");
    eprintln!("       experiments ckpt save <WORKLOAD> --out FILE");
    eprintln!("                   [--config NAME] [--scale tiny|small|full|paper] [--seed N] [--warmup N]");
    eprintln!("       experiments ckpt resume <FILE> [--instr N] [--format F] [--out DIR]");
    eprintln!("       experiments ckpt info <FILE> [--format F] [--out DIR]");
    eprintln!("       experiments serve [--dir DIR] [--port N] [--workers N] [--deadline-ms N]");
    eprintln!("                   [--retries N] [--cache-max-bytes N] [--faults PLAN]");
    eprintln!(
        "       experiments submit [--dir DIR] [--local] [--watch] [--configs a,b] [--workloads X,Y|all]"
    );
    eprintln!("                   [--scale S] [--warmup N] [--instr N] [--seed N] [--sampling U:D[:W]]");
    eprintln!("                   [--out FILE] [--attempts N]");
    eprintln!("       experiments status [--dir DIR] [--metrics] [--shutdown]");
    eprintln!("       experiments profile [ids...] [--jobs N] [--scale S] [--format F] [--out FILE]");
    std::process::exit(2);
}

/// Committed baseline directory (resolved at compile time; the binary is
/// a repo tool, not an installable).
const BASELINE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden worker mode: `serve` re-execs this binary with this argument
    // so each sweep spec simulates in its own process (crash isolation).
    if args.first().map(String::as_str) == Some(svc::WORKER_ARG) {
        std::process::exit(svc::worker_main());
    }
    if args.first().map(String::as_str) == Some("trace") {
        std::process::exit(trace_cli(args.split_off(1)));
    }
    if args.first().map(String::as_str) == Some("ckpt") {
        std::process::exit(ckpt_cli(args.split_off(1)));
    }
    if args.first().map(String::as_str) == Some("serve") {
        std::process::exit(victima_bench::service::serve_cli(args.split_off(1)));
    }
    if args.first().map(String::as_str) == Some("submit") {
        std::process::exit(victima_bench::service::submit_cli(args.split_off(1)));
    }
    if args.first().map(String::as_str) == Some("status") {
        std::process::exit(victima_bench::service::status_cli(args.split_off(1)));
    }
    if args.first().map(String::as_str) == Some("profile") {
        std::process::exit(profile_cli(args.split_off(1)));
    }
    let quick = take_flag(&mut args, "--quick");
    let check = take_flag(&mut args, "--check");
    let save_baselines = take_flag(&mut args, "--save-baselines");
    // Explicit worker count: overrides the ambient `VICTIMA_JOBS` without
    // touching the environment, so runs are reproducible from the command
    // line alone.
    let jobs = parse_jobs(&mut args);
    let format_flag = parse_format(&mut args);
    let sampling = parse_sampling(&mut args);
    let scale = parse_scale(&mut args);
    let out_dir = flag_value(&mut args, "--out").map(std::path::PathBuf::from);
    if (check || save_baselines) && (format_flag.is_some() || out_dir.is_some()) {
        fail("--check/--save-baselines use the baseline JSON format; --format/--out don't apply");
    }
    if (check || save_baselines) && sampling.is_some() {
        fail("--sampling changes results; the pinned --check/--save-baselines profile is full-detail");
    }
    if (check || save_baselines) && scale.is_some() {
        fail("--scale changes results; --check/--save-baselines pin each baseline's own profile");
    }
    let format = format_flag.unwrap_or(Format::Text);

    if take_flag(&mut args, "--list") {
        let mut list = String::from("experiments:\n");
        for id in experiments::checked_ids() {
            list += &format!("  {id}\n");
        }
        list += "workloads:\n";
        for w in workloads::registry::WORKLOAD_NAMES {
            list += &format!("  {w}\n");
        }
        list += "mixes (fig12: 2-core, fig13: 4-core):\n";
        for m in workloads::mixes::all() {
            list += &format!("  {:<8} {}\n", m.name, m.slots.join("+"));
        }
        out(&list);
        return;
    }
    // Ids come from --exp (comma-separated) and positionals; "all"
    // expands to every paper figure/table.
    let mut ids: Vec<String> = Vec::new();
    if let Some(list) = flag_value(&mut args, "--exp") {
        ids.extend(list.split(',').map(str::to_owned));
    }
    if let Some(unknown) = args.iter().find(|a| a.starts_with('-') && *a != "-") {
        eprintln!("unknown flag {unknown}");
        usage();
    }
    ids.extend(args.iter().cloned());
    let mut resolved: Vec<&str> = Vec::new();
    for id in &ids {
        if id == "all" {
            resolved.extend(experiments::ALL_IDS);
        } else {
            resolved.push(id.as_str());
        }
    }
    if resolved.is_empty() {
        if check || save_baselines {
            resolved = experiments::checked_ids();
        } else {
            usage();
        }
    }
    let mut seen = std::collections::HashSet::new();
    resolved.retain(|id| seen.insert(*id));

    let mut ctx = if check || save_baselines {
        ExpCtx::check()
    } else if quick {
        ExpCtx::quick_at(scale.unwrap_or(workloads::Scale::Full))
    } else {
        env_ctx(scale.unwrap_or(workloads::Scale::Full))
    };
    if let Some(n) = jobs {
        ctx = ctx.with_jobs(n);
    }
    if let Some(s) = sampling {
        ctx = ctx.with_sampling(s);
    }

    let start = std::time::Instant::now();
    let mut reports: Vec<ExperimentReport> = Vec::new();
    for id in &resolved {
        match experiments::by_id(&ctx, id) {
            Some(batch) => reports.extend(batch),
            None => fail(&format!("unknown experiment: {id} (try --list)")),
        }
    }

    let status = if save_baselines {
        write_baselines(&reports)
    } else if check {
        run_check(&reports)
    } else {
        emit(&reports, format, out_dir.as_deref())
    };
    eprintln!("[experiments completed in {:.1}s]", start.elapsed().as_secs_f64());
    std::process::exit(status);
}

/// Writes per-experiment artifacts (and the combined `REPORT.md`) under
/// `dir`, or streams the chosen format to stdout when no `--out` is given.
fn emit(reports: &[ExperimentReport], format: Format, dir: Option<&std::path::Path>) -> i32 {
    let Some(dir) = dir else {
        match format {
            Format::Md => out(&report::markdown::render_combined(reports)),
            Format::Text => out(&report::text::render_all(reports)),
            _ => {
                for r in reports {
                    out(&format.render(r));
                }
            }
        }
        return 0;
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return 1;
    }
    for r in reports {
        let path = dir.join(format!("{}.{}", r.id, format.extension()));
        if let Err(e) = std::fs::write(&path, format.render(r)) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
    }
    let combined = dir.join("REPORT.md");
    if let Err(e) = std::fs::write(&combined, report::markdown::render_combined(reports)) {
        eprintln!("cannot write {}: {e}", combined.display());
        return 1;
    }
    eprintln!("[wrote {} artifact(s) + REPORT.md to {}]", reports.len(), dir.display());
    0
}

/// Regenerates the committed baselines (one JSON per experiment).
fn write_baselines(reports: &[ExperimentReport]) -> i32 {
    if let Err(e) = std::fs::create_dir_all(BASELINE_DIR) {
        eprintln!("cannot create {BASELINE_DIR}: {e}");
        return 1;
    }
    for r in reports {
        let path = std::path::Path::new(BASELINE_DIR).join(format!("{}.json", r.id));
        if let Err(e) = std::fs::write(&path, report::json::to_json(r)) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
        out(&format!("baseline saved: {}\n", path.display()));
    }
    0
}

/// Diffs fresh reports against the committed baselines; returns the
/// process exit status (0 = all within tolerance).
fn run_check(reports: &[ExperimentReport]) -> i32 {
    let mut failed = false;
    for r in reports {
        let path = std::path::Path::new(BASELINE_DIR).join(format!("{}.json", r.id));
        let baseline = match std::fs::read_to_string(&path) {
            Ok(text) => match report::json::from_json(&text) {
                Ok(b) => b,
                Err(e) => {
                    out(&format!("FAIL {}: baseline unreadable: {e}\n", r.id));
                    failed = true;
                    continue;
                }
            },
            Err(e) => {
                out(&format!(
                    "FAIL {}: no baseline at {} ({e}); run --save-baselines\n",
                    r.id,
                    path.display()
                ));
                failed = true;
                continue;
            }
        };
        let outcome = report::check_report(r, &baseline);
        if outcome.passed() {
            out(&format!("ok   {}\n", outcome.summary()));
        } else {
            failed = true;
            let mut lines = format!("FAIL {}\n", outcome.summary());
            for m in &outcome.provenance_mismatches {
                lines += &format!("       provenance {m}\n");
            }
            for m in &outcome.missing {
                lines += &format!("       missing metric {m}\n");
            }
            for m in &outcome.unexpected {
                lines += &format!("       unexpected metric {m} (baseline refresh needed?)\n");
            }
            for d in &outcome.failures {
                lines += &format!("       {d}\n");
            }
            out(&lines);
        }
    }
    if failed {
        1
    } else {
        out(&format!("check passed: {} experiment(s) match their baselines\n", reports.len()));
        0
    }
}

/// `experiments profile [ids...] [--jobs N] [--scale S] [--format F]
/// [--out FILE]` — run experiments with full observability and write the
/// per-phase span breakdown to `BENCH_obs.json` (`VICTIMA_OBS_OUT` or
/// `--out` override), plus a human rendering on stdout. Defaults to the
/// pinned `--check` profile over every checked experiment, so a bare
/// `profile` answers "where does the regression gate spend its time?".
fn profile_cli(mut args: Vec<String>) -> i32 {
    let jobs = parse_jobs(&mut args);
    let scale = parse_scale(&mut args);
    let format = parse_format(&mut args).unwrap_or(Format::Text);
    let path = flag_value(&mut args, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(victima_bench::profile::artifact_path);
    if let Some(unknown) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("profile: unknown flag {unknown}");
        usage();
    }
    let ids: Vec<&str> =
        if args.is_empty() { experiments::checked_ids() } else { args.iter().map(String::as_str).collect() };
    let mut ctx = match scale {
        Some(s) => env_ctx(s),
        None => ExpCtx::check(),
    };
    if let Some(n) = jobs {
        ctx = ctx.with_jobs(n);
    }
    let ctx = ctx.with_obs();
    let start = std::time::Instant::now();
    match victima_bench::profile::profile_report(&ctx, &ids) {
        Ok(r) => {
            if let Err(e) = std::fs::write(&path, report::json::to_json(&r)) {
                eprintln!("cannot write {}: {e}", path.display());
                return 1;
            }
            out(&format.render(&r));
            eprintln!(
                "[profiled {} experiment(s) in {:.1}s; artifact at {}]",
                ids.len(),
                start.elapsed().as_secs_f64(),
                path.display()
            );
            0
        }
        Err(e) => {
            eprintln!("profile failed: {e}");
            2
        }
    }
}

/// Default trace-recording budgets (the pinned `--check` profile, so a
/// bare `trace record` on a Tiny workload is committed-baseline sized).
const TRACE_WARMUP: u64 = 5_000;
const TRACE_INSTR: u64 = 50_000;

/// [`ExpCtx::at_scale`], exiting 2 on a malformed `VICTIMA_INSTR` /
/// `VICTIMA_WARMUP` value.
fn env_ctx(scale: workloads::Scale) -> ExpCtx {
    ExpCtx::at_scale(scale).unwrap_or_else(|e| fail(&e))
}

/// `experiments trace <record|replay|info> …` — see `usage()`.
fn trace_cli(mut args: Vec<String>) -> i32 {
    if args.is_empty() {
        usage();
    }
    let sub = args.remove(0);
    let cfg = parse_config(&mut args).unwrap_or_else(sim::SystemConfig::radix);
    let format = parse_format(&mut args).unwrap_or(Format::Text);
    let out_path = flag_value(&mut args, "--out").map(std::path::PathBuf::from);
    let jobs = parse_jobs(&mut args).unwrap_or_else(|| sim::SimEngine::new().jobs());

    match sub.as_str() {
        "record" => {
            let seed = parse_u64(&mut args, "--seed").unwrap_or(vm_types::DEFAULT_SEED);
            let warmup = parse_u64(&mut args, "--warmup").unwrap_or(TRACE_WARMUP);
            let instr = parse_u64(&mut args, "--instr").unwrap_or(TRACE_INSTR);
            let scale = parse_scale(&mut args).unwrap_or(workloads::Scale::Tiny);
            let Some(path) = out_path else {
                eprintln!("trace record needs --out FILE");
                return 2;
            };
            let [workload] = args.as_slice() else {
                eprintln!("trace record takes exactly one workload name");
                return 2;
            };
            match victima_bench::trace::record(workload, &cfg, scale, seed, warmup, instr, &path) {
                Ok(s) => {
                    out(&format!(
                        "recorded {}: {} records ({} loads, {} stores) / {} instructions, {} chunk(s), {} bytes\n",
                        path.display(),
                        s.counts.records,
                        s.counts.loads,
                        s.counts.stores,
                        s.counts.instructions,
                        s.chunks,
                        s.bytes
                    ));
                    0
                }
                Err(e) => {
                    eprintln!("trace record failed: {e}");
                    1
                }
            }
        }
        "replay" | "info" => {
            let [file] = args.as_slice() else {
                eprintln!("trace {sub} takes exactly one trace file");
                return 2;
            };
            let path = std::path::Path::new(file);
            let report = if sub == "replay" {
                victima_bench::trace::replay_report(path, &cfg, jobs)
            } else {
                victima_bench::trace::info_report(path)
            };
            match report {
                Ok(r) => emit(&[r], format, out_path.as_deref()),
                Err(e) => {
                    eprintln!("trace {sub} failed: {e}");
                    1
                }
            }
        }
        _ => usage(),
    }
}

/// `experiments ckpt <save|resume|info> …` — see `usage()`.
fn ckpt_cli(mut args: Vec<String>) -> i32 {
    if args.is_empty() {
        usage();
    }
    let sub = args.remove(0);
    let format = parse_format(&mut args).unwrap_or(Format::Text);
    let out_path = flag_value(&mut args, "--out").map(std::path::PathBuf::from);

    match sub.as_str() {
        "save" => {
            let cfg = parse_config(&mut args).unwrap_or_else(sim::SystemConfig::radix);
            let scale = parse_scale(&mut args).unwrap_or(workloads::Scale::Tiny);
            let seed = parse_u64(&mut args, "--seed").unwrap_or(vm_types::DEFAULT_SEED);
            let warmup = parse_u64(&mut args, "--warmup").unwrap_or(scale.default_budget().0);
            let Some(path) = out_path else {
                eprintln!("ckpt save needs --out FILE");
                return 2;
            };
            let [workload] = args.as_slice() else {
                eprintln!("ckpt save takes exactly one workload name");
                return 2;
            };
            match victima_bench::ckpt::save(workload, &cfg, scale, seed, warmup, &path) {
                Ok(ck) => {
                    let words: usize = ck.sections().map(|(_, w)| w.len()).sum();
                    out(&format!(
                        "saved {}: {} under {} @ {} scale, {} warm-up instructions, {} stream refs, {} sections / {} state words\n",
                        path.display(),
                        ck.meta.workload,
                        ck.meta.config,
                        ck.meta.scale.name(),
                        ck.meta.warmup,
                        ck.meta.refs_consumed,
                        ck.sections().count(),
                        words
                    ));
                    0
                }
                Err(e) => {
                    eprintln!("ckpt save failed: {e}");
                    1
                }
            }
        }
        "resume" | "info" => {
            let instr = parse_u64(&mut args, "--instr");
            let [file] = args.as_slice() else {
                eprintln!("ckpt {sub} takes exactly one checkpoint file");
                return 2;
            };
            let path = std::path::Path::new(file);
            let report = if sub == "resume" {
                victima_bench::ckpt::resume_report(path, instr)
            } else {
                victima_bench::ckpt::info_report(path)
            };
            match report {
                Ok(r) => emit(&[r], format, out_path.as_deref()),
                Err(e) => {
                    eprintln!("ckpt {sub} failed: {e}");
                    1
                }
            }
        }
        _ => usage(),
    }
}
