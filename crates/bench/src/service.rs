//! CLI glue for the sweep service: `experiments serve`, `submit` and
//! `status` (argument parsing, human-facing progress on stderr, machine
//! stream on stdout). All actual service machinery lives in the `svc`
//! crate; this module only translates flags into [`svc`] calls.

use crate::cli::{err, fail, flag_value, out, parse_sampling, parse_scale, parse_u64, take_flag};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;
use svc::{ClientOptions, DaemonConfig, FaultPlan, StreamLine, SweepRequest, WorkerBackend};

/// Default service directory, relative to the working directory.
pub const DEFAULT_DIR: &str = ".victima-svc";

fn service_dir(args: &mut Vec<String>) -> PathBuf {
    flag_value(args, "--dir").map_or_else(|| PathBuf::from(DEFAULT_DIR), PathBuf::from)
}

fn reject_leftovers(args: &[String], what: &str) {
    if let Some(extra) = args.first() {
        fail(&format!("{what}: unexpected argument {extra:?}"));
    }
}

/// `experiments serve [--dir DIR] [--port N] [--workers N]
/// [--deadline-ms N] [--retries N] [--cache-max-bytes N] [--faults PLAN]`
/// — run the daemon in the foreground until a client sends the shutdown
/// op. `--faults` (or `VICTIMA_SVC_FAULTS`) turns on deterministic fault
/// injection; see `svc::fault` for the grammar.
pub fn serve_cli(mut args: Vec<String>) -> i32 {
    let dir = service_dir(&mut args);
    let port = parse_u64(&mut args, "--port").map_or(0u16, |p| match u16::try_from(p) {
        Ok(p) => p,
        Err(_) => fail("--port needs a value in 0..65536"),
    });
    let workers = parse_u64(&mut args, "--workers").map_or_else(default_workers, |n| n.max(1) as usize);
    let deadline = parse_u64(&mut args, "--deadline-ms")
        .map_or(svc::daemon::DEFAULT_DEADLINE, |ms| Duration::from_millis(ms.max(1)));
    let retries =
        parse_u64(&mut args, "--retries").map_or(svc::daemon::DEFAULT_RETRIES, |n| match u32::try_from(n) {
            Ok(n) => n,
            Err(_) => fail("--retries needs a value in 0..2^32"),
        });
    let cache_max_bytes = parse_u64(&mut args, "--cache-max-bytes");
    let faults = match flag_value(&mut args, "--faults") {
        Some(spec) => match FaultPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(e) => fail(&format!("--faults: {e}")),
        },
        None => match FaultPlan::from_env() {
            Ok(plan) => plan,
            Err(e) => fail(&format!("{}: {e}", svc::FAULTS_ENV)),
        },
    };
    reject_leftovers(&args, "serve");
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            err(format!("serve: cannot locate the experiments binary for worker re-exec: {e}"));
            return 1;
        }
    };
    err(format!("svc: serving {} with {workers} worker process(es)", dir.display()));
    let cfg = DaemonConfig {
        workers,
        port,
        deadline,
        retries,
        cache_max_bytes,
        faults,
        ..DaemonConfig::new(dir, WorkerBackend::Process(exe))
    };
    match svc::run(cfg) {
        Ok(()) => 0,
        Err(e) => {
            err(format!("serve failed: {e}"));
            1
        }
    }
}

/// Worker-count default: `VICTIMA_JOBS`, else available parallelism —
/// the same policy as the batch engine.
fn default_workers() -> usize {
    sim::SimEngine::new().jobs()
}

/// Builds the [`SweepRequest`] shared by `submit` and `submit --local`
/// from the CLI flags.
fn parse_request(args: &mut Vec<String>) -> SweepRequest {
    let configs: Vec<String> = flag_value(args, "--configs")
        .unwrap_or_else(|| "radix,victima".to_owned())
        .split(',')
        .map(str::to_owned)
        .collect();
    let workloads: Vec<String> = match flag_value(args, "--workloads").as_deref() {
        None | Some("all") => workloads::registry::WORKLOAD_NAMES.iter().map(|&w| w.to_owned()).collect(),
        Some(list) => list.split(',').map(str::to_owned).collect(),
    };
    let scale = parse_scale(args).unwrap_or(workloads::Scale::Tiny);
    let (default_warmup, default_instr) = scale.default_budget();
    let warmup = parse_u64(args, "--warmup").unwrap_or(default_warmup);
    let instructions = parse_u64(args, "--instr").unwrap_or(default_instr);
    let seed = parse_u64(args, "--seed").unwrap_or(vm_types::DEFAULT_SEED);
    let sampling = parse_sampling(args);
    SweepRequest { configs, workloads, scale, warmup, instructions, seed, sampling }
}

/// `experiments submit [--dir DIR] [--configs a,b] [--workloads X,Y|all]
/// [--scale S] [--warmup N] [--instr N] [--seed N] [--sampling U:D[:W]]
/// [--out FILE] [--local] [--watch] [--attempts N]` — submit a sweep and
/// stream its results.
///
/// Every per-spec line goes to stdout as it arrives; `--out` appends the
/// same lines to a file (results and errors only — no control lines, so
/// two outputs of the same sweep diff clean). `--watch` adds a live
/// per-spec progress line on stderr (`[watch done/total] config/workload
/// …`) without touching the machine stream. `--local` skips the daemon
/// and runs the identical sweep in-process, emitting identical bytes.
/// `--attempts N` (default 3) bounds total submit connections: if the
/// stream drops mid-sweep the client reconnects, resubmits, and resumes
/// where it left off — cached replay makes the reassembled stream
/// byte-identical to an undropped one. Exit status: 0 when every spec
/// produced a result, 1 otherwise.
pub fn submit_cli(mut args: Vec<String>) -> i32 {
    let dir = service_dir(&mut args);
    let local = take_flag(&mut args, "--local");
    let watch = take_flag(&mut args, "--watch");
    let out_path = flag_value(&mut args, "--out").map(PathBuf::from);
    let attempts = parse_u64(&mut args, "--attempts").map_or(3u32, |n| match u32::try_from(n.max(1)) {
        Ok(n) => n,
        Err(_) => fail("--attempts needs a value in 1..2^32"),
    });
    let req = parse_request(&mut args);
    reject_leftovers(&args, "submit");
    let mut out_file = out_path.as_ref().map(|p| match std::fs::File::create(p) {
        Ok(f) => f,
        Err(e) => fail(&format!("cannot create {}: {e}", p.display())),
    });
    let mut emit = |line: &str| {
        out(&format!("{line}\n"));
        if let Some(f) = out_file.as_mut() {
            if let Err(e) = writeln!(f, "{line}") {
                err(format!("submit: write to --out failed: {e}"));
                std::process::exit(1);
            }
        }
    };
    // `--watch` progress: one stderr line per spec as it lands. The
    // total is the sweep's own size (configs × workloads) — the stream
    // carries exactly one Result/Error/Timeout line per spec.
    let total = (req.configs.len() * req.workloads.len()) as u64;
    let mut done = 0u64;
    let mut watch_note = |parsed: &StreamLine| {
        if !watch {
            return;
        }
        let what = match parsed {
            StreamLine::Result { report, .. } => {
                let p = &report.provenance;
                format!("{}/{} ok", p.configs.join("+"), p.workloads.join("+"))
            }
            StreamLine::Error { config, workload, error, .. } => {
                format!("{config}/{workload} ERROR: {error}")
            }
            StreamLine::Timeout { config, workload, error, .. } => {
                format!("{config}/{workload} TIMEOUT: {error}")
            }
            _ => return,
        };
        done += 1;
        err(format!("[watch {done}/{total}] {what}"));
    };

    let summary = if local {
        svc::run_local(&req, |line| {
            emit(line);
            if watch {
                match svc::parse_stream_line(line) {
                    Ok(parsed) => watch_note(&parsed),
                    Err(e) => err(format!("[watch] unparseable line: {e}")),
                }
            }
        })
    } else {
        svc::client::submit_resumed(&dir, ClientOptions::default(), attempts, &req, |line, parsed| {
            emit(line);
            watch_note(parsed);
        })
    };
    match summary {
        Ok(s) => {
            let reconnects = if s.connections > 1 {
                format!(", {} reconnect(s)", s.connections - 1)
            } else {
                String::new()
            };
            err(format!(
                "[{}: {} spec(s) — {} result(s), {} cached, {} error(s){reconnects}]",
                s.job, s.specs, s.results, s.cached, s.errors
            ));
            i32::from(s.errors > 0)
        }
        Err(e) => {
            err(format!("submit failed: {e}"));
            1
        }
    }
}

/// `experiments status [--dir DIR] [--metrics] [--shutdown]` — print the
/// daemon's status line (stdout, machine-readable) plus a human summary
/// (stderr); `--metrics` asks for the observability registry (queue
/// depth, latency histogram, worker utilization, cache hit ratio)
/// instead; `--shutdown` asks the daemon to exit.
pub fn status_cli(mut args: Vec<String>) -> i32 {
    let dir = service_dir(&mut args);
    let stop = take_flag(&mut args, "--shutdown");
    let want_metrics = take_flag(&mut args, "--metrics");
    reject_leftovers(&args, "status");
    if want_metrics {
        return match svc::metrics(&dir) {
            Ok(m) => {
                out(&format!("{}\n", m.to_line()));
                err(format!(
                    "[up {:.1}s: queue {}, {} worker(s) at {:.0}% busy, latency mean {:.1} ms over {} spec(s), cache hit ratio {:.0}% ({} hit/{} miss), {} retried, {} timed out, {} failed, {} quarantined, {} respawn(s)]",
                    m.uptime_ms as f64 / 1_000.0,
                    m.queue_depth,
                    m.workers,
                    100.0 * m.worker_utilization(),
                    m.mean_latency_ms(),
                    m.latency_count,
                    100.0 * m.cache_hit_ratio(),
                    m.cache_hits,
                    m.cache_misses,
                    m.retries,
                    m.timeouts,
                    m.failures,
                    m.quarantined,
                    m.worker_respawns
                ));
                0
            }
            Err(e) => {
                err(format!("metrics failed: {e}"));
                1
            }
        };
    }
    if stop {
        return match svc::shutdown(&dir) {
            Ok(()) => {
                err(format!("[daemon at {} shut down]", dir.display()));
                0
            }
            Err(e) => {
                err(format!("shutdown failed: {e}"));
                1
            }
        };
    }
    match svc::status(&dir) {
        Ok(info) => {
            out(&format!("{}\n", info.to_line()));
            err(format!(
                "[{} worker(s), jobs {}/{} done, specs {} done ({} simulated, {} cached, {} failed, {} timed out, {} retried), cache {} entries/{} B ({} quarantined, {} evicted), {} journal record(s) skipped]",
                info.workers,
                info.jobs_completed,
                info.jobs_accepted,
                info.specs_completed,
                info.specs_simulated,
                info.specs_cached,
                info.specs_failed,
                info.specs_timed_out,
                info.specs_retried,
                info.cache_entries,
                info.cache_bytes,
                info.cache_quarantined,
                info.cache_evicted,
                info.journal_skipped
            ));
            0
        }
        Err(e) => {
            err(format!("status failed: {e}"));
            1
        }
    }
}
