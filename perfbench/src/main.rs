//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! perfbench --workload <native|virt|sampled|service> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Prints a provenance line, then (last) the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--bless` rewrites
//! `expected/<workload>.digests` from this run (default seed only). The
//! sweep daemon of the `service` workload re-executes this binary as its
//! worker processes (`service-worker` subcommand).

use perfbench::{check::Expected, Options, Workload, DEFAULT_SEED};
use std::process::ExitCode;
use std::time::Duration;

fn usage(err: &str) -> ExitCode {
    eprintln!("perfbench: {err}");
    eprintln!("usage: perfbench --workload <native|virt|sampled|service> --seed <n> --seconds <s> --trace <0|1> [--bless]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(svc::WORKER_ARG) {
        return ExitCode::from(u8::try_from(svc::worker_main()).unwrap_or(1));
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, DEFAULT_SEED, 10.0, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let Some(value) = it.next() else { return usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value:?}")),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    if bless && (seed != DEFAULT_SEED || trace) {
        return usage("--bless records untraced runs at the default seed only");
    }
    let worker_exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate this binary: {e}")),
    };
    let opts = Options {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        smoke: false,
        worker_exe,
    };
    let outcome = perfbench::run(&opts);
    for f in &outcome.failures {
        eprintln!("perfbench: FAIL {f}");
    }
    if bless {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("expected/{}.digests", workload.name()));
        if let Err(e) = std::fs::write(&path, Expected::render(&outcome.digests)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: wrote {} digests to {}", outcome.digests.len(), path.display());
    }
    println!("{}", outcome.provenance_line(&opts));
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
