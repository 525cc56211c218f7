//! Flag parsing and stdout for every `experiments` subcommand.
//!
//! Each parser removes its flag (and the flag's value) from `args`, so
//! what is left afterwards is positionals and unknown flags. A flag
//! without a value, or with a malformed one, prints one line to stderr
//! and exits with status 2, the usage-error status.

use report::ExperimentReport;
use sim::{SamplingConfig, SystemConfig};
use std::io::{ErrorKind, Write};
use workloads::Scale;

/// Prints `msg` to stderr and exits 2.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Removes `flag` and its value from `args`; `None` when `flag` is absent.
pub fn flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Removes every occurrence of the switch `flag`; whether there was one.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let had = args.iter().any(|a| a == flag);
    args.retain(|a| a != flag);
    had
}

/// An unsigned integer flag (`--seed`, `--warmup`, `--instr`, ...).
pub fn parse_u64(args: &mut Vec<String>, flag: &str) -> Option<u64> {
    flag_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| fail(&format!("{flag} needs an unsigned integer"))))
}

/// `--jobs N`, a positive worker count.
pub fn parse_jobs(args: &mut Vec<String>) -> Option<usize> {
    flag_value(args, "--jobs")
        .map(|v| v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| fail("--jobs needs a positive integer")))
}

/// `--scale tiny|small|full|paper`; `None` when absent so each surface
/// applies its own default (Tiny for trace, ckpt and submit, Full for
/// the experiment suite).
pub fn parse_scale(args: &mut Vec<String>) -> Option<Scale> {
    flag_value(args, "--scale").map(|v| {
        Scale::parse(&v)
            .unwrap_or_else(|| fail(&format!("unknown scale {v:?} (pick tiny, small, full or paper)")))
    })
}

/// `--config KEY`, resolved through [`SystemConfig::by_name`] (the same
/// registry the sweep service validates against).
pub fn parse_config(args: &mut Vec<String>) -> Option<SystemConfig> {
    flag_value(args, "--config").map(|v| {
        SystemConfig::by_name(&v).unwrap_or_else(|| {
            fail(&format!("unknown config {v:?} (pick radix, victima, victima+stlb or pom)"))
        })
    })
}

/// `--sampling U:D[:W]`.
pub fn parse_sampling(args: &mut Vec<String>) -> Option<SamplingConfig> {
    flag_value(args, "--sampling")
        .map(|v| SamplingConfig::parse(&v).unwrap_or_else(|e| fail(&format!("--sampling: {e}"))))
}

/// `--format text|json|jsonl|csv|md`.
pub fn parse_format(args: &mut Vec<String>) -> Option<Format> {
    flag_value(args, "--format").map(|v| {
        Format::parse(&v)
            .unwrap_or_else(|| fail(&format!("unknown format {v:?} (pick text, json, jsonl, csv or md)")))
    })
}

/// Output format selected with `--format`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Aligned plain-text tables.
    Text,
    /// One `victima-report/1` JSON document.
    Json,
    /// One JSON object per row.
    Jsonl,
    /// Comma-separated values.
    Csv,
    /// A markdown section.
    Md,
}

impl Format {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "text" => Format::Text,
            "json" => Format::Json,
            "jsonl" => Format::Jsonl,
            "csv" => Format::Csv,
            "md" => Format::Md,
            _ => return None,
        })
    }

    /// The file extension of an artifact in this format.
    pub fn extension(self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Json => "json",
            Format::Jsonl => "jsonl",
            Format::Csv => "csv",
            Format::Md => "md",
        }
    }

    /// Renders one report in this format.
    pub fn render(self, r: &ExperimentReport) -> String {
        match self {
            Format::Text => report::text::render(r),
            Format::Json => report::json::to_json(r),
            Format::Jsonl => report::jsonl::render(r),
            Format::Csv => report::csv::to_csv(r),
            Format::Md => report::markdown::render(r),
        }
    }
}

/// Writes `text` to stdout and flushes it. When the reader has closed
/// the pipe (`experiments --list | head -1`), the process ends quietly
/// with status 141, the status a shell reports for a process killed by
/// `SIGPIPE`; `print!` would panic there instead. Any other write error
/// is reported and exits 1.
pub fn out(text: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(1);
    }
}
