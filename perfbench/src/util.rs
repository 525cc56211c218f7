//! Small helpers shared by every workload: order statistics, the
//! result-digest hash, JSON rendering, host facts and the benchmark's
//! own span recorder.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for even lengths; 0 for
/// an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of `xs`; 0 for an empty
/// slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// 64-bit FNV-1a, rendered as 16 hex digits: the result-digest hash.
pub fn digest(text: &str) -> String {
    format!("{:016x}", svc::fnv1a64(text.as_bytes()))
}

/// Renders `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a number for JSON with all its digits (non-finite → 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Host facts recorded with every result: logical CPUs, CPU model and
/// the source revision (read from `.git` when the checkout has one).
pub fn host_facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![("nproc", nproc.to_string()), ("cpu_model", cpu), ("git_head", git_head())]
}

fn git_head() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                let packed = std::fs::read_to_string(git.join("packed-refs"))?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
                    .ok_or(std::io::ErrorKind::NotFound.into())
            })
            .unwrap_or_else(|_: std::io::Error| "unknown".to_owned()),
    }
}

/// Where runs keep scratch state and per-layer artifacts (ignored by
/// git): `results/` beside this package's manifest.
pub fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// One closed span: a call from the benchmark into a layer's public
/// function.
#[derive(Clone, Debug)]
struct SpanRec {
    layer: &'static str,
    name: &'static str,
    dur_ns: u64,
    /// Time covered by this span's direct children.
    child_ns: u64,
}

/// The benchmark's own in-memory span recorder. Spans nest; a layer's
/// self time is the sum over its spans of duration minus the time their
/// direct children cover. Nothing is written until [`Spans::summary`].
#[derive(Debug, Default)]
pub struct Spans {
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
    done: Vec<SpanRec>,
}

/// Self time (ms) per layer.
pub type LayerSelfMs = BTreeMap<&'static str, f64>;

/// Call count and total time (ms) per `layer.name` span.
pub type SpanTotals = BTreeMap<String, (u64, f64)>;

impl Spans {
    /// Runs `f` inside a span named `layer.name`.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let start = Instant::now();
        self.open.push(0);
        let r = f(self);
        let dur_ns = start.elapsed().as_nanos() as u64;
        let child_ns = self.open.pop().expect("span stack balanced");
        if let Some(parent) = self.open.last_mut() {
            *parent += dur_ns;
        }
        self.done.push(SpanRec { layer, name, dur_ns, child_ns });
        r
    }

    /// Per-layer self time (ms) and per-span-name call counts and total
    /// time (ms), in name order.
    pub fn summary(&self) -> (LayerSelfMs, SpanTotals) {
        let mut layers = BTreeMap::new();
        let mut names = BTreeMap::new();
        for s in &self.done {
            *layers.entry(s.layer).or_insert(0.0) += (s.dur_ns - s.child_ns.min(s.dur_ns)) as f64 / 1e6;
            let e = names.entry(format!("{}.{}", s.layer, s.name)).or_insert((0u64, 0.0f64));
            e.0 += 1;
            e.1 += s.dur_ns as f64 / 1e6;
        }
        (layers, names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::default();
        s.span("sim", "outer", |s| {
            s.span("workloads", "inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let (layers, names) = s.summary();
        assert!(layers["workloads"] >= 5.0);
        assert!(layers["sim"] < layers["workloads"]);
        assert_eq!(names["sim.outer"].0, 1);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
