//! Deterministic fault injection for the sweep service.
//!
//! A [`FaultPlan`] names the failures a daemon should inject into its own
//! machinery — hung or aborting workers, slow specs, torn/corrupt/empty
//! cache entries, truncated journal records, dropped client connections —
//! so the chaos suite can drive every recovery path through the *real*
//! binary instead of waiting for production to produce each failure by
//! accident. Plans are parsed from `serve --faults` (or the
//! `VICTIMA_SVC_FAULTS` environment variable) and are **seeded**: every
//! probabilistic decision is a stateless hash of
//! `(seed, site, spec key, attempt)` via the same SplitMix64 mixer the
//! workload generators use, so a given plan injects the identical fault
//! sequence on every run regardless of thread scheduling or wall-clock.
//! Folding the attempt number into the draw is what makes retry testing
//! possible: a fault with probability `p < 1` can hit attempt 0 and miss
//! attempt 1, exercising the dispatcher's re-dispatch path end to end.
//!
//! Grammar (comma-separated directives; probabilities default to 1):
//!
//! ```text
//! plan      := directive (',' directive)*
//! directive := 'seed=0x' HEX
//!            | 'hang='  workload prob?     worker never replies (killed at deadline)
//!            | 'abort=' workload prob?     worker calls abort() mid-spec
//!            | 'slow='  workload ':' MS prob?   worker sleeps MS ms before simulating
//!            | 'cache-torn' prob?          store writes a torn (half) entry
//!            | 'cache-corrupt' prob?       store flips a payload byte under a stale checksum
//!            | 'cache-empty' prob?         store writes a zero-byte entry
//!            | 'journal-truncate' prob?    journal record is cut mid-line
//!            | 'drop-conn=' COUNT          drop the first COUNT submit streams mid-sweep
//! workload  := NAME | '*'
//! prob      := '@' FLOAT                   in (0, 1]; omitted = always
//! ```
//!
//! All decisions are made **daemon-side** (worker faults travel to the
//! worker process as an `"inject"` key on the spec line), so the plan has
//! one owner and one seed; worker processes stay env-free.

use vm_types::{mix2, DEFAULT_SEED};

/// Environment variable carrying a fault plan, read by `serve` when no
/// `--faults` flag is given (same grammar).
pub const FAULTS_ENV: &str = "VICTIMA_SVC_FAULTS";

/// 64-bit FNV-1a over a byte string: the spec-fingerprint hash, reused
/// here for fault-decision keys and the cache entry checksum trailer.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fault to inject into one worker attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker never answers this spec (the dispatcher's deadline must
    /// kill it).
    Hang,
    /// The worker calls `abort()` instead of simulating.
    Abort,
    /// The worker sleeps this many milliseconds before simulating.
    Slow(u64),
}

impl WorkerFault {
    /// The wire spelling carried to the worker process as the spec line's
    /// `"inject"` member.
    pub fn wire(&self) -> String {
        match self {
            WorkerFault::Hang => "hang".to_owned(),
            WorkerFault::Abort => "abort".to_owned(),
            WorkerFault::Slow(ms) => format!("slow:{ms}"),
        }
    }

    /// Parses the wire spelling back (the worker-process side).
    pub fn from_wire(s: &str) -> Result<Self, String> {
        if let Some(ms) = s.strip_prefix("slow:") {
            return ms.parse().map(WorkerFault::Slow).map_err(|e| format!("bad slow fault {s:?}: {e}"));
        }
        match s {
            "hang" => Ok(WorkerFault::Hang),
            "abort" => Ok(WorkerFault::Abort),
            other => Err(format!("unknown injected fault {other:?}")),
        }
    }
}

/// A fault to inject into one cache store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheFault {
    /// Write only the first half of the framed entry (a disk-full /
    /// kill-mid-write torn entry; no valid trailer survives).
    Torn,
    /// Flip one payload byte but keep the trailer computed over the clean
    /// payload — an on-disk bit flip the checksum must catch.
    Corrupt,
    /// Write a zero-byte entry (the classic disk-full artifact).
    Empty,
}

/// Sites a probabilistic decision can be drawn at; each gets its own salt
/// so `hang=*@0.5,abort=*@0.5` draw independently.
#[derive(Clone, Copy)]
enum Salt {
    Hang = 0x68_61_6e_67,
    Abort = 0x61_62_6f_72,
    Slow = 0x73_6c_6f_77,
    CacheTorn = 0x63_74_6f_72,
    CacheCorrupt = 0x63_63_6f_72,
    CacheEmpty = 0x63_65_6d_70,
    Journal = 0x6a_74_72_75,
}

#[derive(Clone, Debug, PartialEq)]
enum Directive {
    Hang { workload: String, prob: f64 },
    Abort { workload: String, prob: f64 },
    Slow { workload: String, ms: u64, prob: f64 },
    CacheTorn { prob: f64 },
    CacheCorrupt { prob: f64 },
    CacheEmpty { prob: f64 },
    JournalTruncate { prob: f64 },
    DropConn { count: u64 },
}

/// A parsed, seeded fault-injection plan. The empty plan (no directives)
/// injects nothing and is the default everywhere.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    directives: Vec<Directive>,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Parses a plan from the `--faults` grammar (see the module docs).
    /// An empty string is the empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self { seed: DEFAULT_SEED, directives: Vec::new() };
        for raw in spec.split(',') {
            let d = raw.trim();
            if d.is_empty() {
                continue;
            }
            if let Some(hex) = d.strip_prefix("seed=0x") {
                plan.seed = u64::from_str_radix(hex, 16).map_err(|e| format!("bad fault seed {d:?}: {e}"))?;
                continue;
            }
            let (body, prob) = split_prob(d)?;
            plan.directives.push(parse_directive(&body, prob)?);
        }
        Ok(plan)
    }

    /// Builds the plan a daemon should run under from [`FAULTS_ENV`]
    /// (full grammar); the empty plan when it is unset.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(spec) => Self::parse(&spec),
            Err(_) => Ok(Self::none()),
        }
    }

    /// The fault (if any) to inject into `attempt` of the spec whose
    /// workload is `workload` and whose fingerprint hashes to `key`.
    /// First matching directive wins, in plan order.
    pub fn worker_fault(&self, workload: &str, key: u64, attempt: u32) -> Option<WorkerFault> {
        for d in &self.directives {
            match d {
                Directive::Hang { workload: w, prob }
                    if matches(w, workload) && self.decide(Salt::Hang, key, attempt, *prob) =>
                {
                    return Some(WorkerFault::Hang);
                }
                Directive::Abort { workload: w, prob }
                    if matches(w, workload) && self.decide(Salt::Abort, key, attempt, *prob) =>
                {
                    return Some(WorkerFault::Abort);
                }
                Directive::Slow { workload: w, ms, prob }
                    if matches(w, workload) && self.decide(Salt::Slow, key, attempt, *prob) =>
                {
                    return Some(WorkerFault::Slow(*ms));
                }
                _ => {}
            }
        }
        None
    }

    /// The fault (if any) to inject into the `serial`-th cache store of
    /// the entry whose fingerprint hashes to `key`.
    pub fn cache_fault(&self, key: u64, serial: u64) -> Option<CacheFault> {
        let serial = u32::try_from(serial & 0xffff_ffff).expect("masked to 32 bits");
        for d in &self.directives {
            match d {
                Directive::CacheTorn { prob } if self.decide(Salt::CacheTorn, key, serial, *prob) => {
                    return Some(CacheFault::Torn);
                }
                Directive::CacheCorrupt { prob } if self.decide(Salt::CacheCorrupt, key, serial, *prob) => {
                    return Some(CacheFault::Corrupt);
                }
                Directive::CacheEmpty { prob } if self.decide(Salt::CacheEmpty, key, serial, *prob) => {
                    return Some(CacheFault::Empty);
                }
                _ => {}
            }
        }
        None
    }

    /// Whether the journal record for the job whose id hashes to `key`
    /// should be cut mid-line.
    pub fn journal_truncate(&self, key: u64) -> bool {
        self.directives.iter().any(|d| match d {
            Directive::JournalTruncate { prob } => self.decide(Salt::Journal, key, 0, *prob),
            _ => false,
        })
    }

    /// How many submit streams to drop mid-sweep before behaving (the
    /// daemon counts drops against this budget).
    pub fn drop_conn_budget(&self) -> u64 {
        self.directives
            .iter()
            .map(|d| match d {
                Directive::DropConn { count } => *count,
                _ => 0,
            })
            .sum()
    }

    /// One deterministic Bernoulli draw: a stateless hash of
    /// `(seed, site, key, attempt)` compared against `prob`. Independent
    /// of call order, thread scheduling, and wall-clock.
    fn decide(&self, salt: Salt, key: u64, attempt: u32, prob: f64) -> bool {
        if prob >= 1.0 {
            return true;
        }
        let h = mix2(self.seed ^ (salt as u64), key ^ (u64::from(attempt) << 48));
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < prob
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "(none)");
        }
        write!(f, "seed=0x{:x}", self.seed)?;
        for d in &self.directives {
            let part = match d {
                Directive::Hang { workload, prob } => format!("hang={workload}{}", prob_suffix(*prob)),
                Directive::Abort { workload, prob } => format!("abort={workload}{}", prob_suffix(*prob)),
                Directive::Slow { workload, ms, prob } => {
                    format!("slow={workload}:{ms}{}", prob_suffix(*prob))
                }
                Directive::CacheTorn { prob } => format!("cache-torn{}", prob_suffix(*prob)),
                Directive::CacheCorrupt { prob } => format!("cache-corrupt{}", prob_suffix(*prob)),
                Directive::CacheEmpty { prob } => format!("cache-empty{}", prob_suffix(*prob)),
                Directive::JournalTruncate { prob } => format!("journal-truncate{}", prob_suffix(*prob)),
                Directive::DropConn { count } => format!("drop-conn={count}"),
            };
            write!(f, ",{part}")?;
        }
        Ok(())
    }
}

fn prob_suffix(prob: f64) -> String {
    if prob >= 1.0 {
        String::new()
    } else {
        format!("@{prob}")
    }
}

fn matches(pattern: &str, workload: &str) -> bool {
    pattern == "*" || pattern == workload
}

/// Splits a trailing `@PROB` off a directive, validating the range.
fn split_prob(d: &str) -> Result<(String, f64), String> {
    match d.rsplit_once('@') {
        Some((body, p)) => {
            let prob: f64 = p.parse().map_err(|e| format!("bad probability in {d:?}: {e}"))?;
            if !(prob > 0.0 && prob <= 1.0) {
                return Err(format!("probability in {d:?} must be in (0, 1]"));
            }
            Ok((body.to_owned(), prob))
        }
        None => Ok((d.to_owned(), 1.0)),
    }
}

fn parse_directive(body: &str, prob: f64) -> Result<Directive, String> {
    if let Some(w) = body.strip_prefix("hang=") {
        return named(w, "hang").map(|workload| Directive::Hang { workload, prob });
    }
    if let Some(w) = body.strip_prefix("abort=") {
        return named(w, "abort").map(|workload| Directive::Abort { workload, prob });
    }
    if let Some(rest) = body.strip_prefix("slow=") {
        let (w, ms) = rest
            .rsplit_once(':')
            .ok_or_else(|| format!("slow={rest:?} needs a millisecond suffix (slow=WORKLOAD:MS)"))?;
        let ms = ms.parse().map_err(|e| format!("bad slow milliseconds in {body:?}: {e}"))?;
        return named(w, "slow").map(|workload| Directive::Slow { workload, ms, prob });
    }
    if let Some(n) = body.strip_prefix("drop-conn=") {
        if prob < 1.0 {
            return Err("drop-conn takes a count, not a probability".into());
        }
        let count = n.parse().map_err(|e| format!("bad drop-conn count in {body:?}: {e}"))?;
        return Ok(Directive::DropConn { count });
    }
    match body {
        "cache-torn" => Ok(Directive::CacheTorn { prob }),
        "cache-corrupt" => Ok(Directive::CacheCorrupt { prob }),
        "cache-empty" => Ok(Directive::CacheEmpty { prob }),
        "journal-truncate" => Ok(Directive::JournalTruncate { prob }),
        other => Err(format!(
            "unknown fault directive {other:?} (hang=W, abort=W, slow=W:MS, cache-torn, \
             cache-corrupt, cache-empty, journal-truncate, drop-conn=N, seed=0xHEX)"
        )),
    }
}

fn named(w: &str, what: &str) -> Result<String, String> {
    if w.is_empty() {
        return Err(format!("{what}= needs a workload name or *"));
    }
    Ok(w.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.worker_fault("RND", 1, 0), None);
        assert_eq!(plan.cache_fault(1, 0), None);
        assert!(!plan.journal_truncate(1));
        assert_eq!(plan.drop_conn_budget(), 0);
    }

    #[test]
    fn directives_parse_and_round_trip_through_display() {
        let plan =
            FaultPlan::parse("seed=0x7,hang=BC,abort=*@0.25,slow=RND:50,cache-torn,drop-conn=2").unwrap();
        let echoed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(echoed, plan);
        assert_eq!(plan.drop_conn_budget(), 2);
    }

    #[test]
    fn bad_directives_are_rejected_with_context() {
        for bad in ["warp", "hang=", "slow=RND", "abort=BC@1.5", "abort=BC@0", "drop-conn=x", "seed=0xzz"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn certain_faults_hit_every_attempt() {
        let plan = FaultPlan::parse("hang=BC").unwrap();
        for attempt in 0..4 {
            assert_eq!(plan.worker_fault("BC", 99, attempt), Some(WorkerFault::Hang));
            assert_eq!(plan.worker_fault("RND", 99, attempt), None);
        }
        let starred = FaultPlan::parse("abort=*").unwrap();
        assert_eq!(starred.worker_fault("RND", 7, 0), Some(WorkerFault::Abort));
    }

    #[test]
    fn probabilistic_faults_are_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::parse("seed=0x1234,abort=*@0.5").unwrap();
        let again = FaultPlan::parse("seed=0x1234,abort=*@0.5").unwrap();
        let mut hits = 0;
        let mut flips = 0;
        for key in 0..256u64 {
            let a = plan.worker_fault("RND", key, 0);
            assert_eq!(a, again.worker_fault("RND", key, 0), "same plan, same draw");
            if a.is_some() {
                hits += 1;
            }
            if a != plan.worker_fault("RND", key, 1) {
                flips += 1;
            }
        }
        assert!((64..192).contains(&hits), "p=0.5 should hit roughly half: {hits}");
        assert!(flips > 32, "attempt number must perturb the draw: {flips}");
    }

    #[test]
    fn worker_fault_wire_round_trips() {
        for f in [WorkerFault::Hang, WorkerFault::Abort, WorkerFault::Slow(125)] {
            assert_eq!(WorkerFault::from_wire(&f.wire()).unwrap(), f);
        }
        assert!(WorkerFault::from_wire("melt").is_err());
    }
}
