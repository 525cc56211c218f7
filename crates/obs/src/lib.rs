//! Unified observability layer for the Victima reproduction.
//!
//! Two small, std-only building blocks shared by the simulator, the
//! sweep daemon, and the experiment harness:
//!
//! * [`metrics`] — a registry of counters, gauges, and fixed-bucket
//!   histograms stored as flat `u64` words (atomic, so one registry can
//!   be shared across daemon threads), plus the decoded snapshot types
//!   ([`MetricValue`], [`HistSnapshot`]) and [`merge_snapshots`].
//!   Registration allocates; the update path is a bounds-checked index
//!   plus a relaxed atomic add — no allocation, no locks. The simulator
//!   does not record through a registry at all: it builds snapshots
//!   from the counters it already keeps, once per measured window.
//! * [`span`] — structured span tracing: named phases with monotonic
//!   microsecond timings ([`vm_types::MonotonicClock`]) and numeric
//!   fields, plus a self-time aggregator for phase-breakdown reports.
//!
//! # Determinism contract
//!
//! Nothing in this crate may feed a `RunSpec` fingerprint, a `SimStats`
//! field, or a `--check` artifact. Metrics mirror simulation events (and
//! are therefore deterministic), but span timings are wall-clock and
//! exist only in side channels: profile artifacts, the daemon log, and
//! the `metrics` protocol response. The simulator enforces this by
//! keeping the whole layer behind `Option` handles that default to
//! `None`, read only at window boundaries — never on the hot path.
//!
//! # Examples
//!
//! ```
//! use obs::metrics::{Registry, MetricValue};
//!
//! let mut reg = Registry::new();
//! let hits = reg.counter("tlb_l1_hit");
//! let depth = reg.histogram("walk_depth");
//! reg.add(hits, 3);
//! reg.observe(depth, 4);
//! let snap = reg.snapshot();
//! assert_eq!(snap[0], ("tlb_l1_hit".to_owned(), MetricValue::Counter(3)));
//! ```

#![deny(missing_docs)]

pub mod metrics;
pub mod span;

pub use metrics::{merge_snapshots, HistSnapshot, MetricId, MetricValue, Registry, HIST_BUCKETS};
pub use span::{aggregate, PhaseAgg, SpanEvent, Tracer};
