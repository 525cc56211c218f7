//! The sweep service: a resident simulation daemon with a job queue,
//! process-sharded workers, and a content-addressed result cache.
//!
//! Sweeps — the paper's (config × workload) result matrices — are pure
//! functions of their specs (`sim`'s determinism guarantee), which makes
//! their results cacheable by construction. This crate turns that
//! property into infrastructure:
//!
//! - [`daemon`] — a resident daemon on a localhost TCP socket accepting
//!   newline-delimited JSON requests ([`proto`]), sharding specs across
//!   worker *processes* ([`worker`]) and streaming per-spec results back
//!   incrementally, in sweep order;
//! - [`cache`] — results keyed by [`sim::RunSpec::fingerprint`] (which
//!   folds in `sim::ENGINE_ID`), served byte-identical on resubmission
//!   with zero simulation;
//! - [`journal`] — accepted jobs persisted before they run, so a killed
//!   daemon resumes unfinished sweeps on restart;
//! - [`client`] — connect/submit/status helpers plus the daemon-free
//!   [`client::run_local`] one-shot path that emits identical bytes.
//!
//! Crash isolation is structural: a spec that panics kills one worker
//! process, its dispatcher reports a typed `error` entry and respawns,
//! and the rest of the sweep completes. A spec that *hangs* is bounded
//! by a per-spec wall-clock deadline (kill → typed `timeout` entry), a
//! failed or timed-out spec is re-dispatched with exponential backoff up
//! to a retry budget, and cache entries carry a length + FNV-1a checksum
//! trailer so torn or corrupt files are quarantined and re-simulated,
//! never served. All of those failure paths are exercised by [`fault`] —
//! a seeded, deterministic fault-injection plan the daemon runs against
//! itself. The crate is std-only, like the whole workspace. The CLI
//! surface lives in `victima-bench` (`experiments serve` / `submit` /
//! `status`); see DESIGN.md, "Sweep service" and "Failure model & fault
//! injection".

#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod fault;
pub mod journal;
pub mod log;
pub mod proto;
pub mod worker;

pub use cache::ResultCache;
pub use client::{connect, metrics, run_local, shutdown, status, submit, ClientOptions, SweepSummary};
pub use daemon::{run, start, DaemonConfig, DaemonHandle, ADDR_FILE, MAX_REQUEST_BYTES, PID_FILE};
pub use fault::{fnv1a64, CacheFault, FaultPlan, WorkerFault, FAULTS_ENV};
pub use journal::Journal;
pub use log::{Level, Logger, LOG_FILE};
pub use proto::{
    parse_request, parse_stream_line, MetricsInfo, Request, SpecDesc, StatusInfo, StreamLine, SweepRequest,
    PROTO_ID,
};
pub use worker::{run_spec, worker_main, WorkerBackend, WORKER_ARG};
