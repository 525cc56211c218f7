//! Structured span tracing: named phases with monotonic timings.
//!
//! A [`Tracer`] collects flat [`SpanEvent`]s — one per executed phase
//! (warm-up, detailed window, stream skip, functional warming, checkpoint
//! restore, worker exec, …) — stamped in microseconds from the tracer's own
//! [`MonotonicClock`] origin. Events carry numeric fields (instruction
//! budgets, window indices) but no absolute time, so they can ride in
//! artifacts without breaking cross-run reproducibility; rendering to
//! newline-delimited JSON is the consumer's job (the `report` writer in
//! `bench`/`svc`), which keeps this crate dependency-light.
//!
//! # Examples
//!
//! ```
//! use obs::{aggregate, Tracer};
//!
//! let mut t = Tracer::new();
//! let t0 = t.start();
//! // ... do the phase work ...
//! t.record("warmup", t0, &[("instr", 5_000)]);
//! let agg = aggregate(t.events());
//! assert_eq!(agg[0].name, "warmup");
//! assert_eq!(agg[0].count, 1);
//! ```

use vm_types::MonotonicClock;

/// One completed phase: name, start offset, duration, numeric fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Phase name ("warmup", "detailed_window", "skip", "func_warm", …).
    pub name: &'static str,
    /// Microseconds from the tracer origin to the span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Numeric payload: (field name, value) pairs.
    pub fields: Vec<(&'static str, u64)>,
}

/// Collects [`SpanEvent`]s against one monotonic clock.
#[derive(Debug)]
pub struct Tracer {
    clock: MonotonicClock,
    events: Vec<SpanEvent>,
}

impl Tracer {
    /// A fresh tracer with its clock at zero.
    pub fn new() -> Self {
        Self { clock: MonotonicClock::new(), events: Vec::new() }
    }

    /// Stamps a span start; pass the result to [`Tracer::record`].
    pub fn start(&self) -> u64 {
        self.clock.now_us()
    }

    /// Closes a span opened at `start_us` and appends the event.
    pub fn record(&mut self, name: &'static str, start_us: u64, fields: &[(&'static str, u64)]) {
        let now = self.clock.now_us();
        self.events.push(SpanEvent {
            name,
            start_us,
            dur_us: now.saturating_sub(start_us),
            fields: fields.to_vec(),
        });
    }

    /// The events recorded so far, in completion order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Drains the recorded events out of the tracer.
    pub fn take(&mut self) -> Vec<SpanEvent> {
        std::mem::take(&mut self.events)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-phase self-time rollup of a span stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Phase name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: u64,
    /// Total self-time in microseconds. Spans here are flat (phases
    /// never nest), so self-time is just the summed durations.
    pub total_us: u64,
}

/// Aggregates span self-times by phase name, in first-appearance order.
pub fn aggregate(events: &[SpanEvent]) -> Vec<PhaseAgg> {
    let mut agg: Vec<PhaseAgg> = Vec::new();
    for e in events {
        match agg.iter_mut().find(|a| a.name == e.name) {
            Some(a) => {
                a.count += 1;
                a.total_us += e.dur_us;
            }
            None => agg.push(PhaseAgg { name: e.name, count: 1, total_us: e.dur_us }),
        }
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_in_completion_order() {
        let mut t = Tracer::new();
        let a = t.start();
        t.record("warmup", a, &[("instr", 100)]);
        let b = t.start();
        t.record("measured", b, &[]);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "warmup");
        assert_eq!(events[0].fields, vec![("instr", 100)]);
        assert!(events[1].start_us >= events[0].start_us);
    }

    #[test]
    fn aggregate_rolls_up_self_time_by_phase() {
        let events = vec![
            SpanEvent { name: "w", start_us: 0, dur_us: 10, fields: vec![] },
            SpanEvent { name: "d", start_us: 10, dur_us: 5, fields: vec![] },
            SpanEvent { name: "w", start_us: 15, dur_us: 7, fields: vec![] },
        ];
        let agg = aggregate(&events);
        assert_eq!(agg.len(), 2);
        assert_eq!((agg[0].name, agg[0].count, agg[0].total_us), ("w", 2, 17));
        assert_eq!((agg[1].name, agg[1].count, agg[1].total_us), ("d", 1, 5));
    }

    #[test]
    fn take_drains_the_tracer() {
        let mut t = Tracer::new();
        let s = t.start();
        t.record("x", s, &[]);
        assert_eq!(t.take().len(), 1);
        assert!(t.events().is_empty());
    }
}
