//! Allocation-free metrics registry: counters, gauges, and fixed-bucket
//! histograms over a flat arena of `u64` words.
//!
//! The storage philosophy follows the simulator's packed tag arrays
//! (PR 4): every metric is a fixed number of `u64` words in one `Vec`,
//! addressed by a [`MetricId`] handed out at registration time. Updates
//! are relaxed atomic adds/stores — safe to share across the daemon's
//! dispatcher threads via `Arc<Registry>`, and free of allocation, locks
//! and syscalls. Callers that keep their own counters (the simulator)
//! skip the registry and build snapshots directly: [`MetricValue`]
//! rows, with [`HistSnapshot::record`] for distributions.
//!
//! Histograms use [`HIST_BUCKETS`] power-of-two buckets plus dedicated
//! count and sum words: bucket 0 holds zero-valued observations, bucket
//! `i` holds `2^(i-1) <= v < 2^i`, and the last bucket is unbounded.
//! That fixed shape keeps `observe` branch-free (a `leading_zeros` and
//! two adds) and makes snapshots mergeable by plain addition.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets per histogram.
pub const HIST_BUCKETS: usize = 16;

/// Words per histogram: count, sum, then the buckets.
const HIST_WORDS: usize = HIST_BUCKETS + 2;

/// What a registered metric is; drives snapshot decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Opaque handle to one registered metric (an offset into the word
/// arena). `Copy`, so instrumentation structs can hold one per site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricId {
    word: u32,
    kind: Kind,
}

/// A decoded histogram: observation count, value sum, and the
/// power-of-two bucket populations.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Bucket populations; see [`bucket_of`] for the value → bucket map.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Records one observation (allocation-free).
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_of(v)] += 1;
    }

    /// Adds another snapshot's populations into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// The bucket index a value lands in: 0 for zero, otherwise
/// `1 + floor(log2 v)` clamped to the last bucket — so bucket `i`
/// (for `1 <= i < HIST_BUCKETS-1`) covers `2^(i-1) <= v < 2^i`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` (for rendering bucket labels).
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A decoded metric value, as returned by [`Registry::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Last-written level (stored, not accumulated).
    Gauge(u64),
    /// Fixed-bucket distribution.
    Histogram(HistSnapshot),
}

/// The registry: metric names and kinds, plus the word arena.
///
/// Register every metric up front (allocates), then share the registry
/// (typically `Arc`ed) and update through [`MetricId`]s. Updates take
/// `&self`; registration takes `&mut self`, so sharing freezes the set.
#[derive(Debug, Default)]
pub struct Registry {
    specs: Vec<(String, Kind, u32)>,
    words: Vec<AtomicU64>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: &str, kind: Kind, words: usize) -> MetricId {
        assert!(!self.specs.iter().any(|(n, _, _)| n == name), "metric {name:?} registered twice");
        let word = u32::try_from(self.words.len()).expect("registry exceeds 2^32 words");
        self.specs.push((name.to_owned(), kind, word));
        self.words.extend((0..words).map(|_| AtomicU64::new(0)));
        MetricId { word, kind }
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: &str) -> MetricId {
        self.register(name, Kind::Counter, 1)
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &str) -> MetricId {
        self.register(name, Kind::Gauge, 1)
    }

    /// Registers a fixed-bucket histogram.
    pub fn histogram(&mut self, name: &str) -> MetricId {
        self.register(name, Kind::Histogram, HIST_WORDS)
    }

    /// Adds `n` to a counter (relaxed; allocation-free).
    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        debug_assert_eq!(id.kind, Kind::Counter);
        self.words[id.word as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, id: MetricId) {
        self.add(id, 1);
    }

    /// Stores a gauge level (relaxed; allocation-free).
    #[inline]
    pub fn set(&self, id: MetricId, v: u64) {
        debug_assert_eq!(id.kind, Kind::Gauge);
        self.words[id.word as usize].store(v, Ordering::Relaxed);
    }

    /// Records one histogram observation (relaxed; allocation-free).
    #[inline]
    pub fn observe(&self, id: MetricId, v: u64) {
        debug_assert_eq!(id.kind, Kind::Histogram);
        let base = id.word as usize;
        self.words[base].fetch_add(1, Ordering::Relaxed);
        self.words[base + 1].fetch_add(v, Ordering::Relaxed);
        self.words[base + 2 + bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads one histogram back out.
    pub fn histogram_snapshot(&self, id: MetricId) -> HistSnapshot {
        debug_assert_eq!(id.kind, Kind::Histogram);
        let base = id.word as usize;
        let mut h = HistSnapshot {
            count: self.words[base].load(Ordering::Relaxed),
            sum: self.words[base + 1].load(Ordering::Relaxed),
            ..HistSnapshot::default()
        };
        for (i, b) in h.buckets.iter_mut().enumerate() {
            *b = self.words[base + 2 + i].load(Ordering::Relaxed);
        }
        h
    }

    /// Reads a counter or gauge word.
    pub fn value(&self, id: MetricId) -> u64 {
        self.words[id.word as usize].load(Ordering::Relaxed)
    }

    /// Decodes every metric, in registration order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.specs
            .iter()
            .map(|(name, kind, word)| {
                let v = match kind {
                    Kind::Counter => MetricValue::Counter(self.words[*word as usize].load(Ordering::Relaxed)),
                    Kind::Gauge => MetricValue::Gauge(self.words[*word as usize].load(Ordering::Relaxed)),
                    Kind::Histogram => {
                        MetricValue::Histogram(self.histogram_snapshot(MetricId { word: *word, kind: *kind }))
                    }
                };
                (name.clone(), v)
            })
            .collect()
    }
}

/// Merges one snapshot into an accumulator (by name): counters and
/// histograms add, gauges keep the maximum (they track pressure
/// high-water marks across runs). Unseen names are appended in order.
pub fn merge_snapshots(into: &mut Vec<(String, MetricValue)>, from: &[(String, MetricValue)]) {
    for (name, v) in from {
        match into.iter_mut().find(|(n, _)| n == name) {
            Some((_, acc)) => match (acc, v) {
                (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                (acc, v) => panic!("metric {name:?} changed kind: {acc:?} vs {v:?}"),
            },
            None => into.push((name.clone(), v.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        reg.add(c, 5);
        reg.inc(c);
        reg.set(g, 41);
        reg.set(g, 17);
        assert_eq!(reg.value(c), 6);
        assert_eq!(reg.value(g), 17);
        let snap = reg.snapshot();
        assert_eq!(snap[0].1, MetricValue::Counter(6));
        assert_eq!(snap[1].1, MetricValue::Gauge(17));
    }

    #[test]
    fn histogram_buckets_follow_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(5), 16);
    }

    #[test]
    fn histogram_observe_and_snapshot() {
        let mut reg = Registry::new();
        let h = reg.histogram("h");
        for v in [0, 1, 3, 3, 100] {
            reg.observe(h, v);
        }
        let snap = reg.histogram_snapshot(h);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 107);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[bucket_of(100)], 1);
        assert!((snap.mean() - 21.4).abs() < 1e-9);
        // A directly recorded snapshot matches the registry's.
        let mut direct = HistSnapshot::default();
        for v in [0, 1, 3, 3, 100] {
            direct.record(v);
        }
        assert_eq!(direct, snap);
    }

    #[test]
    fn snapshots_merge_by_kind() {
        let mut reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        reg.add(c, 2);
        reg.set(g, 9);
        reg.observe(h, 4);
        let mut acc = Vec::new();
        merge_snapshots(&mut acc, &reg.snapshot());
        reg.set(g, 3);
        merge_snapshots(&mut acc, &reg.snapshot());
        assert_eq!(acc[0].1, MetricValue::Counter(4));
        assert_eq!(acc[1].1, MetricValue::Gauge(9), "gauges keep the high-water mark");
        match &acc[2].1 {
            MetricValue::Histogram(h) => assert_eq!((h.count, h.sum), (2, 8)),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let mut reg = Registry::new();
        reg.counter("x");
        reg.counter("x");
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let mut reg = Registry::new();
        let c = reg.counter("c");
        let reg = std::sync::Arc::new(reg);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.inc(c);
                    }
                });
            }
        });
        assert_eq!(reg.value(c), 4000);
    }
}
