//! The individual instruments: counters, gauges, histograms, span timers.
//!
//! Every instrument records with atomic operations only — no locks, no
//! allocation — so they are safe to hammer from every serving worker at
//! once. Counters and gauges are pure `Relaxed` tallies; histograms use
//! one `Release`/`Acquire` pair (`count` is written last in
//! [`Histogram::record`] and read first in [`Histogram::snapshot`]) so a
//! concurrent snapshot can never observe a count without the bucket
//! increments that produced it. An instrument created disabled (via
//! [`crate::Registry::disabled`]) turns each record into a single
//! predictable branch.
//!
//! The atomics come from the crate's `sync` module, which swaps in
//! `loom`'s model-checked versions under `--cfg loom`; the invariants in the
//! comments below are verified by `tests/concurrency_model.rs`.

use crate::sync::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// What a histogram's raw `u64` values mean. Exposition scales
/// nanoseconds to seconds (the Prometheus convention); plain counts are
/// emitted verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Unit {
    /// Durations recorded in nanoseconds.
    Nanoseconds,
    /// Dimensionless values (batch sizes, element counts, ...).
    Count,
}

impl Unit {
    /// Scale a raw value for exposition (`Nanoseconds` → seconds).
    pub fn scale(&self, raw: f64) -> f64 {
        match self {
            Unit::Nanoseconds => raw / 1e9,
            Unit::Count => raw,
        }
    }
}

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    enabled: bool,
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new(enabled: bool) -> Self {
        Counter {
            enabled,
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if self.enabled {
            // relaxed: pure counter — no other memory is published by an
            // increment, and fetch_add atomicity alone makes the total exact.
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        // relaxed: reads a standalone monotonic total; no ordering with
        // any other location is implied or needed.
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    /// A standalone, enabled counter (not attached to any registry).
    fn default() -> Self {
        Counter::new(true)
    }
}

/// A last-write-wins scalar (loss values, best-so-far scores, depths).
#[derive(Debug)]
pub struct Gauge {
    enabled: bool,
    bits: AtomicU64,
}

impl Gauge {
    pub(crate) fn new(enabled: bool) -> Self {
        Gauge {
            enabled,
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        if self.enabled {
            // relaxed: last-write-wins scalar; the single atomic store is
            // the whole protocol, nothing else is published with it.
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Add a (possibly negative) delta — the up/down counting mode used
    /// for resource gauges such as live connection counts. Lock-free via
    /// a compare-exchange loop on the f64 bit pattern.
    pub fn add(&self, delta: f64) {
        if !self.enabled {
            return;
        }
        // relaxed: the CAS loop needs only atomicity on this one word —
        // every retry re-reads the latest value, so deltas are never lost
        // regardless of ordering, and no other memory rides along.
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                // relaxed: see the invariant on the load above; the CAS
                // succeeds only against the value it read.
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Add one (e.g. a connection opened).
    pub fn inc(&self) {
        self.add(1.0);
    }

    /// Subtract one (e.g. a connection closed).
    pub fn dec(&self) {
        self.add(-1.0);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // relaxed: single-word read of a last-write-wins scalar.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    /// A standalone, enabled gauge (not attached to any registry).
    fn default() -> Self {
        Gauge::new(true)
    }
}

/// Total bucket count: values 0–3 exactly, then 4 linear sub-buckets per
/// power-of-two octave up to 2^40 (≈ 18 minutes in nanoseconds), with the
/// final bucket open-ended.
pub const NUM_BUCKETS: usize = 160;

/// Bucket index for a value: ≤ 25 % relative width everywhere except the
/// open-ended top bucket.
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let octave = (63 - v.leading_zeros()) as usize; // >= 2
    let sub = ((v >> (octave - 2)) & 3) as usize;
    (((octave - 1) << 2) + sub).min(NUM_BUCKETS - 1)
}

/// `[lo, hi)` bounds of a bucket; `hi == None` marks the open-ended top
/// bucket.
fn bucket_bounds(idx: usize) -> (u64, Option<u64>) {
    if idx < 4 {
        return (idx as u64, Some(idx as u64 + 1));
    }
    let octave = (idx >> 2) + 1;
    let sub = (idx & 3) as u64;
    let width = 1u64 << (octave - 2);
    let lo = (1u64 << octave) + sub * width;
    if idx == NUM_BUCKETS - 1 {
        (lo, None)
    } else {
        (lo, Some(lo + width))
    }
}

/// A log-bucketed histogram of `u64` values, recordable concurrently
/// without locks.
///
/// Buckets are power-of-two octaves split into 4 linear sub-buckets, so a
/// reported quantile is within 25 % of the true order statistic; `max` is
/// exact. Latency histograms record nanoseconds ([`Unit::Nanoseconds`]);
/// size histograms record raw counts.
#[derive(Debug)]
pub struct Histogram {
    enabled: bool,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(enabled: bool) -> Self {
        Histogram {
            enabled,
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    ///
    /// Ordering protocol: the bucket/sum/max updates happen *before* the
    /// `Release` increment of `count`, and every reader `Acquire`-loads
    /// `count` first. A reader that observes `count == n` therefore sees
    /// at least `n` bucket increments (all `count` writes are RMWs, so
    /// the acquire load synchronizes with the whole release sequence) —
    /// a snapshot's bucket total can never fall below its `count`.
    pub fn record(&self, v: u64) {
        if !self.enabled {
            return;
        }
        // relaxed: ordered before readers by the Release on `count` below.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // relaxed: same — `sum` is published by `count`'s Release below.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // relaxed: same — `max` is published by `count`'s Release below.
        self.max.fetch_max(v, Ordering::Relaxed);
        // Release: pairs with the Acquire loads in `count()`; must stay
        // the last write of this method (see the protocol above).
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Record a duration as nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Time a closure into this histogram.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record_duration(t0.elapsed());
        r
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        // Acquire: pairs with the Release in `record` — everything a
        // counted record wrote (bucket, sum, max) is visible after this.
        self.count.load(Ordering::Acquire)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        // relaxed: standalone monotonic total; callers needing
        // cross-field consistency go through `snapshot()`.
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest value recorded (exact).
    pub fn max(&self) -> u64 {
        // relaxed: standalone monotonic maximum, same caveat as `sum`.
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`): the inclusive upper
    /// bound of the bucket holding the rank-`⌈q·count⌉` value, clamped to
    /// the exact observed max. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let max = self.max();
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            // relaxed: the Acquire load of `count` above (via `self.count()`)
            // already ordered these bucket reads after the counted records.
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                let (lo, hi) = bucket_bounds(idx);
                return match hi {
                    Some(hi) => (hi - 1).min(max),
                    None => max.max(lo),
                };
            }
        }
        max
    }

    /// Point-in-time copy of the full distribution.
    ///
    /// Never torn: `count` is read *first* (Acquire, pairing with the
    /// Release write that ends every `record`), so the bucket reads below
    /// see at least the increments of every counted record — the
    /// snapshot's bucket total is always ≥ its `count`. (Records landing
    /// mid-snapshot may push the bucket total above `count`; that slack
    /// is bounded by the number of in-flight recorders.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let buckets: Vec<BucketCount> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(idx, b)| {
                // relaxed: ordered after the counted records by the
                // Acquire load of `count` above.
                let count = b.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let (lo, hi) = bucket_bounds(idx);
                Some(BucketCount { lo, hi, count })
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets,
        }
    }
}

impl Default for Histogram {
    /// A standalone, enabled histogram (not attached to any registry) —
    /// handy for one-off measurements like the bench harness's
    /// client-side latency sweep.
    fn default() -> Self {
        Histogram::new(true)
    }
}

/// One non-empty histogram bucket in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Exclusive upper bound; `None` for the open-ended top bucket.
    pub hi: Option<u64>,
    /// Values recorded into this bucket.
    pub count: u64,
}

/// Serializable point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Non-empty buckets, in value order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }
}

/// RAII span: records the time from construction to drop into a
/// histogram. Obtained from [`crate::Registry::span`].
#[derive(Debug)]
pub struct SpanGuard {
    hist: Arc<Histogram>,
    start: Instant,
}

impl SpanGuard {
    pub(crate) fn new(hist: Arc<Histogram>) -> Self {
        SpanGuard {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_bucket_exactly() {
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, Some(v + 1)));
        }
    }

    #[test]
    fn buckets_tile_the_axis_without_gaps() {
        // Every bucket's hi is the next bucket's lo.
        for idx in 0..NUM_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (next_lo, _) = bucket_bounds(idx + 1);
            assert_eq!(hi, Some(next_lo), "gap after bucket {idx}");
        }
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, None);
        // And the index function lands every value inside its bounds.
        for &v in &[0u64, 1, 3, 4, 5, 7, 8, 13, 100, 1023, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(v >= lo, "value {v} below bucket {idx} lo {lo}");
            if let Some(hi) = hi {
                assert!(v < hi, "value {v} not below bucket {idx} hi {hi}");
            }
        }
    }

    #[test]
    fn gauge_updown_counting_is_exact_under_contention() {
        let g = Arc::new(Gauge::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        g.inc();
                    }
                    for _ in 0..999 {
                        g.dec();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.get(), 8.0, "one net increment per thread");
        let d = Gauge::new(false);
        d.inc();
        d.add(5.0);
        assert_eq!(d.get(), 0.0, "disabled gauge records nothing");
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let c = Counter::new(false);
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = Gauge::new(false);
        g.set(1.5);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::new(false);
        h.record(123);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn time_and_duration_recording() {
        let h = Histogram::default();
        let out = h.time(|| 42);
        assert_eq!(out, 42);
        h.record_duration(Duration::from_nanos(500));
        assert_eq!(h.count(), 2);
        assert!(h.max() >= 500);
    }
}
