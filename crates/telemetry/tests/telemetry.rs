//! Integration tests for the telemetry substrate: histogram bucket and
//! quantile correctness (including the open-ended top bucket), exact
//! summation under concurrent recording, ring-buffer overwrite semantics,
//! and a golden Prometheus exposition.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use hpcnet_telemetry::{EventRing, Histogram, Registry};

#[test]
fn histogram_quantiles_track_known_distribution() {
    let h = Histogram::default();
    // 100 values: 1..=100. Exact order statistics are known; the
    // log-bucketed readout must stay within one bucket width (25 %).
    for v in 1..=100u64 {
        h.record(v);
    }
    assert_eq!(h.count(), 100);
    assert_eq!(h.sum(), 5050);
    assert_eq!(h.max(), 100);
    let p50 = h.quantile(0.50);
    let p90 = h.quantile(0.90);
    let p99 = h.quantile(0.99);
    assert!((48..=63).contains(&p50), "p50 = {p50}");
    assert!((88..=111).contains(&p90), "p90 = {p90}");
    assert!((97..=100).contains(&p99), "p99 = {p99}");
    assert_eq!(h.quantile(1.0), 100, "p100 must be the exact max");
    assert_eq!(h.quantile(0.0), 1, "p0 rank clamps to the first value");
    // Quantiles are monotone in q.
    let qs: Vec<u64> = (0..=10).map(|i| h.quantile(i as f64 / 10.0)).collect();
    assert!(qs.windows(2).all(|w| w[0] <= w[1]), "not monotone: {qs:?}");
}

#[test]
fn small_values_are_exact_and_empty_histogram_is_zero() {
    let h = Histogram::default();
    assert_eq!(h.quantile(0.5), 0);
    for v in [0u64, 1, 2, 3] {
        h.record(v);
    }
    // Values 0..=3 live in exact single-value buckets.
    assert_eq!(h.quantile(0.25), 0);
    assert_eq!(h.quantile(0.50), 1);
    assert_eq!(h.quantile(0.75), 2);
    assert_eq!(h.quantile(1.00), 3);
    let snap = h.snapshot();
    assert_eq!(snap.buckets.len(), 4);
    assert!(snap.buckets.iter().all(|b| b.count == 1));
}

#[test]
fn open_ended_top_bucket_catches_huge_values() {
    let h = Histogram::default();
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    h.record(1u64 << 50);
    h.record(7); // one small value for contrast
    let snap = h.snapshot();
    let top = snap.buckets.last().unwrap();
    assert_eq!(top.hi, None, "top bucket must be open-ended");
    assert_eq!(top.count, 3, "all huge values share the open bucket");
    assert_eq!(h.max(), u64::MAX);
    // A quantile landing in the open bucket reports the exact max, not a
    // fabricated bound.
    assert_eq!(h.quantile(1.0), u64::MAX);
    assert_eq!(h.quantile(0.9), u64::MAX);
    // The small value still resolves exactly.
    assert_eq!(h.quantile(0.25), 7);
}

#[test]
fn concurrent_recording_from_eight_threads_sums_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let h = Arc::new(Histogram::default());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = h.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            })
        })
        .collect();
    for j in handles {
        j.join().unwrap();
    }
    let total = THREADS * PER_THREAD;
    assert_eq!(h.count(), total);
    assert_eq!(h.sum(), total * (total - 1) / 2);
    assert_eq!(h.max(), total - 1);
    // The per-bucket counts must also sum exactly: nothing lost or
    // double-counted under contention.
    let snap = h.snapshot();
    let bucket_total: u64 = snap.buckets.iter().map(|b| b.count).sum();
    assert_eq!(bucket_total, total);
}

#[test]
fn concurrent_counter_increments_sum_exactly() {
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let reg = reg.clone();
            std::thread::spawn(move || {
                let c = reg.counter("concurrent_total");
                for _ in 0..5_000 {
                    c.inc();
                }
            })
        })
        .collect();
    for j in handles {
        j.join().unwrap();
    }
    assert_eq!(reg.counter("concurrent_total").get(), 40_000);
}

#[test]
fn event_ring_overwrites_oldest_and_keeps_sequence() {
    let ring = EventRing::new(3);
    for i in 0..7 {
        ring.push("kind", "model", &format!("key{i}"), i as f64);
    }
    assert_eq!(ring.len(), 3);
    assert_eq!(ring.capacity(), 3);
    assert_eq!(ring.total_recorded(), 7);
    let events = ring.snapshot();
    // The three newest survive, oldest first, with original seq numbers.
    assert_eq!(
        events.iter().map(|e| e.seq).collect::<Vec<_>>(),
        vec![4, 5, 6]
    );
    assert_eq!(events[0].message, "key4");
    assert_eq!(events[2].value, 6.0);
}

#[test]
fn prometheus_exposition_golden_format() {
    let reg = Registry::new();
    reg.counter_with("hpcnet_requests_total", &[("model", "cg")])
        .add(5);
    reg.gauge("hpcnet_best_f_c").set(128.0);
    let h = reg.time_histogram("hpcnet_wait_seconds", &[("model", "cg")]);
    // Two values in the exact low buckets (1 ns, 2 ns) and one at 8 ns:
    // bucket upper bounds are 2e-9, 3e-9, and 1e-8 seconds.
    h.record(1);
    h.record(2);
    h.record(8);
    // Every family gets a `# HELP` line ahead of its `# TYPE`: the
    // registered text, or the placeholder for a family nobody described.
    reg.set_helps(&[("hpcnet_requests_total", "Requests executed.")]);
    let text = reg.prometheus_text();
    let expected = "\
# HELP hpcnet_requests_total Requests executed.
# TYPE hpcnet_requests_total counter
hpcnet_requests_total{model=\"cg\"} 5
# HELP hpcnet_best_f_c (no help registered)
# TYPE hpcnet_best_f_c gauge
hpcnet_best_f_c 128
# HELP hpcnet_wait_seconds (no help registered)
# TYPE hpcnet_wait_seconds histogram
hpcnet_wait_seconds_bucket{model=\"cg\",le=\"0.000000002\"} 1
hpcnet_wait_seconds_bucket{model=\"cg\",le=\"0.000000003\"} 2
hpcnet_wait_seconds_bucket{model=\"cg\",le=\"0.00000001\"} 3
hpcnet_wait_seconds_bucket{model=\"cg\",le=\"+Inf\"} 3
hpcnet_wait_seconds_sum{model=\"cg\"} 0.000000011
hpcnet_wait_seconds_count{model=\"cg\"} 3
";
    assert_eq!(text, expected);
}

#[test]
fn span_guard_records_on_drop() {
    let reg = Registry::new();
    {
        let _span = reg.span("work_seconds", &[("stage", "a")]);
        std::thread::sleep(Duration::from_millis(2));
    }
    let h = reg.time_histogram("work_seconds", &[("stage", "a")]);
    assert_eq!(h.count(), 1);
    assert!(
        h.sum() >= 1_000_000,
        "a 2 ms span must record at least 1 ms, got {} ns",
        h.sum()
    );
}
