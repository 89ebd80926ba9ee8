//! Cumulative statistics for the batched serving path, as a view of the
//! telemetry registry.

use std::collections::HashMap;
use std::time::Duration;

use hpcnet_telemetry::RegistrySnapshot;
use serde::{Deserialize, Serialize};

use crate::metrics;

/// Serde helper (de)serializing a [`Duration`] as f64 seconds, so stats
/// JSON stays a flat, human-readable document instead of serde's default
/// `{secs, nanos}` pair. Use with `#[serde(with = "duration_secs")]`.
pub mod duration_secs {
    use std::time::Duration;

    use serde::{Deserialize, Deserializer, Serializer};

    /// Serialize a duration as fractional seconds.
    // hpcnet-lint: allow(result-error-type) -- signature fixed by serde's `with` module contract
    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(d.as_secs_f64())
    }

    /// Deserialize fractional seconds back into a duration.
    // hpcnet-lint: allow(result-error-type) -- signature fixed by serde's `with` module contract
    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        let secs = f64::deserialize(d)?;
        if !secs.is_finite() || secs < 0.0 {
            return Err(serde::de::Error::custom(format!(
                "invalid duration: {secs} seconds"
            )));
        }
        Ok(Duration::from_secs_f64(secs))
    }
}

/// Buckets in the [`ServingStats`] batch-size histogram. Bucket `i` counts
/// batched forward passes whose size fell in `[2^i, 2^(i+1))`; the last
/// bucket is open-ended (≥ 1024).
pub const BATCH_HIST_BUCKETS: usize = 11;

/// Cumulative statistics for the orchestrator's batched serving path:
/// request volume per model, how well the coalescing loop is batching, and
/// end-to-end throughput over busy time.
///
/// This is a *view*: the orchestrator records into its
/// `hpcnet_telemetry::Registry` and assembles a `ServingStats` on demand
/// (see [`ServingStats::from_registry_snapshot`]); nothing writes to it
/// but [`ServingStats::merge`], the fleet rollup. With telemetry
/// disabled every field reads zero.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServingStats {
    /// Total requests executed — one per `(in_key, out_key)` pair, whether
    /// it arrived via `run_model` or `run_model_batch`.
    pub requests: u64,
    /// Requests that completed with an error.
    pub errors: u64,
    /// Batched forward passes executed (one per coalesced model group).
    pub batches: u64,
    /// Power-of-two batch-size histogram (see [`BATCH_HIST_BUCKETS`]).
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// Requests served per model name.
    pub per_model: HashMap<String, u64>,
    /// Wall time spent executing groups (fetch + encode + infer).
    /// Serialized as f64 seconds.
    #[serde(with = "duration_secs")]
    pub busy: Duration,
    /// Requests rejected at enqueue because the bounded admission queue
    /// was full (never executed, not counted in `requests`).
    pub overload_rejected: u64,
    /// Admitted requests whose deadline passed before execution; answered
    /// with `DeadlineExceeded` (not counted in `requests`).
    pub deadline_expired: u64,
    /// Guarded requests whose surrogate output passed the validator.
    pub quality_hits: u64,
    /// Guarded requests the validator rejected and the registered
    /// fallback (the original region) answered instead.
    pub quality_fallbacks: u64,
    /// Guarded requests the validator rejected with no fallback
    /// registered; the client saw `QualityRejected`.
    pub quality_rejected: u64,
    /// Requests whose stored answer came from the opt-in `f32` kernel
    /// path (`serve_f32(true)`, DESIGN.md §14). Defaults on
    /// deserialization so pre-f32 stats JSON still parses.
    #[serde(default)]
    pub f32_served: u64,
    /// Guarded `f32` outputs the validator rejected and the `f64`
    /// surrogate recomputed per request (precision demotion; counted
    /// separately from `quality_fallbacks`, which means the original
    /// region answered).
    #[serde(default)]
    pub f32_fallbacks: u64,
    /// Currently served version per model (from the
    /// `hpcnet_model_version` gauge). Starts at 1 on registration and
    /// rises on every accepted hot-swap; a probation rollback restores
    /// the prior value. Defaults on deserialization so stats JSON from
    /// servers predating online retraining still parses.
    #[serde(default)]
    pub model_versions: HashMap<String, u64>,
    /// Guard-fallback training samples captured into the online replay
    /// buffer. Defaults on deserialization (see `model_versions`).
    #[serde(default)]
    pub retrain_samples: u64,
    /// Background fine-tune runs executed.
    #[serde(default)]
    pub retrain_runs: u64,
    /// Fine-tuned candidates atomically hot-swapped into serving.
    #[serde(default)]
    pub retrain_swaps: u64,
    /// Hot-swapped candidates rolled back after a probation regression.
    #[serde(default)]
    pub retrain_rollbacks: u64,
    /// Fine-tuned candidates rejected by held-out validation.
    #[serde(default)]
    pub retrain_rejected: u64,
}

impl ServingStats {
    /// Assemble the cumulative-stats view from a telemetry registry
    /// snapshot: counter totals map 1:1, `per_model` comes from the
    /// `model`-labeled request counters, the batch-size histogram folds
    /// back into power-of-two buckets (telemetry sub-buckets never
    /// straddle an octave), and `busy` is the busy histogram's sum.
    pub fn from_registry_snapshot(snap: &RegistrySnapshot) -> Self {
        let mut s = ServingStats {
            requests: snap.counter_total(metrics::REQUESTS_TOTAL),
            errors: snap.counter_total(metrics::ERRORS_TOTAL),
            batches: snap.counter_total(metrics::BATCHES_TOTAL),
            overload_rejected: snap.counter_total(metrics::OVERLOAD_REJECTED_TOTAL),
            deadline_expired: snap.counter_total(metrics::DEADLINE_EXPIRED_TOTAL),
            quality_hits: snap.counter_total(metrics::QUALITY_HITS_TOTAL),
            quality_fallbacks: snap.counter_total(metrics::QUALITY_FALLBACKS_TOTAL),
            quality_rejected: snap.counter_total(metrics::QUALITY_REJECTED_TOTAL),
            f32_served: snap.counter_total(metrics::F32_SERVED_TOTAL),
            f32_fallbacks: snap.counter_total(metrics::F32_FALLBACKS_TOTAL),
            retrain_samples: snap.counter_total(metrics::RETRAIN_SAMPLES_TOTAL),
            retrain_runs: snap.counter_total(metrics::RETRAIN_RUNS_TOTAL),
            retrain_swaps: snap.counter_total(metrics::RETRAIN_SWAPS_TOTAL),
            retrain_rollbacks: snap.counter_total(metrics::RETRAIN_ROLLBACKS_TOTAL),
            retrain_rejected: snap.counter_total(metrics::RETRAIN_REJECTED_TOTAL),
            ..ServingStats::default()
        };
        for c in &snap.counters {
            if c.name != metrics::REQUESTS_TOTAL {
                continue;
            }
            if let Some((_, model)) = c.labels.iter().find(|(k, _)| k == "model") {
                *s.per_model.entry(model.clone()).or_insert(0) += c.value;
            }
        }
        for g in &snap.gauges {
            if g.name != metrics::MODEL_VERSION {
                continue;
            }
            if let Some((_, model)) = g.labels.iter().find(|(k, _)| k == "model") {
                s.model_versions.insert(model.clone(), g.value as u64);
            }
        }
        if let Some(h) = snap.find_histogram(metrics::BATCH_SIZE, &[]) {
            for b in &h.buckets {
                let i = if b.lo < 2 {
                    0
                } else {
                    (63 - b.lo.leading_zeros()) as usize
                };
                s.batch_hist[i.min(BATCH_HIST_BUCKETS - 1)] += b.count;
            }
        }
        if let Some(h) = snap.find_histogram(metrics::BUSY_SECONDS, &[]) {
            s.busy = Duration::from_nanos(h.sum);
        }
        s
    }

    /// Fold another server's cumulative stats into this one — the
    /// cluster-wide rollup (`hpcnet-cluster` merges one snapshot per
    /// endpoint into a fleet view). Counts and busy time add; the
    /// per-model and batch-size breakdowns merge bucket-wise.
    pub fn merge(&mut self, other: &ServingStats) {
        self.requests += other.requests;
        self.errors += other.errors;
        self.batches += other.batches;
        for (mine, theirs) in self.batch_hist.iter_mut().zip(&other.batch_hist) {
            *mine += theirs;
        }
        for (model, n) in &other.per_model {
            *self.per_model.entry(model.clone()).or_insert(0) += n;
        }
        self.busy += other.busy;
        self.overload_rejected += other.overload_rejected;
        self.deadline_expired += other.deadline_expired;
        self.quality_hits += other.quality_hits;
        self.quality_fallbacks += other.quality_fallbacks;
        self.quality_rejected += other.quality_rejected;
        self.f32_served += other.f32_served;
        self.f32_fallbacks += other.f32_fallbacks;
        // Versions are levels, not counts: a fleet rollup reports the
        // highest version any endpoint serves, exposing version skew
        // against each endpoint's own `serving_stats()`.
        for (model, v) in &other.model_versions {
            let e = self.model_versions.entry(model.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        self.retrain_samples += other.retrain_samples;
        self.retrain_runs += other.retrain_runs;
        self.retrain_swaps += other.retrain_swaps;
        self.retrain_rollbacks += other.retrain_rollbacks;
        self.retrain_rejected += other.retrain_rejected;
    }

    /// Fraction of guarded requests answered by the surrogate: the
    /// serving-side HitRate (paper Eqn 3).
    pub fn quality_hit_rate(&self) -> f64 {
        let total = self.quality_hits + self.quality_fallbacks + self.quality_rejected;
        if total == 0 {
            return 0.0;
        }
        self.quality_hits as f64 / total as f64
    }

    /// Mean requests per batched forward pass.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.requests as f64 / self.batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One group of `size` requests for `model`, `errors` failed, `busy_ms`
    /// of busy time — as `from_registry_snapshot` would assemble it.
    fn one_group(model: &str, size: u64, errors: u64, busy_ms: u64) -> ServingStats {
        let mut batch_hist = [0; BATCH_HIST_BUCKETS];
        batch_hist[(63 - size.leading_zeros()) as usize] = 1;
        ServingStats {
            requests: size,
            errors,
            batches: 1,
            batch_hist,
            per_model: HashMap::from([(model.to_string(), size)]),
            busy: Duration::from_millis(busy_ms),
            ..ServingStats::default()
        }
    }

    #[test]
    fn merge_folds_counts_histograms_and_models() {
        let mut a = one_group("mlp", 4, 1, 10);
        let mut b = one_group("mlp", 4, 0, 30);
        b.merge(&one_group("cnn", 1, 0, 5));
        b.merge(&ServingStats {
            overload_rejected: 1,
            deadline_expired: 2,
            quality_hits: 3,
            quality_fallbacks: 1,
            quality_rejected: 1,
            f32_served: 2,
            f32_fallbacks: 1,
            ..ServingStats::default()
        });

        a.merge(&b);
        assert_eq!(a.requests, 9);
        assert_eq!(a.errors, 1);
        assert_eq!(a.batches, 3);
        assert_eq!(a.busy, Duration::from_millis(45));
        assert_eq!(a.overload_rejected, 1);
        assert_eq!(a.deadline_expired, 2);
        assert_eq!(
            (a.quality_hits, a.quality_fallbacks, a.quality_rejected),
            (3, 1, 1)
        );
        assert_eq!((a.f32_served, a.f32_fallbacks), (2, 1));
        assert_eq!(a.per_model["mlp"], 8);
        assert_eq!(a.per_model["cnn"], 1);
        // Batch-size buckets add element-wise: two size-4 groups land in
        // one bucket, the size-1 group in another.
        assert_eq!(a.batch_hist[2], 2);
        assert_eq!(a.batch_hist[0], 1);
        assert_eq!(a.batch_hist.iter().sum::<u64>(), 3);
        // Merging an empty snapshot is the identity.
        let before = a.clone();
        a.merge(&ServingStats::default());
        assert_eq!(a.requests, before.requests);
        assert_eq!(a.batch_hist, before.batch_hist);
        assert_eq!(a.per_model, before.per_model);
    }

    #[test]
    fn serving_stats_ratio_getters() {
        let mut s = one_group("m", 1, 0, 10);
        s.merge(&one_group("m", 7, 1, 10));
        s.merge(&one_group("n", 8, 0, 30));
        assert!((s.mean_batch_size() - 16.0 / 3.0).abs() < 1e-12);
        s.quality_hits = 6;
        s.quality_fallbacks = 2;
        assert!((s.quality_hit_rate() - 0.75).abs() < 1e-12);
        let empty = ServingStats::default();
        assert_eq!(empty.mean_batch_size(), 0.0);
        assert_eq!(empty.quality_hit_rate(), 0.0);
    }

    #[test]
    fn huge_batch_lands_in_open_bucket() {
        let reg = hpcnet_telemetry::Registry::new();
        reg.value_histogram(metrics::BATCH_SIZE, &[]).record(5000);
        let s = ServingStats::from_registry_snapshot(&reg.snapshot());
        assert_eq!(s.batch_hist[BATCH_HIST_BUCKETS - 1], 1);
        assert_eq!(s.batch_hist.iter().sum::<u64>(), 1);
    }

    #[test]
    fn serving_stats_serde_roundtrips_busy_as_seconds() {
        let s = ServingStats {
            quality_hits: 3,
            quality_fallbacks: 1,
            ..one_group("m", 4, 1, 250)
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            json.contains("\"busy\":0.25"),
            "busy not in seconds: {json}"
        );
        let back: ServingStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.requests, 4);
        assert_eq!(back.errors, 1);
        assert_eq!(back.busy, Duration::from_millis(250));
        assert_eq!(back.batch_hist, s.batch_hist);
        assert_eq!(back.per_model["m"], 4);
        assert_eq!(back.quality_hits, 3);
        // A negative duration must fail to deserialize, not panic.
        assert!(serde_json::from_str::<ServingStats>(&json.replace("0.25", "-1.0")).is_err());
    }

    #[test]
    fn serving_stats_f32_counters_roundtrip_and_default() {
        let s = ServingStats {
            f32_served: 5,
            f32_fallbacks: 2,
            ..ServingStats::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: ServingStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.f32_served, 5);
        assert_eq!(back.f32_fallbacks, 2);
        // Wire compatibility: stats JSON emitted before the f32 path
        // existed (no f32 fields) still deserializes, reading zero.
        let legacy = json
            .replace("\"f32_served\":5,", "")
            .replace("\"f32_fallbacks\":2,", "")
            .replace(",\"f32_served\":5", "")
            .replace(",\"f32_fallbacks\":2", "");
        let old: ServingStats = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old.f32_served, 0);
        assert_eq!(old.f32_fallbacks, 0);
    }

    #[test]
    fn serving_stats_retrain_fields_roundtrip_default_and_merge() {
        let mut s = ServingStats::default();
        s.model_versions.insert("m".to_string(), 3);
        s.retrain_samples = 40;
        s.retrain_runs = 2;
        s.retrain_swaps = 1;
        s.retrain_rollbacks = 1;
        s.retrain_rejected = 1;
        let json = serde_json::to_string(&s).unwrap();
        let back: ServingStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.model_versions["m"], 3);
        assert_eq!(back.retrain_swaps, 1);
        // Wire compatibility: stats JSON emitted before online retraining
        // existed carries none of these fields and must still parse.
        let mut legacy = serde_json::to_value(ServingStats::default()).unwrap();
        let fields = legacy.as_object_mut().unwrap();
        for key in [
            "model_versions",
            "retrain_samples",
            "retrain_runs",
            "retrain_swaps",
            "retrain_rollbacks",
            "retrain_rejected",
        ] {
            assert!(fields.remove(key).is_some(), "no `{key}` to strip");
        }
        let legacy = legacy.to_string();
        assert!(!legacy.contains("retrain"), "strip failed: {legacy}");
        let old: ServingStats = serde_json::from_str(&legacy).unwrap();
        assert!(old.model_versions.is_empty());
        assert_eq!(old.retrain_swaps, 0);
        // Merge: counters add, versions take the per-model max (fleet
        // rollup reports the newest version any endpoint serves).
        let mut other = ServingStats::default();
        other.model_versions.insert("m".to_string(), 2);
        other.model_versions.insert("n".to_string(), 5);
        other.retrain_swaps = 2;
        s.merge(&other);
        assert_eq!(s.model_versions["m"], 3);
        assert_eq!(s.model_versions["n"], 5);
        assert_eq!(s.retrain_swaps, 3);
    }
}
