//! Serving-side telemetry: every metric the orchestrator maintains in its
//! private [`hpcnet_telemetry::Registry`], with cached per-model handles
//! so the hot path records lock-free. This registry plus the trace
//! [`FlightRecorder`] is the *only* place serving activity is written;
//! [`ServingStats`], [`crate::OnlineTimers`] and the slow-request log are
//! views computed from them on demand (DESIGN.md §11).
//!
//! Metric names follow DESIGN.md §11: `hpcnet_serving_*`, with `_total`
//! counters, `_seconds` latency histograms (recorded in nanoseconds,
//! scaled at exposition), a `model` label on per-model series, and a
//! `stage` label (a [`Stage::as_str`]: `fetch` / `encode` / `infer` /
//! `infer_f32` / `guard` / `fallback`, plus the background `retrain`)
//! on the per-stage timing histogram.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use hpcnet_telemetry::trace::tags;
use hpcnet_telemetry::{
    Counter, FlightRecorder, FlightRecorderConfig, Histogram, Registry, SpanStatus, Stage, Trace,
};
use parking_lot::RwLock;

use crate::perf::ServingStats;

/// Declares the serving metric-name constants and derives the
/// [`METRIC_HELP`] table from their doc comments, so the `# HELP` text
/// the registry exposes can never drift from the rustdoc.
macro_rules! serving_metric_consts {
    ($( $(#[doc = $doc:expr])+ pub const $ident:ident: &str = $value:literal; )+) => {
        $( $(#[doc = $doc])+ pub const $ident: &str = $value; )+

        /// `(family, help)` pairs for every serving metric above; the
        /// help text is the constant's own doc comment. Registered into
        /// the orchestrator's registry via [`Registry::set_helps`] so
        /// `prometheus_text()` pairs each `# TYPE` with a `# HELP`.
        pub const METRIC_HELP: &[(&str, &str)] = &[
            $( ($value, concat!($($doc),+)) ),+
        ];
    };
}

serving_metric_consts! {
    /// Requests executed, labeled by `model`.
    pub const REQUESTS_TOTAL: &str = "hpcnet_serving_requests_total";
    /// Requests that completed with an error, labeled by `model`.
    pub const ERRORS_TOTAL: &str = "hpcnet_serving_errors_total";
    /// Batched forward passes executed (one per coalesced model group).
    pub const BATCHES_TOTAL: &str = "hpcnet_serving_batches_total";
    /// Distribution of coalesced batch sizes (dimensionless).
    pub const BATCH_SIZE: &str = "hpcnet_serving_batch_size";
    /// Wall time spent executing groups.
    pub const BUSY_SECONDS: &str = "hpcnet_serving_busy_seconds";
    /// Per-request time from enqueue to the start of its round, labeled by
    /// `model`.
    pub const QUEUE_WAIT_SECONDS: &str = "hpcnet_serving_queue_wait_seconds";
    /// Per-group stage timings, labeled by `model` and `stage`.
    pub const STAGE_SECONDS: &str = "hpcnet_serving_stage_seconds";
    /// Time to load one model into the registry (file read, deserialize,
    /// insert), labeled by `model`. Not a `stage`: it happens outside
    /// any request.
    pub const MODEL_LOAD_SECONDS: &str = "hpcnet_serving_model_load_seconds";
    /// Requests rejected at enqueue because the admission queue was full.
    pub const OVERLOAD_REJECTED_TOTAL: &str = "hpcnet_serving_overload_rejected_total";
    /// Admitted requests whose deadline passed before execution.
    pub const DEADLINE_EXPIRED_TOTAL: &str = "hpcnet_serving_deadline_expired_total";
    /// Guarded requests whose surrogate output passed the validator.
    pub const QUALITY_HITS_TOTAL: &str = "hpcnet_serving_quality_hits_total";
    /// Guarded requests answered by the fallback (original region).
    pub const QUALITY_FALLBACKS_TOTAL: &str = "hpcnet_serving_quality_fallbacks_total";
    /// Guarded requests rejected with no fallback registered.
    pub const QUALITY_REJECTED_TOTAL: &str = "hpcnet_serving_quality_rejected_total";
    /// Requests whose stored answer came from the opt-in `f32` kernel path.
    pub const F32_SERVED_TOTAL: &str = "hpcnet_serving_f32_served_total";
    /// Guarded `f32` outputs the validator rejected and the `f64` surrogate
    /// recomputed per request (precision demotion, DESIGN.md §14).
    pub const F32_FALLBACKS_TOTAL: &str = "hpcnet_serving_f32_fallbacks_total";
    /// Requests whose completed trace the flight recorder retained.
    pub const TRACES_RETAINED_TOTAL: &str = "hpcnet_serving_traces_retained_total";
    /// Requests that ran past the slow-request threshold and were logged.
    pub const SLOW_REQUESTS_TOTAL: &str = "hpcnet_serving_slow_requests_total";
    /// Currently served version of each registered model (gauge,
    /// monotonically increasing except across a probation rollback),
    /// labeled by `model`.
    pub const MODEL_VERSION: &str = "hpcnet_model_version";
    /// Guard-fallback training samples captured into the online replay
    /// buffer, labeled by `model`.
    pub const RETRAIN_SAMPLES_TOTAL: &str = "hpcnet_retrain_samples_total";
    /// Background fine-tune runs executed, labeled by `model`.
    pub const RETRAIN_RUNS_TOTAL: &str = "hpcnet_retrain_runs_total";
    /// Fine-tuned candidates atomically hot-swapped into serving,
    /// labeled by `model`.
    pub const RETRAIN_SWAPS_TOTAL: &str = "hpcnet_retrain_swaps_total";
    /// Hot-swapped candidates rolled back after a probation regression,
    /// labeled by `model`.
    pub const RETRAIN_ROLLBACKS_TOTAL: &str = "hpcnet_retrain_rollbacks_total";
    /// Fine-tuned candidates rejected by held-out validation before any
    /// swap, labeled by `model`.
    pub const RETRAIN_REJECTED_TOTAL: &str = "hpcnet_retrain_rejected_total";
}

/// Event kind: admission queue full, request rejected at enqueue.
pub const EVENT_OVERLOAD: &str = "overload_rejected";
/// Event kind: queued request expired before its batch ran.
pub const EVENT_DEADLINE: &str = "deadline_expired";
/// Event kind: validator rejected an output, fallback answered.
pub const EVENT_QUALITY_FALLBACK: &str = "quality_fallback";
/// Event kind: validator rejected an output, no fallback registered.
pub const EVENT_QUALITY_REJECTED: &str = "quality_rejected";
/// Event kind: validator rejected an `f32` output; the request was
/// demoted to the `f64` surrogate before any fallback/reject decision.
pub const EVENT_F32_DEMOTED: &str = "f32_demoted";
/// Event kind: the online retrainer atomically swapped a fine-tuned
/// candidate into serving; `value` carries the new version.
pub const EVENT_MODEL_SWAP: &str = "model_swap";
/// Event kind: probation detected a regression and the previous model
/// version was reinstalled; `value` carries the restored version.
pub const EVENT_MODEL_ROLLBACK: &str = "model_rollback";

/// The stages timed once per executed group, in serving order:
/// [`Stage::REQUEST_STAGES`] after the per-request `queue_wait`.
const GROUP_STAGES: [Stage; 6] = [
    Stage::Fetch,
    Stage::Encode,
    Stage::Infer,
    Stage::InferF32,
    Stage::Guard,
    Stage::Fallback,
];

/// Timing split of one executed group, one slot per [`GROUP_STAGES`]
/// entry. The slots are disjoint: `infer` is the f64 forward alone, net
/// of the `infer_f32`, `guard` and `fallback` work timed inside the same
/// wall-clock window. This array is what gets written — once to the
/// stage histograms, once as the stage children of each traced request.
pub(crate) struct StageTimes(pub(crate) [Duration; GROUP_STAGES.len()]);

impl StageTimes {
    /// `(slot, stage, duration)` of every stage the group records, in
    /// serving order: `fetch`/`encode`/`infer` always, the conditional
    /// stages only when they did work.
    pub(crate) fn recorded(&self) -> impl Iterator<Item = (usize, Stage, Duration)> + '_ {
        GROUP_STAGES
            .into_iter()
            .zip(self.0)
            .enumerate()
            .filter(|(_, (stage, d))| {
                !d.is_zero() || !matches!(stage, Stage::InferF32 | Stage::Guard | Stage::Fallback)
            })
            .map(|(slot, (stage, d))| (slot, stage, d))
    }
}

fn stage_histogram(reg: &Registry, model: &str, stage: Stage) -> Arc<Histogram> {
    reg.time_histogram(
        STAGE_SECONDS,
        &[("model", model), ("stage", stage.as_str())],
    )
}

/// Cached instrument handles for one model: resolved against the registry
/// once, then recorded into lock-free.
pub(crate) struct ModelMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    queue_wait: Arc<Histogram>,
    /// One histogram per [`GROUP_STAGES`] slot.
    stages: [Arc<Histogram>; GROUP_STAGES.len()],
}

impl ModelMetrics {
    fn new(reg: &Registry, model: &str) -> Self {
        ModelMetrics {
            requests: reg.counter_with(REQUESTS_TOTAL, &[("model", model)]),
            errors: reg.counter_with(ERRORS_TOTAL, &[("model", model)]),
            queue_wait: reg.time_histogram(QUEUE_WAIT_SECONDS, &[("model", model)]),
            stages: GROUP_STAGES.map(|stage| stage_histogram(reg, model, stage)),
        }
    }
}

/// The orchestrator's metrics front end: a private registry plus cached
/// handles for the global counters, one [`ModelMetrics`] per model, and
/// the trace [`FlightRecorder`].
pub(crate) struct ServingMetrics {
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
    batches: Arc<Counter>,
    batch_size: Arc<Histogram>,
    busy: Arc<Histogram>,
    overload_rejected: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    quality_hits: Arc<Counter>,
    quality_fallbacks: Arc<Counter>,
    quality_rejected: Arc<Counter>,
    f32_served: Arc<Counter>,
    f32_fallbacks: Arc<Counter>,
    traces_retained: Arc<Counter>,
    slow_requests: Arc<Counter>,
    per_model: RwLock<HashMap<String, Arc<ModelMetrics>>>,
}

impl ServingMetrics {
    pub(crate) fn new(registry: Arc<Registry>, recorder_config: FlightRecorderConfig) -> Self {
        registry.set_helps(METRIC_HELP);
        let recorder = if registry.is_enabled() {
            Arc::new(FlightRecorder::new(recorder_config))
        } else {
            Arc::new(FlightRecorder::disabled())
        };
        ServingMetrics {
            recorder,
            batches: registry.counter(BATCHES_TOTAL),
            batch_size: registry.value_histogram(BATCH_SIZE, &[]),
            busy: registry.time_histogram(BUSY_SECONDS, &[]),
            overload_rejected: registry.counter(OVERLOAD_REJECTED_TOTAL),
            deadline_expired: registry.counter(DEADLINE_EXPIRED_TOTAL),
            quality_hits: registry.counter(QUALITY_HITS_TOTAL),
            quality_fallbacks: registry.counter(QUALITY_FALLBACKS_TOTAL),
            quality_rejected: registry.counter(QUALITY_REJECTED_TOTAL),
            f32_served: registry.counter(F32_SERVED_TOTAL),
            f32_fallbacks: registry.counter(F32_FALLBACKS_TOTAL),
            traces_retained: registry.counter(TRACES_RETAINED_TOTAL),
            slow_requests: registry.counter(SLOW_REQUESTS_TOTAL),
            per_model: RwLock::new(HashMap::new()),
            registry,
        }
    }

    /// The trace flight recorder (disabled when the registry is).
    pub(crate) fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Offer a completed trace to the flight recorder. For traces that
    /// exist anyway (the rare retrain audit trace); the request path asks
    /// [`FlightRecorder::admit`] first and builds a trace only for
    /// [`retain_trace`](Self::retain_trace).
    pub(crate) fn record_trace(&self, trace: Trace) {
        if self
            .recorder
            .admit(trace.duration(), trace.has_error(), &trace.tags)
        {
            self.retain_trace(trace);
        }
    }

    /// Keep a trace the flight recorder admitted. A request that ran
    /// past the slow threshold is counted and its [`slow_request_line`]
    /// printed to stderr here, once; the line can be re-read later
    /// through [`slow_log`](Self::slow_log).
    pub(crate) fn retain_trace(&self, mut trace: Trace) {
        self.recorder.classify(&mut trace);
        if trace.has_tag(tags::SLOW) {
            let threshold = self.recorder.slow_threshold();
            if let Some(line) = slow_request_line(&trace, threshold) {
                self.slow_requests.inc();
                eprintln!("{line}");
            }
        }
        self.recorder.retain(trace);
        self.traces_retained.inc();
    }

    /// The slow-request log, oldest first: a view rendering every
    /// `slow`-tagged request trace the flight recorder still retains.
    pub(crate) fn slow_log(&self) -> Vec<String> {
        let threshold = self.recorder.slow_threshold();
        self.recorder
            .snapshot()
            .iter()
            .filter(|t| t.has_tag(tags::SLOW))
            .filter_map(|t| slow_request_line(t, threshold))
            .collect()
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A shareable handle to the registry, for subsystems (e.g. the
    /// networked server) that record their own instruments alongside the
    /// serving metrics.
    pub(crate) fn registry_arc(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// The cached handle bundle for a model, creating it on first use.
    /// Racing creators both resolve to the same registry instruments, so
    /// whichever insertion wins, counts land in one place.
    pub(crate) fn model(&self, name: &str) -> Arc<ModelMetrics> {
        if let Some(m) = self.per_model.read().get(name) {
            return m.clone();
        }
        let m = Arc::new(ModelMetrics::new(&self.registry, name));
        self.per_model
            .write()
            .entry(name.to_string())
            .or_insert(m)
            .clone()
    }

    /// Charge the enqueue-to-pickup wait of one request.
    pub(crate) fn record_queue_wait(&self, model: &str, wait: Duration) {
        self.model(model).queue_wait.record_duration(wait);
    }

    /// Charge one admission rejection (bounded queue full).
    pub(crate) fn record_overload(&self, model: &str, queue_depth: usize) {
        self.overload_rejected.inc();
        self.registry.record_event(
            EVENT_OVERLOAD,
            model,
            "admission queue full",
            queue_depth as f64,
        );
    }

    /// Charge `n` request pairs that expired in the queue.
    pub(crate) fn record_deadline_expired(&self, model: &str, n: u64, in_key: &str) {
        self.deadline_expired.add(n);
        self.registry
            .record_event(EVENT_DEADLINE, model, in_key, n as f64);
    }

    /// Charge one executed model group: request/error counts, batch shape,
    /// the per-stage timing split, and the executing thread's busy time.
    pub(crate) fn record_group(
        &self,
        model: &str,
        size: usize,
        errors: usize,
        times: &StageTimes,
        busy: Duration,
    ) {
        let m = self.model(model);
        m.requests.add(size as u64);
        m.errors.add(errors as u64);
        for (slot, _, d) in times.recorded() {
            m.stages[slot].record_duration(d);
        }
        self.batches.inc();
        self.batch_size.record(size as u64);
        self.busy.record_duration(busy);
    }

    /// Charge `n` requests that failed outside any recorded group — e.g.
    /// `serve_round`'s panic backstop, which answers every pending slot
    /// with a typed error. They count as both requests and errors so the
    /// `ServingStats` totals stay consistent with delivered replies
    /// (`fail_pending` only fills slots no `record_group` has charged).
    pub(crate) fn record_request_errors(&self, model: &str, n: u64) {
        let m = self.model(model);
        m.requests.add(n);
        m.errors.add(n);
    }

    /// Charge quality-guard outcome tallies for one executed group.
    pub(crate) fn record_quality(&self, hits: u64, fallbacks: u64, rejected: u64) {
        self.quality_hits.add(hits);
        self.quality_fallbacks.add(fallbacks);
        self.quality_rejected.add(rejected);
    }

    /// Charge reduced-precision tallies for one executed group: requests
    /// answered by the `f32` kernels and requests demoted back to `f64`.
    pub(crate) fn record_f32(&self, served: u64, fallbacks: u64) {
        self.f32_served.add(served);
        self.f32_fallbacks.add(fallbacks);
    }

    /// Record one quality-guard anomaly event (fallback or rejection):
    /// `value` carries the first element of the rejected surrogate output.
    pub(crate) fn quality_event(&self, kind: &str, model: &str, in_key: &str, value: f64) {
        self.registry.record_event(kind, model, in_key, value);
    }

    /// Set the served-version gauge for `model`. Called at registration
    /// and on every hot-swap / rollback.
    pub(crate) fn set_model_version(&self, model: &str, version: u64) {
        self.registry
            .gauge_with(MODEL_VERSION, &[("model", model)])
            .set(version as f64);
    }

    /// Charge `n` replay samples captured from the guard-fallback path.
    pub(crate) fn record_retrain_samples(&self, model: &str, n: u64) {
        self.registry
            .counter_with(RETRAIN_SAMPLES_TOTAL, &[("model", model)])
            .add(n);
    }

    /// Charge one background fine-tune run and its wall time under the
    /// `retrain` stage histogram. Cold path — runs are spaced by the
    /// retrain interval, so handles are resolved per call, not cached.
    pub(crate) fn record_retrain_run(&self, model: &str, took: Duration) {
        self.registry
            .counter_with(RETRAIN_RUNS_TOTAL, &[("model", model)])
            .inc();
        stage_histogram(&self.registry, model, Stage::Retrain).record_duration(took);
    }

    /// Charge one model load (cold path: handle resolved per call).
    pub(crate) fn record_model_load(&self, model: &str, took: Duration) {
        self.registry
            .time_histogram(MODEL_LOAD_SECONDS, &[("model", model)])
            .record_duration(took);
    }

    /// Charge one atomic hot-swap to `version` plus its audit event.
    pub(crate) fn record_retrain_swap(&self, model: &str, version: u64, message: &str) {
        self.registry
            .counter_with(RETRAIN_SWAPS_TOTAL, &[("model", model)])
            .inc();
        self.set_model_version(model, version);
        self.registry
            .record_event(EVENT_MODEL_SWAP, model, message, version as f64);
    }

    /// Charge one probation rollback to `version` plus its audit event.
    pub(crate) fn record_retrain_rollback(&self, model: &str, version: u64, message: &str) {
        self.registry
            .counter_with(RETRAIN_ROLLBACKS_TOTAL, &[("model", model)])
            .inc();
        self.set_model_version(model, version);
        self.registry
            .record_event(EVENT_MODEL_ROLLBACK, model, message, version as f64);
    }

    /// Charge one candidate rejected by held-out validation.
    pub(crate) fn record_retrain_rejected(&self, model: &str) {
        self.registry
            .counter_with(RETRAIN_REJECTED_TOTAL, &[("model", model)])
            .inc();
    }

    /// The cumulative-stats view, derived from the registry.
    pub(crate) fn stats(&self) -> ServingStats {
        ServingStats::from_registry_snapshot(&self.registry.snapshot())
    }
}

/// One structured slow-request log line — everything an operator needs
/// to see where the time went without pulling the full trace dump — as a
/// pure function of the request's recorded trace: model / pairs /
/// coalesced are the `request` span's annotations, the error its status,
/// the per-stage micros its stage children. `None` for a trace without
/// a `request` span (e.g. a retrain audit trace).
pub(crate) fn slow_request_line(t: &Trace, threshold: Duration) -> Option<String> {
    let request = t.span_named(Stage::Request)?;
    let annotation = |key: &str| {
        request
            .annotations
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let count = |key: &str| annotation(key).and_then(|v| v.parse::<u64>().ok());
    let mut stages = serde_json::Map::new();
    for child in t.children_of(request.span_id) {
        stages.insert(
            child.name.clone(),
            serde_json::Value::from(child.duration_nanos / 1_000),
        );
    }
    let error = match &request.status {
        SpanStatus::Ok => None,
        SpanStatus::Error(message) => Some(message),
    };
    Some(
        serde_json::json!({
            "slow_request": {
                "trace_id": t.trace_id.to_string(),
                "model": annotation("model"),
                "pairs": count("pairs"),
                "coalesced": count("coalesced"),
                "total_micros": request.duration_nanos / 1_000,
                "threshold_micros": threshold.as_micros() as u64,
                "stages_micros": stages,
                "tags": t.tags,
                "error": error,
            }
        })
        .to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fetch 1 ms, encode 2 ms, infer 4 ms net, `f32_ms` of f32 forward,
    /// guard 1 ms, fallback 2 ms.
    fn times(f32_ms: u64) -> StageTimes {
        StageTimes([1, 2, 4, f32_ms, 1, 2].map(Duration::from_millis))
    }

    #[test]
    fn stats_view_matches_recorded_groups() {
        let m = ServingMetrics::new(Arc::new(Registry::new()), FlightRecorderConfig::default());
        m.record_group("a", 9, 1, &times(0), Duration::from_millis(10));
        m.record_group("b", 1, 0, &times(0), Duration::from_millis(5));
        m.record_overload("a", 64);
        m.record_deadline_expired("b", 3, "in-key");
        m.record_quality(4, 2, 1);
        let s = m.stats();
        assert_eq!(s.requests, 10);
        assert_eq!(s.errors, 1);
        assert_eq!(s.batches, 2);
        assert_eq!(s.per_model["a"], 9);
        assert_eq!(s.per_model["b"], 1);
        assert_eq!(s.batch_hist[3], 1); // 9 -> [8, 16)
        assert_eq!(s.batch_hist[0], 1); // 1
        assert_eq!(s.busy, Duration::from_millis(15));
        assert_eq!(s.overload_rejected, 1);
        assert_eq!(s.deadline_expired, 3);
        assert_eq!(s.quality_hits, 4);
        assert_eq!(s.quality_fallbacks, 2);
        assert_eq!(s.quality_rejected, 1);
    }

    #[test]
    fn each_stage_slot_lands_on_its_own_label() {
        let m = ServingMetrics::new(Arc::new(Registry::new()), FlightRecorderConfig::default());
        m.record_group("g", 2, 0, &times(0), Duration::from_millis(11));
        m.record_group("g", 4, 0, &times(3), Duration::from_millis(9));
        m.record_f32(3, 1);
        let snap = m.registry().snapshot();
        let stage = |s: &str| {
            let h = snap.find_histogram(STAGE_SECONDS, &[("model", "g"), ("stage", s)]);
            h.map(|h| (h.count, h.sum))
        };
        assert_eq!(stage("fetch"), Some((2, 2_000_000)));
        assert_eq!(stage("infer"), Some((2, 8_000_000)));
        assert_eq!(stage("guard"), Some((2, 2_000_000)));
        assert_eq!(stage("fallback"), Some((2, 4_000_000)));
        // A conditional stage that did no work records no sample.
        assert_eq!(stage("infer_f32"), Some((1, 3_000_000)));
        let s = m.stats();
        assert_eq!(s.f32_served, 3);
        assert_eq!(s.f32_fallbacks, 1);
    }

    #[test]
    fn disabled_registry_yields_empty_stats() {
        let m = ServingMetrics::new(
            Arc::new(Registry::disabled()),
            FlightRecorderConfig::default(),
        );
        m.record_group("a", 9, 1, &times(0), Duration::from_millis(10));
        m.record_overload("a", 64);
        let s = m.stats();
        assert_eq!(s.requests, 0);
        assert_eq!(s.overload_rejected, 0);
        assert!(m.registry().snapshot().events.is_empty());
    }
}
