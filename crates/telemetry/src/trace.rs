//! Distributed request tracing: span trees, context propagation, and a
//! bounded tail-sampling flight recorder (DESIGN.md §16).
//!
//! PR 4's aggregate histograms can say p99 is bad; they cannot say
//! *which* request was slow or *where* its time went across the four-hop
//! serving path (`ClusterClient` → `RemoteClient` → `NetServer` →
//! orchestrator worker). This module adds the per-request view:
//!
//! * [`TraceId`] / [`SpanId`] / [`TraceContext`] — identity and wire
//!   propagation. A context is 16 bytes on the wire
//!   ([`TraceContext::to_wire`]); ids are process-seeded so two
//!   processes never mint colliding ids.
//! * [`SpanRecord`] / [`Trace`] — one timed, annotated node of a span
//!   tree, and the per-request tree itself. Spans on the serving path
//!   are named by the [`Stage`] enum.
//! * [`FlightRecorder`] — a bounded in-memory ring of recent traces
//!   with **tail sampling**: error, deadline-exceeded, guard-fallback,
//!   and slower-than-threshold traces are always retained; boring ones
//!   are retained one-in-N ([`FlightRecorderConfig::sample_every`]).
//! * [`merge_traces`] — joins span lists from different processes by
//!   `TraceId` into single cross-process trees (client + server halves
//!   of one request).
//!
//! Like `Arc`/`OnceLock` in the instruments, everything here stays on
//! plain `std` sync types even under `--cfg loom`: traces are assembled
//! single-threaded per request and the recorder is a coarse ring, not a
//! lock-free hot-path structure the model checker needs to explore.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime};

use serde::{Deserialize, Serialize};

/// One stage of the serving path: the name of a span in a request's
/// tree *and* the `stage` label of the matching latency series. Every
/// crate that opens a stage span or labels a stage metric takes a
/// `Stage` by value, so a misspelt or drifted name cannot be written;
/// [`as_str`](Stage::as_str) is the one place the wire/JSON/Prometheus
/// spelling lives ([`SpanRecord::name`] stays a `String`, so payloads
/// are unchanged and foreign spans still parse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Root span of one request as seen by whichever hop originated it.
    Request,
    /// Time spent queued in the admission queue before a worker picked
    /// the request up.
    QueueWait,
    /// Input tensor fetch from the store.
    Fetch,
    /// Autoencoder encode of the fetched inputs.
    Encode,
    /// The surrogate forward pass (f64 path).
    Infer,
    /// The surrogate forward pass (demoted f32 path).
    InferF32,
    /// QualityGuard validation of the surrogate output.
    Guard,
    /// Exact-solver fallback after a guard miss.
    Fallback,
    /// One shard attempt made by `ClusterClient` (child of
    /// [`Request`](Stage::Request)).
    Shard,
    /// One background fine-tune run of the online retrainer (not a
    /// child of any request span; it carries its own root).
    Retrain,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 10] = [
        Stage::Request,
        Stage::QueueWait,
        Stage::Fetch,
        Stage::Encode,
        Stage::Infer,
        Stage::InferF32,
        Stage::Guard,
        Stage::Fallback,
        Stage::Shard,
        Stage::Retrain,
    ];

    /// The per-request stages — children of the server-side request
    /// span — in serving order: [`ALL`](Stage::ALL) minus the structural
    /// `Request`/`Shard` spans and the background `Retrain` stage.
    pub const REQUEST_STAGES: [Stage; 7] = [
        Stage::QueueWait,
        Stage::Fetch,
        Stage::Encode,
        Stage::Infer,
        Stage::InferF32,
        Stage::Guard,
        Stage::Fallback,
    ];

    /// The span name / `stage` label value.
    pub const fn as_str(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::QueueWait => "queue_wait",
            Stage::Fetch => "fetch",
            Stage::Encode => "encode",
            Stage::Infer => "infer",
            Stage::InferF32 => "infer_f32",
            Stage::Guard => "guard",
            Stage::Fallback => "fallback",
            Stage::Shard => "shard",
            Stage::Retrain => "retrain",
        }
    }

    /// The stage spelt `name`, if any (the inverse of
    /// [`as_str`](Stage::as_str), for reading recorded spans back).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.as_str() == name)
    }
}

/// Well-known retention tags a [`Trace`] can carry. The flight
/// recorder's tail-sampling rules key off these.
pub mod tags {
    /// Some span in the trace ended in an error.
    pub const ERROR: &str = "error";
    /// The request ran over its deadline.
    pub const DEADLINE: &str = "deadline_exceeded";
    /// The QualityGuard fell back to (or rejected via) the exact solver.
    pub const FALLBACK: &str = "guard_fallback";
    /// Root duration exceeded the recorder's slow threshold (applied by
    /// [`super::FlightRecorder::record`]).
    pub const SLOW: &str = "slow";
    /// The trace records an online-retraining model swap or rollback.
    /// Always retained: swaps are rare and operators audit them.
    pub const RETRAIN: &str = "retrain";
    /// Retained only by the one-in-N sampler, not by any rule above
    /// (applied by [`super::FlightRecorder::record`]).
    pub const SAMPLED: &str = "sampled";
}

/// Identity of one request's trace, shared by every span in every
/// process the request touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TraceId(pub u64);

/// Identity of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SpanId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Per-process random seed for id generation, derived from the standard
/// library's per-process `RandomState` entropy — no extra dependency,
/// and two processes serving the same fleet mint disjoint id streams.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        use std::hash::{BuildHasher, Hasher};
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(u64::from(std::process::id()));
        h.finish()
    })
}

/// SplitMix64 finalizer: decorrelates the sequential counter so ids
/// look random and never collide within a process.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mint a fresh non-zero id (used for both trace and span ids).
pub fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // relaxed: pure counter; uniqueness only needs distinct values, and
    // fetch_add is atomic regardless of ordering.
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    mix(process_seed().wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15))) | 1
}

/// The propagated part of a trace: which trace a downstream hop should
/// record into, and which span its work hangs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The request's trace.
    pub trace_id: TraceId,
    /// The upstream span the next hop's spans are children of; `None`
    /// when the downstream hop's request span is the root.
    pub parent_span: Option<SpanId>,
}

/// Wire size of an encoded [`TraceContext`].
pub const TRACE_CONTEXT_WIRE_LEN: usize = 16;

impl TraceContext {
    /// A fresh root context: new trace id, no parent.
    pub fn root() -> Self {
        TraceContext {
            trace_id: TraceId(next_id()),
            parent_span: None,
        }
    }

    /// The context a child hop should receive when its spans belong
    /// under `parent`.
    pub fn child_of(&self, parent: SpanId) -> Self {
        TraceContext {
            trace_id: self.trace_id,
            parent_span: Some(parent),
        }
    }

    /// Encode as 16 little-endian bytes (`trace_id`, then parent span id
    /// with `0` meaning "no parent").
    pub fn to_wire(&self) -> [u8; TRACE_CONTEXT_WIRE_LEN] {
        let mut out = [0u8; TRACE_CONTEXT_WIRE_LEN];
        out[..8].copy_from_slice(&self.trace_id.0.to_le_bytes());
        let parent = self.parent_span.map_or(0, |s| s.0);
        out[8..].copy_from_slice(&parent.to_le_bytes());
        out
    }

    /// Decode the [`to_wire`](Self::to_wire) form. A zero trace id means
    /// "no context" and decodes to `None`.
    pub fn from_wire(bytes: &[u8; TRACE_CONTEXT_WIRE_LEN]) -> Option<Self> {
        let mut id = [0u8; 8];
        id.copy_from_slice(&bytes[..8]);
        let trace_id = u64::from_le_bytes(id);
        if trace_id == 0 {
            return None;
        }
        let mut parent = [0u8; 8];
        parent.copy_from_slice(&bytes[8..]);
        let parent = u64::from_le_bytes(parent);
        Some(TraceContext {
            trace_id: TraceId(trace_id),
            parent_span: (parent != 0).then_some(SpanId(parent)),
        })
    }
}

/// Outcome of one span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", content = "message", rename_all = "snake_case")]
pub enum SpanStatus {
    /// The spanned work succeeded.
    Ok,
    /// The spanned work failed; the message is the error's display form.
    Error(String),
}

impl SpanStatus {
    /// Is this an error status?
    pub fn is_error(&self) -> bool {
        matches!(self, SpanStatus::Error(_))
    }
}

/// One timed node of a span tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanRecord {
    /// This span's id.
    pub span_id: SpanId,
    /// Parent span id; `None` for a root span.
    pub parent: Option<SpanId>,
    /// Span name — on the serving path, a [`Stage::as_str`].
    pub name: String,
    /// Which process/component recorded the span (`"server"`,
    /// `"remote_client"`, `"cluster"`, …).
    pub service: String,
    /// Wall-clock start, nanoseconds since the Unix epoch (best effort;
    /// cross-process skew is cosmetic, ordering within a process is not).
    pub start_unix_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Outcome.
    pub status: SpanStatus,
    /// Free-form key/value annotations (model name, endpoint, failover
    /// hops, coalesced batch size, …).
    pub annotations: Vec<(String, String)>,
}

impl SpanRecord {
    /// A fresh `Ok` span with a newly minted id and no annotations.
    pub fn new(stage: Stage, service: &str, start_unix_nanos: u64, duration: Duration) -> Self {
        SpanRecord {
            span_id: SpanId(next_id()),
            parent: None,
            name: stage.as_str().to_string(),
            service: service.to_string(),
            start_unix_nanos,
            duration_nanos: duration.as_nanos() as u64,
            status: SpanStatus::Ok,
            annotations: Vec::new(),
        }
    }

    /// Builder-style: set the parent.
    pub fn with_parent(mut self, parent: SpanId) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Builder-style: add one annotation.
    pub fn annotate(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.annotations.push((key.to_string(), value.to_string()));
        self
    }

    /// Builder-style: mark failed with the error's display form.
    pub fn with_error(mut self, message: impl std::fmt::Display) -> Self {
        self.status = SpanStatus::Error(message.to_string());
        self
    }
}

/// Wall-clock now, nanoseconds since the Unix epoch (0 if the clock is
/// before the epoch, which only a badly misconfigured host produces).
pub fn unix_nanos_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// A started-but-unfinished span measurement: monotonic duration plus a
/// wall-clock anchor for cross-process display.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    started: Instant,
    start_unix_nanos: u64,
}

impl SpanTimer {
    /// Start timing now.
    pub fn start() -> Self {
        SpanTimer {
            started: Instant::now(),
            start_unix_nanos: unix_nanos_now(),
        }
    }

    /// Wall-clock anchor of the start.
    pub fn start_unix_nanos(&self) -> u64 {
        self.start_unix_nanos
    }

    /// Elapsed time since [`start`](Self::start).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Finish into a span record for `stage`.
    pub fn finish(&self, stage: Stage, service: &str) -> SpanRecord {
        SpanRecord::new(
            stage,
            service,
            self.start_unix_nanos,
            self.started.elapsed(),
        )
    }
}

impl Default for SpanTimer {
    fn default() -> Self {
        Self::start()
    }
}

/// One request's span tree (possibly a partial, single-process view —
/// see [`merge_traces`] for joining the halves).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// The trace id every span shares.
    pub trace_id: TraceId,
    /// All spans recorded for this trace, roots first where possible.
    pub spans: Vec<SpanRecord>,
    /// Retention tags ([`tags`]): why the flight recorder kept it.
    #[serde(default)]
    pub tags: Vec<String>,
}

impl Trace {
    /// An empty trace for `trace_id`.
    pub fn new(trace_id: TraceId) -> Self {
        Trace {
            trace_id,
            spans: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Add a span.
    pub fn push(&mut self, span: SpanRecord) {
        self.spans.push(span);
    }

    /// Add a retention tag (deduplicated).
    pub fn tag(&mut self, tag: &str) {
        if !self.tags.iter().any(|t| t == tag) {
            self.tags.push(tag.to_string());
        }
    }

    /// Is `tag` set?
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.iter().any(|t| t == tag)
    }

    /// The root span: no parent, earliest start wins on ties.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .min_by_key(|s| s.start_unix_nanos)
    }

    /// Spans whose parent is `parent`.
    pub fn children_of(&self, parent: SpanId) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }

    /// First span of `stage`, if any.
    pub fn span_named(&self, stage: Stage) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == stage.as_str())
    }

    /// Names of the per-request stage spans present, in recorded order
    /// ([`Stage::REQUEST_STAGES`] order is not guaranteed).
    pub fn stage_span_names(&self) -> Vec<&str> {
        self.spans
            .iter()
            .map(|s| s.name.as_str())
            .filter(|name| {
                Stage::from_name(name).is_some_and(|s| Stage::REQUEST_STAGES.contains(&s))
            })
            .collect()
    }

    /// Did any span fail?
    pub fn has_error(&self) -> bool {
        self.spans.iter().any(|s| s.status.is_error())
    }

    /// Duration of the trace: the root span's duration, or the longest
    /// span when no root was recorded locally.
    pub fn duration(&self) -> Duration {
        let nanos = self
            .root()
            .map(|r| r.duration_nanos)
            .or_else(|| self.spans.iter().map(|s| s.duration_nanos).max())
            .unwrap_or(0);
        Duration::from_nanos(nanos)
    }
}

/// Join per-process partial traces by [`TraceId`]: spans concatenate
/// (deduplicated by span id), tags union. Input order is preserved for
/// first appearance of each trace id.
pub fn merge_traces(parts: impl IntoIterator<Item = Trace>) -> Vec<Trace> {
    let mut order: Vec<TraceId> = Vec::new();
    let mut merged: std::collections::BTreeMap<TraceId, Trace> = std::collections::BTreeMap::new();
    for part in parts {
        let entry = merged.entry(part.trace_id).or_insert_with(|| {
            order.push(part.trace_id);
            Trace::new(part.trace_id)
        });
        for span in part.spans {
            if !entry.spans.iter().any(|s| s.span_id == span.span_id) {
                entry.spans.push(span);
            }
        }
        for tag in part.tags {
            entry.tag(&tag);
        }
    }
    order
        .into_iter()
        .filter_map(|id| merged.remove(&id))
        .collect()
}

/// Serialize traces to the JSON array form the wire `Traces` op and
/// `trace_dump()` expose.
pub fn traces_to_json(traces: &[Trace]) -> String {
    serde_json::to_string(traces)
        .unwrap_or_else(|e| format!("[{{\"error\":\"trace serialization failed: {e}\"}}]"))
}

/// Parse the [`traces_to_json`] form.
pub fn traces_from_json(json: &str) -> Result<Vec<Trace>, serde_json::Error> {
    serde_json::from_str(json)
}

/// Flight-recorder sizing and tail-sampling policy.
#[derive(Debug, Clone, Copy)]
pub struct FlightRecorderConfig {
    /// Maximum retained traces; the oldest is evicted beyond this.
    pub capacity: usize,
    /// Root durations at or above this are always retained (and tagged
    /// [`tags::SLOW`]).
    pub slow_threshold: Duration,
    /// Of the traces no rule matched, retain one in this many (tagged
    /// [`tags::SAMPLED`]). `0` disables sampling entirely (rule-matched
    /// traces are still retained).
    pub sample_every: u64,
}

impl Default for FlightRecorderConfig {
    fn default() -> Self {
        FlightRecorderConfig {
            capacity: 128,
            slow_threshold: Duration::from_millis(250),
            sample_every: 8,
        }
    }
}

/// Point-in-time accounting of a [`FlightRecorder`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlightRecorderStats {
    /// Traces offered via [`FlightRecorder::record`].
    pub seen: u64,
    /// Traces retained (still resident or since evicted by capacity).
    pub retained: u64,
}

/// The tags whose presence retains a trace regardless of the sampler.
const RULE_TAGS: [&str; 5] = [
    tags::ERROR,
    tags::DEADLINE,
    tags::FALLBACK,
    tags::SLOW,
    tags::RETRAIN,
];

/// A bounded in-memory ring of recently completed traces with tail
/// sampling: every error / deadline-exceeded / guard-fallback / slow
/// trace is retained, the rest one-in-N. Disabled recorders (paired
/// with [`crate::Registry::disabled`]) drop everything without locking.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    config: FlightRecorderConfig,
    ring: Mutex<VecDeque<Trace>>,
    seen: AtomicU64,
    retained: AtomicU64,
}

impl FlightRecorder {
    /// An enabled recorder with the given policy.
    pub fn new(config: FlightRecorderConfig) -> Self {
        FlightRecorder {
            enabled: true,
            config,
            ring: Mutex::new(VecDeque::with_capacity(config.capacity.min(64))),
            seen: AtomicU64::new(0),
            retained: AtomicU64::new(0),
        }
    }

    /// A recorder that retains nothing (zero overhead beyond one branch).
    pub fn disabled() -> Self {
        FlightRecorder {
            enabled: false,
            config: FlightRecorderConfig::default(),
            ring: Mutex::new(VecDeque::new()),
            seen: AtomicU64::new(0),
            retained: AtomicU64::new(0),
        }
    }

    /// Does this recorder retain anything?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The slow-retention threshold in force.
    pub fn slow_threshold(&self) -> Duration {
        self.config.slow_threshold
    }

    /// Apply the tags this recorder derives from the trace itself:
    /// [`tags::ERROR`] and [`tags::SLOW`]. [`retain`](Self::retain) does
    /// this anyway; a caller that acts on the verdict first (the
    /// orchestrator's slow-request line) calls it to see the same one.
    pub fn classify(&self, trace: &mut Trace) {
        if trace.has_error() {
            trace.tag(tags::ERROR);
        }
        if trace.duration() >= self.config.slow_threshold {
            trace.tag(tags::SLOW);
        }
    }

    /// Offer a completed trace. Returns `true` when the trace was
    /// retained (and tags it with why), `false` when sampled out.
    /// [`admit`](Self::admit) then [`retain`](Self::retain) in one call,
    /// for callers that have the trace in hand anyway.
    pub fn record(&self, trace: Trace) -> bool {
        let admitted = self.admit(trace.duration(), trace.has_error(), &trace.tags);
        if admitted {
            self.retain(trace);
        }
        admitted
    }

    /// The decide-first half of [`record`](Self::record): would a trace
    /// with this root duration, error status and caller-set tags be
    /// retained? Counts the trace as seen and applies the same rules, so
    /// a caller on a hot path can ask before it assembles any span and
    /// build the tree only on `true` — then hand it to
    /// [`retain`](Self::retain).
    pub fn admit(
        &self,
        root_duration: Duration,
        has_error: bool,
        tags: &[impl AsRef<str>],
    ) -> bool {
        if !self.enabled {
            return false;
        }
        // relaxed: pure counter; the ring mutex orders the data itself.
        let seen = self.seen.fetch_add(1, Ordering::Relaxed);
        has_error
            || root_duration >= self.config.slow_threshold
            || tags.iter().any(|t| RULE_TAGS.contains(&t.as_ref()))
            // One in `sample_every` of the rest; a period of 0 samples none.
            || seen.checked_rem(self.config.sample_every) == Some(0)
    }

    /// Keep a trace [`admit`](Self::admit) accepted: tag it with why
    /// (the derived [`tags::ERROR`] / [`tags::SLOW`], or
    /// [`tags::SAMPLED`] when no rule matched) and push it into the
    /// ring, evicting the oldest beyond capacity.
    pub fn retain(&self, mut trace: Trace) {
        if !self.enabled {
            return;
        }
        self.classify(&mut trace);
        if !trace.tags.iter().any(|t| RULE_TAGS.contains(&t.as_str())) {
            trace.tag(tags::SAMPLED);
        }
        // relaxed: pure counter.
        self.retained.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= self.config.capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Recent retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<Trace> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Offered/retained accounting.
    pub fn stats(&self) -> FlightRecorderStats {
        FlightRecorderStats {
            // relaxed: independent counters; approximate consistency is
            // fine for accounting reads.
            seen: self.seen.load(Ordering::Relaxed),
            // relaxed: same pure-counter invariant as `seen` above.
            retained: self.retained.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_trace(dur_ms: u64) -> Trace {
        let mut t = Trace::new(TraceId(next_id()));
        let root = SpanRecord::new(
            Stage::Request,
            "test",
            unix_nanos_now(),
            Duration::from_millis(dur_ms),
        );
        let root_id = root.span_id;
        t.push(root);
        t.push(
            SpanRecord::new(
                Stage::Infer,
                "test",
                unix_nanos_now(),
                Duration::from_millis(dur_ms / 2),
            )
            .with_parent(root_id),
        );
        t
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:#x}");
        }
    }

    #[test]
    fn context_wire_roundtrip() {
        let root = TraceContext::root();
        assert_eq!(TraceContext::from_wire(&root.to_wire()), Some(root));
        let child = root.child_of(SpanId(42));
        assert_eq!(TraceContext::from_wire(&child.to_wire()), Some(child));
        assert_eq!(TraceContext::from_wire(&[0u8; 16]), None);
    }

    #[test]
    fn tail_sampling_always_keeps_interesting_traces() {
        let rec = FlightRecorder::new(FlightRecorderConfig {
            capacity: 16,
            slow_threshold: Duration::from_millis(100),
            sample_every: 0, // no sampling: only the rules retain
        });
        // Boring and fast: dropped.
        assert!(!rec.record(quick_trace(1)));
        // Slow: retained and tagged.
        assert!(rec.record(quick_trace(150)));
        // Error: retained.
        let mut errored = quick_trace(1);
        errored.spans[1] = errored.spans[1].clone().with_error("boom");
        assert!(rec.record(errored));
        // Explicit fallback / deadline tags: retained.
        let mut fb = quick_trace(1);
        fb.tag(tags::FALLBACK);
        assert!(rec.record(fb));
        let mut dl = quick_trace(1);
        dl.tag(tags::DEADLINE);
        assert!(rec.record(dl));

        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap[0].has_tag(tags::SLOW));
        assert!(snap[1].has_tag(tags::ERROR));
        assert!(snap[2].has_tag(tags::FALLBACK));
        assert!(snap[3].has_tag(tags::DEADLINE));
        assert_eq!(rec.stats().seen, 5);
        assert_eq!(rec.stats().retained, 4);
    }

    #[test]
    fn sampler_keeps_one_in_n_and_capacity_bounds_the_ring() {
        let rec = FlightRecorder::new(FlightRecorderConfig {
            capacity: 4,
            slow_threshold: Duration::from_secs(3600),
            sample_every: 10,
        });
        for _ in 0..100 {
            rec.record(quick_trace(1));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4, "ring bounded at capacity");
        assert!(snap.iter().all(|t| t.has_tag(tags::SAMPLED)));
        assert_eq!(rec.stats().seen, 100);
        assert_eq!(rec.stats().retained, 10);
    }

    #[test]
    fn deciding_first_retains_exactly_what_offering_the_trace_does() {
        let config = FlightRecorderConfig {
            capacity: 64,
            slow_threshold: Duration::from_millis(100),
            sample_every: 4,
        };
        let (whole, decided) = (FlightRecorder::new(config), FlightRecorder::new(config));
        // Boring, slow, failed and caller-tagged traces, interleaved so
        // the one-in-four sampler meets each kind in each phase.
        for i in 0..40u64 {
            let mut t = quick_trace(if i % 5 == 1 { 150 } else { 1 });
            if i % 7 == 2 {
                t.spans[0] = t.spans[0].clone().with_error("boom");
            }
            if i % 11 == 3 {
                t.tag(tags::FALLBACK);
            }
            let kept = whole.record(t.clone());
            let root = t.root().map(|r| r.status.is_error());
            let admitted = decided.admit(t.duration(), root == Some(true), &t.tags);
            assert_eq!(admitted, kept, "trace {i}");
            if admitted {
                decided.retain(t);
            }
        }
        let (whole, decided) = (whole.snapshot(), decided.snapshot());
        assert_eq!(whole.len(), decided.len());
        for (a, b) in whole.iter().zip(&decided) {
            assert_eq!(a.trace_id, b.trace_id);
            assert_eq!(a.tags, b.tags, "same verdict, same tags");
        }
        assert!(decided.iter().any(|t| t.has_tag(tags::SAMPLED)));
        assert!(decided.iter().any(|t| t.has_tag(tags::SLOW)));
        // A disabled recorder admits nothing and keeps nothing.
        let off = FlightRecorder::disabled();
        assert!(!off.admit(Duration::from_secs(9), true, &[tags::FALLBACK]));
        off.retain(quick_trace(1));
        assert!(off.snapshot().is_empty());
        assert_eq!(off.stats().seen, 0);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.record(quick_trace(1_000)));
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.stats().seen, 0);
    }

    #[test]
    fn merge_joins_process_halves_by_trace_id() {
        let ctx = TraceContext::root();
        let mut client_half = Trace::new(ctx.trace_id);
        let root = SpanRecord::new(
            Stage::Request,
            "cluster",
            unix_nanos_now(),
            Duration::from_millis(5),
        );
        let root_id = root.span_id;
        client_half.push(root);

        let mut server_half = Trace::new(ctx.trace_id);
        server_half.push(
            SpanRecord::new(
                Stage::Infer,
                "server",
                unix_nanos_now(),
                Duration::from_millis(2),
            )
            .with_parent(root_id),
        );
        server_half.tag(tags::SAMPLED);

        let unrelated = quick_trace(1);
        let merged = merge_traces(vec![client_half, server_half, unrelated]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].spans.len(), 2);
        assert_eq!(merged[0].root().map(|r| r.span_id), Some(root_id));
        assert_eq!(merged[0].children_of(root_id).len(), 1);
        assert!(merged[0].has_tag(tags::SAMPLED));
    }

    #[test]
    fn trace_json_roundtrip() {
        let mut t = quick_trace(3);
        t.tag(tags::SLOW);
        let json = traces_to_json(&[t.clone()]);
        let back = traces_from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].trace_id, t.trace_id);
        assert_eq!(back[0].spans.len(), 2);
        assert!(back[0].has_tag(tags::SLOW));
    }
}
