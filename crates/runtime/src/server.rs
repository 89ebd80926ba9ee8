//! The inference server ("Orchestrator"): model registry + caller-run
//! rounds with request coalescing, bounded admission, request deadlines,
//! graceful drain, and server-side quality guarding.
//!
//! A round — expire overdue requests, group the rest by model name, one
//! batched forward pass per group, trace, answer — is executed by the
//! thread that brought it (`serve_round`, DESIGN.md §9); the orchestrator
//! owns no serving thread. A round executes only while it holds one of
//! the `workers` execution slots. A caller that finds nothing pending and
//! a slot free runs its request on the spot. Any other caller puts its
//! requests in the bounded pending queue and waits; whichever waiting
//! caller gets a slot takes what is pending (up to `MAX_COALESCE` pairs,
//! its own and everyone else's), serves it as one round and files each
//! request's answer for its owner — the process-local analog of dynamic
//! batching in a GPU-side inference server. Batched outputs are
//! bit-identical to the single-sample path because every kernel on the
//! path treats rows independently in the same accumulation order.
//!
//! Robustness semantics (DESIGN.md §10):
//!
//! * the pending queue is **bounded** — a full queue rejects new
//!   requests with [`RuntimeError::Overloaded`] instead of growing,
//! * every request may carry a **deadline** — checked when it is
//!   prepared, by its owner while it is pending, and again before its
//!   coalesced batch runs; expired requests are answered with
//!   [`RuntimeError::DeadlineExceeded`], never silently dropped,
//! * [`Orchestrator::shutdown`] (and `Drop`) **drains**: executing and
//!   already-pending requests complete, new ones are refused with
//!   [`RuntimeError::ShuttingDown`],
//! * a registered model may carry a [`QualityGuard`] — the paper's
//!   restart-on-quality-miss (§7.1/§8) executed server-side: a validator
//!   inspects every surrogate output and a fallback closure (the original
//!   region) answers when the validator rejects. Both are shown the raw
//!   input as a view of the fetched tensor, never a copy: a dense one by
//!   reference, a sparse one scattered over the execution slot's zeroed
//!   scratch in O(nnz) (`ScatteredView`),
//! * an orchestrator built with [`OrchestratorBuilder::serve_f32`]`(true)`
//!   quantizes every registered MLP bundle to `f32` kernels at
//!   registration and serves batches through them; a registered
//!   [`QualityGuard`] demotes any rejected `f32` output back to the `f64`
//!   surrogate per request before its usual fallback/reject semantics
//!   (DESIGN.md §14),
//! * every orchestrator owns a private telemetry registry (DESIGN.md §11):
//!   per-request queue-wait and per-stage (fetch / encode / infer / guard /
//!   fallback) latency histograms per model, exported via
//!   [`Orchestrator::metrics_text`] (Prometheus) and
//!   [`Orchestrator::metrics_snapshot`] (JSON-able), with anomalies
//!   retained in a bounded event ring. Disable with
//!   [`OrchestratorBuilder::telemetry`]`(false)`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hpcnet_nn::train::FeatureScaler;
use hpcnet_nn::{Autoencoder, MlpF32, SurrogateNet};
use hpcnet_telemetry::trace::{self, tags};
use hpcnet_telemetry::{
    FlightRecorderConfig, RegistrySnapshot, SpanRecord, Stage, Trace, TraceContext, TraceId,
};
use hpcnet_tensor::{Csr, Matrix, MatrixF32};
use parking_lot::RwLock;

use crate::client::Client;
use crate::metrics::{
    self, ServingMetrics, StageTimes, EVENT_F32_DEMOTED, EVENT_QUALITY_FALLBACK,
    EVENT_QUALITY_REJECTED,
};
use crate::perf::ServingStats;
use crate::retrain::{self, OnlineState};
use crate::store::{dense_len, densify, TensorKey, TensorStore, TensorValue};
use crate::{Result, RuntimeError};
use hpcnet_online::RetrainConfig;

/// Everything needed to serve one surrogate: the trained network (MLP or
/// CNN), the optional feature-reduction encoder, and the scalers fitted at
/// training time.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// The surrogate network.
    pub surrogate: SurrogateNet,
    /// Optional autoencoder whose encoder reduces the input first.
    pub autoencoder: Option<Autoencoder>,
    /// Scaler applied to the (reduced) input before the surrogate.
    pub scaler: Option<FeatureScaler>,
    /// Scaler whose inverse maps the surrogate's standardized outputs back
    /// to physical units.
    pub output_scaler: Option<FeatureScaler>,
}

impl ModelBundle {
    /// Save the bundle to a file (the `./saved_net.pt` of Listing 2).
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, self.to_json())
            .map_err(|e| RuntimeError::Inference(format!("saving bundle: {e}")))
    }

    /// Load a bundle from a file.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| RuntimeError::Inference(format!("loading bundle: {e}")))?;
        Self::from_json(&json)
    }

    /// Serialize to the checkpoint/share JSON format (paper §6.1).
    pub fn to_json(&self) -> String {
        let obj = serde_json::json!({
            "surrogate": self.surrogate,
            "autoencoder": self.autoencoder,
            "scaler": self.scaler,
            "output_scaler": self.output_scaler,
        });
        obj.to_string()
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self> {
        let v: serde_json::Value = serde_json::from_str(s)
            .map_err(|e| RuntimeError::Inference(format!("bad JSON: {e}")))?;
        let surrogate: SurrogateNet = serde_json::from_value(v["surrogate"].clone())
            .map_err(|e| RuntimeError::Inference(format!("bad surrogate: {e}")))?;
        let autoencoder: Option<Autoencoder> = serde_json::from_value(v["autoencoder"].clone())
            .map_err(|e| RuntimeError::Inference(format!("bad autoencoder: {e}")))?;
        let scaler: Option<FeatureScaler> = serde_json::from_value(v["scaler"].clone())
            .map_err(|e| RuntimeError::Inference(format!("bad scaler: {e}")))?;
        let output_scaler: Option<FeatureScaler> =
            serde_json::from_value(v["output_scaler"].clone())
                .map_err(|e| RuntimeError::Inference(format!("bad output scaler: {e}")))?;
        Ok(ModelBundle {
            surrogate,
            autoencoder,
            scaler,
            output_scaler,
        })
    }
}

/// Cumulative online-time breakdown (paper §7.3: fetch / encode / load /
/// infer shares) — a view of the telemetry registry, like
/// [`ServingStats`], so it reads all-zero with telemetry disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineTimers {
    /// Time fetching input tensors from the store.
    pub fetch: Duration,
    /// Time running the encoder (feature reduction).
    pub encode: Duration,
    /// Time loading/deserializing models into the registry.
    pub model_load: Duration,
    /// Time running the surrogate and storing its output.
    pub infer: Duration,
}

impl OnlineTimers {
    /// Assemble the breakdown from a registry snapshot, summed over
    /// models: `fetch` and `encode` are their stage histograms' sums,
    /// `infer` keeps §7.3's attribution (the whole forward wall: the
    /// `infer`, `infer_f32`, `guard` and `fallback` stages together), and
    /// `model_load` is the model-load histogram's sum.
    pub fn from_registry_snapshot(snap: &RegistrySnapshot) -> Self {
        let mut t = OnlineTimers::default();
        for h in &snap.histograms {
            let took = Duration::from_nanos(h.histogram.sum);
            if h.name == metrics::MODEL_LOAD_SECONDS {
                t.model_load += took;
            } else if h.name == metrics::STAGE_SECONDS {
                let stage = h.labels.iter().find(|(k, _)| k == "stage");
                match stage.and_then(|(_, v)| Stage::from_name(v)) {
                    Some(Stage::Fetch) => t.fetch += took,
                    Some(Stage::Encode) => t.encode += took,
                    Some(Stage::Infer | Stage::InferF32 | Stage::Guard | Stage::Fallback) => {
                        t.infer += took
                    }
                    _ => {}
                }
            }
        }
        t
    }

    /// Percentage breakdown `[fetch, encode, load, infer]`.
    pub fn percentages(&self) -> [f64; 4] {
        let total = (self.fetch + self.encode + self.model_load + self.infer).as_secs_f64();
        if total == 0.0 {
            return [0.0; 4];
        }
        [
            100.0 * self.fetch.as_secs_f64() / total,
            100.0 * self.encode.as_secs_f64() / total,
            100.0 * self.model_load.as_secs_f64() / total,
            100.0 * self.infer.as_secs_f64() / total,
        ]
    }
}

type ValidatorFn = dyn Fn(&[f64], &[f64]) -> bool + Send + Sync;
type FallbackFn = dyn Fn(&[f64]) -> Vec<f64> + Send + Sync;

/// Server-side restart-on-quality-miss (paper §7.1/§8).
///
/// A guard pairs a cheap validator with an optional fallback — the
/// original code region. After every surrogate inference for a guarded
/// model the orchestrator calls `validator(raw_input, output)`; on
/// rejection it answers with `fallback(raw_input)` (counted in
/// [`ServingStats::quality_fallbacks`]) or, when no fallback is
/// registered, fails the request with [`RuntimeError::QualityRejected`].
/// `raw_input` is the stored input tensor in dense form (row-major for a
/// sparse tensor of several rows) — a view that lasts for the call; a
/// sparse input whose dense form is over
/// [`MAX_DENSE_ELEMS`](crate::store::MAX_DENSE_ELEMS) fails its request
/// instead.
#[derive(Clone)]
pub struct QualityGuard {
    validator: Arc<ValidatorFn>,
    fallback: Option<Arc<FallbackFn>>,
}

impl QualityGuard {
    /// Guard with a validator only: rejected outputs fail the request
    /// with [`RuntimeError::QualityRejected`].
    pub fn new(validator: impl Fn(&[f64], &[f64]) -> bool + Send + Sync + 'static) -> Self {
        QualityGuard {
            validator: Arc::new(validator),
            fallback: None,
        }
    }

    /// Attach the original region as the fallback: rejected outputs are
    /// answered by re-running it on the raw input.
    pub fn with_fallback(
        mut self,
        fallback: impl Fn(&[f64]) -> Vec<f64> + Send + Sync + 'static,
    ) -> Self {
        self.fallback = Some(Arc::new(fallback));
        self
    }
}

impl std::fmt::Debug for QualityGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QualityGuard")
            .field("has_fallback", &self.fallback.is_some())
            .finish()
    }
}

/// A registry entry: the serialized-shareable bundle, the (closure-
/// carrying, deliberately non-serializable) quality guard, and — when the
/// orchestrator opted in via `serve_f32(true)` and the surrogate family
/// supports it — the `f32` kernels quantized from the bundle at
/// registration. The f32 net is a derived artifact: it is rebuilt on every
/// (re-)registration and never serialized.
pub(crate) struct RegisteredModel {
    /// The served bundle, behind an `Arc` so replacing a registry entry
    /// (guard swap, online hot-swap) is a pointer exchange rather than a
    /// deep copy of the network weights.
    pub(crate) bundle: Arc<ModelBundle>,
    pub(crate) guard: Option<QualityGuard>,
    f32_net: Option<MlpF32>,
    /// Served version under this name, monotonically increasing: 1 at
    /// first registration, +1 per re-registration and per accepted online
    /// hot-swap. A rollback reinstalls the previous entry with its
    /// original (lower) version, so the `hpcnet_model_version` gauge
    /// observably drops.
    pub(crate) version: u64,
}

impl RegisteredModel {
    pub(crate) fn new(
        bundle: Arc<ModelBundle>,
        guard: Option<QualityGuard>,
        serve_f32: bool,
        version: u64,
    ) -> Self {
        let f32_net = if serve_f32 {
            bundle.surrogate.to_f32()
        } else {
            None
        };
        RegisteredModel {
            bundle,
            guard,
            f32_net,
            version,
        }
    }
}

/// Most pairs a round takes from the pending queue. Bounds both the
/// latency of the first drained request and peak batch memory. Requests
/// are taken whole, so the request that crosses the bound is the round's
/// last.
const MAX_COALESCE: usize = 512;

/// Default bound on the pending queue (requests, not pairs).
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

pub(crate) type Registry = Arc<RwLock<HashMap<String, Arc<RegisteredModel>>>>;

/// Serving state shared between the orchestrator and every client it
/// hands out: the drain flag, the queue bound, the default deadline, and
/// — under one lock — the pending queue and the execution slots. The
/// lock is held for bookkeeping only, never while a round executes.
pub(crate) struct ServingShared {
    shutting_down: AtomicBool,
    pub(crate) queue_depth: usize,
    pub(crate) default_deadline: Option<Duration>,
    /// Execution slots in all: rounds that may execute at once.
    workers: usize,
    state: Mutex<ServingState>,
    /// Signalled, when anyone waits, each time a round ends (its answers
    /// are filed and its slot is free) or a request is withdrawn.
    changed: Condvar,
}

/// What [`ServingShared`] keeps under its lock.
pub(crate) struct ServingState {
    /// Admitted requests whose round has not started executing, oldest
    /// first, each under the ticket its owner waits on. At most
    /// `queue_depth` long.
    queue: VecDeque<(u64, PendingRequest)>,
    /// Answers of executed requests their owners have not collected yet.
    answered: HashMap<u64, Vec<Result<()>>>,
    next_ticket: u64,
    /// Execution slots nobody holds. A round executes only while it
    /// holds one, so at most `workers` rounds run at any instant.
    free_slots: usize,
    /// The guard scratch buffers of the free slots that have one: handed
    /// out and taken back with the slot, so there are never more than
    /// `workers` of them however many threads run rounds over time.
    scratch: Vec<Vec<f64>>,
    /// Threads blocked in [`ServingShared::wait`]; the end of a round
    /// skips the wake-up call while there are none.
    waiting: usize,
}

/// A held execution slot. Dropping it ends the round: the answers put in
/// `answers` are filed for their owners and the slot is freed, in one
/// critical section.
pub(crate) struct SlotGuard<'a> {
    shared: &'a ServingShared,
    /// Where the round's guarded sparse inputs take dense form
    /// ([`ScatteredView`]): all zeros whenever no view is alive, as wide
    /// as the widest such input any round on this buffer has seen.
    pub(crate) scratch: Vec<f64>,
    /// `(ticket, answer)` of every request the round took from the queue.
    pub(crate) answers: Vec<(u64, Vec<Result<()>>)>,
}

impl ServingShared {
    fn new(workers: usize, queue_depth: usize, default_deadline: Option<Duration>) -> Self {
        ServingShared {
            shutting_down: AtomicBool::new(false),
            queue_depth,
            default_deadline,
            workers,
            state: Mutex::new(ServingState {
                queue: VecDeque::new(),
                answered: HashMap::new(),
                next_ticket: 0,
                free_slots: workers,
                scratch: Vec::new(),
                waiting: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// The state stays valid at every step, so a lock poisoned by a
    /// panicking peer is safe to keep using.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ServingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Give up the lock until the state changes — or until `until`, or
    /// for no reason at all: callers re-check what they wait for.
    pub(crate) fn wait<'a>(
        &self,
        mut state: MutexGuard<'a, ServingState>,
        until: Option<Instant>,
    ) -> MutexGuard<'a, ServingState> {
        state.waiting += 1;
        let mut state = match until {
            None => self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner),
            Some(until) => {
                let timeout = until.saturating_duration_since(Instant::now());
                self.changed
                    .wait_timeout(state, timeout)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        };
        state.waiting -= 1;
        state
    }

    /// Take a free slot for a round, with a scratch buffer a round before
    /// it grew if one is there.
    pub(crate) fn take_slot(&self, state: &mut ServingState) -> Option<SlotGuard<'_>> {
        if state.free_slots == 0 {
            return None;
        }
        state.free_slots -= 1;
        Some(SlotGuard {
            shared: self,
            scratch: state.scratch.pop().unwrap_or_default(),
            answers: Vec::new(),
        })
    }

    /// Take a request back out of the queue, if no round has taken it.
    pub(crate) fn withdraw(&self, state: &mut ServingState, ticket: u64) -> Option<PendingRequest> {
        let at = state.queue.iter().position(|(t, _)| *t == ticket)?;
        let (_, request) = state.queue.remove(at)?;
        // A drain may be waiting for exactly this.
        if state.waiting > 0 {
            self.changed.notify_all();
        }
        Some(request)
    }
}

impl ServingState {
    /// Requests admitted and not yet executing.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Put `request` at the back of the pending queue and return the
    /// ticket its answer will be filed under. The caller has checked
    /// that fewer than `queue_depth` requests are pending.
    pub(crate) fn admit(&mut self, mut request: PendingRequest) -> u64 {
        request.enqueued = Instant::now();
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.queue.push_back((ticket, request));
        ticket
    }

    /// Take the next round off the front of the queue: whole requests,
    /// oldest first, until [`MAX_COALESCE`] pairs are reached.
    pub(crate) fn take_round(&mut self) -> (Vec<u64>, Vec<PendingRequest>) {
        let mut pairs = 0;
        let mut round = (Vec::new(), Vec::new());
        while pairs < MAX_COALESCE {
            let Some((ticket, request)) = self.queue.pop_front() else {
                break;
            };
            pairs += request.pairs.len();
            round.0.push(ticket);
            round.1.push(request);
        }
        round
    }

    /// The answer filed under `ticket`, once its round has ended.
    pub(crate) fn collect(&mut self, ticket: u64) -> Option<Vec<Result<()>>> {
        self.answered.remove(&ticket)
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.answered.extend(self.answers.drain(..));
        state.free_slots += 1;
        if self.scratch.capacity() > 0 {
            state.scratch.push(std::mem::take(&mut self.scratch));
        }
        let wake = state.waiting > 0;
        drop(state);
        if wake {
            self.shared.changed.notify_all();
        }
    }
}

/// State shared between the orchestrator handle, its clients (whose
/// threads execute the rounds), and the background retrainer thread.
#[derive(Clone)]
pub(crate) struct ServerCtx {
    pub(crate) store: TensorStore,
    pub(crate) registry: Registry,
    pub(crate) metrics: Arc<ServingMetrics>,
    pub(crate) serve_f32: bool,
    /// Online-retraining state ([`OrchestratorBuilder::online_retraining`]);
    /// `None` leaves the fallback path free of capture work.
    pub(crate) online: Option<Arc<OnlineState>>,
    pub(crate) shared: Arc<ServingShared>,
}

/// Configures and launches an [`Orchestrator`] (replaces the removed
/// `launch` / `launch_with_workers` constructors).
///
/// ```
/// use hpcnet_runtime::{Orchestrator, TensorStore};
/// use std::time::Duration;
///
/// let orc = Orchestrator::builder()
///     .store(TensorStore::new())
///     .workers(2)
///     .queue_depth(64)
///     .default_deadline(Duration::from_secs(5))
///     .build();
/// assert_eq!(orc.worker_count(), 2);
/// assert_eq!(orc.queue_depth(), 64);
/// ```
#[derive(Debug)]
pub struct OrchestratorBuilder {
    store: TensorStore,
    workers: Option<usize>,
    queue_depth: usize,
    default_deadline: Option<Duration>,
    telemetry: bool,
    serve_f32: bool,
    slow_request_threshold: Option<Duration>,
    online: Option<RetrainConfig>,
}

impl Default for OrchestratorBuilder {
    fn default() -> Self {
        OrchestratorBuilder {
            store: TensorStore::new(),
            workers: None,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            default_deadline: None,
            telemetry: true,
            serve_f32: false,
            slow_request_threshold: None,
            online: None,
        }
    }
}

impl OrchestratorBuilder {
    /// Serve over an existing (possibly shared) store instead of a fresh
    /// one.
    pub fn store(mut self, store: TensorStore) -> Self {
        self.store = store;
        self
    }

    /// How many rounds may execute at once — the callers' threads execute
    /// them, the orchestrator spawns none. Defaults to one per available
    /// core, capped at 8. Clamped to at least 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Bound on the pending queue, in requests. A full queue rejects
    /// with [`RuntimeError::Overloaded`]. Clamped to at least 1; defaults
    /// to [`DEFAULT_QUEUE_DEPTH`].
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Deadline applied to every request that does not carry its own.
    /// Without one, requests wait indefinitely (the pre-redesign
    /// behavior).
    pub fn default_deadline(mut self, deadline: Duration) -> Self {
        self.default_deadline = Some(deadline);
        self
    }

    /// Enable or disable telemetry (default: enabled). A disabled
    /// orchestrator serves identically but records nothing: every
    /// instrument becomes a single-branch no-op, so the cost of the
    /// instrumentation itself can be measured without recompiling.
    /// Every stats surface is a view of that one recording
    /// ([`Orchestrator::serving_stats`], [`Orchestrator::online_timers`],
    /// [`Orchestrator::trace_dump`], [`Orchestrator::slow_log`]) and
    /// therefore reads all-zero / empty when telemetry is off.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Opt into reduced-precision serving (default: off). Every MLP
    /// bundle registered on this orchestrator is quantized to `f32`
    /// kernels at registration and batches run through them; CNN bundles
    /// keep serving in `f64` (the family has no f32 mirror yet). With a
    /// [`QualityGuard`] attached, any output the validator rejects is
    /// first recomputed through the `f64` surrogate for that request
    /// (counted in [`ServingStats::f32_fallbacks`]) before the usual
    /// fallback/reject semantics apply — see DESIGN.md §14.
    pub fn serve_f32(mut self, enabled: bool) -> Self {
        self.serve_f32 = enabled;
        self
    }

    /// Requests whose end-to-end (enqueue-to-answer) time reaches this
    /// threshold are always retained by the trace flight recorder *and*
    /// logged to the slow-request log, one structured JSON line per
    /// request with its full per-stage breakdown (DESIGN.md §16).
    /// Defaults to [`FlightRecorderConfig::default`]'s threshold.
    pub fn slow_request_threshold(mut self, threshold: Duration) -> Self {
        self.slow_request_threshold = Some(threshold);
        self
    }

    /// Opt into online retraining from guard fallbacks (DESIGN.md §17,
    /// default: off). Every guard fallback then also captures its
    /// `(input, exact output)` pair into a bounded per-model replay
    /// buffer, and a background thread fine-tunes a clone of the served
    /// net once `config`'s triggers fire, hot-swapping validated
    /// improvements in atomically under a new version — with automatic
    /// rollback if the swapped candidate's guard-miss rate regresses
    /// over its probation window.
    pub fn online_retraining(mut self, config: RetrainConfig) -> Self {
        self.online = Some(config);
        self
    }

    /// Build the orchestrator. No thread is started unless
    /// [`online_retraining`](Self::online_retraining) asked for the
    /// retrainer.
    pub fn build(self) -> Orchestrator {
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 8)
        });
        let metrics_registry = if self.telemetry {
            hpcnet_telemetry::Registry::new()
        } else {
            hpcnet_telemetry::Registry::disabled()
        };
        let mut recorder_config = FlightRecorderConfig::default();
        if let Some(t) = self.slow_request_threshold {
            recorder_config.slow_threshold = t;
        }
        let metrics = Arc::new(ServingMetrics::new(
            Arc::new(metrics_registry),
            recorder_config,
        ));
        let online = self.online.map(|config| Arc::new(OnlineState::new(config)));
        let shared = Arc::new(ServingShared::new(
            workers,
            self.queue_depth,
            self.default_deadline,
        ));
        let ctx = ServerCtx {
            store: self.store,
            registry: Arc::default(),
            metrics,
            serve_f32: self.serve_f32,
            online,
            shared,
        };
        let retrainer = ctx.online.as_ref().map(|online| {
            let tick = online.config().tick;
            let (stop_tx, stop_rx) = mpsc::channel::<()>();
            let ctx = ctx.clone();
            let handle = std::thread::spawn(move || retrain::retrainer_loop(&ctx, &stop_rx, tick));
            (stop_tx, handle)
        });
        Orchestrator { ctx, retrainer }
    }
}

/// The inference server (the process-local analog of the GPU-side
/// RedisAI server). Owns the model registry, the pending queue and the
/// execution slots; the `run_model` / `run_model_batch` requests of its
/// clients execute on the threads that bring them, at most
/// [`worker_count`](Self::worker_count) rounds at once. Built via
/// [`Orchestrator::builder`].
pub struct Orchestrator {
    ctx: ServerCtx,
    /// The background retrainer thread and its stop channel, present
    /// when built with [`OrchestratorBuilder::online_retraining`].
    retrainer: Option<(mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
}

impl Orchestrator {
    /// Start configuring an orchestrator.
    pub fn builder() -> OrchestratorBuilder {
        OrchestratorBuilder::default()
    }

    /// The shared store.
    pub fn store(&self) -> &TensorStore {
        &self.ctx.store
    }

    /// Number of rounds that may execute at once
    /// ([`OrchestratorBuilder::workers`]).
    pub fn worker_count(&self) -> usize {
        self.ctx.shared.workers
    }

    /// Pending-queue bound this orchestrator was built with.
    pub fn queue_depth(&self) -> usize {
        self.ctx.shared.queue_depth
    }

    /// Requests admitted to the queue whose round has not started
    /// executing yet (at most [`queue_depth`](Self::queue_depth)).
    /// Reads zero on an idle orchestrator — the state in which a
    /// client's request runs at once instead of being queued.
    pub fn queued(&self) -> usize {
        self.ctx.shared.lock().queued()
    }

    /// Whether this orchestrator quantizes registered MLP bundles to
    /// `f32` kernels ([`OrchestratorBuilder::serve_f32`]).
    pub fn serves_f32(&self) -> bool {
        self.ctx.serve_f32
    }

    /// A client connected to this orchestrator (equivalent to
    /// [`Client::connect`]).
    pub fn client(&self) -> Client {
        Client::new(self.ctx.clone())
    }

    /// Register a model bundle under a name (Listing 2's
    /// `set_model_from_file`). Load time is charged to the §7.3 breakdown.
    pub fn register_model(&self, name: &str, bundle: ModelBundle) {
        self.insert_model(name, bundle, None, Instant::now());
    }

    /// Register a model together with a server-side [`QualityGuard`]: the
    /// orchestrator validates every output of this model and performs the
    /// paper's restart-on-quality-miss itself.
    pub fn register_guarded_model(&self, name: &str, bundle: ModelBundle, guard: QualityGuard) {
        self.insert_model(name, bundle, Some(guard), Instant::now());
    }

    /// Attach (or replace) the quality guard of an already-registered
    /// model. Requests in flight finish on the entry they grabbed.
    pub fn set_quality_guard(&self, name: &str, guard: QualityGuard) -> Result<()> {
        let mut registry = self.ctx.registry.write();
        let Some(entry) = registry.get(name) else {
            return Err(RuntimeError::MissingModel(name.to_string()));
        };
        // Arc clone: the weights are shared with the outgoing entry, not
        // copied. The version is preserved: a guard swap serves the same
        // weights.
        let bundle = Arc::clone(&entry.bundle);
        let version = entry.version;
        registry.insert(
            name.to_string(),
            Arc::new(RegisteredModel::new(
                bundle,
                Some(guard),
                self.ctx.serve_f32,
                version,
            )),
        );
        Ok(())
    }

    /// Install `bundle` and charge the whole load — everything since
    /// `started`, which the file/JSON paths set before reading — to the
    /// model-load histogram, once.
    fn insert_model(
        &self,
        name: &str,
        bundle: ModelBundle,
        guard: Option<QualityGuard>,
        started: Instant,
    ) {
        let version = {
            let mut registry = self.ctx.registry.write();
            let version = registry.get(name).map_or(1, |e| e.version + 1);
            registry.insert(
                name.to_string(),
                Arc::new(RegisteredModel::new(
                    Arc::new(bundle),
                    guard,
                    self.ctx.serve_f32,
                    version,
                )),
            );
            version
        };
        self.ctx.metrics.set_model_version(name, version);
        // Replay samples and guard windows captured under the previous
        // bundle's scalers do not describe the new one.
        if let Some(online) = &self.ctx.online {
            online.reset_model(name);
        }
        self.ctx.metrics.record_model_load(name, started.elapsed());
    }

    /// Register from the serialized JSON form, charging deserialization to
    /// the model-load timer (the file-load path of Listing 2).
    pub fn register_model_from_json(&self, name: &str, json: &str) -> Result<()> {
        let started = Instant::now();
        let bundle = ModelBundle::from_json(json)?;
        self.insert_model(name, bundle, None, started);
        Ok(())
    }

    /// Listing 2's `set_model_from_file`: load a saved bundle from disk
    /// and register it. Load time (file read, deserialize, insert) is
    /// charged to the §7.3 breakdown.
    pub fn set_model_from_file(&self, name: &str, path: &std::path::Path) -> Result<()> {
        let started = Instant::now();
        let bundle = ModelBundle::load(path)?;
        self.insert_model(name, bundle, None, started);
        Ok(())
    }

    /// Is a model registered?
    pub fn has_model(&self, name: &str) -> bool {
        self.ctx.registry.read().contains_key(name)
    }

    /// Names of every registered model, sorted — the registry iteration a
    /// fronting server needs to describe itself (e.g. `STATS` replies).
    pub fn model_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.ctx.registry.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Served version per registered model, read directly from the
    /// registry (monotonic per name: 1 at first registration, +1 per
    /// re-registration and per accepted online hot-swap; a rollback
    /// reinstalls the previous, lower version). Unlike the
    /// gauge-derived [`ServingStats::model_versions`], this reads
    /// correctly with telemetry disabled.
    pub fn model_versions(&self) -> HashMap<String, u64> {
        self.ctx
            .registry
            .read()
            .iter()
            .map(|(name, entry)| (name.clone(), entry.version))
            .collect()
    }

    /// Whether this orchestrator runs the online-retraining loop
    /// ([`OrchestratorBuilder::online_retraining`]).
    pub fn retrains_online(&self) -> bool {
        self.ctx.online.is_some()
    }

    /// Run one retrainer pass synchronously on the calling thread, as the
    /// background thread would on its next tick. Useful for tests and
    /// controlled rollouts that want a deterministic trigger point; a
    /// no-op unless built with [`OrchestratorBuilder::online_retraining`].
    pub fn retrain_now(&self) {
        retrain::retrain_pass(&self.ctx);
    }

    /// Replay samples currently buffered for `model` (0 when online
    /// retraining is off or the model has no captures).
    pub fn replay_buffered(&self, model: &str) -> usize {
        self.ctx
            .online
            .as_ref()
            .map_or(0, |online| online.buffered(model))
    }

    /// A shareable handle to this orchestrator's telemetry registry, so a
    /// fronting subsystem (the `hpcnet-net` TCP server) can record its
    /// connection gauges and per-op latency histograms into the same
    /// exposition the serving metrics live in.
    pub fn telemetry_registry(&self) -> Arc<hpcnet_telemetry::Registry> {
        self.ctx.metrics.registry_arc()
    }

    /// Snapshot of the cumulative online-time breakdown — a view derived
    /// from the telemetry registry (all-zero with telemetry disabled).
    pub fn online_timers(&self) -> OnlineTimers {
        OnlineTimers::from_registry_snapshot(&self.metrics_snapshot())
    }

    /// Snapshot of the cumulative serving statistics (request counts per
    /// model, batch-size histogram, throughput, admission/deadline/quality
    /// counters) — a view derived from the telemetry registry.
    pub fn serving_stats(&self) -> ServingStats {
        self.ctx.metrics.stats()
    }

    /// Prometheus text exposition of this orchestrator's telemetry:
    /// request/error/batch counters, queue-wait and per-stage latency
    /// histograms per model, and the quality-guard counters. Serve this
    /// from a `/metrics` endpoint or dump it at shutdown.
    pub fn metrics_text(&self) -> String {
        self.ctx.metrics.registry().prometheus_text()
    }

    /// Structured point-in-time snapshot of this orchestrator's telemetry,
    /// including retained anomaly events (overload rejections, deadline
    /// expiries, quality misses). Serializable via
    /// [`RegistrySnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.ctx.metrics.registry().snapshot()
    }

    /// Recent request traces retained by the flight recorder, oldest
    /// first (DESIGN.md §16): every error / deadline-exceeded /
    /// guard-fallback / slow request plus a one-in-N sample of the rest.
    /// Empty when telemetry is disabled.
    pub fn trace_dump(&self) -> Vec<Trace> {
        self.ctx.metrics.recorder().snapshot()
    }

    /// The slow-request log, oldest first: one structured JSON object
    /// per request that ran past
    /// [`OrchestratorBuilder::slow_request_threshold`], with its full
    /// per-stage timing breakdown. A view rendering the `slow`-tagged
    /// traces [`trace_dump`](Self::trace_dump) still retains (so bounded
    /// by the flight recorder's capacity); the same lines go to stderr
    /// once, as the requests complete.
    pub fn slow_log(&self) -> Vec<String> {
        self.ctx.metrics.slow_log()
    }

    /// The slow-request threshold in force (shared by the flight
    /// recorder's slow-retention rule and the slow-request log).
    pub fn slow_request_threshold(&self) -> Duration {
        self.ctx.metrics.recorder().slow_threshold()
    }

    /// Graceful shutdown: stop admitting, then wait until every admitted
    /// request has been executed by the callers that own them — the
    /// pending queue is empty and every execution slot is back. Returns
    /// the final statistics. `Drop` performs the same drain.
    pub fn shutdown(mut self) -> ServingStats {
        self.drain();
        self.ctx.metrics.stats()
    }

    fn drain(&mut self) {
        // Stop the retrainer first so no swap lands while rounds drain.
        if let Some((stop, handle)) = self.retrainer.take() {
            let _ = stop.send(());
            drop(stop);
            let _ = handle.join();
        }
        let shared = &self.ctx.shared;
        shared.shutting_down.store(true, Ordering::SeqCst);
        // A caller reads the flag under this lock before it admits or
        // starts anything, so what is pending or executing now is all
        // there will ever be — and each pending request has an owner that
        // leads or awaits its round.
        let mut state = shared.lock();
        while state.queued() > 0 || state.free_slots < shared.workers {
            state = shared.wait(state, None);
        }
    }
}

impl Drop for Orchestrator {
    fn drop(&mut self) {
        self.drain();
    }
}

/// One client request, with per-pair result slots: what a client builds,
/// the pending queue carries, and a round executes.
pub(crate) struct PendingRequest {
    model: String,
    pairs: Vec<(TensorKey, TensorKey)>,
    results: Vec<Option<Result<()>>>,
    deadline: Option<Instant>,
    /// When the request entered the queue — or, on an idle orchestrator,
    /// when its round started, which makes its queue wait zero.
    pub(crate) enqueued: Instant,
    /// Upstream trace context (DESIGN.md §16): when present, the
    /// server-side request span joins the caller's trace instead of
    /// rooting a fresh one.
    trace: Option<TraceContext>,
    /// Pairs of this request the quality guard answered via its fallback
    /// (or rejected) — drives the trace's `guard_fallback` retention tag.
    guard_fallbacks: u64,
}

impl PendingRequest {
    pub(crate) fn new(
        model: &str,
        pairs: Vec<(TensorKey, TensorKey)>,
        deadline: Option<Instant>,
        trace: Option<TraceContext>,
    ) -> Self {
        PendingRequest {
            model: model.to_string(),
            results: vec![None; pairs.len()],
            pairs,
            deadline,
            enqueued: Instant::now(),
            trace,
            guard_fallbacks: 0,
        }
    }

    pub(crate) fn model(&self) -> &str {
        &self.model
    }

    pub(crate) fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Fill every unanswered slot with `err`; returns how many were
    /// filled.
    pub(crate) fn fail_pending(&mut self, err: &RuntimeError) -> u64 {
        let mut filled = 0;
        for r in self.results.iter_mut() {
            if r.is_none() {
                *r = Some(Err(err.clone()));
                filled += 1;
            }
        }
        filled
    }

    /// The request's answer, one result per pair.
    fn into_results(self) -> Vec<Result<()>> {
        self.results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(RuntimeError::Inference("request dropped".into()))))
            .collect()
    }
}

/// One `(in_key, out_key)` pair flowing through a batched execution; the
/// keys are borrowed from the request that owns them.
struct Unit<'a> {
    in_key: &'a str,
    out_key: &'a str,
    result: Option<Result<()>>,
    /// Did the quality guard answer this pair via its fallback (or
    /// reject it)? Propagated back to the owning request's trace.
    used_fallback: bool,
}

impl<'a> Unit<'a> {
    fn new(in_key: &'a str, out_key: &'a str) -> Self {
        Unit {
            in_key,
            out_key,
            result: None,
            used_fallback: false,
        }
    }

    fn pending(&self) -> bool {
        self.result.is_none()
    }

    fn take_result(self) -> Result<()> {
        self.result
            .unwrap_or_else(|| Err(RuntimeError::Inference("request not executed".into())))
    }
}

/// Execute one round on the calling thread: record each request's queue
/// wait, expire overdue requests, execute the rest grouped by model,
/// record the traces, and return every request's answer, in order.
/// `scratch` is the buffer of the execution slot the caller holds — a
/// round of nothing but overdue requests executes nothing and needs no
/// slot, which is how an owner answers a request that expired while it
/// was pending.
pub(crate) fn serve_round(
    ctx: &ServerCtx,
    scratch: &mut Vec<f64>,
    mut pending: Vec<PendingRequest>,
    picked_up: Instant,
) -> Vec<Vec<Result<()>>> {
    for p in &pending {
        ctx.metrics
            .record_queue_wait(&p.model, picked_up.saturating_duration_since(p.enqueued));
    }
    // Panic backstop: the per-closure containment in `deliver_output`
    // and `infer_and_scatter` already converts panicking guard/model
    // closures into per-unit errors, but if anything else in the round
    // panics, answer every still-pending request with a typed error
    // instead of unwinding the thread — the round's other requests would
    // never be answered, and an unwinding caller would take the
    // application down.
    let round = contained(
        || {
            expire_overdue(ctx, &mut pending);
            process_round(ctx, &mut pending, scratch)
        },
        |msg| format!("serving thread panicked mid-round: {msg}"),
    );
    let reports = match round {
        Ok(reports) => reports,
        Err(err) => {
            for p in pending.iter_mut() {
                let failed = p.fail_pending(&err);
                if failed > 0 {
                    ctx.metrics.record_request_errors(&p.model, failed);
                }
            }
            Vec::new()
        }
    };
    if ctx.metrics.recorder().is_enabled() {
        for p in &pending {
            let report = reports
                .iter()
                .find(|(named_by, _)| pending[*named_by].model == p.model)
                .map(|(_, report)| report);
            record_request_trace(ctx, p, report, picked_up);
        }
    }
    pending
        .into_iter()
        .map(PendingRequest::into_results)
        .collect()
}

/// Panic containment for everything user- or model-supplied that runs on
/// a serving thread (validator, fallback region, forward passes, the
/// round as a whole): run `f`, and turn a panic into a typed
/// [`RuntimeError::Inference`] whose text is `describe(panic message)`,
/// so the failure lands on the request that caused it and the thread
/// keeps serving.
fn contained<T>(f: impl FnOnce() -> T, describe: impl FnOnce(&str) -> String) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            s
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.as_str()
        } else {
            "non-string panic payload"
        };
        RuntimeError::Inference(describe(message))
    })
}

/// The `service` tag every orchestrator-recorded span carries.
pub(crate) const TRACE_SERVICE: &str = "orchestrator";

/// Offer one completed request to the flight recorder (DESIGN.md §16)
/// and, only if it will be kept, assemble its span tree: a `request`
/// root (child of the propagated upstream span when the client sent a
/// [`TraceContext`]), a measured `queue_wait` child, and one child per
/// stage the request's coalesced group recorded — the same
/// [`StageTimes`] walk that fed the stage histograms. Stage durations
/// therefore cover the whole batch; each stage span is annotated with
/// `coalesced` so readers can tell. The recorder decides from the
/// request's total time, error and tags alone, so the seven of eight
/// unremarkable requests its sampler drops cost no span at all.
fn record_request_trace(
    ctx: &ServerCtx,
    p: &PendingRequest,
    report: Option<&GroupReport>,
    picked_up: Instant,
) {
    let total = p.enqueued.elapsed();
    let first_err = p
        .results
        .iter()
        .flatten()
        .filter_map(|r| r.as_ref().err())
        .next();
    let mut retention_tags = Vec::new();
    if matches!(first_err, Some(RuntimeError::DeadlineExceeded)) {
        retention_tags.push(tags::DEADLINE);
    }
    if p.guard_fallbacks > 0 {
        retention_tags.push(tags::FALLBACK);
    }
    if !ctx
        .metrics
        .recorder()
        .admit(total, first_err.is_some(), &retention_tags)
    {
        return;
    }

    let start_unix = trace::unix_nanos_now().saturating_sub(total.as_nanos() as u64);
    let queue_wait = picked_up.saturating_duration_since(p.enqueued);
    // Fully-expired requests never joined a group; their model's report
    // (from other requests in the round) does not describe their work.
    let all_expired = !p.results.is_empty()
        && p.results
            .iter()
            .all(|r| matches!(r, Some(Err(RuntimeError::DeadlineExceeded))));
    let report = if all_expired { None } else { report };

    let trace_id = p
        .trace
        .map_or_else(|| TraceId(trace::next_id()), |c| c.trace_id);
    let mut t = Trace::new(trace_id);
    let mut root = SpanRecord::new(Stage::Request, TRACE_SERVICE, start_unix, total)
        .annotate("model", &p.model)
        .annotate("pairs", p.pairs.len());
    if let Some(parent) = p.trace.and_then(|c| c.parent_span) {
        root = root.with_parent(parent);
    }
    if let Some(rep) = report {
        root = root.annotate("coalesced", rep.coalesced);
    }
    if let Some(e) = first_err {
        root = root.with_error(e);
    }
    let root_id = root.span_id;
    t.push(root);
    t.push(
        SpanRecord::new(Stage::QueueWait, TRACE_SERVICE, start_unix, queue_wait)
            .with_parent(root_id),
    );
    if let Some(rep) = report {
        let mut cursor = start_unix.saturating_add(queue_wait.as_nanos() as u64);
        for (_, stage, duration) in rep.times.recorded() {
            t.push(
                SpanRecord::new(stage, TRACE_SERVICE, cursor, duration)
                    .with_parent(root_id)
                    .annotate("coalesced", rep.coalesced),
            );
            cursor = cursor.saturating_add(duration.as_nanos() as u64);
        }
    }
    for tag in retention_tags {
        t.tag(tag);
    }
    ctx.metrics.retain_trace(t);
}

/// Deadline enforcement at execution time (the checks before it live in
/// the client): requests whose deadline has already passed are failed
/// with `DeadlineExceeded` before any work is spent on them.
fn expire_overdue(ctx: &ServerCtx, pending: &mut [PendingRequest]) {
    let now = Instant::now();
    for p in pending.iter_mut() {
        if p.deadline.is_some_and(|d| d <= now) {
            let expired = p.fail_pending(&RuntimeError::DeadlineExceeded);
            if expired > 0 {
                let in_key = p.pairs.first().map(|(i, _)| i.as_str()).unwrap_or("");
                ctx.metrics
                    .record_deadline_expired(&p.model, expired, in_key);
            }
        }
    }
}

/// What one executed model group looked like, kept so every traced
/// request in the round can attribute the group's stage timings (with a
/// `coalesced` annotation, since the timings cover the whole batch).
struct GroupReport {
    times: StageTimes,
    coalesced: usize,
}

/// Group the round's unanswered pairs by model name (preserving arrival
/// order within each group) and execute one batched pass per group.
/// Returns one [`GroupReport`] per executed model for the round's trace
/// assembly, each with the index of the request that names the model.
/// Groups are found by comparing names in arrival order — the one-model
/// round that S = 1 traffic always is never hashes or copies a name.
fn process_round(
    ctx: &ServerCtx,
    pending: &mut [PendingRequest],
    scratch: &mut Vec<f64>,
) -> Vec<(usize, GroupReport)> {
    let mut groups: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    for (pi, p) in pending.iter().enumerate() {
        // Already answered (e.g. expired) pairs join no group.
        let open = (0..p.pairs.len()).filter(|&qi| p.results[qi].is_none());
        let slots = open.map(|qi| (pi, qi));
        match groups
            .iter_mut()
            .find(|(named_by, _)| pending[*named_by].model == p.model)
        {
            Some((_, group)) => group.extend(slots),
            None => groups.push((pi, slots.collect())),
        }
    }
    let mut reports = Vec::with_capacity(groups.len());
    for (named_by, slots) in groups {
        if slots.is_empty() {
            continue;
        }
        let (times, outcomes) = {
            let mut units: Vec<Unit<'_>> = slots
                .iter()
                .map(|&(pi, qi)| {
                    let (in_key, out_key) = &pending[pi].pairs[qi];
                    Unit::new(in_key.as_str(), out_key.as_str())
                })
                .collect();
            let times = execute_group(ctx, &pending[named_by].model, &mut units, scratch);
            let outcomes: Vec<(bool, Result<()>)> = units
                .into_iter()
                .map(|unit| (unit.used_fallback, unit.take_result()))
                .collect();
            (times, outcomes)
        };
        let coalesced = outcomes.len();
        for ((pi, qi), (used_fallback, result)) in slots.into_iter().zip(outcomes) {
            if used_fallback {
                pending[pi].guard_fallbacks += 1;
            }
            pending[pi].results[qi] = Some(result);
        }
        reports.push((named_by, GroupReport { times, coalesced }));
    }
    reports
}

/// Quality-guard outcome tallies for one executed group, plus the wall
/// time spent inside the validator and the fallback region (attributed to
/// their own telemetry stages, carved out of the infer wall time).
#[derive(Default)]
struct QualityCounts {
    hits: u64,
    fallbacks: u64,
    rejected: u64,
    guard_time: Duration,
    fallback_time: Duration,
    /// Requests whose stored answer came from the `f32` kernel path.
    f32_served: u64,
    /// Guarded `f32` outputs the validator rejected and the `f64`
    /// surrogate recomputed (precision demotion).
    f32_fallbacks: u64,
    /// Wall time spent inside `f32` batched forwards (including the
    /// f64↔f32 row conversions), attributed to the `infer_f32` stage.
    f32_time: Duration,
}

/// Execute all `units` against one model as a batched pass
/// ([`run_group`]) and record it: this is the one place a group's stage
/// times are assembled and written. Errors are attributed per unit; every
/// unit leaves with `Some` result. Returns the group's stage-timing split
/// for trace assembly.
fn execute_group(
    ctx: &ServerCtx,
    model: &str,
    units: &mut [Unit],
    scratch: &mut Vec<f64>,
) -> StageTimes {
    let t_group = Instant::now();
    let mut quality = QualityCounts::default();
    let [fetch, encode, forward] = run_group(ctx, model, units, scratch, &mut quality);
    let busy = t_group.elapsed();
    // The f32 forward, the validator and the fallback region all ran
    // inside the forward window; `infer` is what remains.
    let infer =
        forward.saturating_sub(quality.f32_time + quality.guard_time + quality.fallback_time);
    // Slots in `GROUP_STAGES` order.
    let times = StageTimes([
        fetch,
        encode,
        infer,
        quality.f32_time,
        quality.guard_time,
        quality.fallback_time,
    ]);
    for u in units.iter_mut() {
        if u.pending() {
            u.result = Some(Err(RuntimeError::Inference("request not executed".into())));
        }
    }
    let errors = units
        .iter()
        .filter(|u| matches!(u.result, Some(Err(_))))
        .count();
    ctx.metrics
        .record_group(model, units.len(), errors, &times, busy);
    if quality.hits + quality.fallbacks + quality.rejected > 0 {
        ctx.metrics
            .record_quality(quality.hits, quality.fallbacks, quality.rejected);
        // Guard verdicts drive the retraining baseline window and, for a
        // model on probation, its keep-or-rollback verdict.
        retrain::observe_guard(
            ctx,
            model,
            quality.hits,
            quality.fallbacks + quality.rejected,
        );
    }
    if quality.f32_served + quality.f32_fallbacks > 0 {
        ctx.metrics
            .record_f32(quality.f32_served, quality.f32_fallbacks);
    }
    times
}

/// The timed work of one group: fetch every input, encode as a batch, one
/// `predict_batch`, scatter the output rows (through the quality guard
/// when one is registered). The fetched inputs live until the last row is
/// delivered: the guard judges and the fallback re-runs the original
/// region on the raw input, which they get as a view of the fetched
/// tensor, never as a copy of it. Returns the `[fetch, encode, forward]`
/// wall times; a missing model ends after the fetch.
fn run_group(
    ctx: &ServerCtx,
    model: &str,
    units: &mut [Unit],
    scratch: &mut Vec<f64>,
    quality: &mut QualityCounts,
) -> [Duration; 3] {
    let t0 = Instant::now();
    let inputs: Vec<Option<TensorValue>> = units
        .iter_mut()
        .map(|u| match ctx.store.get(u.in_key) {
            Ok(v) => Some(v),
            Err(e) => {
                u.result = Some(Err(e));
                None
            }
        })
        .collect();
    let fetch = t0.elapsed();

    // Clone the entry Arc out of the registry: the read lock is NOT held
    // across encode/inference, so registrations never wait on a long batch
    // and a re-registration mid-batch can't change results mid-row.
    let entry: Option<Arc<RegisteredModel>> = ctx.registry.read().get(model).cloned();
    let Some(entry) = entry else {
        for u in units.iter_mut() {
            if u.pending() {
                u.result = Some(Err(RuntimeError::MissingModel(model.to_string())));
            }
        }
        return [fetch, Duration::ZERO, Duration::ZERO];
    };

    let t1 = Instant::now();
    let mut features: Vec<Option<Vec<f64>>> = (0..units.len()).map(|_| None).collect();
    encode_features(&entry.bundle, units, &inputs, &mut features);
    let encode = t1.elapsed();

    let t2 = Instant::now();
    infer_and_scatter(
        ctx,
        &entry,
        model,
        units,
        &inputs,
        &mut features,
        scratch,
        quality,
    );
    [fetch, encode, t2.elapsed()]
}

/// Feature reduction for a group (paper §4.2's online API): without an
/// autoencoder the input is the feature row — a copy of it, which the
/// scaler then changes in place; a sparse row densifies to the model's
/// input width, up to [`MAX_DENSE_ELEMS`](crate::store::MAX_DENSE_ELEMS).
/// With an autoencoder, dense and sparse inputs are batched separately
/// through the encoder — the sparse path never densifies the raw input.
fn encode_features(
    bundle: &ModelBundle,
    units: &mut [Unit],
    inputs: &[Option<TensorValue>],
    features: &mut [Option<Vec<f64>>],
) {
    match &bundle.autoencoder {
        None => {
            for (i, inp) in inputs.iter().enumerate() {
                match inp {
                    Some(TensorValue::Dense(d)) => features[i] = Some(d.clone()),
                    Some(TensorValue::Sparse(s)) => match densify(s) {
                        Ok(row) => features[i] = Some(row),
                        Err(e) => units[i].result = Some(Err(e)),
                    },
                    None => {}
                }
            }
        }
        Some(ae) => {
            let mut dense: Vec<(usize, &[f64])> = Vec::new();
            let mut sparse: Vec<(usize, &Csr)> = Vec::new();
            for (i, inp) in inputs.iter().enumerate() {
                match inp {
                    Some(TensorValue::Dense(d)) => dense.push((i, d)),
                    Some(TensorValue::Sparse(s)) => sparse.push((i, s)),
                    None => {}
                }
            }
            encode_dense_group(ae, units, features, dense);
            encode_sparse_group(ae, units, features, sparse);
        }
    }
}

fn encode_dense_group(
    ae: &Autoencoder,
    units: &mut [Unit],
    features: &mut [Option<Vec<f64>>],
    group: Vec<(usize, &[f64])>,
) {
    if group.is_empty() {
        return;
    }
    if group.len() > 1 && group.iter().all(|(_, v)| v.len() == ae.input_dim()) {
        let mut data = Vec::with_capacity(group.len() * ae.input_dim());
        for (_, v) in &group {
            data.extend_from_slice(v);
        }
        if let Ok(x) = Matrix::from_vec(group.len(), ae.input_dim(), data) {
            if let Ok(encoded) = ae.encode_batch(&x) {
                for (r, (i, _)) in group.iter().enumerate() {
                    features[*i] = Some(encoded.row(r).to_vec());
                }
                return;
            }
        }
    }
    // Single sample, ragged widths, or a failed batch: encode one by one
    // so errors attach to the right request.
    for (i, v) in group {
        match ae.encode(v) {
            Ok(f) => features[i] = Some(f),
            Err(e) => units[i].result = Some(Err(e.into())),
        }
    }
}

fn encode_sparse_group(
    ae: &Autoencoder,
    units: &mut [Unit],
    features: &mut [Option<Vec<f64>>],
    group: Vec<(usize, &Csr)>,
) {
    if group.is_empty() {
        return;
    }
    let stackable = group.len() > 1
        && group
            .iter()
            .all(|(_, s)| s.nrows() == 1 && s.ncols() == ae.input_dim());
    if stackable {
        if let Some(x) = vstack_single_rows(&group) {
            if let Ok(encoded) = ae.encode_sparse(&x) {
                for (r, (i, _)) in group.iter().enumerate() {
                    features[*i] = Some(encoded.row(r).to_vec());
                }
                return;
            }
        }
    }
    for (i, s) in group {
        match ae.encode_sparse(s) {
            Ok(m) => features[i] = Some(m.into_vec()),
            Err(e) => units[i].result = Some(Err(e.into())),
        }
    }
}

/// Stack single-row CSR matrices into one multi-row CSR without
/// densifying: per-row index/value runs concatenate unchanged, so row `r`
/// of the stack is exactly input `r`.
fn vstack_single_rows(group: &[(usize, &Csr)]) -> Option<Csr> {
    let ncols = group.first()?.1.ncols();
    let nnz: usize = group.iter().map(|(_, s)| s.nnz()).sum();
    let mut indptr = Vec::with_capacity(group.len() + 1);
    indptr.push(0usize);
    let mut indices = Vec::with_capacity(nnz);
    let mut data = Vec::with_capacity(nnz);
    for (_, s) in group {
        indices.extend_from_slice(s.indices());
        data.extend_from_slice(s.values());
        indptr.push(indices.len());
    }
    Csr::from_raw(group.len(), ncols, indptr, indices, data).ok()
}

/// A sparse guard input in dense form, for as long as the validator and
/// the fallback look at it: the tensor's stored values scattered over the
/// execution slot's all-zero scratch — O(nnz), and nothing allocated once
/// the scratch has grown to the widest input seen. Dropping the view
/// writes the zeros back, on accept, reject, `?` and unwinding alike, so
/// whoever uses the scratch next finds it all zeros.
struct ScatteredView<'a> {
    tensor: &'a Csr,
    dense: &'a mut [f64],
}

impl<'a> ScatteredView<'a> {
    /// Fails, before anything is allocated, for a tensor whose dense form
    /// is over [`MAX_DENSE_ELEMS`](crate::store::MAX_DENSE_ELEMS).
    fn new(tensor: &'a Csr, scratch: &'a mut Vec<f64>) -> Result<Self> {
        let len = dense_len(tensor)?;
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        let view = ScatteredView {
            tensor,
            dense: &mut scratch[..len],
        };
        tensor.scatter_into(&mut *view.dense);
        Ok(view)
    }
}

impl Drop for ScatteredView<'_> {
    fn drop(&mut self) {
        self.tensor.clear_scattered(self.dense);
    }
}

/// Inverse-scale one output row, pass it through the quality guard if one
/// is registered, store it, and return the unit's result. Both the
/// batched and the per-unit fallback inference paths converge here, so
/// guard semantics are identical regardless of how the row was produced.
///
/// `input` is the fetched tensor the row was computed from; the guard
/// sees its dense form — a dense one as it is, a sparse one through a
/// [`ScatteredView`] on `scratch`. `feature` is the scaled feature row
/// `y` was computed from (absent only when the row could not be
/// reconstructed); `from_f32` marks that `y` came from the `f32` kernel
/// path. A guard rejection of an `f32` output first *demotes* the
/// request — recomputes the answer through the `f64` surrogate on that
/// feature and re-validates — before the fallback/reject semantics
/// apply (DESIGN.md §14). The recompute is
/// charged to plain infer time, not to the guard or fallback stages,
/// because it is inference work. Under online retraining, a fallback
/// answer is also captured with its feature row as a replay sample.
/// Every user-supplied closure and model call runs [`contained`].
#[allow(clippy::too_many_arguments)]
fn deliver_output(
    ctx: &ServerCtx,
    entry: &RegisteredModel,
    model: &str,
    input: &TensorValue,
    scratch: &mut Vec<f64>,
    quality: &mut QualityCounts,
    unit: &mut Unit,
    mut y: Vec<f64>,
    feature: Option<&[f64]>,
    from_f32: bool,
) -> Result<()> {
    let mut from_f32 = from_f32 && feature.is_some();
    if let Some(os) = &entry.bundle.output_scaler {
        os.inverse_transform_vec(&mut y);
    }
    if let Some(guard) = &entry.guard {
        let scattered;
        let raw: &[f64] = match input {
            TensorValue::Dense(d) => d,
            TensorValue::Sparse(s) => {
                scattered = ScatteredView::new(s, scratch)?;
                scattered.dense
            }
        };
        let in_key = unit.in_key;
        let validate = |y: &[f64], quality: &mut QualityCounts| {
            let t_guard = Instant::now();
            let verdict = contained(
                || (guard.validator)(raw, y),
                |msg| format!("quality validator panicked for input `{in_key}`: {msg}"),
            );
            quality.guard_time += t_guard.elapsed();
            verdict
        };
        let mut accepted = validate(&y, quality)?;
        if !accepted && from_f32 {
            if let Some(feature) = feature {
                // Precision demotion: the quantized answer missed, so this
                // request re-runs on the f64 surrogate and is judged again.
                from_f32 = false;
                let rejected_y0 = y.first().copied().unwrap_or(f64::NAN);
                y = contained(
                    || entry.bundle.surrogate.predict(feature),
                    |msg| {
                        format!(
                            "model `{model}` panicked during f64 demotion for input `{in_key}`: {msg}"
                        )
                    },
                )??;
                if let Some(os) = &entry.bundle.output_scaler {
                    os.inverse_transform_vec(&mut y);
                }
                quality.f32_fallbacks += 1;
                ctx.metrics
                    .quality_event(EVENT_F32_DEMOTED, model, in_key, rejected_y0);
                accepted = validate(&y, quality)?;
            }
        }
        if accepted {
            quality.hits += 1;
        } else if let Some(fallback) = &guard.fallback {
            let rejected_y0 = y.first().copied().unwrap_or(f64::NAN);
            let t_fb = Instant::now();
            let recomputed = contained(
                || fallback(raw),
                |msg| format!("fallback region panicked for input `{in_key}`: {msg}"),
            );
            quality.fallback_time += t_fb.elapsed();
            y = recomputed?;
            quality.fallbacks += 1;
            unit.used_fallback = true;
            ctx.metrics
                .quality_event(EVENT_QUALITY_FALLBACK, model, in_key, rejected_y0);
            // The exact region just produced a perfectly-labeled sample
            // from the surrogate's weakest input region: capture it for
            // the online fine-tuner (a no-op unless retraining is on).
            if let Some(f) = feature {
                retrain::capture(ctx, entry, model, f, &y);
            }
        } else {
            quality.rejected += 1;
            unit.used_fallback = true;
            let rejected_y0 = y.first().copied().unwrap_or(f64::NAN);
            ctx.metrics
                .quality_event(EVENT_QUALITY_REJECTED, model, in_key, rejected_y0);
            return Err(RuntimeError::QualityRejected(format!(
                "validator rejected output for input `{in_key}`"
            )));
        }
    }
    if from_f32 {
        quality.f32_served += 1;
    }
    ctx.store.put_dense(unit.out_key, y);
    Ok(())
}

/// Scale features, run one batched forward per feature width (normally a
/// single batch), and deliver each output row through
/// [`deliver_output`]. Each step applies per row exactly as the
/// single-sample path does, so un-guarded outputs are bit-identical to
/// `predict`.
#[allow(clippy::too_many_arguments)]
fn infer_and_scatter(
    ctx: &ServerCtx,
    entry: &RegisteredModel,
    model: &str,
    units: &mut [Unit],
    inputs: &[Option<TensorValue>],
    features: &mut [Option<Vec<f64>>],
    scratch: &mut Vec<f64>,
    quality: &mut QualityCounts,
) {
    let bundle = &entry.bundle;
    if let Some(scaler) = &bundle.scaler {
        for f in features.iter_mut().flatten() {
            scaler.transform_vec(f);
        }
    }
    let mut width_groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, f) in features.iter().enumerate() {
        if let (true, Some(f)) = (units[i].pending(), f) {
            match width_groups.iter_mut().find(|(w, _)| *w == f.len()) {
                Some((_, members)) => members.push(i),
                None => width_groups.push((f.len(), vec![i])),
            }
        }
    }
    // Deliver row `y` of unit `i` and record the unit's result. A unit
    // has a feature row only if its input was fetched.
    let mut deliver = |units: &mut [Unit],
                       quality: &mut QualityCounts,
                       i: usize,
                       y: Vec<f64>,
                       feature: Option<&[f64]>,
                       from_f32: bool| {
        let Some(input) = &inputs[i] else { return };
        let unit = &mut units[i];
        let result = deliver_output(
            ctx, entry, model, input, scratch, quality, unit, y, feature, from_f32,
        );
        unit.result = Some(result);
    };
    for (width, members) in width_groups {
        // Opt-in reduced precision: quantized bundles serve the whole
        // width group through the f32 kernels. A failed f32 batch (ragged
        // width, model panic) falls through to the f64 path below so
        // errors attach with the established per-unit semantics.
        if let Some(q) = &entry.f32_net {
            let t_f32 = Instant::now();
            let mut data = Vec::with_capacity(members.len() * width);
            for &i in &members {
                if let Some(f) = &features[i] {
                    data.extend(f.iter().map(|&v| v as f32));
                }
            }
            let batched = MatrixF32::from_vec(members.len(), width, data)
                .map_err(RuntimeError::from)
                .and_then(|x| {
                    contained(
                        || q.predict_batch(&x),
                        |msg| {
                            format!("model `{model}` panicked during f32 batched inference: {msg}")
                        },
                    )
                    .and_then(|r| r.map_err(RuntimeError::from))
                });
            quality.f32_time += t_f32.elapsed();
            if let Ok(out) = batched {
                for (r, &i) in members.iter().enumerate() {
                    let y: Vec<f64> = out.row(r).iter().map(|&v| f64::from(v)).collect();
                    deliver(units, quality, i, y, features[i].as_deref(), true);
                }
                continue;
            }
        }
        let mut data = Vec::with_capacity(members.len() * width);
        for &i in &members {
            if let Some(f) = &features[i] {
                data.extend_from_slice(f);
            }
        }
        let batched = Matrix::from_vec(members.len(), width, data)
            .map_err(RuntimeError::from)
            .and_then(|x| {
                // A poisoned batch falls through to the per-unit path
                // below, which attributes the failure.
                contained(
                    || bundle.surrogate.predict_batch(&x),
                    |msg| format!("model `{model}` panicked during batched inference: {msg}"),
                )
                .and_then(|r| r.map_err(RuntimeError::from))
            });
        match batched {
            Ok(out) => {
                for (r, &i) in members.iter().enumerate() {
                    let y = out.row(r).to_vec();
                    deliver(units, quality, i, y, features[i].as_deref(), false);
                }
            }
            Err(_) => {
                // The batch failed as a whole (e.g. width mismatch with the
                // model): fall back to per-unit predicts so the error lands
                // on the offending request(s).
                for &i in &members {
                    let Some(f) = features[i].as_deref() else {
                        continue;
                    };
                    let predicted = contained(
                        || bundle.surrogate.predict(f),
                        |msg| {
                            format!(
                                "model `{model}` panicked for input `{}`: {msg}",
                                units[i].in_key
                            )
                        },
                    );
                    match predicted {
                        Ok(Ok(y)) => deliver(units, quality, i, y, Some(f), false),
                        Ok(Err(e)) => units[i].result = Some(Err(e.into())),
                        Err(e) => units[i].result = Some(Err(e)),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClientApi;
    use hpcnet_nn::{Mlp, Topology};
    use hpcnet_tensor::rng::seeded;

    fn tiny_bundle() -> ModelBundle {
        let mlp = Mlp::new(&Topology::mlp(vec![3, 4, 2]), &mut seeded(1, "srv")).unwrap();
        ModelBundle {
            surrogate: mlp.into(),
            autoencoder: None,
            scaler: None,
            output_scaler: None,
        }
    }

    #[test]
    fn run_model_produces_output_tensor() {
        let orc = Orchestrator::builder().build();
        orc.register_model("m", tiny_bundle());
        orc.store().put_dense("in", vec![0.1, 0.2, 0.3]);
        orc.client().run_model("m", "in", "out").unwrap();
        let out = orc.store().get_dense("out").unwrap();
        assert_eq!(out.len(), 2);
        let timers = orc.online_timers();
        assert!(timers.fetch + timers.infer > Duration::ZERO);
    }

    #[test]
    fn model_names_lists_sorted_registrations() {
        let orc = Orchestrator::builder().build();
        assert!(orc.model_names().is_empty());
        orc.register_model("zeta", tiny_bundle());
        orc.register_model("alpha", tiny_bundle());
        assert_eq!(orc.model_names(), vec!["alpha", "zeta"]);
        // The shared registry handle points at the same instruments.
        orc.telemetry_registry().counter("hpcnet_test_total").inc();
        assert!(orc.metrics_text().contains("hpcnet_test_total 1"));
    }

    #[test]
    fn missing_model_and_tensor_error() {
        let orc = Orchestrator::builder().build();
        let client = orc.client();
        assert!(matches!(
            client.run_model("ghost", "in", "out"),
            Err(RuntimeError::MissingTensor(_)) | Err(RuntimeError::MissingModel(_))
        ));
        orc.store().put_dense("in", vec![1.0, 2.0, 3.0]);
        assert_eq!(
            client.run_model("ghost", "in", "out"),
            Err(RuntimeError::MissingModel("ghost".into()))
        );
    }

    #[test]
    fn bundle_json_roundtrip_preserves_inference() {
        let bundle = tiny_bundle();
        let json = bundle.to_json();
        let orc = Orchestrator::builder().build();
        orc.register_model_from_json("m", &json).unwrap();
        orc.store().put_dense("in", vec![0.5, -0.5, 0.25]);
        orc.client().run_model("m", "in", "out").unwrap();
        let via_registry = orc.store().get_dense("out").unwrap();
        let direct = bundle.surrogate.predict(&[0.5, -0.5, 0.25]).unwrap();
        assert_eq!(via_registry, direct);
        assert!(orc.online_timers().model_load > Duration::ZERO);
    }

    #[test]
    fn sparse_input_with_autoencoder_never_densifies_width() {
        let mut rng = seeded(2, "srv-ae");
        let ae = Autoencoder::new(20, 4, &mut rng).unwrap();
        let mlp = Mlp::new(&Topology::mlp(vec![4, 6, 2]), &mut rng).unwrap();
        let bundle = ModelBundle {
            surrogate: mlp.into(),
            autoencoder: Some(ae),
            scaler: None,
            output_scaler: None,
        };
        let orc = Orchestrator::builder().build();
        orc.register_model("sparse-m", bundle);
        let mut coo = hpcnet_tensor::Coo::new(1, 20);
        coo.push(0, 3, 1.0);
        coo.push(0, 17, -2.0);
        orc.store().put_sparse("in", coo.to_csr());
        orc.client().run_model("sparse-m", "in", "out").unwrap();
        assert_eq!(orc.store().get_dense("out").unwrap().len(), 2);
    }

    #[test]
    fn bundle_file_roundtrip_and_set_model_from_file() {
        let bundle = tiny_bundle();
        let dir = std::env::temp_dir().join("hpcnet-test-bundle");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("saved_net.json");
        bundle.save(&path).unwrap();
        let orc = Orchestrator::builder().build();
        orc.set_model_from_file("m", &path).unwrap();
        assert!(orc.has_model("m"));
        assert!(orc.online_timers().model_load > Duration::ZERO);
        orc.store().put_dense("in", vec![0.3, 0.2, 0.1]);
        orc.client().run_model("m", "in", "out").unwrap();
        assert_eq!(
            orc.store().get_dense("out").unwrap(),
            bundle.surrogate.predict(&[0.3, 0.2, 0.1]).unwrap()
        );
        assert!(ModelBundle::load(&dir.join("missing.json")).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn percentages_sum_to_hundred_when_nonzero() {
        let orc = Orchestrator::builder().build();
        orc.register_model("m", tiny_bundle());
        orc.store().put_dense("in", vec![0.1, 0.2, 0.3]);
        let client = orc.client();
        for _ in 0..5 {
            client.run_model("m", "in", "out").unwrap();
        }
        let p = orc.online_timers().percentages();
        let sum: f64 = p.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6, "percentages sum {sum}");
    }

    #[test]
    fn grouped_execution_matches_single_sample_bitwise() {
        let bundle = tiny_bundle();
        let orc = Orchestrator::builder().workers(2).build();
        orc.register_model("m", bundle.clone());
        let inputs: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![0.1 * i as f64, -0.2 * i as f64, 0.05 * i as f64])
            .collect();
        for (i, x) in inputs.iter().enumerate() {
            orc.store().put_dense(&format!("in{i}"), x.clone());
        }
        let keys: Vec<(String, String)> = (0..9)
            .map(|i| (format!("in{i}"), format!("out{i}")))
            .collect();
        let mut units: Vec<Unit> = keys.iter().map(|(i, o)| Unit::new(i, o)).collect();
        execute_group(&orc.ctx, "m", &mut units, &mut Vec::new());
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(
                orc.store().get_dense(&format!("out{i}")).unwrap(),
                bundle.surrogate.predict(x).unwrap(),
                "row {i} diverged from the single-sample path"
            );
        }
        let stats = orc.serving_stats();
        assert_eq!(stats.requests, 9);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.per_model["m"], 9);
        assert_eq!(stats.batch_hist[3], 1); // 9 lands in [8, 16)
    }

    #[test]
    fn grouped_execution_attributes_errors_per_unit() {
        let orc = Orchestrator::builder().build();
        orc.register_model("m", tiny_bundle());
        orc.store().put_dense("good", vec![0.1, 0.2, 0.3]);
        orc.store().put_dense("bad", vec![0.1, 0.2]); // wrong width
        let mut units = vec![
            Unit::new("good", "out-good"),
            Unit::new("bad", "out-bad"),
            Unit::new("gone", "out-gone"),
        ];
        execute_group(&orc.ctx, "m", &mut units, &mut Vec::new());
        assert_eq!(units[0].result, Some(Ok(())));
        assert!(matches!(
            units[1].result,
            Some(Err(RuntimeError::Inference(_)))
        ));
        assert!(matches!(
            units[2].result,
            Some(Err(RuntimeError::MissingTensor(_)))
        ));
        assert_eq!(orc.store().get_dense("out-good").unwrap().len(), 2);
        assert!(orc.store().get_dense("out-bad").is_err());
        let stats = orc.serving_stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 2);
    }

    #[test]
    fn registration_mid_stream_is_not_blocked_by_inference() {
        // The registry holds Arc'd entries: replacing a model while
        // requests are in flight must neither deadlock nor corrupt
        // results (each group runs entirely on the entry it grabbed).
        let orc = Orchestrator::builder().workers(2).build();
        orc.register_model("m", tiny_bundle());
        orc.store().put_dense("in", vec![0.1, 0.2, 0.3]);
        let client = orc.client();
        for _ in 0..20 {
            client.run_model("m", "in", "out").unwrap();
            orc.register_model("m", tiny_bundle());
        }
        assert!(orc.has_model("m"));
        assert_eq!(orc.serving_stats().requests, 20);
    }

    #[test]
    fn guarded_model_falls_back_and_counts() {
        let orc = Orchestrator::builder().workers(1).build();
        // Reject everything; the fallback is a deterministic "original
        // region" the output must bit-match.
        let guard =
            QualityGuard::new(|_, _| false).with_fallback(|x| x.iter().map(|v| 3.0 * v).collect());
        orc.register_guarded_model("g", tiny_bundle(), guard);
        let x = vec![0.5, -1.0, 2.0];
        orc.store().put_dense("in", x.clone());
        orc.client().run_model("g", "in", "out").unwrap();
        let out = orc.store().get_dense("out").unwrap();
        let expected: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        assert_eq!(out, expected, "fallback output must be the exact region");
        let stats = orc.serving_stats();
        assert_eq!(stats.quality_fallbacks, 1);
        assert_eq!(stats.quality_hits, 0);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn guarded_model_without_fallback_rejects() {
        let orc = Orchestrator::builder().workers(1).build();
        orc.register_guarded_model("g", tiny_bundle(), QualityGuard::new(|_, _| false));
        orc.store().put_dense("in", vec![0.1, 0.2, 0.3]);
        let err = orc.client().run_model("g", "in", "out").unwrap_err();
        assert!(matches!(err, RuntimeError::QualityRejected(_)));
        assert!(orc.store().get_dense("out").is_err(), "no output stored");
        let stats = orc.serving_stats();
        assert_eq!(stats.quality_rejected, 1);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn metrics_snapshot_reports_queue_wait_stages_and_text() {
        use crate::metrics::{QUEUE_WAIT_SECONDS, STAGE_SECONDS};
        let orc = Orchestrator::builder().workers(1).build();
        orc.register_model("m", tiny_bundle());
        orc.store().put_dense("in", vec![0.1, 0.2, 0.3]);
        let client = orc.client();
        for _ in 0..4 {
            client.run_model("m", "in", "out").unwrap();
        }
        let snap = orc.metrics_snapshot();
        let wait = snap
            .find_histogram(QUEUE_WAIT_SECONDS, &[("model", "m")])
            .expect("queue-wait histogram registered");
        assert_eq!(wait.count, 4, "one queue-wait sample per request");
        let infer = snap
            .find_histogram(STAGE_SECONDS, &[("model", "m"), ("stage", "infer")])
            .expect("infer stage histogram registered");
        assert!(infer.count >= 1 && infer.sum > 0, "infer stage timed");
        assert_eq!(snap.counter_total(crate::metrics::REQUESTS_TOTAL), 4);
        let text = orc.metrics_text();
        assert!(text.contains("hpcnet_serving_requests_total{model=\"m\"} 4"));
        assert!(text.contains("hpcnet_serving_queue_wait_seconds_count{model=\"m\"} 4"));
        // The snapshot serializes.
        assert!(snap.to_json().contains("hpcnet_serving_batch_size"));
    }

    #[test]
    fn quality_events_land_in_the_ring() {
        let orc = Orchestrator::builder().workers(1).build();
        let guard =
            QualityGuard::new(|_, _| false).with_fallback(|x| x.iter().map(|v| 2.0 * v).collect());
        orc.register_guarded_model("g", tiny_bundle(), guard);
        orc.store().put_dense("in", vec![0.5, -1.0, 2.0]);
        orc.client().run_model("g", "in", "out").unwrap();
        let snap = orc.metrics_snapshot();
        let events = snap.events_of_kind(crate::metrics::EVENT_QUALITY_FALLBACK);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label, "g");
        assert_eq!(events[0].message, "in");
        assert!(events[0].value.is_finite(), "carries the rejected output");
        // Guard and fallback stage time was carved out of infer.
        let guard_h = snap
            .find_histogram(
                crate::metrics::STAGE_SECONDS,
                &[("model", "g"), ("stage", "guard")],
            )
            .expect("guard stage histogram registered");
        assert_eq!(guard_h.count, 1);
    }

    #[test]
    fn disabled_telemetry_serves_but_records_nothing() {
        // Every view reads zero/empty together — even with a slow threshold
        // that would otherwise retain and log every request.
        let orc = Orchestrator::builder()
            .workers(1)
            .telemetry(false)
            .slow_request_threshold(Duration::ZERO)
            .build();
        orc.register_model("m", tiny_bundle());
        orc.store().put_dense("in", vec![0.1, 0.2, 0.3]);
        orc.client().run_model("m", "in", "out").unwrap();
        assert_eq!(orc.store().get_dense("out").unwrap().len(), 2);
        let stats = orc.serving_stats();
        assert_eq!(stats.requests, 0, "stats view is empty when disabled");
        assert_eq!(orc.online_timers(), OnlineTimers::default());
        assert!(orc.trace_dump().is_empty());
        assert!(orc.slow_log().is_empty());
        let snap = orc.metrics_snapshot();
        assert!(
            snap.find_histogram(crate::metrics::BATCH_SIZE, &[])
                .unwrap()
                .count
                == 0
        );
        assert!(snap.events.is_empty());
    }

    #[test]
    fn trace_dump_retains_error_trace_with_stage_children() {
        let orc = Orchestrator::builder().workers(1).build();
        orc.register_model("m", tiny_bundle());
        let client = orc.client();
        // A missing input fails the request; tail sampling must retain
        // its trace regardless of the one-in-N sampler.
        let err = client.run_model("m", "gone", "out").unwrap_err();
        assert!(matches!(err, RuntimeError::MissingTensor(_)));
        let traces = orc.trace_dump();
        let t = traces
            .iter()
            .find(|t| t.has_tag(tags::ERROR))
            .expect("error trace retained");
        let root = t.root().expect("root span");
        assert_eq!(root.name, Stage::Request.as_str());
        assert_eq!(root.service, TRACE_SERVICE);
        assert!(root.status.is_error());
        assert!(root
            .annotations
            .iter()
            .any(|(k, v)| k == "model" && v == "m"));
        for stage in [Stage::QueueWait, Stage::Fetch, Stage::Encode, Stage::Infer] {
            let span = t
                .span_named(stage)
                .unwrap_or_else(|| panic!("stage child {stage:?} missing; spans: {:?}", t.spans));
            assert_eq!(span.parent, Some(root.span_id));
        }
        // Client handles expose the same dump as the orchestrator.
        assert_eq!(client.trace_dump().unwrap().len(), traces.len());
    }

    #[test]
    fn slow_request_log_captures_full_breakdown() {
        // A zero threshold makes every request "slow": each one must be
        // retained, tagged, counted, and logged with per-stage timings.
        let orc = Orchestrator::builder()
            .workers(1)
            .slow_request_threshold(Duration::ZERO)
            .build();
        assert_eq!(orc.slow_request_threshold(), Duration::ZERO);
        orc.register_model("m", tiny_bundle());
        orc.store().put_dense("in", vec![0.1, 0.2, 0.3]);
        orc.client().run_model("m", "in", "out").unwrap();
        let traces = orc.trace_dump();
        assert!(traces.iter().any(|t| t.has_tag(tags::SLOW)));
        let log = orc.slow_log();
        assert_eq!(log.len(), 1, "one slow line per offending request");
        let line: serde_json::Value = serde_json::from_str(&log[0]).expect("valid JSON line");
        let slow = &line["slow_request"];
        assert_eq!(slow["model"], "m");
        assert_eq!(slow["pairs"], 1);
        let stages = slow["stages_micros"]
            .as_object()
            .expect("per-stage breakdown");
        for stage in [
            Stage::QueueWait.as_str(),
            Stage::Fetch.as_str(),
            Stage::Encode.as_str(),
            Stage::Infer.as_str(),
        ] {
            assert!(stages.contains_key(stage), "stage `{stage}` in {stages:?}");
        }
        assert!(slow["trace_id"].as_str().is_some());
        assert_eq!(
            orc.metrics_snapshot()
                .counter_total(crate::metrics::SLOW_REQUESTS_TOTAL),
            1
        );
    }

    #[test]
    fn propagated_context_joins_the_callers_trace() {
        let orc = Orchestrator::builder().workers(1).build();
        orc.register_model("m", tiny_bundle());
        orc.store().put_dense("in", vec![0.1, 0.2, 0.3]);
        let upstream = TraceContext::root();
        let parent = trace::SpanId(trace::next_id());
        let ctx = upstream.child_of(parent);
        // A failing request: the error rule retains it deterministically.
        let results = orc.client().run_round(&[crate::RunRequest {
            model: "m",
            in_key: "missing",
            out_key: "out2",
            deadline: None,
            trace: Some(ctx),
        }]);
        assert!(matches!(results[..], [Err(RuntimeError::MissingTensor(_))]));
        let traces = orc.trace_dump();
        let t = traces
            .iter()
            .find(|t| t.trace_id == upstream.trace_id)
            .expect("server half recorded under the caller's trace id");
        let req = t.span_named(Stage::Request).expect("request span");
        assert_eq!(
            req.parent,
            Some(parent),
            "request span hangs under the propagated parent"
        );
    }

    #[test]
    fn guard_fallback_traces_are_always_retained() {
        let orc = Orchestrator::builder().workers(1).build();
        let guard =
            QualityGuard::new(|_, _| false).with_fallback(|x| x.iter().map(|v| 2.0 * v).collect());
        orc.register_guarded_model("g", tiny_bundle(), guard);
        orc.store().put_dense("in", vec![0.5, -1.0, 2.0]);
        orc.client().run_model("g", "in", "out").unwrap();
        let traces = orc.trace_dump();
        let t = traces
            .iter()
            .find(|t| t.has_tag(tags::FALLBACK))
            .expect("guard-fallback trace retained");
        assert!(
            t.span_named(Stage::Fallback).is_some(),
            "fallback stage span present; spans: {:?}",
            t.spans
        );
        assert!(!t.has_error(), "the fallback answered, not an error");
    }

    #[test]
    fn accepting_guard_counts_hits_and_keeps_bitwise_output() {
        let bundle = tiny_bundle();
        let orc = Orchestrator::builder().workers(1).build();
        orc.register_model("g", bundle.clone());
        orc.set_quality_guard("g", QualityGuard::new(|_, _| true))
            .unwrap();
        let x = vec![0.2, 0.4, -0.6];
        orc.store().put_dense("in", x.clone());
        orc.client().run_model("g", "in", "out").unwrap();
        assert_eq!(
            orc.store().get_dense("out").unwrap(),
            bundle.surrogate.predict(&x).unwrap(),
            "an accepting guard must not perturb the surrogate output"
        );
        assert_eq!(orc.serving_stats().quality_hits, 1);
        assert!(orc
            .set_quality_guard("ghost", QualityGuard::new(|_, _| true))
            .is_err());
    }
}
