//! The online-retraining driver (DESIGN.md §17): wires `hpcnet-online`'s
//! replay buffer, fine-tuner, and probation watchdog into the serving
//! path.
//!
//! Ownership split: `hpcnet-online` knows about networks and samples;
//! this module owns everything registry-shaped — capture on the
//! fallback path, the background retrainer thread, the versioned atomic
//! hot-swap (a pointer exchange under the registry write lock), and the
//! probation/rollback state machine driven by guard outcomes on the
//! serving threads.
//!
//! Swap/rollback safety rests on two properties:
//!
//! * a round clones the entry `Arc` out of the registry before executing
//!   a group, so a swap mid-batch never changes results mid-row and no
//!   request ever fails because of a swap;
//! * every install re-checks, under the write lock, that the entry it
//!   trained from (or put on probation) is still the served one
//!   (`Arc::ptr_eq`) — a racing re-registration wins and the stale
//!   swap/rollback is abandoned.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcnet_online::{
    FineTuneOutcome, FineTuner, Probation, ProbationVerdict, ReplayBuffer, RetrainConfig,
};
use hpcnet_telemetry::trace::{self, tags};
use hpcnet_telemetry::{SpanRecord, Stage, Trace, TraceId};
use parking_lot::Mutex;

use crate::metrics::{EVENT_MODEL_ROLLBACK, EVENT_MODEL_SWAP};
use crate::server::{ModelBundle, RegisteredModel, ServerCtx, TRACE_SERVICE};

/// Guard outcomes accumulated for a served model version since it was
/// installed (registration, swap, or rollback). Its miss rate is the
/// baseline the next swap's probation judges against.
#[derive(Debug, Default, Clone, Copy)]
struct GuardWindow {
    hits: u64,
    misses: u64,
}

impl GuardWindow {
    fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.misses as f64 / total as f64
    }
}

/// A freshly-swapped candidate under watch, with the entry it replaced
/// retained for rollback.
struct ProbationEntry {
    probation: Probation,
    /// The displaced version, reinstalled verbatim on rollback.
    prev: Arc<RegisteredModel>,
    /// The version under probation — rollback only fires if this exact
    /// entry is still the served one.
    candidate: Arc<RegisteredModel>,
}

/// Everything the online-retraining loop shares with the serving path.
pub(crate) struct OnlineState {
    config: RetrainConfig,
    buffer: ReplayBuffer,
    tuner: FineTuner,
    /// Baseline guard windows per model (models not on probation).
    windows: Mutex<HashMap<String, GuardWindow>>,
    /// Models currently on probation.
    probation: Mutex<HashMap<String, ProbationEntry>>,
    /// Last fine-tune run per model (trigger spacing).
    last_runs: Mutex<HashMap<String, Instant>>,
}

impl OnlineState {
    pub(crate) fn new(config: RetrainConfig) -> Self {
        OnlineState {
            buffer: ReplayBuffer::new(config.capacity),
            tuner: FineTuner::new(config.clone()),
            config,
            windows: Mutex::new(HashMap::new()),
            probation: Mutex::new(HashMap::new()),
            last_runs: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn config(&self) -> &RetrainConfig {
        &self.config
    }

    /// Buffered replay samples for `model` (test/observability hook).
    pub(crate) fn buffered(&self, model: &str) -> usize {
        self.buffer.len(model)
    }

    /// Forget everything known about `model`: its replay samples (they
    /// were captured under the old bundle's scalers), its baseline
    /// window, and any probation. Called on (re-)registration.
    pub(crate) fn reset_model(&self, model: &str) {
        let _ = self.buffer.drain(model);
        self.windows.lock().remove(model);
        self.probation.lock().remove(model);
        self.last_runs.lock().remove(model);
    }
}

/// Capture one guard-fallback pair on the serving thread. `feature` is the
/// row exactly as the surrogate saw it (post-encode, post-scaler);
/// `exact` is the fallback's answer in physical units, standardized here
/// into the surrogate's output space so the fine-tuner trains in model
/// space and the candidate serves behind the unchanged bundle transforms.
/// A pair with a NaN/Inf anywhere is dropped uncounted: the request was
/// still answered with whatever the fallback returned, but one such label
/// would poison every later fine-tune drawn from the buffer.
pub(crate) fn capture(
    ctx: &ServerCtx,
    entry: &RegisteredModel,
    model: &str,
    feature: &[f64],
    exact: &[f64],
) {
    let Some(online) = &ctx.online else {
        return;
    };
    let mut target = exact.to_vec();
    if let Some(os) = &entry.bundle.output_scaler {
        os.transform_vec(&mut target);
    }
    if !feature.iter().chain(&target).all(|v| v.is_finite()) {
        return;
    }
    online.buffer.push(model, feature, &target);
    ctx.metrics.record_retrain_samples(model, 1);
}

/// Feed one executed group's guard outcomes into the baseline window or,
/// for a model on probation, into its verdict — executing rollback
/// inline when the candidate regressed.
pub(crate) fn observe_guard(ctx: &ServerCtx, model: &str, hits: u64, misses: u64) {
    let Some(online) = &ctx.online else {
        return;
    };
    let taken = {
        let mut probation = online.probation.lock();
        let Some(entry) = probation.get_mut(model) else {
            drop(probation);
            let mut windows = online.windows.lock();
            let w = windows.entry(model.to_string()).or_default();
            w.hits += hits;
            w.misses += misses;
            return;
        };
        match entry.probation.observe(hits, misses) {
            None => return,
            Some(v) => probation.remove(model).map(|e| (v, e)),
        }
    };
    let Some((verdict, entry)) = taken else {
        return;
    };
    match verdict {
        ProbationVerdict::Pass => {
            // Graduated: release the retained previous version; the
            // probation window the candidate just served becomes its
            // baseline window going forward.
            let observed = entry.probation.observed();
            let misses = (entry.probation.miss_rate() * observed as f64).round() as u64;
            online.windows.lock().insert(
                model.to_string(),
                GuardWindow {
                    hits: observed.saturating_sub(misses),
                    misses,
                },
            );
        }
        ProbationVerdict::Rollback => {
            rollback(ctx, online, model, entry);
        }
    }
}

/// Reinstall the displaced version — unless a racing re-registration or
/// swap already replaced the probationary candidate, in which case the
/// rollback is stale and abandoned.
fn rollback(ctx: &ServerCtx, online: &OnlineState, model: &str, entry: ProbationEntry) {
    let restored = {
        let mut registry = ctx.registry.write();
        match registry.get(model) {
            Some(current) if Arc::ptr_eq(current, &entry.candidate) => {
                registry.insert(model.to_string(), Arc::clone(&entry.prev));
                true
            }
            _ => false,
        }
    };
    if !restored {
        return;
    }
    // The candidate's samples trained a regressing net; drop them and
    // start the restored version with a clean window and fresh captures.
    let _ = online.buffer.drain(model);
    online
        .windows
        .lock()
        .insert(model.to_string(), GuardWindow::default());
    let message = format!(
        "probation miss rate {:.3} vs baseline {:.3}: restored v{}",
        entry.probation.miss_rate(),
        entry.probation.baseline_miss_rate(),
        entry.prev.version,
    );
    ctx.metrics
        .record_retrain_rollback(model, entry.prev.version, &message);
    record_retrain_trace(
        ctx,
        model,
        EVENT_MODEL_ROLLBACK,
        entry.prev.version,
        Duration::ZERO,
    );
}

/// One retrainer tick: for every model with buffered samples, check the
/// trigger (enough samples, enough spacing, not on probation), fine-tune
/// a clone of the served net, and hot-swap validated improvements.
pub(crate) fn retrain_pass(ctx: &ServerCtx) {
    let Some(online) = &ctx.online else {
        return;
    };
    for model in online.buffer.models() {
        if online.probation.lock().contains_key(&model) {
            continue;
        }
        if online.buffer.len(&model) < online.config.min_samples {
            continue;
        }
        let spaced = match online.last_runs.lock().get(&model) {
            Some(t) => t.elapsed() >= online.config.min_interval,
            None => true,
        };
        if !spaced {
            continue;
        }
        let entry: Option<Arc<RegisteredModel>> = ctx.registry.read().get(&model).cloned();
        let Some(entry) = entry else {
            // Unregistered mid-flight: discard its samples.
            let _ = online.buffer.drain(&model);
            continue;
        };
        let samples = online.buffer.drain(&model);
        let t0 = Instant::now();
        let outcome = online.tuner.fine_tune(&entry.bundle.surrogate, &samples);
        let took = t0.elapsed();
        online
            .last_runs
            .lock()
            .insert(model.clone(), Instant::now());
        ctx.metrics.record_retrain_run(&model, took);
        match outcome {
            FineTuneOutcome::Improved {
                net,
                baseline_rmse,
                candidate_rmse,
                ..
            } => install_candidate(
                ctx,
                online,
                &model,
                &entry,
                net,
                baseline_rmse,
                candidate_rmse,
                took,
            ),
            FineTuneOutcome::Rejected { .. }
            | FineTuneOutcome::Unsupported
            | FineTuneOutcome::Failed(_) => {
                ctx.metrics.record_retrain_rejected(&model);
            }
            FineTuneOutcome::TooFewSamples { .. } => {
                // The drain raced ragged/short captures; the next window
                // of fallbacks refills the buffer.
            }
        }
    }
}

/// Atomically hot-swap a validated candidate in and put it on probation.
/// The new entry shares the old bundle's encoder and scalers (the
/// candidate trained in the same model space) and — under
/// `serve_f32(true)` — re-quantizes the fine-tuned weights to fresh
/// `f32` kernels.
#[allow(clippy::too_many_arguments)]
fn install_candidate(
    ctx: &ServerCtx,
    online: &OnlineState,
    model: &str,
    trained_from: &Arc<RegisteredModel>,
    net: hpcnet_nn::SurrogateNet,
    baseline_rmse: f64,
    candidate_rmse: f64,
    took: Duration,
) {
    let bundle = ModelBundle {
        surrogate: net,
        autoencoder: trained_from.bundle.autoencoder.clone(),
        scaler: trained_from.bundle.scaler.clone(),
        output_scaler: trained_from.bundle.output_scaler.clone(),
    };
    let version = trained_from.version + 1;
    let candidate = Arc::new(RegisteredModel::new(
        Arc::new(bundle),
        trained_from.guard.clone(),
        ctx.serve_f32,
        version,
    ));
    let swapped = {
        let mut registry = ctx.registry.write();
        match registry.get(model) {
            Some(current) if Arc::ptr_eq(current, trained_from) => {
                registry.insert(model.to_string(), Arc::clone(&candidate));
                true
            }
            _ => false,
        }
    };
    if !swapped {
        // A re-registration or guard swap landed between drain and
        // install: the candidate trained from a stale entry.
        ctx.metrics.record_retrain_rejected(model);
        return;
    }
    // The window accumulated against the displaced version becomes the
    // probation baseline.
    let baseline = online
        .windows
        .lock()
        .remove(model)
        .unwrap_or_default()
        .miss_rate();
    online.probation.lock().insert(
        model.to_string(),
        ProbationEntry {
            probation: Probation::new(
                baseline,
                online.config.probation_window,
                online.config.miss_rate_tolerance,
            ),
            prev: Arc::clone(trained_from),
            candidate,
        },
    );
    let message = format!(
        "holdout rmse {baseline_rmse:.3e} -> {candidate_rmse:.3e}, baseline miss rate {baseline:.3}"
    );
    ctx.metrics.record_retrain_swap(model, version, &message);
    record_retrain_trace(ctx, model, EVENT_MODEL_SWAP, version, took);
}

/// Record a `retrain`-stage trace for a swap or rollback. Always
/// retained by the flight recorder (`tags::RETRAIN`): these events are
/// rare and operators audit them.
fn record_retrain_trace(ctx: &ServerCtx, model: &str, event: &str, version: u64, took: Duration) {
    if !ctx.metrics.recorder().is_enabled() {
        return;
    }
    let start = trace::unix_nanos_now().saturating_sub(took.as_nanos() as u64);
    let mut t = Trace::new(TraceId(trace::next_id()));
    t.push(
        SpanRecord::new(Stage::Retrain, TRACE_SERVICE, start, took)
            .annotate("model", model)
            .annotate("event", event)
            .annotate("version", version),
    );
    t.tag(tags::RETRAIN);
    ctx.metrics.record_trace(t);
}

/// Body of the background retrainer thread: tick until the stop channel
/// signals (or the orchestrator is gone).
pub(crate) fn retrainer_loop(ctx: &ServerCtx, stop: &Receiver<()>, tick: Duration) {
    loop {
        match stop.recv_timeout(tick) {
            Err(RecvTimeoutError::Timeout) => retrain_pass(ctx),
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}
