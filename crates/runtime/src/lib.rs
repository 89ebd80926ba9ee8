//! Online-inference runtime (paper §6.3): the SmartSim-Orchestrator /
//! RedisAI substitute.
//!
//! The paper couples HPC applications (C/Fortran) with NN frameworks
//! (Python) through an in-memory Redis store plus RedisAI, accessed via a
//! lightweight request client (Listings 1–2). This crate reproduces that
//! architecture in-process:
//!
//! * [`store::TensorStore`] — the keyed in-memory tensor storage
//!   (`put_tensor` / `get_tensor` / `unpack_tensor`), with [`TensorKey`]
//!   as the validated key type at the client/server boundary,
//! * [`server::Orchestrator`] — the inference server holding the model
//!   registry; `run_model` / `run_model_batch` requests execute on the
//!   threads that bring them, coalesced into batched forward passes
//!   under load. Admission is bounded ([`RuntimeError::Overloaded`]),
//!   requests carry deadlines ([`RuntimeError::DeadlineExceeded`]), and
//!   shutdown drains in-flight work ([`RuntimeError::ShuttingDown`]).
//!   A registered model may carry a [`QualityGuard`] so the server itself
//!   performs the paper's restart-on-quality-miss (§7.1/§8),
//! * [`client::Client`] — the application-side request client mirroring
//!   Listing 1's `put_tensor` → `run_model` → `unpack_tensor` flow, with
//!   every call fallible,
//! * [`device`] — an analytic device model (CPU / V100-class GPU) used for
//!   the GPU columns of Fig. 5 and Table 3 (we have no GPU; every GPU
//!   number is clearly a model output — see DESIGN.md),
//! * [`perf`] — [`ServingStats`], the cumulative serving statistics
//!   assembled on demand from the telemetry registry,
//! * [`metrics`] — the serving telemetry surface (DESIGN.md §11): every
//!   orchestrator owns a private `hpcnet_telemetry::Registry` with
//!   queue-wait and per-stage latency histograms per model, exported via
//!   [`Orchestrator::metrics_text`] / [`Orchestrator::metrics_snapshot`],
//! * [`conformance`] — the shared [`ClientApi`] conformance suite every
//!   transport's tests run (in-process here, TCP in `hpcnet-net`,
//!   sharded in `hpcnet-cluster`), pinning the one-run-call contract executably.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod client;
pub mod conformance;
pub mod device;
pub mod metrics;
pub mod perf;
mod retrain;
pub mod server;
pub mod store;

pub use api::ClientApi;
pub use client::{Client, RunRequest};
pub use device::{DeviceProfile, DeviceTime};
pub use hpcnet_online::RetrainConfig;
pub use hpcnet_telemetry::{
    Event, HistogramSnapshot, RegistrySnapshot, SpanRecord, SpanStatus, Trace, TraceContext,
    TraceId,
};
pub use perf::ServingStats;
pub use server::{ModelBundle, OnlineTimers, Orchestrator, OrchestratorBuilder, QualityGuard};
pub use store::{TensorKey, TensorStore};

/// Errors from the runtime.
///
/// The serving runtime makes every failure mode of the request path a
/// distinct, matchable variant: storage misses, model misses, inference
/// faults, admission-control rejections ([`RuntimeError::Overloaded`]),
/// deadline misses ([`RuntimeError::DeadlineExceeded`]), shutdown
/// ([`RuntimeError::ShuttingDown`]), and server-side quality rejection
/// ([`RuntimeError::QualityRejected`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A tensor key was missing from the store.
    MissingTensor(String),
    /// A model name was not registered.
    MissingModel(String),
    /// The inference failed (shape mismatch etc.).
    Inference(String),
    /// A tensor key failed validation (empty, or longer than
    /// [`store::MAX_KEY_BYTES`] bytes).
    InvalidKey(String),
    /// The bounded pending queue was full; the request was rejected at
    /// once instead of growing the backlog. Carries the
    /// configured queue depth so callers can size their retry policy.
    Overloaded {
        /// Pending-queue capacity the orchestrator was built with.
        queue_depth: usize,
    },
    /// The request's deadline passed before it executed. Raised at once
    /// when the deadline is already unreachable, by the request's owner
    /// when it expires while pending, and by the round that takes it
    /// when it expired before its coalesced batch runs — expired
    /// requests are always answered, never dropped.
    DeadlineExceeded,
    /// The orchestrator is draining and no longer admits new requests.
    ShuttingDown,
    /// The server-side quality guard rejected the surrogate output and no
    /// fallback region was registered to restart with.
    QualityRejected(String),
    /// The orchestrator thread is gone.
    Disconnected,
    /// The network transport to a remote orchestrator failed (connect,
    /// read, or write) after the client's retry budget was exhausted.
    /// Callers should treat this as "the service is unreachable" and fall
    /// back to the original solver (the paper's restart semantics).
    Transport(String),
    /// A wire-protocol violation: a malformed, corrupted, or
    /// version-incompatible frame on the network boundary.
    Protocol(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::MissingTensor(k) => write!(f, "no tensor under key `{k}`"),
            RuntimeError::MissingModel(m) => write!(f, "no model named `{m}`"),
            RuntimeError::Inference(m) => write!(f, "inference failed: {m}"),
            RuntimeError::InvalidKey(k) => write!(f, "invalid tensor key: {k}"),
            RuntimeError::Overloaded { queue_depth } => {
                write!(f, "admission queue full (depth {queue_depth})")
            }
            RuntimeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            RuntimeError::ShuttingDown => write!(f, "orchestrator is shutting down"),
            RuntimeError::QualityRejected(m) => {
                write!(f, "quality guard rejected surrogate output: {m}")
            }
            RuntimeError::Disconnected => write!(f, "orchestrator disconnected"),
            RuntimeError::Transport(m) => write!(f, "transport failed: {m}"),
            RuntimeError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<hpcnet_nn::NnError> for RuntimeError {
    fn from(e: hpcnet_nn::NnError) -> Self {
        RuntimeError::Inference(e.to_string())
    }
}

impl From<hpcnet_tensor::TensorError> for RuntimeError {
    fn from(e: hpcnet_tensor::TensorError) -> Self {
        RuntimeError::Inference(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_stable() {
        assert_eq!(
            RuntimeError::Overloaded { queue_depth: 4 }.to_string(),
            "admission queue full (depth 4)"
        );
        assert_eq!(
            RuntimeError::DeadlineExceeded.to_string(),
            "request deadline exceeded"
        );
        assert_eq!(
            RuntimeError::ShuttingDown.to_string(),
            "orchestrator is shutting down"
        );
        assert!(RuntimeError::QualityRejected("residual too large".into())
            .to_string()
            .contains("residual too large"));
    }

    #[test]
    fn nn_and_tensor_errors_convert_to_inference() {
        let nn = hpcnet_nn::NnError::BadData("short row".into());
        assert!(matches!(
            RuntimeError::from(nn),
            RuntimeError::Inference(m) if m.contains("short row")
        ));
        let te = hpcnet_tensor::TensorError::ShapeMismatch(2, 3, "test");
        assert!(matches!(RuntimeError::from(te), RuntimeError::Inference(_)));
    }
}
