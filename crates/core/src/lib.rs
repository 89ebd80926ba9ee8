//! Auto-HPCnet: an automatic framework to build neural-network surrogates
//! for HPC applications (HPDC '23 reproduction).
//!
//! The end-to-end workflow (paper Fig. 1):
//!
//! 1. **Data acquisition** ([`acquisition`]) — trace the annotated region,
//!    build the DDDG, identify inputs/outputs, and generate training
//!    samples by Gaussian perturbation (for mini-IR programs), or build
//!    the dataset from a native application's problem generator
//!    ([`dataset`]).
//! 2. **Input analysis + 2D NAS** — the customized autoencoder and the
//!    hierarchical Bayesian optimization (crates `hpcnet-nn`,
//!    `hpcnet-nas`), driven by [`pipeline::AutoHpcnet`].
//! 3. **Deployment** — the surrogate bundle is registered with the
//!    orchestrator (crate `hpcnet-runtime`) and invoked through the
//!    client API.
//! 4. **Evaluation** ([`evaluate`]) — Eqn 2 speedup and Eqn 3 HitRate
//!    over fresh input problems, with restart-on-quality-miss semantics.
//!
//! ```no_run
//! use auto_hpcnet::pipeline::AutoHpcnet;
//! use auto_hpcnet::config::PipelineConfig;
//! use hpcnet_apps::CgApp;
//!
//! let app = CgApp::default();
//! let framework = AutoHpcnet::new(PipelineConfig::quick());
//! let surrogate = framework.build_surrogate(&app).unwrap();
//! let eval = auto_hpcnet::evaluate::evaluate(&app, &surrogate, 50, 0.10, false).unwrap();
//! println!("speedup {:.2}x  hit-rate {:.1}%", eval.speedup, 100.0 * eval.hit_rate);
//! ```

pub mod acquisition;
pub mod config;
pub mod dataset;
pub mod evaluate;
pub mod pipeline;

pub use config::PipelineConfig;
pub use evaluate::{evaluate, Evaluation};
pub use pipeline::{AutoHpcnet, DeployedSurrogate, OfflineTimes};

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Feature acquisition failed.
    Trace(hpcnet_trace::TraceError),
    /// Architecture search failed.
    Nas(hpcnet_nas::NasError),
    /// NN substrate failure.
    Nn(hpcnet_nn::NnError),
    /// Runtime failure.
    Runtime(hpcnet_runtime::RuntimeError),
    /// Bad configuration or data.
    BadConfig(String),
}

impl From<hpcnet_trace::TraceError> for PipelineError {
    fn from(e: hpcnet_trace::TraceError) -> Self {
        PipelineError::Trace(e)
    }
}

impl From<hpcnet_nas::NasError> for PipelineError {
    fn from(e: hpcnet_nas::NasError) -> Self {
        PipelineError::Nas(e)
    }
}

impl From<hpcnet_nn::NnError> for PipelineError {
    fn from(e: hpcnet_nn::NnError) -> Self {
        PipelineError::Nn(e)
    }
}

impl From<hpcnet_runtime::RuntimeError> for PipelineError {
    fn from(e: hpcnet_runtime::RuntimeError) -> Self {
        PipelineError::Runtime(e)
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Trace(e) => write!(f, "trace: {e}"),
            PipelineError::Nas(e) => write!(f, "nas: {e}"),
            PipelineError::Nn(e) => write!(f, "nn: {e}"),
            PipelineError::Runtime(e) => write!(f, "runtime: {e}"),
            PipelineError::BadConfig(m) => write!(f, "bad config: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PipelineError>;
