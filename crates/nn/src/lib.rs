//! From-scratch neural-network substrate for Auto-HPCnet.
//!
//! The paper trains surrogates and autoencoders with TensorFlow/Keras; no
//! mature Rust equivalent exists (the calibration notes flag "immature DL
//! crates"), so this crate implements the needed subset from first
//! principles:
//!
//! * dense multi-layer perceptrons with manual backprop ([`mlp::Mlp`]),
//! * SGD/momentum and Adam optimizers ([`optimizer`]),
//! * a mini-batch trainer with train/validation split ([`train::Trainer`]),
//! * **gradient checkpointing** for memory-bounded training
//!   ([`checkpoint`], paper §4.2 first customization),
//! * a **sparse-input first layer** that consumes CSR matrices without
//!   densification ([`layer::SparseDense`], §4.2 second customization —
//!   the paper's "TensorFlow embedding API"),
//! * an hourglass autoencoder with the element-wise reconstruction-quality
//!   metric σ_y ([`autoencoder`], Eqn 1 — §4.2 third customization),
//! * one forward path at two precisions: layer, MLP and scratch buffers
//!   are generic over the element type ([`layer::DenseOf`],
//!   [`mlp::MlpOf`], [`mlp::ScratchBuffersOf`]) with `f64` aliases
//!   ([`Dense`], [`Mlp`], [`ScratchBuffers`]) for training, checkpoints
//!   and default serving, and `f32` aliases ([`DenseF32`], [`MlpF32`],
//!   [`ScratchBuffersF32`]) quantized from a trained model for the
//!   orchestrator's opt-in reduced-precision serving (DESIGN.md §14).
//!
//! Gradients are verified against finite differences in the test suite, and
//! checkpointed backprop is property-tested to equal plain backprop.

pub mod activation;
pub mod autoencoder;
pub mod checkpoint;
pub mod conv;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod net;
pub mod optimizer;
pub mod train;

pub use activation::Activation;
pub use autoencoder::Autoencoder;
pub use conv::{Cnn, CnnTopology, Conv1d};
pub use layer::{Dense, DenseF32, SparseDense};
pub use loss::Loss;
pub use mlp::{Mlp, MlpF32, ScratchBuffers, ScratchBuffersF32, Topology};
pub use net::SurrogateNet;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use train::{TrainConfig, TrainReport, Trainer};

/// Errors from NN construction or training.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// Underlying tensor kernel failed (shape mismatch etc.).
    Tensor(hpcnet_tensor::TensorError),
    /// A topology was structurally invalid (e.g. zero-width layer).
    InvalidTopology(String),
    /// Training data was unusable (empty, ragged, NaN).
    BadData(String),
}

impl From<hpcnet_tensor::TensorError> for NnError {
    fn from(e: hpcnet_tensor::TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::InvalidTopology(m) => write!(f, "invalid topology: {m}"),
            NnError::BadData(m) => write!(f, "bad training data: {m}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
