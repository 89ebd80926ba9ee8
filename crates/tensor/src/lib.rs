//! Dense and sparse linear-algebra substrate for Auto-HPCnet.
//!
//! The paper's workloads manipulate dense vectors/matrices and sparse
//! matrices in COO/CSR form. This crate supplies those containers and the
//! kernels the rest of the workspace (neural networks, solvers, autoencoder,
//! Gaussian processes) is built on. Hot paths are parallelized with rayon
//! per the workspace's HPC guides.
//!
//! There is one dense matrix type, [`MatrixOf<T>`], generic over the
//! element types of [`kernels::Scalar`]; [`Matrix`] (`f64`: training,
//! solvers, checkpoints) and [`MatrixF32`] (`f32`: the opt-in serving
//! path) are aliases of it, and both run the same `matmul` dispatch over
//! the same kernels in [`kernels`] (DESIGN.md §14).

pub mod dense;
pub mod kernels;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod vecops;

pub use dense::{Matrix, MatrixF32, MatrixOf};
pub use sparse::{Coo, Csr};

/// Errors surfaced by tensor kernels.
///
/// Shape mismatches are programming errors in most numeric libraries and
/// would panic; we surface them as values so the NAS layer can treat a
/// mis-configured candidate architecture as an invalid sample rather than
/// aborting a long search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands disagreed on a dimension: `(expected, got, context)`.
    ShapeMismatch(usize, usize, &'static str),
    /// A matrix that must be square (e.g. a Cholesky operand) was not.
    NotSquare(usize, usize),
    /// A numeric routine failed (e.g. Cholesky of a non-PD matrix).
    Numerical(&'static str),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch(a, b, ctx) => {
                write!(f, "shape mismatch in {ctx}: expected {a}, got {b}")
            }
            TensorError::NotSquare(r, c) => write!(f, "matrix must be square, got {r}x{c}"),
            TensorError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
