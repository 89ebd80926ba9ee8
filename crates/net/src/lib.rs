//! Networked serving for the orchestrator (DESIGN.md §12): the deployed
//! surrogate as a *service* rather than an in-process library.
//!
//! The paper's deployment story (§6.3, Listing 1) has the application and
//! the surrogate in one address space. Real HPC deployments often split
//! them — the solver runs on compute nodes, the surrogate serves from a
//! node with the trained models — so this crate adds the wire between the
//! two halves without changing the surface the application programs
//! against:
//!
//! * [`protocol`] — a compact length-prefixed binary framing with CRC-32
//!   checksums, versioned frames, and typed error frames mirroring
//!   [`hpcnet_runtime::RuntimeError`],
//! * [`server`] — a multi-threaded TCP front end
//!   ([`NetServer`]) over an [`hpcnet_runtime::Orchestrator`]: one
//!   thread per connection that serves what arrived together as one
//!   round, a bounded per-connection window, connection/byte/request
//!   telemetry recorded into the orchestrator's own registry, and
//!   graceful drain that reuses `Orchestrator::shutdown()`,
//! * [`client`] — [`RemoteClient`], the same Listing-1 surface as the
//!   in-process `Client` (both implement
//!   [`hpcnet_runtime::ClientApi`]), with connection pooling, a connect
//!   timeout, and one bounded-backoff retry rule for every call.
//!
//! The `hpcnet-serve` binary wraps [`server`] for two-terminal use; see
//! `examples/remote_quickstart.rs` and the README's "Remote serving"
//! section.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{RemoteClient, RemoteClientBuilder};
pub use server::{NetServer, NetServerBuilder};

use hpcnet_nn::{Mlp, SurrogateNet, Topology};
use hpcnet_runtime::ModelBundle;

/// Name the demo model is registered under by `hpcnet-serve --demo`,
/// [`demo_bundle`] consumers, and the loopback tests.
pub const DEMO_MODEL: &str = "demo-surrogate";

/// Input width of the [`demo_bundle`] model.
pub const DEMO_INPUT_DIM: usize = 8;

/// A small deterministic surrogate (8 → 16 → 4 MLP, fixed seed). The same
/// weights are constructed on every call, so a client that builds the
/// bundle locally can bit-compare its own forward pass against outputs
/// produced by a remote `hpcnet-serve --demo` process.
pub fn demo_bundle() -> ModelBundle {
    let mut rng = hpcnet_tensor::rng::seeded(0xD0_0D, "hpcnet-net demo model");
    #[allow(clippy::expect_used)]
    let surrogate = Mlp::new(&Topology::mlp(vec![DEMO_INPUT_DIM, 16, 4]), &mut rng)
        // hpcnet-lint: allow(no-panic) -- constant topology, test-covered; cannot fail on user input
        .expect("demo topology is valid");
    ModelBundle {
        surrogate: SurrogateNet::Mlp(surrogate),
        autoencoder: None,
        scaler: None,
        output_scaler: None,
    }
}

/// A deterministic input row for the demo model: `sample` selects among
/// distinct but reproducible vectors.
pub fn demo_input(sample: u64) -> Vec<f64> {
    (0..DEMO_INPUT_DIM)
        .map(|i| ((sample as f64 + 1.0) * 0.37 + i as f64 * 0.11).sin())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_bundle_is_deterministic() {
        let a = demo_bundle();
        let b = demo_bundle();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(demo_input(3), demo_input(3));
        assert_ne!(demo_input(3), demo_input(4));
    }
}
