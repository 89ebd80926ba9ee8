//! The client surface shared by every way of reaching an orchestrator.
//!
//! [`ClientApi`] is the paper's Listing 1 vocabulary — `put_tensor`,
//! `run_model`, `unpack_tensor` — abstracted over the transport, so an
//! application can be written once and pointed at the in-process
//! [`crate::Client`], a networked client (`hpcnet-net`'s `RemoteClient`),
//! or a sharded fleet (`hpcnet-cluster`'s `ClusterClient`) without
//! touching the call sites. The implementations are behaviorally
//! interchangeable: every transport produces bit-identical outputs and
//! surfaces the same typed [`crate::RuntimeError`] variants (`Overloaded`,
//! `DeadlineExceeded`, `ShuttingDown`, `QualityRejected`), plus
//! [`crate::RuntimeError::Transport`] when a network itself fails.
//!
//! # One run call
//!
//! Listing 1 has one `run_model(name, {in_keys}, {out_keys})` over key
//! lists, and so does this trait: [`ClientApi::run_pairs`] is the only
//! run method a transport implements. `run_model`, `run_model_batch` and
//! their `_with_deadline` forms are provided wrappers that reduce its
//! per-pair results to the first error in pair order; no transport
//! overrides them, so a single run *is* a batch of one on every path —
//! same retry rule, same trace shape, same counters. The contract of the
//! primitive is pinned by the shared [`crate::conformance`] suite
//! (DESIGN.md §15.1).

use std::time::Duration;

use crate::{Result, ServingStats};

/// The transport-agnostic request client: Listing 1's flow plus
/// deletion (for bounded-memory serving), health probing, and the
/// observability surface.
pub trait ClientApi {
    /// Put a dense input tensor on the database.
    fn put_tensor(&self, key: &str, value: &[f64]) -> Result<()>;

    /// Put a sparse input tensor on the database without densification.
    fn put_sparse_tensor(&self, key: &str, value: hpcnet_tensor::Csr) -> Result<()>;

    /// Run a registered model over every `(in_key, out_key)` pair,
    /// storing each output under its `out_key`, and return one result per
    /// pair, in pair order. Blocks until every pair is answered. This is
    /// the one run method a transport implements; the four `run_model*`
    /// methods are views of it.
    ///
    /// Contract (conformance-tested across every implementation):
    ///
    /// * no pairs in, no results out — without touching the server, even
    ///   under a zero deadline;
    /// * every pair is attempted and answered on its own: a missing
    ///   input or an unknown model is the typed error of that pair, and
    ///   every other pair still stores its output;
    /// * `deadline` covers the whole call (`None`: the serving side's
    ///   default, if any). A zero deadline answers every pair
    ///   [`crate::RuntimeError::DeadlineExceeded`] before any server work;
    /// * a call the transport refuses as a whole (a malformed key, a
    ///   draining orchestrator, an unreachable endpoint) answers every
    ///   pair with that error;
    /// * one pair behaves exactly as one of many: same stored bits, same
    ///   serving counters, same trace shape.
    fn run_pairs(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Option<Duration>,
    ) -> Vec<Result<()>>;

    /// Run a registered model over `in_key`, storing the output under
    /// `out_key`: [`ClientApi::run_pairs`] over one pair.
    fn run_model(&self, model: &str, in_key: &str, out_key: &str) -> Result<()> {
        first_error(self.run_pairs(model, &[(in_key, out_key)], None))
    }

    /// [`ClientApi::run_model`] with an explicit per-request deadline.
    fn run_model_with_deadline(
        &self,
        model: &str,
        in_key: &str,
        out_key: &str,
        deadline: Duration,
    ) -> Result<()> {
        first_error(self.run_pairs(model, &[(in_key, out_key)], Some(deadline)))
    }

    /// Run a model over many `(in_key, out_key)` pairs in one call and
    /// return the first error *in pair order* (or `Ok(())` when every
    /// pair served). A failing pair never aborts the rest; use
    /// [`ClientApi::run_pairs`] to see every pair's own result.
    fn run_model_batch(&self, model: &str, pairs: &[(&str, &str)]) -> Result<()> {
        first_error(self.run_pairs(model, pairs, None))
    }

    /// [`ClientApi::run_model_batch`] with an explicit deadline covering
    /// the whole batch.
    fn run_model_batch_with_deadline(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Duration,
    ) -> Result<()> {
        first_error(self.run_pairs(model, pairs, Some(deadline)))
    }

    /// Get a result tensor (densified if stored sparse).
    fn unpack_tensor(&self, key: &str) -> Result<Vec<f64>>;

    /// Delete a tensor; returns whether it existed.
    fn del_tensor(&self, key: &str) -> Result<bool>;

    /// Liveness/admission probe. `Ok(())` means the serving side is
    /// reachable *and* admitting requests: the in-process client checks
    /// the orchestrator's admission flag ([`crate::RuntimeError::ShuttingDown`]
    /// once draining), networked clients round-trip a `PING` frame
    /// ([`crate::RuntimeError::Transport`] when unreachable), and a cluster
    /// client reports `Ok` while at least one endpoint is serving.
    fn ping(&self) -> Result<()>;

    /// Snapshot of cumulative serving statistics, as observed through
    /// this client. For single-server transports this is the
    /// orchestrator's own view; a cluster client returns the merged
    /// rollup across its endpoints.
    fn serving_stats(&self) -> Result<ServingStats>;

    /// Prometheus text exposition of the serving telemetry reachable
    /// through this client. Single-server transports expose the
    /// orchestrator's registry (serving and `hpcnet_net_*` series); a
    /// cluster client exposes its own `hpcnet_cluster_*` routing series.
    fn metrics_text(&self) -> Result<String>;

    /// Recent request traces retained by the flight recorder(s)
    /// reachable through this client, oldest first (DESIGN.md §16). The
    /// in-process client reads the orchestrator's recorder directly;
    /// the networked client merges its local client-side spans with the
    /// server's dump (fetched via the v2 `Traces` op); the cluster
    /// client merges its routing spans with every endpoint's dump.
    /// Conformance pins the shape across all three: a root span, the
    /// stage children, and retained error traces. The default returns
    /// no traces so minimal transports stay trivial to write.
    fn trace_dump(&self) -> Result<Vec<hpcnet_telemetry::Trace>> {
        Ok(Vec::new())
    }

    /// Served version per model, as observed through this client
    /// (DESIGN.md §17): 1 at first registration, +1 per re-registration
    /// and per accepted online hot-swap; a rollback reinstalls the
    /// previous, lower version. A cluster client reports the per-model
    /// maximum across its shards, so version skew inside a fleet is
    /// visible as a shard lagging the rollup.
    ///
    /// The default derives the map from [`ClientApi::serving_stats`]
    /// (the `hpcnet_model_version` gauges), which every transport —
    /// including a v1-protocol remote, whose legacy stats JSON simply
    /// lacks the field — degrades to an empty map rather than an error.
    /// Telemetry-off orchestrators also read as empty here; use
    /// [`crate::Orchestrator::model_versions`] server-side for the
    /// registry's own view.
    fn model_versions(&self) -> Result<std::collections::HashMap<String, u64>> {
        Ok(self.serving_stats()?.model_versions)
    }
}

/// Reduce per-pair results to the whole-call contract of the `run_model*`
/// wrappers: the first error in pair order, or `Ok(())`.
pub(crate) fn first_error(results: Vec<Result<()>>) -> Result<()> {
    results.into_iter().find(Result::is_err).unwrap_or(Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeError;
    use std::cell::RefCell;

    /// A minimal transport: the one required run method, so the provided
    /// wrappers are what gets exercised.
    struct LoopClient {
        served: RefCell<Vec<String>>,
        /// Input keys whose pair fails `MissingTensor`.
        fail_on: Vec<String>,
    }

    impl LoopClient {
        fn new(fail_on: &[&str]) -> Self {
            LoopClient {
                served: RefCell::new(Vec::new()),
                fail_on: fail_on.iter().map(|s| s.to_string()).collect(),
            }
        }
    }

    impl ClientApi for LoopClient {
        fn put_tensor(&self, _key: &str, _value: &[f64]) -> Result<()> {
            Ok(())
        }
        fn put_sparse_tensor(&self, _key: &str, _value: hpcnet_tensor::Csr) -> Result<()> {
            Ok(())
        }
        fn run_pairs(
            &self,
            _model: &str,
            pairs: &[(&str, &str)],
            deadline: Option<Duration>,
        ) -> Vec<Result<()>> {
            if deadline.is_some_and(|d| d.is_zero()) {
                return vec![Err(RuntimeError::DeadlineExceeded); pairs.len()];
            }
            pairs
                .iter()
                .map(|(in_key, _)| {
                    if self.fail_on.iter().any(|k| k == in_key) {
                        return Err(RuntimeError::MissingTensor(in_key.to_string()));
                    }
                    self.served.borrow_mut().push(in_key.to_string());
                    Ok(())
                })
                .collect()
        }
        fn unpack_tensor(&self, key: &str) -> Result<Vec<f64>> {
            Err(RuntimeError::MissingTensor(key.into()))
        }
        fn del_tensor(&self, _key: &str) -> Result<bool> {
            Ok(false)
        }
        fn ping(&self) -> Result<()> {
            Ok(())
        }
        fn serving_stats(&self) -> Result<ServingStats> {
            let mut stats = ServingStats::default();
            stats.model_versions.insert("m".to_string(), 3);
            Ok(stats)
        }
        fn metrics_text(&self) -> Result<String> {
            Ok(String::new())
        }
    }

    #[test]
    fn wrappers_report_the_first_error_in_pair_order() {
        let c = LoopClient::new(&["b", "c"]);
        let err = c
            .run_model_batch("m", &[("a", "ao"), ("b", "bo"), ("c", "co"), ("d", "do")])
            .unwrap_err();
        // First error in pair order, later failures masked...
        assert_eq!(err, RuntimeError::MissingTensor("b".into()));
        // ...but every non-failing pair was still attempted.
        assert_eq!(*c.served.borrow(), vec!["a", "d"]);
        assert_eq!(c.run_model_batch("m", &[]), Ok(()));
        // A single run is the same call over one pair.
        assert_eq!(
            c.run_model("m", "c", "co"),
            Err(RuntimeError::MissingTensor("c".into()))
        );
        assert_eq!(c.run_model("m", "e", "eo"), Ok(()));
        assert_eq!(*c.served.borrow(), vec!["a", "d", "e"]);
    }

    #[test]
    fn wrappers_hand_the_deadline_to_the_primitive() {
        let c = LoopClient::new(&[]);
        assert_eq!(
            c.run_model_with_deadline("m", "a", "ao", Duration::ZERO),
            Err(RuntimeError::DeadlineExceeded)
        );
        assert_eq!(
            c.run_model_batch_with_deadline("m", &[("a", "ao")], Duration::ZERO),
            Err(RuntimeError::DeadlineExceeded)
        );
        // Empty batches succeed even with an expired budget.
        assert_eq!(
            c.run_model_batch_with_deadline("m", &[], Duration::ZERO),
            Ok(())
        );
        // A generous budget serves everything.
        c.run_model_batch_with_deadline("m", &[("a", "ao"), ("d", "do")], Duration::from_secs(5))
            .unwrap();
        assert_eq!(*c.served.borrow(), vec!["a", "d"]);
    }

    #[test]
    fn default_model_versions_derives_from_serving_stats() {
        let c = LoopClient::new(&[]);
        let versions = c.model_versions().unwrap();
        assert_eq!(versions.get("m"), Some(&3));
    }

    #[test]
    fn the_trait_is_object_safe() {
        let c: Box<dyn ClientApi> = Box::new(LoopClient::new(&[]));
        assert_eq!(c.run_pairs("m", &[("a", "ao")], None), vec![Ok(())]);
    }
}
