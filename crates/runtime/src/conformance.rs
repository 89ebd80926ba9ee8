//! The shared [`ClientApi`] conformance suite.
//!
//! Every transport that implements [`ClientApi`] — the in-process
//! [`crate::Client`], `hpcnet-net`'s `RemoteClient`, `hpcnet-cluster`'s
//! `ClusterClient` — must behave identically at the call site. This
//! module pins that contract executably: each crate's tests stand up
//! their transport and hand it to [`Conformance::check`], so a behavioral
//! divergence (a batch that aborts on first error, a zero deadline that
//! races instead of failing typed, an output that is not bit-identical)
//! fails the same named assertion everywhere.
//!
//! What the core suite pins (see the [`ClientApi`] docs for the
//! contract's rationale):
//!
//! * single-request `put_tensor` → `run_model` → `unpack_tensor`
//!   round-trips bit-identically to a caller-supplied reference function;
//! * `run_model_batch` serves every pair bit-identically to the
//!   single-request path;
//! * the run primitive, [`ClientApi::run_pairs`], answers one result per
//!   pair in pair order: no pairs in, no results out, even with an
//!   expired deadline; a missing input fails its own pair only and every
//!   healthy pair around it stores its output; an unknown model is the
//!   typed [`RuntimeError::MissingModel`] of each pair;
//! * a zero deadline answers every pair typed
//!   ([`RuntimeError::DeadlineExceeded`]) before any server work — the
//!   serving side's request count does not move;
//! * a single run *is* a batch of one: same stored bits, same
//!   `requests`/`batches` deltas, same trace shape;
//! * `del_tensor` reports prior existence and deletion is visible;
//! * `ping` succeeds, `serving_stats` counts the suite's requests, and
//!   `metrics_text` exposes `hpcnet_`-prefixed series;
//! * `trace_dump` exposes the same per-request view everywhere
//!   (DESIGN.md §16): a failed pair's trace — run alone, as a batch of
//!   one, or inside a batch of several — is always retained by the
//!   flight recorder under one trace id, rooted in a span of the layer
//!   that originated the call ([`Conformance::root_service`]), and
//!   carries the serving stage children
//!   (`queue_wait`/`fetch`/`encode`/`infer`).
//!
//! [`check_overload`] is separate because it needs a deliberately
//! saturated server (`workers(1)`, queue depth 1, a stalling model):
//! it pins that admission rejection arrives as the *typed*
//! [`RuntimeError::Overloaded`] with the server's queue depth, not as a
//! transport failure or a hang.

// Test-support module: the suite's whole job is to panic on contract
// violations, so the expect/panic restrictions for serving code do not
// apply here.
#![allow(clippy::expect_used, clippy::panic)]

use std::time::Duration;

use hpcnet_telemetry::trace::tags;
use hpcnet_telemetry::{SpanStatus, Stage};

use crate::{ClientApi, Result, RuntimeError};

/// Unwrap a suite step, panicking with the step's name on failure so the
/// failing transport and operation are visible in the test output.
/// (Test-support code: panics here are assertion failures, not serving
/// errors.)
fn pass<T>(what: &str, r: Result<T>) -> T {
    match r {
        Ok(v) => v,
        // hpcnet-lint: allow(no-panic) -- conformance failures are test assertions
        Err(e) => panic!("conformance: {what}: {e}"),
    }
}

/// A conformance run: the model to drive and the ground truth to compare
/// against.
///
/// The reference function must be the same deterministic pipeline the
/// serving side executes (scaler → autoencoder → surrogate →
/// output-scaler) so outputs can be compared **bit-exactly** — every
/// transport serves the identical f64s.
pub struct Conformance<'a> {
    model: &'a str,
    input_dim: usize,
    reference: &'a dyn Fn(&[f64]) -> Vec<f64>,
    prefix: String,
    root_service: &'a str,
}

impl<'a> Conformance<'a> {
    /// Configure a run for `model`, feeding `input_dim`-wide inputs and
    /// checking outputs against `reference`.
    pub fn new(
        model: &'a str,
        input_dim: usize,
        reference: &'a dyn Fn(&[f64]) -> Vec<f64>,
    ) -> Self {
        Conformance {
            model,
            input_dim,
            reference,
            prefix: "conf".to_string(),
            root_service: "orchestrator",
        }
    }

    /// The `service` of the span that roots a run's trace: the layer that
    /// originates the call (default `orchestrator`, the in-process
    /// client; a networked client names itself).
    pub fn root_service(mut self, service: &'a str) -> Self {
        self.root_service = service;
        self
    }

    /// Prefix for every tensor key the suite creates (default `conf`).
    /// Give each transport under test in one process a distinct prefix.
    pub fn key_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }

    /// A deterministic input: `input_dim` values derived from `sample`.
    fn input(&self, sample: u64) -> Vec<f64> {
        (0..self.input_dim)
            .map(|i| ((sample as f64) * 0.37 + (i as f64) * 0.11).sin())
            .collect()
    }

    fn key(&self, name: &str) -> String {
        format!("{}/{name}", self.prefix)
    }

    /// Run the full core suite against `client`. Panics (with the failing
    /// step named) on any contract violation.
    pub fn check(&self, client: &dyn ClientApi) {
        self.check_liveness(client);
        self.check_single_round_trip(client);
        self.check_batch_bit_exact(client);
        self.check_batch_error_semantics(client);
        self.check_deadline_semantics(client);
        self.check_one_pair_is_a_batch_of_one(client);
        self.check_observability(client);
        self.check_model_versions(client);
        self.check_tracing(client);
    }

    fn check_liveness(&self, client: &dyn ClientApi) {
        pass(
            "ping must succeed against a serving endpoint",
            client.ping(),
        );
    }

    fn check_single_round_trip(&self, client: &dyn ClientApi) {
        let x = self.input(1);
        let in_key = self.key("single-in");
        let out_key = self.key("single-out");
        pass("put_tensor", client.put_tensor(&in_key, &x));
        pass("run_model", client.run_model(self.model, &in_key, &out_key));
        let y = pass(
            "unpack_tensor of a served output",
            client.unpack_tensor(&out_key),
        );
        assert_bits_eq(&y, &(self.reference)(&x), "single-request output");

        // Unknown models fail typed, regardless of transport.
        let err = client
            .run_model("no-such-model", &in_key, &self.key("ghost-out"))
            .expect_err("conformance: unknown model must fail");
        assert!(
            matches!(err, RuntimeError::MissingModel(_)),
            "conformance: unknown model must be typed MissingModel, got {err:?}"
        );

        // Deletion reports prior existence and is visible.
        assert!(
            pass("del_tensor of an existing key", client.del_tensor(&out_key)),
            "conformance: first delete must report the key existed"
        );
        assert!(
            !pass("del_tensor of a deleted key", client.del_tensor(&out_key)),
            "conformance: second delete must report the key gone"
        );
        let err = client
            .unpack_tensor(&out_key)
            .expect_err("conformance: deleted key must not unpack");
        assert!(
            matches!(err, RuntimeError::MissingTensor(_)),
            "conformance: deleted key must be typed MissingTensor, got {err:?}"
        );
    }

    fn check_batch_bit_exact(&self, client: &dyn ClientApi) {
        const BATCH: u64 = 5;
        let inputs: Vec<Vec<f64>> = (0..BATCH).map(|s| self.input(100 + s)).collect();
        let keys: Vec<(String, String)> = (0..BATCH)
            .map(|s| {
                (
                    self.key(&format!("b{s}-in")),
                    self.key(&format!("b{s}-out")),
                )
            })
            .collect();
        for (x, (in_key, _)) in inputs.iter().zip(&keys) {
            pass("batch put_tensor", client.put_tensor(in_key, x));
        }
        let pairs: Vec<(&str, &str)> = keys.iter().map(|(i, o)| (i.as_str(), o.as_str())).collect();
        pass(
            "run_model_batch",
            client.run_model_batch(self.model, &pairs),
        );
        for (s, (x, (_, out_key))) in inputs.iter().zip(&keys).enumerate() {
            let y = pass(
                "unpack_tensor of a batch output",
                client.unpack_tensor(out_key),
            );
            assert_bits_eq(&y, &(self.reference)(x), &format!("batch pair {s} output"));
        }

        // No pairs in, no results out — even with an expired budget.
        for deadline in [None, Some(Duration::ZERO)] {
            assert_eq!(
                client.run_pairs(self.model, &[], deadline),
                Vec::new(),
                "conformance: an empty run answers nothing (deadline {deadline:?})"
            );
        }
    }

    fn check_batch_error_semantics(&self, client: &dyn ClientApi) {
        let ok1_in = self.key("err-ok1-in");
        let ok2_in = self.key("err-ok2-in");
        let missing_in = self.key("err-missing-in");
        pass("put_tensor", client.put_tensor(&ok1_in, &self.input(200)));
        pass("put_tensor", client.put_tensor(&ok2_in, &self.input(201)));
        let ok1_out = self.key("err-ok1-out");
        let ok2_out = self.key("err-ok2-out");
        let pairs: Vec<(&str, &str)> = vec![
            (ok1_in.as_str(), ok1_out.as_str()),
            (missing_in.as_str(), "err-missing-out"),
            (ok2_in.as_str(), ok2_out.as_str()),
        ];
        let results = client.run_pairs(self.model, &pairs, None);
        assert!(
            matches!(
                &results[..],
                [Ok(()), Err(RuntimeError::MissingTensor(k)), Ok(())] if k.contains("err-missing-in")
            ),
            "conformance: one result per pair in pair order, the missing input failing \
             its own pair only, got {results:?}"
        );
        // ...but the healthy pairs around it were still served.
        for (x_sample, out_key) in [(200, &ok1_out), (201, &ok2_out)] {
            let y = pass(
                "unpack_tensor of a pair served despite a failing sibling",
                client.unpack_tensor(out_key),
            );
            assert_bits_eq(
                &y,
                &(self.reference)(&self.input(x_sample)),
                "served-despite-error output",
            );
        }

        // An unknown model is each pair's own typed answer.
        let healthy = [pairs[0], pairs[2]];
        let results = client.run_pairs("no-such-model", &healthy, None);
        assert!(
            results.len() == healthy.len()
                && results
                    .iter()
                    .all(|r| matches!(r, Err(RuntimeError::MissingModel(_)))),
            "conformance: unknown model must be typed MissingModel per pair, got {results:?}"
        );
    }

    fn check_deadline_semantics(&self, client: &dyn ClientApi) {
        let in_key = self.key("dl-in");
        pass("put_tensor", client.put_tensor(&in_key, &self.input(300)));

        // A zero budget fails typed before any server work, single and
        // batched alike — on every transport.
        let err = client
            .run_model_with_deadline(self.model, &in_key, &self.key("dl-out"), Duration::ZERO)
            .expect_err("conformance: zero deadline must fail");
        assert_eq!(
            err,
            RuntimeError::DeadlineExceeded,
            "conformance: zero single-request deadline must be typed DeadlineExceeded"
        );
        let pairs: Vec<(&str, &str)> = vec![
            (in_key.as_str(), "dl-batch-out0"),
            (in_key.as_str(), "dl-batch-out1"),
        ];
        let before = pass("serving_stats", client.serving_stats()).requests;
        assert_eq!(
            client.run_pairs(self.model, &pairs, Some(Duration::ZERO)),
            vec![Err(RuntimeError::DeadlineExceeded); pairs.len()],
            "conformance: a zero deadline answers every pair typed DeadlineExceeded"
        );
        assert_eq!(
            pass("serving_stats", client.serving_stats()).requests,
            before,
            "conformance: a zero deadline must not reach the serving side"
        );

        // A generous budget serves bit-identically to the undeadlined path.
        let out_key = self.key("dl-served-out");
        pass(
            "run_model_with_deadline under a generous budget",
            client.run_model_with_deadline(self.model, &in_key, &out_key, Duration::from_secs(30)),
        );
        let y = pass(
            "unpack_tensor of a deadlined output",
            client.unpack_tensor(&out_key),
        );
        assert_bits_eq(&y, &(self.reference)(&self.input(300)), "deadlined output");
    }

    /// A single run is the primitive over one pair, not a path of its
    /// own: the same input stores the same bits and moves the serving
    /// side's `requests` and `batches` by the same amounts either way.
    fn check_one_pair_is_a_batch_of_one(&self, client: &dyn ClientApi) {
        let in_key = self.key("one-in");
        let (single_out, batch_out) = (self.key("one-single-out"), self.key("one-batch-out"));
        pass("put_tensor", client.put_tensor(&in_key, &self.input(400)));
        let counts = || {
            let stats = pass("serving_stats", client.serving_stats());
            (stats.requests, stats.batches)
        };
        let start = counts();
        pass(
            "run_model",
            client.run_model(self.model, &in_key, &single_out),
        );
        let after_single = counts();
        assert_eq!(
            client.run_pairs(self.model, &[(&in_key, &batch_out)], None),
            vec![Ok(())],
            "conformance: a batch of one answers its one pair"
        );
        let after_batch = counts();
        assert_eq!(
            (after_single.0 - start.0, after_single.1 - start.1),
            (
                after_batch.0 - after_single.0,
                after_batch.1 - after_single.1
            ),
            "conformance: a single run and a batch of one must move (requests, batches) alike"
        );
        assert_bits_eq(
            &pass("unpack_tensor", client.unpack_tensor(&batch_out)),
            &pass("unpack_tensor", client.unpack_tensor(&single_out)),
            "batch-of-one output against the single run's",
        );
    }

    fn check_observability(&self, client: &dyn ClientApi) {
        let stats = pass("serving_stats", client.serving_stats());
        assert!(
            stats.requests > 0,
            "conformance: serving_stats must count the suite's requests, saw {}",
            stats.requests
        );
        let text = pass("metrics_text", client.metrics_text());
        assert!(
            text.contains("hpcnet_"),
            "conformance: metrics_text must expose hpcnet_-prefixed series, got:\n{text}"
        );
    }

    /// `model_versions` is pinned identical across transports (DESIGN.md
    /// §17): the model under test is listed with a version of at least 1,
    /// and the map agrees with the gauge-derived
    /// [`ServingStats::model_versions`](crate::ServingStats) view —
    /// whether the transport uses the default derivation or overrides it.
    /// (A v1-protocol remote degrades to an empty map; that path is
    /// pinned by the protocol-downgrade tests, not the core suite, which
    /// always runs against a current server.)
    fn check_model_versions(&self, client: &dyn ClientApi) {
        let versions = pass("model_versions", client.model_versions());
        let v = versions.get(self.model).copied().unwrap_or_else(|| {
            // hpcnet-lint: allow(no-panic) -- conformance failures are test assertions
            panic!(
                "conformance: model_versions must list `{}`, got {versions:?}",
                self.model
            )
        });
        assert!(
            v >= 1,
            "conformance: served versions start at 1, got {v} for `{}`",
            self.model
        );
        let stats = pass("serving_stats", client.serving_stats());
        assert_eq!(
            stats.model_versions.get(self.model).copied(),
            Some(v),
            "conformance: model_versions and serving_stats.model_versions must agree"
        );
    }

    /// `trace_dump` is pinned identical across transports (DESIGN.md
    /// §16): a failed pair is *always* retained by tail sampling — run
    /// alone, as a batch of one, or inside a batch of several — under one
    /// trace whose root span belongs to the layer that originated the
    /// call, with the serving stages as child spans. Driven by
    /// deliberately missing input tensors so the check does not depend on
    /// the recorder's one-in-N sampling of healthy requests.
    fn check_tracing(&self, client: &dyn ClientApi) {
        let ok_in = self.key("trace-ok-in");
        pass("put_tensor", client.put_tensor(&ok_in, &self.input(500)));
        let ok_out = self.key("trace-ok-out");
        let out = self.key("trace-missing-out");
        // Never stored, one per call shape.
        let missing = ["single", "one", "several"].map(|n| self.key(&format!("trace-missing-{n}")));

        let err = client
            .run_model(self.model, &missing[0], &out)
            .expect_err("conformance: a missing input must fail");
        assert!(
            matches!(err, RuntimeError::MissingTensor(_)),
            "conformance: missing input must be typed MissingTensor, got {err:?}"
        );
        let results = client.run_pairs(self.model, &[(&missing[1], &out)], None);
        assert!(
            matches!(results[..], [Err(RuntimeError::MissingTensor(_))]),
            "conformance: missing input must be typed MissingTensor, got {results:?}"
        );
        let results = client.run_pairs(
            self.model,
            &[(&ok_in, &ok_out), (&missing[2], &out), (&ok_in, &ok_out)],
            None,
        );
        assert!(
            matches!(
                results[..],
                [Ok(()), Err(RuntimeError::MissingTensor(_)), Ok(())]
            ),
            "conformance: missing input must fail its own pair only, got {results:?}"
        );

        let traces = pass("trace_dump", client.trace_dump());
        for needle in &missing {
            self.assert_failed_trace(&traces, needle);
        }
    }

    /// The retained trace of the request that failed on `needle`: tagged
    /// as an error, rooted where the call originated, stage children
    /// present.
    fn assert_failed_trace(&self, traces: &[hpcnet_telemetry::Trace], needle: &str) {
        let t = traces
            .iter()
            .rev()
            .find(|t| {
                t.spans
                    .iter()
                    .any(|s| matches!(&s.status, SpanStatus::Error(m) if m.contains(needle)))
            })
            .unwrap_or_else(|| {
                // hpcnet-lint: allow(no-panic) -- conformance failures are test assertions
                panic!("conformance: the trace of the request that failed on `{needle}` must be retained with its error")
            });
        assert!(
            t.has_tag(tags::ERROR),
            "conformance: the failed request's trace must carry the error retention tag, got {:?}",
            t.tags
        );
        let roots: Vec<_> = t.spans.iter().filter(|s| s.parent.is_none()).collect();
        assert!(
            matches!(roots[..], [root] if root.service == self.root_service),
            "conformance: `{needle}`: a retained trace has exactly one root span, recorded by \
             `{}`; roots: {:?}",
            self.root_service,
            roots
                .iter()
                .map(|s| (s.service.as_str(), s.name.as_str()))
                .collect::<Vec<_>>()
        );
        for stage in [Stage::QueueWait, Stage::Fetch, Stage::Encode, Stage::Infer] {
            assert!(
                t.span_named(stage).is_some(),
                "conformance: `{needle}`: stage child span `{}` missing from the trace; spans: {:?}",
                stage.as_str(),
                t.spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
            );
        }
    }
}

/// Assert two served tensors are bit-identical (the runtime's contract:
/// every transport returns the exact f64s the model produced).
fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "conformance: {what}: length {} != {}",
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "conformance: {what}: element {i} diverged ({g} != {w})"
        );
    }
}

/// Pin typed admission rejection against a deliberately saturated server.
///
/// `connect` must yield clients of an orchestrator built with
/// **`workers` 1 and `queue_depth` 1**, serving `model` through a guard that
/// stalls each request for a few hundred milliseconds (see the loopback
/// tests for the canonical setup). The helper occupies the slot, fills
/// the queue, then asserts the next request is rejected with the typed
/// [`RuntimeError::Overloaded`] carrying the server's depth.
pub fn check_overload<C>(connect: impl Fn() -> C, model: &str, input_dim: usize)
where
    C: ClientApi + Send + 'static,
{
    let input: Vec<f64> = (0..input_dim).map(|i| (i as f64 * 0.13).cos()).collect();
    let occupant = {
        let client = connect();
        let model = model.to_string();
        let input = input.clone();
        std::thread::spawn(move || {
            pass(
                "overload: put",
                client.put_tensor("ovl/occupant-in", &input),
            );
            pass(
                "overload: occupant run",
                client.run_model(&model, "ovl/occupant-in", "ovl/occupant-out"),
            );
        })
    };
    // Let the occupant take the slot, then saturate the queue.
    std::thread::sleep(Duration::from_millis(100));
    let filler = {
        let client = connect();
        let model = model.to_string();
        let input = input.clone();
        std::thread::spawn(move || {
            pass("overload: put", client.put_tensor("ovl/filler-in", &input));
            // Queued behind the occupant; completes after it.
            pass(
                "overload: filler run",
                client.run_model(&model, "ovl/filler-in", "ovl/filler-out"),
            );
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    let client = connect();
    pass("overload: put", client.put_tensor("ovl/reject-in", &input));
    let err = client
        .run_model(model, "ovl/reject-in", "ovl/reject-out")
        .expect_err("conformance: a saturated queue must reject");
    assert_eq!(
        err,
        RuntimeError::Overloaded { queue_depth: 1 },
        "conformance: rejection must be typed with the server's queue depth"
    );

    assert!(
        occupant.join().is_ok(),
        "conformance: overload occupant thread panicked"
    );
    assert!(
        filler.join().is_ok(),
        "conformance: overload filler thread panicked"
    );
}
