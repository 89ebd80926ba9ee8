//! The application-side request client (paper Listing 1).
//!
//! ```text
//! autoHPCnet::Client client(false);
//! client.put_tensor(in_key, ...);
//! client.run_model("AI-CFD-net", {in_key}, {out_key});
//! client.unpack_tensor(out_key, ...);
//! ```
//!
//! The calls themselves are [`ClientApi`]'s; this type is the in-process
//! implementation and the reference the other transports are held to.
//! Every call is fallible: keys are validated into [`TensorKey`]s at the
//! boundary, a full pending queue rejects with
//! [`RuntimeError::Overloaded`], deadlines are enforced when the request
//! is prepared, while it is pending and again before it executes, and a
//! draining orchestrator answers [`RuntimeError::ShuttingDown`].
//!
//! A run is two steps whatever its size: `prepare` validates and stamps
//! the request, `submit` gets it executed — always by a calling thread
//! (DESIGN.md §9). On an idle orchestrator — nothing pending, an
//! execution slot free — that is this thread, at once. Otherwise the
//! request joins the pending queue and this thread waits: for a slot,
//! with which it serves whatever is pending as one coalesced round, or
//! for another caller's round to answer it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use hpcnet_telemetry::{Trace, TraceContext};

use crate::api::first_error;
use crate::server::{serve_round, Orchestrator, PendingRequest, ServerCtx};
use crate::store::TensorKey;
use crate::{ClientApi, Result, RuntimeError};

/// A lightweight client compiled "into the application": requests execute
/// on the threads that call it, at once while the orchestrator is idle
/// and coalesced through a bounded pending queue under load, exactly
/// mirroring the paper's request/response flow.
///
/// # Examples
///
/// ```
/// use hpcnet_runtime::{ClientApi, ModelBundle, Orchestrator};
/// use hpcnet_nn::{Mlp, Topology};
/// let orc = Orchestrator::builder().build();
/// let mut rng = hpcnet_tensor::rng::seeded(1, "doc");
/// let mlp = Mlp::new(&Topology::mlp(vec![2, 4, 1]), &mut rng).unwrap();
/// orc.register_model("net", ModelBundle {
///     surrogate: mlp.into(), autoencoder: None, scaler: None, output_scaler: None,
/// });
/// let client = orc.client();
/// client.put_tensor("in", &[0.5, -0.5]).unwrap();
/// client.run_model("net", "in", "out").unwrap();
/// assert_eq!(client.unpack_tensor("out").unwrap().len(), 1);
/// ```
pub struct Client {
    ctx: ServerCtx,
}

/// One entry of a [`Client::run_round`]: a one-pair run that keeps its
/// own deadline and trace context, borrowed from the frame it came in.
#[derive(Debug, Clone, Copy)]
pub struct RunRequest<'a> {
    /// Registered model name.
    pub model: &'a str,
    /// Key of the input tensor.
    pub in_key: &'a str,
    /// Key the output tensor is stored under.
    pub out_key: &'a str,
    /// Per-request deadline; `None` uses the orchestrator's default.
    pub deadline: Option<Duration>,
    /// Upstream trace context (DESIGN.md §16): when present, the
    /// server-side request span joins the caller's trace as a child of
    /// its `parent_span` instead of rooting a fresh one.
    pub trace: Option<TraceContext>,
}

/// One of the caller's requests that is in the pending queue or in a
/// round another caller executes.
struct Admitted {
    /// Position among the caller's requests.
    index: usize,
    ticket: u64,
    /// When to stop waiting and withdraw it; `None` once that is moot.
    deadline: Option<Instant>,
}

impl Client {
    pub(crate) fn new(ctx: ServerCtx) -> Self {
        Client { ctx }
    }

    /// Connect a client to a running orchestrator (equivalent to
    /// [`Orchestrator::client`]).
    pub fn connect(orchestrator: &Orchestrator) -> Self {
        orchestrator.client()
    }

    /// [`ClientApi::put_tensor`] for a caller that already owns the row
    /// (the networked front end, which decoded it off the wire): the
    /// vector moves into the store instead of being copied.
    ///
    /// Fails with [`RuntimeError::InvalidKey`] on a malformed key and
    /// [`RuntimeError::ShuttingDown`] once the orchestrator is draining.
    pub fn put_tensor_owned(&self, key: &str, value: Vec<f64>) -> Result<()> {
        let key = TensorKey::new(key)?;
        self.ensure_admitting()?;
        self.ctx.store.put_dense(key.as_str(), value);
        Ok(())
    }

    /// Run several independent `run_model` requests as one submission and
    /// return one result per request, in request order. Each keeps its
    /// own deadline, trace context, guard outcome and typed error.
    ///
    /// On an idle orchestrator the calling thread executes them as one
    /// round and one batched forward pass per model. Under backlog all of
    /// them are queued before any answer is awaited, so the round that
    /// takes them coalesces them the same way. A full pending queue holds
    /// the rest back until the caller's own earlier requests have been
    /// answered — a request is not failed on a queue the caller filled
    /// itself — and is the counted [`RuntimeError::Overloaded`] only when
    /// nothing of the caller's is in flight. The networked front end
    /// serves every `RUN_MODEL` frame through this call, alone or in a
    /// pipelined window: the trait's [`ClientApi::run_pairs`] cannot say
    /// a deadline and a trace context per pair.
    pub fn run_round(&self, requests: &[RunRequest<'_>]) -> Vec<Result<()>> {
        let mut results: Vec<Option<Result<()>>> = Vec::with_capacity(requests.len());
        let mut round = Vec::with_capacity(requests.len());
        for r in requests {
            match self.prepare(r.model, &[(r.in_key, r.out_key)], r.deadline, r.trace) {
                Ok(request) => {
                    round.push(request);
                    results.push(None);
                }
                Err(e) => results.push(Some(Err(e))),
            }
        }
        // `submit` answers the prepared requests in order; they fill the
        // gaps the early answers left.
        let mut served = self.submit(round).into_iter();
        results
            .into_iter()
            .map(|early| early.unwrap_or_else(|| first_error(served.next().unwrap_or_default())))
            .collect()
    }

    /// Validate one request at the boundary: keys, admission flag,
    /// deadline stamp — in that order, before it costs anything.
    fn prepare(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Option<Duration>,
        trace: Option<TraceContext>,
    ) -> Result<PendingRequest> {
        let pairs: Vec<(TensorKey, TensorKey)> = pairs
            .iter()
            .map(|(i, o)| Ok((TensorKey::new(*i)?, TensorKey::new(*o)?)))
            .collect::<Result<_>>()?;
        self.ensure_admitting()?;
        let deadline = self.compute_deadline(deadline)?;
        Ok(PendingRequest::new(model, pairs, deadline, trace))
    }

    /// Get prepared requests executed and return each one's per-pair
    /// results, in order. Idle orchestrator (nothing pending, an execution
    /// slot free): this thread runs them as one round. Otherwise they join
    /// the pending queue, and until all are answered this thread leads a
    /// round of whatever is pending each time it finds a slot free, and
    /// waits — no longer than its requests' deadlines — while there is
    /// none. The lock is given up around every round.
    fn submit(&self, mut round: Vec<PendingRequest>) -> Vec<Vec<Result<()>>> {
        let shared = &self.ctx.shared;
        if round.is_empty() {
            return Vec::new();
        }
        let mut state = shared.lock();
        if state.queued() == 0 && !shared.is_shutting_down() {
            if let Some(mut slot) = shared.take_slot(&mut state) {
                drop(state);
                let now = Instant::now();
                for p in &mut round {
                    p.enqueued = now;
                }
                return serve_round(&self.ctx, &mut slot.scratch, round, now);
            }
        }
        let mut results: Vec<Option<Vec<Result<()>>>> = round.iter().map(|_| None).collect();
        let mut held: VecDeque<(usize, PendingRequest)> = round.into_iter().enumerate().collect();
        let mut admitted: Vec<Admitted> = Vec::new();
        loop {
            admitted.retain(|a| {
                results[a.index] = state.collect(a.ticket);
                results[a.index].is_none()
            });
            // The drain raises its flag before it takes the lock, so a
            // request admitted here is one the drain waits for.
            while let Some((index, request)) = held.pop_front() {
                if shared.is_shutting_down() {
                    results[index] = Some(refused(&request, RuntimeError::ShuttingDown));
                    continue;
                }
                if state.queued() < shared.queue_depth {
                    let deadline = request.deadline();
                    admitted.push(Admitted {
                        index,
                        ticket: state.admit(request),
                        deadline,
                    });
                } else if admitted.is_empty() {
                    results[index] = Some(refused(&request, self.overloaded(request.model())));
                } else {
                    // Our own earlier requests hold queue places: try
                    // again once one of them has been answered.
                    held.push_front((index, request));
                    break;
                }
            }
            if admitted.is_empty() {
                break;
            }
            let slot = (state.queued() > 0)
                .then(|| shared.take_slot(&mut state))
                .flatten();
            if let Some(mut slot) = slot {
                let (tickets, requests) = state.take_round();
                drop(state);
                let answers = serve_round(&self.ctx, &mut slot.scratch, requests, Instant::now());
                slot.answers = tickets.into_iter().zip(answers).collect();
                drop(slot);
                state = shared.lock();
                continue;
            }
            let wake_at = admitted.iter().filter_map(|a| a.deadline).min();
            state = shared.wait(state, wake_at);
            // Overdue and still pending: withdrawn and answered here, not
            // whenever a slot frees. Overdue and executing: its round
            // answers it.
            let now = Instant::now();
            let mut expired = (Vec::new(), Vec::new());
            for a in &mut admitted {
                if a.deadline.is_some_and(|d| d <= now) {
                    a.deadline = None;
                    if let Some(request) = shared.withdraw(&mut state, a.ticket) {
                        expired.0.push(a.index);
                        expired.1.push(request);
                    }
                }
            }
            if !expired.0.is_empty() {
                drop(state);
                let answers = serve_round(&self.ctx, &mut Vec::new(), expired.1, now);
                for (index, answer) in expired.0.into_iter().zip(answers) {
                    results[index] = Some(answer);
                }
                admitted.retain(|a| results[a.index].is_none());
                state = shared.lock();
            }
        }
        results.into_iter().map(Option::unwrap_or_default).collect()
    }

    fn ensure_admitting(&self) -> Result<()> {
        if self.ctx.shared.is_shutting_down() {
            return Err(RuntimeError::ShuttingDown);
        }
        Ok(())
    }

    /// Deadline stamping at `prepare`: a zero (or already-elapsed)
    /// deadline fails immediately with `DeadlineExceeded` — the request
    /// never occupies queue capacity.
    fn compute_deadline(&self, explicit: Option<Duration>) -> Result<Option<Instant>> {
        match explicit.or(self.ctx.shared.default_deadline) {
            None => Ok(None),
            Some(d) if d.is_zero() => Err(RuntimeError::DeadlineExceeded),
            // An unrepresentable (absurdly far) deadline means "no limit".
            Some(d) => Ok(Instant::now().checked_add(d)),
        }
    }

    /// A full queue is an `Overloaded` rejection; the rejection is
    /// counted in the orchestrator's telemetry (and an
    /// `overload_rejected` event lands in the anomaly ring).
    fn overloaded(&self, model: &str) -> RuntimeError {
        self.ctx
            .metrics
            .record_overload(model, self.ctx.shared.queue_depth);
        RuntimeError::Overloaded {
            queue_depth: self.ctx.shared.queue_depth,
        }
    }
}

/// The per-pair results of a request that was refused as a whole.
fn refused(request: &PendingRequest, error: RuntimeError) -> Vec<Result<()>> {
    vec![Err(error); request.pair_count()]
}

/// The in-process client is the reference implementation of the shared
/// client surface; `hpcnet-net`'s `RemoteClient` implements the same
/// trait over TCP and `hpcnet-cluster`'s `ClusterClient` across a
/// sharded fleet. The observability calls are infallible in-process, so
/// they wrap their snapshots in `Ok` to match the trait's
/// transport-fallible signatures.
impl ClientApi for Client {
    fn put_tensor(&self, key: &str, value: &[f64]) -> Result<()> {
        self.put_tensor_owned(key, value.to_vec())
    }

    fn put_sparse_tensor(&self, key: &str, value: hpcnet_tensor::Csr) -> Result<()> {
        let key = TensorKey::new(key)?;
        self.ensure_admitting()?;
        self.ctx.store.put_sparse(key.as_str(), value);
        Ok(())
    }

    /// The pairs travel as one request: one entry of one round and one
    /// batched forward pass, so output rows are bit-identical whether
    /// they were run alone or together.
    fn run_pairs(
        &self,
        model: &str,
        pairs: &[(&str, &str)],
        deadline: Option<Duration>,
    ) -> Vec<Result<()>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        match self.prepare(model, pairs, deadline, None) {
            Ok(request) => self.submit(vec![request]).pop().unwrap_or_default(),
            Err(e) => vec![Err(e); pairs.len()],
        }
    }

    fn unpack_tensor(&self, key: &str) -> Result<Vec<f64>> {
        self.ctx.store.get_dense(key)
    }

    /// Long-running applications should delete consumed outputs so an
    /// uncapped store does not grow without bound.
    fn del_tensor(&self, key: &str) -> Result<bool> {
        let key = TensorKey::new(key)?;
        Ok(self.ctx.store.delete(key.as_str()))
    }

    fn ping(&self) -> Result<()> {
        self.ensure_admitting()
    }

    fn serving_stats(&self) -> Result<crate::ServingStats> {
        Ok(self.ctx.metrics.stats())
    }

    fn metrics_text(&self) -> Result<String> {
        Ok(self.ctx.metrics.registry().prometheus_text())
    }

    /// Empty when telemetry is disabled.
    fn trace_dump(&self) -> Result<Vec<Trace>> {
        Ok(self.ctx.metrics.recorder().snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_nn::{Mlp, Topology};
    use hpcnet_tensor::rng::seeded;

    fn serve_identity_like() -> Orchestrator {
        let orc = Orchestrator::builder().build();
        let mlp = Mlp::new(&Topology::mlp(vec![2, 3, 1]), &mut seeded(3, "cl")).unwrap();
        orc.register_model(
            "net",
            crate::server::ModelBundle {
                surrogate: mlp.into(),
                autoencoder: None,
                scaler: None,
                output_scaler: None,
            },
        );
        orc
    }

    #[test]
    fn listing1_flow_works_end_to_end() {
        let orc = serve_identity_like();
        let client = orc.client();
        client.put_tensor("in", &[0.4, -0.4]).unwrap();
        client.run_model("net", "in", "out").unwrap();
        let out = client.unpack_tensor("out").unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn invalid_keys_are_rejected_before_any_work() {
        let orc = serve_identity_like();
        let client = orc.client();
        assert!(matches!(
            client.put_tensor("", &[1.0]),
            Err(RuntimeError::InvalidKey(_))
        ));
        assert!(matches!(
            client.run_model("net", "", "out"),
            Err(RuntimeError::InvalidKey(_))
        ));
        assert!(matches!(
            client.run_model_batch("net", &[("ok", "")]),
            Err(RuntimeError::InvalidKey(_))
        ));
        assert_eq!(orc.serving_stats().requests, 0);
    }

    #[test]
    fn multiple_clients_share_one_server() {
        let orc = serve_identity_like();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let client = Client::connect(&orc);
                std::thread::spawn(move || {
                    let in_key = format!("in{t}");
                    let out_key = format!("out{t}");
                    client.put_tensor(&in_key, &[t as f64, -1.0]).unwrap();
                    client.run_model("net", &in_key, &out_key).unwrap();
                    client.unpack_tensor(&out_key).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().len(), 1);
        }
    }

    #[test]
    fn run_model_batch_serves_every_pair_bitwise() {
        let orc = serve_identity_like();
        let mlp = Mlp::new(&Topology::mlp(vec![2, 3, 1]), &mut seeded(3, "cl")).unwrap();
        let client = orc.client();
        let inputs: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.3 * i as f64, -0.1 * i as f64])
            .collect();
        for (i, x) in inputs.iter().enumerate() {
            client.put_tensor(&format!("bin{i}"), x).unwrap();
        }
        let keys: Vec<(String, String)> = (0..6)
            .map(|i| (format!("bin{i}"), format!("bout{i}")))
            .collect();
        let pairs: Vec<(&str, &str)> = keys.iter().map(|(i, o)| (i.as_str(), o.as_str())).collect();
        client.run_model_batch("net", &pairs).unwrap();
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(
                client.unpack_tensor(&format!("bout{i}")).unwrap(),
                mlp.predict(x).unwrap(),
                "pair {i} diverged from the single-sample path"
            );
        }
        assert_eq!(client.run_model_batch("net", &[]), Ok(()));
    }

    #[test]
    fn run_model_batch_reports_first_error_but_serves_the_rest() {
        let orc = serve_identity_like();
        let client = orc.client();
        client.put_tensor("ok-in", &[0.1, 0.2]).unwrap();
        let err = client
            .run_model_batch("net", &[("ok-in", "ok-out"), ("missing-in", "missing-out")])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::MissingTensor(_)));
        assert_eq!(client.unpack_tensor("ok-out").unwrap().len(), 1);
    }

    #[test]
    fn unknown_model_surfaces_error_through_channel() {
        let orc = serve_identity_like();
        let client = orc.client();
        client.put_tensor("in", &[1.0, 2.0]).unwrap();
        assert_eq!(
            client.run_model("ghost", "in", "out"),
            Err(RuntimeError::MissingModel("ghost".into()))
        );
    }

    #[test]
    fn zero_deadline_fails_at_enqueue() {
        let orc = serve_identity_like();
        let client = orc.client();
        client.put_tensor("in", &[0.1, 0.2]).unwrap();
        assert_eq!(
            client.run_model_with_deadline("net", "in", "out", Duration::ZERO),
            Err(RuntimeError::DeadlineExceeded)
        );
        assert_eq!(
            client.run_model_batch_with_deadline("net", &[("in", "out")], Duration::ZERO),
            Err(RuntimeError::DeadlineExceeded)
        );
        // Nothing was executed.
        assert_eq!(orc.serving_stats().requests, 0);
    }

    #[test]
    fn run_round_answers_each_request_in_order_and_a_full_queue_is_not_a_rejection() {
        use std::sync::mpsc::channel;
        // One slot, a queue of one, and a validator that reports in and
        // then blocks until the test lets it go. (`orc` is declared first
        // so that a failing assertion drops `release` before the
        // orchestrator drains.)
        let orc = Orchestrator::builder().workers(1).queue_depth(1).build();
        let (entered, validating) = channel::<()>();
        let (release, gate) = channel::<()>();
        let hooks = std::sync::Mutex::new((entered, gate));
        let mlp = Mlp::new(&Topology::mlp(vec![2, 3, 1]), &mut seeded(3, "cl")).unwrap();
        orc.register_guarded_model(
            "net",
            crate::server::ModelBundle {
                surrogate: mlp.into(),
                autoencoder: None,
                scaler: None,
                output_scaler: None,
            },
            crate::QualityGuard::new(move |_, _| {
                let hooks = hooks.lock().unwrap();
                let _ = hooks.0.send(());
                let _ = hooks.1.recv();
                true
            }),
        );
        let client = orc.client();
        client.put_tensor("in", &[0.4, -0.4]).unwrap();
        let run = |out_key: &'static str| RunRequest {
            model: "net",
            in_key: "in",
            out_key,
            deadline: None,
            trace: None,
        };

        // The occupant finds the orchestrator idle and executes inline,
        // holding the only execution slot inside the validator.
        let occupant = {
            let client = orc.client();
            std::thread::spawn(move || client.run_model("net", "in", "out0"))
        };
        validating.recv().unwrap();

        // A round of four behind it: validation and the enqueue-time
        // deadline answer at once, the two valid requests go through a
        // queue that holds one — the second is held back until the first
        // is answered, not rejected.
        let round = {
            let client = orc.client();
            std::thread::spawn(move || {
                client.run_round(&[
                    run("out1"),
                    RunRequest {
                        in_key: "",
                        ..run("never")
                    },
                    RunRequest {
                        deadline: Some(Duration::ZERO),
                        ..run("never")
                    },
                    run("out2"),
                ])
            })
        };
        while orc.queued() < 1 {
            std::thread::yield_now();
        }
        assert_eq!(orc.serving_stats().overload_rejected, 0);
        // A caller with nothing of its own in flight gets the counted
        // rejection from the same full queue.
        assert_eq!(
            client.run_model("net", "in", "out3"),
            Err(RuntimeError::Overloaded { queue_depth: 1 })
        );
        assert_eq!(orc.serving_stats().overload_rejected, 1);

        for _ in 0..3 {
            release.send(()).unwrap();
        }
        assert_eq!(occupant.join().unwrap(), Ok(()));
        let results = round.join().unwrap();
        assert_eq!(results.len(), 4, "one result per request, in order");
        assert_eq!(results[0], Ok(()));
        assert!(matches!(results[1], Err(RuntimeError::InvalidKey(_))));
        assert_eq!(results[2], Err(RuntimeError::DeadlineExceeded));
        assert_eq!(results[3], Ok(()));
        assert_eq!(orc.serving_stats().overload_rejected, 1);
        assert_eq!(
            client.unpack_tensor("out1").unwrap(),
            client.unpack_tensor("out2").unwrap()
        );
        assert!(client.unpack_tensor("never").is_err());

        // Idle again: the same call is one inline round, one batched pass.
        for _ in 0..2 {
            release.send(()).unwrap();
        }
        let batches = orc.serving_stats().batches;
        assert_eq!(
            client.run_round(&[run("out4"), run("out5")]),
            vec![Ok(()), Ok(())]
        );
        assert_eq!(orc.serving_stats().batches, batches + 1);
        assert!(client.run_round(&[]).is_empty());
    }

    #[test]
    fn generous_deadline_still_serves() {
        let orc = serve_identity_like();
        let client = orc.client();
        client.put_tensor("in", &[0.4, 0.1]).unwrap();
        client
            .run_model_with_deadline("net", "in", "out", Duration::from_secs(30))
            .unwrap();
        assert_eq!(client.unpack_tensor("out").unwrap().len(), 1);
    }

    #[test]
    fn del_tensor_and_stats_are_reachable_from_the_client() {
        let orc = serve_identity_like();
        let client = orc.client();
        client.put_tensor("in", &[0.1, -0.2]).unwrap();
        client.run_model("net", "in", "out").unwrap();
        assert_eq!(client.del_tensor("out"), Ok(true));
        assert_eq!(client.del_tensor("out"), Ok(false));
        assert!(matches!(
            client.del_tensor(""),
            Err(RuntimeError::InvalidKey(_))
        ));
        assert_eq!(client.serving_stats().unwrap().requests, 1);
        assert!(client
            .metrics_text()
            .unwrap()
            .contains("hpcnet_serving_requests_total{model=\"net\"} 1"));
    }

    #[test]
    fn listing1_flow_is_expressible_over_the_trait() {
        // The generic body only sees `ClientApi`, proving call sites can
        // swap the in-process client for a remote one.
        fn drive<C: ClientApi>(client: &C) -> Vec<f64> {
            client.ping().unwrap();
            client.put_tensor("t-in", &[0.25, -0.75]).unwrap();
            client.run_model("net", "t-in", "t-out").unwrap();
            client
                .run_model_batch("net", &[("t-in", "t-bout")])
                .unwrap();
            let y = client.unpack_tensor("t-out").unwrap();
            assert_eq!(y, client.unpack_tensor("t-bout").unwrap());
            assert!(client.del_tensor("t-in").unwrap());
            assert_eq!(client.serving_stats().unwrap().requests, 2);
            assert!(client.metrics_text().unwrap().contains("hpcnet_serving_"));
            y
        }
        let orc = serve_identity_like();
        assert_eq!(drive(&orc.client()).len(), 1);
    }

    #[test]
    fn client_reports_shutdown() {
        let orc = serve_identity_like();
        let client = orc.client();
        client.put_tensor("in", &[0.4, 0.1]).unwrap();
        client.run_model("net", "in", "out").unwrap();
        assert_eq!(client.ping(), Ok(()));
        let stats = orc.shutdown();
        assert_eq!(stats.requests, 1);
        assert_eq!(client.ping(), Err(RuntimeError::ShuttingDown));
        assert_eq!(
            client.put_tensor("in2", &[1.0]),
            Err(RuntimeError::ShuttingDown)
        );
        assert_eq!(
            client.run_model("net", "in", "out2"),
            Err(RuntimeError::ShuttingDown)
        );
    }
}
