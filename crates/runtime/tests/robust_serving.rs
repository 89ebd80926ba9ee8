//! Robustness tests for the deadline-aware, backpressured serving path:
//! a depth-limited queue under saturation must answer every request with
//! a typed result (`Ok`, `Overloaded`, `DeadlineExceeded`) — no hangs, no
//! panics, no silent drops — and shutdown must drain in-flight work.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use hpcnet_nn::{Mlp, Topology};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{ModelBundle, Orchestrator, QualityGuard, RuntimeError, TensorStore};
use hpcnet_tensor::rng::{seeded, uniform_vec};

fn bundle(seed: u64) -> ModelBundle {
    let mlp = Mlp::new(&Topology::mlp(vec![3, 4, 2]), &mut seeded(seed, "robust")).unwrap();
    ModelBundle {
        surrogate: mlp.into(),
        autoencoder: None,
        scaler: None,
        output_scaler: None,
    }
}

/// An orchestrator serving one model named `slow` whose quality validator
/// sleeps for `delay` per answer — a stand-in for expensive inference
/// that keeps the execution slots busy deterministically.
fn slow_orchestrator(workers: usize, queue_depth: usize, delay: Duration) -> Orchestrator {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(workers)
        .queue_depth(queue_depth)
        .build();
    orc.register_guarded_model(
        "slow",
        bundle(1),
        QualityGuard::new(move |_, _| {
            std::thread::sleep(delay);
            true
        }),
    );
    orc
}

/// The ISSUE acceptance scenario: many clients against one slow execution
/// slot and a depth-2 queue. Every reply must be one of the three typed
/// outcomes, and the orchestrator's counters must account for each.
#[test]
fn saturated_queue_yields_only_typed_results() {
    const THREADS: usize = 6;
    const REQUESTS: usize = 30;
    let orc = slow_orchestrator(1, 2, Duration::from_millis(5));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let client = orc.client();
            std::thread::spawn(move || {
                let mut rng = seeded(t as u64, "robust-sat");
                let (mut ok, mut over, mut dead) = (0u64, 0u64, 0u64);
                for r in 0..REQUESTS {
                    let x = uniform_vec(&mut rng, 3, -1.0, 1.0);
                    let in_key = format!("t{t}r{r}in");
                    let out_key = format!("t{t}r{r}out");
                    client.put_tensor(&in_key, &x).unwrap();
                    match client.run_model_with_deadline(
                        "slow",
                        &in_key,
                        &out_key,
                        Duration::from_millis(25),
                    ) {
                        Ok(()) => ok += 1,
                        Err(RuntimeError::Overloaded { queue_depth }) => {
                            assert_eq!(queue_depth, 2);
                            over += 1;
                        }
                        Err(RuntimeError::DeadlineExceeded) => dead += 1,
                        Err(e) => panic!("untyped failure under saturation: {e:?}"),
                    }
                }
                (ok, over, dead)
            })
        })
        .collect();

    let (mut ok, mut over, mut dead) = (0u64, 0u64, 0u64);
    for h in handles {
        let (o, v, d) = h.join().expect("no client thread may panic");
        ok += o;
        over += v;
        dead += d;
    }
    assert_eq!(ok + over + dead, (THREADS * REQUESTS) as u64);
    assert!(
        over + dead > 0,
        "a depth-2 queue behind one slow slot must shed load"
    );

    // The telemetry registry must show the same story: executed requests
    // accumulated non-zero queue-wait and infer-stage time, and the shed
    // load left anomaly events in the ring.
    let snap = orc.metrics_snapshot();
    let queue_wait = snap
        .find_histogram("hpcnet_serving_queue_wait_seconds", &[("model", "slow")])
        .expect("queue-wait histogram is registered for the served model");
    assert!(queue_wait.count > 0, "executed requests record queue wait");
    assert!(
        queue_wait.sum > 0,
        "a saturated single-slot queue implies non-zero waiting"
    );
    let infer = snap
        .find_histogram(
            "hpcnet_serving_stage_seconds",
            &[("model", "slow"), ("stage", "infer")],
        )
        .expect("infer-stage histogram is registered for the served model");
    assert!(infer.count > 0, "every executed group times its inference");
    assert!(infer.sum > 0, "inference takes measurable time");
    if over > 0 {
        assert!(
            !snap.events_of_kind("overload_rejected").is_empty(),
            "overload rejections must land in the event ring"
        );
    }
    if dead > 0 {
        assert!(
            !snap.events_of_kind("deadline_expired").is_empty(),
            "deadline expiries must land in the event ring"
        );
    }

    let stats = orc.shutdown();
    assert_eq!(stats.overload_rejected, over);
    assert_eq!(stats.deadline_expired, dead);
    // Executed requests are exactly the Ok ones: the validator accepts
    // everything, rejected/expired requests are never executed.
    assert_eq!(stats.requests, ok);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.quality_hits, ok);
}

/// Backpressure at the exact queue limit: with one request in flight and
/// one occupying the single queue slot, the next admission attempt gets
/// `Overloaded { queue_depth }` immediately — and once the backlog
/// clears, the same client is served again.
#[test]
fn overloaded_at_exact_queue_limit_then_recovers() {
    let orc = slow_orchestrator(1, 1, Duration::from_millis(300));

    let a = orc.client();
    a.put_tensor("a_in", &[0.1, 0.2, 0.3]).unwrap();
    let a_thread = std::thread::spawn(move || a.run_model("slow", "a_in", "a_out"));
    std::thread::sleep(Duration::from_millis(100)); // A is in flight

    let b = orc.client();
    b.put_tensor("b_in", &[0.4, 0.5, 0.6]).unwrap();
    let b_thread = std::thread::spawn(move || b.run_model("slow", "b_in", "b_out"));
    std::thread::sleep(Duration::from_millis(100)); // B fills the queue

    let c = orc.client();
    c.put_tensor("c_in", &[0.7, 0.8, 0.9]).unwrap();
    assert_eq!(
        c.run_model("slow", "c_in", "c_out"),
        Err(RuntimeError::Overloaded { queue_depth: 1 })
    );
    assert_eq!(c.ping(), Ok(()), "overload is transient, not a shutdown");

    assert_eq!(a_thread.join().unwrap(), Ok(()));
    assert_eq!(b_thread.join().unwrap(), Ok(()));

    // The backlog is gone: the previously rejected work now succeeds.
    c.run_model("slow", "c_in", "c_out").unwrap();
    assert_eq!(c.unpack_tensor("c_out").unwrap().len(), 2);

    let stats = orc.shutdown();
    assert_eq!(stats.overload_rejected, 1);
    assert_eq!(stats.requests, 3);
}

/// Deadline expiry under a saturated slot: a request whose deadline
/// passes while it waits in the queue is failed with `DeadlineExceeded`
/// before any inference is spent on it, and no output tensor is ever
/// written for it.
#[test]
fn queued_request_expires_server_side() {
    let orc = slow_orchestrator(1, 8, Duration::from_millis(300));

    let a = orc.client();
    a.put_tensor("a_in", &[1.0, 2.0, 3.0]).unwrap();
    let a_thread = std::thread::spawn(move || a.run_model("slow", "a_in", "a_out"));
    std::thread::sleep(Duration::from_millis(100)); // A is in flight

    // B's 50 ms budget elapses while A still holds the only slot.
    let b = orc.client();
    b.put_tensor("b_in", &[4.0, 5.0, 6.0]).unwrap();
    assert_eq!(
        b.run_model_with_deadline("slow", "b_in", "b_out", Duration::from_millis(50)),
        Err(RuntimeError::DeadlineExceeded)
    );
    assert!(
        matches!(
            b.unpack_tensor("b_out"),
            Err(RuntimeError::MissingTensor(_))
        ),
        "an expired request must not write an output"
    );

    assert_eq!(a_thread.join().unwrap(), Ok(()));
    let stats = orc.shutdown();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.requests, 1);
}

/// A deadline covers the wait for a slot, not just what follows it: with
/// the only slot held by a validator that parks until the test lets it
/// go, a second caller's 50 ms deadline answers it `DeadlineExceeded`
/// while the slot is still held — counted, logged and traced like any
/// other expiry — and its place in the queue is given back.
#[test]
fn queued_request_expires_while_the_slot_is_still_held() {
    use std::sync::mpsc::channel;
    // `orc` is declared first so that a failing assertion drops `release`
    // (which unparks the validator) before the orchestrator drains.
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .build();
    let (parked_tx, parked) = channel::<()>();
    let (release, gate) = channel::<()>();
    let hooks = std::sync::Mutex::new((parked_tx, gate));
    orc.register_guarded_model(
        "gated",
        bundle(3),
        QualityGuard::new(move |raw, _| {
            if raw[0] > 0.0 {
                let hooks = hooks.lock().unwrap();
                hooks.0.send(()).unwrap();
                let _ = hooks.1.recv();
            }
            true
        }),
    );

    let a = orc.client();
    a.put_tensor("a_in", &[1.0, 2.0, 3.0]).unwrap();
    let holder = std::thread::spawn(move || a.run_model("gated", "a_in", "a_out"));
    parked.recv().unwrap();

    let b = orc.client();
    b.put_tensor("b_in", &[-1.0, 5.0, 6.0]).unwrap();
    assert_eq!(
        b.run_model_with_deadline("gated", "b_in", "b_out", Duration::from_millis(50)),
        Err(RuntimeError::DeadlineExceeded)
    );
    assert!(!holder.is_finished(), "the slot is still held");
    assert_eq!(orc.queued(), 0, "the expired request left the queue");
    assert!(matches!(
        b.unpack_tensor("b_out"),
        Err(RuntimeError::MissingTensor(_))
    ));
    let stats = orc.serving_stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.requests, 0, "nothing has finished executing");
    let snap = orc.metrics_snapshot();
    assert_eq!(snap.events_of_kind("deadline_expired").len(), 1);
    assert!(orc
        .trace_dump()
        .iter()
        .any(|t| t.has_tag("deadline_exceeded")));

    release.send(()).unwrap();
    assert_eq!(holder.join().unwrap(), Ok(()));
    let stats = orc.shutdown();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.requests, 1);
}

/// Graceful drain: shutdown lets admitted requests finish (their outputs
/// are present and intact), answers raced-in requests with
/// `ShuttingDown`, and leaves every client with a typed refusal
/// afterwards.
#[test]
fn shutdown_drains_in_flight_requests() {
    let orc = slow_orchestrator(1, 16, Duration::from_millis(50));
    let after = orc.client();

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let client = orc.client();
            std::thread::spawn(move || {
                let in_key = format!("d{t}in");
                let out_key = format!("d{t}out");
                let result = client
                    .put_tensor(&in_key, &[t as f64, 0.5, -0.5])
                    .and_then(|()| client.run_model("slow", &in_key, &out_key));
                (out_key, result, client)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(75)); // at least one in flight
    let stats = orc.shutdown();

    let mut served = 0u64;
    for h in handles {
        let (out_key, result, client) = h.join().expect("no hang, no panic");
        match result {
            Ok(()) => {
                assert_eq!(
                    client.unpack_tensor(&out_key).unwrap().len(),
                    2,
                    "drained request must leave its output behind"
                );
                served += 1;
            }
            Err(RuntimeError::ShuttingDown) => {}
            Err(e) => panic!("drain produced an untyped result: {e:?}"),
        }
    }
    assert!(served >= 1, "the in-flight request must complete");
    assert_eq!(stats.requests, served);

    // After the drain every path refuses with the typed shutdown error.
    assert_eq!(after.ping(), Err(RuntimeError::ShuttingDown));
    assert_eq!(
        after.put_tensor("late_in", &[1.0]),
        Err(RuntimeError::ShuttingDown)
    );
    assert_eq!(
        after.run_model("slow", "late_in", "late_out"),
        Err(RuntimeError::ShuttingDown)
    );
}

/// Server-side restart-on-quality-miss: a reject-all validator routes
/// every answer through the fallback closure, whose output must reach the
/// client bit-for-bit, with the events visible in `ServingStats`.
#[test]
fn server_side_fallback_bit_matches_the_original_region() {
    let orc = Orchestrator::builder().store(TensorStore::new()).build();
    let original_region = |raw: &[f64]| -> Vec<f64> { raw.iter().map(|v| v * 2.0 + 1.0).collect() };
    orc.register_guarded_model(
        "guarded",
        bundle(7),
        QualityGuard::new(|_, _| false).with_fallback(move |raw| original_region(raw)),
    );

    let client = orc.client();
    let x = [0.25, -1.5, 3.125];
    client.put_tensor("g_in", &x).unwrap();
    client.run_model("guarded", "g_in", "g_out").unwrap();
    assert_eq!(
        client.unpack_tensor("g_out").unwrap(),
        x.iter().map(|v| v * 2.0 + 1.0).collect::<Vec<f64>>(),
        "the served answer must be the fallback's output, bit-for-bit"
    );

    let stats = orc.serving_stats();
    assert_eq!(stats.quality_fallbacks, 1);
    assert_eq!(stats.quality_hits, 0);
    assert_eq!(stats.quality_rejected, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.quality_hit_rate(), 0.0);

    // The fallback is also an anomaly event: the ring names the model,
    // the input key, and the surrogate output the guard threw away.
    let snap = orc.metrics_snapshot();
    let events = snap.events_of_kind("quality_fallback");
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].label, "guarded");
    assert_eq!(events[0].message, "g_in");
    assert!(events[0].value.is_finite());
}

/// A panicking quality validator must be contained to the offending
/// request: the client gets a typed `Inference` error naming the panic,
/// the calling thread survives, and the same (single) slot then serves
/// a clean request.
#[test]
fn panicking_validator_is_contained_to_its_request() {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .build();
    orc.register_guarded_model(
        "guarded",
        bundle(11),
        QualityGuard::new(|raw, _| {
            if raw.first().copied().unwrap_or(0.0) > 0.0 {
                panic!("validator blew up");
            }
            true
        }),
    );

    let client = orc.client();
    client.put_tensor("bad_in", &[1.0, 0.0, 0.0]).unwrap();
    let err = client
        .run_model("guarded", "bad_in", "bad_out")
        .expect_err("panicking validator must fail the request");
    match &err {
        RuntimeError::Inference(msg) => {
            assert!(
                msg.contains("panick") && msg.contains("bad_in"),
                "error must name the panic and the input key: {msg}"
            );
        }
        other => panic!("expected Inference, got {other:?}"),
    }
    assert!(
        client.unpack_tensor("bad_out").is_err(),
        "a failed request must not leave a partial output tensor"
    );

    // Same single slot: if the panic had leaked it, this would hang.
    client.put_tensor("ok_in", &[-1.0, 0.0, 0.0]).unwrap();
    client.run_model("guarded", "ok_in", "ok_out").unwrap();
    assert_eq!(client.unpack_tensor("ok_out").unwrap().len(), 2);

    let stats = orc.serving_stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 1);
    assert_eq!(
        stats.quality_rejected, 0,
        "a panicking validator is an error, not a quality verdict"
    );
}

/// Same containment for a panicking fallback region; afterwards the
/// guard can be replaced and the model keeps serving.
#[test]
fn panicking_fallback_is_contained_and_guard_is_replaceable() {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .build();
    orc.register_guarded_model(
        "guarded",
        bundle(12),
        QualityGuard::new(|_, _| false).with_fallback(|_| panic!("fallback blew up")),
    );

    let client = orc.client();
    client.put_tensor("in", &[0.5, 0.5, 0.5]).unwrap();
    let err = client
        .run_model("guarded", "in", "out")
        .expect_err("panicking fallback must fail the request");
    assert!(
        matches!(&err, RuntimeError::Inference(msg) if msg.contains("fallback") && msg.contains("panick")),
        "expected a typed fallback-panic error, got {err:?}"
    );
    assert_eq!(orc.serving_stats().quality_fallbacks, 0);

    // The slot came back; an accepting guard serves the same input.
    orc.set_quality_guard("guarded", QualityGuard::new(|_, _| true))
        .unwrap();
    client.run_model("guarded", "in", "out").unwrap();
    assert_eq!(client.unpack_tensor("out").unwrap().len(), 2);

    let stats = orc.serving_stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.quality_hits, 1);
}

/// A panic anywhere in a round (here: a validator that panics for every
/// member of a batch) must answer every request of the round with a
/// typed error rather than stranding the batch.
#[test]
fn panicking_batch_answers_every_request() {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .build();
    orc.register_guarded_model(
        "guarded",
        bundle(13),
        QualityGuard::new(|_, _| panic!("always panics")),
    );
    let client = orc.client();
    let pairs: Vec<(String, String)> = (0..4)
        .map(|i| {
            let in_key = format!("b{i}in");
            client.put_tensor(&in_key, &[i as f64, 0.0, 0.0]).unwrap();
            (in_key, format!("b{i}out"))
        })
        .collect();
    let pair_refs: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(i, o)| (i.as_str(), o.as_str()))
        .collect();
    // The batch API surfaces the first per-pair error; the stats below
    // prove every member was answered with one (nothing stranded).
    let err = client
        .run_model_batch("guarded", &pair_refs)
        .expect_err("a fully panicking batch must fail");
    assert!(
        matches!(&err, RuntimeError::Inference(msg) if msg.contains("panick")),
        "expected a typed panic error, got {err:?}"
    );
    for (_, out_key) in &pairs {
        assert!(
            client.unpack_tensor(out_key).is_err(),
            "no failed member may leave an output tensor"
        );
    }
    let stats = orc.serving_stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.errors, 4);
}

/// Opt-in `f32` serving without a guard: the quantized kernels answer
/// directly, the answer tracks the `f64` path within the quantization
/// envelope, and the `f32_served` counter accounts for every request.
#[test]
fn f32_serving_tracks_f64_within_envelope_and_counts() {
    let b = bundle(20);
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .serve_f32(true)
        .build();
    assert!(orc.serves_f32());
    orc.register_model("q", b.clone());

    let client = orc.client();
    let x = [0.25, -0.75, 1.5];
    client.put_tensor("in", &x).unwrap();
    client.run_model("q", "in", "out").unwrap();
    let out = client.unpack_tensor("out").unwrap();
    let y64 = b.surrogate.predict(&x).unwrap();
    assert_eq!(out.len(), y64.len());
    for (a, b) in y64.iter().zip(&out) {
        assert!(
            (a - b).abs() <= 1e-4 * (1.0 + a.abs()),
            "f32 answer outside quantization envelope: f64={a} f32={b}"
        );
    }

    let stats = orc.serving_stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.f32_served, 1);
    assert_eq!(stats.f32_fallbacks, 0);

    // The f32 forward is carved into its own telemetry stage.
    let snap = orc.metrics_snapshot();
    let h = snap
        .find_histogram(
            "hpcnet_serving_stage_seconds",
            &[("model", "q"), ("stage", "infer_f32")],
        )
        .expect("infer_f32 stage histogram is registered");
    assert!(h.count >= 1, "f32 batches charge the infer_f32 stage");
}

/// The DESIGN.md §14 demotion contract: a QualityGuard that accepts only
/// the bit-exact `f64` answer rejects the quantized output, the request
/// is recomputed through the `f64` surrogate (not the region fallback),
/// the client receives the `f64` answer bit-for-bit, and the counters
/// attribute the miss to `f32_fallbacks` — not `quality_fallbacks`.
#[test]
fn f32_quality_miss_demotes_to_f64_and_charges_counters() {
    let b = bundle(21);
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .serve_f32(true)
        .build();
    // No scaler in the bundle, so the validator's raw input is exactly
    // the feature row the surrogate consumes: "only the bit-exact f64
    // prediction passes" is expressible directly.
    let exact = b.surrogate.clone();
    orc.register_guarded_model(
        "m",
        b.clone(),
        QualityGuard::new(move |raw, y| exact.predict(raw).as_deref() == Ok(y))
            .with_fallback(|_| panic!("demotion must answer before the region fallback")),
    );

    let client = orc.client();
    let x = [0.5, -0.25, 0.125];
    client.put_tensor("in", &x).unwrap();
    client.run_model("m", "in", "out").unwrap();
    assert_eq!(
        client.unpack_tensor("out").unwrap(),
        b.surrogate.predict(&x).unwrap(),
        "the demoted answer must be the f64 surrogate's, bit-for-bit"
    );

    let stats = orc.serving_stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.f32_fallbacks, 1, "the miss is a precision fallback");
    assert_eq!(stats.f32_served, 0, "a demoted request was not f32-served");
    assert_eq!(stats.quality_hits, 1, "the f64 recompute passed the guard");
    assert_eq!(
        stats.quality_fallbacks, 0,
        "the region fallback must not have run"
    );
    assert_eq!(stats.quality_rejected, 0);

    // The demotion is visible in the anomaly ring.
    let snap = orc.metrics_snapshot();
    let events = snap.events_of_kind("f32_demoted");
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].label, "m");
    assert_eq!(events[0].message, "in");
}

/// When both precisions miss, the established guard semantics resume on
/// the `f64` answer: the region fallback serves the request, and both
/// the precision and the quality fallback are counted once each.
#[test]
fn f32_and_f64_misses_fall_back_to_the_region() {
    let b = bundle(22);
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .serve_f32(true)
        .build();
    orc.register_guarded_model(
        "m",
        b,
        QualityGuard::new(|_, _| false).with_fallback(|raw| raw.iter().map(|v| v + 10.0).collect()),
    );

    let client = orc.client();
    let x = [1.0, 2.0, 3.0];
    client.put_tensor("in", &x).unwrap();
    client.run_model("m", "in", "out").unwrap();
    assert_eq!(
        client.unpack_tensor("out").unwrap(),
        vec![11.0, 12.0, 13.0],
        "a double miss must be answered by the original region"
    );

    let stats = orc.serving_stats();
    assert_eq!(stats.f32_fallbacks, 1);
    assert_eq!(stats.quality_fallbacks, 1);
    assert_eq!(stats.f32_served, 0);
    assert_eq!(stats.quality_hits, 0);
    assert_eq!(stats.errors, 0);
}
