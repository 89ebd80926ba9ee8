//! Loopback integration tests: a real [`NetServer`] on an ephemeral port,
//! driven by concurrent [`RemoteClient`]s.
//!
//! Run single-threaded (`--test-threads=1`) in CI: each test stands up
//! its own server and the overload/deadline tests depend on owning the
//! orchestrator's execution slots.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hpcnet_net::protocol::{
    decode_response, read_frame, write_frame_with_version, FrameOutcome, Request, Response,
};
use hpcnet_net::{demo_bundle, demo_input, NetServer, RemoteClient, DEMO_INPUT_DIM, DEMO_MODEL};
use hpcnet_runtime::conformance::{check_overload, Conformance};
use hpcnet_runtime::{ClientApi, Orchestrator, QualityGuard, RuntimeError, TensorStore};
use hpcnet_tensor::Coo;

fn demo_server(
    configure: impl FnOnce(hpcnet_runtime::OrchestratorBuilder) -> Orchestrator,
) -> NetServer {
    let orchestrator = configure(Orchestrator::builder().store(TensorStore::new()));
    orchestrator.register_model(DEMO_MODEL, demo_bundle());
    NetServer::builder(orchestrator)
        .serve("127.0.0.1:0")
        .expect("bind ephemeral port")
}

/// The value a metric line reports, summed over all label sets.
fn metric_total(text: &str, name: &str, label_needle: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name) && l.contains(label_needle))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

#[test]
fn concurrent_remote_clients_bit_match_in_process() {
    const CLIENTS: usize = 4;
    const SAMPLES: u64 = 6;

    let server = demo_server(|b| b.workers(2).build());
    let addr = server.local_addr().to_string();

    // The in-process reference: the same deterministic bundle, predicted
    // directly.
    let reference = demo_bundle();

    let addr_shared = Arc::new(addr);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr_shared.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let client = RemoteClient::connect(addr.as_str()).expect("connect");
                for s in 0..SAMPLES {
                    let input = demo_input(c as u64 * SAMPLES + s);
                    let in_key = format!("c{c}/in{s}");
                    let out_key = format!("c{c}/out{s}");
                    client.put_tensor(&in_key, &input).expect("put");
                    client
                        .run_model(DEMO_MODEL, &in_key, &out_key)
                        .expect("run");
                    let remote = client.unpack_tensor(&out_key).expect("unpack");
                    let direct = reference.surrogate.predict(&input).expect("predict");
                    assert_eq!(remote.len(), direct.len());
                    for (r, d) in remote.iter().zip(&direct) {
                        assert_eq!(
                            r.to_bits(),
                            d.to_bits(),
                            "bit mismatch client {c} sample {s}"
                        );
                    }
                    // Deletion is visible and typed.
                    assert!(client.del_tensor(&out_key).expect("del"));
                    assert!(!client.del_tensor(&out_key).expect("del"));
                    assert!(matches!(
                        client.unpack_tensor(&out_key),
                        Err(RuntimeError::MissingTensor(_))
                    ));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // A sparse put round-trips through densification identically.
    let client = RemoteClient::connect(addr_shared.as_str()).expect("connect");
    let mut coo = Coo::new(1, 8);
    coo.push(0, 2, 1.25);
    coo.push(0, 7, -0.5);
    client
        .put_sparse_tensor("sparse-in", coo.to_csr())
        .expect("put sparse");
    let dense = client.unpack_tensor("sparse-in").expect("densify");
    assert_eq!(dense, vec![0.0, 0.0, 1.25, 0.0, 0.0, 0.0, 0.0, -0.5]);

    // Remote stats and metrics agree with the work done.
    let stats = client.serving_stats().expect("stats");
    let total = (CLIENTS as u64) * SAMPLES;
    assert_eq!(stats.requests, total);
    // The model-version gauge crosses the STATS wire: a freshly
    // registered model serves version 1.
    assert_eq!(stats.model_versions.get(DEMO_MODEL).copied(), Some(1));
    assert_eq!(client.model_versions().expect("versions")[DEMO_MODEL], 1);
    let metrics = client.metrics_text().expect("metrics");
    assert!(
        metric_total(&metrics, "hpcnet_net_connections_total", "") >= (CLIENTS + 1) as f64,
        "connection counter missing from:\n{metrics}"
    );
    assert_eq!(
        metric_total(&metrics, "hpcnet_net_requests_total", "op=\"run_model\""),
        total as f64
    );
    assert_eq!(
        metric_total(
            &metrics,
            "hpcnet_net_request_seconds_count",
            "op=\"run_model\""
        ),
        total as f64
    );
    assert!(metric_total(&metrics, "hpcnet_net_bytes_read_total", "") > 0.0);
    assert!(metric_total(&metrics, "hpcnet_net_bytes_written_total", "") > 0.0);

    let final_stats = server.shutdown();
    assert_eq!(final_stats.requests, total);
}

#[test]
fn remote_client_passes_the_shared_conformance_suite() {
    let server = demo_server(|b| b.workers(2).build());
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");
    let reference = demo_bundle();
    let predict = move |x: &[f64]| reference.surrogate.predict(x).expect("predict");
    Conformance::new(DEMO_MODEL, DEMO_INPUT_DIM, &predict)
        .key_prefix("remote")
        .root_service("remote_client")
        .check(&client);
    server.shutdown();
}

#[test]
fn pipelined_batches_stream_past_the_window() {
    // More pairs than the client keeps in flight (and than the server's
    // per-connection window): replies must interleave with writes instead
    // of deadlocking, and every output must bit-match the reference.
    const PAIRS: usize = 50;
    let server = demo_server(|b| b.workers(2).build());
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");
    let reference = demo_bundle();

    let keys: Vec<(String, String)> = (0..PAIRS)
        .map(|s| (format!("pl/in{s}"), format!("pl/out{s}")))
        .collect();
    for (s, (in_key, _)) in keys.iter().enumerate() {
        client
            .put_tensor(in_key, &demo_input(s as u64))
            .expect("put");
    }
    let pairs: Vec<(&str, &str)> = keys.iter().map(|(i, o)| (i.as_str(), o.as_str())).collect();
    client.run_model_batch(DEMO_MODEL, &pairs).expect("batch");
    for (s, (_, out_key)) in keys.iter().enumerate() {
        let got = client.unpack_tensor(out_key).expect("unpack");
        let want = reference
            .surrogate
            .predict(&demo_input(s as u64))
            .expect("predict");
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "pipelined pair {s} diverged");
        }
    }

    let stats = server.shutdown();
    assert_eq!(stats.requests, PAIRS as u64);
}

#[test]
fn overload_propagates_as_typed_remote_error() {
    // One worker, a queue of one, and a model whose quality validator
    // stalls the worker: the first request executes, the second fills the
    // queue, later ones are rejected at admission. The shared conformance
    // helper drives the saturation and asserts the typed rejection.
    let orchestrator = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .queue_depth(1)
        .build();
    orchestrator.register_guarded_model(
        DEMO_MODEL,
        demo_bundle(),
        QualityGuard::new(|_in, _out| {
            std::thread::sleep(Duration::from_millis(400));
            true
        }),
    );
    let server = NetServer::builder(orchestrator)
        .serve("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr().to_string();

    check_overload(
        || RemoteClient::connect(addr.as_str()).expect("connect"),
        DEMO_MODEL,
        DEMO_INPUT_DIM,
    );
    server.shutdown();
}

#[test]
fn deadline_exceeded_propagates_as_typed_remote_error() {
    let orchestrator = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .queue_depth(4)
        .build();
    orchestrator.register_guarded_model(
        DEMO_MODEL,
        demo_bundle(),
        QualityGuard::new(|_in, _out| {
            std::thread::sleep(Duration::from_millis(300));
            true
        }),
    );
    let server = NetServer::builder(orchestrator)
        .serve("127.0.0.1:0")
        .expect("bind");
    let addr = server.local_addr().to_string();

    let occupant = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let client = RemoteClient::connect(addr.as_str()).expect("connect");
            client.put_tensor("in", &demo_input(0)).expect("put");
            client.run_model(DEMO_MODEL, "in", "out").expect("slow run");
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    // Queued behind a 300 ms validation with a 10 ms budget: answered
    // with the typed deadline error, never silently dropped.
    let client = RemoteClient::connect(addr.as_str()).expect("connect");
    client.put_tensor("late-in", &demo_input(1)).expect("put");
    let err = client
        .run_model_with_deadline(DEMO_MODEL, "late-in", "late-out", Duration::from_millis(10))
        .expect_err("deadline is unreachable");
    assert_eq!(err, RuntimeError::DeadlineExceeded);

    occupant.join().expect("occupant");
    server.shutdown();
}

#[test]
fn shutdown_drains_and_later_connects_fail_typed() {
    let server = demo_server(|b| b.workers(1).build());
    let addr = server.local_addr().to_string();

    let client = RemoteClient::connect(addr.as_str()).expect("connect");
    client.put_tensor("in", &demo_input(0)).expect("put");
    client.run_model(DEMO_MODEL, "in", "out").expect("run");

    let stats = server.shutdown();
    assert_eq!(stats.requests, 1);

    // The endpoint is gone: a fresh connect is a typed transport error.
    let err = RemoteClient::builder(addr)
        .retries(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(2))
        .connect_timeout(Duration::from_millis(200))
        .connect()
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Transport(_)), "got {err:?}");

    // The pooled connection of the old client is dead too; calls surface
    // transport errors instead of hanging.
    assert!(matches!(
        client.unpack_tensor("out"),
        Err(RuntimeError::Transport(_))
    ));
}

/// Send `req` as a hand-framed VERSION-1 frame and return the reply's
/// frame version and decoded response.
fn v1_call(stream: &mut TcpStream, seq: u32, req: &Request) -> (u8, Response) {
    write_frame_with_version(stream, 1, req.opcode(), seq, &req.encode()).expect("write v1 frame");
    match read_frame(stream).expect("read reply") {
        FrameOutcome::Frame(raw) => {
            assert_eq!(raw.seq, seq, "reply sequence mismatch");
            (raw.version, decode_response(&raw).expect("decode reply"))
        }
        FrameOutcome::Corrupt { reason, .. } => panic!("corrupt reply: {reason}"),
    }
}

#[test]
fn version_1_clients_are_served_by_the_version_2_server() {
    let server = demo_server(|b| b.workers(1).build());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");

    // A v1 put + run is served, and every reply echoes version 1 so the
    // old client's reader accepts it.
    let put = Request::PutTensor {
        key: "v1/in".into(),
        values: demo_input(0),
    };
    let (version, resp) = v1_call(&mut stream, 1, &put);
    assert_eq!(version, 1, "reply must echo the request's version");
    assert!(matches!(resp, Response::Ok), "got {resp:?}");
    let run = Request::RunModel {
        model: DEMO_MODEL.into(),
        in_key: "v1/in".into(),
        out_key: "v1/out".into(),
        deadline_micros: 0,
        trace: None,
    };
    let (version, resp) = v1_call(&mut stream, 2, &run);
    assert_eq!(version, 1);
    assert!(matches!(resp, Response::Ok), "got {resp:?}");

    // A v1 frame asking for the v2-only trace dump gets a typed protocol
    // error naming both versions — never a dropped connection.
    let (version, resp) = v1_call(&mut stream, 3, &Request::Traces);
    assert_eq!(version, 1);
    let Response::Error(frame) = resp else {
        panic!("v1 Traces must be answered with an error frame, got {resp:?}");
    };
    let err = frame.to_runtime();
    let RuntimeError::Protocol(msg) = &err else {
        panic!("expected a protocol error, got {err:?}");
    };
    assert!(
        msg.contains("traces") && msg.contains('1') && msg.contains('2'),
        "error must name the op and both versions: {msg}"
    );

    // The connection survived the version error: the same socket keeps
    // serving v1 requests.
    let get = Request::GetTensor {
        key: "v1/out".into(),
    };
    let (version, resp) = v1_call(&mut stream, 4, &get);
    assert_eq!(version, 1);
    assert!(
        matches!(resp, Response::Tensor(v) if v.len() == 4),
        "connection must survive"
    );

    drop(stream);
    server.shutdown();
}

#[test]
fn one_trace_spans_both_sides_of_the_wire() {
    let server = demo_server(|b| b.workers(1).build());
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");

    // Fresh recorders on both sides: the first offered trace is always
    // sampled in (`seen % sample_every == 0`), so one clean request is
    // deterministically retained by client and server alike.
    client.put_tensor("traced/in", &demo_input(3)).expect("put");
    client
        .run_model(DEMO_MODEL, "traced/in", "traced/out")
        .expect("run");
    // A missing input is retained by the error rule, independent of
    // sampling phase.
    let err = client
        .run_model(DEMO_MODEL, "traced/missing-in", "traced/missing-out")
        .expect_err("input was never put");
    assert!(matches!(err, RuntimeError::MissingTensor(_)));

    let traces = client.trace_dump().expect("trace dump");
    // Both retained traces must stitch: the client half and the server
    // half merged under one trace id.
    let stitched: Vec<_> = traces
        .iter()
        .filter(|t| {
            t.spans.iter().any(|s| s.service == "remote_client")
                && t.spans.iter().any(|s| s.service == "orchestrator")
        })
        .collect();
    assert!(
        stitched.len() >= 2,
        "expected both requests to stitch across the wire, got {} of {} traces",
        stitched.len(),
        traces.len()
    );

    for t in &stitched {
        let client_root = t
            .spans
            .iter()
            .find(|s| s.service == "remote_client" && s.name == "request")
            .expect("client-side request span");
        assert!(client_root.parent.is_none(), "client span is the root");
        let server_root = t
            .spans
            .iter()
            .find(|s| s.service == "orchestrator" && s.name == "request")
            .expect("server-side request span");
        assert_eq!(
            server_root.parent,
            Some(client_root.span_id),
            "server request span must hang under the propagated client span"
        );
    }
    // The clean request's server half carries the per-stage children.
    let clean = stitched
        .iter()
        .find(|t| !t.has_error())
        .expect("sampled clean trace");
    for stage in ["queue_wait", "fetch", "infer"] {
        assert!(
            clean.spans.iter().any(|s| s.name == stage),
            "missing server-side `{stage}` span in {:?}",
            clean.stage_span_names()
        );
    }

    server.shutdown();
}

#[test]
fn panicking_validator_surfaces_as_typed_error_frame_over_tcp() {
    let orchestrator = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .build();
    // demo_input(0) starts with sin(0.37) > 0, demo_input(9) with
    // sin(3.7) < 0 — one input trips the panic, the other is clean.
    orchestrator.register_guarded_model(
        DEMO_MODEL,
        demo_bundle(),
        QualityGuard::new(|raw, _out| {
            if raw.first().copied().unwrap_or(0.0) > 0.0 {
                panic!("validator blew up over TCP");
            }
            true
        }),
    );
    let server = NetServer::builder(orchestrator)
        .serve("127.0.0.1:0")
        .expect("bind");
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");

    client.put_tensor("bad-in", &demo_input(0)).expect("put");
    let err = client
        .run_model(DEMO_MODEL, "bad-in", "bad-out")
        .expect_err("panicking validator must fail the remote request");
    assert!(
        matches!(&err, RuntimeError::Inference(msg) if msg.contains("panick")),
        "expected a typed Inference error frame, got {err:?}"
    );
    assert!(
        matches!(
            client.unpack_tensor("bad-out"),
            Err(RuntimeError::MissingTensor(_))
        ),
        "a failed request must not leave an output tensor"
    );

    // Same connection, same single worker: a clean input is served.
    client.put_tensor("ok-in", &demo_input(9)).expect("put");
    client
        .run_model(DEMO_MODEL, "ok-in", "ok-out")
        .expect("worker and connection must survive the panic");
    assert_eq!(client.unpack_tensor("ok-out").expect("unpack").len(), 4);

    let stats = server.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.errors, 1);
}

/// `keys[i]` as the `(in, out)` pair list a batch call takes.
fn as_pairs(keys: &[(String, String)]) -> Vec<(&str, &str)> {
    keys.iter().map(|(i, o)| (i.as_str(), o.as_str())).collect()
}

#[test]
fn consecutive_batches_reuse_one_pooled_connection() {
    let server = demo_server(|b| b.workers(1).build());
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");
    let keys: Vec<(String, String)> = (0..20)
        .map(|s| (format!("pool/in{s}"), format!("pool/out{s}")))
        .collect();
    for (s, (in_key, _)) in keys.iter().enumerate() {
        client
            .put_tensor(in_key, &demo_input(s as u64))
            .expect("put");
    }
    let connections = |client: &RemoteClient| {
        metric_total(
            &client.metrics_text().expect("metrics"),
            "hpcnet_net_connections_total",
            "",
        )
    };
    let before = connections(&client);
    for _ in 0..2 {
        let results = client.run_pairs(DEMO_MODEL, &as_pairs(&keys), None);
        assert_eq!(results.len(), keys.len());
        assert!(results.iter().all(Result::is_ok), "got {results:?}");
    }
    assert_eq!(
        connections(&client),
        before,
        "a batch must ride the pooled connection, not dial its own"
    );
    assert_eq!(
        before, 1.0,
        "puts, batches and metrics share one connection"
    );
    server.shutdown();
}

#[test]
fn batch_after_a_server_restart_costs_one_redial() {
    // Two servers, one after the other, on the same address and over the
    // same store: the client's pooled connection belongs to the first and
    // is dead by the time the second batch is sent.
    let store = TensorStore::new();
    let launch = |addr: &str| {
        let orchestrator = Orchestrator::builder()
            .store(store.clone())
            .workers(1)
            .build();
        orchestrator.register_model(DEMO_MODEL, demo_bundle());
        NetServer::builder(orchestrator).serve(addr).expect("bind")
    };
    let first = launch("127.0.0.1:0");
    let addr = first.local_addr().to_string();
    let client = RemoteClient::builder(addr.as_str())
        .retries(1)
        .backoff(Duration::from_millis(1), Duration::from_millis(1))
        .connect()
        .expect("connect");
    let keys: Vec<(String, String)> = (0..6)
        .map(|s| (format!("rs/in{s}"), format!("rs/out{s}")))
        .collect();
    for (s, (in_key, _)) in keys.iter().enumerate() {
        client
            .put_tensor(in_key, &demo_input(s as u64))
            .expect("put");
    }
    let batch = || client.run_pairs(DEMO_MODEL, &as_pairs(&keys), None);
    assert!(batch().iter().all(Result::is_ok));
    first.shutdown();

    let second = launch(&addr);
    // A stale pooled connection costs the one retry — a re-dial — not the
    // batch: it fails before any reply of the call has been read.
    let results = batch();
    assert!(results.iter().all(Result::is_ok), "got {results:?}");
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(
        metric_total(&metrics, "hpcnet_net_connections_total", ""),
        1.0,
        "exactly one new connection: the re-dial, then pooled again"
    );
    let reference = demo_bundle();
    for (s, (_, out_key)) in keys.iter().enumerate() {
        let got = client.unpack_tensor(out_key).expect("unpack");
        let want = reference
            .surrogate
            .predict(&demo_input(s as u64))
            .expect("predict");
        assert_eq!(got, want, "pair {s}");
    }
    second.shutdown();

    // Nothing listening any more: the re-dial fails and every pair is
    // answered with the typed transport error the cluster's re-route keys
    // on.
    let results = batch();
    assert_eq!(results.len(), keys.len());
    assert!(
        results
            .iter()
            .all(|r| matches!(r, Err(RuntimeError::Transport(_)))),
        "got {results:?}"
    );
}

/// A guarded demo server with one worker whose validator takes `pause`
/// per call (so requests submitted together are still queued when the
/// worker comes back for them) and rejects every third input, which the
/// fallback then answers.
fn slow_guarded_server(pause: Duration) -> NetServer {
    let orchestrator = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .build();
    orchestrator.register_guarded_model(
        DEMO_MODEL,
        demo_bundle(),
        QualityGuard::new(move |input: &[f64], _out: &[f64]| {
            std::thread::sleep(pause);
            input[0] < 2.5
        })
        .with_fallback(|input: &[f64]| vec![input[0], -1.0, -2.0, -3.0]),
    );
    NetServer::builder(orchestrator)
        .serve("127.0.0.1:0")
        .expect("bind")
}

/// Demo inputs whose first element (0, 1, 2, 3, 0, ...) the guard of
/// [`slow_guarded_server`] keys on.
fn marked_input(s: usize) -> Vec<f64> {
    let mut input = demo_input(s as u64);
    input[0] = (s % 4) as f64;
    input
}

#[test]
fn pipelined_batch_is_coalesced_with_per_pair_results_in_order() {
    const PAIRS: usize = 16;
    const ABSENT: usize = 5;
    let server = slow_guarded_server(Duration::from_millis(5));
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");
    for s in (0..PAIRS).filter(|&s| s != ABSENT) {
        client
            .put_tensor(&format!("co/in{s}"), &marked_input(s))
            .expect("put");
    }
    let keys = |prefix: &str| -> Vec<(String, String)> {
        (0..PAIRS)
            .map(|s| (format!("co/in{s}"), format!("co/{prefix}{s}")))
            .collect()
    };

    // The reference: sixteen single calls, one request per round.
    let singles = keys("single");
    for (s, (in_key, out_key)) in singles.iter().enumerate() {
        let result = client.run_model(DEMO_MODEL, in_key, out_key);
        assert_eq!(result.is_ok(), s != ABSENT, "single {s}: {result:?}");
    }
    let before = client.serving_stats().expect("stats");
    assert_eq!(before.batches, before.requests, "singles are not coalesced");

    let batched = keys("batch");
    let results = client.run_pairs(DEMO_MODEL, &as_pairs(&batched), None);
    assert_eq!(results.len(), PAIRS);
    for (s, result) in results.iter().enumerate() {
        if s == ABSENT {
            assert_eq!(
                result,
                &Err(RuntimeError::MissingTensor(format!("co/in{s}"))),
                "the typed error belongs to its own pair"
            );
        } else {
            assert_eq!(result, &Ok(()), "pair {s}");
        }
    }
    let after = client.serving_stats().expect("stats");
    let (requests, rounds) = (
        after.requests - before.requests,
        after.batches - before.batches,
    );
    assert_eq!(requests, PAIRS as u64);
    assert!(
        rounds < requests,
        "the window must be served in fewer forward passes than requests \
         (mean batch size > 1), got {rounds} for {requests}"
    );
    // Each request kept its own guard outcome: the same inputs fell back.
    assert_eq!(
        after.quality_fallbacks - before.quality_fallbacks,
        before.quality_fallbacks
    );
    assert!(before.quality_fallbacks > 0 && before.quality_hits > 0);

    for s in (0..PAIRS).filter(|&s| s != ABSENT) {
        let single = client.unpack_tensor(&singles[s].1).expect("single out");
        let batch = client.unpack_tensor(&batched[s].1).expect("batch out");
        assert_eq!(single.len(), batch.len());
        for (a, b) in single.iter().zip(&batch) {
            assert_eq!(a.to_bits(), b.to_bits(), "pair {s} diverged");
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_frames_keep_their_own_deadlines() {
    let server = slow_guarded_server(Duration::from_millis(300));
    let addr = server.local_addr().to_string();
    let client = RemoteClient::connect(addr.as_str()).expect("connect");
    for s in 0..4 {
        client
            .put_tensor(&format!("dl/in{s}"), &marked_input(0))
            .expect("put");
    }
    let occupant = {
        let client = client.clone();
        std::thread::spawn(move || client.run_model(DEMO_MODEL, "dl/in3", "dl/out3"))
    };
    std::thread::sleep(Duration::from_millis(100));

    // Three frames queued behind a 300 ms validation with 20 ms between
    // them: each is answered with its own typed deadline error.
    let keys: Vec<(String, String)> = (0..3)
        .map(|s| (format!("dl/in{s}"), format!("dl/out{s}")))
        .collect();
    let results = client.run_pairs(
        DEMO_MODEL,
        &as_pairs(&keys),
        Some(Duration::from_millis(20)),
    );
    assert_eq!(results, vec![Err(RuntimeError::DeadlineExceeded); 3]);
    occupant.join().expect("occupant").expect("slow run");

    // With room in the budget the same frames are served.
    let results = client.run_pairs(DEMO_MODEL, &as_pairs(&keys), Some(Duration::from_secs(30)));
    assert_eq!(results, vec![Ok(()); 3]);
    assert!(client.serving_stats().expect("stats").deadline_expired >= 3);
    server.shutdown();
}

// ---------------------------------------------------------------------
// One thread per connection: what arrives together is served together,
// in request order, and nothing a client observes says otherwise.
// ---------------------------------------------------------------------

/// `requests` framed back to back with sequence numbers 1, 2, ...
fn pipelined(requests: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        request.encode_frame(&mut wire, hpcnet_net::protocol::VERSION, i as u32 + 1);
    }
    wire
}

/// Read `n` replies and check that they answer sequence numbers 1..=n in
/// order.
fn read_replies(stream: &mut TcpStream, n: usize) -> Vec<Response> {
    (1..=n as u32)
        .map(|seq| match read_frame(stream).expect("reply frame") {
            FrameOutcome::Frame(raw) => {
                assert_eq!(raw.seq, seq, "replies leave in request order");
                decode_response(&raw).expect("decode reply")
            }
            FrameOutcome::Corrupt { reason, .. } => panic!("corrupt reply: {reason}"),
        })
        .collect()
}

fn run_frame(model: &str, in_key: &str, out_key: &str) -> Request {
    Request::RunModel {
        model: model.into(),
        in_key: in_key.into(),
        out_key: out_key.into(),
        deadline_micros: 0,
        trace: None,
    }
}

#[test]
fn mixed_pipelined_frames_are_answered_in_order_with_dependencies_honoured() {
    use hpcnet_nn::{Mlp, Topology};
    let server = demo_server(|b| b.workers(1).build());
    // A second model that consumes the demo model's output, so the
    // second RUN depends on the first one's out key.
    let mut rng = hpcnet_tensor::rng::seeded(5, "loopback-square");
    let square = Mlp::new(&Topology::mlp(vec![4, 6, 4]), &mut rng).expect("topology");
    let mut chained = demo_bundle();
    chained.surrogate = square.clone().into();
    server.orchestrator().register_model("square", chained);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream.set_nodelay(true).expect("nodelay");
    let input = demo_input(4);
    let wire = pipelined(&[
        Request::PutTensor {
            key: "mix/in".into(),
            values: input.clone(),
        },
        run_frame(DEMO_MODEL, "mix/in", "mix/mid"),
        run_frame("square", "mix/mid", "mix/out"),
        Request::GetTensor {
            key: "mix/out".into(),
        },
        Request::Ping {
            payload: b"after".to_vec(),
        },
    ]);
    // One write: all five frames reach the server in one segment.
    std::io::Write::write_all(&mut stream, &wire).expect("write");

    let replies = read_replies(&mut stream, 5);
    assert_eq!(replies[0], Response::Ok);
    assert_eq!(replies[1], Response::Ok);
    assert_eq!(
        replies[2],
        Response::Ok,
        "the dependent RUN must execute after the one that writes its input"
    );
    let mid = demo_bundle().surrogate.predict(&input).expect("predict");
    let want = square.predict(&mid).expect("predict");
    assert_eq!(replies[3], Response::Tensor(want));
    assert_eq!(replies[4], Response::Pong(b"after".to_vec()));

    drop(stream);
    let stats = server.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.batches, 2, "dependent RUNs are separate rounds");
}

#[test]
fn pipelining_past_the_window_is_served_in_window_sized_rounds() {
    // The client writes 4 x window RUN_MODEL frames before it reads a
    // single reply. The server takes at most `window` of them per round,
    // so what it holds per connection is bounded by the window however
    // much the client has sent; the rest waits in the socket.
    const WINDOW: usize = 4;
    const FRAMES: usize = 4 * WINDOW;
    let orchestrator = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .build();
    orchestrator.register_model(DEMO_MODEL, demo_bundle());
    let server = NetServer::builder(orchestrator)
        .window(WINDOW)
        .serve("127.0.0.1:0")
        .expect("bind");
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");
    for s in 0..FRAMES {
        client
            .put_tensor(&format!("pw/in{s}"), &demo_input(s as u64))
            .expect("put");
    }

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream.set_nodelay(true).expect("nodelay");
    let runs: Vec<Request> = (0..FRAMES)
        .map(|s| run_frame(DEMO_MODEL, &format!("pw/in{s}"), &format!("pw/out{s}")))
        .collect();
    std::io::Write::write_all(&mut stream, &pipelined(&runs)).expect("write all frames");
    let replies = read_replies(&mut stream, FRAMES);
    assert!(
        replies.iter().all(|r| *r == Response::Ok),
        "got {replies:?}"
    );

    let reference = demo_bundle();
    for s in 0..FRAMES {
        let got = client.unpack_tensor(&format!("pw/out{s}")).expect("unpack");
        let want = reference
            .surrogate
            .predict(&demo_input(s as u64))
            .expect("predict");
        assert_eq!(got, want, "frame {s}");
    }
    let stats = client.serving_stats().expect("stats");
    assert_eq!(stats.requests, FRAMES as u64);
    assert!(
        stats.batches >= (FRAMES / WINDOW) as u64,
        "{FRAMES} frames through a window of {WINDOW} take at least {} rounds, got {}",
        FRAMES / WINDOW,
        stats.batches
    );
    // Batch-size buckets are [1, 2), [2, 4), [4, 8), [8, 16), ...: no
    // round may have grown past the window.
    assert_eq!(
        stats.batch_hist[3..].iter().sum::<u64>(),
        0,
        "a round exceeded the window: {:?}",
        stats.batch_hist
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn a_frame_split_across_segments_is_served_once() {
    use std::io::Write;
    let server = demo_server(|b| b.workers(1).build());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream.set_nodelay(true).expect("nodelay");
    let values = demo_input(2);
    let wire = pipelined(&[Request::PutTensor {
        key: "split/in".into(),
        values: values.clone(),
    }]);
    // Three segments: cut mid-header and mid-payload. The pauses let each
    // part travel alone; coalesced parts would only make the test easier.
    let (head, rest) = wire.split_at(5);
    let (body, tail) = rest.split_at(30);
    for part in [head, body, tail] {
        stream.write_all(part).expect("write part");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(read_replies(&mut stream, 1), vec![Response::Ok]);

    // The connection is still framed, and the PUT happened exactly once.
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");
    assert_eq!(client.unpack_tensor("split/in").expect("unpack"), values);
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(
        metric_total(&metrics, "hpcnet_net_requests_total", "op=\"put_tensor\""),
        1.0
    );
    assert_eq!(
        metric_total(&metrics, "hpcnet_net_protocol_errors_total", ""),
        0.0
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn shutdown_answers_what_was_received_before_the_half_close() {
    use std::io::{Read, Write};
    use std::sync::mpsc::channel;
    let orchestrator = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .build();
    let (entered_tx, entered) = channel();
    let entered_tx = std::sync::Mutex::new(entered_tx);
    orchestrator.register_guarded_model(
        DEMO_MODEL,
        demo_bundle(),
        QualityGuard::new(move |_in, _out| {
            let _ = entered_tx.lock().expect("lock").send(());
            // Long enough for `shutdown` to half-close the connection
            // while this request is still executing.
            std::thread::sleep(Duration::from_millis(200));
            true
        }),
    );
    let server = NetServer::builder(orchestrator)
        .serve("127.0.0.1:0")
        .expect("bind");
    let client = RemoteClient::connect(server.local_addr().to_string()).expect("connect");
    client.put_tensor("hc/in", &demo_input(0)).expect("put");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");
    stream.set_nodelay(true).expect("nodelay");
    let ping = |payload: &[u8]| Request::Ping {
        payload: payload.to_vec(),
    };
    let wire = pipelined(&[
        run_frame(DEMO_MODEL, "hc/in", "hc/out"),
        ping(b"one"),
        ping(b"two"),
    ]);
    stream.write_all(&wire).expect("write");
    // The RUN is executing, so its segment — the PINGs included — has
    // been received. Drain now: the read side closes under the thread.
    entered.recv().expect("validator entered");
    let stats = server.shutdown();
    assert_eq!(stats.requests, 1);

    let replies = read_replies(&mut stream, 3);
    assert_eq!(
        replies,
        vec![
            Response::Ok,
            Response::Pong(b"one".to_vec()),
            Response::Pong(b"two".to_vec())
        ]
    );
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).expect("clean EOF"),
        0,
        "nothing but the three replies, then the server hangs up"
    );
}
