//! How a round comes to execute (DESIGN.md §9): at once on an idle
//! orchestrator, through the pending queue under backlog — on a calling
//! thread either way, and nothing a client can observe tells the two
//! apart. Every test runs with one and with two execution slots, and none
//! of them sleeps: a request is put "in flight" by a validator that parks
//! until the test releases it over a channel.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use hpcnet_nn::{Mlp, Topology};
use hpcnet_runtime::metrics::QUEUE_WAIT_SECONDS;
use hpcnet_runtime::{
    ClientApi, ModelBundle, Orchestrator, OrchestratorBuilder, QualityGuard, RuntimeError,
    ServingStats, TensorStore,
};

const MODEL: &str = "m";

/// What the guard of [`serve`] does with a request, read off the first
/// element of its input.
#[derive(Clone, Copy)]
enum Marker {
    /// Accept the (f32) answer as it comes.
    Accept = 0,
    /// Accept only the bit-exact f64 answer: the f32 answer is demoted.
    Exact = 1,
    /// Reject both precisions: the fallback region answers.
    Reject = 2,
    /// Report in, park until released, then accept.
    Park = 3,
}

fn input(marker: Marker, i: usize) -> Vec<f64> {
    vec![marker as u8 as f64, 0.25 * i as f64, -0.5]
}

fn bundle() -> ModelBundle {
    let mut rng = hpcnet_tensor::rng::seeded(7, "inline-rounds");
    ModelBundle {
        surrogate: Mlp::new(&Topology::mlp(vec![3, 4, 2]), &mut rng)
            .unwrap()
            .into(),
        autoencoder: None,
        scaler: None,
        output_scaler: None,
    }
}

/// The test's end of the parking validator.
struct Gate {
    /// One message per validator call that parked.
    parked: Receiver<()>,
    /// One message lets one parked call go.
    release: Sender<()>,
    /// Most validator calls that were ever inside at the same instant.
    max_inside: Arc<AtomicUsize>,
}

/// An f32-serving orchestrator with `workers` execution slots and one
/// guarded model whose validator obeys the input's [`Marker`].
fn serve(workers: usize) -> (Orchestrator, Gate) {
    serve_on(Orchestrator::builder().workers(workers))
}

/// [`serve`] on a builder that already says how many slots and how deep
/// a queue.
fn serve_on(builder: OrchestratorBuilder) -> (Orchestrator, Gate) {
    let orc = builder.store(TensorStore::new()).serve_f32(true).build();
    let (parked_tx, parked) = channel();
    let (release, release_rx) = channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let parked_tx = Mutex::new(parked_tx);
    let inside = AtomicUsize::new(0);
    let max_inside = Arc::new(AtomicUsize::new(0));
    let max_seen = max_inside.clone();
    let exact = bundle().surrogate;
    let guard = QualityGuard::new(move |raw: &[f64], y: &[f64]| {
        let now_inside = inside.fetch_add(1, Ordering::SeqCst) + 1;
        max_seen.fetch_max(now_inside, Ordering::SeqCst);
        // Give another round every chance to be inside at the same time.
        std::thread::yield_now();
        let verdict = match raw[0] as u8 {
            0 => true,
            1 => exact.predict(raw).as_deref() == Ok(y),
            2 => false,
            _ => {
                parked_tx.lock().unwrap().send(()).unwrap();
                let _ = release_rx.lock().unwrap().recv();
                true
            }
        };
        inside.fetch_sub(1, Ordering::SeqCst);
        verdict
    })
    .with_fallback(|raw: &[f64]| vec![raw[1] + 10.0, raw[2] - 10.0]);
    orc.register_guarded_model(MODEL, bundle(), guard);
    (
        orc,
        Gate {
            parked,
            release,
            max_inside,
        },
    )
}

/// Occupy every execution slot: one thread per slot finds the
/// orchestrator idle, executes at once, and parks inside the validator.
/// Returns once all of them are parked.
fn occupy_all_slots(
    orc: &Orchestrator,
    gate: &Gate,
    tag: usize,
) -> Vec<std::thread::JoinHandle<Result<(), RuntimeError>>> {
    let occupants: Vec<_> = (0..orc.worker_count())
        .map(|w| {
            let client = orc.client();
            let (in_key, out_key) = (format!("occ{tag}/{w}/in"), format!("occ{tag}/{w}/out"));
            client.put_tensor(&in_key, &input(Marker::Park, w)).unwrap();
            std::thread::spawn(move || client.run_model(MODEL, &in_key, &out_key))
        })
        .collect();
    for _ in &occupants {
        gate.parked.recv().unwrap();
    }
    occupants
}

fn release_all(gate: &Gate, occupants: Vec<std::thread::JoinHandle<Result<(), RuntimeError>>>) {
    for _ in &occupants {
        gate.release.send(()).unwrap();
    }
    for occupant in occupants {
        assert_eq!(occupant.join().unwrap(), Ok(()));
    }
}

fn queue_wait_samples(orc: &Orchestrator) -> (u64, u64) {
    let snap = orc.metrics_snapshot();
    let h = snap
        .find_histogram(QUEUE_WAIT_SECONDS, &[("model", MODEL)])
        .expect("queue-wait histogram");
    (h.count, h.sum)
}

/// The counters a client could tell two executions apart by.
fn counts(s: &ServingStats) -> [u64; 9] {
    [
        s.requests,
        s.batches,
        s.errors,
        s.quality_hits,
        s.quality_fallbacks,
        s.quality_rejected,
        s.f32_served,
        s.f32_fallbacks,
        s.per_model[MODEL],
    ]
}

/// What [`serve_sequence`] observed.
struct Served {
    /// Each request's result and, if it succeeded, its output.
    outputs: Vec<Result<Vec<f64>, RuntimeError>>,
    counts: [u64; 9],
    /// `(count, sum)` of the queue-wait histogram.
    waits: (u64, u64),
}

/// Serve one fixed request sequence — hits, demotions, fallbacks and a
/// missing input — each request preceded by a full set of slot
/// occupants. `queued == false`: the occupants are released before they
/// park, so everything executes at once, one round after the other.
/// `queued == true`: the occupants hold every slot while the request is
/// submitted, so it goes through the queue and its caller executes it
/// once a slot is released. Returns every output and the final stats.
fn serve_sequence(workers: usize, queued: bool) -> Served {
    let (orc, gate) = serve(workers);
    let sequence = [
        Marker::Accept,
        Marker::Exact,
        Marker::Reject,
        Marker::Accept,
        Marker::Reject,
        Marker::Exact,
    ];
    let mut outputs = Vec::new();
    for (i, marker) in sequence.into_iter().enumerate() {
        let client = orc.client();
        let (in_key, out_key) = (format!("seq/in{i}"), format!("seq/out{i}"));
        // Request 3's input is never put: a typed error, counted.
        if i != 3 {
            client.put_tensor(&in_key, &input(marker, i)).unwrap();
        }
        if !queued {
            for _ in 0..workers {
                gate.release.send(()).unwrap();
            }
        }
        let occupants = occupy_all_slots(&orc, &gate, i);
        let result = if queued {
            let run = {
                let client = orc.client();
                let (in_key, out_key) = (in_key.clone(), out_key.clone());
                std::thread::spawn(move || client.run_model(MODEL, &in_key, &out_key))
            };
            while orc.queued() < 1 {
                std::thread::yield_now();
            }
            release_all(&gate, occupants);
            run.join().unwrap()
        } else {
            for occupant in occupants {
                assert_eq!(occupant.join().unwrap(), Ok(()));
            }
            assert_eq!(orc.queued(), 0);
            client.run_model(MODEL, &in_key, &out_key)
        };
        outputs.push(result.and_then(|()| client.unpack_tensor(&out_key)));
    }
    let waits = queue_wait_samples(&orc);
    let stats = orc.shutdown();
    Served {
        outputs,
        counts: counts(&stats),
        waits,
    }
}

#[test]
fn inline_and_queued_execution_are_indistinguishable() {
    for workers in [1, 2] {
        let inline = serve_sequence(workers, false);
        let queued = serve_sequence(workers, true);
        assert_eq!(inline.outputs.len(), 6);
        for (i, (a, b)) in inline.outputs.iter().zip(&queued.outputs).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "request {i} ({workers} workers)");
                }
                (a, b) => assert_eq!(a, b, "request {i} ({workers} workers)"),
            }
        }
        assert!(matches!(
            inline.outputs[3],
            Err(RuntimeError::MissingTensor(_))
        ));
        assert_eq!(
            inline.outputs[2],
            Ok(vec![10.5, -10.5]),
            "the fallback answered"
        );
        assert_eq!(inline.counts, queued.counts, "{workers} workers");
        // 6 requests, each behind `workers` occupants, each its own round.
        // Hits: 1 accepted + 2 demoted + the occupants; 2 fallbacks; 4
        // demotions (2 exact, 2 rejected); 1 error (the missing input).
        let total = 6 * (workers as u64 + 1);
        let [requests, batches, errors, hits, fallbacks, _, f32_served, demotions, _] =
            inline.counts;
        assert_eq!(requests, total);
        assert_eq!(batches, total, "one round per request");
        assert_eq!(errors, 1);
        assert_eq!(hits, 3 + 6 * workers as u64);
        assert_eq!(fallbacks, 2);
        assert_eq!(f32_served, 1 + 6 * workers as u64);
        assert_eq!(demotions, 4);
        // Every request, inline or queued, left exactly one queue-wait
        // sample — and an inline one waited for nothing.
        assert_eq!(inline.waits, (total, 0));
        assert_eq!(queued.waits.0, total);
    }
}

#[test]
fn rounds_in_execution_never_exceed_the_worker_count() {
    for workers in [1, 2] {
        const CALLERS: usize = 8;
        const REQUESTS: usize = 40;
        let (orc, gate) = serve(workers);
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let client = orc.client();
                std::thread::spawn(move || {
                    for r in 0..REQUESTS {
                        let (in_key, out_key) = (format!("c{c}/in{r}"), format!("c{c}/out{r}"));
                        client
                            .put_tensor(&in_key, &input(Marker::Accept, r))
                            .unwrap();
                        client.run_model(MODEL, &in_key, &out_key).unwrap();
                        assert_eq!(client.unpack_tensor(&out_key).unwrap().len(), 2);
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
        let most = gate.max_inside.load(Ordering::SeqCst);
        assert!(
            (1..=workers).contains(&most),
            "{most} rounds were executing at once with {workers} workers"
        );
        let stats = orc.shutdown();
        assert_eq!(stats.requests, (CALLERS * REQUESTS) as u64);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.overload_rejected, 0);
    }
}

#[test]
fn backlog_behind_held_slots_is_coalesced_into_one_round() {
    for workers in [1, 2] {
        const CALLERS: usize = 6;
        let (orc, gate) = serve(workers);
        let occupants = occupy_all_slots(&orc, &gate, 0);
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let client = orc.client();
                let (in_key, out_key) = (format!("bl/in{c}"), format!("bl/out{c}"));
                client
                    .put_tensor(&in_key, &input(Marker::Accept, c))
                    .unwrap();
                std::thread::spawn(move || client.run_model(MODEL, &in_key, &out_key))
            })
            .collect();
        // Every slot is busy, so all of them queue up — none runs at once.
        while orc.queued() < CALLERS {
            std::thread::yield_now();
        }
        assert_eq!(orc.serving_stats().requests, 0, "nothing finished yet");
        release_all(&gate, occupants);
        for caller in callers {
            assert_eq!(caller.join().unwrap(), Ok(()));
        }
        let stats = orc.shutdown();
        assert_eq!(stats.requests, (CALLERS + workers) as u64);
        // Whichever caller gets a slot first takes everything that is
        // pending (six pairs, far below `MAX_COALESCE`) into its round; a
        // second slot's caller finds the queue empty or takes what was
        // left. One slot: exactly one round of all six.
        let rounds = stats.batches - workers as u64;
        assert!(
            (1..=workers as u64).contains(&rounds),
            "{CALLERS} queued requests took {rounds} rounds with {workers} slots"
        );
        if workers == 1 {
            assert_eq!(stats.batch_hist[2], 1, "one batch of six: [4, 8)");
        }
    }
}

/// Liveness under contention: many more callers than slots and a queue
/// far too short for them. Every call returns — no lost wake-up — with
/// `Ok` or the counted `Overloaded`, and afterwards nothing is pending
/// and every slot can be taken again.
#[test]
fn contended_callers_all_return_and_leave_the_orchestrator_idle() {
    for workers in [1, 2] {
        const CALLERS: usize = 16;
        const REQUESTS: usize = 200;
        let (orc, gate) = serve_on(Orchestrator::builder().workers(workers).queue_depth(4));
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let client = orc.client();
                std::thread::spawn(move || {
                    let (in_key, out_key) = (format!("lv{c}/in"), format!("lv{c}/out"));
                    client
                        .put_tensor(&in_key, &input(Marker::Accept, c))
                        .unwrap();
                    let (mut ok, mut overloaded) = (0u64, 0u64);
                    for _ in 0..REQUESTS {
                        match client.run_model(MODEL, &in_key, &out_key) {
                            Ok(()) => ok += 1,
                            Err(RuntimeError::Overloaded { queue_depth: 4 }) => overloaded += 1,
                            Err(e) => panic!("neither served nor shed: {e:?}"),
                        }
                    }
                    (ok, overloaded)
                })
            })
            .collect();
        let (mut ok, mut overloaded) = (0, 0);
        for caller in callers {
            let (o, v) = caller.join().unwrap();
            ok += o;
            overloaded += v;
        }
        assert_eq!(ok + overloaded, (CALLERS * REQUESTS) as u64);
        assert_eq!(orc.queued(), 0);
        let stats = orc.serving_stats();
        assert_eq!(stats.requests, ok);
        assert_eq!(stats.overload_rejected, overloaded);
        assert_eq!(stats.errors, 0);
        // Every slot is free: `workers` occupants each get one at once.
        let occupants = occupy_all_slots(&orc, &gate, 0);
        release_all(&gate, occupants);
        assert_eq!(orc.shutdown().requests, ok + workers as u64);
    }
}

#[test]
fn shutdown_waits_for_a_round_a_caller_is_executing() {
    for workers in [1, 2] {
        let (orc, gate) = serve(workers);
        let bystander = orc.client();
        bystander
            .put_tensor("late/in", &input(Marker::Accept, 0))
            .unwrap();
        let client = orc.client();
        client.put_tensor("in", &input(Marker::Park, 1)).unwrap();
        let inline = {
            let client = orc.client();
            std::thread::spawn(move || client.run_model(MODEL, "in", "out"))
        };
        gate.parked.recv().unwrap();

        let (done_tx, done) = channel();
        let shutdown = std::thread::spawn(move || {
            let stats = orc.shutdown();
            done_tx.send(()).unwrap();
            stats
        });
        // The drain has begun once the flag is up; from then on a call is
        // refused, and the drain itself cannot finish while the round is
        // still inside the validator.
        while bystander.ping().is_ok() {
            std::thread::yield_now();
        }
        assert_eq!(
            bystander.run_model(MODEL, "late/in", "late/out"),
            Err(RuntimeError::ShuttingDown)
        );
        assert_eq!(bystander.ping(), Err(RuntimeError::ShuttingDown));
        assert!(
            done.try_recv().is_err(),
            "shutdown returned with a round still executing"
        );

        gate.release.send(()).unwrap();
        assert_eq!(inline.join().unwrap(), Ok(()));
        let stats = shutdown.join().unwrap();
        assert_eq!(stats.requests, 1, "the round is in the final stats");
        assert_eq!(stats.quality_hits, 1);
        assert_eq!(client.unpack_tensor("out").unwrap().len(), 2);
        assert!(client.unpack_tensor("late/out").is_err());
    }
}
