//! End-to-end online retraining (DESIGN.md §17): a weak surrogate's
//! guard fallbacks feed the replay buffer, a fine-tune pass hot-swaps an
//! improved candidate to a higher version with measurably fewer
//! fallbacks, and a candidate trained on poisoned labels regresses its
//! probation window and is rolled back automatically — all without a
//! single failed request or worker restart.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use hpcnet_nn::train::Preprocessing;
use hpcnet_nn::{Mlp, SurrogateNet, Topology, TrainConfig, Trainer};
use hpcnet_runtime::{
    ClientApi, ModelBundle, Orchestrator, QualityGuard, RetrainConfig, TensorStore,
};
use hpcnet_tensor::Matrix;

const MODEL: &str = "retrain-e2e";
const TOLERANCE: f64 = 0.25;

/// The "original code region" the surrogate imitates.
fn exact(x: &[f64]) -> Vec<f64> {
    vec![1.0 + 0.5 * x[0] - 0.25 * x[1] + 0.1 * x[2]]
}

fn probe_input(i: u64) -> Vec<f64> {
    let t = i as f64;
    vec![(t * 0.37).sin(), (t * 0.61).cos(), (t * 0.17).sin()]
}

/// A surrogate pre-trained on wrong labels (constant zero): `exact` is
/// at least 0.15 everywhere on the probe distribution, so with a 0.25
/// tolerance (nearly) every guarded answer misses and falls back.
fn weak_bundle() -> ModelBundle {
    let mut rng = hpcnet_tensor::rng::seeded(11, "retrain-e2e");
    let mut mlp = Mlp::new(&Topology::mlp(vec![3, 8, 1]), &mut rng).expect("topology");
    let xs: Vec<Vec<f64>> = (0..64).map(probe_input).collect();
    let zeros = vec![vec![0.0]; xs.len()];
    Trainer::new(TrainConfig {
        epochs: 80,
        lr: 1e-2,
        train_ratio: 1.0,
        preprocessing: Preprocessing::None,
        patience: 0,
        ..TrainConfig::default()
    })
    .fit(
        &mut mlp,
        &Matrix::from_rows(&xs).expect("x"),
        &Matrix::from_rows(&zeros).expect("y"),
    )
    .expect("weak pre-training");
    ModelBundle {
        surrogate: SurrogateNet::from(mlp),
        autoencoder: None,
        scaler: None,
        output_scaler: None,
    }
}

fn retrain_config() -> RetrainConfig {
    RetrainConfig {
        min_samples: 24,
        min_interval: Duration::ZERO,
        epochs: 400,
        lr: 1e-2,
        batch_size: 16,
        probation_window: 16,
        // Deterministic tests drive `retrain_now()` themselves; park the
        // background thread so it cannot race the assertions.
        tick: Duration::from_secs(3600),
        ..RetrainConfig::default()
    }
}

/// Drive `n` guarded requests; every one must succeed — a fallback is
/// an answer, not an error. Returns how many fell back.
fn drive(orc: &Orchestrator, offset: u64, n: u64) -> u64 {
    let client = orc.client();
    let before = orc.serving_stats().quality_fallbacks;
    for i in 0..n {
        let in_key = format!("rt/in{}", offset + i);
        let out_key = format!("rt/out{}", offset + i);
        client
            .put_tensor(&in_key, &probe_input(offset + i))
            .expect("put");
        client.run_model(MODEL, &in_key, &out_key).expect("run");
        let y = client.unpack_tensor(&out_key).expect("unpack");
        assert_eq!(y.len(), 1, "guarded answers keep the output shape");
        assert!(y[0].is_finite());
    }
    orc.serving_stats().quality_fallbacks - before
}

fn metric_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(name))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

#[test]
fn fallbacks_retrain_hot_swap_and_regressions_roll_back() {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(2)
        .online_retraining(retrain_config())
        .build();
    assert!(orc.retrains_online());
    let guard = QualityGuard::new(|x, y| (y[0] - exact(x)[0]).abs() <= TOLERANCE)
        .with_fallback(|x| exact(x));
    orc.register_guarded_model(MODEL, weak_bundle(), guard);
    assert_eq!(orc.model_versions()[MODEL], 1);

    // Phase 1: the weak surrogate misses; every fallback is captured.
    const PHASE: u64 = 48;
    let before = drive(&orc, 0, PHASE);
    assert!(
        before >= 40,
        "the weak surrogate should miss nearly always, missed {before}/{PHASE}"
    );
    assert!(orc.replay_buffered(MODEL) >= 24);

    // One deterministic retrain pass: fine-tune on the captured exact
    // answers, beat the served net on the holdout, hot-swap to v2.
    orc.retrain_now();
    assert_eq!(
        orc.model_versions()[MODEL],
        2,
        "accepted swap bumps the version"
    );
    let stats = orc.serving_stats();
    assert_eq!(stats.retrain_swaps, 1);
    assert_eq!(stats.retrain_runs, 1);
    assert!(stats.retrain_samples >= PHASE - 8);
    assert_eq!(stats.model_versions[MODEL], 2);

    // Phase 2: the candidate was tuned on the exact region's own
    // answers — measurably fewer fallbacks, and its probation window
    // (16 guarded requests) passes against the ~100%-miss baseline.
    let after = drive(&orc, PHASE, 32);
    assert!(
        after < 32,
        "the fine-tuned candidate must win back at least some requests"
    );
    assert!(
        (after as f64) / 32.0 < (before as f64) / (PHASE as f64),
        "fallback rate must drop after the hot-swap: {after}/32 vs {before}/{PHASE}"
    );
    assert_eq!(
        orc.model_versions()[MODEL],
        2,
        "a passing probation keeps the candidate"
    );
    assert_eq!(orc.serving_stats().retrain_rollbacks, 0);

    // Phase 3: poison the labels — an always-rejecting validator whose
    // fallback answers (and therefore labels) are offset by 5.0. The
    // fine-tuner dutifully fits the poison (it beats the served net on
    // the poisoned holdout), swaps to v3 ...
    orc.set_quality_guard(
        MODEL,
        QualityGuard::new(|_, _| false).with_fallback(|x| vec![exact(x)[0] + 5.0]),
    )
    .expect("guard swap");
    let poisoned = drive(&orc, 1000, 24);
    assert_eq!(poisoned, 24, "the poisoned guard rejects everything");
    orc.retrain_now();
    assert_eq!(
        orc.model_versions()[MODEL],
        3,
        "the poisoned candidate swaps in"
    );
    assert_eq!(orc.serving_stats().retrain_swaps, 2);

    // ... and its probation window (all misses, vs a baseline diluted by
    // phase 2's hits) regresses: the displaced v2 entry is reinstalled
    // and the version observably drops back.
    drive(&orc, 2000, 16);
    assert_eq!(
        orc.model_versions()[MODEL],
        2,
        "a regressing candidate rolls back to the displaced version"
    );
    let stats = orc.serving_stats();
    assert_eq!(stats.retrain_rollbacks, 1);
    assert_eq!(stats.model_versions[MODEL], 2);

    // Restore an honest guard: the rolled-back v2 still serves well.
    orc.set_quality_guard(
        MODEL,
        QualityGuard::new(|x, y| (y[0] - exact(x)[0]).abs() <= TOLERANCE)
            .with_fallback(|x| exact(x)),
    )
    .expect("guard restore");
    let healed = drive(&orc, 3000, 16);
    assert!(healed < 16, "the reinstalled v2 keeps its quality");

    // The whole story is visible on the metrics surface, through the
    // in-process client exactly as through the remote ones.
    let client = orc.client();
    let text = client.metrics_text().expect("metrics");
    assert_eq!(metric_total(&text, "hpcnet_retrain_swaps_total"), 2.0);
    assert_eq!(metric_total(&text, "hpcnet_retrain_rollbacks_total"), 1.0);
    assert!(metric_total(&text, "hpcnet_retrain_samples_total") > 0.0);
    assert!(metric_total(&text, "hpcnet_retrain_runs_total") >= 2.0);
    assert!(text.contains("hpcnet_model_version"));
    assert_eq!(client.model_versions().expect("versions")[MODEL], 2);
    // Swap and rollback each left a must-retain trace in the recorder.
    let dump = orc.trace_dump();
    assert!(
        dump.iter()
            .any(|t| t.tags.iter().any(|tag| tag == "retrain")),
        "retrain traces must be retained"
    );

    let final_stats = orc.shutdown();
    assert_eq!(
        final_stats.requests,
        PHASE + 32 + 24 + 16 + 16,
        "every request was answered; none failed, nothing restarted"
    );
}

#[test]
fn background_thread_retrains_without_manual_triggering() {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(2)
        .online_retraining(RetrainConfig {
            min_samples: 24,
            min_interval: Duration::ZERO,
            epochs: 200,
            lr: 1e-2,
            probation_window: 8,
            tick: Duration::from_millis(10),
            ..RetrainConfig::default()
        })
        .build();
    let guard = QualityGuard::new(|x, y| (y[0] - exact(x)[0]).abs() <= TOLERANCE)
        .with_fallback(|x| exact(x));
    orc.register_guarded_model(MODEL, weak_bundle(), guard);

    drive(&orc, 0, 48);
    let deadline = Instant::now() + Duration::from_secs(30);
    while orc.model_versions()[MODEL] < 2 {
        assert!(
            Instant::now() < deadline,
            "background retrainer never swapped"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(orc.serving_stats().retrain_swaps >= 1);
    orc.shutdown();
}

#[test]
fn re_registration_resets_the_online_state() {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .online_retraining(retrain_config())
        .build();
    let guard = QualityGuard::new(|_, _| false).with_fallback(|x| exact(x));
    orc.register_guarded_model(MODEL, weak_bundle(), guard.clone());
    drive(&orc, 0, 8);
    assert!(orc.replay_buffered(MODEL) > 0);
    // Re-registering replaces the bundle: samples captured under the old
    // one are dropped and the version still advances.
    orc.register_guarded_model(MODEL, weak_bundle(), guard);
    assert_eq!(orc.replay_buffered(MODEL), 0);
    assert_eq!(orc.model_versions()[MODEL], 2);
    orc.shutdown();
}

#[test]
fn non_finite_fallback_labels_never_enter_the_replay_buffer() {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .online_retraining(retrain_config())
        .build();
    // Rejects everything; the fallback answers NaN for a negative first
    // element and the exact region otherwise.
    let guard = QualityGuard::new(|_, _| false).with_fallback(|x| {
        if x[0] < 0.0 {
            vec![f64::NAN]
        } else {
            exact(x)
        }
    });
    orc.register_guarded_model(MODEL, weak_bundle(), guard);
    let client = orc.client();
    // (input, is the pair captured?): a NaN label and an Inf feature row
    // are dropped uncounted, a finite pair on the same model is kept.
    let cases = [
        ([-1.0, 0.5, 0.5], 0),
        ([1.0, f64::INFINITY, 0.5], 0),
        ([1.0, 0.5, 0.5], 1),
    ];
    for (i, (x, captured)) in cases.into_iter().enumerate() {
        client.put_tensor("nf/in", &x).expect("put");
        client
            .run_model(MODEL, "nf/in", "nf/out")
            .expect("still answered");
        assert_eq!(orc.serving_stats().quality_fallbacks, i as u64 + 1);
        assert_eq!(orc.replay_buffered(MODEL), captured, "input {x:?}");
        assert_eq!(orc.serving_stats().retrain_samples, captured as u64);
    }
    orc.shutdown();
}

#[test]
fn concurrent_clients_never_fail_across_a_swap() {
    // Hammer the model from several threads while a swap and a guard
    // change land mid-stream: the atomic pointer exchange means no
    // request may error and every answer keeps its shape.
    let orc = Arc::new(
        Orchestrator::builder()
            .store(TensorStore::new())
            .workers(2)
            .online_retraining(retrain_config())
            .build(),
    );
    let guard = QualityGuard::new(|x, y| (y[0] - exact(x)[0]).abs() <= TOLERANCE)
        .with_fallback(|x| exact(x));
    orc.register_guarded_model(MODEL, weak_bundle(), guard);
    drive(&orc, 0, 32);

    let handles: Vec<_> = (0..3u64)
        .map(|c| {
            let orc = Arc::clone(&orc);
            std::thread::spawn(move || {
                let client = orc.client();
                for i in 0..64u64 {
                    let k = 10_000 + c * 1_000 + i;
                    let in_key = format!("cc/in{k}");
                    let out_key = format!("cc/out{k}");
                    client.put_tensor(&in_key, &probe_input(k)).expect("put");
                    client.run_model(MODEL, &in_key, &out_key).expect("run");
                    assert_eq!(client.unpack_tensor(&out_key).expect("unpack").len(), 1);
                }
            })
        })
        .collect();
    // Land the swap while the clients are mid-flight.
    orc.retrain_now();
    for h in handles {
        h.join().expect("client thread");
    }
    assert!(orc.model_versions()[MODEL] >= 2);
    Arc::try_unwrap(orc)
        .map_err(|_| "orchestrator still shared")
        .expect("sole owner")
        .shutdown();
}
