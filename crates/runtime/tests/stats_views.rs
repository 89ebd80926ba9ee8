//! One recording, many views (DESIGN.md §11): an executed group is
//! written once — its stage times into the registry histograms and into
//! the request's span tree. `online_timers()`, `serving_stats()` and
//! `slow_log()` are computed from those on demand, so they must agree
//! with the registry and with each other to the nanosecond.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use hpcnet_nn::{Mlp, Topology};
use hpcnet_runtime::metrics::{
    BATCHES_TOTAL, ERRORS_TOTAL, F32_FALLBACKS_TOTAL, F32_SERVED_TOTAL, MODEL_LOAD_SECONDS,
    QUALITY_FALLBACKS_TOTAL, QUALITY_HITS_TOTAL, QUEUE_WAIT_SECONDS, REQUESTS_TOTAL, STAGE_SECONDS,
};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{
    ModelBundle, OnlineTimers, Orchestrator, QualityGuard, RegistrySnapshot, RuntimeError,
    ServingStats, TensorStore,
};
use hpcnet_telemetry::Stage;

/// The spelling of every stage on the wire, in `Traces`/`STATS` JSON and
/// in the Prometheus `stage` label. Renaming a variant's string is a
/// compatibility break and must fail here, not pass silently.
const WIRE_NAMES: [&str; 10] = [
    "request",
    "queue_wait",
    "fetch",
    "encode",
    "infer",
    "infer_f32",
    "guard",
    "fallback",
    "shard",
    "retrain",
];

#[test]
fn stage_wire_spelling_is_pinned() {
    assert_eq!(Stage::ALL.map(Stage::as_str), WIRE_NAMES);
    for stage in Stage::ALL {
        assert_eq!(Stage::from_name(stage.as_str()), Some(stage));
    }
    assert_eq!(Stage::from_name("made-up"), None);
}

fn bundle(seed: u64) -> ModelBundle {
    let mut rng = hpcnet_tensor::rng::seeded(seed, "views");
    ModelBundle {
        surrogate: Mlp::new(&Topology::mlp(vec![3, 4, 2]), &mut rng)
            .unwrap()
            .into(),
        autoencoder: None,
        scaler: None,
        output_scaler: None,
    }
}

/// `(count, sum)` over every histogram of family `name` carrying all of
/// `labels`.
fn histogram_total(snap: &RegistrySnapshot, name: &str, labels: &[(&str, &str)]) -> (u64, u64) {
    let carries = |have: &[(String, String)], (k, v): &(&str, &str)| {
        have.iter().any(|(hk, hv)| hk == k && hv == v)
    };
    snap.histograms
        .iter()
        .filter(|h| h.name == name && labels.iter().all(|l| carries(&h.labels, l)))
        .fold((0, 0), |(count, sum), h| {
            (count + h.histogram.count, sum + h.histogram.sum)
        })
}

#[test]
fn views_equal_the_one_recording() {
    // One worker and one request at a time: every request is its own
    // group. A zero slow threshold retains (and slow-logs) every trace.
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(1)
        .serve_f32(true)
        .slow_request_threshold(Duration::ZERO)
        .build();
    orc.register_model("plain", bundle(1));
    orc.register_guarded_model(
        "fallback",
        bundle(2),
        QualityGuard::new(|_, _| false).with_fallback(|raw| {
            std::thread::sleep(Duration::from_millis(2));
            raw.iter().map(|v| v + 10.0).collect()
        }),
    );
    // Accepts only the bit-exact f64 answer: the f32 output is demoted.
    let exact = bundle(3).surrogate;
    orc.register_guarded_model(
        "demote",
        bundle(3),
        QualityGuard::new(move |raw, y| exact.predict(raw).as_deref() == Ok(y)),
    );
    orc.register_model_from_json("json", &bundle(4).to_json())
        .unwrap();

    let client = orc.client();
    client.put_tensor("in", &[0.5, -0.25, 0.125]).unwrap();
    for model in ["plain", "fallback", "demote", "json"] {
        client.run_model(model, "in", "out").unwrap();
    }
    assert!(matches!(
        client.run_model("plain", "gone", "out"),
        Err(RuntimeError::MissingTensor(_))
    ));
    assert_eq!(
        client.run_model("ghost", "in", "out"),
        Err(RuntimeError::MissingModel("ghost".into()))
    );

    let snap = orc.metrics_snapshot();

    // online_timers(): the stage sums under the §7.3 grouping.
    let stage_sum = |stage: Stage| {
        Duration::from_nanos(histogram_total(&snap, STAGE_SECONDS, &[("stage", stage.as_str())]).1)
    };
    let timers = OnlineTimers::from_registry_snapshot(&snap);
    assert_eq!(timers, orc.online_timers(), "the server is quiescent");
    assert_eq!(timers.fetch, stage_sum(Stage::Fetch));
    assert_eq!(timers.encode, stage_sum(Stage::Encode));
    assert_eq!(
        timers.infer,
        stage_sum(Stage::Infer)
            + stage_sum(Stage::InferF32)
            + stage_sum(Stage::Guard)
            + stage_sum(Stage::Fallback)
    );
    for stage in [Stage::Fetch, Stage::InferF32, Stage::Guard] {
        assert!(stage_sum(stage) > Duration::ZERO, "{stage:?} did work");
    }
    assert!(stage_sum(Stage::Fallback) >= Duration::from_millis(2));
    let (loads, load_nanos) = histogram_total(&snap, MODEL_LOAD_SECONDS, &[]);
    assert_eq!(loads, 4, "each registration is charged exactly once");
    assert_eq!(timers.model_load, Duration::from_nanos(load_nanos));

    // serving_stats(): the counter totals.
    let stats = ServingStats::from_registry_snapshot(&snap);
    for (view, name, expected) in [
        (stats.requests, REQUESTS_TOTAL, 6),
        (stats.errors, ERRORS_TOTAL, 2),
        (stats.batches, BATCHES_TOTAL, 6),
        (stats.quality_hits, QUALITY_HITS_TOTAL, 1),
        (stats.quality_fallbacks, QUALITY_FALLBACKS_TOTAL, 1),
        (stats.f32_served, F32_SERVED_TOTAL, 2),
        (stats.f32_fallbacks, F32_FALLBACKS_TOTAL, 2),
    ] {
        assert_eq!(view, snap.counter_total(name), "{name}");
        assert_eq!(view, expected, "{name}");
    }
    assert_eq!(orc.serving_stats().busy, stats.busy);
    // The stage slots are disjoint pieces of the busy window. Were `infer`
    // the gross forward wall, the 2 ms fallback would be counted twice and
    // the parts would exceed the whole.
    assert!(timers.fetch + timers.encode + timers.infer <= stats.busy);

    // Traces: the same stage times, as the request span's children.
    let traces = orc.trace_dump();
    assert_eq!(traces.len(), 6, "every request's trace is retained");
    for t in &traces {
        let request = t.span_named(Stage::Request).expect("request span");
        let model = &request.annotations[0];
        assert_eq!(model.0, "model");
        let children = t.children_of(request.span_id);
        let order: Vec<usize> = children
            .iter()
            .map(|span| {
                let stage = Stage::from_name(&span.name);
                let slot = Stage::REQUEST_STAGES.iter().position(|s| Some(*s) == stage);
                slot.expect("a per-request stage")
            })
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{children:?}");
        // Every model but `plain` served exactly one request, which was
        // its own group: that trace's children are the histograms' only
        // samples.
        for span in children.iter().filter(|_| model.1 != "plain") {
            let recorded = if span.name == Stage::QueueWait.as_str() {
                histogram_total(&snap, QUEUE_WAIT_SECONDS, &[("model", model.1.as_str())])
            } else {
                let labels = [("model", model.1.as_str()), ("stage", span.name.as_str())];
                histogram_total(&snap, STAGE_SECONDS, &labels)
            };
            assert_eq!(recorded, (1, span.duration_nanos), "{model:?} {span:?}");
        }
    }

    // Slow log: one line per retained slow request trace.
    let log = orc.slow_log();
    assert_eq!(log.len(), 6);
    let ghost: serde_json::Value = serde_json::from_str(&log[5]).unwrap();
    assert_eq!(ghost["slow_request"]["model"], "ghost");
    assert!(ghost["slow_request"]["error"].as_str().is_some());

    // Exposition: only known stages label a series.
    let text = orc.metrics_text();
    let mut labels = text.split("stage=\"").skip(1).peekable();
    assert!(labels.peek().is_some());
    for label in labels.filter_map(|rest| rest.split('"').next()) {
        assert!(WIRE_NAMES.contains(&label), "unknown stage label `{label}`");
    }
    assert!(text.contains("# HELP hpcnet_serving_model_load_seconds "));
}
