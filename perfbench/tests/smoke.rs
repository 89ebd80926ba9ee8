//! One in-process workload end to end at reduced size, the seed
//! contract, and the names the benchmark prints against the names
//! `BENCHMARK.json` promises.
//!
//! One test function on purpose: the harness checks that the process
//! thread count returns to its starting value, and a second test thread
//! coming or going in the middle of a run would look like a leak.

use std::collections::BTreeSet;
use std::path::PathBuf;

use hpcnet_benchmark::layers::{traced, PER_LAYER};
use hpcnet_benchmark::report::{end_to_end, Options, Outcome, END_TO_END};
use hpcnet_benchmark::serve::Limit;
use hpcnet_benchmark::setup::prepare;
use hpcnet_benchmark::spec::{self, EVAL_BASE, WORKLOADS};
use serde_json::Value;

fn options(seed: u64) -> Options {
    Options {
        seed,
        limit: Limit::Passes(2),
        setup_reps: Some(1),
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spans"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Every promised name is printed with the promised unit, and nothing else.
fn assert_prints(outcome: &Outcome, promised: &Value, what: &str) {
    let promised: BTreeSet<(String, String)> = promised
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {what} list"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect();
    let printed: BTreeSet<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        printed, promised,
        "{what}: printed metrics differ from BENCHMARK.json"
    );
    for (name, unit) in &printed {
        assert!(valid_name(name), "metric name {name:?}");
        assert!(
            !unit.is_empty() && unit.len() <= 16,
            "unit {unit:?} of {name}"
        );
    }
    // The result line carries exactly these metrics, and exactly four keys.
    let line: Value = serde_json::from_str(&outcome.result_line()).expect("result line is JSON");
    let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line["metrics"].as_object().unwrap().len(), printed.len());
    for (name, unit) in &printed {
        assert_eq!(line["metrics"][name]["unit"].as_str(), Some(unit.as_str()));
        assert!(line["metrics"][name]["value"]
            .as_f64()
            .is_some_and(f64::is_finite));
    }
}

#[test]
fn smoke() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let contract: Value = serde_json::from_str(
        &std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root"),
    )
    .expect("BENCHMARK.json parses");

    // The contract's tables and the code's tables are the same tables.
    let workloads: Vec<(&str, &str)> = contract["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| (w["name"].as_str().unwrap(), w["why"].as_str().unwrap()))
        .collect();
    let in_code: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, in_code);
    for (name, why) in &workloads {
        assert!(valid_name(name) && why.len() <= 200 && !why.contains('\n'));
    }
    for w in WORKLOADS.iter() {
        assert_eq!(w.pass % w.batch, 0, "{}: a pass is whole steps", w.name);
        assert!(w.misses <= w.pass && w.slice <= w.pass && w.setup_reps >= 1);
    }
    assert!(contract["end_to_end"]
        .as_array()
        .unwrap()
        .iter()
        .any(|m| { m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower" }));
    for m in contract["end_to_end"].as_array().unwrap() {
        let bound = m["bound"].as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m["name"]);
    }

    // One in-process workload end to end, at reduced size.
    let fluid = spec::find("inproc_batch_fluid").expect("workload exists");
    let first = end_to_end(fluid, &options(7)).expect("end-to-end run");
    assert!(first.correct(), "notes: {:?}", first.notes);
    assert!(first.attempted > 0 && first.failed == 0);
    assert_prints(&first, &contract["end_to_end"], "end_to_end");
    assert_eq!(first.metrics.len(), END_TO_END.len());
    for m in &first.metrics {
        assert!(m.value > 0.0, "{} must never read 0", m.name);
    }
    assert_eq!(
        first.metric("hit_rate"),
        Some(1.0),
        "fluidanimate's surrogate never misses"
    );
    assert!(first.metric("speedup_eqn2").unwrap() > 1.0);

    // The traced pass prints every per-layer metric and writes the spans.
    let layers = traced(fluid, &options(7)).expect("traced run");
    assert!(layers.correct(), "notes: {:?}", layers.notes);
    assert_prints(&layers, &contract["per_layer"], "per_layer");
    assert_eq!(layers.metrics.len(), PER_LAYER.len());
    let spans: Value = serde_json::from_str(
        &std::fs::read_to_string(options(7).out_dir.join("inproc_batch_fluid.trace.json"))
            .expect("span file"),
    )
    .expect("span file is JSON");
    let recorded = spans["spans"].as_array().unwrap();
    assert_eq!(
        recorded.len() as u64,
        4 * spans["steps_recorded"].as_u64().unwrap()
    );
    assert_eq!(recorded[0]["name"], "step");
    assert_eq!(recorded[1]["parent"], recorded[0]["id"]);
    let split: f64 = [
        "runtime.client_put_us",
        "runtime.client_run_us",
        "runtime.client_unpack_us",
    ]
    .iter()
    .map(|n| layers.metric(n).unwrap())
    .sum();
    let step = layers.metric("runtime.client_step_p50_us").unwrap();
    assert!(
        (split / step - 1.0).abs() < 0.10,
        "put + run + unpack = {split}, step = {step}"
    );
    assert_eq!(
        layers.metric("runtime.mean_batch_size"),
        Some(fluid.batch as f64)
    );
    assert_eq!(
        layers.metric("cluster.routing_us"),
        Some(0.0),
        "no cluster on this path"
    );

    // The seed contract: the same seed gives the same inputs and the same
    // counts; another seed gives other inputs, all from the evaluation range.
    let again = end_to_end(fluid, &options(7)).expect("second run");
    let layers_again = traced(fluid, &options(7)).expect("second traced run");
    assert_eq!(again.metric("hit_rate"), first.metric("hit_rate"));
    assert_eq!(
        (again.attempted, again.failed),
        (first.attempted, first.failed)
    );
    for counted in [
        "runtime.mean_batch_size",
        "runtime.quality_fallbacks",
        "net.bytes_per_step",
        "nn.flops_per_sample",
        "apps.region_flops",
    ] {
        assert_eq!(
            layers_again.metric(counted),
            layers.metric(counted),
            "{counted}"
        );
    }
    let qmc = spec::find("loopback_step_qmc").expect("workload exists");
    let (a, b, c) = (
        prepare(qmc, 7).unwrap(),
        prepare(qmc, 7).unwrap(),
        prepare(qmc, 8).unwrap(),
    );
    let inputs = |p: &hpcnet_benchmark::setup::Prepared| -> Vec<Vec<f64>> {
        p.eval.problems.iter().map(|p| p.input.clone()).collect()
    };
    assert_eq!(inputs(&a), inputs(&b));
    assert_ne!(inputs(&a), inputs(&c));
    assert_eq!(
        a.eval.misses(),
        qmc.misses,
        "the pass has the workload's traffic mix"
    );
    assert_eq!(c.eval.misses(), qmc.misses);
    assert_eq!(a.eval.problems.len(), qmc.pass);
    let mut drawn = a.eval.problems.iter().chain(&c.eval.problems);
    assert!(drawn.all(|p| p.index >= EVAL_BASE));
}
