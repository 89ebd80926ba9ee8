//! Cross-crate integration tests: the full Auto-HPCnet workflow from
//! feature acquisition through deployment and evaluation.

use auto_hpcnet::acquisition::acquire;
use auto_hpcnet::config::PipelineConfig;
use auto_hpcnet::evaluate::{evaluate, evaluate_predictor};
use auto_hpcnet::pipeline::AutoHpcnet;
use hpcnet_apps::{BlackscholesApp, HpcApp, MiniQmcApp, StreamclusterApp};
use hpcnet_nas::{NasTask, TwoDNas};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{Orchestrator, TensorStore};
use hpcnet_tensor::Matrix;
use hpcnet_trace::{kernels, PerturbSpec};

/// The complete paper workflow on a mini-IR kernel: trace → DDDG →
/// identify → samples → 2D NAS → deploy → serve.
#[test]
fn ir_kernel_full_workflow() {
    // 1-2. Acquisition on the Black-Scholes-like IR kernel.
    let k = kernels::blackscholes_like();
    let data = acquire(
        &k.program,
        k.setup,
        160,
        PerturbSpec {
            mean: 0.0,
            std: 0.1,
        },
        &[],
        42,
    )
    .unwrap();
    assert_eq!(data.signature.input_width(), 5);
    assert_eq!(data.signature.output_width(), 1);

    // 3. NAS over the acquired samples.
    let x = Matrix::from_rows(&data.samples.inputs).unwrap();
    let y = Matrix::from_rows(&data.samples.outputs).unwrap();
    let task = NasTask {
        quality: Box::new(NasTask::holdout_quality(x.clone(), y.clone(), 30)),
        inputs: x.clone(),
        sparse_inputs: None,
        outputs: y,
    };
    let mut search = hpcnet_nas::SearchConfig::default();
    search.outer_budget = 2;
    search.inner_budget = 3;
    search.bayesian_init = 2;
    search.quality_loss = 0.25;
    search.k_bounds = (2, 5);
    let mut model = hpcnet_nas::ModelConfig::default();
    model.train.epochs = 80;
    model.ae_epochs = 40;
    let outcome = TwoDNas::new(search, model).search(&task).unwrap();
    assert!(outcome.f_e <= 0.25, "f_e = {}", outcome.f_e);

    // 4. Deploy through the orchestrator and serve an inference.
    let orc = Orchestrator::builder().store(TensorStore::new()).build();
    orc.register_model(
        "ir-net",
        hpcnet_runtime::ModelBundle {
            surrogate: outcome.surrogate,
            autoencoder: outcome.autoencoder,
            scaler: Some(outcome.scaler),
            output_scaler: Some(outcome.output_scaler),
        },
    );
    let client = orc.client();
    client.put_tensor("in", x.row(0)).unwrap();
    client.run_model("ir-net", "in", "out").unwrap();
    assert_eq!(client.unpack_tensor("out").unwrap().len(), 1);
}

/// Native-application path: build, deploy, evaluate — quality must hold.
#[test]
fn blackscholes_pipeline_meets_quality() {
    let app = BlackscholesApp;
    let framework = AutoHpcnet::new(PipelineConfig::quick());
    let surrogate = framework.build_surrogate(&app).unwrap();
    let eval = evaluate(&app, &surrogate, 40, 0.10, false).unwrap();
    assert!(eval.hit_rate >= 0.9, "hit rate {}", eval.hit_rate);
    assert!(eval.t_infer > 0.0 && eval.t_solver > 0.0);
    assert_eq!(eval.n_problems, 40);
}

/// The surrogate must be cheaper per inference than the region it
/// replaces for a compute-heavy app (FLOP-level check, no timing noise).
#[test]
fn surrogate_is_cheaper_than_the_region() {
    let app = StreamclusterApp::default();
    let mut cfg = PipelineConfig::quick();
    cfg.mu = 0.5; // clustering QoI is noisy; the check here is about cost
    cfg.model.train.epochs = 100;
    let framework = AutoHpcnet::new(cfg);
    let surrogate = framework.build_surrogate(&app).unwrap();
    let x = app.gen_problem(12345);
    let (_, region_flops) = app.run_region_counted(&x);
    assert!(
        (surrogate.f_c as u64) < region_flops,
        "surrogate {} FLOPs vs region {} FLOPs",
        surrogate.f_c,
        region_flops
    );
}

/// Serialization round trip: a deployed bundle survives the JSON
/// checkpoint format (save/share across applications, paper §6.1).
#[test]
fn bundle_checkpoint_roundtrip() {
    let app = MiniQmcApp::default();
    let mut cfg = PipelineConfig::quick();
    cfg.mu = 0.30;
    let framework = AutoHpcnet::new(cfg);
    let surrogate = framework.build_surrogate(&app).unwrap();
    let json = surrogate.bundle.to_json();
    let restored = hpcnet_runtime::ModelBundle::from_json(&json).unwrap();
    let x = app.gen_problem(777);
    let direct = surrogate.predict(&x).unwrap();
    let orc = Orchestrator::builder().store(TensorStore::new()).build();
    orc.register_model("qmc", restored);
    let client = orc.client();
    client.put_tensor("in", &x).unwrap();
    client.run_model("qmc", "in", "out").unwrap();
    let restored_out = client.unpack_tensor("out").unwrap();
    for (a, b) in restored_out.iter().zip(&direct) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "restored {a} vs direct {b}"
        );
    }
}

/// Eqn 2/3 sanity: a predictor that is exactly the region gives
/// hit rate 1 and speedup near 1 (same work both sides).
#[test]
fn evaluation_identities() {
    let app = MiniQmcApp::default();
    let eval = evaluate_predictor(&app, |x| Some(app.run_region_exact(x)), 20, 0.10);
    assert_eq!(eval.hit_rate, 1.0);
    assert!(
        eval.speedup > 0.5 && eval.speedup < 2.0,
        "speedup {}",
        eval.speedup
    );
}

/// The CNN surrogate family (`-initModel cnn`, Table 1) works through the
/// whole pipeline on a field-structured region and deploys through the
/// orchestrator like any MLP bundle.
#[test]
fn cnn_family_pipeline_on_mg() {
    let app = hpcnet_apps::MgApp::new(8);
    let mut cfg = PipelineConfig::quick();
    cfg.model.family = hpcnet_nas::ModelFamily::Cnn;
    cfg.model.train.epochs = 80;
    cfg.mu = 0.25;
    let surrogate = AutoHpcnet::new(cfg).build_surrogate(&app).unwrap();
    assert_eq!(surrogate.bundle.surrogate.family(), "cnn");
    assert!(surrogate.f_e <= 0.25, "f_e = {}", surrogate.f_e);

    // Deploy: the orchestrator serves CNNs through the same bundle path.
    let orc = Orchestrator::builder().store(TensorStore::new()).build();
    orc.register_model_from_json("mg-cnn", &surrogate.bundle.to_json())
        .unwrap();
    let x = app.gen_problem(31337);
    let client = orc.client();
    client.put_tensor("in", &x).unwrap();
    client.run_model("mg-cnn", "in", "out").unwrap();
    let served = client.unpack_tensor("out").unwrap();
    let direct = surrogate.predict(&x).unwrap();
    for (a, b) in served.iter().zip(&direct) {
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0));
    }
}
