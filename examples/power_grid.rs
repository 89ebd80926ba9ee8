//! Listing-2-style deployment: spin up the orchestrator ("database"),
//! load a pre-trained surrogate from its serialized form, and let an
//! application loop request inferences through the client — the
//! SmartSim/RedisAI usage pattern of paper §6.3, here driving the AMG
//! linear-solver region (the paper's power-grid/Smart-PGSim lineage).
//!
//! ```text
//! cargo run --release -p auto-hpcnet --example power_grid
//! ```

use auto_hpcnet::config::PipelineConfig;
use auto_hpcnet::pipeline::AutoHpcnet;
use hpcnet_apps::{AmgApp, HpcApp};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{Client, Orchestrator, TensorStore};

fn main() {
    // Offline (done once, possibly on another machine): build and save.
    let app = AmgApp::default();
    println!("training the AMG surrogate offline ...");
    let mut cfg = PipelineConfig::quick();
    cfg.mu = 0.10;
    cfg.search.k_bounds = (8, 32);
    let surrogate = match AutoHpcnet::new(cfg.clone()).build_surrogate(&app) {
        Ok(s) => s,
        Err(_) => {
            // Relax once if the strict bound is infeasible at quick budgets.
            cfg.mu = 0.30;
            AutoHpcnet::new(cfg)
                .build_surrogate(&app)
                .expect("relaxed build succeeds")
        }
    };
    let saved_net = surrogate.bundle.to_json(); // "./saved_net.pt" analog
    println!(
        "saved bundle: {} bytes of JSON (K = {}, topology {:?})",
        saved_net.len(),
        surrogate.k,
        surrogate.topology.widths
    );

    // --- Listing 2: create and start a database ---
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(2)
        .queue_depth(64)
        .build();

    // --- load a pretrained model from file, behind a quality guard:
    //     the orchestrator itself restarts the original region when the
    //     surrogate answer fails the residual-style sanity check ---
    orc.register_model_from_json("AI-CFD-net", &saved_net)
        .expect("bundle loads");
    let guard_app = AmgApp::default();
    orc.set_quality_guard(
        "AI-CFD-net",
        hpcnet_runtime::QualityGuard::new(|_, y| y.iter().all(|v| v.is_finite()))
            .with_fallback(move |raw| guard_app.run_region_exact(raw)),
    )
    .expect("model is registered");

    // --- the application loop: put → run → unpack ---
    let client = Client::connect(&orc);
    let mut worst_rel = 0.0f64;
    for step in 0..8 {
        let x = app.gen_problem(4_000 + step);
        // Feature reduction and format transformation happen server-side:
        // the client ships the CSR row, never the dense unrolling.
        let sparse_tensor = app.sparse_row(&x).expect("AMG inputs are sparse");
        client
            .put_sparse_tensor("input_feature", sparse_tensor)
            .expect("store accepts the tensor");
        client
            .run_model("AI-CFD-net", "input_feature", "output_tensor")
            .expect("inference");
        let y_pred = client.unpack_tensor("output_tensor").expect("output");

        let y_exact = app.run_region_exact(&x);
        let v_pred = app.qoi(&x, &y_pred);
        let v_exact = app.qoi(&x, &y_exact);
        let rel = (v_pred - v_exact).abs() / v_exact.abs().max(1e-12);
        worst_rel = worst_rel.max(rel);
        println!(
            "step {step}: QoI surrogate {v_pred:.4} vs exact {v_exact:.4} (rel err {:.2}%)",
            100.0 * rel
        );
    }
    let p = orc.online_timers().percentages();
    println!(
        "\nonline split: fetch {:.1}%  encode {:.1}%  load {:.1}%  infer {:.1}%  (paper: 21.2/10.1/1.6/67.1)",
        p[0], p[1], p[2], p[3]
    );
    println!(
        "worst relative QoI error over the run: {:.2}%",
        100.0 * worst_rel
    );
}
