//! CG surrogate: the sparse-input flagship scenario — replace an NPB-style
//! conjugate-gradient solver with a surrogate whose autoencoder consumes
//! the CSR input directly (paper §4), then measure Eqn 2 speedup and
//! Eqn 3 HitRate with and without restart-on-miss.
//!
//! ```text
//! cargo run --release -p auto-hpcnet --example cg_surrogate
//! ```

use auto_hpcnet::config::PipelineConfig;
use auto_hpcnet::evaluate::evaluate;
use auto_hpcnet::pipeline::AutoHpcnet;
use hpcnet_apps::{CgApp, HpcApp};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{Orchestrator, TensorStore};

fn main() {
    let app = CgApp::default();
    println!(
        "application: {} — region `{}`, QoI `{}`",
        app.name(),
        app.region_name(),
        app.qoi_name()
    );
    let x0 = app.gen_problem(0);
    let row = app.sparse_row(&x0).expect("CG inputs are sparse");
    println!(
        "input: {} raw features; CSR stores {} non-zeros (density {:.1}%, {}x dense blow-up avoided)",
        app.input_dim(),
        row.nnz(),
        100.0 * row.density(),
        app.input_dim() / row.nnz().max(1),
    );

    let mut cfg = PipelineConfig::quick();
    cfg.search.k_bounds = (8, 32);
    let framework = AutoHpcnet::new(cfg);
    println!("\nbuilding the surrogate (labeling + autoencoder + 2D NAS) ...");
    let surrogate = framework.build_surrogate(&app).expect("pipeline succeeds");
    println!(
        "selected K = {} of {} features, topology {:?}, f_e = {:.4}",
        surrogate.k,
        app.input_dim(),
        surrogate.topology.widths,
        surrogate.f_e
    );
    println!(
        "offline: labeling {:.2}s, autoencoders {:.2}s, search {:.2}s",
        surrogate.offline.labeling_s, surrogate.offline.autoencoder_s, surrogate.offline.search_s
    );

    for restart in [false, true] {
        let eval = evaluate(&app, &surrogate, 60, 0.10, restart).expect("evaluation runs");
        println!(
            "\n[restart={restart}] speedup {:.2}x (GPU-modeled {:.2}x)  hit-rate {:.1}%  restarts {}",
            eval.speedup,
            eval.gpu_speedup_modeled,
            100.0 * eval.hit_rate,
            eval.restarts
        );
        println!(
            "  T_solver {:.1} ms  T_infer {:.1} ms  T_load {:.1} ms  T_other {:.1} ms",
            eval.t_solver * 1e3,
            eval.t_infer * 1e3,
            eval.t_load * 1e3,
            eval.t_other * 1e3
        );
    }

    // Serve the same surrogate behind the orchestrator with a server-side
    // quality guard: the runtime itself validates every answer and
    // restarts the original CG region on a miss (paper §7.1/§8), so the
    // client never sees an unvalidated output.
    println!("\nserving the CG surrogate with a server-side quality guard ...");
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(2)
        .queue_depth(128)
        .build();
    let fallback_app = CgApp::default();
    surrogate.deploy_guarded(
        &orc,
        "AI-CG-net",
        |_, y| y.iter().all(|v| v.is_finite()),
        move |raw| fallback_app.run_region_exact(raw),
    );
    let client = orc.client();
    for i in 0..10u64 {
        let x = app.gen_problem(50_000 + i);
        let row = app.sparse_row(&x).expect("CG inputs are sparse");
        client
            .put_sparse_tensor("cg_in", row)
            .expect("store accepts the row");
        client
            .run_model("AI-CG-net", "cg_in", "cg_out")
            .expect("guarded inference");
    }
    // The registry snapshot exposes the same run as distributions: how
    // long requests waited, where stage time went, and which anomalies
    // (quality fallbacks here) the event ring retained.
    let snap = orc.metrics_snapshot();
    if let Some(infer) = snap.find_histogram(
        "hpcnet_serving_stage_seconds",
        &[("model", "AI-CG-net"), ("stage", "infer")],
    ) {
        println!(
            "infer stage over {} request(s): p50 {:.1} us, p99 {:.1} us",
            infer.count,
            infer.p50 as f64 / 1e3,
            infer.p99 as f64 / 1e3
        );
    }
    let fallbacks = snap.events_of_kind("quality_fallback").len();
    println!("event ring retained {fallbacks} quality-fallback event(s)");

    // The offline pipeline recorded into the process-wide registry too.
    let offline = hpcnet_telemetry::global().snapshot();
    println!(
        "offline: {} sample(s) labeled, {} NAS candidate(s), {} training epoch(s)",
        offline.counter_total("hpcnet_offline_samples_total"),
        offline.counter_total("hpcnet_nas_candidates_total"),
        offline.counter_total("hpcnet_train_epochs_total")
    );

    let stats = orc.shutdown();
    println!(
        "served {} request(s): {} validated hit(s), {} server-side restart(s)",
        stats.requests, stats.quality_hits, stats.quality_fallbacks
    );
}
