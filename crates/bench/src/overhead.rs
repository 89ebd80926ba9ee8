//! §7.3 overhead analysis: offline (trace/labeling, Bayesian optimization,
//! autoencoder training) and online (fetch / encode / load / infer) time.

use auto_hpcnet::evaluate::evaluate;
use hpcnet_apps::{BlackscholesApp, CannealApp, CgApp, HpcApp};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{Client, Orchestrator, TensorStore};
use serde::{Deserialize, Serialize};

use crate::profile::{build_with_fallback, RunProfile};

/// Offline breakdown for one application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OfflineRow {
    /// Application.
    pub app: String,
    /// Labeling / trace-generation seconds.
    pub labeling_s: f64,
    /// Bayesian-optimization seconds (candidate training included).
    pub search_s: f64,
    /// Autoencoder-training seconds (inside the search).
    pub autoencoder_s: f64,
}

/// Online breakdown percentages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineRow {
    /// Application.
    pub app: String,
    /// `[fetch, encode, model-load, infer]` percentage split.
    pub percentages: [f64; 4],
}

/// Run the overhead study on three representative applications.
pub fn run(profile: RunProfile) -> (Vec<OfflineRow>, Vec<OnlineRow>) {
    let apps: Vec<Box<dyn HpcApp>> = vec![
        Box::new(CgApp::new(32)),
        Box::new(BlackscholesApp),
        Box::new(CannealApp::default()),
    ];
    let mut offline = Vec::new();
    let mut online = Vec::new();
    for app in apps {
        let app = app.as_ref();
        eprintln!("[overhead] {} ...", app.name());
        let (surrogate, mu) = match build_with_fallback(app, profile) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("[overhead] {}: failed: {e}", app.name());
                continue;
            }
        };
        offline.push(OfflineRow {
            app: app.name().to_string(),
            labeling_s: surrogate.offline.labeling_s,
            search_s: surrogate.offline.search_s,
            autoencoder_s: surrogate.offline.autoencoder_s,
        });

        // Drive the online path through the orchestrator so its timers see
        // fetch/encode/load/infer separately.
        let orc = Orchestrator::builder().store(TensorStore::new()).build();
        orc.register_model_from_json(app.name(), &surrogate.bundle.to_json())
            .expect("bundle deserializes");
        let client = Client::connect(&orc);
        // Enough inferences to amortize the one-time model load the way a
        // long-running simulation would.
        for i in 0..profile.n_eval().max(2_000) {
            let x = app.gen_problem((1 << 22) + i as u64);
            let key = format!("in:{i}");
            match app.sparse_row(&x) {
                Some(row) => client.put_sparse_tensor(&key, row),
                None => client.put_tensor(&key, &x),
            }
            .expect("store accepts the tensor");
            client
                .run_model(app.name(), &key, "out")
                .expect("inference runs");
        }
        online.push(OnlineRow {
            app: app.name().to_string(),
            percentages: orc.online_timers().percentages(),
        });
        // Keep the evaluation path exercised so numbers exist end to end.
        let _ = evaluate(app, &surrogate, 10, mu, false);
    }
    (offline, online)
}

/// Render both breakdowns.
pub fn render(offline: &[OfflineRow], online: &[OnlineRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "§7.3 — offline phase (paper: trace 24-59 min, BO 6-13 h, AE 1.4-2.2 h at DGX scale)\n",
    );
    out.push_str(&format!(
        "{:<14} {:>13} {:>13} {:>13}\n",
        "App", "labeling (s)", "BO (s)", "AE (s)"
    ));
    for r in offline {
        out.push_str(&format!(
            "{:<14} {:>13.2} {:>13.2} {:>13.2}\n",
            r.app, r.labeling_s, r.search_s, r.autoencoder_s
        ));
    }
    out.push_str(
        "\n§7.3 — online split (paper: fetch 21.2%, encode 10.1%, load 1.6%, infer 67.1%)\n",
    );
    out.push_str(&format!(
        "{:<14} {:>9} {:>9} {:>9} {:>9}\n",
        "App", "fetch", "encode", "load", "infer"
    ));
    for r in online {
        out.push_str(&format!(
            "{:<14} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%\n",
            r.app, r.percentages[0], r.percentages[1], r.percentages[2], r.percentages[3]
        ));
    }
    out
}
