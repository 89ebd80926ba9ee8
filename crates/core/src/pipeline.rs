//! The `AutoHpcnet` driver: dataset → 2D NAS → deployable bundle.

use std::time::Instant;

use hpcnet_apps::HpcApp;
use hpcnet_nas::{NasOutcome, StepRecord, TwoDNas};
use hpcnet_nn::Topology;
use hpcnet_runtime::{ModelBundle, Orchestrator};

use crate::config::PipelineConfig;
use crate::dataset::{build_dataset, build_task};
use crate::Result;

/// Offset separating quality-holdout problem ids from training ids.
pub(crate) const QUALITY_BASE: u64 = 1 << 20;
/// Offset separating final-evaluation problem ids from everything else.
pub(crate) const EVAL_BASE: u64 = 1 << 21;

/// Offline-phase timing breakdown (paper §7.3).
#[derive(Debug, Clone, Copy)]
pub struct OfflineTimes {
    /// Seconds running the exact region to label training samples
    /// (the trace-generation analog for native apps).
    pub labeling_s: f64,
    /// Seconds training autoencoders inside the search.
    pub autoencoder_s: f64,
    /// Total Bayesian-optimization wall clock (includes candidate
    /// training).
    pub search_s: f64,
}

/// A ready-to-deploy surrogate for one application.
pub struct DeployedSurrogate {
    /// The model bundle (surrogate + encoder + scaler).
    pub bundle: ModelBundle,
    /// Chosen reduced feature count.
    pub k: usize,
    /// Chosen topology.
    pub topology: Topology,
    /// Search-time quality degradation of the selected candidate.
    pub f_e: f64,
    /// Per-sample inference FLOPs (encoder + surrogate).
    pub f_c: f64,
    /// Offline timing breakdown.
    pub offline: OfflineTimes,
    /// Full search history.
    pub history: Vec<StepRecord>,
}

impl DeployedSurrogate {
    /// Direct (in-process) prediction path: raw region input → predicted
    /// region output.
    pub fn predict(&self, raw: &[f64]) -> Option<Vec<f64>> {
        let mut features = match &self.bundle.autoencoder {
            Some(ae) => ae.encode(raw).ok()?,
            None => raw.to_vec(),
        };
        if let Some(s) = &self.bundle.scaler {
            s.transform_vec(&mut features);
        }
        let mut out = self.bundle.surrogate.predict(&features).ok()?;
        if let Some(os) = &self.bundle.output_scaler {
            os.inverse_transform_vec(&mut out);
        }
        Some(out)
    }

    /// Prediction from a CSR single-row input: the encoder consumes the
    /// sparse form directly (paper §4.2's online path).
    pub fn predict_sparse(&self, row: &hpcnet_tensor::Csr) -> Option<Vec<f64>> {
        let mut features = match &self.bundle.autoencoder {
            Some(ae) => ae.encode_sparse(row).ok()?.into_vec(),
            None => row.to_dense_vector(),
        };
        if let Some(s) = &self.bundle.scaler {
            s.transform_vec(&mut features);
        }
        let mut out = self.bundle.surrogate.predict(&features).ok()?;
        if let Some(os) = &self.bundle.output_scaler {
            os.inverse_transform_vec(&mut out);
        }
        Some(out)
    }

    /// Register with an orchestrator under `name` (Listing 2's
    /// `set_model_from_file` step).
    pub fn deploy(&self, orchestrator: &Orchestrator, name: &str) {
        orchestrator.register_model(name, self.bundle.clone());
    }

    /// Register with an orchestrator under `name` together with a
    /// server-side quality guard: the paper's restart-on-quality-miss
    /// (§7.1/§8) executed by the serving runtime itself. `validator`
    /// judges `(raw_input, output)` pairs; on rejection the orchestrator
    /// answers with `fallback(raw_input)` — normally the original region
    /// — and counts the event in `ServingStats::quality_fallbacks`.
    pub fn deploy_guarded(
        &self,
        orchestrator: &Orchestrator,
        name: &str,
        validator: impl Fn(&[f64], &[f64]) -> bool + Send + Sync + 'static,
        fallback: impl Fn(&[f64]) -> Vec<f64> + Send + Sync + 'static,
    ) {
        let guard = hpcnet_runtime::QualityGuard::new(validator).with_fallback(fallback);
        orchestrator.register_guarded_model(name, self.bundle.clone(), guard);
    }

    /// Save the deployable bundle to a file (the `./saved_net.pt` analog)
    /// so another process can `set_model_from_file` it (paper §6.1's
    /// save-and-share across applications).
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        self.bundle
            .save(path)
            .map_err(crate::PipelineError::Runtime)
    }
}

/// The framework facade.
pub struct AutoHpcnet {
    /// Pipeline configuration.
    pub config: PipelineConfig,
}

impl AutoHpcnet {
    /// Create the framework with a configuration.
    pub fn new(config: PipelineConfig) -> Self {
        AutoHpcnet { config }
    }

    /// Build a surrogate for a native application: generate + label
    /// problems, run the architecture search (2D NAS for MLPs, the CNN
    /// hyperparameter search for `-initModel cnn`) with the
    /// application-level quality oracle, and assemble the bundle.
    pub fn build_surrogate(&self, app: &dyn HpcApp) -> Result<DeployedSurrogate> {
        let telemetry = hpcnet_telemetry::global();
        let dataset = {
            let _span = telemetry.span("hpcnet_offline_phase_seconds", &[("phase", "labeling")]);
            build_dataset(app, self.config.n_train)?
        };
        telemetry
            .counter("hpcnet_offline_samples_total")
            .add(dataset.inputs.rows() as u64);
        let task = build_task(app, &dataset, self.config.n_quality, QUALITY_BASE);

        let _search_span = telemetry.span("hpcnet_offline_phase_seconds", &[("phase", "search")]);
        let t0 = Instant::now();
        let outcome = match self.config.model.family {
            hpcnet_nas::ModelFamily::Mlp => {
                let mut search = self.config.search.clone();
                // The quality constraint is the application's μ (§5.1).
                search.quality_loss = self.config.mu;
                search.seed = self.config.seed;
                TwoDNas::new(search, self.config.model.clone()).search(&task)?
            }
            hpcnet_nas::ModelFamily::Cnn => hpcnet_nas::cnn_search(
                &task,
                self.config.search.inner_budget.max(1) * self.config.search.outer_budget.max(1),
                self.config.mu,
                &self.config.model,
                self.config.seed,
            )?,
        };
        let search_s = t0.elapsed().as_secs_f64();

        Ok(self.assemble(outcome, dataset.label_seconds, search_s))
    }

    /// Build a surrogate for an annotated mini-IR program: the full paper
    /// workflow — trace → DDDG → identify I/O → perturb-and-sample →
    /// architecture search — driven end to end. Returns the deployable
    /// surrogate together with the identified region signature.
    ///
    /// The quality oracle is the relative output error over the held-out
    /// tail of the collected samples (an IR region has no application QoI
    /// of its own).
    pub fn build_surrogate_from_ir<F>(
        &self,
        program: &hpcnet_trace::Program,
        setup: F,
        perturb: hpcnet_trace::PerturbSpec,
        frozen: &[&str],
    ) -> Result<(DeployedSurrogate, hpcnet_trace::RegionSignature)>
    where
        F: Fn(&mut hpcnet_trace::Interpreter),
    {
        let telemetry = hpcnet_telemetry::global();
        let n = self.config.n_train + self.config.n_quality;
        let acquired = {
            let _span = telemetry.span("hpcnet_offline_phase_seconds", &[("phase", "acquire")]);
            crate::acquisition::acquire(program, setup, n, perturb, frozen, self.config.seed)?
        };
        telemetry
            .counter("hpcnet_offline_samples_total")
            .add(acquired.samples.inputs.len() as u64);
        let x = hpcnet_tensor::Matrix::from_rows(&acquired.samples.inputs)
            .map_err(|e| crate::PipelineError::BadConfig(e.to_string()))?;
        let y = hpcnet_tensor::Matrix::from_rows(&acquired.samples.outputs)
            .map_err(|e| crate::PipelineError::BadConfig(e.to_string()))?;
        let task = hpcnet_nas::NasTask {
            quality: Box::new(hpcnet_nas::NasTask::holdout_quality(
                x.clone(),
                y.clone(),
                self.config.n_quality,
            )),
            inputs: x,
            sparse_inputs: None,
            outputs: y,
        };
        let mut search = self.config.search.clone();
        search.quality_loss = self.config.mu;
        search.seed = self.config.seed;
        let _search_span = telemetry.span("hpcnet_offline_phase_seconds", &[("phase", "search")]);
        let t0 = Instant::now();
        let outcome = match self.config.model.family {
            hpcnet_nas::ModelFamily::Mlp => {
                TwoDNas::new(search, self.config.model.clone()).search(&task)?
            }
            hpcnet_nas::ModelFamily::Cnn => hpcnet_nas::cnn_search(
                &task,
                self.config.search.inner_budget.max(1) * self.config.search.outer_budget.max(1),
                self.config.mu,
                &self.config.model,
                self.config.seed,
            )?,
        };
        let search_s = t0.elapsed().as_secs_f64();
        let labeling = acquired.trace_seconds + acquired.sample_seconds;
        Ok((
            self.assemble(outcome, labeling, search_s),
            acquired.signature,
        ))
    }

    fn assemble(&self, outcome: NasOutcome, labeling_s: f64, search_s: f64) -> DeployedSurrogate {
        DeployedSurrogate {
            bundle: ModelBundle {
                surrogate: outcome.surrogate,
                autoencoder: outcome.autoencoder,
                scaler: Some(outcome.scaler),
                output_scaler: Some(outcome.output_scaler),
            },
            k: outcome.k,
            topology: outcome.topology,
            f_e: outcome.f_e,
            f_c: outcome.f_c,
            offline: OfflineTimes {
                labeling_s,
                autoencoder_s: outcome.ae_train_seconds,
                search_s,
            },
            history: outcome.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_apps::{BlackscholesApp, HpcApp};
    use hpcnet_runtime::{ClientApi, TensorStore};

    #[test]
    fn builds_and_deploys_a_blackscholes_surrogate() {
        let app = BlackscholesApp;
        let mut cfg = PipelineConfig::quick();
        cfg.mu = 0.10;
        let framework = AutoHpcnet::new(cfg);
        let surrogate = framework.build_surrogate(&app).unwrap();
        assert!(surrogate.f_e <= 0.10, "f_e = {}", surrogate.f_e);
        assert!(!surrogate.history.is_empty());
        assert!(surrogate.offline.labeling_s > 0.0);
        assert!(surrogate.offline.search_s > 0.0);

        // Deploy and run one inference through the orchestrator.
        let orc = Orchestrator::builder().store(TensorStore::new()).build();
        surrogate.deploy(&orc, "bs-net");
        let client = orc.client();
        let x = hpcnet_apps::HpcApp::gen_problem(&app, EVAL_BASE);
        client.put_tensor("in", &x).unwrap();
        client.run_model("bs-net", "in", "out").unwrap();
        let via_server = client.unpack_tensor("out").unwrap();
        let direct = surrogate.predict(&x).unwrap();
        assert_eq!(via_server, direct);

        // Guarded deployment: a reject-all validator forces the
        // orchestrator's server-side restart-on-quality-miss, whose
        // answer must bit-match the original region.
        surrogate.deploy_guarded(
            &orc,
            "bs-net-guarded",
            |_, _| false,
            |raw| BlackscholesApp.run_region_exact(raw),
        );
        client.put_tensor("gin", &x).unwrap();
        client.run_model("bs-net-guarded", "gin", "gout").unwrap();
        assert_eq!(
            client.unpack_tensor("gout").unwrap(),
            app.run_region_exact(&x),
            "server-side fallback must be the exact region output"
        );
        let stats = orc.serving_stats();
        assert!(stats.quality_fallbacks >= 1);

        // A realistic cheap domain check on real outputs: option prices
        // are non-negative and bounded by the spot price. The validator
        // sees the raw input and the de-scaled output, and a trained
        // surrogate passes it on most problems.
        surrogate.deploy_guarded(
            &orc,
            "bs-net-sane",
            |x, y| {
                let max_spot = x.chunks(5).map(|o| o[0]).fold(0.0f64, f64::max);
                y.iter().all(|&p| (-1.0..=2.0 * max_spot).contains(&p))
            },
            |raw| BlackscholesApp.run_region_exact(raw),
        );
        for i in 0..10 {
            let x = app.gen_problem(9_200 + i);
            client.put_tensor("sin", &x).unwrap();
            client.run_model("bs-net-sane", "sin", "sout").unwrap();
            assert_eq!(
                client.unpack_tensor("sout").unwrap().len(),
                app.output_dim()
            );
        }
        let sane = orc.serving_stats();
        let served = sane.quality_hits - stats.quality_hits;
        assert_eq!(
            served + sane.quality_fallbacks - stats.quality_fallbacks,
            10
        );
        assert!(served >= 8, "served {served}/10");

        // The offline pipeline reported into the process-wide registry:
        // labeled samples, phase spans, NAS candidates, training epochs.
        let snap = hpcnet_telemetry::global().snapshot();
        assert!(snap.counter_total("hpcnet_offline_samples_total") > 0);
        let labeling = snap
            .find_histogram("hpcnet_offline_phase_seconds", &[("phase", "labeling")])
            .expect("labeling span recorded");
        assert!(labeling.count >= 1 && labeling.sum > 0);
        assert!(snap
            .find_histogram("hpcnet_offline_phase_seconds", &[("phase", "search")])
            .is_some_and(|h| h.count >= 1));
        assert!(snap.counter_total("hpcnet_nas_candidates_total") > 0);
        assert!(snap.counter_total("hpcnet_train_epochs_total") > 0);
    }
}
