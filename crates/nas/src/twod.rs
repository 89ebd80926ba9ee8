//! The hierarchical (2D) Bayesian optimization of paper Algorithm 2.

use std::cell::RefCell;
use std::time::Instant;

use hpcnet_bayesopt::{BayesOpt, BoConfig, Observation};
use hpcnet_nn::autoencoder::AeTrainConfig;
use hpcnet_nn::conv::CnnTopology;
use hpcnet_nn::train::{FeatureScaler, Preprocessing};
use hpcnet_nn::{Autoencoder, Mlp, SurrogateNet, Topology, Trainer};
use hpcnet_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::config::{ModelConfig, SearchConfig, SearchType};
use crate::space::TopologySpace;
use crate::task::NasTask;
use crate::{NasError, Result};

/// Penalty offset separating infeasible candidates from any feasible cost.
const INFEASIBLE: f64 = 1_000.0;

/// One evaluated `(K, θ)` candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepRecord {
    /// Reduced feature count.
    pub k: usize,
    /// Candidate topology (for CNN candidates: a descriptive placeholder
    /// `[in, head, out]`; see `cnn`).
    pub topology: Topology,
    /// CNN candidate hyperparameters, when the candidate is a CNN.
    #[serde(default)]
    pub cnn: Option<CnnTopology>,
    /// Quality degradation (application-level, from the task oracle).
    pub f_e: f64,
    /// Cost: per-sample inference FLOPs (encoder + surrogate).
    pub f_c: f64,
    /// Did the candidate meet `f_e <= qualityLoss`?
    pub feasible: bool,
    /// Seconds spent evaluating this candidate (training included).
    pub elapsed_s: f64,
}

/// The search result: the deployable artifacts plus full history.
pub struct NasOutcome {
    /// Chosen reduced feature count.
    pub k: usize,
    /// CNN hyperparameters, when the selected surrogate is a CNN.
    pub cnn: Option<CnnTopology>,
    /// Trained feature-reduction autoencoder (`None` for full-input mode).
    pub autoencoder: Option<Autoencoder>,
    /// The trained surrogate (MLP, or CNN in `-initModel cnn` mode).
    pub surrogate: SurrogateNet,
    /// Scaler fitted on the (reduced) training inputs.
    pub scaler: FeatureScaler,
    /// Scaler fitted on the training outputs; the surrogate is trained on
    /// standardized targets and predictions must be inverse-transformed.
    pub output_scaler: FeatureScaler,
    /// Chosen topology.
    pub topology: Topology,
    /// Achieved quality degradation.
    pub f_e: f64,
    /// Achieved cost (per-sample inference FLOPs).
    pub f_c: f64,
    /// Every candidate evaluated, in order.
    pub history: Vec<StepRecord>,
    /// Seconds spent training autoencoders (the §7.3 offline breakdown).
    pub ae_train_seconds: f64,
    /// Total search wall-clock seconds.
    pub search_seconds: f64,
}

/// Serializable search state for stop/restore (paper §6.1).
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct SearchCheckpoint {
    /// Outer-loop observations `(k) -> score` accumulated so far.
    pub outer_observations: Vec<Observation>,
}

impl SearchCheckpoint {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self> {
        serde_json::from_str(s).map_err(|e| NasError::BadConfig(format!("bad checkpoint: {e}")))
    }
}

/// Artifacts of the best candidate seen so far.
struct BestBundle {
    k: usize,
    autoencoder: Option<Autoencoder>,
    surrogate: Mlp,
    scaler: FeatureScaler,
    output_scaler: FeatureScaler,
    topology: Topology,
    f_e: f64,
    f_c: f64,
    score: f64,
}

/// The 2D NAS driver.
pub struct TwoDNas {
    /// Search-level configuration (Table 1).
    pub search: SearchConfig,
    /// Model-level configuration (Table 1).
    pub model: ModelConfig,
    /// Topology space θ.
    pub space: TopologySpace,
}

impl TwoDNas {
    /// Build a driver with the default topology space.
    pub fn new(search: SearchConfig, model: ModelConfig) -> Self {
        TwoDNas {
            search,
            model,
            space: TopologySpace::default(),
        }
    }

    /// Run the full hierarchical search (Algorithm 2).
    pub fn search(&self, task: &NasTask) -> Result<NasOutcome> {
        self.search_with_checkpoint(task, None).map(|(o, _)| o)
    }

    /// Run the search, optionally resuming from a checkpoint; returns the
    /// outcome and a checkpoint capturing the outer loop's observations.
    pub fn search_with_checkpoint(
        &self,
        task: &NasTask,
        resume: Option<SearchCheckpoint>,
    ) -> Result<(NasOutcome, SearchCheckpoint)> {
        task.validate()?;
        let t_start = Instant::now();
        let d = task.input_dim();
        let (k_lo, k_hi) = (
            self.search.k_bounds.0.min(d).max(1),
            self.search.k_bounds.1.min(d).max(1),
        );

        let history: RefCell<Vec<StepRecord>> = RefCell::new(Vec::new());
        let best: RefCell<Option<BestBundle>> = RefCell::new(None);
        let ae_seconds = RefCell::new(0.0f64);

        if matches!(self.search.search_type, SearchType::FullInput) || k_lo >= d {
            // Single-level search over θ on the raw input.
            self.inner_search(task, None, d, &history, &best)?;
            let outcome = self.finish(
                history.into_inner(),
                best.into_inner(),
                ae_seconds.into_inner(),
                t_start,
            )?;
            return Ok((outcome, SearchCheckpoint::default()));
        }

        // --- outer loop: Bayesian optimization over K (Alg. 2, lines 2-13) ---
        let mut outer_cfg = BoConfig::new(vec![(k_lo as f64, k_hi as f64 + 0.999)]);
        outer_cfg.init_samples = self.search.bayesian_init.max(1);
        outer_cfg.budget = self.search.outer_budget.max(1);
        outer_cfg.seed = self.search.seed ^ 0x007e;
        outer_cfg.stall_patience = 0;
        if let Some(cp) = &resume {
            outer_cfg.warm_start = cp.outer_observations.clone();
        }

        let ae_hist = hpcnet_telemetry::global().time_histogram("hpcnet_nas_ae_train_seconds", &[]);
        let outer = BayesOpt::new(outer_cfg)?;
        let run = outer.minimize(|kx| {
            let k = (kx[0].floor() as usize).clamp(k_lo, k_hi);
            // Feature reduction: train a customized autoencoder for this K
            // (Alg. 2, line 4), then run the inner θ search on the reduced
            // features (lines 5-10) and report its best score (line 11).
            let t_ae = Instant::now();
            let ae = self.train_autoencoder(task, k).ok()?;
            let ae_elapsed = t_ae.elapsed();
            ae_hist.record_duration(ae_elapsed);
            *ae_seconds.borrow_mut() += ae_elapsed.as_secs_f64();
            self.inner_search(task, Some(ae), k, &history, &best).ok()
        })?;

        let checkpoint = SearchCheckpoint {
            outer_observations: run.history,
        };
        let outcome = self.finish(
            history.into_inner(),
            best.into_inner(),
            ae_seconds.into_inner(),
            t_start,
        )?;
        Ok((outcome, checkpoint))
    }

    /// Train the feature-reduction autoencoder for a candidate K, using
    /// the sparse path when the task provides CSR inputs.
    fn train_autoencoder(&self, task: &NasTask, k: usize) -> Result<Autoencoder> {
        let mut rng = hpcnet_tensor::rng::seeded(self.search.seed, "nas-ae");
        let mut ae = Autoencoder::new(task.input_dim(), k, &mut rng)?;
        let cfg = AeTrainConfig {
            epochs: self.model.ae_epochs,
            lr: self.model.ae_lr,
            encoding_loss_bound: Some(self.search.encoding_loss),
            ..AeTrainConfig::default()
        };
        match &task.sparse_inputs {
            Some(sp) => ae.train_sparse(sp, &cfg)?,
            None => ae.train_dense(&task.inputs, &cfg)?,
        };
        Ok(ae)
    }

    /// Inner θ search (Alg. 2, lines 5-10). Returns the best score for the
    /// outer loop's Gaussian process.
    fn inner_search(
        &self,
        task: &NasTask,
        autoencoder: Option<Autoencoder>,
        k: usize,
        history: &RefCell<Vec<StepRecord>>,
        best: &RefCell<Option<BestBundle>>,
    ) -> Result<f64> {
        // Encode the dataset once per K.
        let encoded = match &autoencoder {
            Some(ae) => encode_dataset(ae, task)?,
            None => task.inputs.clone(),
        };

        // Search-progress telemetry (process-wide registry): candidate
        // throughput, per-candidate wall time, and the best feasible
        // (f_c, f_e) seen so far — watchable live from another thread.
        let telemetry = hpcnet_telemetry::global();
        let candidates_total = telemetry.counter("hpcnet_nas_candidates_total");
        let candidate_hist = telemetry.time_histogram("hpcnet_nas_candidate_seconds", &[]);
        let best_f_c_gauge = telemetry.gauge("hpcnet_nas_best_f_c");
        let best_f_e_gauge = telemetry.gauge("hpcnet_nas_best_f_e");

        let mut inner_cfg = BoConfig::new(self.space.bounds());
        inner_cfg.init_samples = self.search.bayesian_init.max(1);
        inner_cfg.budget = self.search.inner_budget.max(1);
        inner_cfg.seed = self.search.seed ^ (k as u64) << 8;
        // Warm starts evaluated before any BO proposal: the configured
        // initial topology (Table 1 `-searchType`) and a *linear*
        // candidate — solver regions are often (near-)affine, and a
        // linear surrogate is both the cheapest and the best-generalizing
        // model for them, so it always deserves one evaluation.
        let init_hidden = self.search.search_type.initial_hidden();
        let mut warm: Vec<Vec<f64>> = vec![
            self.space.encode_hidden(&init_hidden, 0),
            self.space.encode_hidden(&[32], 3), // depth-1, identity act
        ];
        warm.reverse(); // pop() order: configured first

        let inner_best = RefCell::new(f64::INFINITY);
        let bo = BayesOpt::new(inner_cfg)?;
        let warm = RefCell::new(warm);
        let run = bo.minimize(|theta_x| {
            // Drain the warm-start queue before following BO proposals.
            let point = warm.borrow_mut().pop().unwrap_or_else(|| theta_x.to_vec());
            let t0 = Instant::now();
            let topology = self.space.decode(&point, encoded.cols(), task.output_dim());
            let eval = self.evaluate_candidate(task, &autoencoder, &encoded, &topology);
            match eval {
                Ok((f_e, f_c, mlp, scaler, output_scaler)) => {
                    let feasible = f_e <= self.search.quality_loss;
                    // Feasible candidates are ranked by cost with a small
                    // quality-margin tie-break (at most half a decade of
                    // cost): among similar costs prefer the model with
                    // headroom below ε, which translates directly into
                    // per-problem HitRate at deployment.
                    let score = if feasible {
                        (f_c.max(1.0)).log10() + 0.5 * (f_e / self.search.quality_loss)
                    } else {
                        INFEASIBLE + f_e.min(1e6)
                    };
                    candidates_total.inc();
                    candidate_hist.record_duration(t0.elapsed());
                    history.borrow_mut().push(StepRecord {
                        k,
                        topology: topology.clone(),
                        cnn: None,
                        f_e,
                        f_c,
                        feasible,
                        elapsed_s: t0.elapsed().as_secs_f64(),
                    });
                    let mut b = best.borrow_mut();
                    if b.as_ref().is_none_or(|cur| score < cur.score) {
                        best_f_c_gauge.set(f_c);
                        best_f_e_gauge.set(f_e);
                        *b = Some(BestBundle {
                            k,
                            autoencoder: autoencoder.clone(),
                            surrogate: mlp,
                            scaler,
                            output_scaler,
                            topology,
                            f_e,
                            f_c,
                            score,
                        });
                    }
                    let mut ib = inner_best.borrow_mut();
                    if score < *ib {
                        *ib = score;
                    }
                    Some(score)
                }
                Err(_) => None,
            }
        })?;
        let _ = run;
        let score = *inner_best.borrow();
        Ok(score)
    }

    /// Train + evaluate one candidate topology on the encoded dataset.
    /// Returns `(f_e, f_c, surrogate, input scaler, output scaler)`.
    fn evaluate_candidate(
        &self,
        task: &NasTask,
        autoencoder: &Option<Autoencoder>,
        encoded: &Matrix,
        topology: &Topology,
    ) -> Result<(f64, f64, Mlp, FeatureScaler, FeatureScaler)> {
        let mut rng = hpcnet_tensor::rng::seeded(self.search.seed, "nas-candidate");
        let mut mlp = Mlp::new(topology, &mut rng)?;
        let mut train_cfg = self.model.train.clone();
        train_cfg.preprocessing = Preprocessing::Standardize;
        // Standardize targets too: region outputs live in physical units
        // with wildly different magnitudes, and regression on raw targets
        // stalls Adam. Predictions are inverse-transformed.
        let output_scaler = FeatureScaler::fit(&task.outputs);
        let mut y = task.outputs.clone();
        output_scaler.transform_matrix(&mut y);
        let report = Trainer::new(train_cfg).fit(&mut mlp, encoded, &y)?;

        // Application-level quality via the task oracle.
        let scaler = report.scaler.clone();
        let predictor = |raw: &[f64]| -> Option<Vec<f64>> {
            let mut features = match autoencoder {
                Some(ae) => ae.encode(raw).ok()?,
                None => raw.to_vec(),
            };
            scaler.transform_vec(&mut features);
            let mut out = mlp.predict(&features).ok()?;
            output_scaler.inverse_transform_vec(&mut out);
            Some(out)
        };
        let f_e = (task.quality)(&predictor);

        // Cost: per-sample inference FLOPs, encoder included — the online
        // path the paper's f_c measures. Sparse tasks are charged the
        // sparse first-layer cost (2·nnz·K), not the dense unrolled one.
        let encoder_flops = autoencoder
            .as_ref()
            .map_or(0, |ae| match &task.sparse_inputs {
                Some(sp) => {
                    let avg_nnz = sp.nnz() / sp.nrows().max(1);
                    ae.encoder_flops_sparse(avg_nnz)
                }
                None => ae.encoder_flops(),
            });
        let f_c = (encoder_flops + mlp.flops()) as f64;
        Ok((f_e, f_c, mlp, report.scaler, output_scaler))
    }

    fn finish(
        &self,
        history: Vec<StepRecord>,
        best: Option<BestBundle>,
        ae_train_seconds: f64,
        t_start: Instant,
    ) -> Result<NasOutcome> {
        let best = best.ok_or(NasError::NoFeasibleCandidate)?;
        if best.f_e > self.search.quality_loss {
            return Err(NasError::NoFeasibleCandidate);
        }
        Ok(NasOutcome {
            k: best.k,
            cnn: None,
            autoencoder: best.autoencoder,
            surrogate: best.surrogate.into(),
            scaler: best.scaler,
            output_scaler: best.output_scaler,
            topology: best.topology,
            f_e: best.f_e,
            f_c: best.f_c,
            history,
            ae_train_seconds,
            search_seconds: t_start.elapsed().as_secs_f64(),
        })
    }
}

/// Encode every dataset row with the trained encoder (sparse path when
/// available — the input is never densified).
fn encode_dataset(ae: &Autoencoder, task: &NasTask) -> Result<Matrix> {
    match &task.sparse_inputs {
        Some(sp) => Ok(ae.encode_sparse(sp)?),
        None => Ok(ae.encode_batch(&task.inputs)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_tensor::rng::{seeded, uniform_vec};

    /// A synthetic task: 20-D inputs living on a 3-D manifold, outputs a
    /// smooth function of the manifold coordinates.
    fn manifold_task(n: usize) -> (Matrix, Matrix) {
        let mut rng = seeded(11, "nas-task");
        let mut xs = Vec::with_capacity(n * 20);
        let mut ys = Vec::with_capacity(n * 2);
        for _ in 0..n {
            let t = uniform_vec(&mut rng, 3, -1.0, 1.0);
            for j in 0..20 {
                let ang = j as f64 * 0.37;
                xs.push(t[0] * ang.sin() + t[1] * ang.cos() + 0.3 * t[2] * (2.0 * ang).sin());
            }
            ys.push(t[0] + 0.5 * t[1]);
            ys.push(t[1] * t[2]);
        }
        (
            Matrix::from_vec(n, 20, xs).unwrap(),
            Matrix::from_vec(n, 2, ys).unwrap(),
        )
    }

    fn quick_driver() -> TwoDNas {
        let search = SearchConfig {
            outer_budget: 2,
            inner_budget: 3,
            bayesian_init: 2,
            k_bounds: (2, 10),
            quality_loss: 0.5,
            ..SearchConfig::default()
        };
        let mut model = ModelConfig::default();
        model.train.epochs = 40;
        model.ae_epochs = 30;
        TwoDNas::new(search, model)
    }

    #[test]
    fn two_d_search_finds_a_feasible_reduced_surrogate() {
        let (x, y) = manifold_task(150);
        let task = NasTask {
            quality: Box::new(NasTask::holdout_quality(x.clone(), y.clone(), 30)),
            inputs: x.clone(),
            sparse_inputs: None,
            outputs: y.clone(),
        };
        let outcome = quick_driver().search(&task).unwrap();
        assert!(outcome.f_e <= 0.5, "f_e = {}", outcome.f_e);
        assert!(outcome.k < 20, "feature reduction must shrink the input");
        assert!(outcome.autoencoder.is_some());
        assert!(!outcome.history.is_empty());
        assert!(outcome.ae_train_seconds > 0.0);
        // The deployed predictor works end to end.
        let ae = outcome.autoencoder.as_ref().unwrap();
        let mut f = ae.encode(x.row(0)).unwrap();
        outcome.scaler.transform_vec(&mut f);
        let mut pred = outcome.surrogate.predict(&f).unwrap();
        outcome.output_scaler.inverse_transform_vec(&mut pred);
        assert_eq!(pred.len(), 2);
    }

    #[test]
    fn full_input_mode_skips_the_autoencoder() {
        let (x, y) = manifold_task(100);
        let task = NasTask {
            quality: Box::new(NasTask::holdout_quality(x.clone(), y.clone(), 20)),
            inputs: x,
            sparse_inputs: None,
            outputs: y,
        };
        let mut driver = quick_driver();
        driver.search.search_type = SearchType::FullInput;
        let outcome = driver.search(&task).unwrap();
        assert!(outcome.autoencoder.is_none());
        assert_eq!(outcome.k, 20);
    }

    #[test]
    fn infeasible_quality_bound_errors() {
        let (x, y) = manifold_task(60);
        let task = NasTask {
            quality: Box::new(|_| 1.0), // nothing is ever good enough
            inputs: x,
            sparse_inputs: None,
            outputs: y,
        };
        let mut driver = quick_driver();
        driver.search.quality_loss = 1e-12;
        assert!(matches!(
            driver.search(&task),
            Err(NasError::NoFeasibleCandidate)
        ));
    }

    #[test]
    fn checkpoint_roundtrip_and_resume() {
        let (x, y) = manifold_task(100);
        let task = NasTask {
            quality: Box::new(NasTask::holdout_quality(x.clone(), y.clone(), 20)),
            inputs: x.clone(),
            sparse_inputs: None,
            outputs: y.clone(),
        };
        let driver = quick_driver();
        let (outcome1, cp) = driver.search_with_checkpoint(&task, None).unwrap();
        assert!(!cp.outer_observations.is_empty());
        let json = cp.to_json();
        let restored = SearchCheckpoint::from_json(&json).unwrap();
        assert_eq!(
            restored.outer_observations.len(),
            cp.outer_observations.len()
        );
        // Resume: conditions on prior observations, evaluates fresh ones.
        let (outcome2, cp2) = driver
            .search_with_checkpoint(&task, Some(restored))
            .unwrap();
        assert!(cp2.outer_observations.len() > cp.outer_observations.len());
        // Resumed search should do no worse.
        assert!(outcome2.f_e <= outcome1.f_e + 0.5);
    }
}
