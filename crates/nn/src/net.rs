//! [`SurrogateNet`]: the deployable network — an MLP or a 1-D CNN — behind
//! one interface, so the runtime, pipeline, and NAS don't care which
//! model family the search selected (Table 1 `-initModel`).

use hpcnet_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::conv::Cnn;
use crate::mlp::{Mlp, MlpF32};
use crate::train::{TrainReport, Trainer};
use crate::{NnError, Result};

/// A trained surrogate network of either family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SurrogateNet {
    /// Multi-layer perceptron (the paper's default).
    Mlp(Mlp),
    /// 1-D convolutional network (for grid/field regions).
    Cnn(Cnn),
}

impl SurrogateNet {
    /// Predict one sample.
    pub fn predict(&self, x: &[f64]) -> Result<Vec<f64>> {
        match self {
            SurrogateNet::Mlp(m) => m.predict(x),
            SurrogateNet::Cnn(c) => c.predict(x),
        }
    }

    /// Batched forward pass, one sample per row. Row `i` of the output is
    /// bit-identical to `predict` of row `i` — the batched kernels treat
    /// rows independently in the same accumulation order.
    pub fn predict_batch(&self, x: &Matrix) -> Result<Matrix> {
        match self {
            SurrogateNet::Mlp(m) => m.predict_batch(x),
            SurrogateNet::Cnn(c) => c.predict_batch(x),
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            SurrogateNet::Mlp(m) => m.param_count(),
            SurrogateNet::Cnn(c) => c.param_count(),
        }
    }

    /// Per-sample forward FLOPs.
    pub fn flops(&self) -> u64 {
        match self {
            SurrogateNet::Mlp(m) => m.flops(),
            SurrogateNet::Cnn(c) => c.flops(),
        }
    }

    /// Short family label for reports.
    pub fn family(&self) -> &'static str {
        match self {
            SurrogateNet::Mlp(_) => "mlp",
            SurrogateNet::Cnn(_) => "cnn",
        }
    }

    /// Borrow the MLP, if this is one.
    pub fn as_mlp(&self) -> Option<&Mlp> {
        match self {
            SurrogateNet::Mlp(m) => Some(m),
            SurrogateNet::Cnn(_) => None,
        }
    }

    /// Quantize to the `f32` serving net, if this family supports it
    /// (MLPs only today; CNNs return `None` and keep serving in `f64`).
    /// The orchestrator calls this at registration under `serve_f32(true)`;
    /// see DESIGN.md §14 for the fallback semantics.
    pub fn to_f32(&self) -> Option<MlpF32> {
        match self {
            SurrogateNet::Mlp(m) => Some(MlpF32::from_mlp(m)),
            SurrogateNet::Cnn(_) => None,
        }
    }

    /// Continue training from this net's weights on new `(x, y)` rows,
    /// returning the fine-tuned copy and its training report. `self` is
    /// never mutated — the online-retraining path keeps serving the
    /// current weights while a candidate trains in the background, and
    /// only swaps the returned net in after validation. MLPs only; the
    /// CNN family has no fine-tune path today.
    pub fn fine_tuned(
        &self,
        trainer: &Trainer,
        x: &Matrix,
        y: &Matrix,
    ) -> Result<(SurrogateNet, TrainReport)> {
        match self {
            SurrogateNet::Mlp(m) => {
                let mut tuned = m.clone();
                let report = trainer.fit(&mut tuned, x, y)?;
                Ok((SurrogateNet::Mlp(tuned), report))
            }
            SurrogateNet::Cnn(_) => Err(NnError::BadData(
                "online fine-tuning supports the MLP family only".into(),
            )),
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("SurrogateNet serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self> {
        serde_json::from_str(s).map_err(|e| NnError::BadData(format!("bad net JSON: {e}")))
    }
}

impl From<Mlp> for SurrogateNet {
    fn from(m: Mlp) -> Self {
        SurrogateNet::Mlp(m)
    }
}

impl From<Cnn> for SurrogateNet {
    fn from(c: Cnn) -> Self {
        SurrogateNet::Cnn(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::CnnTopology;
    use crate::{Activation, Topology};
    use hpcnet_tensor::rng::seeded;

    #[test]
    fn both_families_share_the_interface() {
        let mut rng = seeded(1, "net");
        let mlp: SurrogateNet = Mlp::new(&Topology::mlp(vec![8, 4, 2]), &mut rng)
            .unwrap()
            .into();
        let cnn: SurrogateNet = Cnn::new(
            &CnnTopology {
                input_len: 8,
                output_dim: 2,
                channels: vec![2],
                kernel: 3,
                pool: 1,
                head_width: 4,
                act: Activation::Tanh,
            },
            &mut rng,
        )
        .unwrap()
        .into();
        for net in [&mlp, &cnn] {
            assert_eq!(net.predict(&vec![0.1; 8]).unwrap().len(), 2);
            assert!(net.param_count() > 0);
            assert!(net.flops() > 0);
        }
        assert_eq!(mlp.family(), "mlp");
        assert_eq!(cnn.family(), "cnn");
        assert!(mlp.as_mlp().is_some());
        assert!(cnn.as_mlp().is_none());
    }

    #[test]
    fn fine_tuned_returns_a_new_net_and_leaves_self_untouched() {
        use crate::train::{Preprocessing, TrainConfig};
        let mut rng = seeded(5, "net-tune");
        let net: SurrogateNet = Mlp::new(&Topology::mlp(vec![2, 6, 1]), &mut rng)
            .unwrap()
            .into();
        // y = x0 - x1 on a small grid.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let a = (i as f64 * 0.23).sin();
            let b = (i as f64 * 0.61).cos();
            xs.push(vec![a, b]);
            ys.push(vec![a - b]);
        }
        let x = Matrix::from_rows(&xs).unwrap();
        let y = Matrix::from_rows(&ys).unwrap();
        let before = net.predict(&[0.3, -0.4]).unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            lr: 5e-3,
            train_ratio: 1.0,
            preprocessing: Preprocessing::None,
            patience: 0,
            ..TrainConfig::default()
        });
        let (tuned, report) = net.fine_tuned(&trainer, &x, &y).unwrap();
        // The source net still predicts exactly what it did before.
        assert_eq!(net.predict(&[0.3, -0.4]).unwrap(), before);
        assert_ne!(tuned.predict(&[0.3, -0.4]).unwrap(), before);
        assert!(report.best_loss.is_finite());
        assert!(report.epochs_run > 0);

        let cnn: SurrogateNet = Cnn::new(
            &CnnTopology {
                input_len: 8,
                output_dim: 2,
                channels: vec![2],
                kernel: 3,
                pool: 1,
                head_width: 4,
                act: Activation::Tanh,
            },
            &mut rng,
        )
        .unwrap()
        .into();
        assert!(cnn.fine_tuned(&trainer, &x, &y).is_err());
    }

    #[test]
    fn json_roundtrip_preserves_family_and_output() {
        let mut rng = seeded(2, "net-json");
        let net: SurrogateNet = Mlp::new(&Topology::mlp(vec![3, 4, 1]), &mut rng)
            .unwrap()
            .into();
        let restored = SurrogateNet::from_json(&net.to_json()).unwrap();
        assert_eq!(restored.family(), "mlp");
        assert_eq!(
            net.predict(&[0.1, 0.2, 0.3]).unwrap(),
            restored.predict(&[0.1, 0.2, 0.3]).unwrap()
        );
    }
}
