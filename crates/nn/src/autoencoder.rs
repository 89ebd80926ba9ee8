//! The customized autoencoder of paper §4: hourglass encoder + horn decoder,
//! sparse-input training/inference, gradient-checkpointed offline training,
//! and the element-wise reconstruction-quality metric σ_y (Eqn 1).
//!
//! Internally the autoencoder is one MLP whose layer at `latent_idx`
//! produces the reduced representation; `encode` runs the prefix, the full
//! forward runs encoder+decoder for reconstruction.

use hpcnet_tensor::{Csr, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::checkpoint::{loss_and_grads_checkpointed, CheckpointStats};
use crate::layer::Dense;
use crate::loss::Loss;
use crate::mlp::Mlp;
use crate::optimizer::{Adam, Optimizer};
use crate::{NnError, Result};

/// σ_y of paper Eqn 1: the fraction of elements of the reconstruction `y`
/// that fall outside the relative band `|y_i - x_i| <= mu * |x_i|` around
/// the original `x`. Lower is better; 0 means every element reconstructed
/// within tolerance.
///
/// For `x_i == 0` the paper's band collapses to exact equality, which no
/// learned reconstruction meets; `abs_tol` supplies the absolute band used
/// for (near-)zero elements. Pass 0.0 for the strict paper semantics.
pub fn sigma_y(x: &[f64], y: &[f64], mu: f64, abs_tol: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "sigma_y needs equal-size matrices");
    if x.is_empty() {
        return 0.0;
    }
    let violations = x
        .iter()
        .zip(y)
        .filter(|&(&xi, &yi)| (yi - xi).abs() > mu * xi.abs() + abs_tol)
        .count();
    violations as f64 / x.len() as f64
}

/// Configuration for autoencoder training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AeTrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Gradient-checkpoint segment length in layers
    /// (`usize::MAX` disables checkpointing).
    pub checkpoint_segment: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// σ_y scale factor used when reporting reconstruction quality.
    pub mu: f64,
    /// Absolute tolerance used by σ_y for zero elements.
    pub abs_tol: f64,
    /// Optional early-exit: stop when σ_y on the training set falls to or
    /// below this bound (the user's `-encodingLoss` of Table 1).
    pub encoding_loss_bound: Option<f64>,
}

impl Default for AeTrainConfig {
    fn default() -> Self {
        AeTrainConfig {
            epochs: 150,
            batch_size: 16,
            lr: 1e-3,
            checkpoint_segment: 2,
            seed: 0xae5eed,
            mu: 0.1,
            abs_tol: 0.05,
            encoding_loss_bound: None,
        }
    }
}

/// Report from an autoencoder training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AeReport {
    /// Reconstruction MSE per epoch.
    pub losses: Vec<f64>,
    /// Final σ_y on the training set.
    pub final_sigma: f64,
    /// Memory accounting from the last checkpointed batch (dense path only).
    pub checkpoint_stats: Option<CheckpointStats>,
    /// Epochs actually run.
    pub epochs_run: usize,
}

/// Hourglass autoencoder with a designated latent layer.
///
/// `latent_idx` counts the encoder's layers and the two widths restate
/// the network's; every constructor, reading a bundle included, goes
/// through `Autoencoder::from_parts`, which checks them.
#[derive(Debug, Clone, Serialize)]
pub struct Autoencoder {
    net: Mlp,
    latent_idx: usize,
    input_dim: usize,
    latent_dim: usize,
}

/// What a serialized [`Autoencoder`] holds. A bundle is outside input:
/// `latent_idx = 0` used to register and then panic in `encode_sparse`
/// and `encode_batch` (and pass the raw input on as its own encoding in
/// `encode`), one past the last layer panicked in all three, and widths
/// that disagree with the network were believed by whoever asked.
#[derive(Deserialize)]
struct AutoencoderRepr {
    net: Mlp,
    latent_idx: usize,
    input_dim: usize,
    latent_dim: usize,
}

impl<'de> Deserialize<'de> for Autoencoder {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let repr = AutoencoderRepr::deserialize(deserializer)?;
        Autoencoder::from_parts(repr.net, repr.latent_idx, repr.input_dim, repr.latent_dim)
            .map_err(serde::de::Error::custom)
    }
}

impl Autoencoder {
    /// Build an asymmetric autoencoder `input -> latent -> mid -> input`
    /// with tanh hidden activations and identity reconstruction.
    pub fn new(input_dim: usize, latent_dim: usize, rng: &mut StdRng) -> Result<Self> {
        if latent_dim == 0 || input_dim == 0 {
            return Err(NnError::InvalidTopology(
                "autoencoder dims must be positive".into(),
            ));
        }
        if latent_dim > input_dim {
            return Err(NnError::InvalidTopology(format!(
                "latent dim {latent_dim} exceeds input dim {input_dim}"
            )));
        }
        // Asymmetric hourglass: the *encoder* is a single **linear** layer
        // `input -> latent` so the online feature-reduction cost is
        // O(nnz x K) — the encoder runs on the application's critical path
        // (paper Eqn 2 charges it to every inference) — and so that
        // (near-)linear input manifolds, ubiquitous in solver workloads,
        // compress without saturation distortion (a learned PCA). The
        // decoder gets a tanh mid layer for reconstruction capacity and
        // only exists offline. The mid width is a capped geometric-mean
        // taper.
        let mid = (4 * latent_dim).clamp(latent_dim.max(8), 128.max(latent_dim));
        let layers = vec![
            crate::layer::Dense::new_random(input_dim, latent_dim, Activation::Identity, rng),
            crate::layer::Dense::new_random(latent_dim, mid, Activation::Tanh, rng),
            crate::layer::Dense::new_random(mid, input_dim, Activation::Identity, rng),
        ];
        Autoencoder::from_parts(Mlp::from_layers(layers)?, 1, input_dim, latent_dim)
    }

    /// The one place an `Autoencoder` is put together: the encoder is the
    /// first `latent_idx` layers (at least one, at most all), and the two
    /// recorded widths are the network's input width and the width that
    /// layer produces.
    fn from_parts(
        net: Mlp,
        latent_idx: usize,
        input_dim: usize,
        latent_dim: usize,
    ) -> Result<Self> {
        let layers = net.layers();
        if latent_idx == 0 || latent_idx > layers.len() {
            return Err(NnError::InvalidTopology(format!(
                "latent layer index {latent_idx} must be between 1 and the {} layers",
                layers.len()
            )));
        }
        if input_dim != net.input_dim() {
            return Err(NnError::InvalidTopology(format!(
                "recorded input width {input_dim} is not the network's {}",
                net.input_dim()
            )));
        }
        let encoded = layers[latent_idx - 1].out_dim();
        if latent_dim != encoded {
            return Err(NnError::InvalidTopology(format!(
                "recorded latent width {latent_dim} is not the {encoded} that layer {latent_idx} produces"
            )));
        }
        Ok(Autoencoder {
            net,
            latent_idx,
            input_dim,
            latent_dim,
        })
    }

    /// Width of the original feature space.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Width of the reduced feature space (the paper's K).
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Borrow the underlying network (topology inspection, tests).
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// Forward FLOPs of the **encoder half** per sample for a dense input
    /// — the online feature-reduction cost entering the NAS objective.
    pub fn encoder_flops(&self) -> u64 {
        self.net.layers()[..self.latent_idx]
            .iter()
            .map(Dense::flops)
            .sum()
    }

    /// Encoder FLOPs when the input arrives sparse with `nnz` stored
    /// entries: the first (sparse) layer costs `2 * nnz * K` instead of
    /// `2 * D * K` — the whole point of the §4.2 sparse online path.
    pub fn encoder_flops_sparse(&self, nnz: usize) -> u64 {
        let first = &self.net.layers()[0];
        let first_sparse = (2 * nnz * first.out_dim()) as u64;
        let rest: u64 = self.net.layers()[1..self.latent_idx]
            .iter()
            .map(Dense::flops)
            .sum();
        first_sparse + rest
    }

    /// Encode one dense sample into the latent space.
    pub fn encode(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut a = Matrix::from_vec(1, x.len(), x.to_vec())?;
        for layer in &self.net.layers()[..self.latent_idx] {
            a = layer.forward(&a)?;
        }
        Ok(a.into_vec())
    }

    /// Encode a dense batch (one sample per row) into the latent space with
    /// one `matmul` per encoder layer. Row `i` is bit-identical to
    /// `encode` of row `i` (row-independent kernels, same order).
    pub fn encode_batch(&self, x: &Matrix) -> Result<Matrix> {
        let encoder = &self.net.layers()[..self.latent_idx];
        let mut a = encoder[0].forward(x)?;
        for layer in &encoder[1..] {
            a = layer.forward(&a)?;
        }
        Ok(a)
    }

    /// Encode a sparse batch **without densifying the input** — the online
    /// path of paper §4.2 (sparse first layer; everything after the first
    /// layer is small and dense).
    pub fn encode_sparse(&self, x: &Csr) -> Result<Matrix> {
        let mut a = self.net.layers()[0].forward_sparse(x)?;
        for layer in &self.net.layers()[1..self.latent_idx] {
            a = layer.forward(&a)?;
        }
        Ok(a)
    }

    /// Full reconstruction of one dense sample (decoder output).
    pub fn reconstruct(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.net.predict(x)
    }

    /// The paper's `Autoencoder.evl(#inputs, #compaction)` API: measure the
    /// σ_y quality degradation of this autoencoder over a batch.
    pub fn evl(&self, batch: &Matrix, mu: f64, abs_tol: f64) -> Result<f64> {
        let rec = self.net.forward(batch)?;
        Ok(sigma_y(batch.as_slice(), rec.as_slice(), mu, abs_tol))
    }

    /// Offline training on dense rows with gradient checkpointing.
    pub fn train_dense(&mut self, data: &Matrix, cfg: &AeTrainConfig) -> Result<AeReport> {
        if data.rows() == 0 {
            return Err(NnError::BadData("no autoencoder training samples".into()));
        }
        if data.cols() != self.input_dim {
            return Err(NnError::BadData(format!(
                "autoencoder expects width {}, got {}",
                self.input_dim,
                data.cols()
            )));
        }
        let mut opt = Adam::new(cfg.lr);
        let mut rng = hpcnet_tensor::rng::seeded(cfg.seed, "ae-dense");
        let mut order: Vec<usize> = (0..data.rows()).collect();
        let mut losses = Vec::with_capacity(cfg.epochs);
        let mut last_stats = None;
        for epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let xb = gather_rows(data, chunk);
                let (l, grads, stats) = loss_and_grads_checkpointed(
                    &self.net,
                    &xb,
                    &xb,
                    Loss::Mse,
                    cfg.checkpoint_segment,
                )?;
                opt.step(&mut self.net, &grads);
                epoch_loss += l;
                batches += 1;
                last_stats = Some(stats);
            }
            losses.push(epoch_loss / batches.max(1) as f64);
            if let Some(bound) = cfg.encoding_loss_bound {
                let sigma = self.evl(data, cfg.mu, cfg.abs_tol)?;
                if sigma <= bound {
                    let final_sigma = sigma;
                    let epochs_run = epoch + 1;
                    return Ok(AeReport {
                        losses,
                        final_sigma,
                        checkpoint_stats: last_stats,
                        epochs_run,
                    });
                }
            }
        }
        let final_sigma = self.evl(data, cfg.mu, cfg.abs_tol)?;
        let epochs_run = losses.len();
        Ok(AeReport {
            losses,
            final_sigma,
            checkpoint_stats: last_stats,
            epochs_run,
        })
    }

    /// Offline training directly on CSR rows: the first layer consumes the
    /// sparse batch and its weight gradient is a sparse-transpose product,
    /// so the input is never unrolled (§4.2). The reconstruction target is
    /// the (dense) row content, materialized per mini-batch only.
    pub fn train_sparse(&mut self, data: &Csr, cfg: &AeTrainConfig) -> Result<AeReport> {
        if data.nrows() == 0 {
            return Err(NnError::BadData("no autoencoder training samples".into()));
        }
        if data.ncols() != self.input_dim {
            return Err(NnError::BadData(format!(
                "autoencoder expects width {}, got {}",
                self.input_dim,
                data.ncols()
            )));
        }
        let mut opt = Adam::new(cfg.lr);
        let mut rng = hpcnet_tensor::rng::seeded(cfg.seed, "ae-sparse");
        let mut order: Vec<usize> = (0..data.nrows()).collect();
        let mut losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let xb_sparse = data.select_rows(chunk);
                // Target: densified *per mini-batch* — bounded by batch
                // size, never the whole dataset.
                let target = xb_sparse.to_dense();
                let l = self.sparse_batch_step(&xb_sparse, &target, &mut opt)?;
                epoch_loss += l;
                batches += 1;
            }
            losses.push(epoch_loss / batches.max(1) as f64);
            if let Some(bound) = cfg.encoding_loss_bound {
                let sigma = self.evl_sparse(data, cfg.mu, cfg.abs_tol)?;
                if sigma <= bound {
                    let epochs_run = epoch + 1;
                    return Ok(AeReport {
                        losses,
                        final_sigma: sigma,
                        checkpoint_stats: None,
                        epochs_run,
                    });
                }
            }
        }
        let final_sigma = self.evl_sparse(data, cfg.mu, cfg.abs_tol)?;
        let epochs_run = losses.len();
        Ok(AeReport {
            losses,
            final_sigma,
            checkpoint_stats: None,
            epochs_run,
        })
    }

    /// σ_y over a sparse dataset, densified row-block by row-block.
    pub fn evl_sparse(&self, data: &Csr, mu: f64, abs_tol: f64) -> Result<f64> {
        let mut total = 0.0;
        let mut blocks = 0usize;
        let block = 64usize;
        let mut start = 0usize;
        while start < data.nrows() {
            let idx: Vec<usize> = (start..(start + block).min(data.nrows())).collect();
            let sub = data.select_rows(&idx);
            let dense = sub.to_dense();
            let rec = self.net.forward(&dense)?;
            total += sigma_y(dense.as_slice(), rec.as_slice(), mu, abs_tol) * idx.len() as f64;
            blocks += idx.len();
            start += block;
        }
        Ok(total / blocks.max(1) as f64)
    }

    /// One forward/backward/update on a sparse mini-batch; returns the loss.
    fn sparse_batch_step(&mut self, xb: &Csr, target: &Matrix, opt: &mut Adam) -> Result<f64> {
        let layers = self.net.layers();
        let mut acts: Vec<Matrix> = Vec::with_capacity(layers.len());
        acts.push(layers[0].forward_sparse(xb)?);
        for layer in &layers[1..] {
            let next = layer.forward(acts.last().expect("non-empty"))?;
            acts.push(next);
        }
        let out = acts.last().expect("non-empty");
        let loss_value = Loss::Mse.value(out, target);
        let mut da = Loss::Mse.gradient(out, target);

        let mut grads = Vec::with_capacity(layers.len());
        for i in (1..layers.len()).rev() {
            let (dx, g) = layers[i].backward(&acts[i - 1], &acts[i], &da)?;
            grads.push(g);
            da = dx;
        }
        grads.push(layers[0].backward_sparse(xb, &acts[0], &da)?);
        grads.reverse();
        opt.step(&mut self.net, &grads);
        Ok(loss_value)
    }

    /// Serialize to JSON (save/share across applications, paper §6.1).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Autoencoder serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self> {
        serde_json::from_str(s).map_err(|e| NnError::BadData(format!("bad autoencoder JSON: {e}")))
    }
}

/// Gather a row subset of a dense matrix.
fn gather_rows(m: &Matrix, idx: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(idx.len(), m.cols());
    for (r, &i) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(m.row(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::DenseGrads;
    use hpcnet_tensor::rng::seeded;
    use hpcnet_tensor::Coo;

    #[test]
    fn sigma_y_known_values() {
        // Paper Eqn 1 semantics: fraction of out-of-band elements.
        let x = [1.0, 2.0, 0.0, -4.0];
        let y = [1.05, 2.5, 0.0, -4.2];
        // mu = 0.1: |dy| bands are 0.1, 0.2, 0(+tol), 0.4
        // violations: element 1 (0.5 > 0.2). => 1/4
        assert_eq!(sigma_y(&x, &y, 0.1, 0.0), 0.25);
        // mu = 0.3: band 0.3,0.6,0,1.2 => no violations
        assert_eq!(sigma_y(&x, &y, 0.3, 0.0), 0.0);
    }

    #[test]
    fn sigma_y_strict_zero_handling() {
        let x = [0.0];
        let y = [1e-9];
        assert_eq!(sigma_y(&x, &y, 0.5, 0.0), 1.0); // strict paper semantics
        assert_eq!(sigma_y(&x, &y, 0.5, 1e-6), 0.0); // absolute band
    }

    #[test]
    fn construction_validates_dims() {
        let mut rng = seeded(1, "ae");
        assert!(Autoencoder::new(0, 1, &mut rng).is_err());
        assert!(Autoencoder::new(4, 8, &mut rng).is_err());
        let ae = Autoencoder::new(16, 4, &mut rng).unwrap();
        assert_eq!(ae.input_dim(), 16);
        assert_eq!(ae.latent_dim(), 4);
        assert_eq!(ae.encode(&vec![0.0; 16]).unwrap().len(), 4);
        assert_eq!(ae.reconstruct(&vec![0.0; 16]).unwrap().len(), 16);
    }

    /// Training on low-rank data should reconstruct it well.
    #[test]
    fn dense_training_learns_low_rank_structure() {
        let mut rng = seeded(2, "ae-train");
        // Data lives on a 2-D manifold in 12-D space.
        let n = 120;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let a = hpcnet_tensor::rng::normal(&mut rng, 0.0, 1.0);
            let b = hpcnet_tensor::rng::normal(&mut rng, 0.0, 1.0);
            let row: Vec<f64> = (0..12)
                .map(|j| a * ((j as f64) * 0.4).sin() + b * ((j as f64) * 0.4).cos())
                .collect();
            rows.push(row);
        }
        let data = Matrix::from_rows(&rows).unwrap();
        let mut ae = Autoencoder::new(12, 3, &mut rng).unwrap();
        let cfg = AeTrainConfig {
            epochs: 300,
            lr: 3e-3,
            ..AeTrainConfig::default()
        };
        let report = ae.train_dense(&data, &cfg).unwrap();
        let first = report.losses[0];
        let last = *report.losses.last().unwrap();
        assert!(last < first / 10.0, "loss {first} -> {last}");
        assert!(report.checkpoint_stats.is_some());
    }

    #[test]
    fn encoding_loss_bound_stops_early() {
        let mut rng = seeded(3, "ae-bound");
        let data = Matrix::zeros(32, 8); // trivially reconstructible
        let mut ae = Autoencoder::new(8, 2, &mut rng).unwrap();
        let cfg = AeTrainConfig {
            epochs: 500,
            encoding_loss_bound: Some(0.5),
            abs_tol: 0.5,
            ..AeTrainConfig::default()
        };
        let report = ae.train_dense(&data, &cfg).unwrap();
        assert!(report.epochs_run < 500);
        assert!(report.final_sigma <= 0.5);
    }

    #[test]
    fn encode_batch_matches_single_encode_bitwise() {
        let mut rng = seeded(7, "ae-batch");
        let ae = Autoencoder::new(18, 5, &mut rng).unwrap();
        let n = 9;
        let data = Matrix::from_vec(
            n,
            18,
            hpcnet_tensor::rng::uniform_vec(&mut rng, n * 18, -2.0, 2.0),
        )
        .unwrap();
        let batch = ae.encode_batch(&data).unwrap();
        assert_eq!(batch.rows(), n);
        assert_eq!(batch.cols(), 5);
        for i in 0..n {
            assert_eq!(
                batch.row(i),
                ae.encode(data.row(i)).unwrap().as_slice(),
                "row {i}"
            );
        }
    }

    #[test]
    fn sparse_encode_matches_dense_encode() {
        let mut rng = seeded(4, "ae-sp");
        let ae = Autoencoder::new(20, 5, &mut rng).unwrap();
        let mut coo = Coo::new(2, 20);
        coo.push(0, 3, 1.5);
        coo.push(0, 11, -2.0);
        coo.push(1, 0, 0.7);
        let sp = coo.to_csr();
        let enc_sp = ae.encode_sparse(&sp).unwrap();
        let dense = sp.to_dense();
        for i in 0..2 {
            let enc_d = ae.encode(dense.row(i)).unwrap();
            for (a, b) in enc_sp.row(i).iter().zip(&enc_d) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparse_training_reduces_reconstruction_loss() {
        let mut rng = seeded(5, "ae-sp-train");
        // Sparse rows with a shared pattern: value at col j depends on j.
        let mut coo = Coo::new(80, 24);
        for i in 0..80 {
            for k in 0..4 {
                let j = (i * 7 + k * 5) % 24;
                coo.push(i, j, ((j as f64) * 0.3).sin());
            }
        }
        let data = coo.to_csr();
        let mut ae = Autoencoder::new(24, 6, &mut rng).unwrap();
        let cfg = AeTrainConfig {
            epochs: 120,
            lr: 3e-3,
            ..AeTrainConfig::default()
        };
        let report = ae.train_sparse(&data, &cfg).unwrap();
        let first = report.losses[0];
        let last = *report.losses.last().unwrap();
        assert!(last < first / 3.0, "loss {first} -> {last}");
    }

    /// `a · b` by the naive triple loop.
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let data = hpcnet_tensor::kernels::naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        Matrix::from_vec(m, n, data).unwrap()
    }

    /// One sparse-path step as the textbook writes it: every product the
    /// naive triple loop over dense operands, every transpose built.
    fn reference_step(net: &mut Mlp, opt: &mut Adam, x: &Matrix) -> f64 {
        let add_bias = |mut z: Matrix, layer: &Dense| {
            for r in 0..z.rows() {
                for (v, &b) in z.row_mut(r).iter_mut().zip(layer.bias()) {
                    *v += b;
                }
                layer.activation().apply(z.row_mut(r));
            }
            z
        };
        let layers = net.layers();
        let mut acts = vec![x.clone()];
        for layer in layers {
            let z = naive(acts.last().unwrap(), layer.weights());
            acts.push(add_bias(z, layer));
        }
        let out = acts.last().unwrap();
        let loss = Loss::Mse.value(out, x);
        let mut d = Loss::Mse.gradient(out, x);
        let mut grads = Vec::new();
        for (i, layer) in layers.iter().enumerate().rev() {
            let a = &acts[i + 1];
            for (g, &av) in d.as_mut_slice().iter_mut().zip(a.as_slice()) {
                *g *= layer.activation().derivative_from_output(av);
            }
            let mut db = vec![0.0; layer.out_dim()];
            for r in 0..d.rows() {
                for (s, &g) in db.iter_mut().zip(d.row(r)) {
                    *s += g;
                }
            }
            let dw = naive(&acts[i].transpose(), &d);
            grads.push(DenseGrads { dw, db });
            d = naive(&d, &layer.weights().transpose());
        }
        grads.reverse();
        opt.step(net, &grads);
        loss
    }

    #[test]
    fn sparse_steps_equal_the_naive_reference_over_the_tile_budget() {
        // 24 rows of 4 096, K = 32, mid 128: the decoder weight is 4 MiB,
        // sixteen times the GEMM's tile budget, so its forward, `dW` and
        // `dX` all run tiled; one epoch is a 16-row and an 8-row step.
        let (n, d) = (24, 4096);
        let mut coo = Coo::new(n, d);
        for i in 0..n {
            for k in 0..40 {
                let j = (i * 131 + k * 97) % d;
                coo.push(i, j, ((i + 3 * j) as f64 * 0.37).sin());
            }
        }
        let data = coo.to_csr();
        let mut rng = seeded(8, "ae-tiled");
        let mut ae = Autoencoder::new(d, 32, &mut rng).unwrap();
        assert_eq!(ae.network().layers()[2].in_dim(), 128);
        let mut reference = ae.network().clone();
        let cfg = AeTrainConfig {
            epochs: 1,
            ..AeTrainConfig::default()
        };
        let report = ae.train_sparse(&data, &cfg).unwrap();

        // The same two mini-batches, in `train_sparse`'s shuffle.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut hpcnet_tensor::rng::seeded(cfg.seed, "ae-sparse"));
        let mut opt = Adam::new(cfg.lr);
        let mut loss = 0.0;
        for chunk in order.chunks(cfg.batch_size) {
            let x = data.select_rows(chunk).to_dense();
            loss += reference_step(&mut reference, &mut opt, &x);
        }
        assert_eq!(ae.network(), &reference);
        assert_eq!(report.losses, vec![loss / 2.0]);
        let dense = data.to_dense();
        let rec = reference.forward(&dense).unwrap();
        assert_eq!(
            report.final_sigma,
            sigma_y(dense.as_slice(), rec.as_slice(), cfg.mu, cfg.abs_tol)
        );
    }

    #[test]
    fn json_roundtrip_preserves_encoding() {
        let mut rng = seeded(6, "ae-json");
        let ae = Autoencoder::new(10, 3, &mut rng).unwrap();
        let restored = Autoencoder::from_json(&ae.to_json()).unwrap();
        let x: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        assert_eq!(ae.encode(&x).unwrap(), restored.encode(&x).unwrap());
    }

    #[test]
    fn evl_reports_zero_for_perfect_reconstruction() {
        // An identity-ish check: evl of x against itself via sigma_y directly.
        let batch = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(sigma_y(batch.as_slice(), batch.as_slice(), 0.1, 0.0), 0.0);
    }
}
