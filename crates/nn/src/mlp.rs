//! Multi-layer perceptron: the surrogate-model body the NAS searches over.
//!
//! The forward path of [`MlpOf<T>`], batched and single-sample, is generic
//! over the element type. An [`MlpF32`] is quantized from a trained [`Mlp`]
//! once, at model registration, when the orchestrator was built with
//! `serve_f32(true)`; there is no `f32` training or serialization, so
//! precision policy can change without invalidating checkpoints
//! (DESIGN.md §14).

use hpcnet_tensor::kernels::Scalar;
use hpcnet_tensor::{Matrix, MatrixOf};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::layer::{Dense, DenseF32, DenseGrads, DenseOf};
use crate::loss::Loss;
use crate::{NnError, Result};

/// A surrogate-model topology: layer widths plus hidden/output activations.
///
/// This is the θ of the paper's 2D NAS — the low-level Bayesian optimization
/// proposes instances of this type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Widths including input and output: `[in, h1, ..., out]`.
    pub widths: Vec<usize>,
    /// Activation applied to every hidden layer.
    pub hidden_act: Activation,
    /// Activation on the output layer (usually `Identity` for regression).
    pub output_act: Activation,
}

impl Topology {
    /// Convenience constructor with tanh hidden / identity output, the
    /// default surrogate shape in the paper's experiments (MLP default,
    /// Table 1 `-initModel`).
    pub fn mlp(widths: Vec<usize>) -> Self {
        Topology {
            widths,
            hidden_act: Activation::Tanh,
            output_act: Activation::Identity,
        }
    }

    /// Validate structural sanity.
    pub fn validate(&self) -> Result<()> {
        if self.widths.len() < 2 {
            return Err(NnError::InvalidTopology(
                "need at least input and output widths".into(),
            ));
        }
        if self.widths.contains(&0) {
            return Err(NnError::InvalidTopology("zero-width layer".into()));
        }
        Ok(())
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.widths[0]
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        *self.widths.last().expect("validated")
    }

    /// Number of weight layers.
    pub fn depth(&self) -> usize {
        self.widths.len() - 1
    }

    /// Total trainable parameters of an MLP with this topology.
    pub fn param_count(&self) -> usize {
        self.widths.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// Forward FLOPs per sample (2·in·out per layer) — the analytic cost
    /// the NAS feeds to the device model as part of f_c.
    pub fn flops(&self) -> u64 {
        self.widths
            .windows(2)
            .map(|w| (2 * w[0] * w[1]) as u64)
            .sum()
    }
}

/// Reusable activation buffers for the single-sample forward pass.
///
/// The serving hot path calls [`Mlp::predict_with`] with one of these per
/// worker: after the first call sizes the two ping-pong buffers, every
/// subsequent inference runs without a single heap allocation.
///
/// # Examples
///
/// ```
/// use hpcnet_nn::{Mlp, ScratchBuffers, Topology};
/// let mut rng = hpcnet_tensor::rng::seeded(7, "doc-scratch");
/// let mlp = Mlp::new(&Topology::mlp(vec![3, 8, 2]), &mut rng).unwrap();
/// let mut scratch = ScratchBuffers::new();
/// let y = mlp.predict_with(&[0.1, -0.2, 0.3], &mut scratch).unwrap().to_vec();
/// assert_eq!(y, mlp.predict(&[0.1, -0.2, 0.3]).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct ScratchBuffersOf<T> {
    a: Vec<T>,
    b: Vec<T>,
}

/// Scratch for the `f64` forward pass.
pub type ScratchBuffers = ScratchBuffersOf<f64>;

/// Scratch for the `f32` serving forward pass.
pub type ScratchBuffersF32 = ScratchBuffersOf<f32>;

impl<T> ScratchBuffersOf<T> {
    /// Fresh empty buffers; they grow to the widest layer on first use.
    pub fn new() -> Self {
        ScratchBuffersOf {
            a: Vec::new(),
            b: Vec::new(),
        }
    }

    /// Pre-size both buffers for networks up to `max_width` wide, so even
    /// the first inference allocates nothing.
    pub fn with_capacity(max_width: usize) -> Self {
        ScratchBuffersOf {
            a: Vec::with_capacity(max_width),
            b: Vec::with_capacity(max_width),
        }
    }
}

// Not derived: the derive would ask for `T: Default`, which `Scalar`
// does not promise.
impl<T> Default for ScratchBuffersOf<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A multi-layer perceptron.
///
/// # Examples
///
/// ```
/// use hpcnet_nn::{Mlp, Topology};
/// let mut rng = hpcnet_tensor::rng::seeded(7, "doc");
/// let mlp = Mlp::new(&Topology::mlp(vec![3, 8, 2]), &mut rng).unwrap();
/// let y = mlp.predict(&[0.1, -0.2, 0.3]).unwrap();
/// assert_eq!(y.len(), 2);
/// assert_eq!(mlp.param_count(), 3 * 8 + 8 + 8 * 2 + 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpOf<T> {
    layers: Vec<DenseOf<T>>,
}

/// The `f64` MLP: what is trained, checkpointed and served by default.
pub type Mlp = MlpOf<f64>;

/// An `f32` quantization of a trained [`Mlp`], for serving only.
pub type MlpF32 = MlpOf<f32>;

impl<T: Scalar> MlpOf<T> {
    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward pass on a batch.
    pub fn forward(&self, x: &MatrixOf<T>) -> Result<MatrixOf<T>> {
        let mut a = self.layers[0].forward(x)?;
        for layer in &self.layers[1..] {
            a = layer.forward(&a)?;
        }
        Ok(a)
    }

    /// Batched forward pass (one sample per row). Each layer is a single
    /// `matmul`, which parallelizes across rows, instead of per-sample
    /// `matvec`s; row `i` of the result is bit-identical to
    /// `predict(x.row(i))` because the matmul kernel treats rows
    /// independently in the same accumulation order.
    pub fn predict_batch(&self, x: &MatrixOf<T>) -> Result<MatrixOf<T>> {
        self.forward(x)
    }

    /// Predict a single sample (convenience over [`Self::predict_with`]).
    pub fn predict(&self, x: &[T]) -> Result<Vec<T>> {
        let mut scratch = ScratchBuffersOf::new();
        Ok(self.predict_with(x, &mut scratch)?.to_vec())
    }

    /// Predict a single sample through caller-owned [`ScratchBuffersOf`]:
    /// the zero-allocation serving hot path. Returns a borrow of the
    /// scratch buffer holding the output; copy it out before the next call.
    pub fn predict_with<'s>(
        &self,
        x: &[T],
        scratch: &'s mut ScratchBuffersOf<T>,
    ) -> Result<&'s [T]> {
        let ScratchBuffersOf { a, b } = scratch;
        let (mut cur, mut nxt): (&mut Vec<T>, &mut Vec<T>) = (a, b);
        cur.clear();
        cur.extend_from_slice(x);
        for layer in &self.layers {
            layer.forward_single_into(cur, nxt)?;
            std::mem::swap(&mut cur, &mut nxt);
        }
        Ok(cur)
    }
}

impl Mlp {
    /// Build an MLP with randomly initialized parameters.
    pub fn new(topology: &Topology, rng: &mut StdRng) -> Result<Self> {
        topology.validate()?;
        let depth = topology.depth();
        let mut layers = Vec::with_capacity(depth);
        for (i, w) in topology.widths.windows(2).enumerate() {
            let act = if i + 1 == depth {
                topology.output_act
            } else {
                topology.hidden_act
            };
            layers.push(Dense::new_random(w[0], w[1], act, rng));
        }
        Ok(Mlp { layers })
    }

    /// Build from explicit layers (deserialization, tests).
    pub fn from_layers(layers: Vec<Dense>) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::InvalidTopology(
                "MLP needs at least one layer".into(),
            ));
        }
        for pair in layers.windows(2) {
            if pair[0].out_dim() != pair[1].in_dim() {
                return Err(NnError::InvalidTopology(format!(
                    "layer widths disagree: {} -> {}",
                    pair[0].out_dim(),
                    pair[1].in_dim()
                )));
            }
        }
        Ok(Mlp { layers })
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer access (optimizer update path).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Recover the topology of this network.
    pub fn topology(&self) -> Topology {
        let mut widths = Vec::with_capacity(self.layers.len() + 1);
        widths.push(self.input_dim());
        for l in &self.layers {
            widths.push(l.out_dim());
        }
        Topology {
            widths,
            hidden_act: self.layers[0].activation(),
            output_act: self.layers.last().expect("non-empty").activation(),
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Per-sample forward FLOPs.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(Dense::flops).sum()
    }

    /// Forward pass that retains every activation (for plain backprop).
    /// Returns `[input, a1, ..., aL]`.
    pub fn forward_trace(&self, x: &Matrix) -> Result<Vec<Matrix>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("non-empty"))?;
            acts.push(next);
        }
        Ok(acts)
    }

    /// Full backprop from a retained activation trace.
    ///
    /// Returns per-layer parameter gradients (same order as layers).
    pub fn backward_from_trace(
        &self,
        acts: &[Matrix],
        loss: Loss,
        target: &Matrix,
    ) -> Result<Vec<DenseGrads>> {
        debug_assert_eq!(acts.len(), self.layers.len() + 1);
        let mut da = loss.gradient(acts.last().expect("non-empty"), target);
        let mut grads: Vec<DenseGrads> = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let x = &acts[i];
            let a = &acts[i + 1];
            if i == 0 {
                grads.push(layer.backward_params_only(x, a, &da)?);
            } else {
                let (dx, g) = layer.backward(x, a, &da)?;
                grads.push(g);
                da = dx;
            }
        }
        grads.reverse();
        Ok(grads)
    }

    /// One forward+backward on a batch: returns `(loss, grads)`.
    pub fn loss_and_grads(
        &self,
        x: &Matrix,
        target: &Matrix,
        loss: Loss,
    ) -> Result<(f64, Vec<DenseGrads>)> {
        let acts = self.forward_trace(x)?;
        let l = loss.value(acts.last().expect("non-empty"), target);
        let grads = self.backward_from_trace(&acts, loss, target)?;
        Ok((l, grads))
    }

    /// Serialize to JSON (the checkpoint/share format, paper §6.1).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Mlp serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self> {
        serde_json::from_str(s).map_err(|e| NnError::BadData(format!("bad model JSON: {e}")))
    }
}

impl MlpF32 {
    /// Quantize every layer of a trained `f64` MLP.
    pub fn from_mlp(mlp: &Mlp) -> Self {
        MlpOf {
            layers: mlp.layers.iter().map(DenseF32::from_dense).collect(),
        }
    }
}

/// The JSON shape of an [`Mlp`]; reading goes through
/// [`Mlp::from_layers`] (see `hpcnet_tensor::dense` for the serde rule).
#[derive(Serialize, Deserialize)]
struct MlpRepr {
    layers: Vec<Dense>,
}

impl Serialize for Mlp {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        MlpRepr {
            layers: self.layers.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Mlp {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let repr = MlpRepr::deserialize(deserializer)?;
        Mlp::from_layers(repr.layers).map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_tensor::rng::{seeded, uniform_vec};

    #[test]
    fn topology_validation() {
        assert!(Topology::mlp(vec![4]).validate().is_err());
        assert!(Topology::mlp(vec![4, 0, 2]).validate().is_err());
        assert!(Topology::mlp(vec![4, 8, 2]).validate().is_ok());
    }

    #[test]
    fn topology_counts() {
        let t = Topology::mlp(vec![3, 5, 2]);
        assert_eq!(t.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(t.flops(), (2 * 15 + 2 * 10) as u64);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.input_dim(), 3);
        assert_eq!(t.output_dim(), 2);
    }

    #[test]
    fn mlp_topology_roundtrip() {
        let t = Topology::mlp(vec![4, 7, 3]);
        let mlp = Mlp::new(&t, &mut seeded(1, "mlp")).unwrap();
        assert_eq!(mlp.topology(), t);
        assert_eq!(mlp.param_count(), t.param_count());
        assert_eq!(mlp.flops(), t.flops());
    }

    #[test]
    fn from_layers_rejects_mismatched_widths() {
        let mut rng = seeded(2, "fl");
        let l1 = Dense::new_random(3, 4, Activation::Tanh, &mut rng);
        let l2 = Dense::new_random(5, 2, Activation::Identity, &mut rng);
        assert!(Mlp::from_layers(vec![l1, l2]).is_err());
        assert!(Mlp::from_layers(vec![]).is_err());
    }

    #[test]
    fn gradients_match_finite_difference_through_depth() {
        let mut rng = seeded(3, "fd");
        let t = Topology::mlp(vec![3, 4, 4, 2]);
        let mut mlp = Mlp::new(&t, &mut rng).unwrap();
        let x = Matrix::from_vec(2, 3, uniform_vec(&mut rng, 6, -1.0, 1.0)).unwrap();
        let y = Matrix::from_vec(2, 2, uniform_vec(&mut rng, 4, -1.0, 1.0)).unwrap();
        let (_, grads) = mlp.loss_and_grads(&x, &y, Loss::Mse).unwrap();

        let eps = 1e-6;
        for li in 0..3 {
            let (rows, cols) = {
                let w = mlp.layers()[li].weights();
                (w.rows(), w.cols())
            };
            for i in 0..rows {
                for j in 0..cols {
                    let orig = mlp.layers()[li].weights().at(i, j);
                    *mlp.layers_mut()[li].weights_mut().at_mut(i, j) = orig + eps;
                    let up = Loss::Mse.value(&mlp.forward(&x).unwrap(), &y);
                    *mlp.layers_mut()[li].weights_mut().at_mut(i, j) = orig - eps;
                    let down = Loss::Mse.value(&mlp.forward(&x).unwrap(), &y);
                    *mlp.layers_mut()[li].weights_mut().at_mut(i, j) = orig;
                    let fd = (up - down) / (2.0 * eps);
                    assert!(
                        (fd - grads[li].dw.at(i, j)).abs() < 1e-5,
                        "layer {li} dW({i},{j}): fd={fd} an={}",
                        grads[li].dw.at(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn predict_matches_batch_forward() {
        let mut rng = seeded(4, "pred");
        let mlp = Mlp::new(&Topology::mlp(vec![3, 6, 2]), &mut rng).unwrap();
        let x = vec![0.3, -0.7, 0.1];
        let single = mlp.predict(&x).unwrap();
        let batch = mlp
            .forward(&Matrix::from_vec(1, 3, x).unwrap())
            .unwrap()
            .into_vec();
        assert_eq!(single, batch);
    }

    #[test]
    fn predict_with_reuses_buffers_and_matches_predict() {
        let mut rng = seeded(11, "scratch");
        let mlp = Mlp::new(&Topology::mlp(vec![5, 16, 8, 3]), &mut rng).unwrap();
        let mut scratch = ScratchBuffers::with_capacity(16);
        let (ca, cb) = (scratch.a.capacity(), scratch.b.capacity());
        for _ in 0..10 {
            let x = uniform_vec(&mut rng, 5, -1.0, 1.0);
            let fast = mlp.predict_with(&x, &mut scratch).unwrap().to_vec();
            assert_eq!(fast, mlp.predict(&x).unwrap());
        }
        // Pre-sized buffers never reallocate: the hot path is allocation-free.
        assert_eq!(scratch.a.capacity(), ca);
        assert_eq!(scratch.b.capacity(), cb);
    }

    fn quantized(widths: Vec<usize>, seed: u64) -> (Mlp, MlpF32) {
        let mlp = Mlp::new(&Topology::mlp(widths), &mut seeded(seed, "f32")).unwrap();
        let q = MlpF32::from_mlp(&mlp);
        (mlp, q)
    }

    /// One body for both precisions: every row of a batch above
    /// PAR_THRESHOLD (so the parallel matmul path runs too) is bit-equal
    /// to the single-sample prediction of that row.
    fn batch_rows_bit_equal_single<T: Scalar + std::fmt::Debug>(net: &MlpOf<T>, xs: Vec<T>) {
        let width = net.input_dim();
        let n = xs.len() / width;
        let batch = net
            .predict_batch(&MatrixOf::from_vec(n, width, xs.clone()).unwrap())
            .unwrap();
        for i in 0..n {
            let single = net.predict(&xs[i * width..(i + 1) * width]).unwrap();
            assert_eq!(batch.row(i), single.as_slice(), "row {i}");
        }
    }

    #[test]
    fn predict_batch_rows_bit_equal_single_predictions_at_both_precisions() {
        let (mlp, q) = quantized(vec![4, 8, 2], 2);
        let xs = uniform_vec(&mut seeded(3, "f32-pred"), 70 * 4, -2.0, 2.0);
        batch_rows_bit_equal_single(&q, xs.iter().map(|&v| v as f32).collect());
        batch_rows_bit_equal_single(&mlp, xs);
    }

    #[test]
    fn dims_survive_quantization() {
        let (mlp, q) = quantized(vec![5, 9, 3], 1);
        assert_eq!(q.input_dim(), mlp.input_dim());
        assert_eq!(q.output_dim(), mlp.output_dim());
    }

    #[test]
    fn f32_tracks_f64_closely_on_a_small_net() {
        let (mlp, q) = quantized(vec![3, 16, 2], 4);
        let mut rng = seeded(5, "f32-err");
        for _ in 0..20 {
            let x = uniform_vec(&mut rng, 3, -1.0, 1.0);
            let y64 = mlp.predict(&x).unwrap();
            let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let y32 = q.predict(&x32).unwrap();
            for (a, b) in y64.iter().zip(&y32) {
                assert!((a - f64::from(*b)).abs() < 1e-4, "f64={a} f32={b}");
            }
        }
        // Batch path agrees with the f64 batch path to the same envelope.
        let x = uniform_vec(&mut rng, 8 * 3, -1.0, 1.0);
        let b64 = mlp
            .predict_batch(&Matrix::from_vec(8, 3, x.clone()).unwrap())
            .unwrap();
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let b32 = q
            .predict_batch(&MatrixOf::from_vec(8, 3, x32).unwrap())
            .unwrap();
        for (a, b) in b64.as_slice().iter().zip(b32.as_slice()) {
            assert!((a - f64::from(*b)).abs() < 1e-4);
        }
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let mut rng = seeded(5, "json");
        let mlp = Mlp::new(&Topology::mlp(vec![4, 5, 1]), &mut rng).unwrap();
        let restored = Mlp::from_json(&mlp.to_json()).unwrap();
        let x = vec![0.1, 0.2, 0.3, 0.4];
        assert_eq!(mlp.predict(&x).unwrap(), restored.predict(&x).unwrap());
    }
}
