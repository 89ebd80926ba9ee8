//! Dense and sparse-input layers with manual forward/backward kernels.
//!
//! The forward pass of [`DenseOf<T>`] is generic over the element type;
//! construction, training and serde are on its `f64` alias [`Dense`]
//! (DESIGN.md §14.1).

use hpcnet_tensor::kernels::Scalar;
use hpcnet_tensor::{Csr, Matrix, MatrixF32, MatrixOf};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::{NnError, Result};

/// A fully connected layer `Y = act(X W + b)`.
///
/// Weights are stored `(in_dim x out_dim)` so batch-major inputs
/// (`batch x in_dim`) multiply without transposes on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseOf<T> {
    w: MatrixOf<T>,
    b: Vec<T>,
    act: Activation,
}

/// The `f64` layer: what is trained, checkpointed and served by default.
pub type Dense = DenseOf<f64>;

/// The `f32` quantization of a trained layer, for serving only.
pub type DenseF32 = DenseOf<f32>;

/// Parameter gradients produced by a layer's backward pass.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// Gradient with respect to the weight matrix.
    pub dw: Matrix,
    /// Gradient with respect to the bias vector.
    pub db: Vec<f64>,
}

impl DenseGrads {
    /// A zero gradient matching `layer`'s shapes (Adam/momentum state init).
    pub fn zeros_like(layer: &Dense) -> Self {
        DenseGrads {
            dw: Matrix::zeros(layer.in_dim(), layer.out_dim()),
            db: vec![0.0; layer.out_dim()],
        }
    }
}

impl<T: Scalar> DenseOf<T> {
    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass on a batch (`batch x in_dim`), returning post-activation.
    pub fn forward(&self, x: &MatrixOf<T>) -> Result<MatrixOf<T>> {
        let mut z = x.matmul(&self.w)?;
        self.add_bias_and_activate(&mut z);
        Ok(z)
    }

    /// The tail of every batched forward: `Z + b` per row, then the
    /// activation.
    fn add_bias_and_activate(&self, z: &mut MatrixOf<T>) {
        for row in 0..z.rows() {
            let r = z.row_mut(row);
            for (v, &bi) in r.iter_mut().zip(&self.b) {
                *v += bi;
            }
        }
        for row in 0..z.rows() {
            self.act.apply(z.row_mut(row));
        }
    }

    /// Forward pass for one sample into a caller-provided buffer: the
    /// zero-allocation serving hot path. `out` is resized (never shrunk in
    /// capacity) and overwritten; after warm-up no allocation occurs.
    ///
    /// Bit-identical to a 1-row [`Self::forward`]: same matmul kernel, same
    /// bias-then-activation order.
    pub fn forward_single_into(&self, x: &[T], out: &mut Vec<T>) -> Result<()> {
        out.clear();
        out.resize(self.out_dim(), T::ZERO);
        self.w.vecmat_into(x, out)?;
        for (v, &bi) in out.iter_mut().zip(&self.b) {
            *v += bi;
        }
        self.act.apply(out);
        Ok(())
    }
}

impl Dense {
    /// He-style initialization scaled for the fan-in, suitable for
    /// ReLU-family activations and acceptable for tanh at our scales.
    pub fn new_random(in_dim: usize, out_dim: usize, act: Activation, rng: &mut StdRng) -> Self {
        let std = (2.0 / in_dim.max(1) as f64).sqrt();
        let data = hpcnet_tensor::rng::normal_vec(rng, in_dim * out_dim, 0.0, std);
        Dense {
            w: Matrix::from_vec(in_dim, out_dim, data).expect("sized"),
            b: vec![0.0; out_dim],
            act,
        }
    }

    /// Construct from explicit parameters (deserialization, tests).
    ///
    /// Returns an error unless the bias length equals the output width.
    pub fn from_parts(w: Matrix, b: Vec<f64>, act: Activation) -> Result<Self> {
        if w.cols() != b.len() {
            return Err(NnError::InvalidTopology(format!(
                "bias length {} must equal the layer's output width {}",
                b.len(),
                w.cols()
            )));
        }
        Ok(Dense { w, b, act })
    }

    /// This layer's activation.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Borrow the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutably borrow the weight matrix (optimizer update path).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Borrow the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.b
    }

    /// Mutably borrow the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f64] {
        &mut self.b
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Multiply-add FLOPs for one forward pass of a single sample.
    pub fn flops(&self) -> u64 {
        (2 * self.w.rows() * self.w.cols()) as u64
    }

    /// Backward pass.
    ///
    /// `x` is the layer input, `a` the forward output (post-activation),
    /// `da` the loss gradient with respect to `a`. Returns the gradient
    /// with respect to `x` along with the parameter gradients.
    pub fn backward(&self, x: &Matrix, a: &Matrix, da: &Matrix) -> Result<(Matrix, DenseGrads)> {
        let dz = chain_activation(self.act, a, da);
        // dW = Xᵀ · dZ (fused, no transpose copy), db = column sums of dZ,
        // dX = dZ · Wᵀ, computed as (W · dZᵀ)ᵀ: the two batch-sized
        // matrices are transposed instead of the weight, and `W` streams
        // through the product once as its left operand. Each dX element
        // is the same products summed in the same increasing order
        // (multiplication commutes exactly), so the bits are those of
        // the product taken with a materialised `Wᵀ`.
        let dw = x.at_matmul(&dz)?;
        let mut db = vec![0.0; self.out_dim()];
        for row in 0..dz.rows() {
            for (d, &g) in db.iter_mut().zip(dz.row(row)) {
                *d += g;
            }
        }
        let dx = self.w.matmul(&dz.transpose())?.transpose();
        Ok((dx, DenseGrads { dw, db }))
    }

    /// Forward pass on a **sparse** CSR batch: `Y = act(X_sparse W + b)`
    /// with the input never densified (the paper's "embedding API" path).
    pub fn forward_sparse(&self, x: &Csr) -> Result<Matrix> {
        let mut z = x.spmm_dense(&self.w)?;
        self.add_bias_and_activate(&mut z);
        Ok(z)
    }

    /// Parameter gradients for a sparse first-layer batch:
    /// `dW = X_sparseᵀ · dZ` via a sparse-transpose product.
    pub fn backward_sparse(&self, x: &Csr, a: &Matrix, da: &Matrix) -> Result<DenseGrads> {
        let dz = chain_activation(self.act, a, da);
        let dw = x.transpose().spmm_dense(&dz)?;
        let mut db = vec![0.0; self.out_dim()];
        for row in 0..dz.rows() {
            for (d, &g) in db.iter_mut().zip(dz.row(row)) {
                *d += g;
            }
        }
        Ok(DenseGrads { dw, db })
    }

    /// Backward pass for a layer whose input gradient is not needed
    /// (a first layer). Skips the `dZ · Wᵀ` product.
    pub fn backward_params_only(&self, x: &Matrix, a: &Matrix, da: &Matrix) -> Result<DenseGrads> {
        let dz = chain_activation(self.act, a, da);
        let dw = x.at_matmul(&dz)?;
        let mut db = vec![0.0; self.out_dim()];
        for row in 0..dz.rows() {
            for (d, &g) in db.iter_mut().zip(dz.row(row)) {
                *d += g;
            }
        }
        Ok(DenseGrads { dw, db })
    }
}

impl DenseF32 {
    /// Quantize a trained `f64` layer (round-to-nearest-even per element).
    pub fn from_dense(layer: &Dense) -> Self {
        DenseOf {
            w: MatrixF32::from_f64(&layer.w),
            b: layer.b.iter().map(|&v| v as f32).collect(),
            act: layer.act,
        }
    }
}

/// The JSON shape of a [`Dense`]; reading goes through
/// [`Dense::from_parts`] (see `hpcnet_tensor::dense` for the serde rule).
#[derive(Serialize, Deserialize)]
struct DenseRepr {
    w: Matrix,
    b: Vec<f64>,
    act: Activation,
}

impl Serialize for Dense {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        DenseRepr {
            w: self.w.clone(),
            b: self.b.clone(),
            act: self.act,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Dense {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let repr = DenseRepr::deserialize(deserializer)?;
        Dense::from_parts(repr.w, repr.b, repr.act).map_err(serde::de::Error::custom)
    }
}

/// Chain rule through the activation: `dZ = dA ⊙ act'(A)`.
fn chain_activation(act: Activation, a: &Matrix, da: &Matrix) -> Matrix {
    let mut dz = da.clone();
    for (d, &av) in dz.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *d *= act.derivative_from_output(av);
    }
    dz
}

/// A fully connected **first** layer that consumes a sparse CSR batch
/// directly: `Y = act(X_sparse W + b)`.
///
/// This is the substitute for the paper's "TensorFlow embedding API" (§4.2):
/// the sparse input is never unrolled to a dense matrix, eliminating both
/// the format-transformation time and the dense-storage blow-up (the paper
/// cites 14x for NPB CG inputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseDense {
    inner: Dense,
}

impl SparseDense {
    /// Random initialization; see [`Dense::new_random`].
    pub fn new_random(in_dim: usize, out_dim: usize, act: Activation, rng: &mut StdRng) -> Self {
        SparseDense {
            inner: Dense::new_random(in_dim, out_dim, act, rng),
        }
    }

    /// Wrap an existing dense layer (used by equivalence tests).
    pub fn from_dense(inner: Dense) -> Self {
        SparseDense { inner }
    }

    /// View as the equivalent dense layer.
    pub fn as_dense(&self) -> &Dense {
        &self.inner
    }

    /// Mutable view for optimizer updates.
    pub fn as_dense_mut(&mut self) -> &mut Dense {
        &mut self.inner
    }

    /// Forward pass on a sparse batch (`batch x in_dim` CSR).
    pub fn forward_sparse(&self, x: &Csr) -> Result<Matrix> {
        self.inner.forward_sparse(x)
    }

    /// Parameter gradients for a sparse batch. The gradient with respect to
    /// the (given) input is never needed for a first layer.
    ///
    /// `dW = X_sparseᵀ · dZ` is computed as a sparse-transpose × dense
    /// product, so the input stays compressed through backprop too.
    pub fn backward_sparse(&self, x: &Csr, a: &Matrix, da: &Matrix) -> Result<DenseGrads> {
        self.inner.backward_sparse(x, a, da)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_tensor::rng::seeded;
    use hpcnet_tensor::Coo;

    fn small_layer(act: Activation) -> Dense {
        let w = Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6]).unwrap();
        Dense::from_parts(w, vec![0.05, -0.05], act).unwrap()
    }

    #[test]
    fn forward_known_values_identity() {
        let l = small_layer(Activation::Identity);
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let y = l.forward(&x).unwrap();
        // [1,2,3]·W = [0.1+0.6-1.5, -0.2+0.8+1.8] = [-0.8, 2.4]; +b
        assert!((y.at(0, 0) - (-0.75)).abs() < 1e-12);
        assert!((y.at(0, 1) - 2.35).abs() < 1e-12);
    }

    /// Finite-difference check of all gradients for every activation.
    #[test]
    fn backward_matches_finite_difference() {
        let acts = [
            Activation::Identity,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::LeakyRelu,
        ];
        let mut rng = seeded(5, "layer-fd");
        for act in acts {
            let mut layer = Dense::new_random(4, 3, act, &mut rng);
            let x = Matrix::from_vec(
                2,
                4,
                hpcnet_tensor::rng::uniform_vec(&mut rng, 8, -1.0, 1.0),
            )
            .unwrap();
            // Loss = sum of outputs, so dA = ones.
            let a = layer.forward(&x).unwrap();
            let da = Matrix::from_vec(2, 3, vec![1.0; 6]).unwrap();
            let (dx, grads) = layer.backward(&x, &a, &da).unwrap();

            let eps = 1e-6;
            let loss =
                |l: &Dense, xx: &Matrix| -> f64 { l.forward(xx).unwrap().as_slice().iter().sum() };
            // dW check
            for i in 0..4 {
                for j in 0..3 {
                    let orig = layer.w.at(i, j);
                    *layer.w.at_mut(i, j) = orig + eps;
                    let up = loss(&layer, &x);
                    *layer.w.at_mut(i, j) = orig - eps;
                    let down = loss(&layer, &x);
                    *layer.w.at_mut(i, j) = orig;
                    let fd = (up - down) / (2.0 * eps);
                    assert!(
                        (fd - grads.dw.at(i, j)).abs() < 1e-4,
                        "{}: dW({i},{j}) fd={fd} an={}",
                        act.name(),
                        grads.dw.at(i, j)
                    );
                }
            }
            // db check
            for j in 0..3 {
                let orig = layer.b[j];
                layer.b[j] = orig + eps;
                let up = loss(&layer, &x);
                layer.b[j] = orig - eps;
                let down = loss(&layer, &x);
                layer.b[j] = orig;
                let fd = (up - down) / (2.0 * eps);
                assert!((fd - grads.db[j]).abs() < 1e-4, "{}: db({j})", act.name());
            }
            // dX check
            let mut xx = x.clone();
            for i in 0..2 {
                for j in 0..4 {
                    let orig = xx.at(i, j);
                    *xx.at_mut(i, j) = orig + eps;
                    let up = loss(&layer, &xx);
                    *xx.at_mut(i, j) = orig - eps;
                    let down = loss(&layer, &xx);
                    *xx.at_mut(i, j) = orig;
                    let fd = (up - down) / (2.0 * eps);
                    assert!(
                        (fd - dx.at(i, j)).abs() < 1e-4,
                        "{}: dX({i},{j})",
                        act.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dx_is_bitwise_dz_times_w_transposed() {
        // `backward` never builds `Wᵀ`; its `dX` must still be the bits of
        // the product written that way. A 40 x 1000 weight is over the
        // GEMM's tile budget (the transposed operand is cut along `k`), a
        // 6 x 4 one is one tile; tanh makes `dZ` differ from `dA`.
        let mut rng = seeded(17, "dx");
        for (in_dim, out_dim) in [(40usize, 1000usize), (6, 4)] {
            for act in [Activation::Tanh, Activation::Identity] {
                let layer = Dense::new_random(in_dim, out_dim, act, &mut rng);
                let uniform = |rng: &mut StdRng, r: usize, c: usize| {
                    let data = hpcnet_tensor::rng::uniform_vec(rng, r * c, -1.0, 1.0);
                    Matrix::from_vec(r, c, data).unwrap()
                };
                let x = uniform(&mut rng, 5, in_dim);
                let da = uniform(&mut rng, 5, out_dim);
                let a = layer.forward(&x).unwrap();
                let (dx, _) = layer.backward(&x, &a, &da).unwrap();
                let dz = chain_activation(act, &a, &da);
                let reference = dz.matmul(&layer.weights().transpose()).unwrap();
                assert_eq!(dx, reference, "{in_dim}x{out_dim} {}", act.name());
            }
        }
    }

    #[test]
    fn forward_single_into_matches_batch_forward_bitwise() {
        let mut rng = seeded(33, "fsi");
        let layer = Dense::new_random(6, 4, Activation::Tanh, &mut rng);
        let x = hpcnet_tensor::rng::uniform_vec(&mut rng, 6, -1.0, 1.0);
        let mut out = Vec::new();
        layer.forward_single_into(&x, &mut out).unwrap();
        let batch = layer
            .forward(&Matrix::from_vec(1, 6, x.clone()).unwrap())
            .unwrap();
        assert_eq!(out.as_slice(), batch.as_slice());
        // Reuse of a dirty, larger buffer still produces the same result.
        let mut dirty = vec![7.0; 32];
        layer.forward_single_into(&x, &mut dirty).unwrap();
        assert_eq!(dirty.as_slice(), batch.as_slice());
        assert!(layer.forward_single_into(&x[..3], &mut out).is_err());
    }

    #[test]
    fn params_only_backward_matches_full_backward() {
        let mut rng = seeded(9, "po");
        let layer = Dense::new_random(5, 4, Activation::Tanh, &mut rng);
        let x = Matrix::from_vec(
            3,
            5,
            hpcnet_tensor::rng::uniform_vec(&mut rng, 15, -1.0, 1.0),
        )
        .unwrap();
        let a = layer.forward(&x).unwrap();
        let da = Matrix::from_vec(
            3,
            4,
            hpcnet_tensor::rng::uniform_vec(&mut rng, 12, -1.0, 1.0),
        )
        .unwrap();
        let (_, full) = layer.backward(&x, &a, &da).unwrap();
        let po = layer.backward_params_only(&x, &a, &da).unwrap();
        assert_eq!(full.dw, po.dw);
        assert_eq!(full.db, po.db);
    }

    #[test]
    fn sparse_layer_equals_dense_layer_on_densified_input() {
        let mut rng = seeded(21, "sp");
        let dense = Dense::new_random(10, 4, Activation::Tanh, &mut rng);
        let sparse = SparseDense::from_dense(dense.clone());

        // A sparse batch of 3 samples over 10 features.
        let mut coo = Coo::new(3, 10);
        coo.push(0, 2, 1.5);
        coo.push(0, 7, -0.5);
        coo.push(1, 0, 2.0);
        coo.push(2, 9, 0.25);
        coo.push(2, 4, -1.0);
        let x_sparse = coo.to_csr();
        let x_dense = x_sparse.to_dense();

        let a_sparse = sparse.forward_sparse(&x_sparse).unwrap();
        let a_dense = dense.forward(&x_dense).unwrap();
        for (u, v) in a_sparse.as_slice().iter().zip(a_dense.as_slice()) {
            assert!((u - v).abs() < 1e-12);
        }

        let da = Matrix::from_vec(
            3,
            4,
            hpcnet_tensor::rng::uniform_vec(&mut rng, 12, -1.0, 1.0),
        )
        .unwrap();
        let g_sparse = sparse.backward_sparse(&x_sparse, &a_sparse, &da).unwrap();
        let (_, g_dense) = dense.backward(&x_dense, &a_dense, &da).unwrap();
        for (u, v) in g_sparse.dw.as_slice().iter().zip(g_dense.dw.as_slice()) {
            assert!((u - v).abs() < 1e-12);
        }
        assert_eq!(g_sparse.db, g_dense.db);
    }

    #[test]
    fn param_count_and_flops() {
        let l = small_layer(Activation::Relu);
        assert_eq!(l.param_count(), 8);
        assert_eq!(l.flops(), 12);
    }
}
