//! Row-major dense matrices and the kernels the NN and GP substrates use.
//!
//! One struct, [`MatrixOf<T>`], with [`Matrix`] (`f64`) and [`MatrixF32`]
//! as aliases. The generic `impl` holds what serving needs at both
//! precisions, including the only copy of the `matmul` dispatch; what only
//! training, the solvers and the Gaussian process use stays on the `f64`
//! alias (DESIGN.md §14.1).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::kernels::{self, Scalar};
use crate::{Result, TensorError};

/// Row count below which matmul/matvec stay serial; parallelism overhead
/// dominates for the small layers typical of surrogate models.
const PAR_THRESHOLD: usize = 64;

/// Bytes of the right-hand operand that one tile of [`tiled_product`]
/// covers: a quarter of a 1 MiB L2, which leaves room for the output
/// segments and left-hand rows that travel with it. A right-hand side no
/// larger than this is one tile (every serving shape is); a larger one —
/// the 20 880-wide autoencoder layers of offline training — is cut so
/// each tile is fetched from memory once and then reused from cache by
/// every row of the block.
const TILE_BYTES: usize = 256 * 1024;

/// `(k, columns)` of the tiles a `k_dim × cols` right-hand side is cut
/// into. The whole operand when it fits [`TILE_BYTES`]. Otherwise a
/// strip of all `k` — each output segment is then finished in one visit —
/// unless that strip would be narrower than a square tile, and then a
/// square-ish tile whose `k` side is a multiple of the kernels' 4-wide
/// unroll.
fn tile_shape<T>(k_dim: usize, cols: usize) -> (usize, usize) {
    let budget = TILE_BYTES / std::mem::size_of::<T>();
    if k_dim.saturating_mul(cols) <= budget {
        return (k_dim, cols);
    }
    let tile_cols = cols.min((budget / k_dim).max(budget.isqrt()));
    let rows_that_fit = budget / tile_cols;
    if rows_that_fit >= k_dim {
        (k_dim, tile_cols)
    } else {
        (rows_that_fit.max(4) & !3, tile_cols)
    }
}

/// The one loop nest behind [`MatrixOf::matmul`] and
/// [`Matrix::at_matmul`]: `out += A · rhs` for an `out.rows × k_dim` left
/// operand that only `row_kernel` knows how to read —
/// `row_kernel(i, k, b, out_seg)` adds `A[i, k] · B` to `out_seg`, where
/// `B` is the tile of `rhs` at `b` (`k.len()` rows, `out_seg.len()`
/// columns, stride `rhs.cols`; see [`kernels`]).
///
/// The nest runs `k`-tiles ascending, then column tiles, then the rows of
/// a block, so a tile is read from memory once per block and every
/// output element still accumulates in strictly increasing `k`: tiling
/// changes which element is updated next, never the order of one
/// element's updates, and the product stays bit-identical to
/// [`kernels::naive_matmul`] for every tile shape. With one tile the
/// traversal is row by row over the whole of `rhs`.
///
/// Row blocks are the rayon task unit: the rows split evenly over the
/// pool when there are many of them (at least 8 to a task, which keeps
/// task overhead off the 512-row coalesced serving batches) or, for a
/// short batch, when the product is big enough to pay for the fork-join
/// (wide-layer training with small batches); otherwise one block on the
/// calling thread.
fn tiled_product<T: Scalar>(
    out: &mut MatrixOf<T>,
    k_dim: usize,
    rhs: &MatrixOf<T>,
    row_kernel: impl Fn(usize, std::ops::Range<usize>, &[T], &mut [T]) + Sync,
) {
    let (rows, cols) = (out.rows, out.cols);
    // Degenerate shapes (0 rows, 0 cols, or an empty inner dim) have an
    // all-zero product; returning keeps `chunks_mut(0)` and a zero tile
    // step out of the nest.
    if out.data.is_empty() || k_dim == 0 {
        return;
    }
    let (tile_k, tile_cols) = tile_shape::<T>(k_dim, cols);
    let block = |first_row: usize, out_block: &mut [T]| {
        for k0 in (0..k_dim).step_by(tile_k) {
            let k = k0..(k0 + tile_k).min(k_dim);
            for j0 in (0..cols).step_by(tile_cols) {
                let j = j0..(j0 + tile_cols).min(cols);
                let b = &rhs.data[k0 * cols + j0..];
                for (r, out_row) in out_block.chunks_mut(cols).enumerate() {
                    row_kernel(first_row + r, k.clone(), b, &mut out_row[j.clone()]);
                }
            }
        }
    };
    let block_rows = if rows >= PAR_THRESHOLD {
        rows.div_ceil(rayon::current_num_threads()).max(8)
    } else if rows > 1 && rows * k_dim * cols >= (1 << 20) {
        rows.div_ceil(rayon::current_num_threads())
    } else {
        rows
    };
    if block_rows >= rows {
        block(0, &mut out.data);
    } else {
        out.data
            .par_chunks_mut(block_rows * cols)
            .enumerate()
            .for_each(|(n, out_block)| block(n * block_rows, out_block));
    }
}

/// A row-major dense matrix of `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixOf<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// The `f64` matrix: training, solvers, checkpoints, default serving.
pub type Matrix = MatrixOf<f64>;

/// The `f32` matrix of the opt-in serving path (DESIGN.md §14.2). Never
/// serialized: quantization is re-derived from the `f64` checkpoint.
pub type MatrixF32 = MatrixOf<f32>;

impl<T: Scalar> MatrixOf<T> {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatrixOf {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`. The product is
    /// checked: the dimensions may come from a file, and a wrapped
    /// `rows * cols` must not pass for a short buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(TensorError::ShapeMismatch(
                rows.saturating_mul(cols),
                data.len(),
                "Matrix::from_vec",
            ));
        }
        Ok(MatrixOf { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Dense matrix product `self * rhs`: the kernel for this operand's
    /// density, driven through `tiled_product`.
    pub fn matmul(&self, rhs: &Self) -> Result<Self> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch(
                self.cols,
                rhs.rows,
                "matmul inner dim",
            ));
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        let cols = rhs.cols;
        let k_dim = self.cols;
        // One density probe for the whole left operand: every row takes
        // the same kernel, and because the probe is a pure function of
        // `self.data`, a 1-row matmul agrees with `vecmat_into` over the
        // same buffer (their cross-path test is `assert_eq!`).
        let sparse = kernels::is_sparse(&self.data);
        tiled_product(&mut out, k_dim, rhs, |i, k, b, out_seg| {
            // i-k-j loop order keeps both `rhs` and `out_seg` accesses
            // sequential; the branchless unrolled kernel is what lets
            // LLVM vectorize the inner loop (DESIGN.md §14).
            let a = &self.data[i * k_dim..][k];
            if sparse {
                kernels::gemm_row_zskip(a, b, cols, out_seg);
            } else {
                kernels::gemm_row(a, b, cols, out_seg);
            }
        });
        Ok(out)
    }

    /// Row-vector × matrix product `xᵀ * self`, accumulated into a
    /// caller-provided buffer — the zero-allocation single-sample forward
    /// kernel. `out` is **not** cleared; callers zero it first.
    ///
    /// This is exactly the per-row kernel of [`Self::matmul`], so a
    /// single-sample forward through it is bit-identical to a 1-row batch.
    pub fn vecmat_into(&self, x: &[T], out: &mut [T]) -> Result<()> {
        if x.len() != self.rows {
            return Err(TensorError::ShapeMismatch(
                self.rows,
                x.len(),
                "vecmat_into input",
            ));
        }
        if out.len() != self.cols {
            return Err(TensorError::ShapeMismatch(
                self.cols,
                out.len(),
                "vecmat_into output",
            ));
        }
        // Probing `x` here is probing the 1-row matmul's left operand, so
        // both call sites pick the same kernel for the same logical data.
        if kernels::is_sparse(x) {
            kernels::gemm_row_zskip(x, &self.data, self.cols, out);
        } else {
            kernels::gemm_row(x, &self.data, self.cols, out);
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix from nested rows. All rows must share one length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(TensorError::ShapeMismatch(
                    ncols,
                    r.len(),
                    "Matrix::from_rows",
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Consume the matrix, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element accessor (`i` row, `j` column).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }

    /// Copy column `j` out into a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.at(i, j)).collect()
    }

    /// Matrix transpose, cache-blocked so both the read and write streams
    /// stay within a few cache lines per tile even for large matrices.
    pub fn transpose(&self) -> Matrix {
        const BLOCK: usize = 32;
        let mut t = Matrix::zeros(self.cols, self.rows);
        for ib in (0..self.rows).step_by(BLOCK) {
            let imax = (ib + BLOCK).min(self.rows);
            for jb in (0..self.cols).step_by(BLOCK) {
                let jmax = (jb + BLOCK).min(self.cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Fused transpose-matmul `selfᵀ * rhs` without materializing the
    /// transpose (the backprop weight-gradient kernel `Xᵀ·dZ`).
    ///
    /// Each output element accumulates over `k` in increasing order, the
    /// same rounding sequence as [`Self::matmul`], so the result is
    /// bit-identical to `self.transpose().matmul(rhs)` for finite inputs
    /// while skipping the transpose copy. (The density probes sample
    /// `self.data` and its transpose in different orders and may pick
    /// different kernels near the sparsity threshold; for finite values
    /// the kernels agree bitwise, see `kernels`.)
    pub fn at_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(TensorError::ShapeMismatch(
                self.rows,
                rhs.rows,
                "at_matmul inner dim",
            ));
        }
        let n = self.cols;
        let cols = rhs.cols;
        let mut out = Matrix::zeros(n, cols);
        let sparse = kernels::is_sparse(&self.data);
        // One output row per column of `self`; the strided gathers of
        // `self` are amortized by the sequential sweeps of `rhs`/`out`.
        tiled_product(&mut out, self.rows, rhs, |i, k, b, out_seg| {
            let a = &self.data[k.start * n + i..];
            if sparse {
                kernels::gemm_row_strided_zskip(k.len(), a, n, b, cols, out_seg);
            } else {
                kernels::gemm_row_strided(k.len(), a, n, b, cols, out_seg);
            }
        });
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if self.cols != x.len() {
            return Err(TensorError::ShapeMismatch(self.cols, x.len(), "matvec"));
        }
        let dot = |row: &[f64]| row.iter().zip(x).map(|(a, b)| a * b).sum();
        let out = if self.rows >= PAR_THRESHOLD {
            self.data.par_chunks(self.cols).map(dot).collect()
        } else {
            self.data.chunks(self.cols).map(dot).collect()
        };
        Ok(out)
    }

    /// Transposed matrix-vector product `selfᵀ * x` without materializing
    /// the transpose (used by backprop).
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if self.rows != x.len() {
            return Err(TensorError::ShapeMismatch(self.rows, x.len(), "matvec_t"));
        }
        let mut out = vec![0.0; self.cols];
        for (row, &xi) in self.data.chunks(self.cols).zip(x) {
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * xi;
            }
        }
        Ok(out)
    }

    /// Element-wise in-place `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) -> Result<()> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(TensorError::ShapeMismatch(
                self.data.len(),
                rhs.data.len(),
                "Matrix::axpy",
            ));
        }
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiply every element by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Cholesky factorization `self = L Lᵀ` for a symmetric positive-definite
    /// matrix. Returns the lower-triangular factor.
    ///
    /// `jitter` is added to the diagonal before factorization; Gaussian-
    /// process kernels routinely need this to stay PD in floating point.
    pub fn cholesky(&self, jitter: f64) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(TensorError::NotSquare(self.rows, self.cols));
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.at(i, j);
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l.at(i, k) * l.at(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(TensorError::Numerical(
                            "Cholesky: matrix not positive definite",
                        ));
                    }
                    *l.at_mut(i, j) = sum.sqrt();
                } else {
                    *l.at_mut(i, j) = sum / l.at(j, j);
                }
            }
        }
        Ok(l)
    }

    /// Solve `L y = b` for lower-triangular `L` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.rows != b.len() {
            return Err(TensorError::ShapeMismatch(
                self.rows,
                b.len(),
                "solve_lower",
            ));
        }
        let n = self.rows;
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.at(i, k) * y[k];
            }
            let d = self.at(i, i);
            if d == 0.0 {
                return Err(TensorError::Numerical("solve_lower: zero diagonal"));
            }
            y[i] = sum / d;
        }
        Ok(y)
    }

    /// Solve `Lᵀ x = y` for lower-triangular `L` (backward substitution on
    /// the implicit transpose).
    pub fn solve_lower_t(&self, y: &[f64]) -> Result<Vec<f64>> {
        if self.rows != y.len() {
            return Err(TensorError::ShapeMismatch(
                self.rows,
                y.len(),
                "solve_lower_t",
            ));
        }
        let n = self.rows;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.at(k, i) * x[k];
            }
            let d = self.at(i, i);
            if d == 0.0 {
                return Err(TensorError::Numerical("solve_lower_t: zero diagonal"));
            }
            x[i] = sum / d;
        }
        Ok(x)
    }

    /// Solve the SPD system `self * x = b` via Cholesky.
    pub fn solve_spd(&self, b: &[f64], jitter: f64) -> Result<Vec<f64>> {
        let l = self.cholesky(jitter)?;
        let y = l.solve_lower(b)?;
        l.solve_lower_t(&y)
    }
}

impl MatrixF32 {
    /// Quantize an `f64` matrix element-wise (round-to-nearest-even).
    pub fn from_f64(m: &Matrix) -> Self {
        MatrixOf {
            rows: m.rows,
            cols: m.cols,
            data: m.data.iter().map(|&v| v as f32).collect(),
        }
    }

    /// Widen back to an `f64` matrix (exact: every `f32` is an `f64`).
    pub fn to_f64(&self) -> Matrix {
        MatrixOf {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f64::from(v)).collect(),
        }
    }
}

/// The JSON shape of a [`Matrix`]. Serde is hand-written for the `f64`
/// alias through this non-generic mirror, and reads through
/// [`MatrixOf::from_vec`]: a file cannot produce a matrix whose buffer
/// disagrees with its dimensions (DESIGN.md §14.1).
#[derive(Serialize, Deserialize)]
struct MatrixRepr {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Serialize for Matrix {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        MatrixRepr {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Matrix {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let repr = MatrixRepr::deserialize(deserializer)?;
        Matrix::from_vec(repr.rows, repr.cols, repr.data).map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let m = Matrix::identity(5);
        let x = vec![1.0, -2.0, 3.5, 0.0, 7.0];
        assert_eq!(m.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matmul_small_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    // The contracts below hold at both precisions: one body, instantiated
    // at `f64` and `f32` (`lift` builds a `T` from a small exact `f64`).

    fn ramp<T: Scalar>(n: usize, modulus: usize, shift: f64, lift: fn(f64) -> T) -> Vec<T> {
        (0..n).map(|i| lift((i % modulus) as f64 - shift)).collect()
    }

    fn matmul_is_bitwise_naive_on_the_rayon_path<T: Scalar + std::fmt::Debug>(lift: fn(f64) -> T) {
        let n = 70; // above PAR_THRESHOLD: exercises the rayon path
        let a = MatrixOf::from_vec(n, n, ramp(n * n, 7, 3.0, lift)).unwrap();
        let b = MatrixOf::from_vec(n, n, ramp(n * n, 5, 2.0, lift)).unwrap();
        let c = a.matmul(&b).unwrap();
        let reference = kernels::naive_matmul(a.as_slice(), b.as_slice(), n, n, n);
        assert_eq!(c.as_slice(), &reference[..]);
    }

    fn vecmat_into_is_one_row_matmul<T: Scalar + std::fmt::Debug>(lift: fn(f64) -> T) {
        let w = MatrixOf::from_vec(3, 4, ramp(12, 7, 3.0, lift)).unwrap();
        let x = vec![lift(0.5), lift(0.0), lift(-2.0)];
        let mut out = vec![T::ZERO; 4];
        w.vecmat_into(&x, &mut out).unwrap();
        let reference = MatrixOf::from_vec(1, 3, x.clone())
            .unwrap()
            .matmul(&w)
            .unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
        // Shape guards.
        assert!(w.vecmat_into(&x[..2], &mut out).is_err());
        let mut short = vec![T::ZERO; 3];
        assert!(w.vecmat_into(&x, &mut short).is_err());
    }

    /// Values whose products and partial sums round, so a different
    /// accumulation order gives different bits (the integer `ramp` sums
    /// exactly in any order). One element in `keep_one_in` is non-zero,
    /// chosen by a hash so the strided density probe sees the same share.
    fn rough<T: Scalar>(n: usize, salt: usize, keep_one_in: usize, lift: fn(f64) -> T) -> Vec<T> {
        (0..n)
            .map(|i| {
                let h = (i + salt).wrapping_mul(2_654_435_761) >> 7;
                match h % keep_one_in {
                    0 => lift((h % 1009) as f64 * 0.003 - 1.5),
                    _ => T::ZERO,
                }
            })
            .collect()
    }

    /// `(rows, k, cols)` on both sides of [`TILE_BYTES`] at either
    /// precision (`tile_shape_cuts_only_what_exceeds_the_budget` pins how
    /// each is cut): one tile; strips of all `k`, ragged in columns, `k`
    /// not a multiple of 4; square-ish tiles, ragged in both directions;
    /// a long `k` over a few columns (the shape of `dX`).
    const STRADDLING: [(usize, usize, usize); 4] =
        [(5, 40, 30), (3, 37, 1801), (3, 1203, 211), (4, 9411, 7)];

    fn tiled_matmul_is_bitwise_naive<T: Scalar + std::fmt::Debug>(lift: fn(f64) -> T) {
        for (m, k, n) in STRADDLING {
            for keep_one_in in [1, 8] {
                let a = MatrixOf::from_vec(m, k, rough(m * k, 1, keep_one_in, lift)).unwrap();
                assert_eq!(kernels::is_sparse(a.as_slice()), keep_one_in == 8);
                let b = MatrixOf::from_vec(k, n, rough(k * n, 2, 1, lift)).unwrap();
                let reference = kernels::naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
                assert_eq!(
                    a.matmul(&b).unwrap().as_slice(),
                    &reference[..],
                    "{m}x{k} · {k}x{n}, one in {keep_one_in} kept"
                );
            }
        }
    }

    fn one_row_matmul_over_the_budget_is_vecmat_into<T: Scalar + std::fmt::Debug>(
        lift: fn(f64) -> T,
    ) {
        let (k, n) = (37, 1801);
        let w = MatrixOf::from_vec(k, n, rough(k * n, 3, 1, lift)).unwrap();
        let x = rough(k, 4, 1, lift);
        let mut out = vec![T::ZERO; n];
        w.vecmat_into(&x, &mut out).unwrap();
        let batch = MatrixOf::from_vec(1, k, x).unwrap().matmul(&w).unwrap();
        assert_eq!(out.as_slice(), batch.as_slice());
    }

    fn shape_errors<T: Scalar>() {
        let a = MatrixOf::<T>::zeros(2, 3);
        let b = MatrixOf::<T>::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(MatrixOf::from_vec(2, 2, vec![T::ONE; 3]).is_err());
        // `rows * cols` wraps to 0 here; the checked product must not
        // accept the empty buffer.
        assert!(MatrixOf::<T>::from_vec(usize::MAX / 2 + 1, 2, Vec::new()).is_err());
    }

    #[test]
    fn dense_contracts_hold_at_f64() {
        matmul_is_bitwise_naive_on_the_rayon_path::<f64>(|v| v);
        tiled_matmul_is_bitwise_naive::<f64>(|v| v);
        vecmat_into_is_one_row_matmul::<f64>(|v| v);
        one_row_matmul_over_the_budget_is_vecmat_into::<f64>(|v| v);
        shape_errors::<f64>();
    }

    #[test]
    fn dense_contracts_hold_at_f32() {
        matmul_is_bitwise_naive_on_the_rayon_path::<f32>(|v| v as f32);
        tiled_matmul_is_bitwise_naive::<f32>(|v| v as f32);
        vecmat_into_is_one_row_matmul::<f32>(|v| v as f32);
        one_row_matmul_over_the_budget_is_vecmat_into::<f32>(|v| v as f32);
        shape_errors::<f32>();
    }

    #[test]
    fn tile_shape_cuts_only_what_exceeds_the_budget() {
        // Under the budget, the serving shapes among them: one tile.
        assert_eq!(tile_shape::<f64>(40, 30), (40, 30));
        assert_eq!(tile_shape::<f64>(192, 96), (192, 96));
        assert_eq!(tile_shape::<f32>(256, 256), (256, 256));
        // `STRADDLING`, at the precision that cuts each.
        assert_eq!(tile_shape::<f64>(37, 1801), (37, 885));
        assert_eq!(tile_shape::<f32>(37, 1801), (37, 1771));
        assert_eq!(tile_shape::<f64>(1203, 211), (180, 181));
        assert_eq!(tile_shape::<f32>(1203, 211), (308, 211));
        assert_eq!(tile_shape::<f64>(9411, 7), (4680, 7));
        assert_eq!(tile_shape::<f32>(9411, 7), (9360, 7));
        // The autoencoder step on a 20 880-wide input, 16 rows, mid 128:
        // forward, `dW` (through `at_matmul`), `dX`.
        assert_eq!(tile_shape::<f64>(128, 20_880), (128, 256));
        assert_eq!(tile_shape::<f64>(16, 20_880), (16, 2048));
        assert_eq!(tile_shape::<f64>(20_880, 16), (2048, 16));
        // A degenerate strip still advances.
        assert_eq!(tile_shape::<f64>(1, 100_000), (1, 32_768));
    }

    #[test]
    fn tiled_at_matmul_is_bitwise_transpose_then_matmul() {
        // `STRADDLING` read as (n, k, cols): `self` is k x n, `rhs` the
        // k x cols operand that is cut into tiles.
        for (n, k, cols) in STRADDLING {
            for keep_one_in in [1, 8] {
                let a = Matrix::from_vec(k, n, rough(k * n, 5, keep_one_in, |v| v)).unwrap();
                let b = Matrix::from_vec(k, cols, rough(k * cols, 6, 1, |v| v)).unwrap();
                let fused = a.at_matmul(&b).unwrap();
                let at = a.transpose();
                assert_eq!(fused, at.matmul(&b).unwrap());
                let reference = kernels::naive_matmul(at.as_slice(), b.as_slice(), n, k, cols);
                assert_eq!(
                    fused.as_slice(),
                    &reference[..],
                    "({k}x{n})ᵀ · {k}x{cols}, one in {keep_one_in} kept"
                );
            }
        }
    }

    #[test]
    fn quantize_roundtrip_preserves_f32_representable_values() {
        let m = Matrix::from_vec(2, 3, vec![1.0, -2.5, 0.0, 0.25, 4.0, -8.0]).unwrap();
        let q = MatrixF32::from_f64(&m);
        assert_eq!(q.to_f64(), m);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn blocked_transpose_matches_naive_across_block_boundaries() {
        // Sizes straddling the 32-wide tile: ragged edges on both axes.
        for &(r, c) in &[(1usize, 1usize), (7, 45), (33, 31), (64, 70), (100, 3)] {
            let a = Matrix::from_vec(r, c, (0..r * c).map(|i| (i % 13) as f64 - 6.0).collect())
                .unwrap();
            let t = a.transpose();
            assert_eq!(t.rows(), c);
            assert_eq!(t.cols(), r);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.at(j, i), a.at(i, j), "({i},{j}) in {r}x{c}");
                }
            }
        }
    }

    #[test]
    fn at_matmul_is_bit_identical_to_transpose_then_matmul() {
        // Both below and above PAR_THRESHOLD columns, with zeros sprinkled
        // in to exercise the skip path.
        for &(r, c, rc) in &[(3usize, 4usize, 2usize), (17, 80, 9), (70, 70, 5)] {
            let a = Matrix::from_vec(
                r,
                c,
                (0..r * c)
                    .map(|i| {
                        if i % 7 == 0 {
                            0.0
                        } else {
                            (i % 11) as f64 - 5.0
                        }
                    })
                    .collect(),
            )
            .unwrap();
            let b = Matrix::from_vec(r, rc, (0..r * rc).map(|i| (i % 5) as f64 - 2.0).collect())
                .unwrap();
            let fused = a.at_matmul(&b).unwrap();
            let reference = a.transpose().matmul(&b).unwrap();
            assert_eq!(fused, reference, "{r}x{c} ᵀ· {r}x{rc}");
        }
    }

    #[test]
    fn at_matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::zeros(4, 2);
        assert!(a.at_matmul(&b).is_err());
    }

    #[test]
    fn matvec_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let x = vec![1.0, -1.0, 2.0];
        let via_t = a.transpose().matvec(&x).unwrap();
        let direct = a.matvec_t(&x).unwrap();
        assert_eq!(via_t, direct);
    }

    #[test]
    fn cholesky_reconstructs_spd_matrix() {
        // A = M Mᵀ + n·I is SPD.
        let m = Matrix::from_vec(3, 3, vec![2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]).unwrap();
        let a = {
            let mut mm = m.matmul(&m.transpose()).unwrap();
            for i in 0..3 {
                *mm.at_mut(i, i) += 3.0;
            }
            mm
        };
        let l = a.cholesky(0.0).unwrap();
        let rec = l.matmul(&l.transpose()).unwrap();
        for (x, y) in rec.as_slice().iter().zip(a.as_slice()) {
            assert!(approx_eq(*x, *y));
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(a.cholesky(0.0).is_err());
    }

    #[test]
    fn solve_spd_recovers_known_solution() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.0, 1.0, 5.0, 2.0, 0.0, 2.0, 6.0]).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve_spd(&b, 0.0).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!(approx_eq(*u, *v));
        }
    }

    #[test]
    fn axpy_adds_scaled_matrix() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0, 24.0]);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!(approx_eq(Matrix::identity(9).frobenius_norm(), 3.0));
    }
}
