//! Unrolled GEMM micro-kernels shared by the `f64` and `f32` dense matrix
//! types.
//!
//! Three design rules govern everything in this module (DESIGN.md §14):
//!
//! 1. **Bit-compatibility.** Every fast kernel accumulates each output
//!    element strictly left-to-right over `k`, exactly like the naive
//!    triple loop. Rust never reassociates float arithmetic, so the
//!    4-wide unrolled update `o = o + a0*b0 + a1*b1 + a2*b2 + a3*b3`
//!    performs the same rounding sequence as four sequential `+=`s and
//!    the fast kernels are bit-identical to [`naive_matmul`] for finite
//!    inputs (pinned by proptests in `tests/proptests.rs`).
//! 2. **Branchless by default.** The seed's unconditional
//!    `if aik == 0.0 { continue; }` zero-skip defeated autovectorization
//!    on dense weights; it survives only as [`gemm_row_zskip`], selected
//!    by the [`is_sparse`] density probe. For finite values the two paths
//!    differ only in work done, not in the result: the skipped terms
//!    contribute `±0.0` to an accumulator that is never `-0.0`.
//!    (Non-finite inputs differ: the branchless path propagates
//!    `0.0 * inf = NaN` per IEEE 754, the skip path drops it.)
//! 3. **Bounds checks out of the inner loop.** Rows of the right-hand
//!    side are carved out with `split_at` and walked with zipped slice
//!    iterators, so LLVM sees fixed-length streams and vectorizes.
//!
//! All arithmetic is generic over [`Scalar`]; in generic code an
//! unsuffixed float literal in a `T` position is a type error, so the
//! compiler keeps a stray `f64` constant out of the `f32` instantiation.
//!
//! The module is deliberately dependency-free (no rayon/serde): callers
//! own the parallel row-blocking.

/// The element types the dense stack is instantiated at: `f64` and `f32`.
///
/// Beyond the arithmetic the GEMM kernels need, the trait carries what
/// the element-wise activations of `hpcnet-nn` need (`Neg`, `Div`, `ONE`,
/// `LEAKY_SLOPE`, `tanh`, `exp`). Constants are associated consts with
/// per-type suffixed literals, so the `f32` instantiation computes with
/// the `f32` constant and not with a rounded `f64` one.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
{
    /// Additive identity of the element type.
    const ZERO: Self;
    /// Multiplicative identity of the element type.
    const ONE: Self;
    /// Slope of the leaky ReLU on negative inputs (`0.01`).
    const LEAKY_SLOPE: Self;
    /// Hyperbolic tangent, evaluated natively at this precision.
    fn tanh(self) -> Self;
    /// `e^self`, evaluated natively at this precision.
    fn exp(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0f64;
    const ONE: f64 = 1.0f64;
    const LEAKY_SLOPE: f64 = 0.01f64;
    #[inline]
    fn tanh(self) -> f64 {
        f64::tanh(self)
    }
    #[inline]
    fn exp(self) -> f64 {
        f64::exp(self)
    }
}

impl Scalar for f32 {
    const ZERO: f32 = 0.0f32;
    const ONE: f32 = 1.0f32;
    const LEAKY_SLOPE: f32 = 0.01f32;
    #[inline]
    fn tanh(self) -> f32 {
        f32::tanh(self)
    }
    #[inline]
    fn exp(self) -> f32 {
        f32::exp(self)
    }
}

/// Number of elements the density probe samples (evenly strided) before
/// deciding between the branchless and zero-skip kernels.
pub const PROBE_SAMPLES: usize = 128;

/// Cheap density probe: `true` when at least three quarters of up to
/// [`PROBE_SAMPLES`] evenly-strided elements of `data` are exactly zero.
///
/// Deterministic in `data` alone, so every kernel that probes the same
/// buffer picks the same path — `matmul`, `at_matmul`, and `vecmat_into`
/// stay mutually bit-identical (their cross-path tests use `assert_eq!`).
/// The 75% threshold is where the zero-skip's saved work outweighs the
/// vectorization it forfeits on the surviving rows.
pub fn is_sparse<T: Scalar>(data: &[T]) -> bool {
    if data.is_empty() {
        return false;
    }
    let samples = PROBE_SAMPLES.min(data.len());
    let stride = data.len() / samples;
    let mut zeros = 0usize;
    let mut i = 0usize;
    for _ in 0..samples {
        if data[i] == T::ZERO {
            zeros += 1;
        }
        i += stride;
    }
    zeros * 4 >= samples * 3
}

/// One output row of a row-major GEMM: `out_row += a_row · B`, where `b`
/// is the flat row-major right-hand side (`a_row.len()` rows of `cols`).
///
/// `k` is unrolled 4-wide so four `B` rows stream through one fused,
/// branchless inner loop; each output element still accumulates in
/// strictly increasing-`k` order (rule 1 above).
///
/// `out_row` is **not** cleared; callers zero it first.
pub fn gemm_row<T: Scalar>(a_row: &[T], b: &[T], cols: usize, out_row: &mut [T]) {
    debug_assert_eq!(b.len(), a_row.len() * cols);
    debug_assert_eq!(out_row.len(), cols);
    let kmax = a_row.len();
    let mut k = 0usize;
    while k + 4 <= kmax {
        let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
        let (b0, rest) = b[k * cols..].split_at(cols);
        let (b1, rest) = rest.split_at(cols);
        let (b2, rest) = rest.split_at(cols);
        let (b3, _) = rest.split_at(cols);
        for ((((o, &x0), &x1), &x2), &x3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o = *o + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
        }
        k += 4;
    }
    while k < kmax {
        let a = a_row[k];
        let b_row = &b[k * cols..(k + 1) * cols];
        for (o, &x) in out_row.iter_mut().zip(b_row) {
            *o += a * x;
        }
        k += 1;
    }
}

/// The zero-skip variant of [`gemm_row`], for rows the density probe
/// classified as sparse. This is the seed's original kernel; on dense
/// data it costs a branch per `k` and blocks vectorization, which is why
/// it is no longer unconditional.
pub fn gemm_row_zskip<T: Scalar>(a_row: &[T], b: &[T], cols: usize, out_row: &mut [T]) {
    debug_assert_eq!(b.len(), a_row.len() * cols);
    debug_assert_eq!(out_row.len(), cols);
    for (k, &a) in a_row.iter().enumerate() {
        if a == T::ZERO {
            continue;
        }
        let b_row = &b[k * cols..(k + 1) * cols];
        for (o, &x) in out_row.iter_mut().zip(b_row) {
            *o += a * x;
        }
    }
}

/// One output row of a fused transpose-GEMM: `out_row += Aᵀ[i] · B` where
/// the `a` values are read with stride `stride` at offset `offset`
/// (`a[offset + k*stride]`, `k` in `0..kmax`).
///
/// Same 4-wide unroll and accumulation order as [`gemm_row`]; only the
/// left-hand loads are strided gathers, which the sequential sweeps of
/// `b`/`out_row` amortize.
pub fn gemm_row_strided<T: Scalar>(
    kmax: usize,
    a: &[T],
    stride: usize,
    offset: usize,
    b: &[T],
    cols: usize,
    out_row: &mut [T],
) {
    debug_assert!(kmax == 0 || offset + (kmax - 1) * stride < a.len());
    debug_assert_eq!(b.len(), kmax * cols);
    debug_assert_eq!(out_row.len(), cols);
    let mut k = 0usize;
    while k + 4 <= kmax {
        let a0 = a[offset + k * stride];
        let a1 = a[offset + (k + 1) * stride];
        let a2 = a[offset + (k + 2) * stride];
        let a3 = a[offset + (k + 3) * stride];
        let (b0, rest) = b[k * cols..].split_at(cols);
        let (b1, rest) = rest.split_at(cols);
        let (b2, rest) = rest.split_at(cols);
        let (b3, _) = rest.split_at(cols);
        for ((((o, &x0), &x1), &x2), &x3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o = *o + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
        }
        k += 4;
    }
    while k < kmax {
        let a_k = a[offset + k * stride];
        let b_row = &b[k * cols..(k + 1) * cols];
        for (o, &x) in out_row.iter_mut().zip(b_row) {
            *o += a_k * x;
        }
        k += 1;
    }
}

/// Zero-skip variant of [`gemm_row_strided`] for probe-sparse matrices.
pub fn gemm_row_strided_zskip<T: Scalar>(
    kmax: usize,
    a: &[T],
    stride: usize,
    offset: usize,
    b: &[T],
    cols: usize,
    out_row: &mut [T],
) {
    for k in 0..kmax {
        let a_k = a[offset + k * stride];
        if a_k == T::ZERO {
            continue;
        }
        let b_row = &b[k * cols..(k + 1) * cols];
        for (o, &x) in out_row.iter_mut().zip(b_row) {
            *o += a_k * x;
        }
    }
}

/// Naive i-k-j triple-loop GEMM reference: `A (m×k) · B (k×n)`, flat
/// row-major buffers. The proptests pin every fast kernel bit-identical
/// to this for finite inputs.
pub fn naive_matmul<T: Scalar>(a: &[T], b: &[T], m: usize, k: usize, n: usize) -> Vec<T> {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    let mut out = vec![T::ZERO; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += aik * b[kk * n + j];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn gemm_row_matches_naive_for_ragged_k() {
        // k = 0, 1, 3, 4, 5, 9: exercises the empty, remainder-only,
        // unroll-only, and mixed cases.
        for k in [0usize, 1, 3, 4, 5, 9] {
            let cols = 5;
            let a = fill(k, |i| (i % 7) as f64 - 3.0);
            let b = fill(k * cols, |i| (i % 5) as f64 - 2.0);
            let mut out = vec![0.0; cols];
            gemm_row(&a, &b, cols, &mut out);
            let reference = naive_matmul(&a, &b, 1, k, cols);
            assert_eq!(out, reference, "k={k}");
        }
    }

    #[test]
    fn zskip_is_bit_identical_on_finite_data() {
        let (k, cols) = (13, 6);
        let a = fill(k, |i| if i % 3 == 0 { 0.0 } else { i as f64 - 6.0 });
        let b = fill(k * cols, |i| (i % 9) as f64 * 0.25 - 1.0);
        let mut fast = vec![0.0; cols];
        let mut skip = vec![0.0; cols];
        gemm_row(&a, &b, cols, &mut fast);
        gemm_row_zskip(&a, &b, cols, &mut skip);
        assert_eq!(fast, skip);
    }

    #[test]
    fn strided_kernel_computes_transpose_product() {
        // out row i of Aᵀ·B via strided reads == row i of naive(Aᵀ, B).
        let (rows, n, cols) = (7, 3, 4);
        let a = fill(rows * n, |i| (i % 11) as f64 - 5.0);
        let b = fill(rows * cols, |i| (i % 5) as f64 - 2.0);
        // Materialized transpose for the reference.
        let mut at = vec![0.0; n * rows];
        for r in 0..rows {
            for c in 0..n {
                at[c * rows + r] = a[r * n + c];
            }
        }
        let reference = naive_matmul(&at, &b, n, rows, cols);
        for i in 0..n {
            let mut out = vec![0.0; cols];
            gemm_row_strided(rows, &a, n, i, &b, cols, &mut out);
            assert_eq!(out, reference[i * cols..(i + 1) * cols], "row {i}");
            let mut out2 = vec![0.0; cols];
            gemm_row_strided_zskip(rows, &a, n, i, &b, cols, &mut out2);
            assert_eq!(out, out2, "zskip row {i}");
        }
    }

    #[test]
    fn probe_classifies_dense_and_sparse() {
        let dense = fill(1000, |i| i as f64 + 1.0);
        assert!(!is_sparse(&dense));
        let sparse = fill(1000, |i| if i % 10 == 0 { 1.0 } else { 0.0 });
        assert!(is_sparse(&sparse));
        // Exactly at the 75% boundary: 3 of 4 samples zero → sparse.
        let edge = vec![0.0, 0.0, 0.0, 1.0];
        assert!(is_sparse(&edge));
        let empty: Vec<f64> = Vec::new();
        assert!(!is_sparse(&empty));
    }

    #[test]
    fn f32_kernels_share_the_code_path() {
        let a: Vec<f32> = vec![1.0, 0.0, -2.0, 4.0, 0.5];
        let b: Vec<f32> = (0..5 * 3).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut out = vec![0.0f32; 3];
        gemm_row(&a, &b, 3, &mut out);
        let reference = naive_matmul(&a, &b, 1, 5, 3);
        assert_eq!(out, reference);
    }
}
