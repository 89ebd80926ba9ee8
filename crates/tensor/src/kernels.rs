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
//! **Tiles.** Every kernel adds the contribution of one *tile* of the
//! right-hand side to one segment of an output row: `b` begins at the
//! tile's first element, row `k` of the tile is
//! `b[k * stride..][..out_row.len()]`, and `stride` is the full width of
//! the matrix the tile was cut from. A whole operand is the tile with
//! `stride == out_row.len()`. Because a kernel only ever *adds* to
//! `out_row`, in increasing `k`, a caller that visits the `k`-tiles of one
//! output element in ascending order performs the rounding sequence of
//! rule 1 whatever the tile shape.
//!
//! The module is deliberately dependency-free (no rayon/serde): the one
//! caller, `dense::tiled_product`, owns the tile shape, the loop nest over
//! tiles and the parallel row blocks.

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

/// Four consecutive rows of the tile at `b`, each `width` long, starting
/// at row `k`. Slicing here, once per four `k`, is what keeps the bounds
/// checks out of the inner loops below (rule 3).
#[inline(always)]
fn four_rows<T>(b: &[T], k: usize, stride: usize, width: usize) -> [&[T]; 4] {
    [
        &b[k * stride..][..width],
        &b[(k + 1) * stride..][..width],
        &b[(k + 2) * stride..][..width],
        &b[(k + 3) * stride..][..width],
    ]
}

/// One tile's contribution to one output row of a row-major GEMM:
/// `out_row += a · B`, where `B` is the `a.len() × out_row.len()` tile at
/// `b` (see the module doc for `stride`).
///
/// `k` is unrolled 4-wide so four `B` rows stream through one fused,
/// branchless inner loop; each output element still accumulates in
/// strictly increasing-`k` order (rule 1 above).
///
/// `out_row` is **not** cleared; callers zero it before the first tile.
pub fn gemm_row<T: Scalar>(a: &[T], b: &[T], stride: usize, out_row: &mut [T]) {
    let width = out_row.len();
    debug_assert!(width <= stride);
    let kmax = a.len();
    let mut k = 0usize;
    while k + 4 <= kmax {
        let (a0, a1, a2, a3) = (a[k], a[k + 1], a[k + 2], a[k + 3]);
        let [b0, b1, b2, b3] = four_rows(b, k, stride, width);
        for ((((o, &x0), &x1), &x2), &x3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o = *o + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
        }
        k += 4;
    }
    while k < kmax {
        let a_k = a[k];
        for (o, &x) in out_row.iter_mut().zip(&b[k * stride..][..width]) {
            *o += a_k * x;
        }
        k += 1;
    }
}

/// The zero-skip variant of [`gemm_row`], for operands the density probe
/// classified as sparse. This is the seed's original kernel; on dense
/// data it costs a branch per `k` and blocks vectorization, which is why
/// it is no longer unconditional.
pub fn gemm_row_zskip<T: Scalar>(a: &[T], b: &[T], stride: usize, out_row: &mut [T]) {
    let width = out_row.len();
    debug_assert!(width <= stride);
    for (k, &a_k) in a.iter().enumerate() {
        if a_k == T::ZERO {
            continue;
        }
        for (o, &x) in out_row.iter_mut().zip(&b[k * stride..][..width]) {
            *o += a_k * x;
        }
    }
}

/// [`gemm_row`] for a fused transpose-GEMM, `out_row += Aᵀ[i] · B`: the
/// left-hand values are gathered with stride `a_stride` (`a[k * a_stride]`,
/// `k` in `0..kmax`; `a` begins at the first one).
///
/// Same 4-wide unroll and accumulation order as [`gemm_row`]; only the
/// left-hand loads are strided gathers, which the sequential sweeps of
/// `b`/`out_row` amortize.
pub fn gemm_row_strided<T: Scalar>(
    kmax: usize,
    a: &[T],
    a_stride: usize,
    b: &[T],
    stride: usize,
    out_row: &mut [T],
) {
    let width = out_row.len();
    debug_assert!(width <= stride);
    debug_assert!(kmax == 0 || (kmax - 1) * a_stride < a.len());
    let mut k = 0usize;
    while k + 4 <= kmax {
        let a0 = a[k * a_stride];
        let a1 = a[(k + 1) * a_stride];
        let a2 = a[(k + 2) * a_stride];
        let a3 = a[(k + 3) * a_stride];
        let [b0, b1, b2, b3] = four_rows(b, k, stride, width);
        for ((((o, &x0), &x1), &x2), &x3) in out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o = *o + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
        }
        k += 4;
    }
    while k < kmax {
        let a_k = a[k * a_stride];
        for (o, &x) in out_row.iter_mut().zip(&b[k * stride..][..width]) {
            *o += a_k * x;
        }
        k += 1;
    }
}

/// Zero-skip variant of [`gemm_row_strided`] for probe-sparse matrices.
pub fn gemm_row_strided_zskip<T: Scalar>(
    kmax: usize,
    a: &[T],
    a_stride: usize,
    b: &[T],
    stride: usize,
    out_row: &mut [T],
) {
    let width = out_row.len();
    debug_assert!(width <= stride);
    for k in 0..kmax {
        let a_k = a[k * a_stride];
        if a_k == T::ZERO {
            continue;
        }
        for (o, &x) in out_row.iter_mut().zip(&b[k * stride..][..width]) {
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
            gemm_row_strided(rows, &a[i..], n, &b, cols, &mut out);
            assert_eq!(out, reference[i * cols..(i + 1) * cols], "row {i}");
            let mut out2 = vec![0.0; cols];
            gemm_row_strided_zskip(rows, &a[i..], n, &b, cols, &mut out2);
            assert_eq!(out, out2, "zskip row {i}");
        }
    }

    #[test]
    fn tiles_visited_in_ascending_k_rebuild_the_whole_row() {
        // A 3-wide column tile and k-tiles of 5 (neither a multiple of the
        // 4-wide unroll nor a divisor of k = 13 or cols = 7): every kernel,
        // fed tile by tile, ends on the bits of one whole-operand call.
        let (k, cols, kt, jt) = (13usize, 7usize, 5usize, 3usize);
        let a = fill(k, |i| {
            if i % 4 == 1 {
                0.0
            } else {
                i as f64 * 0.3 - 1.7
            }
        });
        let b = fill(k * cols, |i| (i % 9) as f64 * 0.7 - 2.9);
        let whole = naive_matmul(&a, &b, 1, k, cols);
        type Kernel = fn(&[f64], &[f64], usize, &mut [f64]);
        let strided: Kernel = |a, b, stride, out| gemm_row_strided(a.len(), a, 1, b, stride, out);
        let strided_zskip: Kernel =
            |a, b, stride, out| gemm_row_strided_zskip(a.len(), a, 1, b, stride, out);
        for kernel in [gemm_row, gemm_row_zskip, strided, strided_zskip] {
            let mut out = vec![0.0; cols];
            for k0 in (0..k).step_by(kt) {
                let k1 = (k0 + kt).min(k);
                for j0 in (0..cols).step_by(jt) {
                    let j1 = (j0 + jt).min(cols);
                    kernel(&a[k0..k1], &b[k0 * cols + j0..], cols, &mut out[j0..j1]);
                }
            }
            assert_eq!(out, whole);
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
