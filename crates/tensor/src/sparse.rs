//! Sparse matrix formats (COO and CSR) and kernels.
//!
//! The paper's motivating observation (§1, challenge 2) is that HPC inputs
//! are sparse matrices stored as COO/CSR/CRS, and that densifying them for
//! NN consumption costs both time and memory (14x blow-up for NPB CG). The
//! NN crate's sparse first layer consumes [`Csr`] directly.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::dense::Matrix;
use crate::{Result, TensorError};

/// Row count above which SpMV/SpMM parallelize over rows.
const PAR_THRESHOLD: usize = 256;

/// Coordinate-list sparse matrix: unordered `(row, col, value)` triples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// Creates an empty COO matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates a COO matrix from triples, validating indices.
    pub fn from_entries(
        nrows: usize,
        ncols: usize,
        entries: Vec<(usize, usize, f64)>,
    ) -> Result<Self> {
        for &(r, c, _) in &entries {
            if r >= nrows {
                return Err(TensorError::ShapeMismatch(nrows, r, "Coo row index"));
            }
            if c >= ncols {
                return Err(TensorError::ShapeMismatch(ncols, c, "Coo col index"));
            }
        }
        Ok(Coo {
            nrows,
            ncols,
            entries,
        })
    }

    /// Appends an entry. Duplicate coordinates are summed on conversion.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.entries.push((row, col, value));
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (before duplicate merging).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Borrow the raw triples.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Convert to CSR, sorting by (row, col) and summing duplicates.
    pub fn to_csr(&self) -> Csr {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(sorted.len());
        let mut data = Vec::with_capacity(sorted.len());
        indptr.push(0);
        let mut row = 0usize;
        for (r, c, v) in sorted {
            while row < r {
                indptr.push(indices.len());
                row += 1;
            }
            if let (Some(&last_c), true) = (indices.last(), indptr.len() == r + 1) {
                if last_c == c && !data.is_empty() {
                    *data.last_mut().expect("non-empty") += v;
                    continue;
                }
            }
            indices.push(c);
            data.push(v);
        }
        while row < self.nrows {
            indptr.push(indices.len());
            row += 1;
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            data,
        }
    }
}

/// Compressed Sparse Row matrix.
///
/// # Examples
///
/// ```
/// use hpcnet_tensor::Coo;
/// let mut coo = Coo::new(2, 3);
/// coo.push(0, 1, 2.0);
/// coo.push(1, 2, -1.0);
/// let csr = coo.to_csr();
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.spmv(&[1.0, 10.0, 100.0]).unwrap(), vec![20.0, -100.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from raw arrays, validating the invariants
    /// (`indptr` monotone, lengths consistent, column indices in range).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != nrows + 1 {
            return Err(TensorError::ShapeMismatch(
                nrows + 1,
                indptr.len(),
                "Csr indptr len",
            ));
        }
        if indices.len() != data.len() {
            return Err(TensorError::ShapeMismatch(
                indices.len(),
                data.len(),
                "Csr indices/data",
            ));
        }
        if *indptr.last().expect("indptr non-empty") != indices.len() {
            return Err(TensorError::ShapeMismatch(
                indices.len(),
                *indptr.last().unwrap(),
                "Csr indptr end",
            ));
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(TensorError::Numerical("Csr indptr must be non-decreasing"));
        }
        if indices.iter().any(|&c| c >= ncols) {
            return Err(TensorError::ShapeMismatch(
                ncols,
                indices.len(),
                "Csr col index",
            ));
        }
        Ok(Csr {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        })
    }

    /// Builds a CSR matrix from a dense matrix, dropping zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut coo = Coo::new(m.rows(), m.cols());
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Densify. This is exactly the "unrolling" the paper's autoencoder
    /// avoids: the offline pipeline and the densifying baselines call it,
    /// the serving path only where a client asks for the dense form
    /// (`TensorStore::get_dense`).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        self.scatter_into(m.as_mut_slice());
        m
    }

    /// What the dense form of a CSR is, in one place: write every stored
    /// value to its row-major position `r * ncols + c` of `out`, by
    /// assignment in storage order — a column stored twice in a row keeps
    /// its last value, a stored zero (of either sign) is written like any
    /// other value. Positions that store nothing are not touched, so over
    /// an all-zero `out` the result is [`Csr::to_dense`]'s buffer, in
    /// O(nnz).
    ///
    /// # Panics
    ///
    /// When `out` is shorter than `nrows * ncols`.
    pub fn scatter_into(&self, out: &mut [f64]) {
        self.write_stored(out, |k| self.data[k]);
    }

    /// Undo [`Csr::scatter_into`] on a buffer that was all zeros before
    /// it: write `0.0` at every stored position, again in O(nnz).
    ///
    /// # Panics
    ///
    /// When `out` is shorter than `nrows * ncols`.
    pub fn clear_scattered(&self, out: &mut [f64]) {
        self.write_stored(out, |_| 0.0);
    }

    /// `out[r * ncols + indices[k]] = value(k)` for every stored `k`.
    fn write_stored(&self, out: &mut [f64], value: impl Fn(usize) -> f64) {
        let out = &mut out[..self.nrows * self.ncols];
        for r in 0..self.nrows {
            let base = r * self.ncols;
            for k in self.indptr[r]..self.indptr[r + 1] {
                out[base + self.indices[k]] = value(k);
            }
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Fraction of stored entries over total entries.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows * self.ncols) as f64
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, row-sorted.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Non-zero values aligned with [`Self::indices`].
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Iterate over the `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.indptr[i]..self.indptr[i + 1];
        self.indices[range.clone()]
            .iter()
            .copied()
            .zip(self.data[range].iter().copied())
    }

    /// Sparse matrix-vector product `self * x`, rayon-parallel over rows
    /// for large matrices.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(TensorError::ShapeMismatch(self.ncols, x.len(), "spmv"));
        }
        let row_dot = |i: usize| -> f64 { self.row_iter(i).map(|(c, v)| v * x[c]).sum() };
        let out = if self.nrows >= PAR_THRESHOLD {
            (0..self.nrows).into_par_iter().map(row_dot).collect()
        } else {
            (0..self.nrows).map(row_dot).collect()
        };
        Ok(out)
    }

    /// Sparse x dense product `self * rhs -> dense`.
    ///
    /// This is the kernel behind the NN crate's sparse first layer (the
    /// paper's "TensorFlow embedding API" substitute): the sparse input is
    /// consumed directly, only the (small) result is dense.
    pub fn spmm_dense(&self, rhs: &Matrix) -> Result<Matrix> {
        if rhs.rows() != self.ncols {
            return Err(TensorError::ShapeMismatch(
                self.ncols,
                rhs.rows(),
                "spmm_dense",
            ));
        }
        let cols = rhs.cols();
        let mut out = Matrix::zeros(self.nrows, cols);
        let kernel = |(i, out_row): (usize, &mut [f64])| {
            for (c, v) in self.row_iter(i) {
                let b_row = rhs.row(c);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += v * b;
                }
            }
        };
        if self.nrows >= PAR_THRESHOLD {
            out.as_mut_slice()
                .par_chunks_mut(cols)
                .enumerate()
                .for_each(kernel);
        } else {
            out.as_mut_slice()
                .chunks_mut(cols)
                .enumerate()
                .for_each(kernel);
        }
        Ok(out)
    }

    /// Gather a row subset into a new CSR matrix (mini-batching over
    /// sparse training samples). Row order follows `idx`; rows may repeat.
    pub fn select_rows(&self, idx: &[usize]) -> Csr {
        let mut indptr = Vec::with_capacity(idx.len() + 1);
        indptr.push(0usize);
        let total: usize = idx
            .iter()
            .map(|&i| self.indptr[i + 1] - self.indptr[i])
            .sum();
        let mut indices = Vec::with_capacity(total);
        let mut data = Vec::with_capacity(total);
        for &i in idx {
            let range = self.indptr[i]..self.indptr[i + 1];
            indices.extend_from_slice(&self.indices[range.clone()]);
            data.extend_from_slice(&self.data[range]);
            indptr.push(indices.len());
        }
        Csr {
            nrows: idx.len(),
            ncols: self.ncols,
            indptr,
            indices,
            data,
        }
    }

    /// Transpose (CSR -> CSR of the transpose) via counting sort.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.nrows {
            for (c, v) in self.row_iter(i) {
                let pos = next[c];
                indices[pos] = i;
                data[pos] = v;
                next[c] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            data,
        }
    }

    /// Flatten the matrix into a length-`nrows*ncols` dense feature vector.
    ///
    /// Used by baselines that cannot consume sparse inputs (the paper's
    /// Autokeras comparison) — this is the memory blow-up the customized
    /// autoencoder exists to avoid.
    pub fn to_dense_vector(&self) -> Vec<f64> {
        self.to_dense().into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> Coo {
        let mut c = Coo::new(3, 4);
        c.push(0, 0, 1.0);
        c.push(0, 3, 2.0);
        c.push(1, 1, 3.0);
        c.push(2, 0, 4.0);
        c.push(2, 2, 5.0);
        c
    }

    #[test]
    fn coo_to_csr_roundtrips_through_dense() {
        let coo = sample_coo();
        let csr = coo.to_csr();
        let dense = csr.to_dense();
        assert_eq!(dense.at(0, 0), 1.0);
        assert_eq!(dense.at(0, 3), 2.0);
        assert_eq!(dense.at(1, 1), 3.0);
        assert_eq!(dense.at(2, 0), 4.0);
        assert_eq!(dense.at(2, 2), 5.0);
        assert_eq!(csr.nnz(), 5);
        assert_eq!(Csr::from_dense(&dense), csr);
    }

    #[test]
    fn coo_duplicates_are_summed() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 1.5);
        c.push(0, 1, 2.5);
        let csr = c.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.to_dense().at(0, 1), 4.0);
    }

    #[test]
    fn coo_rejects_out_of_range() {
        assert!(Coo::from_entries(2, 2, vec![(2, 0, 1.0)]).is_err());
        assert!(Coo::from_entries(2, 2, vec![(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn csr_from_raw_validates_invariants() {
        // indptr wrong length
        assert!(Csr::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // decreasing indptr
        assert!(Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // col out of range
        assert!(Csr::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // valid
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn spmv_matches_dense_matvec() {
        let csr = sample_coo().to_csr();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let sparse = csr.spmv(&x).unwrap();
        let dense = csr.to_dense().matvec(&x).unwrap();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn spmv_rejects_wrong_length() {
        let csr = sample_coo().to_csr();
        assert!(csr.spmv(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let csr = sample_coo().to_csr();
        let b = Matrix::from_vec(4, 2, (0..8).map(|i| i as f64).collect()).unwrap();
        let sparse = csr.spmm_dense(&b).unwrap();
        let dense = csr.to_dense().matmul(&b).unwrap();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let csr = sample_coo().to_csr();
        let t = csr.transpose();
        assert_eq!(t.to_dense(), csr.to_dense().transpose());
        // involution
        assert_eq!(t.transpose().to_dense(), csr.to_dense());
    }

    #[test]
    fn density_counts_stored_entries() {
        let csr = sample_coo().to_csr();
        assert!((csr.density() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn select_rows_matches_dense_gather() {
        let csr = sample_coo().to_csr();
        let sub = csr.select_rows(&[2, 0, 2]);
        let dense = csr.to_dense();
        assert_eq!(sub.nrows(), 3);
        assert_eq!(sub.to_dense().row(0), dense.row(2));
        assert_eq!(sub.to_dense().row(1), dense.row(0));
        assert_eq!(sub.to_dense().row(2), dense.row(2));
    }

    #[test]
    fn empty_rows_are_preserved() {
        let mut c = Coo::new(4, 3);
        c.push(3, 2, 9.0);
        let csr = c.to_csr();
        assert_eq!(csr.indptr(), &[0, 0, 0, 0, 1]);
        assert_eq!(
            csr.spmv(&[0.0, 0.0, 1.0]).unwrap(),
            vec![0.0, 0.0, 0.0, 9.0]
        );
    }

    #[test]
    fn scatter_over_zeros_is_the_dense_form_and_clears_back_to_zeros() {
        // Two rows; row 0 stores column 1 twice (the last value wins) and
        // an explicit negative zero.
        let csr = Csr::from_raw(
            2,
            4,
            vec![0, 3, 4],
            vec![1, 1, 3, 0],
            vec![5.0, 6.0, -0.0, 7.0],
        )
        .unwrap();
        // Longer than the dense form: the rest is not touched.
        let mut out = vec![0.0; 10];
        out[9] = 1.5;
        csr.scatter_into(&mut out);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out[..8]), bits(csr.to_dense().as_slice()));
        assert_eq!(
            bits(&out[..8]),
            bits(&[0.0, 6.0, 0.0, -0.0, 7.0, 0.0, 0.0, 0.0])
        );
        csr.clear_scattered(&mut out);
        assert_eq!(bits(&out[..9]), bits(&[0.0; 9]));
        assert_eq!(out[9], 1.5);
    }

    #[test]
    #[should_panic]
    fn scatter_into_a_short_buffer_panics() {
        sample_coo().to_csr().scatter_into(&mut [0.0; 11]);
    }
}
