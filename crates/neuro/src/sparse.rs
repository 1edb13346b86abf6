//! Compressed-sparse-row matrices for graph adjacency.

use crate::kernels;
use crate::matrix::Matrix;

/// A square-or-rectangular sparse matrix in CSR layout.
///
/// Used for the normalized adjacency `Â = D^{-1/2}(A+I)D^{-1/2}` of
/// Equation 2: multiplication against dense feature matrices is the core
/// of every graph convolution, and per-edge gradients feed the
/// explainer's edge mask.
///
/// # Example
///
/// ```
/// use fusa_neuro::{CsrMatrix, Matrix};
///
/// let adj = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
/// let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
/// let y = adj.matmul(&x);
/// assert_eq!(y.get(0, 0), 2.0);
/// assert_eq!(y.get(1, 0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from `(row, col, value)` triplets. Duplicate coordinates
    /// are summed.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> CsrMatrix {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_counts = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut previous: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if previous == Some((r, c)) {
                *values.last_mut().expect("previous entry exists") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_counts[r + 1] += 1;
                previous = Some((r, c));
            }
        }
        let mut row_ptr = row_counts;
        for i in 1..=rows {
            row_ptr[i] += row_ptr[i - 1];
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `r` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row out of bounds");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// The stored value at `(r, c)`, or `0.0` when the entry is absent.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.row_entries(r)
            .find(|&(col, _)| col == c)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Mutable access to the stored values (sparsity pattern fixed).
    /// Entry order matches [`CsrMatrix::triplets`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The stored values in CSR order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// All stored entries as `(row, col, value)` triplets in CSR order.
    pub fn triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.push((r, c, v));
            }
        }
        out
    }

    /// Sparse × dense product.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != dense.rows()`.
    pub fn matmul(&self, dense: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, dense.cols());
        self.matmul_into(dense, &mut out);
        out
    }

    /// Sparse × dense product written into `out`. Row `r` starts at
    /// `+0.0` and accumulates `value·dense[col,:]` over its
    /// stored entries in CSR order, 8 columns at a time so the
    /// running sums stay in registers.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != dense.rows()` or `out` is not
    /// `self.rows() × dense.cols()`.
    pub fn matmul_into(&self, dense: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm shape mismatch: {}x{} × {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        assert_eq!(out.shape(), (self.rows, dense.cols()), "spmm output shape");
        kernels::spmm(
            &self.row_ptr,
            &self.col_idx,
            &self.values,
            dense.as_slice(),
            dense.cols(),
            out.as_mut_slice(),
        );
    }

    /// Rows `rows` of `self × dense`, written into `out`: output row `k`
    /// is row `rows[k]` of [`CsrMatrix::matmul_into`]'s result, bit for
    /// bit, and no other row is computed.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != dense.rows()`, a listed row is out of
    /// bounds, or `out` is not `rows.len() × dense.cols()`.
    pub fn matmul_rows_into(&self, rows: &[usize], dense: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        assert_eq!(out.shape(), (rows.len(), dense.cols()), "spmm output shape");
        assert!(rows.iter().all(|&r| r < self.rows), "row out of bounds");
        kernels::spmm_rows(
            &self.row_ptr,
            &self.col_idx,
            &self.values,
            dense.as_slice(),
            dense.cols(),
            rows,
            out.as_mut_slice(),
        );
    }

    /// The transposed matrix. Each transposed row lists its entries in
    /// ascending source row, so a product with the transpose adds terms
    /// in the same order as scattering `selfᵀ × dense` row by row.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 1..=self.cols {
            row_ptr[i] += row_ptr[i - 1];
        }
        let mut next = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let slot = &mut next[self.col_idx[k]];
                col_idx[*slot] = r;
                values[*slot] = self.values[k];
                *slot += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `selfᵀ × dense`, as a gather over [`CsrMatrix::transpose`].
    /// Callers that multiply by the same transpose repeatedly should keep
    /// it and call [`CsrMatrix::matmul_into`] on it directly.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != dense.rows()`.
    pub fn transpose_matmul(&self, dense: &Matrix) -> Matrix {
        assert_eq!(self.rows, dense.rows(), "spmm^T shape mismatch");
        self.transpose().matmul(dense)
    }

    /// Per-edge gradient: for each stored entry `(r, c)`, the derivative
    /// of a scalar loss w.r.t. that entry given `grad_out = ∂L/∂(A·H)`
    /// and the multiplied dense matrix `h`:
    /// `∂L/∂A[r,c] = grad_out[r, :] · h[c, :]`.
    ///
    /// Returned in CSR entry order (aligned with [`CsrMatrix::values`]).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn edge_gradients(&self, grad_out: &Matrix, h: &Matrix) -> Vec<f64> {
        assert_eq!(grad_out.rows(), self.rows, "edge grad rows mismatch");
        assert_eq!(h.rows(), self.cols, "edge grad cols mismatch");
        assert_eq!(grad_out.cols(), h.cols(), "edge grad inner mismatch");
        let mut grads = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let grow = grad_out.row(r);
            for k in lo..hi {
                let c = self.col_idx[k];
                let hrow = h.row(c);
                grads.push(grow.iter().zip(hrow).map(|(&a, &b)| a * b).sum());
            }
        }
        grads
    }

    /// A copy with the same pattern and new values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.nnz()`.
    pub fn with_values(&self, values: Vec<f64>) -> CsrMatrix {
        assert_eq!(values.len(), self.nnz(), "value count mismatch");
        CsrMatrix {
            values,
            ..self.clone()
        }
    }

    /// Converts to a dense matrix (test/debug helper).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m.set(r, c, m.get(r, c) + v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmm_matches_dense() {
        let triplets = [(0, 0, 2.0), (0, 2, 1.0), (2, 1, 3.0)];
        let sparse = CsrMatrix::from_triplets(3, 3, &triplets);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(sparse.matmul(&x), sparse.to_dense().matmul(&x));
    }

    #[test]
    fn transpose_spmm_matches_dense() {
        let triplets = [(0, 1, 1.5), (1, 0, -1.0), (1, 2, 2.0)];
        let sparse = CsrMatrix::from_triplets(2, 3, &triplets);
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert_eq!(
            sparse.transpose_matmul(&x),
            sparse.to_dense().transpose().matmul(&x)
        );
    }

    #[test]
    fn empty_rows_are_fine() {
        let sparse = CsrMatrix::from_triplets(4, 4, &[(3, 0, 1.0)]);
        let x = Matrix::identity(4);
        let y = sparse.matmul(&x);
        assert_eq!(y.get(0, 0), 0.0);
        assert_eq!(y.get(3, 0), 1.0);
    }

    #[test]
    fn duplicate_triplets_sum() {
        let sparse = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(sparse.nnz(), 1);
        assert_eq!(sparse.get(0, 0), 3.5);
    }

    #[test]
    fn get_missing_entry_is_zero() {
        let sparse = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert_eq!(sparse.get(1, 0), 0.0);
        assert_eq!(sparse.get(0, 1), 1.0);
    }

    #[test]
    fn edge_gradients_match_finite_difference() {
        let triplets = [(0, 0, 0.5), (0, 1, 1.0), (1, 1, -2.0)];
        let sparse = CsrMatrix::from_triplets(2, 2, &triplets);
        let h = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]);
        // Loss = sum of all entries of A*H. Then grad_out = ones.
        let grad_out = Matrix::filled(2, 2, 1.0);
        let grads = sparse.edge_gradients(&grad_out, &h);

        let loss = |s: &CsrMatrix| -> f64 { s.matmul(&h).as_slice().iter().sum() };
        let eps = 1e-6;
        for (k, _) in sparse.triplets().iter().enumerate() {
            let mut plus = sparse.clone();
            plus.values_mut()[k] += eps;
            let mut minus = sparse.clone();
            minus.values_mut()[k] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (numeric - grads[k]).abs() < 1e-6,
                "edge {k}: numeric {numeric} vs analytic {}",
                grads[k]
            );
        }
    }

    #[test]
    fn with_values_keeps_pattern() {
        let sparse = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
        let swapped = sparse.with_values(vec![5.0, 6.0]);
        assert_eq!(swapped.get(0, 1), 5.0);
        assert_eq!(swapped.get(1, 0), 6.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_triplet_panics() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
