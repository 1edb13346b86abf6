//! Differential oracle for the dense and sparse product kernels.
//!
//! `reference` keeps the straightforward loops the kernels replaced and
//! shares no code with them. Every kernel must match its reference bit
//! for bit (`to_bits`) on random finite shapes that include exact zeros,
//! `-0.0`, all-zero rows, width-1 operands, every remainder width of
//! the 8-column register tiles, every row remainder of the 4-row register
//! blocks and products over several 64-row chunks.

use fusa_neuro::{CsrMatrix, Matrix};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

mod reference {
    use fusa_neuro::{CsrMatrix, Matrix};

    /// `a × b`, row by row, skipping exact zeros of `a`.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = vec![0.0; a.rows() * b.cols()];
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let x = a.as_slice()[i * a.cols() + k];
                if x == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[i * b.cols() + j] += x * b.as_slice()[k * b.cols() + j];
                }
            }
        }
        Matrix::from_vec(a.rows(), b.cols(), out)
    }

    /// `aᵀ × b`, scattering row `r` of `a` into every output row.
    pub fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = vec![0.0; a.cols() * b.cols()];
        for r in 0..a.rows() {
            for i in 0..a.cols() {
                let x = a.as_slice()[r * a.cols() + i];
                if x == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[i * b.cols() + j] += x * b.as_slice()[r * b.cols() + j];
                }
            }
        }
        Matrix::from_vec(a.cols(), b.cols(), out)
    }

    /// `a × bᵀ`, one `.sum()` dot product per element.
    pub fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Vec::with_capacity(a.rows() * b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                out.push(a.row(i).iter().zip(b.row(j)).map(|(&x, &y)| x * y).sum());
            }
        }
        Matrix::from_vec(a.rows(), b.rows(), out)
    }

    /// `s × d`, row by row over the stored entries.
    pub fn spmm(s: &CsrMatrix, d: &Matrix) -> Matrix {
        let mut out = vec![0.0; s.rows() * d.cols()];
        for r in 0..s.rows() {
            for (c, v) in s.row_entries(r) {
                for j in 0..d.cols() {
                    out[r * d.cols() + j] += v * d.as_slice()[c * d.cols() + j];
                }
            }
        }
        Matrix::from_vec(s.rows(), d.cols(), out)
    }

    /// `sᵀ × d`, scattering each stored entry into its column's row.
    pub fn spmm_transpose(s: &CsrMatrix, d: &Matrix) -> Matrix {
        let mut out = vec![0.0; s.cols() * d.cols()];
        for r in 0..s.rows() {
            for (c, v) in s.row_entries(r) {
                for j in 0..d.cols() {
                    out[c * d.cols() + j] += v * d.as_slice()[r * d.cols() + j];
                }
            }
        }
        Matrix::from_vec(s.cols(), d.cols(), out)
    }
}

/// How a random operand is filled.
#[derive(Debug, Clone, Copy)]
struct Fill {
    seed: u64,
    /// Probability of an exact `0.0` or `-0.0` entry.
    zeros: f64,
    /// Probability of an all-zero row.
    zero_rows: f64,
}

fn fill() -> impl Strategy<Value = Fill> {
    (any::<u64>(), 0.0f64..0.6, 0.0f64..0.3).prop_map(|(seed, zeros, zero_rows)| Fill {
        seed,
        zeros,
        zero_rows,
    })
}

fn random_matrix(rows: usize, cols: usize, fill: Fill) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(fill.seed);
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let zero_row = rng.gen_bool(fill.zero_rows);
        for _ in 0..cols {
            data.push(if zero_row || rng.gen_bool(fill.zeros) {
                if rng.gen_bool(0.5) {
                    0.0
                } else {
                    -0.0
                }
            } else {
                rng.gen_range(-2.0..2.0)
            });
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// A sparse matrix with `rows` rows, `cols` columns and about
/// `per_row` entries a row (some rows empty, some values `-0.0`).
fn random_csr(rows: usize, cols: usize, per_row: usize, fill: Fill) -> CsrMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(fill.seed ^ 0x5A5A);
    let mut triplets = Vec::new();
    for r in 0..rows {
        if rng.gen_bool(fill.zero_rows) {
            continue;
        }
        let mut row_cols: Vec<usize> = (0..rng.gen_range(0..=2 * per_row))
            .map(|_| rng.gen_range(0..cols))
            .collect();
        row_cols.sort_unstable();
        row_cols.dedup();
        for c in row_cols {
            let value = if rng.gen_bool(fill.zeros) {
                -0.0
            } else {
                rng.gen_range(-1.0..1.0)
            };
            triplets.push((r, c, value));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets)
}

/// Bit-for-bit equality.
fn assert_bits(kernel: &Matrix, reference: &Matrix, what: &str) {
    assert_eq!(kernel.shape(), reference.shape(), "{what}: shape");
    for (i, (k, r)) in kernel
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        assert_eq!(
            k.to_bits(),
            r.to_bits(),
            "{what}, element {i}: {k:?} vs {r:?}"
        );
    }
}

/// Widths that hit the model heads, every remainder class of the
/// 8-column tiles and the Table-1 layer widths.
const WIDTHS: [usize; 8] = [1, 2, 3, 7, 8, 9, 16, 64];

/// Inner and output widths, often with a width-1 operand.
fn widths() -> impl Strategy<Value = (usize, usize)> {
    (0u8..5, 1usize..=40, 1usize..=40).prop_map(|(kind, x, y)| match kind {
        0 => (x, y),
        1 => (1, y),
        2 => (x, 1),
        3 => (x % 6 + 1, y % 6 + 1),
        _ => (WIDTHS[x % WIDTHS.len()], WIDTHS[y % WIDTHS.len()]),
    })
}

/// Row counts with every remainder mod 4, from 0 up to three 64-row
/// chunks.
fn rows() -> impl Strategy<Value = usize> {
    (0usize..12, 0usize..4, 0usize..3)
        .prop_map(|(blocks, rem, chunks)| 4 * blocks + rem + 64 * chunks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_reference(
        shape in widths(),
        rows in rows(),
        a_fill in fill(),
        b_fill in fill(),
    ) {
        let (inner, width) = shape;
        let a = random_matrix(rows, inner, a_fill);
        let b = random_matrix(inner, width, b_fill);
        let expected = reference::matmul(&a, &b);
        assert_bits(&a.matmul(&b), &expected, "matmul");
        let mut out = Matrix::filled(rows, width, 7.0);
        a.matmul_into(&b, &mut out);
        assert_bits(&out, &expected, "matmul_into");
    }

    #[test]
    fn transpose_matmul_matches_reference(
        shape in widths(),
        rows in rows(),
        a_fill in fill(),
        b_fill in fill(),
    ) {
        let (cols, width) = shape;
        let a = random_matrix(rows, cols, a_fill);
        let b = random_matrix(rows, width, b_fill);
        let expected = reference::transpose_matmul(&a, &b);
        assert_bits(&a.transpose_matmul(&b), &expected, "transpose_matmul");
        let mut out = Matrix::filled(cols, width, 7.0);
        a.transpose_matmul_into(&b, &mut out);
        assert_bits(&out, &expected, "transpose_matmul_into");
    }

    #[test]
    fn matmul_transpose_matches_reference(
        shape in widths(),
        rows in rows(),
        a_fill in fill(),
        b_fill in fill(),
    ) {
        let (inner, width) = shape;
        let a = random_matrix(rows, inner, a_fill);
        let b = random_matrix(width, inner, b_fill);
        let expected = reference::matmul_transpose(&a, &b);
        assert_bits(&a.matmul_transpose(&b), &expected, "matmul_transpose");
        let mut out = Matrix::filled(rows, width, 7.0);
        a.matmul_transpose_into(&b, &mut out);
        assert_bits(&out, &expected, "matmul_transpose_into");
    }

    #[test]
    fn spmm_matches_reference(
        rows in 1usize..=300,
        cols in 1usize..=300,
        width in 1usize..=40,
        per_row in 1usize..=12,
        s_fill in fill(),
        d_fill in fill(),
    ) {
        let sparse = random_csr(rows, cols, per_row, s_fill);
        let dense = random_matrix(cols, width, d_fill);
        let expected = reference::spmm(&sparse, &dense);
        assert_bits(&sparse.matmul(&dense), &expected, "spmm");
        let mut out = Matrix::filled(rows, width, 7.0);
        sparse.matmul_into(&dense, &mut out);
        assert_bits(&out, &expected, "spmm_into");
    }

    #[test]
    fn spmm_transpose_matches_reference(
        rows in 1usize..=300,
        cols in 1usize..=300,
        width in 1usize..=40,
        per_row in 1usize..=12,
        s_fill in fill(),
        d_fill in fill(),
    ) {
        let sparse = random_csr(rows, cols, per_row, s_fill);
        let dense = random_matrix(rows, width, d_fill);
        let expected = reference::spmm_transpose(&sparse, &dense);
        assert_bits(&sparse.transpose_matmul(&dense), &expected, "spmm_transpose");
        let mut out = Matrix::filled(cols, width, 7.0);
        sparse.transpose().matmul_into(&dense, &mut out);
        assert_bits(&out, &expected, "spmm over the transpose");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn spmm_rows_match_reference(
        rows in 1usize..=300,
        cols in 1usize..=300,
        width in 1usize..=40,
        per_row in 1usize..=12,
        pick in any::<u64>(),
        s_fill in fill(),
        d_fill in fill(),
    ) {
        let sparse = random_csr(rows, cols, per_row, s_fill);
        let dense = random_matrix(cols, width, d_fill);
        let expected = reference::spmm(&sparse, &dense);
        // A seeded subset in arbitrary order, with repeats.
        let mut rng = ChaCha8Rng::seed_from_u64(pick);
        let subset: Vec<usize> = (0..rng.gen_range(0..=rows))
            .map(|_| rng.gen_range(0..rows))
            .collect();
        let mut out = Matrix::filled(subset.len(), width, 7.0);
        sparse.matmul_rows_into(&subset, &dense, &mut out);
        let picked: Vec<f64> = subset
            .iter()
            .flat_map(|&r| expected.row(r).to_vec())
            .collect();
        let picked = Matrix::from_vec(subset.len(), width, picked);
        assert_bits(&out, &picked, "spmm rows");
    }
}

#[test]
fn transpose_lists_entries_by_ascending_source_row() {
    let sparse =
        CsrMatrix::from_triplets(3, 2, &[(2, 0, 3.0), (0, 0, 1.0), (1, 1, 2.0), (0, 1, 4.0)]);
    let transposed = sparse.transpose();
    assert_eq!(transposed.rows(), 2);
    assert_eq!(transposed.cols(), 3);
    let row0: Vec<(usize, f64)> = transposed.row_entries(0).collect();
    assert_eq!(row0, vec![(0, 1.0), (2, 3.0)]);
    let row1: Vec<(usize, f64)> = transposed.row_entries(1).collect();
    assert_eq!(row1, vec![(0, 4.0), (1, 2.0)]);
    assert_eq!(transposed.transpose(), sparse);
}

#[test]
fn all_zero_dot_products_keep_their_sign() {
    // `.sum()` folds from -0.0, so a dot product of -0.0 terms is -0.0.
    let a = Matrix::from_rows(&[&[-0.0, 0.0]]);
    let b = Matrix::from_rows(&[&[1.0, -1.0], &[1.0, 1.0]]);
    let out = a.matmul_transpose(&b);
    assert_bits(&out, &reference::matmul_transpose(&a, &b), "signed zeros");
    assert_eq!(out.get(0, 0).to_bits(), (-0.0f64).to_bits());
}
