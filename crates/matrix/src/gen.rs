//! Reproducible workload generators.
//!
//! The paper's transformations are data-oblivious: only the problem shape
//! `(n, m, p)` and the array size `w` affect cycle counts and utilization.
//! These generators provide deterministic, seeded inputs for the tests,
//! examples and experiment harness — the synthetic stand-in for the 1986
//! signal-processing workloads, which are not available.

use crate::rng::SplitMix64;
use crate::{DenseMatrix, Scalar};

/// Deterministic dense matrix with entries drawn uniformly from
/// `[-1.0, 1.0)`.
pub fn random_dense_f64(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f64> {
    let mut rng = SplitMix64::new(seed);
    DenseMatrix::from_fn(rows, cols, |_, _| rng.range_f64(-1.0, 1.0))
}

/// Deterministic dense matrix with small integer entries in
/// `[-bound, bound]`, suitable for exact (rounding-free) comparisons.
pub fn random_dense_i64(rows: usize, cols: usize, bound: i64, seed: u64) -> DenseMatrix<i64> {
    let bound = bound.max(1);
    let mut rng = SplitMix64::new(seed);
    DenseMatrix::from_fn(rows, cols, |_, _| rng.range_i64(-bound, bound))
}

/// Deterministic vector with entries drawn uniformly from `[-1.0, 1.0)`.
pub fn random_vector_f64(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// Deterministic vector with small integer entries in `[-bound, bound]`.
pub fn random_vector_i64(len: usize, bound: i64, seed: u64) -> Vec<i64> {
    let bound = bound.max(1);
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.range_i64(-bound, bound)).collect()
}

/// Diagonally dominant matrix: random entries with the diagonal boosted so
/// that `|a_ii| > Σ_j |a_ij|`.  Needed by the Gauss–Seidel and triangular
/// extension experiments, where convergence / non-singularity matters.
pub fn diagonally_dominant_f64(n: usize, seed: u64) -> DenseMatrix<f64> {
    let mut m = random_dense_f64(n, n, seed);
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| m.at(i, j).abs()).sum();
        m.set(i, i, row_sum + 1.0).expect("diagonal is in bounds");
    }
    m
}

/// Banded random matrix: zero outside the band `j - i ∈ [-lower, upper]`.
/// Used to exercise the baseline that runs true band problems directly.
pub fn banded_random_f64(
    rows: usize,
    cols: usize,
    lower: usize,
    upper: usize,
    seed: u64,
) -> DenseMatrix<f64> {
    let mut rng = SplitMix64::new(seed);
    DenseMatrix::from_fn(rows, cols, |i, j| {
        if j + lower >= i && i + upper >= j {
            rng.range_f64(-1.0, 1.0)
        } else {
            0.0
        }
    })
}

/// Block-sparse matrix: each `w × w` block is either dense (with probability
/// `density`) or entirely zero.  Used by the sparsity experiment suggested in
/// the paper's conclusions.
pub fn block_sparse_f64(
    rows: usize,
    cols: usize,
    w: usize,
    density: f64,
    seed: u64,
) -> DenseMatrix<f64> {
    assert!(w > 0, "block size w must be positive");
    let density = density.clamp(0.0, 1.0);
    let mut rng = SplitMix64::new(seed);
    let block_rows = rows.div_ceil(w);
    let block_cols = cols.div_ceil(w);
    let mut keep = vec![false; block_rows * block_cols];
    for slot in keep.iter_mut() {
        *slot = rng.next_bool(density);
    }
    let mut value_rng = SplitMix64::new(seed.wrapping_add(1));
    DenseMatrix::from_fn(rows, cols, |i, j| {
        if keep[(i / w) * block_cols + (j / w)] {
            value_rng.range_f64(-1.0, 1.0)
        } else {
            0.0
        }
    })
}

/// Lower-triangular, unit-diagonal-free random matrix with a well-conditioned
/// diagonal (all `|l_ii| >= 1`); used by the triangular-solve extension.
pub fn lower_triangular_f64(n: usize, seed: u64) -> DenseMatrix<f64> {
    let mut rng = SplitMix64::new(seed);
    DenseMatrix::from_fn(n, n, |i, j| {
        if j < i {
            rng.range_f64(-1.0, 1.0)
        } else if j == i {
            let v: f64 = rng.range_f64(1.0, 2.0);
            if rng.next_bool(0.5) {
                v
            } else {
                -v
            }
        } else {
            0.0
        }
    })
}

/// The `n × m` "counting" matrix `a_ij = i·m + j + 1`, handy for doctests and
/// worked examples because every element is distinct and human-readable.
pub fn counting<T: Scalar>(rows: usize, cols: usize) -> DenseMatrix<T> {
    DenseMatrix::from_fn(rows, cols, |i, j| T::from_i64((i * cols + j + 1) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_dense_f64(4, 5, 7), random_dense_f64(4, 5, 7));
        assert_eq!(random_dense_i64(4, 5, 9, 7), random_dense_i64(4, 5, 9, 7));
        assert_eq!(random_vector_f64(6, 3), random_vector_f64(6, 3));
        assert_eq!(random_vector_i64(6, 4, 3), random_vector_i64(6, 4, 3));
        assert_ne!(random_dense_f64(4, 5, 7), random_dense_f64(4, 5, 8));
    }

    #[test]
    fn integer_entries_respect_bound() {
        let m = random_dense_i64(10, 10, 3, 42);
        assert!(m.iter().all(|(_, _, v)| (-3..=3).contains(&v)));
        let v = random_vector_i64(100, 2, 1);
        assert!(v.iter().all(|x| (-2..=2).contains(x)));
    }

    #[test]
    fn diagonally_dominant_is_dominant() {
        let m = diagonally_dominant_f64(8, 11);
        for i in 0..8 {
            let off: f64 = (0..8).filter(|&j| j != i).map(|j| m.at(i, j).abs()).sum();
            assert!(m.at(i, i).abs() > off);
        }
    }

    #[test]
    fn banded_random_is_banded() {
        let m = banded_random_f64(10, 12, 1, 2, 5);
        assert!(m.fits_band(1, 2));
        assert!(m.count_nonzero() > 0);
    }

    #[test]
    fn block_sparse_density_extremes() {
        let full = block_sparse_f64(9, 9, 3, 1.0, 2);
        assert!(full.count_nonzero() > 70);
        let empty = block_sparse_f64(9, 9, 3, 0.0, 2);
        assert_eq!(empty.count_nonzero(), 0);
    }

    #[test]
    fn block_sparse_blocks_are_all_or_nothing() {
        let m = block_sparse_f64(12, 12, 4, 0.5, 77);
        for bi in 0..3 {
            for bj in 0..3 {
                let block = m.submatrix(bi * 4, bj * 4, 4, 4);
                let nz = block.count_nonzero();
                assert!(nz == 0 || nz == 16, "block ({bi},{bj}) is partially filled");
            }
        }
    }

    #[test]
    fn lower_triangular_shape_and_diagonal() {
        let l = lower_triangular_f64(6, 13);
        for i in 0..6 {
            assert!(l.at(i, i).abs() >= 1.0);
            for j in (i + 1)..6 {
                assert_eq!(l.at(i, j), 0.0);
            }
        }
    }

    #[test]
    fn counting_matrix_values() {
        let m: DenseMatrix<i64> = counting(2, 3);
        assert_eq!(m.at(0, 0), 1);
        assert_eq!(m.at(1, 2), 6);
        let f: DenseMatrix<f64> = counting(2, 2);
        assert_eq!(f.at(1, 1), 4.0);
    }
}
