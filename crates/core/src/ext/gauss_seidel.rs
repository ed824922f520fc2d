//! Block Gauss–Seidel iteration (paper conclusions, "Gauss-Seidel iterative
//! method").
//!
//! The classic sweep `x_r ← D_r⁻¹ (b_r − Σ_{s<r} A_{rs} x_s^{new}
//! − Σ_{s>r} A_{rs} x_s^{old})` is organised at block granularity: the two
//! off-diagonal products of every block row run through the
//! size-independent matrix–vector solver (the linear systolic array), while
//! the small `w × w` diagonal solves are host / division-cell work.

use super::{strip_has_nonzero, strip_product, triangular::solve_lower, WorkSplit};
use crate::analytic::MvShape;
use crate::ext::lu::lu_decompose;
use crate::ext::triangular::solve_upper;
use crate::DbtError;
use sia_matrix::{vector, DenseMatrix};
use sia_sim::ArrayStation;

/// Result of a block Gauss–Seidel run.
#[derive(Debug, Clone)]
pub struct GaussSeidelOutcome {
    /// The solution estimate after the final sweep.
    pub x: Vec<f64>,
    /// Number of sweeps performed.
    pub sweeps: usize,
    /// Final residual `‖A·x − b‖∞`.
    pub residual: f64,
    /// Array / host work accounting.
    pub work: WorkSplit,
}

/// Solves `A·x = b` iteratively with block Gauss–Seidel sweeps.
///
/// Convergence is only guaranteed for suitable matrices (e.g. diagonally
/// dominant ones); the iteration stops when the infinity-norm residual drops
/// below `tol` or after `max_sweeps` sweeps.
///
/// # Errors
///
/// Returns [`DbtError::DidNotConverge`] when the sweep budget is exhausted,
/// and the usual shape/array-size errors for malformed inputs.
pub fn gauss_seidel(
    a: &DenseMatrix<f64>,
    b: &[f64],
    w: usize,
    tol: f64,
    max_sweeps: usize,
) -> Result<GaussSeidelOutcome, DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    // Shape validation happens once, inside `gauss_seidel_on`.
    gauss_seidel_on(&mut ArrayStation::new(w)?, a, b, tol, max_sweeps)
}

/// [`gauss_seidel`] on a **caller-owned** array station: the two
/// off-diagonal strip products of every block row and the per-sweep
/// residual check all run through the station's linear array and its warm
/// workspace, so the array steps of the iteration — including those of a
/// run that ultimately fails to converge — are attributed to the station
/// structurally.
///
/// # Errors
///
/// Same as [`gauss_seidel`], with the block size taken from `station`.
pub fn gauss_seidel_on(
    station: &mut ArrayStation<f64>,
    a: &DenseMatrix<f64>,
    b: &[f64],
    tol: f64,
    max_sweeps: usize,
) -> Result<GaussSeidelOutcome, DbtError> {
    let w = station.size();
    super::validate_square_system(a, b, "b", "gauss-seidel", w)?;
    let n = a.rows();
    let nbar = n.div_ceil(w);
    let mut work = WorkSplit::default();
    let mut x = vec![0.0f64; n];

    // Pre-factor every diagonal block once (host work), so each sweep's
    // diagonal solve is two small triangular substitutions.
    let mut diag_factors = Vec::with_capacity(nbar);
    for r in 0..nbar {
        let lo = r * w;
        let hi = ((r + 1) * w).min(n);
        let block = a.submatrix(lo, lo, hi - lo, hi - lo);
        let lu = lu_decompose(&block, hi - lo)?;
        work.add_host(lu.work.host_ops);
        diag_factors.push(lu);
    }

    let mut residual = f64::INFINITY;
    for sweep in 1..=max_sweeps {
        for (r, lu) in diag_factors.iter().enumerate() {
            let lo = r * w;
            let hi = ((r + 1) * w).min(n);
            let mut rhs: Vec<f64> = b[lo..hi].to_vec();
            // Left part (already updated this sweep) and right part (previous
            // sweep values), both on the array.
            for (col_lo, col_hi) in [(0usize, lo), (hi, n)] {
                if col_hi > col_lo && strip_has_nonzero(a, lo, hi, col_lo, col_hi) {
                    let strip = a.submatrix(lo, col_lo, hi - lo, col_hi - col_lo);
                    let product = strip_product(station, &strip, &x[col_lo..col_hi])?;
                    work.add_run(product.cycles);
                    for (slot, v) in rhs.iter_mut().zip(product.y) {
                        *slot -= v;
                    }
                }
            }
            // Diagonal solve through the pre-computed LU factors.
            let z = solve_lower(&lu.l, &rhs, hi - lo)?;
            let xb = solve_upper(&lu.u, &z.x, hi - lo)?;
            work.add_host(z.work.host_ops + xb.work.host_ops);
            x[lo..hi].copy_from_slice(&xb.x);
        }
        // Residual check (one more array product).
        let ax = strip_product(station, a, &x)?;
        work.add_run(ax.cycles);
        residual = vector::max_abs_diff(&ax.y, b).unwrap_or(f64::INFINITY);
        if residual < tol {
            return Ok(GaussSeidelOutcome {
                x,
                sweeps: sweep,
                residual,
                work,
            });
        }
    }
    Err(DbtError::DidNotConverge {
        iterations: max_sweeps,
        residual,
    })
}

/// The row-wise **diagonal dominance ratio** of `a`:
/// `max_i Σ_{j≠i} |a_ij| / |a_ii|`.
///
/// For a strictly diagonally dominant matrix this is `< 1` and bounds the
/// per-sweep error contraction of (block) Gauss–Seidel: the iteration
/// matrix satisfies `‖M‖∞ ≤ r`, so the error shrinks at least geometrically
/// with ratio `r` per sweep.  Returns `f64::INFINITY` when a diagonal entry
/// is zero, and `0.0` for empty or non-square inputs (which the iteration
/// itself rejects).
pub fn dominance_ratio(a: &DenseMatrix<f64>) -> f64 {
    let n = a.rows();
    if n == 0 || a.cols() != n {
        return 0.0;
    }
    let mut worst = 0.0f64;
    for i in 0..n {
        let row = a.row(i);
        let diag = row[i].abs();
        let off: f64 = row
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, v)| v.abs())
            .sum();
        let ratio = if diag == 0.0 {
            if off == 0.0 {
                // An all-zero row contributes nothing to the contraction
                // model; the solve itself will fail on the singular pivot.
                continue;
            }
            f64::INFINITY
        } else {
            off / diag
        };
        worst = worst.max(ratio);
    }
    worst
}

/// Estimated number of sweeps [`gauss_seidel`] will need to reach `tol`,
/// from the diagonal-dominance contraction model (no sweep runs):
/// starting from `x = 0` the initial residual is exactly `‖b‖∞`, each sweep
/// contracts the error by at least [`dominance_ratio`] `r`, so the estimate
/// is the smallest `k` with `r^k · ‖b‖∞ < tol`, clamped to
/// `[1, max_sweeps]`.  Matrices that are not strictly diagonally dominant
/// (`r ≥ 1`) carry no geometric guarantee and estimate the full
/// `max_sweeps` budget.
///
/// This replaces the serving runtime's earlier guess of a single sweep:
/// admission still flags the prediction as inexact (the true count is
/// data-dependent), but shortest-predicted-first ordering of iterative jobs
/// now reflects both the per-sweep cost *and* how hard the system is.
pub fn estimated_sweeps(a: &DenseMatrix<f64>, b: &[f64], tol: f64, max_sweeps: usize) -> usize {
    if max_sweeps == 0 {
        return 0;
    }
    if tol.is_nan() || tol <= 0.0 {
        return max_sweeps;
    }
    let r = dominance_ratio(a);
    if r.is_nan() || r >= 1.0 {
        // No contraction guarantee (or NaN): price the full budget.
        return max_sweeps;
    }
    let b_norm = b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    if b_norm < tol {
        // x = 0 is already within tolerance; the loop still runs one sweep
        // before it can observe that.
        return 1;
    }
    if r == 0.0 {
        // Block-diagonal system: one sweep solves it exactly.
        return 1;
    }
    let k = ((tol / b_norm).ln() / r.ln()).ceil();
    if !k.is_finite() {
        return max_sweeps;
    }
    (k.max(1.0) as usize).min(max_sweeps)
}

/// Array steps of **one** [`gauss_seidel`] sweep plus its residual check,
/// without running anything — the per-sweep cost the serving runtime's
/// admission control prices iterative jobs with (scaled by
/// [`estimated_sweeps`], since the true sweep count is data-dependent).  It
/// shares the strip predicate with the sweep loop, so
/// `work.array_cycles == sweeps * predicted_sweep_cycles(..)` holds exactly
/// for every converging run.
///
/// Degenerate inputs (`w == 0`, empty or non-square `a`) predict 0 — the
/// iteration itself rejects them.
pub fn predicted_sweep_cycles(a: &DenseMatrix<f64>, w: usize) -> usize {
    let n = a.rows();
    if w == 0 || n == 0 || a.cols() != n {
        return 0;
    }
    let nbar = n.div_ceil(w);
    let mut cycles = 0usize;
    for r in 0..nbar {
        let lo = r * w;
        let hi = ((r + 1) * w).min(n);
        for (col_lo, col_hi) in [(0usize, lo), (hi, n)] {
            if col_hi > col_lo && strip_has_nonzero(a, lo, hi, col_lo, col_hi) {
                cycles += MvShape {
                    w,
                    n: hi - lo,
                    m: col_hi - col_lo,
                }
                .cycles();
            }
        }
    }
    // Residual check: one full-matrix MV per sweep.
    cycles + MvShape { w, n, m: n }.cycles()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::gen;

    #[test]
    fn converges_on_diagonally_dominant_systems() {
        for (n, w, seed) in [(6usize, 2usize, 1u64), (9, 3, 2), (8, 3, 3)] {
            let a = gen::diagonally_dominant_f64(n, seed);
            let x_true = gen::random_vector_f64(n, seed + 10);
            let b = a.matvec(&x_true).unwrap();
            let outcome = gauss_seidel(&a, &b, w, 1e-9, 200).unwrap();
            assert!(
                vector::approx_eq(&outcome.x, &x_true, 1e-6),
                "n={n} w={w}: residual {}",
                outcome.residual
            );
            assert!(outcome.residual < 1e-9);
            assert!(outcome.sweeps < 200);
            assert!(outcome.work.array_runs > 0);
        }
    }

    #[test]
    fn sweep_prediction_times_sweep_count_is_the_measured_array_work() {
        for (n, w, seed) in [(6usize, 2usize, 31u64), (9, 3, 32), (8, 3, 33)] {
            let a = gen::diagonally_dominant_f64(n, seed);
            let x_true = gen::random_vector_f64(n, seed + 10);
            let b = a.matvec(&x_true).unwrap();
            let run = gauss_seidel(&a, &b, w, 1e-9, 200).unwrap();
            assert_eq!(
                predicted_sweep_cycles(&a, w) * run.sweeps,
                run.work.array_cycles,
                "n={n} w={w}"
            );
        }
        assert_eq!(predicted_sweep_cycles(&DenseMatrix::zeros(3, 4), 2), 0);
        assert_eq!(
            predicted_sweep_cycles(&gen::diagonally_dominant_f64(4, 1), 0),
            0
        );
    }

    #[test]
    fn station_variant_attributes_cycles_structurally() {
        let a = gen::diagonally_dominant_f64(8, 41);
        let x_true = gen::random_vector_f64(8, 42);
        let b = a.matvec(&x_true).unwrap();
        let mut station = ArrayStation::new(3).unwrap();
        let run = gauss_seidel_on(&mut station, &a, &b, 1e-9, 200).unwrap();
        let direct = gauss_seidel(&a, &b, 3, 1e-9, 200).unwrap();
        assert_eq!(run.x, direct.x);
        assert_eq!(run.work, direct.work);
        // Every array step of the iteration landed on the station.
        let stats = station.stats();
        assert_eq!(stats.linear_cycles, run.work.array_cycles);
        assert_eq!(stats.linear_runs, run.work.array_runs);
    }

    #[test]
    fn dominance_ratio_matches_hand_computed_values() {
        // Row 0: 1/4, row 1: 3/5 -> worst 0.6.
        let a = DenseMatrix::from_rows(vec![vec![4.0, 1.0], vec![3.0, 5.0]]).unwrap();
        assert!((dominance_ratio(&a) - 0.6).abs() < 1e-12);
        // A zero diagonal entry with off-diagonal mass has no guarantee.
        let z = DenseMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 2.0]]).unwrap();
        assert_eq!(dominance_ratio(&z), f64::INFINITY);
        // Degenerate shapes report 0 (the solvers reject them anyway).
        assert_eq!(dominance_ratio(&DenseMatrix::zeros(3, 4)), 0.0);
    }

    #[test]
    fn estimated_sweeps_upper_bounds_measured_sweeps_on_dominant_systems() {
        for (n, w, seed) in [(6usize, 2usize, 51u64), (9, 3, 52), (8, 3, 53)] {
            let a = gen::diagonally_dominant_f64(n, seed);
            let x_true = gen::random_vector_f64(n, seed + 10);
            let b = a.matvec(&x_true).unwrap();
            let run = gauss_seidel(&a, &b, w, 1e-9, 200).unwrap();
            let est = estimated_sweeps(&a, &b, 1e-9, 200);
            assert!(
                est >= run.sweeps,
                "n={n} w={w}: estimate {est} under-shoots measured {}",
                run.sweeps
            );
            assert!(est <= 200);
            // Tighter tolerance never estimates fewer sweeps.
            assert!(estimated_sweeps(&a, &b, 1e-12, 200) >= est);
        }
    }

    #[test]
    fn estimated_sweeps_edge_cases() {
        let a = gen::diagonally_dominant_f64(4, 61);
        let b = gen::random_vector_f64(4, 62);
        // No contraction guarantee: full budget.
        let hard = DenseMatrix::from_rows(vec![vec![0.1, 1.0], vec![-1.0, 0.1]]).unwrap();
        assert_eq!(estimated_sweeps(&hard, &[1.0, 1.0], 1e-9, 37), 37);
        // Zero right-hand side: one sweep confirms convergence.
        assert_eq!(estimated_sweeps(&a, &[0.0; 4], 1e-9, 100), 1);
        // Diagonal system: one sweep solves it.
        let diag = DenseMatrix::from_fn(3, 3, |i, j| if i == j { 2.0 } else { 0.0 });
        assert_eq!(estimated_sweeps(&diag, &[1.0; 3], 1e-9, 100), 1);
        // Non-positive tolerance: full budget; zero budget stays zero.
        assert_eq!(estimated_sweeps(&a, &b, 0.0, 50), 50);
        assert_eq!(estimated_sweeps(&a, &b, 1e-9, 0), 0);
    }

    #[test]
    fn reports_non_convergence() {
        // A rotation-like matrix that block Gauss-Seidel cannot solve fast.
        let a = DenseMatrix::from_rows(vec![vec![0.1, 1.0], vec![-1.0, 0.1]]).unwrap();
        let err = gauss_seidel(&a, &[1.0, 1.0], 1, 1e-12, 3).unwrap_err();
        assert!(matches!(
            err,
            DbtError::DidNotConverge { iterations: 3, .. }
        ));
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let a = gen::diagonally_dominant_f64(4, 7);
        assert_eq!(
            gauss_seidel(&a, &[1.0; 4], 0, 1e-6, 10).unwrap_err(),
            DbtError::ZeroArraySize
        );
        assert!(matches!(
            gauss_seidel(&a, &[1.0; 3], 2, 1e-6, 10).unwrap_err(),
            DbtError::VectorLength { .. }
        ));
        let rect = DenseMatrix::<f64>::zeros(3, 4);
        assert!(matches!(
            gauss_seidel(&rect, &[1.0; 3], 2, 1e-6, 10).unwrap_err(),
            DbtError::ShapeMismatch { .. }
        ));
    }
}
