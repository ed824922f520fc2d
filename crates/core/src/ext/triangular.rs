//! Triangular systems of linear equations on the fixed-size array
//! (paper conclusions, problem 1).
//!
//! The blocked forward/backward substitution is organised so that all the
//! *large* work — multiplying already-solved sub-vectors by off-diagonal
//! blocks — runs through the size-independent matrix–vector solver (and so
//! through the linear systolic array), while the `w × w` diagonal-block
//! substitutions are counted as host / division-cell operations.

use super::{strip_has_nonzero, strip_product, WorkSplit};
use crate::analytic::MvShape;
use crate::DbtError;
use sia_matrix::{DenseMatrix, Scalar};
use sia_sim::ArrayStation;

/// Result of a blocked triangular solve.
#[derive(Debug, Clone)]
pub struct TriangularOutcome<T> {
    /// The solution vector.
    pub x: Vec<T>,
    /// Array / host work accounting.
    pub work: WorkSplit,
}

/// Solves `L·x = c` for a lower-triangular `L` using blocked forward
/// substitution with block size `w`.
///
/// # Errors
///
/// Returns [`DbtError`] when `w == 0`, when `L` is not square, when the
/// right-hand side has the wrong length, or when a diagonal entry is zero
/// ([`DbtError::SingularPivot`]).
pub fn solve_lower<T: Scalar>(
    l: &DenseMatrix<T>,
    c: &[T],
    w: usize,
) -> Result<TriangularOutcome<T>, DbtError> {
    super::validate_square_system(l, c, "c", "triangular solve", w)?;
    solve(&mut ArrayStation::new(w)?, l, c, true)
}

/// Solves `U·x = c` for an upper-triangular `U` using blocked backward
/// substitution with block size `w`.
///
/// # Errors
///
/// Same as [`solve_lower`].
pub fn solve_upper<T: Scalar>(
    u: &DenseMatrix<T>,
    c: &[T],
    w: usize,
) -> Result<TriangularOutcome<T>, DbtError> {
    super::validate_square_system(u, c, "c", "triangular solve", w)?;
    solve(&mut ArrayStation::new(w)?, u, c, false)
}

/// [`solve_lower`] on a **caller-owned** array station: every off-diagonal
/// strip product runs through the station's linear array and its warm
/// workspace, so the array steps of the solve are attributed to the
/// station structurally (previously the blocked driver ran them on
/// transient arrays and the serving runtime back-attributed the total).
///
/// # Errors
///
/// Same as [`solve_lower`], with the block size taken from `station`.
pub fn solve_lower_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    l: &DenseMatrix<T>,
    c: &[T],
) -> Result<TriangularOutcome<T>, DbtError> {
    super::validate_square_system(l, c, "c", "triangular solve", station.size())?;
    solve(station, l, c, true)
}

/// [`solve_upper`] on a **caller-owned** array station; see
/// [`solve_lower_on`].
///
/// # Errors
///
/// Same as [`solve_upper`], with the block size taken from `station`.
pub fn solve_upper_on<T: Scalar>(
    station: &mut ArrayStation<T>,
    u: &DenseMatrix<T>,
    c: &[T],
) -> Result<TriangularOutcome<T>, DbtError> {
    super::validate_square_system(u, c, "c", "triangular solve", station.size())?;
    solve(station, u, c, false)
}

/// Exact array steps [`solve_lower`] / [`solve_upper`] will spend on the
/// linear array for this system, without running anything: one
/// simple-schedule MV run (closed form `2w·n̄m̄ + 2w − 3`) per block row
/// whose already-solved strip holds a non-zero.  This is the cost hook the
/// serving runtime's admission control uses; it shares the strip predicate
/// with [`solve_lower`] itself, so predictor and solver cannot diverge.
///
/// Degenerate inputs (`w == 0`, empty or non-square `a`) predict 0 — the
/// solve itself rejects them.
pub fn predicted_triangular_cycles<T: Scalar>(a: &DenseMatrix<T>, w: usize, lower: bool) -> usize {
    let n = a.rows();
    if w == 0 || n == 0 || a.cols() != n {
        return 0;
    }
    let nbar = n.div_ceil(w);
    let mut cycles = 0usize;
    for r in 0..nbar {
        let lo = r * w;
        let hi = ((r + 1) * w).min(n);
        let (known_lo, known_hi) = if lower { (0, lo) } else { (hi, n) };
        if known_hi > known_lo && strip_has_nonzero(a, lo, hi, known_lo, known_hi) {
            cycles += MvShape {
                w,
                n: hi - lo,
                m: known_hi - known_lo,
            }
            .cycles();
        }
    }
    cycles
}

fn solve<T: Scalar>(
    station: &mut ArrayStation<T>,
    a: &DenseMatrix<T>,
    c: &[T],
    lower: bool,
) -> Result<TriangularOutcome<T>, DbtError> {
    let w = station.size();
    let n = a.rows();
    let nbar = n.div_ceil(w);
    let mut x = vec![T::zero(); n];
    let mut work = WorkSplit::default();

    let block_range = |r: usize| (r * w, ((r + 1) * w).min(n));
    let order: Vec<usize> = if lower {
        (0..nbar).collect()
    } else {
        (0..nbar).rev().collect()
    };

    for &r in &order {
        let (lo, hi) = block_range(r);
        // rhs_r = c_r - (already solved part of the row) · x_known
        let mut rhs: Vec<T> = c[lo..hi].to_vec();
        let (known_lo, known_hi) = if lower { (0, lo) } else { (hi, n) };
        if known_hi > known_lo && strip_has_nonzero(a, lo, hi, known_lo, known_hi) {
            let strip = a.submatrix(lo, known_lo, hi - lo, known_hi - known_lo);
            let outcome = strip_product(station, &strip, &x[known_lo..known_hi])?;
            work.add_run(outcome.cycles);
            for (slot, v) in rhs.iter_mut().zip(outcome.y) {
                *slot = *slot - v;
            }
        }
        // Diagonal-block substitution (division cells / host).
        let locals: Vec<usize> = if lower {
            (0..hi - lo).collect()
        } else {
            (0..hi - lo).rev().collect()
        };
        for li in locals {
            let gi = lo + li;
            let mut acc = rhs[li];
            for lj in 0..hi - lo {
                let gj = lo + lj;
                let in_triangle = if lower { gj < gi } else { gj > gi };
                if in_triangle && gj >= lo && gj < hi {
                    acc = acc - a.at(gi, gj) * x[gj];
                    work.add_host(1);
                }
            }
            let pivot = a.at(gi, gi);
            if pivot.is_zero() {
                return Err(DbtError::SingularPivot { index: gi });
            }
            x[gi] = acc / pivot;
            work.add_host(1);
        }
    }
    Ok(TriangularOutcome { x, work })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::{gen, vector};

    #[test]
    fn lower_solve_matches_reference_for_floats() {
        for (n, w, seed) in [(6usize, 2usize, 1u64), (9, 3, 2), (7, 3, 3), (4, 4, 4)] {
            let l = gen::lower_triangular_f64(n, seed);
            let x_true = gen::random_vector_f64(n, seed + 10);
            let c = l.matvec(&x_true).unwrap();
            let outcome = solve_lower(&l, &c, w).unwrap();
            assert!(
                vector::approx_eq(&outcome.x, &x_true, 1e-7),
                "n={n} w={w}: {:?} vs {:?}",
                outcome.x,
                x_true
            );
            if n > w {
                assert!(outcome.work.array_runs > 0);
            }
            assert!(outcome.work.host_ops > 0);
        }
    }

    #[test]
    fn upper_solve_matches_reference_for_floats() {
        for (n, w, seed) in [(6usize, 2usize, 11u64), (9, 3, 12), (5, 2, 13)] {
            let u = gen::lower_triangular_f64(n, seed).transpose();
            let x_true = gen::random_vector_f64(n, seed + 10);
            let c = u.matvec(&x_true).unwrap();
            let outcome = solve_upper(&u, &c, w).unwrap();
            assert!(vector::approx_eq(&outcome.x, &x_true, 1e-7), "n={n} w={w}");
        }
    }

    #[test]
    fn unit_diagonal_integer_systems_are_solved_exactly() {
        let n = 6;
        let l = DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                1i64
            } else if j < i {
                ((i * 3 + j) % 5) as i64 - 2
            } else {
                0
            }
        });
        let x_true: Vec<i64> = (0..n as i64).map(|v| v - 3).collect();
        let c = l.matvec(&x_true).unwrap();
        let outcome = solve_lower(&l, &c, 2).unwrap();
        assert_eq!(outcome.x, x_true);
    }

    #[test]
    fn predicted_cycles_match_the_measured_work_split() {
        for (n, w, seed) in [(6usize, 2usize, 21u64), (9, 3, 22), (7, 3, 23), (4, 4, 24)] {
            let l = gen::lower_triangular_f64(n, seed);
            let c = gen::random_vector_f64(n, seed + 10);
            let run = solve_lower(&l, &c, w).unwrap();
            assert_eq!(
                predicted_triangular_cycles(&l, w, true),
                run.work.array_cycles,
                "lower n={n} w={w}"
            );
            let u = l.transpose();
            let run = solve_upper(&u, &c, w).unwrap();
            assert_eq!(
                predicted_triangular_cycles(&u, w, false),
                run.work.array_cycles,
                "upper n={n} w={w}"
            );
        }
        // Degenerate inputs predict zero instead of panicking.
        assert_eq!(
            predicted_triangular_cycles(&DenseMatrix::<f64>::zeros(3, 4), 2, true),
            0
        );
        assert_eq!(
            predicted_triangular_cycles(&gen::lower_triangular_f64(4, 1), 0, true),
            0
        );
    }

    #[test]
    fn station_variants_attribute_cycles_structurally() {
        let n = 9;
        let w = 3;
        let l = gen::lower_triangular_f64(n, 31);
        let c = gen::random_vector_f64(n, 32);
        let mut station = ArrayStation::new(w).unwrap();
        let run = solve_lower_on(&mut station, &l, &c).unwrap();
        let direct = solve_lower(&l, &c, w).unwrap();
        assert_eq!(run.x, direct.x);
        assert_eq!(run.work, direct.work);
        assert_eq!(station.stats().linear_cycles, run.work.array_cycles);
        assert_eq!(station.stats().linear_runs, run.work.array_runs);

        let u = l.transpose();
        let upper = solve_upper_on(&mut station, &u, &c).unwrap();
        assert_eq!(upper.x, solve_upper(&u, &c, w).unwrap().x);
        assert_eq!(
            station.stats().linear_cycles,
            run.work.array_cycles + upper.work.array_cycles
        );
    }

    #[test]
    fn singular_pivot_is_reported() {
        let mut l = gen::lower_triangular_f64(4, 5);
        l.set(2, 2, 0.0).unwrap();
        let err = solve_lower(&l, &[1.0; 4], 2).unwrap_err();
        assert_eq!(err, DbtError::SingularPivot { index: 2 });
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let l = gen::lower_triangular_f64(4, 6);
        assert_eq!(
            solve_lower(&l, &[1.0; 4], 0).unwrap_err(),
            DbtError::ZeroArraySize
        );
        assert!(matches!(
            solve_lower(&l, &[1.0; 3], 2).unwrap_err(),
            DbtError::VectorLength { .. }
        ));
        let rect = DenseMatrix::<f64>::zeros(3, 4);
        assert!(matches!(
            solve_lower(&rect, &[1.0; 3], 2).unwrap_err(),
            DbtError::ShapeMismatch { .. }
        ));
    }
}
