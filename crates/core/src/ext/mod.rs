//! Extensions: the follow-on problems listed in the paper's conclusions.
//!
//! "The methodology that has been presented in this paper has been also
//! applied to solve the problems: Triangular systems of linear and matrix
//! equations, Gauss-Seidel iterative method, L-U decomposition and inverses
//! of triangular and dense matrices."
//!
//! The reference the paper points to (/8/, an internal UPC report) is not
//! available, so these modules implement the natural blocked formulations of
//! those problems *on top of the DBT machinery*: every matrix–vector or
//! matrix–matrix product of size larger than one block runs through the
//! size-independent solvers ([`crate::multiply_mv`] / [`crate::multiply_mm`])
//! and therefore through the simulated systolic arrays, while the small
//! `w × w` pivot work (triangular solves and factorizations of single
//! blocks) is modelled as host/"division cell" work and reported separately.
//! `README.md` lists these extensions in its workspace table.

mod gauss_seidel;
mod inverse;
mod lu;
mod triangular;

pub use gauss_seidel::{
    dominance_ratio, estimated_sweeps, gauss_seidel, gauss_seidel_on, predicted_sweep_cycles,
    GaussSeidelOutcome,
};
pub use inverse::{invert, InverseOutcome};
pub use lu::{lu_decompose, LuOutcome};
pub use triangular::{
    predicted_triangular_cycles, solve_lower, solve_lower_on, solve_upper, solve_upper_on,
    TriangularOutcome,
};

use crate::resident::{serve_mv_lanes, solo, transient};
use crate::{BandCache, DbtError, MvOutcome, MvSchedule};
use sia_matrix::{DenseMatrix, Scalar};
use sia_sim::ArrayStation;

/// One strip product `A·x` on the station's linear array (simple
/// schedule).  A strip is served once, so it goes through a capacity-0
/// cache: staged, run, and not retained.
fn strip_product<T: Scalar>(
    station: &mut ArrayStation<T>,
    a: &DenseMatrix<T>,
    x: &[T],
) -> Result<MvOutcome<T>, DbtError> {
    let mut cache = BandCache::new(station.size(), 0);
    let lanes = [(transient(a), x, None)];
    let (outcome, _) = solo(serve_mv_lanes(
        station,
        &mut cache,
        &lanes,
        MvSchedule::Simple,
    )?);
    Ok(outcome)
}

/// Checks the square-system contract shared by the triangular and
/// Gauss–Seidel drivers and the serving runtime's admission control: `w`
/// positive, `a` square, `rhs` of matching length.  Having one checker
/// means admission can never accept a job the solver would later reject.
///
/// # Errors
///
/// The same errors the drivers report for malformed arguments.
pub fn validate_square_system<T: Scalar>(
    a: &DenseMatrix<T>,
    rhs: &[T],
    rhs_name: &'static str,
    op: &'static str,
    w: usize,
) -> Result<(), DbtError> {
    if w == 0 {
        return Err(DbtError::ZeroArraySize);
    }
    let n = a.rows();
    if a.cols() != n {
        return Err(DbtError::ShapeMismatch {
            left: a.shape(),
            right: (n, n),
            op,
        });
    }
    if rhs.len() != n {
        return Err(DbtError::VectorLength {
            what: rhs_name,
            expected: n,
            found: rhs.len(),
        });
    }
    Ok(())
}

/// `true` when the `[row_lo, row_hi) × [col_lo, col_hi)` strip of `a` holds
/// any non-zero element.  Shared by the solvers (to skip all-zero strip
/// products), their cost predictors and the block-sparse planner
/// (`crate::sparse`), so none of them can disagree about what counts as
/// non-zero — and it scans in place, with none of the copying
/// `DenseMatrix::submatrix` would do.
pub(crate) fn strip_has_nonzero<T: Scalar>(
    a: &DenseMatrix<T>,
    row_lo: usize,
    row_hi: usize,
    col_lo: usize,
    col_hi: usize,
) -> bool {
    (row_lo..row_hi).any(|i| (col_lo..col_hi).any(|j| !a.at(i, j).is_zero()))
}

/// Accounting shared by all extensions: how much work ran on the systolic
/// array versus on the host ("division cells").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkSplit {
    /// Total array steps across all array invocations.
    pub array_cycles: usize,
    /// Number of separate array invocations.
    pub array_runs: usize,
    /// Scalar multiply/divide operations performed outside the array
    /// (single-block pivot work).
    pub host_ops: usize,
}

impl WorkSplit {
    /// Adds the cycles of one more array invocation.
    pub fn add_run(&mut self, cycles: usize) {
        self.array_cycles += cycles;
        self.array_runs += 1;
    }

    /// Adds host-side scalar operations.
    pub fn add_host(&mut self, ops: usize) {
        self.host_ops += ops;
    }

    /// Fraction of counted operations that ran on the array (array steps are
    /// used as a proxy for array work).
    pub fn array_fraction(&self) -> f64 {
        let total = self.array_cycles + self.host_ops;
        if total == 0 {
            return 0.0;
        }
        self.array_cycles as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_split_accumulates() {
        let mut split = WorkSplit::default();
        split.add_run(10);
        split.add_run(20);
        split.add_host(5);
        assert_eq!(split.array_cycles, 30);
        assert_eq!(split.array_runs, 2);
        assert_eq!(split.host_ops, 5);
        assert!((split.array_fraction() - 30.0 / 35.0).abs() < 1e-12);
        assert_eq!(WorkSplit::default().array_fraction(), 0.0);
    }
}
