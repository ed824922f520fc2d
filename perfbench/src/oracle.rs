//! The per-job oracle: the direct `sia_dbt` call on the same operands.
//!
//! Farm outputs are bit-identical to the direct solver call (they are only
//! within rounding of the host `DenseMatrix` products), so the direct call
//! is what every receipt is compared against, bit for bit, together with
//! its cycle count.  The host products are checked once per distinct job,
//! within a tolerance, when the oracle is built.

use sia_dbt::sparse::multiply_mv_block_sparse;
use sia_dbt::{multiply_mm, multiply_mv, MvSchedule, OperandRef};
use sia_runtime::{JobOutput, JobReceipt};

/// One distinct job's operation, with its operands.
#[derive(Debug, Clone)]
pub enum Op {
    /// Dense `C = A·B` on the hexagonal array.
    Mm { a: OperandRef, b: OperandRef },
    /// Dense `y = A·x` on the linear array.
    Mv { a: OperandRef, x: Vec<f64> },
    /// Block-sparse `y = A·x` on the linear array.
    Sparse { a: OperandRef, x: Vec<f64> },
}

/// What a correct receipt for one distinct job carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// The direct call's output, row-major, as raw bits.
    pub bits: Vec<u64>,
    /// The direct call's measured array steps.
    pub cycles: usize,
}

/// Why a receipt failed the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// The receipt's measured cycles differ from its admission prediction.
    PredictionInexact,
    /// The receipt's measured cycles differ from the direct call's.
    Cycles,
    /// The output is not bit-identical to the direct call's.
    Output,
}

fn bits_of(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn output_matches(output: &JobOutput, bits: &[u64]) -> bool {
    match output {
        JobOutput::Matrix(c) => {
            let m = c.cols();
            c.rows() * m == bits.len()
                && (0..c.rows()).all(|i| {
                    c.row(i)
                        .iter()
                        .zip(&bits[i * m..(i + 1) * m])
                        .all(|(v, b)| v.to_bits() == *b)
                })
        }
        JobOutput::Vector(y) => {
            y.len() == bits.len() && y.iter().zip(bits).all(|(v, b)| v.to_bits() == *b)
        }
    }
}

/// Largest absolute difference allowed between the array result and the
/// host product over an inner dimension of `inner`: both sum the same
/// `inner` products of values in `[-1, 1)`, in different orders.
fn host_tolerance(inner: usize) -> f64 {
    1e-12 * (inner as f64 + 1.0)
}

fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

impl Op {
    /// Runs the direct solver call on a fresh station of size `w` and
    /// checks it against the host product.  Returns the expectation and
    /// whether the host check passed.
    ///
    /// # Panics
    ///
    /// When the direct call rejects the job: catalog shapes are valid by
    /// construction, so that is a bug in the benchmark.
    pub fn expected(&self, w: usize) -> (Expected, bool) {
        match self {
            Op::Mm { a, b } => {
                let out = multiply_mm(a.matrix(), b.matrix(), None, w).expect("valid MM job");
                let host = a.matrix().matmul(b.matrix()).expect("conforming shapes");
                let bits: Vec<u64> = (0..out.c.rows())
                    .flat_map(|i| bits_of(out.c.row(i)))
                    .collect();
                let close = out
                    .c
                    .max_abs_diff(&host)
                    .is_some_and(|d| d <= host_tolerance(a.cols()));
                let exact = out.cycles == out.predicted_cycles();
                (
                    Expected {
                        bits,
                        cycles: out.cycles,
                    },
                    close && exact,
                )
            }
            Op::Mv { a, x } => {
                let out =
                    multiply_mv(a.matrix(), x, None, w, MvSchedule::Simple).expect("valid MV job");
                let host = a.matrix().matvec(x).expect("conforming shapes");
                let close = max_abs_diff(&out.y, &host) <= host_tolerance(a.cols());
                let exact = out.cycles == out.predicted_cycles();
                (
                    Expected {
                        bits: bits_of(&out.y),
                        cycles: out.cycles,
                    },
                    close && exact,
                )
            }
            Op::Sparse { a, x } => {
                let out = multiply_mv_block_sparse(a.matrix(), x, None, w)
                    .expect("valid block-sparse job");
                let host = a.matrix().matvec(x).expect("conforming shapes");
                let close = max_abs_diff(&out.outcome.y, &host) <= host_tolerance(a.cols());
                (
                    Expected {
                        bits: bits_of(&out.outcome.y),
                        cycles: out.outcome.cycles,
                    },
                    close,
                )
            }
        }
    }
}

/// Checks one receipt against its distinct job's expectation.
///
/// # Errors
///
/// The first [`Mismatch`] found.
pub fn check(expected: &Expected, receipt: &JobReceipt) -> Result<(), Mismatch> {
    if !receipt.prediction_exact() {
        return Err(Mismatch::PredictionInexact);
    }
    if receipt.measured_cycles != expected.cycles {
        return Err(Mismatch::Cycles);
    }
    if !output_matches(&receipt.output, &expected.bits) {
        return Err(Mismatch::Output);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::gen;
    use sia_runtime::{ArrayFarm, FarmConfig, Job};

    fn served(job: Job) -> JobReceipt {
        let farm = ArrayFarm::new(FarmConfig::new(4)).expect("farm");
        let receipt = farm.submit(job).expect("admitted").wait().expect("served");
        farm.shutdown();
        receipt
    }

    fn mm_case() -> (Expected, JobReceipt) {
        let a = OperandRef::named(1, gen::random_dense_f64(9, 7, 1));
        let b = OperandRef::named(2, gen::random_dense_f64(7, 6, 2));
        let (expected, host_ok) = Op::Mm {
            a: a.clone(),
            b: b.clone(),
        }
        .expected(4);
        assert!(host_ok);
        (expected, served(Job::dense_mm(a, b)))
    }

    #[test]
    fn a_correct_receipt_passes() {
        let (expected, receipt) = mm_case();
        assert_eq!(check(&expected, &receipt), Ok(()));
        let a = OperandRef::named(3, gen::random_dense_f64(10, 8, 3));
        let x = gen::random_vector_f64(8, 4);
        let (expected, host_ok) = Op::Mv {
            a: a.clone(),
            x: x.clone(),
        }
        .expected(4);
        assert!(host_ok);
        assert_eq!(check(&expected, &served(Job::dense_mv(a, x))), Ok(()));
    }

    #[test]
    fn a_corrupted_expected_output_is_a_failure() {
        let (mut expected, receipt) = mm_case();
        // One ulp off in one element.
        expected.bits[5] ^= 1;
        assert_eq!(check(&expected, &receipt), Err(Mismatch::Output));
    }

    #[test]
    fn a_wrong_cycle_count_is_a_failure() {
        let (expected, mut receipt) = mm_case();
        receipt.measured_cycles += 1;
        assert_eq!(check(&expected, &receipt), Err(Mismatch::PredictionInexact));
        // A receipt whose prediction agrees with a wrong measurement still
        // fails against the direct call's count.
        receipt.predicted.cycles = receipt.measured_cycles;
        assert_eq!(check(&expected, &receipt), Err(Mismatch::Cycles));
    }
}
