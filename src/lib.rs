//! # size-independent-systolic
//!
//! Umbrella crate for the reproduction of *"Computing Size-Independent
//! Matrix Problems on Systolic Array Processors"* (Navarro, Llaberia,
//! Valero — ISCA 1986).  It re-exports the workspace crates under one roof
//! so the examples and integration tests can use a single dependency:
//!
//! * [`matrix`] — dense / band / block matrix substrate (`sia-matrix`);
//! * [`sim`] — cycle-accurate linear and hexagonal systolic-array
//!   simulators (`sia-sim`);
//! * [`dbt`] — the paper's DBT transformations and size-independent solvers
//!   (`sia-dbt`);
//! * [`baselines`] — the prior-art schemes the paper compares against
//!   (`sia-baselines`);
//! * [`runtime`] — the multi-tenant array-farm scheduler that serves mixed
//!   job streams using the paper's closed forms as its cost model
//!   (`sia-runtime`).
//!
//! See `README.md` for a tour and the engine architecture, `BENCHMARKS.md`
//! for the measured record, and the `paper_experiments` binary's output
//! for every paper-versus-measured table.
//!
//! ```
//! use size_independent_systolic::prelude::*;
//!
//! # fn main() -> Result<(), sia_dbt::DbtError> {
//! let a = gen::random_dense_i64(6, 9, 5, 1);
//! let x = gen::random_vector_i64(9, 5, 2);
//! let outcome = multiply_mv(&a, &x, None, 3, MvSchedule::Simple)?;
//! assert_eq!(outcome.y, a.matvec(&x)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sia_baselines as baselines;
pub use sia_dbt as dbt;
pub use sia_matrix as matrix;
pub use sia_runtime as runtime;
pub use sia_sim as sim;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use sia_baselines::{host_blocked_mm, host_blocked_mv, prt_mv, TailoredArrayModel};
    pub use sia_dbt::{
        multiply_mm, multiply_mv, DbtByRows, DbtError, DbtTransposedByRows, MmShape, MvSchedule,
        MvShape,
    };
    pub use sia_matrix::{gen, BandMatrix, BlockGrid, DenseMatrix, MatrixError, Scalar};
    pub use sia_runtime::{
        ArrayFarm, FarmConfig, FarmError, FarmSnapshot, Job, JobReceipt, JobSpec, Policy,
    };
    pub use sia_sim::{ArrayStation, HexArray, LinearArray, SpiralTopology};
}
