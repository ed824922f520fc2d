//! The job vocabulary of the farm: what clients submit ([`Job`], [`JobSpec`])
//! and what they get back ([`JobReceipt`], [`JobOutput`]).
//!
//! Every job kind maps onto one of the workspace's size-independent solvers,
//! and therefore onto one of the two array types ([`ArrayClass`]): dense
//! matrix–matrix products run on the hexagonal array, everything else on the
//! linear contraflow array.  All payloads are `f64`; the solvers are
//! deterministic, so a job served by the farm produces **bit-identical**
//! results to the corresponding direct solver call.

use crate::cost::CostEstimate;
use sia_dbt::{DbtError, MvSchedule, OperandRef};
use sia_matrix::DenseMatrix;
use std::time::Duration;

/// Which of the farm's two array types a job needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayClass {
    /// The `w × w` hexagonal array (matrix–matrix problems).
    Hex,
    /// The `w`-cell linear contraflow array (matrix–vector problems).
    Linear,
}

impl ArrayClass {
    /// Short human-readable label (`"hex"` / `"linear"`).
    pub fn label(&self) -> &'static str {
        match self {
            ArrayClass::Hex => "hex",
            ArrayClass::Linear => "linear",
        }
    }
}

/// Discriminant of [`Job`], used in receipts and snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Dense `C = A·B + E`.
    DenseMm,
    /// Dense `y = A·x + b`.
    DenseMv,
    /// Block-sparse `y = A·x + b` (zero blocks skipped).
    BlockSparseMv,
    /// Blocked triangular solve `L·x = c` / `U·x = c`.
    TriangularSolve,
    /// Block Gauss–Seidel iteration on `A·x = b`.
    GaussSeidel,
}

impl JobKind {
    /// Short human-readable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::DenseMm => "mm",
            JobKind::DenseMv => "mv",
            JobKind::BlockSparseMv => "sparse-mv",
            JobKind::TriangularSolve => "tri-solve",
            JobKind::GaussSeidel => "gauss-seidel",
        }
    }
}

/// Shape identity used to coalesce queued jobs into one batch run: only
/// same-kind, same-shape (and same-schedule) jobs share a
/// `multiply_*_batch` call, which keeps the batch outcomes bit-identical to
/// per-job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoalesceKey {
    /// Dense matrix–matrix of shape `n × p × m`.
    Mm { n: usize, p: usize, m: usize },
    /// Dense matrix–vector of shape `n × m` under one schedule.
    Mv {
        n: usize,
        m: usize,
        schedule: MvSchedule,
    },
}

/// One unit of work a client submits to the farm.
///
/// All payloads outlive the submitting call and move to a worker thread.
/// Matrix *operands* are [`OperandRef`]s — a shared handle plus a stable
/// 64-bit identity — so submitting the same model matrix many times costs an
/// `Arc` bump per job and lets the farm route to (and serve from) workers
/// whose stations already hold the operand's DBT transformation resident.
/// A plain [`DenseMatrix`] still converts implicitly (it gets a
/// content-hashed key); callers serving one named operand repeatedly should
/// build an [`OperandRef::named`] once and clone it per job.
#[derive(Debug, Clone)]
pub enum Job {
    /// Dense `C = A·B + E` on the hexagonal array.
    DenseMm {
        /// Left operand (`n × p`).
        a: OperandRef,
        /// Right operand (`p × m`).
        b: OperandRef,
        /// Optional additive term (`n × m`).
        e: Option<DenseMatrix<f64>>,
    },
    /// Dense `y = A·x + b` on the linear array.
    DenseMv {
        /// The matrix (`n × m`).
        a: OperandRef,
        /// The vector (`m`).
        x: Vec<f64>,
        /// Optional additive vector (`n`).
        b: Option<Vec<f64>>,
        /// Which of the paper's two schedules to use.
        schedule: MvSchedule,
    },
    /// Block-sparse `y = A·x + b`: all-zero `w × w` blocks of `A` are
    /// skipped, shortening the run.
    BlockSparseMv {
        /// The matrix (`n × m`), with block sparsity.
        a: OperandRef,
        /// The vector (`m`).
        x: Vec<f64>,
        /// Optional additive vector (`n`).
        b: Option<Vec<f64>>,
    },
    /// Blocked triangular solve; the off-diagonal strip products run on the
    /// linear array, the diagonal substitutions on the host.
    TriangularSolve {
        /// The triangular matrix (`n × n`).
        a: DenseMatrix<f64>,
        /// Right-hand side (`n`).
        c: Vec<f64>,
        /// `true` for lower-triangular forward substitution, `false` for
        /// upper-triangular backward substitution.
        lower: bool,
    },
    /// Block Gauss–Seidel sweeps on `A·x = b` until the residual drops below
    /// `tol` (or the sweep budget runs out, which fails the job).
    GaussSeidel {
        /// The system matrix (`n × n`).
        a: DenseMatrix<f64>,
        /// Right-hand side (`n`).
        b: Vec<f64>,
        /// Residual tolerance (infinity norm).
        tol: f64,
        /// Maximum number of sweeps.
        max_sweeps: usize,
    },
}

impl Job {
    /// Convenience constructor for a plain dense product `C = A·B`.
    pub fn dense_mm(a: impl Into<OperandRef>, b: impl Into<OperandRef>) -> Self {
        Job::DenseMm {
            a: a.into(),
            b: b.into(),
            e: None,
        }
    }

    /// Convenience constructor for a plain dense `y = A·x` with the simple
    /// schedule.
    pub fn dense_mv(a: impl Into<OperandRef>, x: Vec<f64>) -> Self {
        Job::DenseMv {
            a: a.into(),
            x,
            b: None,
            schedule: MvSchedule::Simple,
        }
    }

    /// Convenience constructor for a block-sparse `y = A·x`.
    pub fn block_sparse_mv(a: impl Into<OperandRef>, x: Vec<f64>) -> Self {
        Job::BlockSparseMv {
            a: a.into(),
            x,
            b: None,
        }
    }

    /// The job's discriminant.
    pub fn kind(&self) -> JobKind {
        match self {
            Job::DenseMm { .. } => JobKind::DenseMm,
            Job::DenseMv { .. } => JobKind::DenseMv,
            Job::BlockSparseMv { .. } => JobKind::BlockSparseMv,
            Job::TriangularSolve { .. } => JobKind::TriangularSolve,
            Job::GaussSeidel { .. } => JobKind::GaussSeidel,
        }
    }

    /// Which array type serves this job.
    pub fn class(&self) -> ArrayClass {
        match self {
            Job::DenseMm { .. } => ArrayClass::Hex,
            _ => ArrayClass::Linear,
        }
    }

    /// The coalescing identity, if this kind supports batching.
    pub(crate) fn coalesce_key(&self) -> Option<CoalesceKey> {
        match self {
            Job::DenseMm { a, b, .. } => Some(CoalesceKey::Mm {
                n: a.rows(),
                p: a.cols(),
                m: b.cols(),
            }),
            Job::DenseMv { a, schedule, .. } => Some(CoalesceKey::Mv {
                n: a.rows(),
                m: a.cols(),
                schedule: *schedule,
            }),
            _ => None,
        }
    }

    /// The cache keys of the job's matrix operands (at most two, fixed-size
    /// so the zero-allocation submit path never touches the heap).  Used by
    /// the queue's cache-aware router.
    pub(crate) fn operand_keys(&self) -> [Option<u64>; 2] {
        match self {
            Job::DenseMm { a, b, .. } => [Some(a.key()), Some(b.key())],
            Job::DenseMv { a, .. } | Job::BlockSparseMv { a, .. } => [Some(a.key()), None],
            _ => [None; 2],
        }
    }

    /// Admission check: verifies every dimension contract the underlying
    /// solver would enforce, **without running anything**, so malformed jobs
    /// are rejected at submission time instead of occupying an array.
    ///
    /// Each arm delegates to the *same* checker the solver itself calls
    /// (`validate_mm_args` / `validate_mv_args` /
    /// `ext::validate_square_system`), so admission and execution are
    /// structurally unable to disagree about what is well-formed.
    ///
    /// # Errors
    ///
    /// The same shape/length errors the direct solver call would return.
    pub fn validate(&self, w: usize) -> Result<(), DbtError> {
        match self {
            Job::DenseMm { a, b, e } => {
                sia_dbt::validate_mm_args(a.matrix(), b.matrix(), e.as_ref(), w).map(|_| ())
            }
            Job::DenseMv { a, x, b, .. } | Job::BlockSparseMv { a, x, b } => {
                sia_dbt::validate_mv_args(a.matrix(), x, b.as_deref(), w).map(|_| ())
            }
            Job::TriangularSolve { a, c, .. } => {
                sia_dbt::ext::validate_square_system(a, c, "c", "triangular solve", w)
            }
            Job::GaussSeidel { a, b, .. } => {
                sia_dbt::ext::validate_square_system(a, b, "b", "gauss-seidel", w)
            }
        }
    }
}

/// A job plus its scheduling attributes.
///
/// Higher `priority` is served first under every policy; `deadline` (relative
/// to submission time) additionally orders jobs under
/// [`crate::Policy::DeadlineAware`] and is *enforced* at dispatch: a job
/// whose deadline has already passed when a worker would start it is shed
/// with [`crate::FarmError::DeadlineExceeded`] instead of run.  `tenant`
/// attributes the job to a client for per-tenant accounting and for the
/// weighted-fair shares of [`crate::Policy::WeightedFair`].
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The work itself.
    pub job: Job,
    /// Priority class; higher values preempt lower ones in the queue (they
    /// never interrupt a running job).
    pub priority: u8,
    /// Optional deadline, relative to the submission instant.
    pub deadline: Option<Duration>,
    /// Tenant the job is accounted to (default 0).  Weights are configured
    /// per farm with [`crate::FarmConfig::tenant_weight`]; unknown tenants
    /// weigh 1.
    pub tenant: u32,
}

impl JobSpec {
    /// Wraps a job with default priority (0), no deadline and tenant 0.
    pub fn new(job: Job) -> Self {
        JobSpec {
            job,
            priority: 0,
            deadline: None,
            tenant: 0,
        }
    }

    /// Sets the priority class.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deadline, relative to the submission instant.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the tenant the job is accounted to.
    #[must_use]
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }
}

impl From<Job> for JobSpec {
    fn from(job: Job) -> Self {
        JobSpec::new(job)
    }
}

/// The computed payload of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// A matrix result (dense matrix–matrix jobs).
    Matrix(DenseMatrix<f64>),
    /// A vector result (all matrix–vector-shaped jobs).
    Vector(Vec<f64>),
}

impl JobOutput {
    /// The matrix payload, if this is a matrix result.
    pub fn as_matrix(&self) -> Option<&DenseMatrix<f64>> {
        match self {
            JobOutput::Matrix(m) => Some(m),
            JobOutput::Vector(_) => None,
        }
    }

    /// The vector payload, if this is a vector result.
    pub fn as_vector(&self) -> Option<&[f64]> {
        match self {
            JobOutput::Matrix(_) => None,
            JobOutput::Vector(v) => Some(v),
        }
    }
}

/// Everything the farm reports back about one served job.
#[derive(Debug, Clone)]
pub struct JobReceipt {
    /// Farm-assigned job id (submission order).
    pub id: u64,
    /// What kind of job this was.
    pub kind: JobKind,
    /// Index of the worker that served it.
    pub worker: usize,
    /// Priority class it was queued with.
    pub priority: u8,
    /// Tenant the job was accounted to.
    pub tenant: u32,
    /// The admission-time cost prediction (the paper's closed forms).
    pub predicted: CostEstimate,
    /// Array steps the job actually consumed.
    pub measured_cycles: usize,
    /// Time spent queued before a worker picked the job up.
    pub queue: Duration,
    /// Time spent being served.  For a coalesced job this is the member's
    /// *attributed* share of the batch span, split by measured cycles, so
    /// per-job service aggregates stay truthful; the whole batch's span is
    /// in [`JobReceipt::batch_service`].
    pub service: Duration,
    /// The full service span of the coalesced batch this job was part of
    /// (`None` for singly-served jobs).
    pub batch_service: Option<Duration>,
    /// Modeled cycles this serve spent **staging** operand bands (DBT
    /// transformations materialized because they were not resident).  Priced
    /// apart from [`JobReceipt::measured_cycles`], which stays pure compute —
    /// so [`JobReceipt::prediction_exact`] keeps holding on cold serves.
    pub staging_cycles: usize,
    /// `true` when every matrix operand of the job was found resident on the
    /// serving station (no band had to be staged).
    pub operand_hit: bool,
    /// The computed result.
    pub output: JobOutput,
}

impl JobReceipt {
    /// Whether the job was served as part of a coalesced same-shape batch
    /// (derived from [`JobReceipt::batch_service`], so the two can never
    /// disagree).
    pub fn coalesced(&self) -> bool {
        self.batch_service.is_some()
    }

    /// End-to-end latency: queueing plus time to completion.  A coalesced
    /// member's receipt is only delivered once its whole batch finishes,
    /// so its latency uses the full batch span ([`JobReceipt::batch_service`]),
    /// not the member's attributed share.
    pub fn latency(&self) -> Duration {
        self.queue + self.batch_service.unwrap_or(self.service)
    }

    /// `true` when the admission-time prediction was declared exact **and**
    /// the measured step count matched it — the paper's central property,
    /// which holds for every dense and block-sparse job.
    pub fn prediction_exact(&self) -> bool {
        self.predicted.exact && self.predicted.cycles == self.measured_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_matrix::gen;

    #[test]
    fn kinds_classes_and_labels_are_consistent() {
        let a = gen::random_dense_f64(4, 4, 1);
        let x = gen::random_vector_f64(4, 2);
        let jobs = [
            Job::dense_mm(a.clone(), a.clone()),
            Job::dense_mv(a.clone(), x.clone()),
            Job::block_sparse_mv(a.clone(), x.clone()),
            Job::TriangularSolve {
                a: gen::lower_triangular_f64(4, 3),
                c: x.clone(),
                lower: true,
            },
            Job::GaussSeidel {
                a: gen::diagonally_dominant_f64(4, 4),
                b: x.clone(),
                tol: 1e-9,
                max_sweeps: 50,
            },
        ];
        for job in &jobs {
            assert!(!job.kind().label().is_empty());
            assert!(job.validate(2).is_ok());
            assert_eq!(job.validate(0).unwrap_err(), DbtError::ZeroArraySize);
            match job.kind() {
                JobKind::DenseMm => assert_eq!(job.class(), ArrayClass::Hex),
                _ => assert_eq!(job.class(), ArrayClass::Linear),
            }
        }
        assert_eq!(ArrayClass::Hex.label(), "hex");
        assert_eq!(ArrayClass::Linear.label(), "linear");
    }

    #[test]
    fn validation_rejects_malformed_jobs_at_admission() {
        let a = gen::random_dense_f64(4, 4, 1);
        let wrong = gen::random_dense_f64(3, 3, 2);
        let x = gen::random_vector_f64(4, 3);
        assert!(matches!(
            Job::dense_mm(a.clone(), wrong.clone()).validate(2),
            Err(DbtError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Job::DenseMm {
                a: a.clone().into(),
                b: a.clone().into(),
                e: Some(wrong.clone())
            }
            .validate(2),
            Err(DbtError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Job::dense_mv(a.clone(), x[..3].to_vec()).validate(2),
            Err(DbtError::VectorLength { what: "x", .. })
        ));
        assert!(matches!(
            Job::block_sparse_mv(a.clone(), x[..2].to_vec()).validate(2),
            Err(DbtError::VectorLength { what: "x", .. })
        ));
        assert!(matches!(
            Job::TriangularSolve {
                a: gen::random_dense_f64(3, 4, 5),
                c: x.clone(),
                lower: true,
            }
            .validate(2),
            Err(DbtError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Job::GaussSeidel {
                a: a.clone(),
                b: x[..2].to_vec(),
                tol: 1e-9,
                max_sweeps: 10,
            }
            .validate(2),
            Err(DbtError::VectorLength { what: "b", .. })
        ));
    }

    #[test]
    fn coalesce_keys_distinguish_shape_and_schedule() {
        let a = gen::random_dense_f64(4, 6, 1);
        let b = gen::random_dense_f64(6, 4, 2);
        let k1 = Job::dense_mm(a.clone(), b.clone()).coalesce_key().unwrap();
        let k2 = Job::dense_mm(a.clone(), b.clone()).coalesce_key().unwrap();
        assert_eq!(k1, k2);
        let x = gen::random_vector_f64(6, 3);
        let simple = Job::dense_mv(a.clone(), x.clone()).coalesce_key().unwrap();
        let overlapped = Job::DenseMv {
            a: a.clone().into(),
            x: x.clone(),
            b: None,
            schedule: MvSchedule::Overlapped,
        }
        .coalesce_key()
        .unwrap();
        assert_ne!(simple, overlapped);
        assert_ne!(k1, simple);
        assert!(Job::block_sparse_mv(a, x).coalesce_key().is_none());
    }

    #[test]
    fn latency_uses_the_batch_span_for_coalesced_members() {
        // A coalesced member's receipt only lands once the whole batch is
        // done: latency is queue + batch span, while `service` carries the
        // member's attributed share.
        let coalesced = JobReceipt {
            id: 1,
            kind: JobKind::DenseMv,
            worker: 0,
            priority: 0,
            tenant: 0,
            predicted: CostEstimate {
                cycles: 10,
                exact: true,
            },
            measured_cycles: 10,
            queue: Duration::from_millis(2),
            service: Duration::from_millis(2),
            batch_service: Some(Duration::from_millis(8)),
            staging_cycles: 0,
            operand_hit: true,
            output: JobOutput::Vector(vec![1.0]),
        };
        assert!(coalesced.coalesced());
        assert_eq!(coalesced.latency(), Duration::from_millis(10));
        let solo = JobReceipt {
            batch_service: None,
            ..coalesced
        };
        assert!(!solo.coalesced());
        assert_eq!(solo.latency(), Duration::from_millis(4));
    }

    #[test]
    fn spec_builder_sets_priority_and_deadline() {
        let a = gen::random_dense_f64(2, 2, 1);
        let spec = JobSpec::new(Job::dense_mv(a, vec![1.0, 2.0]))
            .priority(3)
            .deadline(Duration::from_millis(5))
            .tenant(42);
        assert_eq!(spec.priority, 3);
        assert_eq!(spec.deadline, Some(Duration::from_millis(5)));
        assert_eq!(spec.tenant, 42);
    }
}
