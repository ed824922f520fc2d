//! # sia-bench
//!
//! Experiment harness for the ISCA'86 reproduction: every figure and
//! closed-form result of the paper's evaluation has a function here that
//! runs the simulators, collects the measured numbers and formats them next
//! to the paper's predictions.  The `paper_experiments` binary prints the
//! whole set; the benches in `benches/` time the same code paths with the
//! in-repo [`harness`] (criterion-style output, no external crates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod perf;
pub mod table;

pub use experiments::{
    measure_lane_scaling, measure_observability, measure_residency, measure_throughput,
    run_baseline_comparison, run_feedback_experiment, run_lane_scaling, run_mm_sweep,
    run_mv_overlap_sweep, run_mv_sweep, run_observability, run_residency, run_sparse_experiment,
    run_spiral_topology, run_throughput, ExperimentReport, LaneScalingStats, ObservabilityStats,
    ResidencyStats, ThroughputStats, LANE_WIDTHS,
};
pub use table::Table;
