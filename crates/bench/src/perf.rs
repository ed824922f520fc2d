//! Machine-readable performance records for the perf trajectory.
//!
//! `paper_experiments --json` emits `BENCH_mm.json` / `BENCH_mv.json`, one
//! record per swept shape (the shape itself, measured and predicted cycle
//! counts, **steady-state** wall-time on a warm station, per-solve
//! allocations, and throughput), plus `BENCH_throughput.json` with the
//! array farm's serving metrics per policy — including steady-state
//! jobs/sec and allocations per job measured under the counting allocator
//! the `paper_experiments` binary installs.  Future PRs diff these files
//! to track the engine's speed over time.  The JSON is written by hand —
//! the build environment has no crates.io access, and the schema is flat
//! enough that serde would be overkill anyway.

use crate::experiments::{
    measure_fairness, measure_lane_scaling, measure_observability, measure_residency,
    measure_throughput, FairnessStats, LaneScalingStats, ObservabilityStats, ResidencyStats,
    ThroughputStats, LANE_WIDTHS,
};
use crate::harness::BenchGroup;
use sia_dbt::{
    multiply_mm_resident_on, multiply_mv_resident_on, BandCache, MmShape, MvSchedule, MvShape,
    OperandRef,
};
use sia_matrix::gen;
use sia_runtime::Policy;
use sia_sim::ArrayStation;

/// One benchmarked shape: cycle counts plus wall-clock cost.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Which solver the record belongs to (`"mm"` or `"mv"`).
    pub kind: &'static str,
    /// Array size `w`.
    pub w: usize,
    /// Problem dimensions: `n × p × m` for mm, `n × m` (p = 0) for mv.
    pub n: usize,
    /// Inner dimension (0 for mv).
    pub p: usize,
    /// Output dimension.
    pub m: usize,
    /// Array steps measured by the cycle-level engine.
    pub cycles_measured: usize,
    /// The paper's closed-form step count.
    pub cycles_predicted: usize,
    /// Median wall-time of one full solve (transform + simulate + extract)
    /// in the steady state: the solver runs on a persistent warm
    /// [`ArrayStation`], the way the serving runtime executes it, over a
    /// capacity-0 [`BandCache`] so every solve re-transforms its operands.
    pub wall_ns: f64,
    /// Simulated array steps per second of wall time.
    pub steps_per_second: f64,
    /// Mean heap allocations per solve during the timed samples
    /// (transform + extraction payloads; the engine itself allocates
    /// nothing once warm).  Zero when the counting allocator is not
    /// installed.
    pub allocs_per_solve: f64,
}

impl PerfRecord {
    /// Measured-versus-predicted cycle ratio (1.0 when the engine matches
    /// the paper's closed form exactly).
    pub fn cycle_ratio(&self) -> f64 {
        if self.cycles_predicted == 0 {
            return 0.0;
        }
        self.cycles_measured as f64 / self.cycles_predicted as f64
    }
}

/// Benchmarks the matrix–matrix sweep (steady state: one warm station per
/// shape) and returns one record per shape.
pub fn mm_perf_records() -> Vec<PerfRecord> {
    let mut group = BenchGroup::new("json_mm").sample_size(5);
    let mut records = Vec::new();
    for (w, n, p, m) in [
        (2usize, 4usize, 4usize, 4usize),
        (3, 6, 6, 9),
        (4, 8, 8, 8),
        (4, 16, 16, 16),
        (8, 32, 32, 32),
    ] {
        let a = OperandRef::named(1, gen::random_dense_f64(n, p, 11));
        let b = OperandRef::named(2, gen::random_dense_f64(p, m, 12));
        let mut station = ArrayStation::new(w).expect("station");
        let mut cache = BandCache::new(w, 0);
        let mut solve = || multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None);
        let outcome = solve().expect("mm run").0;
        let mut solves = 0u64;
        let allocs_before = sia_alloc::allocation_count();
        let stats = group.bench(&format!("w{w}_{n}x{p}x{m}"), || {
            solves += 1;
            solve().unwrap()
        });
        let allocs = sia_alloc::allocation_count() - allocs_before;
        records.push(PerfRecord {
            kind: "mm",
            w,
            n,
            p,
            m,
            cycles_measured: outcome.cycles,
            cycles_predicted: MmShape { w, n, p, m }.cycles(),
            wall_ns: stats.median_ns,
            steps_per_second: outcome.cycles as f64 / (stats.median_ns / 1e9),
            allocs_per_solve: allocs as f64 / solves.max(1) as f64,
        });
    }
    records
}

/// Benchmarks the matrix–vector sweep (steady state: one warm station per
/// shape) and returns one record per shape.
pub fn mv_perf_records() -> Vec<PerfRecord> {
    let mut group = BenchGroup::new("json_mv").sample_size(5);
    let mut records = Vec::new();
    for (w, n, m) in [
        (3usize, 6usize, 9usize),
        (4, 16, 16),
        (4, 64, 64),
        (8, 64, 64),
        (8, 128, 128),
    ] {
        let a = OperandRef::named(1, gen::random_dense_f64(n, m, 2));
        let x = gen::random_vector_f64(m, 3);
        let mut station = ArrayStation::new(w).expect("station");
        let mut cache = BandCache::new(w, 0);
        let mut solve =
            || multiply_mv_resident_on(&mut station, &mut cache, &a, &x, None, MvSchedule::Simple);
        let outcome = solve().expect("mv run").0;
        let mut solves = 0u64;
        let allocs_before = sia_alloc::allocation_count();
        let stats = group.bench(&format!("w{w}_{n}x{m}"), || {
            solves += 1;
            solve().unwrap()
        });
        let allocs = sia_alloc::allocation_count() - allocs_before;
        records.push(PerfRecord {
            kind: "mv",
            w,
            n,
            p: 0,
            m,
            cycles_measured: outcome.cycles,
            cycles_predicted: MvShape { w, n, m }.cycles(),
            wall_ns: stats.median_ns,
            steps_per_second: outcome.cycles as f64 / (stats.median_ns / 1e9),
            allocs_per_solve: allocs as f64 / solves.max(1) as f64,
        });
    }
    records
}

/// Renders records as a JSON array (pretty-printed, stable key order).
pub fn to_json(records: &[PerfRecord]) -> String {
    let mut out = String::from("[\n");
    for (idx, r) in records.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"kind\": \"{}\", \"w\": {}, \"n\": {}, \"p\": {}, \"m\": {}, ",
                "\"cycles_measured\": {}, \"cycles_predicted\": {}, ",
                "\"cycle_ratio\": {:.6}, \"wall_ns\": {:.1}, ",
                "\"steps_per_second\": {:.1}, \"allocs_per_solve\": {:.1}}}"
            ),
            r.kind,
            r.w,
            r.n,
            r.p,
            r.m,
            r.cycles_measured,
            r.cycles_predicted,
            r.cycle_ratio(),
            r.wall_ns,
            r.steps_per_second,
            r.allocs_per_solve,
        ));
        out.push_str(if idx + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Measures the array farm's serving behaviour under every policy (one
/// record per policy; same burst, same arrival order).
pub fn throughput_records() -> Vec<ThroughputStats> {
    Policy::ALL.into_iter().map(measure_throughput).collect()
}

/// Measures the E11 two-tenant 10:1 fairness mix under FIFO and WFQ.
pub fn fairness_records() -> Vec<FairnessStats> {
    [Policy::Fifo, Policy::WeightedFair]
        .into_iter()
        .map(measure_fairness)
        .collect()
}

/// Measures the E12 lane-scaling sweep (one record per lane width in
/// [`LANE_WIDTHS`]; same coalesced same-shape burst at every width).
pub fn lane_scaling_records() -> Vec<LaneScalingStats> {
    LANE_WIDTHS.into_iter().map(measure_lane_scaling).collect()
}

/// Measures the E13 observability-overhead pair: the fully-instrumented
/// farm first, then the same farm served dark.
pub fn observability_records() -> Vec<ObservabilityStats> {
    [true, false]
        .into_iter()
        .map(measure_observability)
        .collect()
}

/// Measures the E14 operand-residency arms: cold and warm rows from the
/// cache-aware farm, then the steady row from the cache-disabled farm.
pub fn residency_records() -> Vec<ResidencyStats> {
    let mut records = measure_residency(true);
    records.extend(measure_residency(false));
    records
}

/// Renders residency records as a JSON array (stable key order).  Each
/// record is one line, so `ci.sh` can gate the warm arm's
/// `allocs_per_job` with a line-oriented grep.
pub fn residency_to_json(records: &[ResidencyStats]) -> String {
    let mut out = String::from("[\n");
    for (idx, r) in records.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"arm\": \"{}\", \"jobs\": {}, ",
                "\"steady_jobs_per_sec\": {:.1}, \"allocs_per_job\": {:.1}, ",
                "\"hit_ratio\": {:.6}, \"staging_cycles_per_job\": {:.1}, ",
                "\"evictions\": {}, \"exact_prediction_fraction\": {:.6}}}"
            ),
            r.arm,
            r.jobs,
            r.steady_jobs_per_sec,
            r.allocs_per_job,
            r.hit_ratio,
            r.staging_cycles_per_job,
            r.evictions,
            r.exact_fraction,
        ));
        out.push_str(if idx + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Renders observability records as a JSON array (stable key order).
pub fn observability_to_json(records: &[ObservabilityStats]) -> String {
    let mut out = String::from("[\n");
    for (idx, r) in records.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"observability\": \"{}\", \"jobs\": {}, ",
                "\"steady_jobs_per_sec\": {:.1}, \"allocs_per_job\": {:.1}, ",
                "\"trace_recorded\": {}, \"trace_dropped\": {}, ",
                "\"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, ",
                "\"exact_prediction_fraction\": {:.6}}}"
            ),
            if r.enabled { "enabled" } else { "disabled" },
            r.jobs,
            r.steady_jobs_per_sec,
            r.allocs_per_job,
            r.trace_recorded,
            r.trace_dropped,
            r.p50.as_secs_f64() * 1e3,
            r.p95.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            r.exact_fraction,
        ));
        out.push_str(if idx + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Renders lane-scaling records as a JSON array (stable key order).  The
/// sequential row (`lanes == 1`) is every other row's speedup baseline.
pub fn lane_scaling_to_json(records: &[LaneScalingStats]) -> String {
    let baseline = records
        .iter()
        .find(|r| r.lanes == 1)
        .map(|r| r.steady_jobs_per_sec);
    let mut out = String::from("[\n");
    for (idx, r) in records.iter().enumerate() {
        let speedup = match baseline {
            Some(base) if base > 0.0 => r.steady_jobs_per_sec / base,
            _ => 0.0,
        };
        out.push_str(&format!(
            concat!(
                "  {{\"lanes\": {}, \"jobs\": {}, \"jobs_per_sec\": {:.1}, ",
                "\"steady_jobs_per_sec\": {:.1}, \"steady_speedup\": {:.3}, ",
                "\"allocs_per_job\": {:.1}, ",
                "\"p50_ms\": {:.3}, \"p95_ms\": {:.3}, ",
                "\"exact_prediction_fraction\": {:.6}}}"
            ),
            r.lanes,
            r.jobs,
            r.jobs_per_sec,
            r.steady_jobs_per_sec,
            speedup,
            r.allocs_per_job,
            r.p50.as_secs_f64() * 1e3,
            r.p95.as_secs_f64() * 1e3,
            r.exact_fraction,
        ));
        out.push_str(if idx + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Renders fairness records as a JSON array (stable key order).
pub fn fairness_to_json(records: &[FairnessStats]) -> String {
    let mut out = String::from("[\n");
    for (idx, r) in records.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"policy\": \"{}\", \"wall_ms\": {:.3}, ",
                "\"heavy_served\": {}, \"heavy_cycles\": {}, ",
                "\"light_served\": {}, \"light_cycles\": {}, ",
                "\"heavy_share\": {:.6}, \"cancelled\": {}, \"shed\": {}}}"
            ),
            r.policy.label(),
            r.wall.as_secs_f64() * 1e3,
            r.heavy_served,
            r.heavy_cycles,
            r.light_served,
            r.light_cycles,
            r.heavy_share,
            r.cancelled,
            r.shed,
        ));
        out.push_str(if idx + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Composes the full `BENCH_throughput.json` payload: the E10 per-policy
/// serving records, the E11 fairness records, the E12 lane-scaling
/// records, the E13 observability-overhead pair and the E14 residency
/// arms, as one object.
pub fn bench_throughput_json(
    e10: &[ThroughputStats],
    e11: &[FairnessStats],
    e12: &[LaneScalingStats],
    e13: &[ObservabilityStats],
    e14: &[ResidencyStats],
) -> String {
    let policies = throughput_to_json(e10);
    let fairness = fairness_to_json(e11);
    let lanes = lane_scaling_to_json(e12);
    let observability = observability_to_json(e13);
    let residency = residency_to_json(e14);
    format!(
        concat!(
            "{{\n\"e10_policies\": {},\n\"e11_fairness\": {},\n",
            "\"e12_lanes\": {},\n\"e13_observability\": {},\n",
            "\"e14_residency\": {}}}\n"
        ),
        policies.trim_end(),
        fairness.trim_end(),
        lanes.trim_end(),
        observability.trim_end(),
        residency.trim_end()
    )
}

/// Renders throughput records as a JSON array (stable key order).
pub fn throughput_to_json(records: &[ThroughputStats]) -> String {
    let mut out = String::from("[\n");
    for (idx, r) in records.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "  {{\"policy\": \"{}\", \"jobs\": {}, \"wall_ms\": {:.3}, ",
                "\"jobs_per_sec\": {:.1}, \"steady_jobs_per_sec\": {:.1}, ",
                "\"allocs_per_job\": {:.1}, ",
                "\"p50_ms\": {:.3}, \"p95_ms\": {:.3}, ",
                "\"p99_ms\": {:.3}, \"exact_prediction_fraction\": {:.6}, ",
                "\"max_queue_depth\": {}, \"steals\": {}}}"
            ),
            r.policy.label(),
            r.jobs,
            r.wall.as_secs_f64() * 1e3,
            r.jobs_per_sec,
            r.steady_jobs_per_sec,
            r.allocs_per_job,
            r.p50.as_secs_f64() * 1e3,
            r.p95.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            r.exact_fraction,
            r.max_queue_depth,
            r.steals,
        ));
        out.push_str(if idx + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn json_rendering_is_well_formed() {
        let records = vec![PerfRecord {
            kind: "mm",
            w: 2,
            n: 4,
            p: 4,
            m: 4,
            cycles_measured: 51,
            cycles_predicted: 51,
            wall_ns: 1234.5,
            steps_per_second: 4.1e7,
            allocs_per_solve: 12.5,
        }];
        let json = to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"cycles_measured\": 51"));
        assert!(json.contains("\"cycle_ratio\": 1.000000"));
        assert!(json.contains("\"allocs_per_solve\": 12.5"));
        // Exactly one record: no trailing comma.
        assert!(!json.contains("},\n]"));
    }

    #[test]
    fn fairness_json_rendering_is_well_formed() {
        let records = vec![FairnessStats {
            policy: Policy::WeightedFair,
            wall: Duration::from_millis(9),
            heavy_served: 120,
            heavy_cycles: 246_360,
            light_served: 13,
            light_cycles: 26_689,
            heavy_share: 0.9022,
            cancelled: 107,
            shed: 10,
        }];
        let json = fairness_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"policy\": \"wfq\""));
        assert!(json.contains("\"heavy_share\": 0.902200"));
        assert!(json.contains("\"cancelled\": 107"));
        assert!(json.contains("\"shed\": 10"));
        assert!(!json.contains("},\n]"));
    }

    #[test]
    fn combined_throughput_payload_nests_all_five_experiments() {
        let json = bench_throughput_json(&[], &[], &[], &[], &[]);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"e10_policies\": ["));
        assert!(json.contains("\"e11_fairness\": ["));
        assert!(json.contains("\"e12_lanes\": ["));
        assert!(json.contains("\"e13_observability\": ["));
        assert!(json.contains("\"e14_residency\": ["));
    }

    #[test]
    fn residency_json_rendering_is_well_formed() {
        let row = |arm: &'static str, hits: f64, allocs: f64| ResidencyStats {
            arm,
            jobs: 64,
            steady_jobs_per_sec: 4211.0,
            hit_ratio: hits,
            staging_cycles_per_job: if hits > 0.9 { 12.0 } else { 981.0 },
            evictions: 31,
            allocs_per_job: allocs,
            exact_fraction: 1.0,
        };
        let json = residency_to_json(&[row("warm", 0.93, 0.0), row("disabled", 0.0, 4.5)]);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"arm\": \"warm\""));
        assert!(json.contains("\"arm\": \"disabled\""));
        assert!(json.contains("\"hit_ratio\": 0.930000"));
        assert!(json.contains("\"evictions\": 31"));
        assert!(json.contains("\"exact_prediction_fraction\": 1.000000"));
        // The warm arm's record keeps its key on one line, so `ci.sh` can
        // regress on `allocs_per_job` with a line-oriented grep.
        let warm_line = json
            .lines()
            .find(|l| l.contains("\"arm\": \"warm\""))
            .expect("warm record");
        assert!(warm_line.contains("\"allocs_per_job\": 0.0"));
        assert!(!json.contains("},\n]"));
    }

    #[test]
    fn observability_json_rendering_is_well_formed() {
        let records = vec![ObservabilityStats {
            enabled: true,
            jobs: 46,
            steady_jobs_per_sec: 8123.0,
            allocs_per_job: 97.5,
            exact_fraction: 1.0,
            trace_recorded: 460,
            trace_dropped: 0,
            p50: Duration::from_micros(500),
            p95: Duration::from_millis(5),
            p99: Duration::from_millis(6),
        }];
        let json = observability_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"observability\": \"enabled\""));
        assert!(json.contains("\"trace_recorded\": 460"));
        assert!(json.contains("\"trace_dropped\": 0"));
        assert!(json.contains("\"exact_prediction_fraction\": 1.000000"));
        assert!(!json.contains("},\n]"));
    }

    #[test]
    fn lane_scaling_json_computes_speedups_against_the_sequential_row() {
        let row = |lanes: usize, steady: f64| LaneScalingStats {
            lanes,
            jobs: 33,
            jobs_per_sec: steady * 0.9,
            steady_jobs_per_sec: steady,
            exact_fraction: 1.0,
            allocs_per_job: 400.0,
            p50: Duration::from_micros(800),
            p95: Duration::from_millis(2),
        };
        let json = lane_scaling_to_json(&[row(1, 100.0), row(16, 700.0)]);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"lanes\": 1"));
        assert!(json.contains("\"steady_speedup\": 1.000"));
        assert!(json.contains("\"steady_speedup\": 7.000"));
        assert!(json.contains("\"exact_prediction_fraction\": 1.000000"));
        assert!(!json.contains("},\n]"));
    }

    #[test]
    fn throughput_json_rendering_is_well_formed() {
        let records = vec![ThroughputStats {
            policy: Policy::Fifo,
            jobs: 46,
            wall: Duration::from_millis(7),
            jobs_per_sec: 6571.4,
            p50: Duration::from_micros(500),
            p95: Duration::from_millis(5),
            p99: Duration::from_millis(6),
            exact_fraction: 1.0,
            max_queue_depth: 46,
            steals: 0,
            steady_jobs_per_sec: 8123.0,
            allocs_per_job: 97.5,
            percentiles_within_bucket: true,
        }];
        let json = throughput_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"policy\": \"fifo\""));
        assert!(json.contains("\"exact_prediction_fraction\": 1.000000"));
        assert!(json.contains("\"steady_jobs_per_sec\": 8123.0"));
        assert!(json.contains("\"allocs_per_job\": 97.5"));
        assert!(!json.contains("},\n]"));
    }

    #[test]
    fn cycle_ratio_handles_degenerate_prediction() {
        let r = PerfRecord {
            kind: "mv",
            w: 1,
            n: 1,
            p: 0,
            m: 1,
            cycles_measured: 1,
            cycles_predicted: 0,
            wall_ns: 1.0,
            steps_per_second: 1.0,
            allocs_per_solve: 0.0,
        };
        assert_eq!(r.cycle_ratio(), 0.0);
    }
}
