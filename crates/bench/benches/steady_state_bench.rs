//! Steady-state serving suite: raw engine reuse versus fresh workspaces,
//! and sustained jobs/sec through one warm [`ArrayStation`] — the worker
//! hot path of the serving runtime after the zero-allocation rework.
//!
//! ```text
//! cargo bench -p sia-bench --bench steady_state_bench
//! ```

use sia_bench::harness::BenchGroup;
use sia_dbt::{
    multiply_mm_resident_on, multiply_mv_resident_on, BandCache, MvSchedule, OperandRef,
};
use sia_matrix::{gen, BandMatrix, DenseMatrix};
use sia_sim::{
    ArrayStation, HexArray, HexJob, HexScratch, LinearArray, LinearScratch, MvStream, YInjection,
};
use std::time::Instant;

/// Raw hexagonal engine: fresh workspace per run versus one warm scratch.
fn bench_hex_engine() {
    let mut group = BenchGroup::new("hex_engine").sample_size(10);
    let (w, n) = (4usize, 64usize);
    let full = gen::random_dense_f64(n, n, 7);
    let da = DenseMatrix::from_fn(n, n, |i, j| {
        if j >= i && j < i + w {
            full.at(i, j)
        } else {
            0.0
        }
    });
    let db = DenseMatrix::from_fn(n, n, |i, j| {
        if i >= j && i < j + w {
            full.at(i, j)
        } else {
            0.0
        }
    });
    let job = HexJob::product(
        BandMatrix::try_from_dense(&da, 0, w - 1).unwrap(),
        BandMatrix::try_from_dense(&db, w - 1, 0).unwrap(),
    );
    let hex = HexArray::new(w).unwrap();
    group.bench("fresh_run_w4_band64", || hex.run(&job).unwrap());
    let mut scratch = HexScratch::new();
    let jobs = std::slice::from_ref(&job);
    hex.run_lanes_with(jobs, &mut scratch).unwrap(); // warm-up
    group.bench("reused_scratch_w4_band64", || {
        hex.run_lanes_with(jobs, &mut scratch).unwrap()
    });
}

/// Raw linear engine: fresh workspace per run versus one warm scratch.
fn bench_linear_engine() {
    let mut group = BenchGroup::new("linear_engine").sample_size(10);
    let (w, rows) = (8usize, 256usize);
    let cols = rows + w - 1;
    let full = gen::random_dense_f64(rows, cols, 8);
    let dense = DenseMatrix::from_fn(rows, cols, |i, j| {
        if j >= i && j < i + w {
            full.at(i, j)
        } else {
            0.0
        }
    });
    let streams = vec![MvStream {
        band: BandMatrix::try_from_dense(&dense, 0, w - 1).unwrap().into(),
        x: gen::random_vector_f64(cols, 9),
        y_injections: vec![YInjection::Value(0.0); rows],
    }];
    let linear = LinearArray::new(w).unwrap();
    group.bench("fresh_run_w8_band256", || linear.run(&streams).unwrap());
    let mut scratch = LinearScratch::new();
    let jobs = std::slice::from_ref(&streams);
    linear.run_lanes_with(jobs, &mut scratch).unwrap(); // warm-up
    group.bench("reused_scratch_w8_band256", || {
        linear.run_lanes_with(jobs, &mut scratch).unwrap()
    });
}

/// Sustained same-shape jobs/sec through one warm station, the way a
/// `sia-runtime` worker serves a queue of coalesced jobs, over a
/// capacity-0 band cache (every job re-transforms its operands).
fn bench_station_throughput() {
    let w = 4usize;
    let a = OperandRef::named(1, gen::random_dense_f64(16, 16, 21));
    let b = OperandRef::named(2, gen::random_dense_f64(16, 16, 22));
    let x = gen::random_vector_f64(16, 23);
    let mut station = ArrayStation::new(w).unwrap();
    let mut cache = BandCache::new(w, 0);
    let mut serve = |mm: bool| {
        if mm {
            let outcome = multiply_mm_resident_on(&mut station, &mut cache, &a, &b, None);
            std::hint::black_box(outcome.unwrap());
        } else {
            let schedule = MvSchedule::Simple;
            let outcome = multiply_mv_resident_on(&mut station, &mut cache, &a, &x, None, schedule);
            std::hint::black_box(outcome.unwrap());
        }
    };
    serve(true);
    serve(false);
    for (label, jobs) in [
        ("station_mm_16x16x16", 200usize),
        ("station_mv_16x16", 2000),
    ] {
        let start = Instant::now();
        for _ in 0..jobs {
            serve(label == "station_mm_16x16x16");
        }
        let elapsed = start.elapsed();
        println!(
            "steady_state_throughput/{label:<24} {jobs} jobs in {:.3} ms  ({:.0} jobs/s)",
            elapsed.as_secs_f64() * 1e3,
            jobs as f64 / elapsed.as_secs_f64()
        );
    }
}

fn main() {
    bench_hex_engine();
    bench_linear_engine();
    bench_station_throughput();
}
