//! Benches for the matrix–vector path (experiments E1–E3): the DBT
//! transformation itself, the simple schedule and the overlapped schedule,
//! swept over array and problem sizes, using the dependency-free harness in
//! `sia_bench::harness`.
//!
//! ```text
//! cargo bench -p sia-bench --bench mv_bench
//! ```

use sia_bench::harness::BenchGroup;
use sia_dbt::{multiply_mv, multiply_mv_resident_on, BandCache, DbtByRows, MvSchedule, OperandRef};
use sia_matrix::gen;
use sia_sim::ArrayStation;

fn bench_transformation() {
    let mut group = BenchGroup::new("dbt_by_rows_transform");
    for (w, n, m) in [
        (4usize, 16usize, 16usize),
        (4, 64, 64),
        (8, 64, 64),
        (8, 256, 256),
    ] {
        let a = gen::random_dense_f64(n, m, 1);
        group.bench(&format!("w{w}_{n}x{m}"), || DbtByRows::new(&a, w).unwrap());
    }
}

/// The main sweeps measure the **steady-state serving path** — the solver
/// on a persistent, warmed [`ArrayStation`], exactly how a `sia-runtime`
/// worker serves every job, over a capacity-0 [`BandCache`] so each solve
/// re-transforms its operand.  The `mv_reuse_vs_fresh` group below
/// isolates what the station reuse buys over a from-scratch call.
fn bench_steady(
    group: &mut BenchGroup,
    name: &str,
    w: usize,
    a: &OperandRef,
    x: &[f64],
    schedule: MvSchedule,
) {
    let mut station = ArrayStation::new(w).unwrap();
    let mut cache = BandCache::new(w, 0);
    let mut solve =
        || multiply_mv_resident_on(&mut station, &mut cache, a, x, None, schedule).unwrap();
    solve(); // warm-up
    group.bench(name, &mut solve);
}

fn bench_mv_simple() {
    let mut group = BenchGroup::new("mv_simple_schedule").sample_size(10);
    for (w, n, m) in [
        (3usize, 6usize, 9usize),
        (4, 16, 16),
        (4, 32, 32),
        (8, 32, 32),
        (8, 128, 128),
    ] {
        let a = OperandRef::named(1, gen::random_dense_f64(n, m, 2));
        let x = gen::random_vector_f64(m, 3);
        let name = format!("w{w}_{n}x{m}");
        bench_steady(&mut group, &name, w, &a, &x, MvSchedule::Simple);
    }
}

fn bench_mv_overlapped() {
    let mut group = BenchGroup::new("mv_overlapped_schedule").sample_size(10);
    for (w, n, m) in [
        (4usize, 16usize, 16usize),
        (4, 32, 32),
        (8, 32, 32),
        (8, 128, 128),
    ] {
        let a = OperandRef::named(1, gen::random_dense_f64(n, m, 4));
        let x = gen::random_vector_f64(m, 5);
        let name = format!("w{w}_{n}x{m}");
        bench_steady(&mut group, &name, w, &a, &x, MvSchedule::Overlapped);
    }
}

/// One shape, fresh-per-call versus warm steady state (see `mm_bench`).
fn bench_reuse_vs_fresh() {
    let mut group = BenchGroup::new("mv_reuse_vs_fresh").sample_size(10);
    let (w, n, m) = (8usize, 128usize, 128usize);
    let a = OperandRef::named(1, gen::random_dense_f64(n, m, 2));
    let x = gen::random_vector_f64(m, 3);
    group.bench("fresh_w8_128x128", || {
        multiply_mv(a.matrix(), &x, None, w, MvSchedule::Simple).unwrap()
    });
    bench_steady(
        &mut group,
        "steady_w8_128x128",
        w,
        &a,
        &x,
        MvSchedule::Simple,
    );
}

fn main() {
    bench_transformation();
    bench_mv_simple();
    bench_mv_overlapped();
    bench_reuse_vs_fresh();
}
