//! Prints every experiment of the reproduction that produces a table
//! (E1–E14), each with its "agreement with the paper" verdict.
//!
//! ```text
//! cargo run -p sia-bench --release --bin paper_experiments
//! ```
//!
//! With `--json [DIR]` the binary instead benchmarks the mm/mv sweeps
//! (steady state, on warm stations) and the array farm, writing
//! `BENCH_mm.json` / `BENCH_mv.json` (shape, measured and predicted
//! cycles, wall-time, allocations per solve, throughput) and
//! `BENCH_throughput.json` (the E10 farm serving records — jobs/sec cold
//! and steady, allocations per job, latency percentiles per scheduling
//! policy — plus the E11 weighted-fair tenancy records: per-tenant served
//! shares and shed/cancel counts under FIFO vs WFQ, plus the E12
//! lane-scaling records: steady jobs/sec and speedup per lane width on the
//! coalesced same-shape burst, plus the E13 observability-overhead pair:
//! steady jobs/sec and trace/latency counters with instrumentation on vs
//! off, plus the E14 residency arms: steady jobs/sec, hit ratio, staging
//! cycles and allocations per job with the band cache warm, cold and
//! disabled) into `DIR` (default: the current directory), so the perf
//! trajectory can be tracked across PRs:
//!
//! ```text
//! cargo run -p sia-bench --release --bin paper_experiments -- --json
//! ```

use sia_alloc::CountingAllocator;
use sia_bench::{experiments, perf};
use std::path::Path;
use std::process::ExitCode;

/// Counting allocator so `--json` can report allocations-per-job for the
/// serving runtime (and per-solve for the sweeps); outside this binary the
/// counter simply stays at zero.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--json") => {
            let dir = args.get(1).map(String::as_str).unwrap_or(".");
            run_json(Path::new(dir))
        }
        Some(other) => {
            eprintln!("unknown argument `{other}`; usage: paper_experiments [--json [DIR]]");
            ExitCode::FAILURE
        }
        None => run_tables(),
    }
}

/// Benchmarks the solver sweeps plus the array farm and writes the JSON
/// perf records.
fn run_json(dir: &Path) -> ExitCode {
    let mut outputs = vec![
        ("BENCH_mm.json", perf::to_json(&perf::mm_perf_records())),
        ("BENCH_mv.json", perf::to_json(&perf::mv_perf_records())),
    ];
    let throughput = perf::throughput_records();
    let fairness = perf::fairness_records();
    let lanes = perf::lane_scaling_records();
    let observability = perf::observability_records();
    let residency = perf::residency_records();
    outputs.push((
        "BENCH_throughput.json",
        perf::bench_throughput_json(&throughput, &fairness, &lanes, &observability, &residency),
    ));
    for (file, json) in outputs {
        let path = dir.join(file);
        if let Err(err) = std::fs::write(&path, &json) {
            eprintln!("failed to write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// Prints the experiment tables (the default mode).
fn run_tables() -> ExitCode {
    let reports = [
        experiments::run_mv_sweep(),
        experiments::run_mv_overlap_sweep(),
        experiments::run_mm_sweep(),
        experiments::run_feedback_experiment(),
        experiments::run_spiral_topology(),
        experiments::run_baseline_comparison(),
        experiments::run_sparse_experiment(),
        experiments::run_throughput(),
        experiments::run_fairness(),
        experiments::run_lane_scaling(),
        experiments::run_observability(),
        experiments::run_residency(),
    ];
    let mut all_ok = true;
    for report in &reports {
        println!("== {} — {}", report.id, report.title);
        println!("{}", report.table);
        println!(
            "   agreement with the paper: {}\n",
            if report.agrees_with_paper {
                "yes"
            } else {
                "NO"
            }
        );
        all_ok &= report.agrees_with_paper;
    }
    println!(
        "overall: {}",
        if all_ok {
            "every measured quantity matches the paper's closed forms / qualitative claims"
        } else {
            "at least one experiment disagrees with the paper — see above"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
