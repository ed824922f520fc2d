//! `perfbench`: the repository's benchmark of the `sia-runtime` array farm.
//!
//! ```text
//! perfbench --workload <sparse-churn|backlog>
//!           [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting the
//! median set-up CPU time), runs one untraced timed window, checks every
//! receipt against the oracle, and prints the end-to-end metrics, timed
//! over the part of the window the host stole the least CPU time from.  With
//! `--trace 1` it runs an untraced and a traced half-window on one farm,
//! replays sampled jobs directly on an `ArrayStation`, writes the spans as
//! Chrome trace-event JSON under `perfbench/out/`, and prints the
//! per-layer metrics.  The last line of standard output is always one
//! JSON result object; the line before it stamps the run's provenance.
//! See `perfbench/README.md`.

mod bench;
mod drive;
mod host;
mod layers;
mod oracle;
mod report;
mod stats;
mod trace;
mod workload;

use report::Metrics;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

#[global_allocator]
static ALLOCATOR: sia_alloc::CountingAllocator = sia_alloc::CountingAllocator;

/// The seed and window length used when `--seed` or `--seconds` is
/// omitted (the window length `BENCHMARK.json` runs).
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 30;
/// Set-ups per end-to-end run: at least `SETUPS_MIN`, then more while
/// their total wall time stays under `SETUP_BUDGET`.  `setup_s` is the
/// median of their CPU times ([`host::process_cpu_time`]).
const SETUPS_MIN: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <1-600>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The end-to-end run: median set-up, one untraced window.
fn end_to_end(args: &Args) -> (u64, u64, Metrics, Vec<(&'static str, u64)>) {
    // The window's sample buffers are resident before the first farm
    // exists, so the process's peak holds them exactly once and
    // `peak_rss_mib` can leave them out.
    let logs = bench::window_logs(args.workload);
    let logs_kib = logs.iter().map(drive::Log::buffer_bytes).sum::<u64>() / 1024;
    let mut checked = drive::Log::default();
    let mut setups: Vec<f64> = Vec::new();
    let mut setups_wall = Duration::ZERO;
    let mut bench = None;
    while setups.len() < SETUPS_MIN || setups_wall < SETUP_BUDGET {
        // The previous farm shuts down outside the timed set-up.
        drop(bench.take());
        let cpu = host::process_cpu_time();
        let start = Instant::now();
        bench = Some(bench::setup(args.workload, args.seed, &mut checked));
        let wall = start.elapsed();
        setups_wall += wall;
        let used = host::process_cpu_time()
            .zip(cpu)
            .map(|(after, before)| after - before);
        setups.push(used.unwrap_or(wall).as_secs_f64());
        // Only the counts of checked set-up jobs are kept.
        checked.samples.clear();
    }
    let bench = bench.expect("at least one set-up");
    let window = bench::window(
        &bench,
        bench::WINDOW_STREAM,
        Duration::from_secs(args.seconds),
        logs,
        None,
    );
    drop(bench);
    let log = &window.log;
    let attempted = checked.attempted + log.attempted;
    let failed = checked.failed + log.failed;
    let timing = bench::timing(&window);
    let mut m = Metrics::default();
    m.put("setup_s", stats::median_f64(&setups), "s");
    m.put("jobs_per_s", timing.jobs_per_s, "1/s");
    m.put("latency_p50_us", timing.p50_us, "us");
    m.put("latency_p99_us", timing.p99_us, "us");
    m.put("ns_per_pe_cycle", timing.ns_per_pe_cycle, "ns");
    m.put(
        "success_fraction",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.put(
        "peak_rss_mib",
        window.peak_rss_kib.saturating_sub(logs_kib) as f64 / 1024.0,
        "MiB",
    );
    let window_ticks = match (window.host.first(), window.host.last()) {
        (Some(first), Some(last)) => last.ticks.since(first.ticks),
        _ => host::Ticks::default(),
    };
    let mut samples = timing.samples;
    samples.extend([
        ("setups", setups.len() as u64),
        ("window_ticks", window_ticks.total),
        ("window_stolen_ticks", window_ticks.stolen),
    ]);
    (attempted, failed, m, samples)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (attempted, failed, metrics, samples) = if args.trace {
        layers::traced(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args)
    };
    println!(
        "{}",
        report::stamp_line(
            args.workload.name(),
            args.seed,
            args.trace,
            args.seconds,
            &samples
        )
    );
    println!("{}", report::result_line(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {failed} of {attempted} jobs failed the oracle");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse(&[
            "--workload",
            "backlog",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::Backlog);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let d = parse(&["--workload", "sparse-churn"]).expect("defaults");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "x"]).is_err());
        assert!(parse(&["--workload", "sparse-churn", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "sparse-churn", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }
}
