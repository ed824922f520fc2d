//! Set-up and the timed window shared by the end-to-end and traced runs.

use crate::drive::{self, Log};
use crate::host::{self, Reading, Ticks};
use crate::stats;
use crate::trace::{Tracer, ROOT};
use crate::workload::{Catalog, Stream, Workload};
use sia_runtime::ArrayFarm;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop jobs run after each distinct entry's first serve, before
/// the first timed job.  Enough that a fresh farm's first jobs (new
/// threads, cold caches), whose cost varies from process to process, are a
/// small share of `setup_s`.
const WARM_JOBS: usize = 256;
/// How often the operator-style poller reads [`ArrayFarm::snapshot`].
pub const SNAPSHOT_EVERY: Duration = Duration::from_millis(50);
/// Samples one window can hold, across its clients.
pub const WINDOW_SAMPLES: usize = 1 << 20;

/// Stream ids, so one-shot operand keys never repeat across phases.
pub const WARM_STREAM: u64 = 100;
pub const WINDOW_STREAM: u64 = 0;
pub const TRACED_STREAM: u64 = 10;
pub const PROBE_STREAM: u64 = 200;
pub const ADMISSION_STREAM: u64 = 300;

/// A farm ready for its timed window.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub catalog: Catalog,
    pub farm: ArrayFarm,
}

/// Builds the farm, generates the operands, computes the oracle, and warms
/// caches and pools.  Every warm-up receipt is checked into `log`.
pub fn setup(workload: Workload, seed: u64, log: &mut Log) -> Bench {
    let catalog = Catalog::build(workload, seed);
    log.attempted += catalog.host_mismatches as u64;
    log.failed += catalog.host_mismatches as u64;
    let farm = ArrayFarm::new(workload.config()).expect("workload farms are valid");
    drive::each_entry_once(&farm, &catalog, log);
    let mut stream = Stream::new(seed, WARM_STREAM);
    if workload == Workload::Backlog {
        // One whole cycle grows the queue and reply pools to full depth.
        drive::backlog_cycle(&farm, &catalog, &mut stream, log, None);
    } else {
        drive::closed_jobs(&farm, &catalog, &mut stream, WARM_JOBS, log);
    }
    Bench {
        workload,
        seed,
        catalog,
        farm,
    }
}

/// What one timed window observed.
pub struct Window {
    pub log: Log,
    pub wall: Duration,
    /// The process's peak resident memory when the clients finished,
    /// before their logs were merged, KiB.
    pub peak_rss_kib: u64,
    /// One tracer per client (thread ids 1..), then the poller's (id 0);
    /// empty when untraced.
    pub tracers: Vec<Tracer>,
    /// The host's tick counters at the window's start, after each snapshot
    /// poll, and at the end (empty where the host does not report them).
    pub host: Vec<Reading>,
}

/// Sample buffers for a window's clients, written up front.
pub fn window_logs(workload: Workload) -> Vec<Log> {
    let clients = workload.clients();
    (0..clients)
        .map(|_| Log::with_capacity(WINDOW_SAMPLES / clients))
        .collect()
}

/// Polls the farm's live snapshot every [`SNAPSHOT_EVERY`] until `stop`,
/// as an operator would, and reads the host's tick counters after each
/// poll.
fn poll(
    farm: &ArrayFarm,
    stop: &AtomicBool,
    origin: Instant,
    mut tracer: Option<Tracer>,
) -> (Option<Tracer>, Vec<Reading>) {
    let mut readings = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(SNAPSHOT_EVERY);
        let snapshot = match tracer.as_mut() {
            Some(t) => t.time("snapshot.call", ROOT, || farm.snapshot()),
            None => farm.snapshot(),
        };
        std::hint::black_box(snapshot);
        readings.extend(reading(origin));
    }
    (tracer, readings)
}

/// The host's tick counters now, timed from `origin`.
fn reading(origin: Instant) -> Option<Reading> {
    Some(Reading {
        ticks: Ticks::now()?,
        at_us: u32::try_from(origin.elapsed().as_micros()).unwrap_or(u32::MAX),
    })
}

/// Runs the workload's clients for `length` against `bench`, with the
/// snapshot poller alongside.  `epoch` turns tracing on.
pub fn window(
    bench: &Bench,
    stream_base: u64,
    length: Duration,
    logs: Vec<Log>,
    epoch: Option<Instant>,
) -> Window {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut host: Vec<Reading> = reading(start).into_iter().collect();
    std::thread::scope(|s| {
        let poller_tracer = epoch.map(|e| Tracer::new(e, 0, 1024));
        let poller = s.spawn(|| poll(&bench.farm, &stop, start, poller_tracer));
        let until = start + length;
        let clients: Vec<_> = logs
            .into_iter()
            .enumerate()
            .map(|(client, mut log)| {
                log.origin = Some(start);
                let mut tracer = epoch.map(|e| Tracer::new(e, client as u32 + 1, 1 << 20));
                s.spawn(move || {
                    let mut stream = Stream::new(bench.seed, stream_base + client as u64);
                    drive::window(
                        bench.workload,
                        &bench.farm,
                        &bench.catalog,
                        &mut stream,
                        until,
                        &mut log,
                        tracer.as_mut(),
                    );
                    (log, tracer, Instant::now())
                })
            })
            .collect();
        let mut logs = Vec::new();
        let mut tracers = Vec::new();
        let mut end = start;
        for client in clients {
            let (log, tracer, done) = client.join().expect("client thread panicked");
            logs.push(log);
            tracers.extend(tracer);
            end = end.max(done);
        }
        stop.store(true, Ordering::Relaxed);
        let (poller_tracer, readings) = poller.join().expect("poller thread panicked");
        tracers.extend(poller_tracer);
        host.extend(readings);
        host.extend(reading(start));
        let peak_rss_kib = peak_rss_kib();
        let mut logs = logs.into_iter();
        let mut merged = logs.next().unwrap_or_default();
        for log in logs {
            merged.merge(log);
        }
        Window {
            log: merged,
            wall: end - start,
            peak_rss_kib,
            tracers,
            host,
        }
    })
}

/// The process's peak resident set (`VmHWM`), KiB; 0 where `/proc` does
/// not report it.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Latency samples a closed loop keeps at least, so its p99 has fifty
/// samples beyond it.
pub const CALM_JOBS: usize = 5000;

/// The end-to-end timings of one window.
pub struct Timing {
    pub jobs_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Wall ns per billed PE-cycle.
    pub ns_per_pe_cycle: f64,
    /// The sample counts behind them, for the stamp.
    pub samples: Vec<(&'static str, u64)>,
}

/// The window's timings: per backlog cycle, or over a closed loop's calm
/// intervals.
pub fn timing(window: &Window) -> Timing {
    if window.log.cycles.is_empty() {
        calm(window)
    } else {
        per_cycle(window)
    }
}

/// One backlog cycle's timings.
struct CycleTiming {
    /// End-to-end latencies, ns, sorted.
    e2e: Vec<u64>,
    jobs_per_s: f64,
    ns_per_pe_cycle: f64,
}

/// Medians over the calm backlog cycles (see [`host::calm_runs`]), each
/// cycle's percentiles over its jobs.
fn per_cycle(window: &Window) -> Timing {
    let log = &window.log;
    let mut rest = &log.samples[..];
    let mut cycles = Vec::new();
    for c in &log.cycles {
        let (this, tail) = rest.split_at((c.served as usize).min(rest.len()));
        rest = tail;
        let mut e2e: Vec<u64> = this.iter().map(|s| s.e2e).collect();
        e2e.sort_unstable();
        let ns = c.wall.as_nanos() as f64;
        let pe_cycles: u64 = this.iter().map(|s| u64::from(s.pe_cycles)).sum();
        let timing = CycleTiming {
            e2e,
            jobs_per_s: this.len() as f64 * 1e9 / ns,
            ns_per_pe_cycle: ns / pe_cycles.max(1) as f64,
        };
        cycles.push((timing, c.ticks));
    }
    let calm = host::calm_runs(&cycles);
    let median = |f: &dyn Fn(&CycleTiming) -> f64| {
        stats::median_f64(&calm.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let quantile_us =
        |c: &CycleTiming, q| stats::quantile_sorted(&c.e2e, q).unwrap_or(0) as f64 / 1e3;
    Timing {
        jobs_per_s: median(&|c| c.jobs_per_s),
        p50_us: median(&|c| quantile_us(c, 0.5)),
        p99_us: median(&|c| quantile_us(c, 0.99)),
        ns_per_pe_cycle: median(&|c| c.ns_per_pe_cycle),
        samples: vec![
            ("latency", log.samples.len() as u64),
            ("cycles", cycles.len() as u64),
            ("cycles_kept", calm.len() as u64),
            (
                "cycle_min_beyond_p99",
                calm.iter()
                    .map(|c| stats::beyond_sorted(&c.e2e, 0.99) as u64)
                    .min()
                    .unwrap_or(0),
            ),
        ],
    }
}

/// A closed loop's timings over the intervals between host readings in
/// which the host stole the fewest ticks: the smallest stolen count `k`
/// such that at least [`CALM_JOBS`] jobs ran wholly inside intervals with
/// at most `k` stolen ticks (`k` is 0 unless the host stole in nearly
/// every interval).  Latencies are those jobs'; `jobs_per_s` and
/// `ns_per_pe_cycle` count the jobs completed in the kept intervals over
/// the kept intervals' wall time.  Without readings the whole window is
/// one interval.
fn calm(window: &Window) -> Timing {
    let log = &window.log;
    let end_us = u32::try_from(window.wall.as_micros()).unwrap_or(u32::MAX);
    // (from µs, to µs, stolen ticks), contiguous and clipped to the window.
    let mut intervals: Vec<(u32, u32, u64)> = window
        .host
        .windows(2)
        .map(|r| {
            let stolen = r[1].ticks.since(r[0].ticks).stolen;
            (r[0].at_us.min(end_us), r[1].at_us.min(end_us), stolen)
        })
        .collect();
    if intervals.is_empty() {
        intervals.push((0, end_us, 0));
    }
    let interval_at = |t: u32| {
        let i = intervals.partition_point(|iv| iv.1 < t);
        (i < intervals.len() && intervals[i].0 <= t).then_some(i)
    };
    // The most ticks stolen in any interval a job ran across.
    let worst: Vec<u64> = log
        .samples
        .iter()
        .map(|s| {
            let began = s
                .done_us
                .saturating_sub(u32::try_from(s.e2e / 1000).unwrap_or(u32::MAX));
            match (interval_at(began), interval_at(s.done_us)) {
                (Some(a), Some(b)) => intervals[a..=b].iter().map(|iv| iv.2).max().unwrap_or(0),
                _ => u64::MAX,
            }
        })
        .collect();
    let mut sorted = worst.clone();
    sorted.sort_unstable();
    let limit = sorted
        .get(CALM_JOBS.min(sorted.len()).saturating_sub(1))
        .copied()
        .unwrap_or(u64::MAX);
    let mut e2e: Vec<u64> = log
        .samples
        .iter()
        .zip(&worst)
        .filter(|&(_, &w)| w <= limit)
        .map(|(s, _)| s.e2e)
        .collect();
    e2e.sort_unstable();
    let (mut jobs, mut pe_cycles) = (0u64, 0u64);
    for s in &log.samples {
        if interval_at(s.done_us).is_some_and(|i| intervals[i].2 <= limit) {
            jobs += 1;
            pe_cycles += u64::from(s.pe_cycles);
        }
    }
    let kept: Vec<&(u32, u32, u64)> = intervals.iter().filter(|iv| iv.2 <= limit).collect();
    let ns = kept.iter().map(|iv| f64::from(iv.1 - iv.0)).sum::<f64>() * 1e3;
    let quantile_us = |q| stats::quantile_sorted(&e2e, q).unwrap_or(0) as f64 / 1e3;
    Timing {
        jobs_per_s: jobs as f64 * 1e9 / ns.max(1.0),
        p50_us: quantile_us(0.5),
        p99_us: quantile_us(0.99),
        ns_per_pe_cycle: ns / pe_cycles.max(1) as f64,
        samples: vec![
            ("latency", e2e.len() as u64),
            (
                "latency_beyond_p99",
                stats::beyond_sorted(&e2e, 0.99) as u64,
            ),
            ("window_jobs", log.samples.len() as u64),
            ("intervals", intervals.len() as u64),
            ("intervals_kept", kept.len() as u64),
            (
                "interval_stolen_ticks_max_kept",
                limit.min(u64::from(u32::MAX)),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Sample;

    /// A closed-loop window of three 50 ms intervals, the middle one with
    /// stolen ticks; `calm_jobs` fast jobs in the outer two and 100 slow
    /// ones in the middle.
    fn window(calm_jobs: u32) -> Window {
        let sample = |done_us, e2e_us: u64| Sample {
            entry: 0,
            e2e: e2e_us * 1000,
            submit: 0,
            queue: 0,
            service: 0,
            done_us,
            pe_cycles: 10,
        };
        let mut log = Log::default();
        for i in 0..calm_jobs {
            let done = 1_000 + i % 48_000 + if i % 2 == 0 { 0 } else { 100_000 };
            log.samples.push(sample(done, 500));
        }
        for i in 0..100 {
            log.samples.push(sample(70_000 + i * 100, 10_000));
        }
        let read = |at_us, stolen| Reading {
            at_us,
            ticks: Ticks {
                stolen,
                total: u64::from(at_us) / 1000,
            },
        };
        Window {
            log,
            wall: Duration::from_millis(150),
            peak_rss_kib: 0,
            tracers: Vec::new(),
            host: vec![
                read(0, 0),
                read(50_000, 0),
                read(100_000, 5),
                read(150_000, 5),
            ],
        }
    }

    #[test]
    fn a_closed_loop_is_timed_over_the_intervals_without_steal() {
        let t = timing(&window(6_000));
        assert_eq!(t.p99_us, 500.0);
        assert_eq!(t.jobs_per_s, 6_000.0 / 0.1);
        assert_eq!(t.ns_per_pe_cycle, 0.1e9 / 60_000.0);
        assert!(t.samples.contains(&("intervals_kept", 2)));
        // Too few calm jobs: the stolen interval is kept too.
        let t = timing(&window(3_000));
        assert_eq!(t.p99_us, 10_000.0);
        assert!(t.samples.contains(&("intervals_kept", 3)));
    }
}
