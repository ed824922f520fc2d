//! The traced run: per-layer metrics.
//!
//! One farm serves an untraced half-window, then a traced half-window whose
//! client and poller calls are wrapped in spans.  The farm's own counters
//! come from snapshot deltas across both halves, heap allocations from a
//! short probe with the poller stopped, the admission calls the farm makes
//! inside `submit` from a probe of their own, and the engine layers from a
//! direct replay of sampled catalog jobs on an `ArrayStation`.

use crate::bench::{self, Bench, Window};
use crate::drive::Log;
use crate::oracle::{Expected, Op};
use crate::report::Metrics;
use crate::stats::{median_f64, quantile, quantile_i64};
use crate::trace::{chrome_json, rollup, NameStats, Tracer, ROOT};
use crate::workload::{Catalog, Stream, Workload, BACKLOG_JOBS};
use sia_dbt::{
    multiply_mm_resident_into, multiply_mv_block_sparse_resident_on, multiply_mv_resident_on,
    validate_mm_args, BandCache, MvSchedule,
};
use sia_matrix::DenseMatrix;
use sia_runtime::{FarmSnapshot, JobSpec, JobTicket};
use sia_sim::ArrayStation;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Closed-loop jobs in the allocation probe.
const PROBE_JOBS: usize = 128;
/// Jobs whose `Job::validate` and cost-model `predict` are timed apart
/// from the windows, so the traced half makes no call the untraced half
/// does not.
const ADMISSION_JOBS: usize = 256;
/// Catalog entries the engine replay samples.
const REPLAY_ENTRIES: usize = 24;
/// Cold serves per replayed entry, each on a fresh band cache.
const COLD_SERVES: usize = 3;
/// Warm serves per replayed entry: at least `WARM_MIN`, then until
/// `WARM_BUDGET` has passed or `WARM_MAX` were taken.
const WARM_MIN: usize = 5;
const WARM_MAX: usize = 200;
const WARM_BUDGET: Duration = Duration::from_millis(20);
/// `validate_mm_args` calls timed per replayed MM entry.
const VALIDATE_CALLS: usize = 100;
/// Spans written per tracer into the Chrome trace file.
const CHROME_SPANS: usize = 20_000;
/// Layers whose self time is reported, per job of the traced half.
const SELF_LAYERS: [&str; 6] = ["bench", "job", "cost", "worker", "queue", "snapshot"];

/// Farm counters summed over workers.
#[derive(Debug, Default, Clone)]
struct Totals {
    jobs: u64,
    coalesced: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    staging: u64,
    cycles: u64,
    skipped: u64,
    steals: u64,
    /// `passes[i]`: array passes that served `i + 1` jobs.
    passes: Vec<u64>,
}

impl Totals {
    fn of(s: &FarmSnapshot) -> Self {
        let mut t = Totals {
            steals: s.steals,
            ..Totals::default()
        };
        for w in &s.workers {
            t.jobs += w.jobs;
            t.coalesced += w.coalesced_jobs;
            t.hits += w.operand_hits;
            t.misses += w.operand_misses;
            t.evictions += w.operand_evictions;
            t.staging += w.staging_cycles;
            t.cycles += w.hex_cycles + w.linear_cycles;
            t.skipped += w.hex_skipped_cycles + w.linear_skipped_cycles;
            if t.passes.len() < w.lane_occupancy.len() {
                t.passes.resize(w.lane_occupancy.len(), 0);
            }
            for (slot, n) in t.passes.iter_mut().zip(&w.lane_occupancy) {
                *slot += n;
            }
        }
        t
    }

    fn minus(&self, before: &Totals) -> Totals {
        Totals {
            jobs: self.jobs - before.jobs,
            coalesced: self.coalesced - before.coalesced,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            staging: self.staging - before.staging,
            cycles: self.cycles - before.cycles,
            skipped: self.skipped - before.skipped,
            steals: self.steals - before.steals,
            passes: self
                .passes
                .iter()
                .enumerate()
                .map(|(i, n)| n - before.passes.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Heap allocations per job over prebuilt jobs, so only the farm's
/// allocations (and the client's checks, which allocate nothing) count:
/// a closed loop elsewhere, one submit-all-then-wait-all batch on the
/// backlog.
fn allocs_per_job(bench: &Bench, log: &mut Log) -> f64 {
    let catalog = &bench.catalog;
    let backlog = bench.workload == Workload::Backlog;
    let mut stream = Stream::new(bench.seed, bench::PROBE_STREAM);
    let count = if backlog { BACKLOG_JOBS } else { PROBE_JOBS };
    let mut jobs: Vec<(usize, JobSpec)> = (0..count)
        .map(|_| {
            let pick = stream.next(catalog);
            let job = JobSpec::new(catalog.entries[pick.entry].job(pick.key));
            // Only the backlog spreads jobs over tenants; a first-seen
            // tenant allocates its rollup once.
            let tenant = if backlog { stream.tenant() } else { 0 };
            (pick.entry, job.tenant(tenant))
        })
        .collect();
    let mut tickets: Vec<(usize, JobTicket)> = Vec::with_capacity(count);
    let farm = &bench.farm;
    let before = sia_alloc::allocation_count();
    for (entry, spec) in jobs.drain(..) {
        log.attempted += 1;
        match farm.submit(spec) {
            Ok(ticket) if backlog => tickets.push((entry, ticket)),
            Ok(ticket) => {
                log.settle(farm, catalog, entry, ticket.wait(), false);
            }
            Err(_) => log.failed += 1,
        }
    }
    for (entry, ticket) in tickets.drain(..) {
        log.settle(farm, catalog, entry, ticket.wait(), false);
    }
    let allocations = sia_alloc::allocation_count() - before;
    allocations as f64 / count as f64
}

/// Times `Job::validate` and the farm cost model's `predict` on
/// [`ADMISSION_JOBS`] jobs of the workload's stream.
fn admission(bench: &Bench, epoch: Instant) -> Tracer {
    let catalog = &bench.catalog;
    let model = bench.farm.cost_model();
    let mut stream = Stream::new(bench.seed, bench::ADMISSION_STREAM);
    let mut tracer = Tracer::new(epoch, 98, 2 * ADMISSION_JOBS);
    for _ in 0..ADMISSION_JOBS {
        let pick = stream.next(catalog);
        let job = catalog.entries[pick.entry].job(pick.key);
        tracer
            .time("job.validate", ROOT, || job.validate(catalog.w))
            .expect("catalog jobs are valid");
        let price = tracer.time("cost.predict", ROOT, || model.predict(&job));
        std::hint::black_box(price.expect("catalog jobs are priced"));
    }
    tracer
}

/// What the direct replay measured.
struct Replay {
    tracer: Tracer,
    /// Per catalog entry: the warm serve's median and the cold serve's
    /// median, ns (`None` for entries not replayed).
    warm: Vec<Option<u64>>,
    cold: Vec<Option<u64>>,
    /// Warm serve time and billed PE-cycles, per array class.
    hex: (u64, u64),
    linear: (u64, u64),
}

/// One direct serve of `op` through the resident entry point the farm's
/// worker uses; returns the measured cycles and the output's bits.
fn serve(
    station: &mut ArrayStation,
    cache: &mut BandCache,
    op: &Op,
    out: &mut DenseMatrix<f64>,
) -> (usize, Vec<u64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match op {
        Op::Mm { a, b } => {
            let (cycles, _) = multiply_mm_resident_into(station, cache, a, b, None, out)
                .expect("catalog jobs are valid");
            (
                cycles,
                (0..out.rows()).flat_map(|i| bits(out.row(i))).collect(),
            )
        }
        Op::Mv { a, x } => {
            let (o, _) = multiply_mv_resident_on(station, cache, a, x, None, MvSchedule::Simple)
                .expect("catalog jobs are valid");
            (o.cycles, bits(&o.y))
        }
        Op::Sparse { a, x } => {
            let (o, _) = multiply_mv_block_sparse_resident_on(station, cache, a, x, None)
                .expect("catalog jobs are valid");
            (o.outcome.cycles, bits(&o.outcome.y))
        }
    }
}

fn serve_span(op: &Op) -> &'static str {
    match op {
        Op::Mm { .. } => "mm.serve",
        Op::Mv { .. } => "mv.serve",
        Op::Sparse { .. } => "sparse.serve",
    }
}

/// Runs `f` in a span named `name` and returns its result and duration.
fn timed<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let result = tracer.time(name, ROOT, f);
    let ns = tracer.spans().last().map_or(0, |s| s.duration());
    (result, ns)
}

/// Replays up to [`REPLAY_ENTRIES`] catalog entries (blockers excluded) on
/// a station of the farm's size: cold serves on fresh caches, then warm
/// serves on a primed one.  Every replayed result is checked too.
fn replay(catalog: &Catalog, epoch: Instant, log: &mut Log) -> Replay {
    let w = catalog.w;
    let mut tracer = Tracer::new(epoch, 99, 1 << 16);
    let mut pool: Vec<usize> = catalog
        .groups
        .iter()
        .flat_map(|g| g.entries.iter().copied())
        .collect();
    pool.sort_unstable();
    let stride = pool.len().div_ceil(REPLAY_ENTRIES).max(1);
    let mut station = ArrayStation::new(w).expect("w > 0");
    let mut out = DenseMatrix::zeros(0, 0);
    let mut warm_p50 = vec![None; catalog.entries.len()];
    let mut cold_p50 = vec![None; catalog.entries.len()];
    let (mut hex, mut linear) = ((0, 0), (0, 0));
    let mut check = |expected: &Expected, (cycles, bits): (usize, Vec<u64>)| {
        log.attempted += 1;
        if cycles != expected.cycles || bits != expected.bits {
            log.failed += 1;
        }
    };
    for &id in pool.iter().step_by(stride) {
        let entry = &catalog.entries[id];
        let mut cold = Vec::with_capacity(COLD_SERVES);
        for _ in 0..COLD_SERVES {
            let mut cache = BandCache::new(w, 4);
            let (result, ns) = timed(&mut tracer, "resident.cold_serve", || {
                serve(&mut station, &mut cache, &entry.op, &mut out)
            });
            cold.push(ns);
            check(&entry.expected, result);
        }
        let mut cache = BandCache::new(w, 4);
        check(
            &entry.expected,
            serve(&mut station, &mut cache, &entry.op, &mut out),
        );
        let mut warm = Vec::new();
        let began = Instant::now();
        while warm.len() < WARM_MIN || (began.elapsed() < WARM_BUDGET && warm.len() < WARM_MAX) {
            let (result, ns) = timed(&mut tracer, serve_span(&entry.op), || {
                serve(&mut station, &mut cache, &entry.op, &mut out)
            });
            warm.push(ns);
            let class = match entry.op {
                Op::Mm { .. } => &mut hex,
                _ => &mut linear,
            };
            class.0 += ns;
            class.1 += result.0 as u64 * entry.pes(w);
            check(&entry.expected, result);
        }
        if let Op::Mm { a, b } = &entry.op {
            for _ in 0..VALIDATE_CALLS {
                let _ = tracer.time("mm.validate", ROOT, || {
                    validate_mm_args(a.matrix(), b.matrix(), None, w)
                });
            }
        }
        cold_p50[id] = Some(quantile(&mut cold, 0.5));
        warm_p50[id] = Some(quantile(&mut warm, 0.5));
    }
    Replay {
        tracer,
        warm: warm_p50,
        cold: cold_p50,
        hex,
        linear,
    }
}

fn p(stats: &BTreeMap<&'static str, NameStats>, name: &str, q: f64) -> f64 {
    stats
        .get(name)
        .map_or(0, |s| quantile(&mut s.durations.clone(), q)) as f64
}

fn count(stats: &BTreeMap<&'static str, NameStats>, name: &str) -> u64 {
    stats.get(name).map_or(0, |s| s.durations.len() as u64)
}

fn jobs_per_s(window: &Window) -> f64 {
    window.log.samples.len() as f64 / window.wall.as_secs_f64()
}

/// Writes the traced half's and the replay's spans as Chrome trace-event
/// JSON under `perfbench/out/`.
fn write_chrome(workload: Workload, seed: u64, tracers: &[Tracer]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{seed}.json", workload.name());
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, chrome_json(tracers, CHROME_SPANS)));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {path}"),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }
}

/// The traced run.  Returns `(attempted, failed, metrics, sample counts)`.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: u64,
) -> (u64, u64, Metrics, Vec<(&'static str, u64)>) {
    let mut checked = Log::default();
    let bench = bench::setup(workload, seed, &mut checked);
    let half = Duration::from_secs(seconds) / 2;
    let before = Totals::of(&bench.farm.snapshot());
    let plain = bench::window(
        &bench,
        bench::WINDOW_STREAM,
        half,
        bench::window_logs(workload),
        None,
    );
    let epoch = Instant::now();
    let mut traced = bench::window(
        &bench,
        bench::TRACED_STREAM,
        half,
        bench::window_logs(workload),
        Some(epoch),
    );
    let after = bench.farm.snapshot();
    let delta = Totals::of(&after).minus(&before);
    let allocs = allocs_per_job(&bench, &mut checked);
    let admission = admission(&bench, epoch);
    let replay = replay(&bench.catalog, epoch, &mut checked);
    let spans = rollup(&traced.tracers);
    let admission_spans = rollup(std::slice::from_ref(&admission));
    let replay_spans = rollup(std::slice::from_ref(&replay.tracer));
    traced.tracers.push(admission);
    traced.tracers.push(replay.tracer);
    write_chrome(workload, seed, &traced.tracers);

    let closed = workload != Workload::Backlog;
    let samples = &plain.log.samples;
    let mut queue: Vec<u64> = samples.iter().map(|s| u64::from(s.queue)).collect();
    let mut service: Vec<u64> = samples.iter().map(|s| u64::from(s.service)).collect();
    // Reply hand-off plus wake: what the client waited beyond its submit
    // call, the queue and the service.  A closed loop only: the backlog
    // client waits tickets in submission order, long after most resolved.
    let mut reply: Vec<i64> = if closed {
        samples
            .iter()
            .map(|s| s.e2e as i64 - i64::from(s.submit) - i64::from(s.queue) - i64::from(s.service))
            .collect()
    } else {
        Vec::new()
    };
    // Fixed farm overhead: each job's e2e minus the direct serve of the
    // same catalog entry (its cold serve for a one-shot operand).
    let mut overhead: Vec<i64> = if closed {
        samples
            .iter()
            .filter_map(|s| {
                let entry = s.entry as usize;
                let direct = if bench.catalog.one_shot(entry) {
                    replay.cold[entry]
                } else {
                    replay.warm[entry]
                }?;
                Some(s.e2e as i64 - direct as i64)
            })
            .collect()
    } else {
        Vec::new()
    };
    let stage: Vec<f64> = replay
        .cold
        .iter()
        .zip(&replay.warm)
        .filter_map(|(c, w)| Some(c.as_ref()?.saturating_sub(*w.as_ref()?) as f64))
        .collect();
    let mut cancel = traced.log.cancel_ns.clone();
    cancel.extend(&plain.log.cancel_ns);
    let cancels = traced.log.cancels + plain.log.cancels;
    let cancels_won = traced.log.cancels_won + plain.log.cancels_won;
    let mut drains = plain.log.drain_ns_per_job.clone();
    drains.extend(&traced.log.drain_ns_per_job);
    let served_traced = traced.log.samples.len() as f64;

    let mut m = Metrics::default();
    m.put(
        "job.validate_ns",
        p(&admission_spans, "job.validate", 0.5),
        "ns",
    );
    m.put(
        "cost.predict_ns",
        p(&admission_spans, "cost.predict", 0.5),
        "ns",
    );
    m.put(
        "worker.submit_ns.p50",
        p(&spans, "worker.submit", 0.5),
        "ns",
    );
    m.put(
        "worker.submit_ns.p99",
        p(&spans, "worker.submit", 0.99),
        "ns",
    );
    m.put(
        "queue.wait_us.p50",
        quantile(&mut queue, 0.5) as f64 / 1e3,
        "us",
    );
    m.put(
        "queue.wait_us.p99",
        quantile(&mut queue, 0.99) as f64 / 1e3,
        "us",
    );
    m.put("queue.drain_us_per_job", median_f64(&drains) / 1e3, "us");
    m.put("queue.max_depth", after.max_depth as f64, "count");
    m.put(
        "queue.cancel_ns.p50",
        quantile(&mut cancel.clone(), 0.5) as f64,
        "ns",
    );
    m.put(
        "queue.cancel_ns.p99",
        quantile(&mut cancel, 0.99) as f64,
        "ns",
    );
    m.put(
        "queue.cancel_won_ratio",
        ratio(cancels_won as f64, cancels as f64),
        "ratio",
    );
    m.put(
        "queue.coalesced_fraction",
        ratio(delta.coalesced as f64, delta.jobs as f64),
        "ratio",
    );
    let packed: u64 = delta
        .passes
        .iter()
        .enumerate()
        .map(|(i, n)| (i as u64 + 1) * n)
        .sum();
    m.put(
        "worker.lane_occupancy_mean",
        ratio(packed as f64, delta.passes.iter().sum::<u64>() as f64),
        "jobs",
    );
    m.put(
        "queue.reply_us.p50",
        quantile_i64(&mut reply, 0.5) as f64 / 1e3,
        "us",
    );
    m.put(
        "queue.reply_us.p99",
        quantile_i64(&mut reply, 0.99) as f64 / 1e3,
        "us",
    );
    m.put(
        "worker.service_us.p50",
        quantile(&mut service, 0.5) as f64 / 1e3,
        "us",
    );
    m.put("worker.steals", delta.steals as f64, "count");
    m.put("worker.allocs_per_job", allocs, "count");
    m.put(
        "snapshot.call_us.p50",
        p(&spans, "snapshot.call", 0.5) / 1e3,
        "us",
    );
    m.put(
        "resident.hit_ratio",
        ratio(delta.hits as f64, (delta.hits + delta.misses) as f64),
        "ratio",
    );
    m.put(
        "resident.staging_cycles_per_job",
        ratio(delta.staging as f64, delta.jobs as f64),
        "cycles",
    );
    m.put("resident.evictions", delta.evictions as f64, "count");
    m.put("resident.stage_ns", median_f64(&stage), "ns");
    m.put("mm.validate_ns", p(&replay_spans, "mm.validate", 0.5), "ns");
    m.put("mm.serve_ns", p(&replay_spans, "mm.serve", 0.5), "ns");
    m.put(
        "sparse.serve_ns",
        p(&replay_spans, "sparse.serve", 0.5),
        "ns",
    );
    m.put("mv.serve_ns", p(&replay_spans, "mv.serve", 0.5), "ns");
    m.put(
        "hex.ns_per_pe_cycle",
        ratio(replay.hex.0 as f64, replay.hex.1 as f64),
        "ns",
    );
    m.put(
        "linear.ns_per_pe_cycle",
        ratio(replay.linear.0 as f64, replay.linear.1 as f64),
        "ns",
    );
    m.put(
        "station.skipped_cycle_fraction",
        ratio(delta.skipped as f64, delta.cycles as f64),
        "ratio",
    );
    m.put(
        "worker.overhead_us",
        quantile_i64(&mut overhead, 0.5) as f64 / 1e3,
        "us",
    );
    m.put(
        "trace.overhead_fraction",
        1.0 - ratio(jobs_per_s(&traced), jobs_per_s(&plain)),
        "ratio",
    );
    // Self time per job: the traced half's spans per job it served, plus
    // the admission probe's per job it priced.
    let self_per_job = |stats: &BTreeMap<&'static str, NameStats>, layer: &str, jobs: f64| {
        let self_ns: u64 = stats
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s.self_ns)
            .sum();
        ratio(self_ns as f64, jobs)
    };
    for layer in SELF_LAYERS {
        m.put(
            format!("self.{layer}_ns_per_job"),
            self_per_job(&spans, layer, served_traced)
                + self_per_job(&admission_spans, layer, ADMISSION_JOBS as f64),
            "ns",
        );
    }

    let attempted = checked.attempted + plain.log.attempted + traced.log.attempted;
    let failed = checked.failed + plain.log.failed + traced.log.failed;
    let counts = vec![
        ("plain_jobs", samples.len() as u64),
        ("traced_jobs", traced.log.samples.len() as u64),
        ("job.validate", count(&admission_spans, "job.validate")),
        ("worker.submit", count(&spans, "worker.submit")),
        ("queue.cancel", cancel.len() as u64),
        ("snapshot.call", count(&spans, "snapshot.call")),
        ("queue.reply", reply.len() as u64),
        ("worker.overhead", overhead.len() as u64),
        ("backlog_cycles", drains.len() as u64),
        ("mm.serve", count(&replay_spans, "mm.serve")),
        ("mv.serve", count(&replay_spans, "mv.serve")),
        ("sparse.serve", count(&replay_spans, "sparse.serve")),
    ];
    (attempted, failed, m, counts)
}
