//! Drives a workload through the farm's public API and checks every
//! receipt against the oracle.
//!
//! The closed loop submits a client's next job only after the previous one
//! returned; the backlog client submits a whole cycle, cancels a seeded
//! share of it, and waits the tickets in submission order.  Both record
//! one [`Sample`] per served job.  With a [`Tracer`], every call into the
//! farm is wrapped in a span; without one the loop takes only the two
//! clock reads its latency needs.

use crate::host::Ticks;
use crate::oracle::check;
use crate::trace::{Tracer, ROOT};
use crate::workload::{Catalog, Pick, Stream, Workload, BACKLOG_CANCEL, BACKLOG_JOBS};
use sia_runtime::{ArrayFarm, FarmError, JobReceipt, JobSpec, JobTicket};
use std::time::{Duration, Instant};

/// One served job, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Catalog entry.
    pub entry: u32,
    /// Start of `submit` (of the cycle's first submit, on the backlog)
    /// until `wait` returned, ns.
    pub e2e: u64,
    /// The `submit` call alone, ns (saturating).
    pub submit: u32,
    /// The receipt's queue and service times, ns (saturating).
    pub queue: u32,
    pub service: u32,
    /// When `wait` returned, µs since the window began (saturating).
    pub done_us: u32,
    /// Simulated PE-cycles billed in the receipt (`measured_cycles` × PEs).
    pub pe_cycles: u32,
}

/// One served job's receipt times and billing.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub queue: Duration,
    pub service: Duration,
    pub latency: Duration,
    pub pe_cycles: u64,
}

/// One backlog cycle's totals.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub wall: Duration,
    pub served: u64,
    /// The host's ticks that elapsed during the cycle.
    pub ticks: Ticks,
}

/// What one client (or one merged set of clients) observed.
#[derive(Debug, Default)]
pub struct Log {
    /// Where `done_us` counts from (the window start).
    pub origin: Option<Instant>,
    pub samples: Vec<Sample>,
    /// Jobs submitted (or refused at submission) and checked.
    pub attempted: u64,
    /// Jobs that erred (other than a cancel the client won) or failed the
    /// oracle.
    pub failed: u64,
    /// Backlog cycles, in order.
    pub cycles: Vec<Cycle>,
    /// Backlog cancels: attempts, wins, and each call's duration in ns.
    pub cancels: u64,
    pub cancels_won: u64,
    pub cancel_ns: Vec<u64>,
    /// Backlog cycles: ns per tiny job from the first blocker's completion
    /// to the last completion.
    pub drain_ns_per_job: Vec<f64>,
}

impl Log {
    /// A log whose sample buffer holds `capacity` samples without growing.
    /// The buffer is written once up front, so its pages are resident
    /// before any window starts and the process's peak memory does not
    /// grow with the number of jobs a window serves.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut samples = vec![
            Sample {
                entry: 0,
                e2e: 1,
                submit: 0,
                queue: 0,
                service: 0,
                done_us: 0,
                pe_cycles: 0,
            };
            capacity
        ];
        samples.clear();
        Log {
            samples,
            ..Log::default()
        }
    }

    /// Bytes the sample buffer holds.
    pub fn buffer_bytes(&self) -> u64 {
        (self.samples.capacity() * std::mem::size_of::<Sample>()) as u64
    }

    /// Whether the sample buffer is full (the window must end).
    pub fn full(&self) -> bool {
        self.samples.len() == self.samples.capacity()
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Log) {
        self.samples.extend_from_slice(&other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cycles.extend(other.cycles);
        self.cancels += other.cancels;
        self.cancels_won += other.cancels_won;
        self.cancel_ns.extend(other.cancel_ns);
        self.drain_ns_per_job.extend(other.drain_ns_per_job);
    }

    /// Checks one resolution against the oracle, recycles its output, and
    /// returns the receipt's times when it served.
    /// `cancel_won` marks a job whose cancel the client asked for and won.
    pub fn settle(
        &mut self,
        farm: &ArrayFarm,
        catalog: &Catalog,
        entry: usize,
        resolution: Result<JobReceipt, FarmError>,
        cancel_won: bool,
    ) -> Option<Served> {
        match resolution {
            Ok(receipt) => {
                let entry = &catalog.entries[entry];
                if check(&entry.expected, &receipt).is_err() {
                    self.failed += 1;
                }
                let served = Served {
                    queue: receipt.queue,
                    service: receipt.service,
                    latency: receipt.latency(),
                    pe_cycles: receipt.measured_cycles as u64 * entry.pes(catalog.w),
                };
                farm.recycle(receipt.output);
                Some(served)
            }
            Err(FarmError::Cancelled) if cancel_won => None,
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    fn push(&mut self, entry: usize, e2e: Duration, submit: Duration, served: Served) {
        if !self.full() {
            let done_us = self.origin.map_or(0, |o| {
                u32::try_from(o.elapsed().as_micros()).unwrap_or(u32::MAX)
            });
            self.samples.push(Sample {
                entry: entry as u32,
                e2e: e2e.as_nanos() as u64,
                submit: saturating_ns(submit),
                queue: saturating_ns(served.queue),
                service: saturating_ns(served.service),
                done_us,
                pe_cycles: u32::try_from(served.pe_cycles).unwrap_or(u32::MAX),
            });
        }
    }
}

fn saturating_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Runs `f` inside a span when tracing.
fn span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.time(name, parent, f),
        None => f(),
    }
}

/// Stamps the span just closed with the farm job id.
fn tag_last(tracer: &mut Option<&mut Tracer>, job: u64) {
    if let Some(t) = tracer {
        t.set_job(t.spans().len() as u32 - 1, job);
    }
}

/// One closed-loop job: build, submit, wait, check.
fn closed_job(
    farm: &ArrayFarm,
    catalog: &Catalog,
    pick: Pick,
    log: &mut Log,
    tracer: &mut Option<&mut Tracer>,
) {
    let root = tracer.as_mut().map_or(ROOT, |t| t.open("bench.job", ROOT));
    let job = catalog.entries[pick.entry].job(pick.key);
    log.attempted += 1;
    let start = Instant::now();
    let submitted = span(tracer, "worker.submit", root, || farm.submit(job));
    let submit = start.elapsed();
    let ticket = match submitted {
        Ok(ticket) => ticket,
        Err(_) => {
            log.failed += 1;
            return;
        }
    };
    let id = ticket.id();
    let resolution = span(tracer, "worker.wait", root, || ticket.wait());
    let e2e = start.elapsed();
    if let Some(served) = log.settle(farm, catalog, pick.entry, resolution, false) {
        log.push(pick.entry, e2e, submit, served);
    }
    if let Some(t) = tracer.as_mut() {
        t.close(root);
        t.set_job(root, id);
    }
}

/// Drives a closed loop until `until` (or until the sample buffer fills).
fn closed_loop(
    farm: &ArrayFarm,
    catalog: &Catalog,
    stream: &mut Stream,
    until: Instant,
    log: &mut Log,
    mut tracer: Option<&mut Tracer>,
) {
    while Instant::now() < until && !log.full() {
        let pick = stream.next(catalog);
        closed_job(farm, catalog, pick, log, &mut tracer);
    }
}

/// Runs exactly `jobs` closed-loop jobs.
pub fn closed_jobs(
    farm: &ArrayFarm,
    catalog: &Catalog,
    stream: &mut Stream,
    jobs: usize,
    log: &mut Log,
) {
    for _ in 0..jobs {
        let pick = stream.next(catalog);
        closed_job(farm, catalog, pick, log, &mut None);
    }
}

/// Serves every distinct non-one-shot entry once, blockers included, so
/// band caches and pools are warm.
pub fn each_entry_once(farm: &ArrayFarm, catalog: &Catalog, log: &mut Log) {
    for entry in 0..catalog.entries.len() {
        if !catalog.one_shot(entry) {
            closed_job(farm, catalog, Pick { entry, key: None }, log, &mut None);
        }
    }
}

struct Queued {
    entry: usize,
    submitted: Instant,
    ticket: Option<JobTicket>,
    cancel: bool,
    cancel_won: bool,
}

/// One backlog cycle: the long blockers, then [`BACKLOG_JOBS`] tiny jobs
/// over weighted-fair tenants, then a seeded ~5% cancelled, then every
/// ticket waited in submission order.
pub fn backlog_cycle(
    farm: &ArrayFarm,
    catalog: &Catalog,
    stream: &mut Stream,
    log: &mut Log,
    mut tracer: Option<&mut Tracer>,
) {
    let root = tracer
        .as_mut()
        .map_or(ROOT, |t| t.open("bench.cycle", ROOT));
    let mut queued: Vec<Queued> = Vec::with_capacity(BACKLOG_JOBS + catalog.long.len());
    let picks = catalog
        .long
        .iter()
        .map(|&entry| (Pick { entry, key: None }, 0, false))
        .chain((0..BACKLOG_JOBS).map(|_| {
            let pick = stream.next(catalog);
            (pick, stream.tenant(), stream.coin(BACKLOG_CANCEL))
        }))
        .collect::<Vec<_>>();
    let ticks = Ticks::now().unwrap_or_default();
    let cycle_start = Instant::now();
    for (index, (pick, tenant, cancel)) in picks.into_iter().enumerate() {
        if index == catalog.long.len() {
            // The blockers are dispatched before any tiny job queues, so
            // both arrays are busy while the backlog builds.
            while farm.snapshot().depth > 0 {
                std::thread::yield_now();
            }
        }
        let spec = JobSpec::new(catalog.entries[pick.entry].job(pick.key)).tenant(tenant);
        log.attempted += 1;
        let submitted = Instant::now();
        let ticket = match span(&mut tracer, "worker.submit", root, || farm.submit(spec)) {
            Ok(ticket) => {
                tag_last(&mut tracer, ticket.id());
                Some(ticket)
            }
            Err(_) => {
                log.failed += 1;
                None
            }
        };
        queued.push(Queued {
            entry: pick.entry,
            submitted,
            ticket,
            cancel,
            cancel_won: false,
        });
    }
    for q in queued.iter_mut().filter(|q| q.cancel) {
        if let Some(ticket) = &q.ticket {
            let start = Instant::now();
            q.cancel_won = span(&mut tracer, "queue.cancel", root, || ticket.cancel());
            tag_last(&mut tracer, ticket.id());
            log.cancel_ns.push(start.elapsed().as_nanos() as u64);
            log.cancels += 1;
            log.cancels_won += u64::from(q.cancel_won);
        }
    }
    let mut blockers_done: Option<Instant> = None;
    let mut last_done = cycle_start;
    let mut tiny_served = 0u64;
    let mut cycle = Cycle {
        wall: Duration::ZERO,
        served: 0,
        ticks: Ticks::default(),
    };
    for (index, q) in queued.into_iter().enumerate() {
        let Some(ticket) = q.ticket else { continue };
        let id = ticket.id();
        let resolution = span(&mut tracer, "worker.wait", root, || ticket.wait());
        tag_last(&mut tracer, id);
        let e2e = cycle_start.elapsed();
        if let Some(served) = log.settle(farm, catalog, q.entry, resolution, q.cancel_won) {
            log.push(q.entry, e2e, Duration::ZERO, served);
            cycle.served += 1;
            let done = q.submitted + served.latency;
            if index < catalog.long.len() {
                blockers_done = Some(blockers_done.map_or(done, |b| b.min(done)));
            } else {
                tiny_served += 1;
                last_done = last_done.max(done);
            }
        }
    }
    cycle.wall = cycle_start.elapsed();
    cycle.ticks = Ticks::now().unwrap_or_default().since(ticks);
    log.cycles.push(cycle);
    if let (Some(start), true) = (blockers_done, tiny_served > 0) {
        let drain = last_done.saturating_duration_since(start);
        log.drain_ns_per_job
            .push(drain.as_nanos() as f64 / tiny_served as f64);
    }
    if let Some(t) = tracer.as_mut() {
        t.close(root);
    }
}

/// Runs `workload`'s timed window until `until`: backlog cycles until the
/// deadline, or closed-loop jobs on one client.
pub fn window(
    workload: Workload,
    farm: &ArrayFarm,
    catalog: &Catalog,
    stream: &mut Stream,
    until: Instant,
    log: &mut Log,
    mut tracer: Option<&mut Tracer>,
) {
    if workload == Workload::Backlog {
        while Instant::now() < until && !log.full() {
            backlog_cycle(farm, catalog, stream, log, tracer.as_deref_mut());
        }
    } else {
        closed_loop(farm, catalog, stream, until, log, tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves every distinct job of a catalog once and returns the log.
    fn serve_all(catalog: &Catalog) -> Log {
        let farm = ArrayFarm::new(Workload::Backlog.config()).expect("farm");
        let mut log = Log::default();
        each_entry_once(&farm, catalog, &mut log);
        log
    }

    #[test]
    fn oracle_mismatches_count_as_failed_jobs() {
        let mut catalog = Catalog::build(Workload::Backlog, 3);
        let clean = serve_all(&catalog);
        assert_eq!(clean.attempted, catalog.entries.len() as u64);
        assert_eq!(clean.failed, 0);
        // One corrupted expected output and one wrong expected cycle count.
        catalog.entries[0].expected.bits[0] ^= 1;
        let last = catalog.entries.len() - 1;
        catalog.entries[last].expected.cycles += 1;
        let corrupted = serve_all(&catalog);
        assert_eq!(corrupted.attempted, clean.attempted);
        assert_eq!(corrupted.failed, 2);
    }

    #[test]
    fn a_backlog_cycle_checks_every_job_and_wins_its_cancels() {
        let catalog = Catalog::build(Workload::Backlog, 5);
        let farm = ArrayFarm::new(Workload::Backlog.config()).expect("farm");
        let mut stream = Stream::new(5, 0);
        let mut log = Log::with_capacity(BACKLOG_JOBS + 2);
        backlog_cycle(&farm, &catalog, &mut stream, &mut log, None);
        assert_eq!(log.attempted, BACKLOG_JOBS as u64 + 2);
        assert_eq!(log.failed, 0);
        assert!(log.cancels > 0);
        assert_eq!(log.samples.len() as u64, log.attempted - log.cancels_won);
        assert_eq!(log.cycles.len(), 1);
        assert_eq!(log.drain_ns_per_job.len(), 1);
    }
}
