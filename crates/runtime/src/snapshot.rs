//! Live farm state and point-in-time snapshots.
//!
//! While the farm serves traffic, every worker publishes its progress
//! into a shared, lock-free live-state block ([`FarmLive`]): plain
//! atomic counters, [`LogHistogram`]s for the three latency stages and
//! the signed cycle error, a lane-occupancy histogram, the station's
//! engine counters, and a bounded [`EventRing`] of lifecycle events.
//! Per-tenant rollups live beside them, shared across workers.  This is
//! the farm's only ledger: counters are always recorded, and
//! [`crate::FarmConfig::metrics`] switches off the histograms alone.
//!
//! [`crate::ArrayFarm::snapshot`] copies all of it into a
//! [`FarmSnapshot`] **without draining, pausing or joining anything** —
//! the only lock it takes is the queue mutex the farm already uses for
//! admission, and only to read the queue-side counters.  Every counter
//! is monotonic, so consecutive snapshots are monotone too; histogram
//! percentiles are read from buckets and carry the quantization bound
//! documented in [`crate::metrics`].  [`crate::ArrayFarm::shutdown`]
//! returns one last snapshot, taken after the workers joined.

use crate::job::ArrayClass;
use crate::metrics::{HistogramSnapshot, LogHistogram, SignedHistogram, SignedSnapshot};
use crate::trace::{EventRing, JobEvent};
use sia_sim::{ResidencyStats, StationStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Widest lane-occupancy bucket tracked (the engine's lane limit).
const OCCUPANCY_SLOTS: usize = sia_dbt::MAX_LANES;

/// One worker's live, shared observability block.  The owning worker is
/// the only writer of the counters and the ring; snapshots read them
/// concurrently (relaxed — every field is monotonic).
#[derive(Debug)]
pub(crate) struct WorkerLive {
    class: ArrayClass,
    /// Whether the histograms (latency, cycle error, lane occupancy) are
    /// recorded; the counters always are.
    metrics: bool,
    jobs: AtomicU64,
    coalesced_jobs: AtomicU64,
    batches: AtomicU64,
    failures: AtomicU64,
    shed: AtomicU64,
    busy_ns: AtomicU64,
    predicted_cycles: AtomicU64,
    measured_cycles: AtomicU64,
    exact_predictions: AtomicU64,
    // Station engine counters, published after every batch.
    hex_runs: AtomicU64,
    hex_cycles: AtomicU64,
    hex_skipped_cycles: AtomicU64,
    linear_runs: AtomicU64,
    linear_cycles: AtomicU64,
    linear_skipped_cycles: AtomicU64,
    // Resident band-cache counters, published after every batch.
    operand_hits: AtomicU64,
    operand_misses: AtomicU64,
    operand_evictions: AtomicU64,
    staging_cycles: AtomicU64,
    /// `lane_occupancy[i]` counts array passes that served `i + 1`
    /// jobs at once.
    lane_occupancy: Box<[AtomicU64]>,
    queue: LogHistogram,
    service: LogHistogram,
    e2e: LogHistogram,
    cycle_error: SignedHistogram,
    pub(crate) ring: EventRing,
}

impl WorkerLive {
    fn new(class: ArrayClass, trace_capacity: usize, metrics: bool) -> Self {
        WorkerLive {
            class,
            metrics,
            jobs: AtomicU64::new(0),
            coalesced_jobs: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            predicted_cycles: AtomicU64::new(0),
            measured_cycles: AtomicU64::new(0),
            exact_predictions: AtomicU64::new(0),
            hex_runs: AtomicU64::new(0),
            hex_cycles: AtomicU64::new(0),
            hex_skipped_cycles: AtomicU64::new(0),
            linear_runs: AtomicU64::new(0),
            linear_cycles: AtomicU64::new(0),
            linear_skipped_cycles: AtomicU64::new(0),
            operand_hits: AtomicU64::new(0),
            operand_misses: AtomicU64::new(0),
            operand_evictions: AtomicU64::new(0),
            staging_cycles: AtomicU64::new(0),
            lane_occupancy: (0..OCCUPANCY_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            queue: LogHistogram::new(),
            service: LogHistogram::new(),
            e2e: LogHistogram::new(),
            cycle_error: SignedHistogram::new(),
            ring: EventRing::new(trace_capacity),
        }
    }

    /// Records one delivered job (called by the owning worker *before*
    /// the receipt is sent, so a caller who has seen every receipt sees
    /// settled counters).
    ///
    /// `exact` is [`crate::JobReceipt::prediction_exact`], so the ledger
    /// and the receipts share one definition of an exact prediction.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_completion(
        &self,
        queue_ns: u64,
        service_ns: u64,
        e2e_ns: u64,
        predicted: u64,
        measured: u64,
        exact: bool,
        coalesced: bool,
    ) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if coalesced {
            self.coalesced_jobs.fetch_add(1, Ordering::Relaxed);
        }
        self.predicted_cycles
            .fetch_add(predicted, Ordering::Relaxed);
        self.measured_cycles.fetch_add(measured, Ordering::Relaxed);
        if exact {
            self.exact_predictions.fetch_add(1, Ordering::Relaxed);
        }
        if !self.metrics {
            return;
        }
        self.queue.record(queue_ns);
        self.service.record(service_ns);
        self.e2e.record(e2e_ns);
        self.cycle_error.record(measured as i64 - predicted as i64);
    }

    pub(crate) fn record_failure(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, busy: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one array pass that served `occupied` jobs at once.
    pub(crate) fn record_lane_pass(&self, occupied: usize) {
        if !self.metrics {
            return;
        }
        let slot = occupied.clamp(1, OCCUPANCY_SLOTS) - 1;
        self.lane_occupancy[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the station's cumulative engine counters (cheap atomic
    /// stores; the worker owns the station, so these are plain copies).
    pub(crate) fn publish_station(&self, stats: StationStats) {
        self.hex_runs
            .store(stats.hex_runs as u64, Ordering::Relaxed);
        self.hex_cycles
            .store(stats.hex_cycles as u64, Ordering::Relaxed);
        self.hex_skipped_cycles
            .store(stats.hex_skipped_cycles as u64, Ordering::Relaxed);
        self.linear_runs
            .store(stats.linear_runs as u64, Ordering::Relaxed);
        self.linear_cycles
            .store(stats.linear_cycles as u64, Ordering::Relaxed);
        self.linear_skipped_cycles
            .store(stats.linear_skipped_cycles as u64, Ordering::Relaxed);
    }

    /// Publishes the worker's cumulative resident band-cache counters
    /// (same ownership story as [`WorkerLive::publish_station`]).
    pub(crate) fn publish_residency(&self, stats: ResidencyStats) {
        self.operand_hits
            .store(stats.hits as u64, Ordering::Relaxed);
        self.operand_misses
            .store(stats.misses as u64, Ordering::Relaxed);
        self.operand_evictions
            .store(stats.evictions as u64, Ordering::Relaxed);
        self.staging_cycles
            .store(stats.staged_cycles as u64, Ordering::Relaxed);
    }

    fn snapshot(&self, worker: usize) -> WorkerSnapshot {
        WorkerSnapshot {
            worker,
            class: self.class,
            jobs: self.jobs.load(Ordering::Relaxed),
            coalesced_jobs: self.coalesced_jobs.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            predicted_cycles: self.predicted_cycles.load(Ordering::Relaxed),
            measured_cycles: self.measured_cycles.load(Ordering::Relaxed),
            exact_predictions: self.exact_predictions.load(Ordering::Relaxed),
            hex_runs: self.hex_runs.load(Ordering::Relaxed),
            hex_cycles: self.hex_cycles.load(Ordering::Relaxed),
            hex_skipped_cycles: self.hex_skipped_cycles.load(Ordering::Relaxed),
            linear_runs: self.linear_runs.load(Ordering::Relaxed),
            linear_cycles: self.linear_cycles.load(Ordering::Relaxed),
            linear_skipped_cycles: self.linear_skipped_cycles.load(Ordering::Relaxed),
            operand_hits: self.operand_hits.load(Ordering::Relaxed),
            operand_misses: self.operand_misses.load(Ordering::Relaxed),
            operand_evictions: self.operand_evictions.load(Ordering::Relaxed),
            staging_cycles: self.staging_cycles.load(Ordering::Relaxed),
            lane_occupancy: self
                .lane_occupancy
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            queue: self.queue.snapshot(),
            service: self.service.snapshot(),
            e2e: self.e2e.snapshot(),
            cycle_error: self.cycle_error.snapshot(),
            trace_recorded: self.ring.recorded(),
            trace_dropped: self.ring.dropped(),
        }
    }
}

/// One tenant's live rollup, shared across every worker that serves it.
#[derive(Debug, Default)]
pub(crate) struct TenantLive {
    /// Whether the histograms are recorded (see [`WorkerLive`]).
    metrics: bool,
    served: AtomicU64,
    shed: AtomicU64,
    predicted_cycles: AtomicU64,
    measured_cycles: AtomicU64,
    e2e: LogHistogram,
    cycle_error: SignedHistogram,
}

impl TenantLive {
    pub(crate) fn record_completion(&self, e2e_ns: u64, predicted: u64, measured: u64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.predicted_cycles
            .fetch_add(predicted, Ordering::Relaxed);
        self.measured_cycles.fetch_add(measured, Ordering::Relaxed);
        if self.metrics {
            self.e2e.record(e2e_ns);
            self.cycle_error.record(measured as i64 - predicted as i64);
        }
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, tenant: u32) -> TenantSnapshot {
        TenantSnapshot {
            tenant,
            submitted: 0,
            cancelled: 0,
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            predicted_cycles: self.predicted_cycles.load(Ordering::Relaxed),
            measured_cycles: self.measured_cycles.load(Ordering::Relaxed),
            e2e: self.e2e.snapshot(),
            cycle_error: self.cycle_error.snapshot(),
        }
    }
}

/// The farm's shared live observability state: one [`WorkerLive`] per
/// worker, the admission-side event ring, and the per-tenant rollups.
#[derive(Debug)]
pub(crate) struct FarmLive {
    pub(crate) started: Instant,
    /// Whether histograms are recorded ([`crate::FarmConfig::metrics`]).
    metrics: bool,
    pub(crate) workers: Vec<WorkerLive>,
    /// Ring for events recorded before a worker owns the job; writers
    /// hold the farm's queue mutex, which serializes them.
    pub(crate) admission: EventRing,
    /// Tenant rollups, sorted by tenant id.  Locked only when a worker
    /// first meets a tenant (workers keep local caches), at admission
    /// shed, and at snapshot time — never on the steady serve path.
    tenants: Mutex<Vec<(u32, Arc<TenantLive>)>>,
}

impl FarmLive {
    pub(crate) fn new(
        classes: &[ArrayClass],
        trace_capacity: usize,
        metrics: bool,
        started: Instant,
    ) -> Self {
        FarmLive {
            started,
            metrics,
            workers: classes
                .iter()
                .map(|&c| WorkerLive::new(c, trace_capacity, metrics))
                .collect(),
            admission: EventRing::new(trace_capacity),
            tenants: Mutex::new(Vec::new()),
        }
    }

    /// The shared rollup for `tenant`, created on first sight.  Takes
    /// the tenant-map lock; callers cache the returned `Arc` so steady
    /// state never comes back here.
    pub(crate) fn tenant(&self, tenant: u32) -> Arc<TenantLive> {
        let mut tenants = self.tenants.lock().unwrap();
        match tenants.binary_search_by_key(&tenant, |(id, _)| *id) {
            Ok(i) => Arc::clone(&tenants[i].1),
            Err(i) => {
                let live = Arc::new(TenantLive {
                    metrics: self.metrics,
                    ..TenantLive::default()
                });
                tenants.insert(i, (tenant, Arc::clone(&live)));
                live
            }
        }
    }

    /// One row per tenant that was served, shed or admitted, sorted by
    /// id: the live rollups merged with the queue's `(tenant, submitted,
    /// cancelled)` accounts (also sorted by id).
    pub(crate) fn tenant_snapshots(&self, accounts: &[(u32, u64, u64)]) -> Vec<TenantSnapshot> {
        let mut rows: Vec<TenantSnapshot> = self
            .tenants
            .lock()
            .unwrap()
            .iter()
            .map(|(id, live)| live.snapshot(*id))
            .collect();
        for &(tenant, submitted, cancelled) in accounts {
            let i = match rows.binary_search_by_key(&tenant, |t| t.tenant) {
                Ok(i) => i,
                Err(i) => {
                    rows.insert(i, TenantLive::default().snapshot(tenant));
                    i
                }
            };
            rows[i].submitted = submitted;
            rows[i].cancelled = cancelled;
        }
        rows
    }

    pub(crate) fn worker_snapshots(&self) -> Vec<WorkerSnapshot> {
        self.workers
            .iter()
            .enumerate()
            .map(|(i, w)| w.snapshot(i))
            .collect()
    }

    /// Collects every ring's current contents, ordered by timestamp.
    pub(crate) fn collect_events(&self) -> Vec<JobEvent> {
        let mut events = Vec::new();
        self.admission.collect(&mut events);
        for w in &self.workers {
            w.ring.collect(&mut events);
        }
        events.sort_by_key(|e| (e.at, e.job));
        events
    }
}

/// A consistent point-in-time view of one worker, inside a
/// [`FarmSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    /// Worker index.
    pub worker: usize,
    /// Which array this worker owns.
    pub class: ArrayClass,
    /// Jobs delivered (including failures).
    pub jobs: u64,
    /// Jobs served as part of a coalesced batch.
    pub coalesced_jobs: u64,
    /// Dispatched batches.
    pub batches: u64,
    /// Jobs that failed in the engine.
    pub failures: u64,
    /// Jobs shed at dispatch (expired deadline).
    pub shed: u64,
    /// Total time spent serving batches.
    pub busy: Duration,
    /// Sum of closed-form predicted cycles over delivered jobs.
    pub predicted_cycles: u64,
    /// Sum of measured cycles over delivered jobs.
    pub measured_cycles: u64,
    /// Delivered jobs whose prediction was cycle-exact
    /// ([`crate::JobReceipt::prediction_exact`]).
    pub exact_predictions: u64,
    /// Station counter: completed hexagonal-array passes.
    pub hex_runs: u64,
    /// Station counter: hexagonal-array steps executed (billed).
    pub hex_cycles: u64,
    /// Station counter: idle hexagonal cycles skipped by the
    /// event-driven engine instead of simulated.
    pub hex_skipped_cycles: u64,
    /// Station counter: completed linear-array passes.
    pub linear_runs: u64,
    /// Station counter: linear-array steps executed (billed).
    pub linear_cycles: u64,
    /// Station counter: idle linear cycles skipped.
    pub linear_skipped_cycles: u64,
    /// Band-cache lookups served from a resident DBT artifact.
    pub operand_hits: u64,
    /// Band-cache lookups that had to stage (transform) the operand.
    pub operand_misses: u64,
    /// Resident artifacts evicted to make room.
    pub operand_evictions: u64,
    /// Cycles spent staging operand bands (priced apart from compute).
    pub staging_cycles: u64,
    /// `lane_occupancy[i]` = array passes that served `i + 1` jobs.
    pub lane_occupancy: Vec<u64>,
    /// Queue latency (submit → pickup) histogram, nanoseconds.
    pub queue: HistogramSnapshot,
    /// Service latency histogram, nanoseconds (attributed share for
    /// coalesced jobs).
    pub service: HistogramSnapshot,
    /// End-to-end latency histogram, nanoseconds.
    pub e2e: HistogramSnapshot,
    /// Signed measured-minus-predicted cycle error.
    pub cycle_error: SignedSnapshot,
    /// Events this worker's ring ever recorded.
    pub trace_recorded: u64,
    /// Events that aged out of this worker's ring.
    pub trace_dropped: u64,
}

impl WorkerSnapshot {
    /// Fraction of wall time spent serving batches.
    pub fn utilization(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / wall.as_secs_f64()
        }
    }
}

/// A consistent point-in-time view of one tenant, inside a
/// [`FarmSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant id.
    pub tenant: u32,
    /// Jobs of this tenant admitted and enqueued.
    pub submitted: u64,
    /// Jobs of this tenant cancelled while queued.
    pub cancelled: u64,
    /// Jobs delivered successfully for this tenant.
    pub served: u64,
    /// Jobs shed for this tenant (dispatch or admission).
    pub shed: u64,
    /// Sum of predicted cycles over this tenant's served jobs.
    pub predicted_cycles: u64,
    /// Sum of measured cycles over this tenant's served jobs.
    pub measured_cycles: u64,
    /// End-to-end latency histogram, nanoseconds.
    pub e2e: HistogramSnapshot,
    /// Signed measured-minus-predicted cycle error.
    pub cycle_error: SignedSnapshot,
}

/// A live, consistent view of the whole farm, returned by
/// [`crate::ArrayFarm::snapshot`] without draining or shutting anything
/// down.  All counters are monotonic: for two snapshots `a` then `b`,
/// every counter of `b` is ≥ the same counter of `a`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FarmSnapshot {
    /// When the snapshot was taken, measured from farm start.
    pub at: Duration,
    /// Jobs admitted and enqueued so far.
    pub submitted: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Jobs refused at admission because their deadline was already
    /// unmeetable.
    pub shed_at_admission: u64,
    /// Jobs taken from another worker's queue.
    pub steals: u64,
    /// Jobs currently queued (the only non-monotonic field).
    pub depth: usize,
    /// High-water mark of the total queue depth.
    pub max_depth: usize,
    /// Process-wide heap allocation count (`sia-alloc`), if the
    /// embedding binary installed the counting allocator; 0 otherwise.
    pub allocations: u64,
    /// Events recorded across every ring.
    pub trace_recorded: u64,
    /// Events that aged out across every ring.
    pub trace_dropped: u64,
    /// Per-worker views, indexed by worker.
    pub workers: Vec<WorkerSnapshot>,
    /// One row per tenant ever admitted, served or shed, sorted by
    /// tenant id.
    pub tenants: Vec<TenantSnapshot>,
}

impl FarmSnapshot {
    /// Jobs delivered successfully across all workers.
    pub fn completed(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs - w.failures).sum()
    }

    /// Jobs that failed in the engines.
    pub fn failures(&self) -> u64 {
        self.workers.iter().map(|w| w.failures).sum()
    }

    /// Jobs shed at dispatch (admission sheds are counted separately in
    /// [`FarmSnapshot::shed_at_admission`]).
    pub fn shed(&self) -> u64 {
        self.workers.iter().map(|w| w.shed).sum()
    }

    /// Sum of predicted cycles over all delivered jobs.
    pub fn predicted_cycles(&self) -> u64 {
        self.workers.iter().map(|w| w.predicted_cycles).sum()
    }

    /// Sum of measured cycles over all delivered jobs.
    pub fn measured_cycles(&self) -> u64 {
        self.workers.iter().map(|w| w.measured_cycles).sum()
    }

    /// The tenant's row, if the tenant was ever admitted, served or shed.
    pub fn tenant(&self, tenant: u32) -> Option<&TenantSnapshot> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// Fraction of successfully delivered jobs whose closed-form
    /// prediction was cycle-exact (1.0 when nothing was delivered; failed
    /// jobs are excluded).
    pub fn exact_prediction_fraction(&self) -> f64 {
        let delivered: u64 = self.completed();
        if delivered == 0 {
            return 1.0;
        }
        let exact: u64 = self.workers.iter().map(|w| w.exact_predictions).sum();
        exact as f64 / delivered as f64
    }

    /// Band-cache hits across all workers: serves that found every
    /// operand band already resident.
    pub fn operand_hits(&self) -> u64 {
        self.workers.iter().map(|w| w.operand_hits).sum()
    }

    /// Band-cache misses across all workers (operand bands staged).
    pub fn operand_misses(&self) -> u64 {
        self.workers.iter().map(|w| w.operand_misses).sum()
    }

    /// Resident artifacts evicted across all workers.
    pub fn operand_evictions(&self) -> u64 {
        self.workers.iter().map(|w| w.operand_evictions).sum()
    }

    /// Cycles spent staging operand bands across all workers, priced
    /// apart from compute cycles.
    pub fn staging_cycles(&self) -> u64 {
        self.workers.iter().map(|w| w.staging_cycles).sum()
    }

    /// Fraction of band-cache lookups served from a resident artifact
    /// (0.0 when no lookup happened yet).
    pub fn operand_hit_ratio(&self) -> f64 {
        let hits = self.operand_hits();
        let total = hits + self.operand_misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Idle engine cycles skipped across all stations — the work the
    /// event-driven engines saved over naive cycle-by-cycle simulation.
    pub fn skipped_cycles(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.hex_skipped_cycles + w.linear_skipped_cycles)
            .sum()
    }

    /// Farm-wide queue-latency histogram (all workers merged).
    pub fn queue_latency(&self) -> HistogramSnapshot {
        self.merged(|w| &w.queue)
    }

    /// Farm-wide service-latency histogram (all workers merged).
    pub fn service_latency(&self) -> HistogramSnapshot {
        self.merged(|w| &w.service)
    }

    /// Farm-wide end-to-end latency histogram (all workers merged).
    pub fn e2e_latency(&self) -> HistogramSnapshot {
        self.merged(|w| &w.e2e)
    }

    /// Farm-wide signed cycle-error distribution (all workers merged).
    pub fn cycle_error(&self) -> SignedSnapshot {
        let mut merged = SignedSnapshot::default();
        for w in &self.workers {
            merged.merge(&w.cycle_error);
        }
        merged
    }

    /// Farm-wide lane-occupancy histogram: entry `i` counts array
    /// passes that served `i + 1` jobs at once.
    pub fn lane_occupancy(&self) -> Vec<u64> {
        let len = self
            .workers
            .iter()
            .map(|w| w.lane_occupancy.len())
            .max()
            .unwrap_or(0);
        let mut merged = vec![0u64; len];
        for w in &self.workers {
            for (slot, &c) in w.lane_occupancy.iter().enumerate() {
                merged[slot] += c;
            }
        }
        merged
    }

    fn merged(&self, pick: impl Fn(&WorkerSnapshot) -> &HistogramSnapshot) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for w in &self.workers {
            merged.merge(pick(w));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker row recorded through the live ledger: `exact` of the
    /// `completed` jobs (10 predicted = 10 measured cycles each) count as
    /// exact, plus `failures` failed and `shed` shed jobs.
    fn worker(completed: usize, exact: usize, failures: usize, shed: usize) -> WorkerSnapshot {
        let live = WorkerLive::new(ArrayClass::Linear, 0, true);
        for i in 0..completed {
            live.record_completion(1, 1, 2, 10, 10, i < exact, false);
        }
        for _ in 0..failures {
            live.record_failure();
        }
        for _ in 0..shed {
            live.record_shed();
        }
        live.record_batch(Duration::from_millis(25 * completed as u64));
        live.snapshot(0)
    }

    #[test]
    fn aggregates_sum_over_workers() {
        // The second worker delivered one inexact job, failed one and shed
        // one: the failure counts toward `failures` but neither toward
        // `completed` nor the exact fraction's denominator.
        let snapshot = FarmSnapshot {
            at: Duration::from_millis(100),
            max_depth: 9,
            workers: vec![worker(4, 4, 0, 0), worker(1, 0, 1, 1)],
            ..FarmSnapshot::default()
        };
        assert_eq!(snapshot.completed(), 5);
        assert_eq!(snapshot.failures(), 1);
        assert_eq!(snapshot.shed(), 1);
        assert_eq!(snapshot.max_depth, 9);
        assert_eq!(snapshot.predicted_cycles(), 50);
        assert_eq!(snapshot.measured_cycles(), 50);
        assert!((snapshot.exact_prediction_fraction() - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(snapshot.e2e_latency().count(), 5);
        let busy: Vec<f64> = snapshot
            .workers
            .iter()
            .map(|w| w.utilization(snapshot.at))
            .collect();
        assert_eq!(busy, vec![1.0, 0.25]);
    }

    #[test]
    fn tenant_rows_and_shares_are_queryable() {
        let live = FarmLive::new(&[ArrayClass::Linear], 0, true, Instant::now());
        for _ in 0..4 {
            live.tenant(7).record_completion(2, 10, 10);
        }
        live.tenant(3).record_shed();
        // Tenant 9 was admitted twice and cancelled twice: it has no live
        // rollup, only a queue account.
        let snapshot = FarmSnapshot {
            tenants: live.tenant_snapshots(&[(7, 4, 0), (9, 2, 2)]),
            ..FarmSnapshot::default()
        };
        let ids: Vec<u32> = snapshot.tenants.iter().map(|t| t.tenant).collect();
        assert_eq!(ids, vec![3, 7, 9], "every tenant seen, sorted by id");
        let row = snapshot.tenant(7).expect("tenant 7 exists");
        assert_eq!(
            (row.submitted, row.served, row.predicted_cycles),
            (4, 4, 40)
        );
        assert_eq!(row.e2e.count(), 4);
        let cancelled = snapshot.tenant(9).expect("tenant 9 exists");
        assert_eq!((cancelled.submitted, cancelled.cancelled), (2, 2));
        assert_eq!(cancelled.served, 0);
        let shed = snapshot.tenant(3).expect("admission-shed tenant exists");
        assert_eq!((shed.submitted, shed.shed), (0, 1));
        assert!(snapshot.tenant(8).is_none());
    }

    #[test]
    fn empty_farm_degenerates_to_zero() {
        let snapshot = FarmSnapshot::default();
        assert_eq!(snapshot.completed(), 0);
        assert_eq!(snapshot.shed(), 0);
        assert_eq!(snapshot.max_depth, 0);
        assert_eq!(snapshot.predicted_cycles(), 0);
        // Nothing delivered, nothing mispredicted.
        assert_eq!(snapshot.exact_prediction_fraction(), 1.0);
        assert_eq!(snapshot.operand_hit_ratio(), 0.0);
        assert!(snapshot.lane_occupancy().is_empty());
        assert!(snapshot.tenant(0).is_none());
        assert_eq!(worker(0, 0, 0, 0).utilization(Duration::ZERO), 0.0);
    }
}
