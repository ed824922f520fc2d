//! No-dependency exporters for the farm's observability data.
//!
//! * [`prometheus_text`] renders a [`FarmSnapshot`] in the Prometheus
//!   text exposition format (`# TYPE` lines, `_bucket{le="…"}` /
//!   `_sum` / `_count` histogram triples) — scrape-ready.
//! * [`chrome_trace_json`] renders a slice of [`JobEvent`]s as Chrome
//!   trace-event JSON (load in `chrome://tracing` or Perfetto): one
//!   complete `"X"` span per job covering its queue + service phases on
//!   the serving worker's track, instant events for shed / cancelled /
//!   failed jobs, and one named track per worker.
//!
//! Both serializers are hand-rolled string builders — the container has
//! no crates.io access, and neither format needs more than that.

use crate::metrics::HistogramSnapshot;
use crate::snapshot::FarmSnapshot;
use crate::trace::{JobEvent, JobEventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1000.0
}

/// Renders Chrome trace-event JSON from job lifecycle events.
///
/// Jobs with a `Queued`/`Dispatched` and a terminal event become one
/// complete span from enqueue to completion on the serving worker's
/// track (`tid` = worker index), with the queue/service split in the
/// span's `args`; terminal shed / cancelled / failed events additionally
/// emit instants.  Jobs still in flight when the events were collected
/// are skipped.  Timestamps are microseconds since farm start.
pub fn chrome_trace_json(events: &[JobEvent]) -> String {
    #[derive(Default)]
    struct JobTrail {
        queued: Option<Duration>,
        dispatched: Option<(Duration, u32)>,
        lane_packed: bool,
        operand_staged: bool,
        operand_hit: bool,
        terminal: Option<(Duration, JobEventKind, Option<u32>)>,
        tenant: u32,
        shape: &'static str,
        predicted: u64,
    }

    let mut trails: BTreeMap<u64, JobTrail> = BTreeMap::new();
    let mut workers: Vec<u32> = Vec::new();
    for ev in events {
        if let Some(w) = ev.worker {
            if ev.kind != JobEventKind::Queued && !workers.contains(&w) {
                workers.push(w);
            }
        }
        let trail = trails.entry(ev.job).or_default();
        trail.tenant = ev.tenant;
        trail.shape = ev.shape.label();
        trail.predicted = ev.predicted_cycles;
        match ev.kind {
            JobEventKind::Admitted => {}
            JobEventKind::Queued => trail.queued = Some(ev.at),
            JobEventKind::Dispatched => {
                trail.dispatched = Some((ev.at, ev.worker.unwrap_or(0)));
            }
            JobEventKind::LanePacked => trail.lane_packed = true,
            // Residency markers are mid-serve annotations, never a span
            // end — folding them into `terminal` would truncate the job's
            // span at its staging step.
            JobEventKind::OperandStaged => trail.operand_staged = true,
            JobEventKind::OperandHit => trail.operand_hit = true,
            kind => trail.terminal = Some((ev.at, kind, ev.worker)),
        }
    }
    workers.sort_unstable();

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&line);
    };

    for &w in &workers {
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }

    for (job, trail) in &trails {
        let Some((end, kind, end_worker)) = trail.terminal else {
            continue; // still in flight
        };
        let start = trail
            .queued
            .or(trail.dispatched.map(|(at, _)| at))
            .unwrap_or(end);
        let tid = trail.dispatched.map(|(_, w)| w).or(end_worker).unwrap_or(0);
        if kind == JobEventKind::Completed || kind == JobEventKind::Failed {
            let queue_us = trail
                .dispatched
                .map(|(at, _)| us(at.saturating_sub(start)))
                .unwrap_or(0.0);
            push(
                format!(
                    "{{\"name\":\"job {job} ({shape})\",\"ph\":\"X\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                     \"args\":{{\"tenant\":{tenant},\"shape\":\"{shape}\",\
                     \"predicted_cycles\":{predicted},\"queue_us\":{queue_us:.3},\
                     \"lane_packed\":{lane},\"operand_staged\":{staged},\
                     \"operand_hit\":{hit},\"outcome\":\"{outcome}\"}}}}",
                    shape = trail.shape,
                    ts = us(start),
                    dur = us(end.saturating_sub(start)).max(0.001),
                    tenant = trail.tenant,
                    predicted = trail.predicted,
                    lane = trail.lane_packed,
                    staged = trail.operand_staged,
                    hit = trail.operand_hit,
                    outcome = kind.label(),
                ),
                &mut out,
                &mut first,
            );
        }
        if kind != JobEventKind::Completed {
            push(
                format!(
                    "{{\"name\":\"job {job} {outcome}\",\"ph\":\"i\",\"pid\":0,\
                     \"tid\":{tid},\"ts\":{ts:.3},\"s\":\"t\",\
                     \"args\":{{\"tenant\":{tenant},\"shape\":\"{shape}\"}}}}",
                    outcome = kind.label(),
                    ts = us(end),
                    tenant = trail.tenant,
                    shape = trail.shape,
                ),
                &mut out,
                &mut first,
            );
        }
    }

    out.push_str("\n]}\n");
    out
}

struct Prom {
    out: String,
}

impl Prom {
    fn family(&mut self, name: &str, kind: &str) {
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &str, value: impl std::fmt::Display) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {value}");
        } else {
            let _ = writeln!(self.out, "{name}{{{labels}}} {value}");
        }
    }

    /// One histogram (`_bucket`/`_sum`/`_count`), values converted from
    /// nanoseconds to seconds.
    fn histogram_ns(&mut self, name: &str, labels: &str, h: &HistogramSnapshot) {
        let sep = if labels.is_empty() { "" } else { "," };
        for (bound, cumulative) in h.cumulative_buckets() {
            let _ = writeln!(
                self.out,
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}",
                le = bound as f64 / 1e9,
            );
        }
        let _ = writeln!(
            self.out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}",
            count = h.count(),
        );
        self.sample(&format!("{name}_sum"), labels, h.sum() as f64 / 1e9);
        self.sample(&format!("{name}_count"), labels, h.count());
    }
}

/// Renders a [`FarmSnapshot`] in the Prometheus text exposition format.
///
/// Counter families are suffixed `_total`, histograms expose
/// `_bucket{le="…"}` in seconds with cumulative counts plus `_sum` /
/// `_count`, gauges are bare.  Workers are labeled `worker`/`class`,
/// tenants `tenant`, station counters `array`.
pub fn prometheus_text(s: &FarmSnapshot) -> String {
    type Pick = fn(&crate::WorkerSnapshot) -> u64;
    let mut p = Prom { out: String::new() };

    p.family("sia_farm_uptime_seconds", "gauge");
    p.sample("sia_farm_uptime_seconds", "", s.at.as_secs_f64());
    for (name, value) in [
        ("sia_farm_submitted_total", s.submitted),
        ("sia_farm_cancelled_total", s.cancelled),
        ("sia_farm_shed_admission_total", s.shed_at_admission),
        ("sia_farm_steals_total", s.steals),
        ("sia_farm_completed_total", s.completed()),
        ("sia_farm_failures_total", s.failures()),
        ("sia_farm_shed_dispatch_total", s.shed()),
        ("sia_farm_predicted_cycles_total", s.predicted_cycles()),
        ("sia_farm_measured_cycles_total", s.measured_cycles()),
        ("sia_farm_skipped_cycles_total", s.skipped_cycles()),
        ("sia_farm_operand_hits_total", s.operand_hits()),
        ("sia_farm_operand_misses_total", s.operand_misses()),
        ("sia_farm_operand_evictions_total", s.operand_evictions()),
        ("sia_farm_staging_cycles_total", s.staging_cycles()),
        ("sia_farm_allocations_total", s.allocations),
        ("sia_farm_trace_events_total", s.trace_recorded),
        ("sia_farm_trace_dropped_total", s.trace_dropped),
    ] {
        p.family(name, "counter");
        p.sample(name, "", value);
    }
    p.family("sia_farm_queue_depth", "gauge");
    p.sample("sia_farm_queue_depth", "", s.depth);
    p.family("sia_farm_queue_depth_max", "gauge");
    p.sample("sia_farm_queue_depth_max", "", s.max_depth);
    p.family("sia_farm_exact_prediction_fraction", "gauge");
    p.sample(
        "sia_farm_exact_prediction_fraction",
        "",
        s.exact_prediction_fraction(),
    );
    p.family("sia_farm_operand_hit_ratio", "gauge");
    p.sample("sia_farm_operand_hit_ratio", "", s.operand_hit_ratio());

    let worker_counters: [(&str, Pick); 12] = [
        ("sia_worker_jobs_total", |w| w.jobs),
        ("sia_worker_coalesced_jobs_total", |w| w.coalesced_jobs),
        ("sia_worker_batches_total", |w| w.batches),
        ("sia_worker_failures_total", |w| w.failures),
        ("sia_worker_shed_total", |w| w.shed),
        ("sia_worker_predicted_cycles_total", |w| w.predicted_cycles),
        ("sia_worker_measured_cycles_total", |w| w.measured_cycles),
        ("sia_worker_exact_predictions_total", |w| {
            w.exact_predictions
        }),
        ("sia_worker_operand_hits_total", |w| w.operand_hits),
        ("sia_worker_operand_misses_total", |w| w.operand_misses),
        ("sia_worker_operand_evictions_total", |w| {
            w.operand_evictions
        }),
        ("sia_worker_staging_cycles_total", |w| w.staging_cycles),
    ];
    for (name, pick) in worker_counters {
        p.family(name, "counter");
        for w in &s.workers {
            p.sample(
                name,
                &format!("worker=\"{}\",class=\"{}\"", w.worker, w.class.label()),
                pick(w),
            );
        }
    }
    p.family("sia_worker_busy_seconds_total", "counter");
    for w in &s.workers {
        p.sample(
            "sia_worker_busy_seconds_total",
            &format!("worker=\"{}\",class=\"{}\"", w.worker, w.class.label()),
            w.busy.as_secs_f64(),
        );
    }
    for (name, hex, linear) in [
        (
            "sia_station_runs_total",
            (|w: &crate::WorkerSnapshot| w.hex_runs) as Pick,
            (|w: &crate::WorkerSnapshot| w.linear_runs) as Pick,
        ),
        (
            "sia_station_cycles_total",
            |w: &crate::WorkerSnapshot| w.hex_cycles,
            |w: &crate::WorkerSnapshot| w.linear_cycles,
        ),
        (
            "sia_station_skipped_cycles_total",
            |w: &crate::WorkerSnapshot| w.hex_skipped_cycles,
            |w: &crate::WorkerSnapshot| w.linear_skipped_cycles,
        ),
    ] {
        p.family(name, "counter");
        for w in &s.workers {
            p.sample(
                name,
                &format!("worker=\"{}\",array=\"hex\"", w.worker),
                hex(w),
            );
            p.sample(
                name,
                &format!("worker=\"{}\",array=\"linear\"", w.worker),
                linear(w),
            );
        }
    }
    p.family("sia_worker_lane_passes_total", "counter");
    for w in &s.workers {
        for (slot, &count) in w.lane_occupancy.iter().enumerate() {
            if count > 0 {
                p.sample(
                    "sia_worker_lane_passes_total",
                    &format!("worker=\"{}\",lanes=\"{}\"", w.worker, slot + 1),
                    count,
                );
            }
        }
    }
    for (name, pick) in [
        (
            "sia_worker_queue_latency_seconds",
            (|w| &w.queue) as fn(&crate::WorkerSnapshot) -> &HistogramSnapshot,
        ),
        ("sia_worker_service_latency_seconds", |w| &w.service),
        ("sia_worker_e2e_latency_seconds", |w| &w.e2e),
    ] {
        p.family(name, "histogram");
        for w in &s.workers {
            p.histogram_ns(name, &format!("worker=\"{}\"", w.worker), pick(w));
        }
    }
    p.family("sia_worker_cycle_error_abs", "histogram");
    for w in &s.workers {
        let mut err = w.cycle_error.pos.clone();
        err.merge(&w.cycle_error.neg);
        // Cycle counts, not nanoseconds, but the bucket scheme is the
        // same; bounds stay in cycles.
        for (bound, cumulative) in err.cumulative_buckets() {
            let _ = writeln!(
                p.out,
                "sia_worker_cycle_error_abs_bucket{{worker=\"{}\",le=\"{bound}\"}} {cumulative}",
                w.worker,
            );
        }
        let _ = writeln!(
            p.out,
            "sia_worker_cycle_error_abs_bucket{{worker=\"{}\",le=\"+Inf\"}} {}",
            w.worker,
            err.count(),
        );
        p.sample(
            "sia_worker_cycle_error_abs_sum",
            &format!("worker=\"{}\"", w.worker),
            err.sum(),
        );
        p.sample(
            "sia_worker_cycle_error_abs_count",
            &format!("worker=\"{}\"", w.worker),
            err.count(),
        );
    }

    for (name, pick) in [
        (
            "sia_tenant_served_total",
            (|t| t.served) as fn(&crate::TenantSnapshot) -> u64,
        ),
        ("sia_tenant_shed_total", |t| t.shed),
        ("sia_tenant_predicted_cycles_total", |t| t.predicted_cycles),
        ("sia_tenant_measured_cycles_total", |t| t.measured_cycles),
    ] {
        p.family(name, "counter");
        for t in &s.tenants {
            p.sample(name, &format!("tenant=\"{}\"", t.tenant), pick(t));
        }
    }
    p.family("sia_tenant_e2e_latency_seconds", "histogram");
    for t in &s.tenants {
        p.histogram_ns(
            "sia_tenant_e2e_latency_seconds",
            &format!("tenant=\"{}\"", t.tenant),
            &t.e2e,
        );
    }

    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn ev(job: u64, at_us: u64, kind: JobEventKind, worker: Option<u32>) -> JobEvent {
        JobEvent {
            at: Duration::from_micros(at_us),
            job,
            kind,
            tenant: 1,
            shape: JobKind::DenseMv,
            worker,
            predicted_cycles: 100,
        }
    }

    #[test]
    fn chrome_trace_emits_one_span_per_completed_job() {
        let events = vec![
            ev(1, 10, JobEventKind::Admitted, None),
            ev(1, 11, JobEventKind::Queued, Some(0)),
            ev(1, 20, JobEventKind::Dispatched, Some(1)),
            ev(1, 80, JobEventKind::Completed, Some(1)),
            ev(2, 12, JobEventKind::Queued, Some(1)),
            ev(2, 30, JobEventKind::Dispatched, Some(1)),
            ev(2, 90, JobEventKind::Failed, Some(1)),
            ev(3, 14, JobEventKind::Queued, Some(0)),
            ev(3, 40, JobEventKind::Cancelled, None),
            ev(4, 15, JobEventKind::Queued, Some(0)),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "{json}");
        // Job 1's span: queued at 11us, completed at 80us, on worker 1.
        assert!(json.contains("\"ts\":11.000,\"dur\":69.000"), "{json}");
        // Failed and cancelled emit instants; in-flight job 4 emits
        // nothing.
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
        assert!(!json.contains("job 4"));
        // One metadata record per serving worker (only worker 1 ever
        // dispatched anything here).
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 1);
        assert!(json.contains("\"name\":\"worker 1\""));
        assert!(json.contains("\"outcome\":\"completed\""));
        // No trailing commas before closing brackets.
        assert!(!json.contains(",]") && !json.contains(",\n]"));
    }

    #[test]
    fn prometheus_text_has_families_buckets_and_counts() {
        use crate::metrics::LogHistogram;
        let h = LogHistogram::new();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.record(v);
        }
        let snapshot = FarmSnapshot {
            at: Duration::from_secs(2),
            submitted: 4,
            workers: vec![crate::WorkerSnapshot {
                worker: 0,
                class: crate::ArrayClass::Linear,
                jobs: 4,
                coalesced_jobs: 2,
                batches: 3,
                failures: 0,
                shed: 0,
                busy: Duration::from_millis(5),
                predicted_cycles: 400,
                measured_cycles: 400,
                exact_predictions: 4,
                hex_runs: 0,
                hex_cycles: 0,
                hex_skipped_cycles: 0,
                linear_runs: 4,
                linear_cycles: 400,
                linear_skipped_cycles: 37,
                operand_hits: 3,
                operand_misses: 1,
                operand_evictions: 0,
                staging_cycles: 40,
                lane_occupancy: vec![2, 1, 0, 0],
                queue: h.snapshot(),
                service: h.snapshot(),
                e2e: h.snapshot(),
                cycle_error: Default::default(),
                trace_recorded: 12,
                trace_dropped: 0,
            }],
            tenants: vec![crate::TenantSnapshot {
                tenant: 7,
                submitted: 4,
                cancelled: 0,
                served: 4,
                shed: 0,
                predicted_cycles: 400,
                measured_cycles: 400,
                e2e: h.snapshot(),
                cycle_error: Default::default(),
            }],
            ..Default::default()
        };
        let text = prometheus_text(&snapshot);
        assert!(text.contains("# TYPE sia_farm_submitted_total counter"));
        assert!(text.contains("sia_farm_submitted_total 4"));
        assert!(text.contains("# TYPE sia_worker_e2e_latency_seconds histogram"));
        assert!(text.contains("sia_worker_e2e_latency_seconds_bucket{worker=\"0\",le=\"+Inf\"} 4"));
        assert!(text.contains("sia_worker_e2e_latency_seconds_count{worker=\"0\"} 4"));
        assert!(text.contains("sia_station_skipped_cycles_total{worker=\"0\",array=\"linear\"} 37"));
        assert!(text.contains("sia_worker_lane_passes_total{worker=\"0\",lanes=\"2\"} 1"));
        assert!(text.contains("sia_tenant_served_total{tenant=\"7\"} 4"));
        assert!(text.contains("sia_worker_operand_hits_total{worker=\"0\",class=\"linear\"} 3"));
        assert!(text.contains("sia_worker_staging_cycles_total{worker=\"0\",class=\"linear\"} 40"));
        assert!(text.contains("sia_farm_operand_hit_ratio 0.75"));
        assert!(text.contains("sia_farm_staging_cycles_total 40"));
        // Histogram invariants: every bucket line parses as
        // name{labels} value, cumulative counts are monotone per
        // labeled family, and +Inf matches _count.
        let mut last: Option<u64> = None;
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with("sia_worker_e2e_latency_seconds_bucket{worker=\"0\"") {
                let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                if let Some(prev) = last {
                    assert!(value >= prev, "non-monotone cumulative bucket: {line}");
                }
                last = Some(value);
            }
            if !line.starts_with('#') {
                let (_, value) = line.rsplit_once(' ').expect("sample line");
                assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
            }
        }
        assert_eq!(last, Some(4));
    }
}
