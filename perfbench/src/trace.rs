//! In-memory spans around the benchmark's calls into each layer.
//!
//! Each client thread owns a [`Tracer`]; nothing is shared or locked while
//! the traced window runs.  At the end the tracers are merged, self time
//! is computed per span (its duration minus what its children cover), and
//! the spans are written once as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span, with times in ns since the tracers' shared epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Farm job id (0 until known; children inherit their root's).
    pub job: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span log.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for thread `thread`, timing against `epoch`, with room for
    /// `capacity` spans before it has to grow.
    pub fn new(epoch: Instant, thread: u32, capacity: usize) -> Self {
        Tracer {
            epoch,
            thread,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` and returns its index.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `index`.
    pub fn close(&mut self, index: u32) {
        let end = self.now();
        self.spans[index as usize].end = end;
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let span = self.open(name, parent);
        let result = f();
        self.close(span);
        result
    }

    /// Stamps span `index` with the farm job id.
    pub fn set_job(&mut self, index: u32, job: u64) {
        self.spans[index as usize].job = job;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name rollup of a set of tracers.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Every span's duration, ns.
    pub durations: Vec<u64>,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Rolls up spans by name: durations and self time.
pub fn rollup(tracers: &[Tracer]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for tracer in tracers {
        let mut covered = vec![0u64; tracer.spans.len()];
        for span in &tracer.spans {
            if span.parent != ROOT {
                covered[span.parent as usize] += span.duration();
            }
        }
        for (span, covered) in tracer.spans.iter().zip(covered) {
            let stats = out.entry(span.name).or_default();
            stats.durations.push(span.duration());
            stats.self_ns += span.duration().saturating_sub(covered);
        }
    }
    out
}

/// Renders the spans as Chrome trace-event JSON (`"ph": "X"` complete
/// events, µs timestamps), writing at most `limit` spans per tracer so a
/// long window stays a readable file.  Children carry their root's job id.
pub fn chrome_json(tracers: &[Tracer], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for tracer in tracers {
        for (index, span) in tracer.spans.iter().enumerate().take(limit) {
            let mut root = index;
            while tracer.spans[root].parent != ROOT {
                root = tracer.spans[root].parent as usize;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{},\"span\":{},\"parent\":{}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                tracer.thread,
                span.start as f64 / 1e3,
                span.duration() as f64 / 1e3,
                tracer.spans[root].job,
                index,
                if span.parent == ROOT {
                    -1
                } else {
                    i64::from(span.parent)
                },
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 0, 4);
        t.spans = vec![
            span("bench.job", 0, 100, ROOT),
            span("worker.submit", 10, 30, 0),
            span("worker.wait", 30, 90, 0),
        ];
        t.spans[0].job = 7;
        let stats = rollup(std::slice::from_ref(&t));
        assert_eq!(stats["bench.job"].self_ns, 20);
        assert_eq!(stats["worker.submit"].self_ns, 20);
        assert_eq!(stats["worker.wait"].durations, [60]);
        let json = chrome_json(std::slice::from_ref(&t), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"worker.submit\""));
        assert!(json.contains("\"job\":7,\"span\":1,\"parent\":0"));
    }

    #[test]
    fn open_and_close_nest() {
        let mut t = Tracer::new(Instant::now(), 3, 4);
        let root = t.open("bench.job", ROOT);
        let v = t.time("job.validate", root, || 5);
        t.close(root);
        t.set_job(root, 9);
        assert_eq!(v, 5);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, root);
        assert!(t.spans()[0].end >= t.spans()[1].end);
    }
}
