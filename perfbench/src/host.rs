//! CPU time the hypervisor stole from this machine, so timings can be
//! taken over the stretches in which the program had the CPUs it ran on.
//!
//! On a virtual machine the host can hold a virtual CPU off its physical
//! one.  The aggregate `cpu` line of `/proc/stat` counts those ticks as
//! `steal`.  A job or a set-up that ran while time was stolen measures the
//! host's other tenants as much as the program: on a shared 2-vCPU host,
//! 20% stolen time quadrupled closed-loop p99 and doubled set-up time while
//! p50 did not move.

use std::io::{BufRead, BufReader};
use std::time::Duration;

/// CPU time used by all of the process's threads, live and exited
/// (`CLOCK_PROCESS_CPUTIME_ID`), or `None` where it cannot be read.  The
/// guest kernel does not charge stolen time to tasks, so unlike wall time
/// this does not stretch when the host steals.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_time() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` of this target's
    // layout, and the clock id is a constant the kernel defines.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    (status == 0).then(|| Duration::new(t.tv_sec as u64, t.tv_nsec as u32))
}

/// CPU time used by the process; not available on this target.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_time() -> Option<Duration> {
    None
}

/// Cumulative CPU ticks of all CPUs: stolen, and in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ticks {
    pub stolen: u64,
    pub total: u64,
}

impl Ticks {
    /// The current counters, or `None` where `/proc/stat` is not readable.
    pub fn now() -> Option<Ticks> {
        let file = std::fs::File::open("/proc/stat").ok()?;
        let mut line = String::new();
        BufReader::new(file).read_line(&mut line).ok()?;
        Ticks::parse(&line)
    }

    /// Parses the aggregate `cpu` line: user nice system idle iowait irq
    /// softirq steal [guest guest_nice].  Guest time is already inside
    /// user and nice, so the total stops at steal.
    fn parse(line: &str) -> Option<Ticks> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "cpu" {
            return None;
        }
        let values: Vec<u64> = fields
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(Ticks {
            stolen: *values.get(7)?,
            total: values.iter().sum(),
        })
    }

    /// Ticks elapsed from `earlier` to `self`.
    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            stolen: self.stolen.saturating_sub(earlier.stolen),
            total: self.total.saturating_sub(earlier.total),
        }
    }

    /// The stolen share of the elapsed ticks (0 when none elapsed).
    pub fn stolen_share(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.stolen as f64 / self.total as f64
        }
    }
}

/// One reading of the counters during a window.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// µs since the window began.
    pub at_us: u32,
    pub ticks: Ticks,
}

/// A stolen share small enough to leave a run in: it stretches the run by
/// about as much, well inside the benchmark's bounds.
pub const QUIET_SHARE: f64 = 0.02;

/// The calm runs of `runs`, in order: those whose stolen share is at most
/// [`QUIET_SHARE`] or at most the `⌈n/2⌉`-th smallest, whichever is larger.
/// So at least the calmer half is kept, and on a quiet host every run.
/// Each run pairs with the ticks that elapsed while it ran.
pub fn calm_runs<T>(runs: &[(T, Ticks)]) -> Vec<&T> {
    let mut shares: Vec<f64> = runs.iter().map(|r| r.1.stolen_share()).collect();
    shares.sort_by(f64::total_cmp);
    let Some(&half) = shares.get(runs.len().div_ceil(2).saturating_sub(1)) else {
        return Vec::new();
    };
    let limit = half.max(QUIET_SHARE);
    runs.iter()
        .filter(|r| r.1.stolen_share() <= limit)
        .map(|r| &r.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let t = Ticks::parse("cpu  100 0 20 300 5 0 1 40 0 0\n").expect("cpu line");
        assert_eq!(
            t,
            Ticks {
                stolen: 40,
                total: 466
            }
        );
        assert!(Ticks::parse("cpu0 1 2 3 4 5 6 7 8").is_none());
        assert!(Ticks::parse("cpu 1 2 3").is_none());
        let later = Ticks {
            stolen: 50,
            total: 566,
        };
        assert_eq!(later.since(t).stolen_share(), 0.1);
        assert_eq!(Ticks::default().stolen_share(), 0.0);
    }

    #[test]
    fn process_cpu_time_counts_this_threads_work() {
        let Some(before) = process_cpu_time() else {
            return;
        };
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(20) {
            std::hint::black_box(0u64);
        }
        let used = process_cpu_time().expect("readable once") - before;
        assert!(used >= Duration::from_millis(10), "{used:?}");
    }

    #[test]
    fn calm_runs_keeps_the_runs_the_host_stole_least_from() {
        let t = |stolen| Ticks { stolen, total: 100 };
        // The two slow runs ran while the host stole time.
        let runs = [
            (0.9, t(30)),
            (0.2, t(0)),
            (0.3, t(1)),
            (0.8, t(20)),
            (0.25, t(0)),
        ];
        assert_eq!(calm_runs(&runs), [&0.2, &0.3, &0.25]);
        let quiet = [(0.4, t(1)), (0.1, t(0)), (0.3, t(2)), (0.2, t(0))];
        assert_eq!(calm_runs(&quiet).len(), 4);
        assert!(calm_runs::<f64>(&[]).is_empty());
    }
}
