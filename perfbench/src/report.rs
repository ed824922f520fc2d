//! The result line and the stamp line printed before it.

use std::fmt::Write as _;
use std::process::Command;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in the order they are reported.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// A JSON number: every digit Rust's shortest round-trip form keeps; a
/// non-finite value (never produced by a valid run) becomes 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal (the inputs here are plain ASCII, so escaping
/// quotes, backslashes and control characters suffices).
fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed,
        body.join(",")
    )
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string())
}

/// The commit the benchmark's source tree is at: `git rev-parse HEAD` when
/// the benchmark sits in a git checkout's root, else `unknown` (an exported
/// tree carries no history).
fn commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let toplevel = first_line("git", &["-C", root, "rev-parse", "--show-toplevel"]);
    let expected = std::fs::canonicalize(root).ok();
    match (toplevel, expected) {
        (Some(top), Some(root)) if std::path::Path::new(&top) == root => {
            first_line("git", &["-C", &top, "rev-parse", "HEAD"]).unwrap_or_default()
        }
        _ => "unknown".to_string(),
    }
}

/// The provenance printed with every result: code, toolchain, machine,
/// inputs, and the sample count behind each percentile.
pub fn stamp_line(
    workload: &str,
    seed: u64,
    traced: bool,
    seconds: u64,
    samples: &[(&str, u64)],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let samples: Vec<String> = samples
        .iter()
        .map(|(name, n)| format!("{}:{n}", string(name)))
        .collect();
    format!(
        "{{\"stamp\":{{\"workload\":{},\"seed\":{seed},\"trace\":{},\"seconds\":{seconds},\
         \"commit\":{},\"nproc\":{nproc},\"rustc\":{},\"profile\":\"{profile}\",\
         \"samples\":{{{}}}}}}}",
        string(workload),
        u8::from(traced),
        string(&commit()),
        string(&rustc),
        samples.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_p50_us", 12.5, "us");
        m.put("setup_s", f64::NAN, "s");
        let line = result_line(10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"latency_p50_us\":{\"value\":12.5,\"unit\":\"us\"},\
             \"setup_s\":{\"value\":0,\"unit\":\"s\"}}}"
        );
        assert!(result_line(10, 1, &m).starts_with("{\"correct\":false"));
        assert_eq!(string("a\"b\\"), "\"a\\\"b\\\\\"");
    }
}
