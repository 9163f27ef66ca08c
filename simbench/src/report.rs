//! Output: the provenance line, per-metric detail lines and the final
//! one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;

use crate::stats;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `x` (`null` if not finite).
#[must_use]
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The final result line.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = failed == 0 && attempted > 0 && metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A detail line for a metric derived from per-sample values: median,
/// sample count, spread (interquartile distance over median) and the
/// slow-side tail of the underlying timing samples.
#[must_use]
pub fn detail_line(name: &str, unit: &str, samples: &[f64], timing: &str, times: &[f64]) -> String {
    let tail = stats::tail(times).map_or_else(
        || "null".to_string(),
        |(p, v)| format!("{{\"percentile\": {}, \"value\": {}}}", json_num(p), json_num(v)),
    );
    format!(
        "detail {{\"metric\": {}, \"unit\": {}, \"median\": {}, \"samples\": {}, \"spread\": {}, \
         \"timing\": {}, \"timing_median\": {}, \"timing_tail\": {}, \"timing_samples\": [{}]}}",
        json_str(name),
        json_str(unit),
        json_num(stats::median(samples)),
        samples.len(),
        json_num(stats::spread(samples)),
        json_str(timing),
        json_num(stats::median(times)),
        tail,
        times.iter().map(|&t| json_num(t)).collect::<Vec<_>>().join(", ")
    )
}

/// Peak resident set of this process so far (`VmHWM`), as the
/// `peak_rss_mb` metric; not finite (so the run reports `correct: false`)
/// where the platform does not report it.
///
/// Callers read it right after the warm-up repetition: later ones reuse
/// freed memory in allocator-dependent ways, which made the end-of-run
/// peak jump by ~6 MiB between seeds of the same workload.
#[must_use]
pub fn peak_rss() -> Metric {
    let read = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    };
    Metric::new("peak_rss_mb", read().unwrap_or(f64::NAN), "MiB")
}

/// The commit checked out under `root`, read from `.git` without running
/// git; `unknown` outside a git checkout.
#[must_use]
pub fn git_commit(root: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let git = root.join(".git");
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(id) = read(&git.join(reference)) {
        return id;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(3, 1, &[]).starts_with("{\"correct\": false"));
        assert!(result_line(1, 0, &[Metric::new("x", f64::NAN, "s")]).contains("null"));
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
