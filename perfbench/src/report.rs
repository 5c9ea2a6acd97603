//! Metric bookkeeping and output: summary statistics, the process's
//! peak resident set, and the final one-line JSON result.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of unsorted samples (exact, not bucketed).
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "quantile of nothing");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// `num / den`, 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Named metrics with units, in insertion order. Notes are shown with
/// the metrics but left out of the result line.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.rows.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.rows.push((name, value, unit));
    }

    #[cfg(test)]
    pub fn names(&self) -> Vec<&'static str> {
        self.rows.iter().map(|r| r.0).collect()
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// One human-readable line per metric and note.
    pub fn render_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (name, value, unit) in self.rows.iter().chain(&self.notes) {
            let _ = writeln!(out, "{workload:>16} {name:<40} {value:>18.6} {unit}");
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, are
/// written as 0 and flagged by the caller's checks).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// The result line: correctness verdict, operation counts, metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        let mut m = Metrics::default();
        m.put("a", 2.5, "ms");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a\":{\"value\":2.5,\"unit\":\"ms\"}}}"
        );
    }
}
