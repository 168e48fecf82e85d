//! Run configuration, the result every workload returns, and the small
//! measurement helpers they share (percentiles, process RSS and CPU time).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What one benchmark run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed: the only source of the workload's inputs.
    pub seed: u64,
    /// Nominal run length. Work is a fixed function of it (never of elapsed
    /// time), so a faster program finishes the same work sooner.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

impl RunConfig {
    /// `per_second × seconds`, at least `min`: the fixed work size of a run.
    pub fn work(&self, per_second: f64, min: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(min)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused (they count in `error_share`).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Exact counts that must repeat for a given seed and work size.
    pub ledger: BTreeMap<&'static str, u64>,
    /// First failed check, for the error message.
    pub problem: Option<String>,
}

impl RunResult {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Marks the run incorrect, keeping the first reason.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        if self.problem.is_none() {
            self.problem = Some(why.into());
        }
    }

    /// The end-to-end metrics every workload reports, in `BENCHMARK.json`
    /// order.
    pub fn end_to_end(&mut self, setup_s: f64, throughput: f64, p50_ns: f64, p99_ns: f64) {
        self.metric("setup_s", setup_s, "s");
        self.metric("throughput_per_s", throughput, "1/s");
        self.metric("op_p50_us", p50_ns / 1e3, "us");
        self.metric("op_p99_us", p99_ns / 1e3, "us");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        let attempted = self.attempted.max(1) as f64;
        self.metric("ok_share", 1.0 - self.failed as f64 / attempted, "share");
    }

    /// The JSON result line (the last line of standard output).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The ledger as one line of `name=count` pairs.
    pub fn ledger_line(&self) -> String {
        let pairs: Vec<String> = self
            .ledger
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("ledger {}", pairs.join(" "))
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Nearest-rank percentile of `ns` (`q` in 0..=1); 0 for no samples.
pub fn percentile(ns: &[u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of a few durations, in seconds.
pub fn median_s(samples: &[Duration]) -> f64 {
    let ns: Vec<u64> = samples.iter().map(|d| d.as_nanos() as u64).collect();
    percentile(&ns, 0.5) / 1e9
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// User + system CPU time of this process so far (all threads, including
/// finished ones), in seconds, at clock-tick resolution.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // The Linux clock-tick rate is 100 Hz on every supported architecture.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// A temporary directory inside the benchmark's own directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `perfbench/tmp/<name>-<pid>-<n>` (fresh, unique per call).
    pub fn new(name: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = bench_dir()
            .join("tmp")
            .join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The benchmark package's directory (where its data files live).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let ns: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&ns, 0.5), 50.0);
        assert_eq!(percentile(&ns, 0.99), 99.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn the_result_line_has_the_four_keys() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            ..RunResult::default()
        };
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
