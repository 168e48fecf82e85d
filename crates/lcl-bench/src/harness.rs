//! A minimal benchmark harness (criterion-lite).
//!
//! The workspace builds without external crates, so the `cargo bench` targets
//! use this harness instead of criterion: each bench target sets
//! `harness = false` and drives a [`Bench`] from its `main`. The harness warms
//! up, picks an iteration count so every sample takes a few milliseconds, takes
//! a fixed number of samples, and reports min/median/max per-iteration times on
//! stdout. Re-exported [`black_box`] prevents the optimizer from deleting the
//! benchmarked work.
//!
//! Besides the human-readable table, every bench binary funnels its groups into
//! a [`BenchReport`], which writes a machine-readable `BENCH_<name>.json` at
//! the workspace root (median, min and max nanoseconds, sample and iteration
//! counts per case, plus any named ratios the bench asserts on), headed by
//! the machine's core count and the git revision measured. CI runs the
//! benches on every push, so the sequence of those files tracks the
//! performance trajectory across PRs.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock duration of one measurement sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(5);
/// Default number of measurement samples per benchmark.
const SAMPLES: usize = 11;

/// One measured case: label, the median and spread of the per-iteration
/// time, and how the samples were taken.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The case label passed to [`Bench::case`].
    pub label: String,
    /// Median per-iteration time over the samples.
    pub median: Duration,
    /// Fastest sample's per-iteration time.
    pub min: Duration,
    /// Slowest sample's per-iteration time.
    pub max: Duration,
    /// Number of measurement samples.
    pub samples: usize,
    /// Iterations per sample chosen by the calibration loop.
    pub iters: usize,
}

/// One benchmark group, printing a header on creation and one line per case.
pub struct Bench {
    name: String,
    results: Vec<CaseResult>,
}

impl Bench {
    /// Starts a named benchmark group.
    pub fn new(name: &str) -> Self {
        println!("== {name}");
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            "case", "min", "median", "max"
        );
        Bench {
            name: name.to_string(),
            results: Vec::new(),
        }
    }

    /// The group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs one benchmark case and prints its timing line. Returns the median
    /// per-iteration time.
    pub fn case<T>(&mut self, label: &str, f: impl FnMut() -> T) -> Duration {
        self.case_samples(label, SAMPLES, f)
    }

    /// [`Bench::case`] with an explicit sample count — heavyweight cases
    /// (whole-universe sweeps, million-node walks) use fewer samples to keep
    /// CI wall-clock bounded.
    pub fn case_samples<T>(
        &mut self,
        label: &str,
        samples: usize,
        mut f: impl FnMut() -> T,
    ) -> Duration {
        let samples = samples.max(1);
        // Warm-up and calibration: find how many iterations fill SAMPLE_TARGET.
        let mut iters = 1usize;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= SAMPLE_TARGET || iters >= 1 << 20 {
                break;
            }
            // Aim past the target so the loop terminates quickly.
            let scale = (SAMPLE_TARGET.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).ceil();
            iters = (iters as f64 * scale.clamp(2.0, 100.0)) as usize;
        }
        let mut measured: Vec<Duration> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed() / iters as u32
            })
            .collect();
        measured.sort_unstable();
        let median = true_median(&measured);
        let (min, max) = (measured[0], measured[samples - 1]);
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            label,
            format_duration(min),
            format_duration(median),
            format_duration(max)
        );
        self.results.push(CaseResult {
            label: label.to_string(),
            median,
            min,
            max,
            samples,
            iters,
        });
        median
    }

    /// The median of a previously run case, by label.
    pub fn median_of(&self, label: &str) -> Option<Duration> {
        self.results
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.median)
    }

    /// All measured cases, in run order.
    pub fn results(&self) -> &[CaseResult] {
        &self.results
    }
}

/// Collects the finished groups and headline ratios of one bench binary and
/// writes them as `BENCH_<name>.json` at the workspace root.
pub struct BenchReport {
    bench: String,
    nproc: usize,
    revision: String,
    groups: Vec<Bench>,
    ratios: Vec<(String, f64)>,
    metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// Starts a report for the bench binary `bench` (the `[[bench]]` name).
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_string(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            revision: git_revision(),
            groups: Vec::new(),
            ratios: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Absorbs a finished group.
    pub fn add_group(&mut self, group: Bench) {
        self.groups.push(group);
    }

    /// Records a named headline ratio `baseline / candidate` (>1 means the
    /// candidate is faster).
    pub fn add_ratio(&mut self, name: &str, baseline: Duration, candidate: Duration) -> f64 {
        let ratio = baseline.as_secs_f64() / candidate.as_secs_f64().max(1e-12);
        self.ratios.push((name.to_string(), ratio));
        ratio
    }

    /// Records a named scalar metric that is not a time ratio — latency
    /// percentiles, throughput, counts. Units go in the name
    /// (`p99_cold_us`, `throughput_warm_rps`).
    pub fn add_metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Writes `BENCH_<name>.json` at the workspace root and returns its path.
    /// Benches run with the package directory as CWD, so the root is resolved
    /// relative to this crate's manifest.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()?
            .join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_json())?;
        println!("bench report written to {}", path.display());
        Ok(path)
    }

    /// The report as a JSON document (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str(&format!("  \"nproc\": {},\n", self.nproc));
        out.push_str(&format!(
            "  \"git_revision\": \"{}\",\n",
            escape(&self.revision)
        ));
        out.push_str("  \"groups\": [\n");
        for (gi, group) in self.groups.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"cases\": [\n",
                escape(&group.name)
            ));
            for (ci, case) in group.results.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": {}, \"iters\": {}}}{}\n",
                    escape(&case.label),
                    case.median.as_nanos(),
                    case.min.as_nanos(),
                    case.max.as_nanos(),
                    case.samples,
                    case.iters,
                    if ci + 1 < group.results.len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if gi + 1 < self.groups.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        if !self.metrics.is_empty() {
            out.push_str("  \"metrics\": {");
            for (i, (name, value)) in self.metrics.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {:.4}", escape(name), value));
            }
            out.push_str("},\n");
        }
        out.push_str("  \"ratios\": {");
        for (i, (name, ratio)) in self.ratios.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {:.4}", escape(name), ratio));
        }
        out.push_str("}\n}\n");
        out
    }
}

/// The workspace's git revision: the commit's 12-digit abbreviation, with
/// `-dirty` when tracked files differ from it, or `"unknown"` when `git` or
/// the repository is not there.
fn git_revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(&root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
    };
    let Some(head) = git(&["rev-parse", "--short=12", "HEAD"]).filter(|o| o.status.success())
    else {
        return "unknown".into();
    };
    let head = String::from_utf8_lossy(&head.stdout).trim().to_string();
    if head.is_empty() {
        return "unknown".into();
    }
    let dirty = git(&["diff", "--quiet", "HEAD"]).is_some_and(|o| o.status.code() == Some(1));
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// True median of a sorted, non-empty sample list: the middle element for odd
/// lengths, the midpoint of the two middle elements for even lengths (the
/// upper-mid element alone would bias even-sample medians upward).
fn true_median(sorted: &[Duration]) -> Duration {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2
    }
}

/// Renders a duration with an adaptive unit (`ns`, `µs`, `ms`, `s`).
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_reports_a_positive_median() {
        let mut b = Bench::new("harness-selftest");
        let median = b.case("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert!(median > Duration::ZERO);
        assert_eq!(b.median_of("spin"), Some(median));
        assert_eq!(b.median_of("missing"), None);
        assert_eq!(b.results().len(), 1);
        assert!(b.results()[0].iters >= 1);
    }

    #[test]
    fn median_is_the_midpoint_for_even_sample_counts() {
        let ms = |n: u64| Duration::from_millis(n);
        // Odd length: exact middle element.
        assert_eq!(true_median(&[ms(1), ms(2), ms(9)]), ms(2));
        assert_eq!(true_median(&[ms(5)]), ms(5));
        // Even length: midpoint of the two middle elements, NOT the upper one.
        assert_eq!(true_median(&[ms(1), ms(3)]), ms(2));
        assert_eq!(true_median(&[ms(1), ms(2), ms(4), ms(100)]), ms(3));
    }

    #[test]
    fn duration_formatting_units() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(format_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(format_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn report_json_shape() {
        let mut group = Bench::new("g \"quoted\"");
        group.case_samples("fast", 3, || black_box(1 + 1));
        let case = group.results()[0].clone();
        assert_eq!(case.samples, 3);
        assert!(case.min <= case.median && case.median <= case.max);
        let mut report = BenchReport::new("selftest");
        report.add_group(group);
        let ratio = report.add_ratio(
            "speedup",
            Duration::from_nanos(200),
            Duration::from_nanos(100),
        );
        assert_eq!(ratio, 2.0);
        report.add_metric("p99_us", 123.456);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"selftest\""));
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(json.contains(&format!("\"nproc\": {nproc},")));
        assert!(json.contains("\"git_revision\": \""));
        assert!(json.contains(&format!(
            "\"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"samples\": 3, \"iters\": {}",
            case.median.as_nanos(),
            case.min.as_nanos(),
            case.max.as_nanos(),
            case.iters
        )));
        assert!(json.contains("\"speedup\":"));
        assert!(json.contains("\"metrics\": {\"p99_us\": 123.4560}"));
        assert!(json.contains("g \\\"quoted\\\""));
    }

    #[test]
    fn report_without_metrics_omits_the_key() {
        let report = BenchReport::new("plain");
        assert!(!report.to_json().contains("\"metrics\""));
    }
}
