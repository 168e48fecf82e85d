//! Benchmark of the rooted-tree-lcl workspace: three workloads over its user
//! paths, each measured end to end with tracing off, and layer by layer in a
//! separate traced run. See `README.md` in this directory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub mod campaign;
pub mod http_client;
pub mod report;
pub mod serve;
pub mod solve;
pub mod trace;
pub mod verdict;

use report::{percentile, RunConfig, RunResult};
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop `/classify` traffic against an in-process daemon.
    ClassifyServe,
    /// Successive legs of the (δ=2, 4-label) sweep campaign.
    CampaignD2l4,
    /// Flat solves plus full validation on a 2^20-node tree.
    TreeSolve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ClassifyServe,
        Workload::CampaignD2l4,
        Workload::TreeSolve,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClassifyServe => "classify-serve",
            Workload::CampaignD2l4 => "campaign-d2l4",
            Workload::TreeSolve => "tree-solve",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn pass(self, cfg: &RunConfig, tr: &mut Tracer) -> Result<Pass, String> {
        match self {
            Workload::ClassifyServe => serve::pass(cfg, tr),
            Workload::CampaignD2l4 => campaign::pass(cfg, tr),
            Workload::TreeSolve => solve::pass(cfg, tr),
        }
    }
}

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order. Every
/// traced run reports all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.handle_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.load_problem_us", "us"),
    ("serve.render_us", "us"),
    ("serve.connections_opened", "count"),
    ("serve.non_2xx", "count"),
    ("serve.warm_boot_s", "s"),
    ("core.parse_us", "us"),
    ("core.canonical_form_us", "us"),
    ("core.classify_hit_us", "us"),
    ("core.classify_miss_us", "us"),
    ("core.classify_full_us", "us"),
    ("core.memo_hit_share", "share"),
    ("core.sweep_leg_s", "s"),
    ("core.cpu_util", "share"),
    ("core.avg_live_lanes", "count"),
    ("core.scalar_fallbacks", "count"),
    ("core.memo_entries", "count"),
    ("core.snapshot_save_s", "s"),
    ("core.snapshot_load_s", "s"),
    ("core.snapshot_bytes", "bytes"),
    ("problems.filter_masks_per_s", "1/s"),
    ("trees.generate_s", "s"),
    ("trees.level_index_s", "s"),
    ("algorithms.solve_constant_s", "s"),
    ("algorithms.solve_log_star_s", "s"),
    ("algorithms.solve_log_s", "s"),
    ("algorithms.solve_poly_s", "s"),
    ("algorithms.rounds_constant", "count"),
    ("algorithms.rounds_log_star", "count"),
    ("algorithms.rounds_log", "count"),
    ("algorithms.rounds_poly", "count"),
    ("verify.validate_s", "s"),
    ("self.serve_s", "s"),
    ("self.core_s", "s"),
    ("self.problems_s", "s"),
    ("self.trees_s", "s"),
    ("self.algorithms_s", "s"),
    ("self.verify_s", "s"),
    ("self.bench_s", "s"),
    ("trace.accounted_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Per-layer values one traced pass measured, by [`PER_LAYER`] name.
#[derive(Debug, Clone, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets one value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a bug in this crate).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value, or 0 when the workload never reached the layer.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up samples, taken at intervals through the pass.
    pub setup: Vec<Duration>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// First failed output check.
    pub wrong: Option<String>,
    /// Duration of each timed operation, ns.
    pub op_ns: Vec<u64>,
    /// Work the timed operations did, in the workload's throughput unit.
    pub work: u64,
    /// Wall time of the timed operations, ns: the sum of `op_ns` when they
    /// run one after another, less when they overlap.
    pub wall_ns: u64,
    /// Exact counts.
    pub ledger: BTreeMap<&'static str, u64>,
    /// Per-layer values (traced pass only).
    pub layer: LayerMetrics,
}

impl Pass {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok && self.wrong.is_none() {
            self.wrong = Some(why());
        }
    }

    /// Records one operation that ran on its own: `ns` long, `work` done.
    pub fn timed(&mut self, ns: u64, work: u64) {
        self.op_ns.push(ns);
        self.work += work;
        self.wall_ns += ns;
    }

    /// Total time of every timed operation.
    pub fn op_time(&self) -> Duration {
        Duration::from_nanos(self.op_ns.iter().sum())
    }

    /// Adds one exact count (summed over rounds).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.ledger.entry(name).or_insert(0) += n;
    }
}

/// Median of nanosecond samples (0 for none).
pub fn median_ns(ns: &[u64]) -> f64 {
    percentile(ns, 0.5)
}

/// Runs one workload as configured: the end-to-end metrics with tracing off,
/// or, with `cfg.trace`, an untraced and a traced pass whose difference is
/// the tracing overhead, reporting every per-layer metric. The traced run
/// also writes its spans to `traces/<workload>-<seed>.csv` in the benchmark
/// directory.
pub fn run(workload: Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let mut result = RunResult {
        correct: true,
        ..RunResult::default()
    };
    let untraced = workload.pass(cfg, &mut Tracer::new(false, Instant::now()))?;
    absorb_checks(&mut result, &untraced);
    if !cfg.trace {
        // Whole-run figures: every operation counts. Set-up is the median of
        // the samples taken through the run (see README.md for why).
        result.end_to_end(
            report::median_s(&untraced.setup),
            untraced.work as f64 / (untraced.wall_ns.max(1) as f64 / 1e9),
            percentile(&untraced.op_ns, 0.50),
            percentile(&untraced.op_ns, 0.99),
        );
        return Ok(result);
    }

    let mut tr = Tracer::new(true, Instant::now());
    let traced = workload.pass(cfg, &mut tr)?;
    absorb_checks(&mut result, &traced);
    if traced.ledger != untraced.ledger {
        result.fail_check("the traced pass counted differently from the untraced pass");
    }
    let mut layer = traced.layer.clone();
    let by_layer = tr.self_ns_by_layer("op");
    let op_ns = tr.total_ns("op");
    for (metric, key) in [
        ("self.serve_s", "serve"),
        ("self.core_s", "core"),
        ("self.problems_s", "problems"),
        ("self.trees_s", "trees"),
        ("self.algorithms_s", "algorithms"),
        ("self.verify_s", "verify"),
        ("self.bench_s", "op"),
    ] {
        layer.set(metric, by_layer.get(key).copied().unwrap_or(0) as f64 / 1e9);
    }
    let unattributed = by_layer.get("op").copied().unwrap_or(0);
    if op_ns > 0 {
        layer.set(
            "trace.accounted_share",
            1.0 - unattributed as f64 / op_ns as f64,
        );
    }
    let base = untraced.op_time().as_secs_f64().max(1e-9);
    layer.set(
        "trace.overhead_share",
        (traced.op_time().as_secs_f64() - base) / base,
    );
    for (name, unit) in PER_LAYER {
        result.metric(name, layer.get(name), unit);
    }
    let path =
        report::bench_dir()
            .join("traces")
            .join(format!("{}-{}.csv", workload.name(), cfg.seed));
    tr.write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(result)
}

fn absorb_checks(result: &mut RunResult, pass: &Pass) {
    result.attempted += pass.attempted;
    result.failed += pass.failed;
    if let Some(why) = &pass.wrong {
        result.fail_check(why.clone());
    }
    if result.ledger.is_empty() {
        result.ledger = pass.ledger.clone();
    }
}
