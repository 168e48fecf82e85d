//! `tree-solve`: `solve_flat` plus a full `LabelingValidator::validate` on a
//! 2^20-node random full binary tree, cycling through one catalog problem per
//! solvable class.
//!
//! A run is a sequence of rounds. Each round rebuilds the same tree and its
//! `LevelIndex` (the set-up sample) [`SETUPS_PER_ROUND`] times, then solves
//! and validates each of the four problems once on the last build. Each
//! solve plus its validation counts as one attempted operation; the timed
//! operation behind `op_p50_us` and `op_p99_us` is a block of
//! [`ROUNDS_PER_OP`] rounds' solves and validations (see there). The
//! classification reports are built before the rounds, so the classifier is
//! not measured.

use std::time::Instant;

use lcl_algorithms::{solve_flat, SolveScratch};
use lcl_core::{ClassificationReport, Complexity, LclProblem};
use lcl_problems::catalog;
use lcl_sim::IdAssignment;
use lcl_trees::FlatTree;
use lcl_verify::LabelingValidator;

use crate::report::RunConfig;
use crate::trace::Tracer;
use crate::{median_ns, LayerMetrics, Pass};

/// Node floor of the solved tree.
pub const NODES: usize = 1 << 20;
/// Seed of the solved tree and of its node identifiers: the inputs of
/// `rtlcl solve <problem> --flat --nodes 1048576`. They are fixed because
/// solve cost depends on them (the log* solve varies by 50% between
/// identifier permutations), so this workload has no seeded input and
/// every seed does the same work.
const TREE_SEED: u64 = 1;
/// Solver threads. One: on the two-vCPU machine this was tuned on, two-worker
/// solves were about 5% faster but spread twice as wide between runs (IQR
/// over median 0.13 against 0.07, alternated runs).
const WORKERS: usize = 1;
/// Rounds per nominal second of run length. A round is [`SETUPS_PER_ROUND`]
/// set-ups (tree and level index) followed by one solve of each class,
/// validated.
pub const ROUNDS_PER_SECOND: f64 = 1.2;
/// Rounds per timed operation. Single solves differ by class by about 5x, so
/// a percentile over them fell on the edge between two classes; a round
/// (about 0.75 s) is one kind of operation, but the host has slow spells of
/// a second or so, and the slowest of a run's 30 rounds, its `op_p99_us`,
/// caught the worst of them (spread 0.31 and 0.33 over ten runs, against the
/// bound 0.25). A block of three rounds (about 2.2 s) dilutes a spell.
pub const ROUNDS_PER_OP: usize = 3;
/// Set-up samples per round; the round solves on the last one built. One
/// sample varies by up to ±30% within a run, so a run takes three per round.
pub const SETUPS_PER_ROUND: usize = 3;

/// The solved problems, one per solvable class: (catalog name, solve span,
/// ledger key of its rounds).
const CLASSES: [(&str, &str, &str); 4] = [
    ("mis", "algorithms.solve_constant", "rounds_constant"),
    ("3-coloring", "algorithms.solve_log_star", "rounds_log_star"),
    ("branch-2-coloring", "algorithms.solve_log", "rounds_log"),
    ("pi-2", "algorithms.solve_poly", "rounds_poly"),
];

struct Class {
    problem: LclProblem,
    report: ClassificationReport,
    validator: LabelingValidator,
    span: &'static str,
    ledger: &'static str,
}

/// One pass of the workload.
pub fn pass(cfg: &RunConfig, tr: &mut Tracer) -> Result<Pass, String> {
    let mut classes = Vec::with_capacity(CLASSES.len());
    for (name, span, ledger) in CLASSES {
        let problem = catalog::by_name(name)
            .ok_or_else(|| format!("catalog problem {name} is missing"))?
            .problem;
        let report = lcl_core::classify(&problem);
        let validator = LabelingValidator::new(&problem);
        classes.push(Class {
            problem,
            report,
            validator,
            span,
            ledger,
        });
    }
    let expected = [
        Complexity::Constant,
        Complexity::LogStar,
        Complexity::Log,
        Complexity::Polynomial { exponent: 2 },
    ];
    for (class, want) in classes.iter().zip(expected) {
        if class.report.complexity != want {
            return Err(format!(
                "{} classified {}, expected {want}",
                class.problem, class.report.complexity
            ));
        }
    }

    let rounds = cfg.work(ROUNDS_PER_SECOND / ROUNDS_PER_OP as f64, 1) * ROUNDS_PER_OP;
    let mut scratch = SolveScratch::with_workers(WORKERS);
    let mut out = Pass::default();
    let mut ids = None;
    let mut nodes = 0;
    let mut rounds_of = vec![0u64; classes.len()];
    let (mut op_ns, mut op_nodes) = (0u64, 0u64);
    for round in 0..rounds {
        // Set-up: the same tree again, and its level index.
        let mut built = None;
        for _ in 0..SETUPS_PER_ROUND {
            drop(built.take());
            let t = Instant::now();
            let tree = tr.span("trees.generate", 0, || {
                FlatTree::random_full(2, NODES, TREE_SEED)
            });
            let idx = tr.span("trees.level_index", 0, || tree.level_index());
            out.setup.push(t.elapsed());
            built = Some((tree, idx));
        }
        let (tree, idx) = built.expect("at least one set-up per round");
        nodes = tree.len();
        let ids = ids.get_or_insert_with(|| IdAssignment::random_permutation_len(nodes, TREE_SEED));

        for (c, class) in classes.iter().enumerate() {
            let op_id = (round * classes.len() + c) as u64;
            out.attempted += 1;
            let t = Instant::now();
            let op = tr.begin("op", op_id);
            let solved = tr.span(class.span, op_id, || {
                solve_flat(
                    &class.problem,
                    &class.report,
                    &tree,
                    &idx,
                    ids,
                    &mut scratch,
                )
            });
            let valid = solved.as_ref().ok().map(|outcome| {
                tr.span("verify.validate", op_id, || {
                    class.validator.validate(&tree, &outcome.labels).is_ok()
                })
            });
            tr.end(op);
            op_ns += t.elapsed().as_nanos() as u64;
            let outcome = match (solved, valid) {
                (Ok(o), Some(true)) => o,
                (Err(e), _) => {
                    out.failed += 1;
                    out.check(false, || format!("{}: solve failed: {e}", class.problem));
                    continue;
                }
                (Ok(_), _) => {
                    out.check(false, || format!("{}: invalid labeling", class.problem));
                    continue;
                }
            };
            op_nodes += nodes as u64;
            let total = outcome.rounds.total() as u64;
            if round == 0 {
                rounds_of[c] = total;
            }
            out.check(rounds_of[c] == total, || {
                format!("{}: rounds changed between solves", class.problem)
            });
        }
        if (round + 1) % ROUNDS_PER_OP == 0 {
            out.timed(op_ns, op_nodes);
            (op_ns, op_nodes) = (0, 0);
        }
    }
    out.count("rounds", rounds as u64);
    out.count("solves", out.attempted - out.failed);
    out.count("nodes", nodes as u64);
    for (class, &r) in classes.iter().zip(&rounds_of) {
        out.count(class.ledger, r);
    }
    let rounds = rounds_of;

    if tr.on() {
        let mut layer = LayerMetrics::default();
        let s = |tr: &Tracer, span: &str| median_ns(&tr.durations(span)) / 1e9;
        layer.set("trees.generate_s", s(tr, "trees.generate"));
        layer.set("trees.level_index_s", s(tr, "trees.level_index"));
        layer.set(
            "algorithms.solve_constant_s",
            s(tr, "algorithms.solve_constant"),
        );
        layer.set(
            "algorithms.solve_log_star_s",
            s(tr, "algorithms.solve_log_star"),
        );
        layer.set("algorithms.solve_log_s", s(tr, "algorithms.solve_log"));
        layer.set("algorithms.solve_poly_s", s(tr, "algorithms.solve_poly"));
        for (metric, r) in [
            "algorithms.rounds_constant",
            "algorithms.rounds_log_star",
            "algorithms.rounds_log",
            "algorithms.rounds_poly",
        ]
        .into_iter()
        .zip(&rounds)
        {
            layer.set(metric, *r as f64);
        }
        layer.set("verify.validate_s", s(tr, "verify.validate"));
        out.layer = layer;
    }
    Ok(out)
}
