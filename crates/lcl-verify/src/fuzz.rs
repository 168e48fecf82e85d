//! The differential fuzzing oracle: classifier vs solvers vs validator.
//!
//! One fuzz iteration draws a random problem ([`lcl_problems::random`]),
//! classifies it through the memoizing [`ClassificationEngine`], and then
//! holds the verdict to account:
//!
//! * **solvable** verdicts must be *constructive* — the matching solver from
//!   `lcl-algorithms` must produce a labeling on every generated tree shape
//!   (random full, balanced, hairy path), and that labeling must pass both
//!   the CSR [`LabelingValidator`] and the
//!   independent reference checker [`Labeling::verify`](lcl_core::Labeling::verify),
//!   with identical verdicts;
//! * **unsolvable** verdicts must be *unbeatable* — the greedy O(n) sweep
//!   [`solve_greedy_flat`] must fail to find any labeling on a deep balanced
//!   tree (and if it ever returns one that verifies, the classifier is wrong);
//! * the engine's memoized decision-only path must agree with the full
//!   report's complexity (canonicalization soundness);
//! * solvable verdicts must also survive **dynamic edits** — a fresh solved
//!   tree is mutated by a seeded 32-edit script (attach/detach/relabel) plus
//!   random label perturbations, repaired incrementally through an
//!   [`EditSession`], and the repaired labeling must pass both the dirty
//!   ranges reported by the scratch and the full CSR validator, while the
//!   edited instance must still flat-solve from scratch;
//! * **polynomial** verdicts must carry a verifiable exact-exponent
//!   certificate whose exponent never exceeds Algorithm 2's pruning iteration
//!   count (Theorem 5.2's lower-bound side), the greedy O(n) baseline must
//!   still solve the instance (the certificate-driven solver is checked
//!   through the dispatcher like every other class), and — once per run —
//!   the classified exponent of the Π_k family must equal its ground-truth
//!   k for k = 1..=3 (Theorem 8.3).
//!
//! Any violated expectation is recorded as a [`Discrepancy`]; a healthy
//! repository reports none over arbitrarily many iterations. The oracle is
//! fully deterministic per `(seed, iters)` pair.

use lcl_algorithms::flat::{solve_flat, solve_greedy_flat, SolveScratch};
use lcl_algorithms::repair::{resolve_full, RepairScratch};
use lcl_algorithms::SolveError;
use lcl_core::{ClassificationEngine, Complexity, Labeling};
use lcl_problems::random::{random_problem, RandomProblemSpec};
use lcl_rand::SplitMix64;
use lcl_sim::IdAssignment;
use lcl_trees::{DynamicTree, EditScriptGen, FlatTree};

use crate::session::{EditError, EditSession};
use crate::validator::LabelingValidator;

/// One classifier/solver/validator disagreement found by the oracle.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// The fuzz iteration (0-based) that found it.
    pub iteration: usize,
    /// The problem, in the parser's text format.
    pub problem: String,
    /// The complexity class the classifier reported.
    pub complexity: String,
    /// Where the disagreement surfaced (tree shape or check name).
    pub context: String,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "iteration {}: [{}] {} (classified {}; problem: {})",
            self.iteration,
            self.context,
            self.detail,
            self.complexity,
            self.problem.replace('\n', "; "),
        )
    }
}

/// The aggregate result of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The seed the run was started with.
    pub seed: u64,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Classifications per class, in complexity order:
    /// `O(1)`, `log*`, `log`, `poly`, `unsolvable`.
    pub histogram: [(&'static str, usize); 5],
    /// Number of successful solver runs whose output was validated.
    pub solver_runs: usize,
    /// Total nodes validated across all solver runs.
    pub validated_nodes: usize,
    /// Solver runs skipped because a certificate exceeded its size budget
    /// (a resource limit, not a correctness failure).
    pub skipped_certificates: usize,
    /// Seeded edit-script batches repaired incrementally and validated
    /// (the `edit_scripts` phase; solvable problems only).
    pub edit_scripts: usize,
    /// Every disagreement found. Empty on a healthy repository.
    pub discrepancies: Vec<Discrepancy>,
}

impl FuzzReport {
    /// `true` when no discrepancy was found.
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// The tree shapes every solvable problem is exercised on.
fn tree_shapes(delta: usize, rng: &mut SplitMix64) -> Vec<(&'static str, FlatTree)> {
    let min_nodes = 60 + rng.gen_index(80);
    let depth = match delta {
        1 => 40,
        2 => 6,
        _ => 4,
    };
    let spine = 15 + rng.gen_index(15);
    vec![
        (
            "random",
            FlatTree::random_full(delta, min_nodes, rng.next_u64()),
        ),
        ("balanced", FlatTree::balanced(delta, depth)),
        ("hairy-path", FlatTree::hairy_path(delta, spine)),
    ]
}

/// Runs `iters` iterations of the differential oracle starting from `seed`.
/// Deterministic: equal inputs produce equal reports.
pub fn fuzz_classifier_vs_solvers(seed: u64, iters: usize) -> FuzzReport {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let engine = ClassificationEngine::new();
    let mut scratch = SolveScratch::new();
    let mut report = FuzzReport {
        seed,
        iterations: iters,
        histogram: [
            ("O(1)", 0),
            ("log*", 0),
            ("log", 0),
            ("poly", 0),
            ("unsolvable", 0),
        ],
        solver_runs: 0,
        validated_nodes: 0,
        skipped_certificates: 0,
        edit_scripts: 0,
        discrepancies: Vec::new(),
    };
    let mut repair_scratch = RepairScratch::new();

    // Π_k ground truth (Theorem 8.3): the classified exponent must be exactly
    // k. Checked once per run — the problems are fixed, not fuzzed.
    for k in 1..=3usize {
        let problem = lcl_problems::pi_k::pi_k(k);
        let verdict = engine.classify(&problem);
        if verdict != (Complexity::Polynomial { exponent: k }) {
            report.discrepancies.push(Discrepancy {
                iteration: 0,
                problem: problem.to_text(),
                complexity: verdict.to_string(),
                context: "pi_k oracle".into(),
                detail: format!("Π_{k} must classify to exponent exactly {k}, got {verdict}"),
            });
        }
    }

    for iteration in 0..iters {
        let spec = RandomProblemSpec {
            delta: 1 + rng.gen_index(3),
            num_labels: 2 + rng.gen_index(3),
            density: [0.2, 0.3, 0.45, 0.6][rng.gen_index(4)],
        };
        let problem = random_problem(&spec, rng.next_u64());
        let full = engine.classify_full(&problem);
        let complexity = full.complexity;
        let class_name = complexity.short_name();
        let slot = report
            .histogram
            .iter_mut()
            .find(|(name, _)| *name == class_name)
            .expect("short names cover every class");
        slot.1 += 1;
        let mut record = |context: &str, detail: String| {
            report.discrepancies.push(Discrepancy {
                iteration,
                problem: problem.to_text(),
                complexity: complexity.to_string(),
                context: context.to_string(),
                detail,
            });
        };

        // Canonicalization soundness: the memoized decision-only path must
        // agree with the full report.
        let memoized = engine.classify(&problem);
        if memoized != complexity {
            record(
                "engine",
                format!("memoized verdict {memoized} differs from full report {complexity}"),
            );
            continue;
        }

        if let Complexity::Polynomial { exponent } = complexity {
            // The exact exponent must be witnessed by a verifiable chain and
            // bounded by the pruning iteration count (Theorem 5.2).
            match full.poly_certificate() {
                None => record("poly", "polynomial verdict without a certificate".into()),
                Some(cert) => {
                    if cert.exponent() != exponent {
                        record(
                            "poly",
                            format!(
                                "certificate exponent {} differs from verdict {exponent}",
                                cert.exponent()
                            ),
                        );
                    }
                    if let Err(e) = cert.verify(&problem) {
                        record("poly", format!("exponent certificate fails to verify: {e}"));
                    }
                }
            }
            let iterations = full.log_analysis.iterations().max(1);
            if exponent < 1 || exponent > iterations {
                record(
                    "poly",
                    format!("exponent {exponent} outside [1, pruning iterations {iterations}]"),
                );
            }
            // The greedy O(n) baseline must still solve polynomial instances
            // (it is no longer on the dispatcher path).
            let tree = FlatTree::random_full(problem.delta(), 80, rng.next_u64());
            match solve_greedy_flat(&problem, &tree.level_index(), &mut scratch) {
                None => record("baseline", "greedy failed on a solvable problem".into()),
                Some(outcome) => {
                    if let Err(e) = Labeling::from_labels(&outcome.labels).verify(&tree, &problem) {
                        record("baseline", format!("greedy labeling invalid: {e}"));
                    }
                }
            }
        }

        if complexity == Complexity::Unsolvable {
            // Unsolvable verdicts must be unbeatable: greedy must fail on a
            // deep tree, and must certainly never produce a valid labeling.
            let tree =
                FlatTree::balanced(problem.delta(), if problem.delta() == 1 { 40 } else { 6 });
            if let Some(outcome) = solve_greedy_flat(&problem, &tree.level_index(), &mut scratch) {
                match Labeling::from_labels(&outcome.labels).verify(&tree, &problem) {
                    Ok(()) => record(
                        "greedy",
                        "classifier says unsolvable but greedy found a valid labeling".into(),
                    ),
                    Err(e) => record(
                        "greedy",
                        format!("greedy returned an invalid labeling instead of None: {e}"),
                    ),
                }
            }
            continue;
        }

        // Solvable verdicts must be constructive on every tree shape.
        let validator = LabelingValidator::new(&problem);
        for (shape, flat) in tree_shapes(problem.delta(), &mut rng) {
            let ids = IdAssignment::random_permutation_len(flat.len(), rng.next_u64());
            let idx = flat.level_index();
            let outcome = match solve_flat(&problem, &full, &flat, &idx, &ids, &mut scratch) {
                Ok(outcome) => outcome,
                Err(SolveError::CertificateTooLarge(_)) => {
                    report.skipped_certificates += 1;
                    continue;
                }
                Err(e) => {
                    record(shape, format!("solver failed on a solvable problem: {e}"));
                    continue;
                }
            };
            report.solver_runs += 1;
            report.validated_nodes += flat.len();

            // The one labeling is held to both checkers.
            let reference = Labeling::from_labels(&outcome.labels).verify(&flat, &problem);
            let fast = validator.validate_parallel(&flat, &outcome.labels);
            if reference.is_ok() != fast.is_ok() {
                record(
                    shape,
                    format!(
                        "validator disagreement: reference checker says {reference:?}, CSR validator says {fast:?}"
                    ),
                );
            }
            if let Err(e) = reference {
                record(
                    shape,
                    format!(
                        "solver `{}` produced an invalid labeling: {e}",
                        outcome.algorithm
                    ),
                );
            } else if let Err(e) = fast {
                record(
                    shape,
                    format!("CSR validator rejected a valid labeling: {e}"),
                );
            }
        }

        // `edit_scripts` phase: a solvable instance must survive dynamic
        // edits. Solve a fresh tree, apply a seeded 32-edit script plus a few
        // label perturbations, repair incrementally, and hold the repaired
        // labeling to the same standard as a from-scratch solve: the dirty
        // ranges and the full CSR validator must both accept it, and the
        // edited instance must still flat-solve from scratch.
        let flat = FlatTree::random_full(problem.delta(), 80 + rng.gen_index(60), rng.next_u64());
        let mut dtree = DynamicTree::new(flat, problem.delta());
        let mut labels = Vec::new();
        let session = match resolve_full(
            &problem,
            &full,
            &mut dtree,
            &mut labels,
            &mut repair_scratch,
        ) {
            Err(e) => Err(("initial solve failed", e)),
            Ok(()) => {
                let ids = IdAssignment::sequential_len(dtree.len());
                EditSession::new(problem.clone(), full.clone(), dtree, labels, ids)
                    .map_err(|e| ("repair plan failed", e))
            }
        };
        let mut session = match session {
            Ok(session) => session,
            Err((_, SolveError::CertificateTooLarge(_))) => {
                report.skipped_certificates += 1;
                continue;
            }
            Err((what, e)) => {
                record("edit-script", format!("{what}: {e}"));
                continue;
            }
        };
        let mut gen = EditScriptGen::new(rng.next_u64(), session.tree().len());
        match session.apply_batch(&mut gen, 32, &mut rng) {
            Err(EditError::Repair(e)) => record("edit-script", format!("repair failed: {e}")),
            batch => {
                report.edit_scripts += 1;
                report.validated_nodes += session.tree().len();
                if let Err(EditError::Invalid(e)) = batch {
                    record(
                        "edit-script",
                        format!("dirty-range validation rejected the repair: {e}"),
                    );
                }
                if let Err(e) = session.validate() {
                    record(
                        "edit-script",
                        format!("repaired labeling fails full validation: {e}"),
                    );
                }
                // The maintained identifier assignment must still cover the
                // edited tree with pairwise-distinct ids.
                let ids = session.ids();
                let mut sorted = ids.as_slice().to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                let nodes = session.tree().len();
                if ids.len() != nodes || sorted.len() != ids.len() {
                    record(
                        "edit-script",
                        format!(
                            "identifier maintenance diverged: {} ids ({} distinct) for {} nodes",
                            ids.len(),
                            sorted.len(),
                            nodes
                        ),
                    );
                }
                // From-scratch verdict agreement on the edited tree (needs the
                // full sync: the comparison solve reads the lazily repaired
                // level index).
                let dtree = session.sync();
                let fresh_ids = IdAssignment::sequential_len(dtree.len());
                match solve_flat(
                    &problem,
                    &full,
                    dtree.tree(),
                    dtree.index(),
                    &fresh_ids,
                    &mut scratch,
                ) {
                    Ok(fresh) => {
                        if let Err(e) = validator.validate_parallel(dtree.tree(), &fresh.labels) {
                            record(
                                "edit-script",
                                format!("from-scratch solve invalid on the edited tree: {e}"),
                            );
                        }
                    }
                    Err(SolveError::CertificateTooLarge(_)) => report.skipped_certificates += 1,
                    Err(e) => record(
                        "edit-script",
                        format!("from-scratch solve failed on the edited tree: {e}"),
                    ),
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_clean_and_deterministic() {
        let a = fuzz_classifier_vs_solvers(1, 60);
        assert!(a.is_clean(), "discrepancies: {:#?}", a.discrepancies);
        assert!(a.solver_runs > 0, "no solver run was exercised");
        assert!(a.validated_nodes > 0);
        assert!(a.edit_scripts > 0, "no edit-script batch was exercised");
        let total: usize = a.histogram.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, a.iterations);

        let b = fuzz_classifier_vs_solvers(1, 60);
        assert_eq!(a.histogram, b.histogram);
        assert_eq!(a.solver_runs, b.solver_runs);
        assert_eq!(a.validated_nodes, b.validated_nodes);
        assert_eq!(a.edit_scripts, b.edit_scripts);
    }

    #[test]
    fn different_seeds_explore_different_problems() {
        let a = fuzz_classifier_vs_solvers(2, 30);
        let b = fuzz_classifier_vs_solvers(3, 30);
        assert!(a.is_clean() && b.is_clean());
        assert!(
            a.histogram != b.histogram || a.validated_nodes != b.validated_nodes,
            "two seeds produced identical runs; the oracle is not actually random"
        );
    }
}
