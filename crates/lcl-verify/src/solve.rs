//! The seeded solve-and-check step shared by `rtlcl solve` and the daemon's
//! `/solve`: generate a random full δ-ary tree, permute identifiers with the
//! same seed, solve, and validate the labeling with the CSR validator. Each
//! caller maps a [`SolveCheckError`] to its own message.

use lcl_algorithms::flat::{solve_flat, solve_greedy_flat, FlatOutcome, SolveScratch};
use lcl_algorithms::SolveError;
use lcl_core::{ClassificationReport, LclProblem};
use lcl_sim::IdAssignment;
use lcl_trees::FlatTree;

use crate::validator::{LabelingValidator, ValidationError};

/// A solved instance whose labeling passed validation.
#[derive(Debug)]
pub struct CheckedSolve {
    /// `FlatTree::random_full(δ, nodes, seed)`.
    pub tree: FlatTree,
    /// `IdAssignment::random_permutation_len(tree.len(), seed)`.
    pub ids: IdAssignment,
    /// The solver's labeling and round accounting.
    pub outcome: FlatOutcome,
}

/// Why [`solve_checked`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveCheckError {
    /// The solver failed (the greedy baseline reports a problem without a
    /// labeling as [`SolveError::Unsolvable`]).
    Solve(SolveError),
    /// The solver's labeling fails validation: an internal bug.
    Invalid(ValidationError),
}

/// Solves `problem` (classified by `report`) on the random full δ-ary tree
/// with at least `nodes` nodes grown from `seed`, under identifiers permuted
/// with the same seed, and validates the labeling. `baseline` selects the
/// greedy O(n) sweep instead of the class-optimal solver.
pub fn solve_checked(
    problem: &LclProblem,
    report: &ClassificationReport,
    nodes: usize,
    seed: u64,
    baseline: bool,
) -> Result<CheckedSolve, SolveCheckError> {
    let tree = FlatTree::random_full(problem.delta(), nodes, seed);
    let idx = tree.level_index();
    let ids = IdAssignment::random_permutation_len(tree.len(), seed);
    let mut scratch = SolveScratch::new();
    let outcome = if baseline {
        solve_greedy_flat(problem, &idx, &mut scratch).ok_or(SolveError::Unsolvable)
    } else {
        solve_flat(problem, report, &tree, &idx, &ids, &mut scratch)
    }
    .map_err(SolveCheckError::Solve)?;
    LabelingValidator::new(problem)
        .validate_parallel(&tree, &outcome.labels)
        .map_err(SolveCheckError::Invalid)?;
    Ok(CheckedSolve { tree, ids, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::classify;

    #[test]
    fn solves_and_validates_both_solvers() {
        let problem = lcl_problems::mis::mis_binary();
        let report = classify(&problem);
        for baseline in [false, true] {
            let solved = solve_checked(&problem, &report, 501, 3, baseline).unwrap();
            assert_eq!(solved.tree, FlatTree::random_full(2, 501, 3));
            assert_eq!(
                solved.ids,
                IdAssignment::random_permutation_len(solved.tree.len(), 3)
            );
            assert_eq!(solved.outcome.labels.len(), solved.tree.len());
            let greedy = solved.outcome.algorithm == "global greedy (O(n) baseline)";
            assert_eq!(greedy, baseline);
        }
    }

    #[test]
    fn unsolvable_problems_fail_with_the_solver_error() {
        let problem: LclProblem = "a : b b\nb : c c\n".parse().unwrap();
        let report = classify(&problem);
        for baseline in [false, true] {
            let err = solve_checked(&problem, &report, 101, 1, baseline).unwrap_err();
            assert_eq!(err, SolveCheckError::Solve(SolveError::Unsolvable));
        }
    }
}
