//! Cross-crate integration test: for every solvable catalog problem, the unified
//! solver produces a labeling that the independent checker accepts, on several tree
//! shapes and identifier assignments (the paper's robustness claims: the same
//! complexity in LOCAL/CONGEST, deterministic/randomized).

use rooted_tree_lcl::core::classify;
use rooted_tree_lcl::prelude::*;
use rooted_tree_lcl::problems::catalog;
use rooted_tree_lcl::trees::generators;

/// Solves `problem` on `tree` with the class-optimal flat solver and checks
/// the labeling with the independent reference checker.
fn solve_and_verify(problem: &LclProblem, tree: &FlatTree, ids: &IdAssignment) -> FlatOutcome {
    let report = classify(problem);
    let idx = tree.level_index();
    let outcome = solve_flat(problem, &report, tree, &idx, ids, &mut SolveScratch::new())
        .unwrap_or_else(|e| panic!("{problem}: solver failed: {e}"));
    Labeling::from_labels(&outcome.labels)
        .verify(tree, problem)
        .unwrap_or_else(|e| panic!("{problem}: invalid solution: {e}"));
    outcome
}

#[test]
fn every_solvable_catalog_problem_is_solved_on_random_trees() {
    for entry in catalog() {
        if !classify(&entry.problem).complexity.is_solvable() {
            continue;
        }
        let tree = FlatTree::random_full(entry.problem.delta(), 301, 13);
        let ids = IdAssignment::random_permutation_len(tree.len(), 3);
        solve_and_verify(&entry.problem, &tree, &ids);
    }
}

#[test]
fn solutions_are_valid_for_different_id_assignments() {
    // Randomness / identifier robustness: sequential, permuted, and sparse random
    // identifiers all lead to valid solutions with the same round accounting shape.
    let problem = rooted_tree_lcl::problems::coloring::three_coloring_binary();
    let tree = FlatTree::random_full(2, 501, 5);
    let n = tree.len();
    let mut totals = Vec::new();
    for ids in [
        IdAssignment::sequential_len(n),
        IdAssignment::random_permutation_len(n, 1),
        IdAssignment::random_sparse_len(n, 2),
    ] {
        totals.push(solve_and_verify(&problem, &tree, &ids).rounds.total());
    }
    let min = totals.iter().min().unwrap();
    let max = totals.iter().max().unwrap();
    assert!(
        max - min <= 3,
        "round counts {totals:?} diverge across id assignments"
    );
}

#[test]
fn solvers_handle_extreme_tree_shapes() {
    let problem = rooted_tree_lcl::problems::coloring::branch_two_coloring();
    for tree in [
        FlatTree::balanced(2, 11),
        FlatTree::hairy_path(2, 500),
        // The skewed shape has no streaming generator; the arena one builds it.
        FlatTree::from_tree(&generators::random_skewed(2, 1001, 0.95, 9)),
        FlatTree::balanced(2, 0),
    ] {
        solve_and_verify(&problem, &tree, &IdAssignment::sequential_len(tree.len()));
    }
}

#[test]
fn lower_bound_trees_are_also_valid_inputs() {
    // The Section 5.4 trees are ordinary rooted trees (not full δ-ary everywhere);
    // solvers must still label them correctly since irregular nodes are
    // unconstrained.
    use rooted_tree_lcl::trees::lower_bound;
    let problem = rooted_tree_lcl::problems::coloring::three_coloring_binary();
    let tree = lower_bound::t_x_k(2, 8, 2).tree;
    solve_and_verify(&problem, &tree, &IdAssignment::sequential_len(tree.len()));
}
