//! A centralized greedy solver on arena trees, used as a test oracle.
//!
//! The solver labels the tree top-down inside the self-sustaining label set of
//! [`crate::solvability::solvable_labels`]: the root takes the smallest kept label,
//! and every internal node extends the labeling with the smallest allowed
//! configuration whose labels are all kept. It is *not* a distributed algorithm
//! (it takes Θ(depth) rounds viewed distributively); it is the simple,
//! independent per-node walk that the sharded level passes of
//! `lcl_algorithms::flat::solve_greedy_flat`, the O(n) baseline, must
//! reproduce.

use lcl_trees::RootedTree;

use crate::labeling::Labeling;
use crate::problem::LclProblem;
use crate::solvability::solvable_labels;

/// Solves `problem` on `tree` greedily, or returns `None` if the problem is
/// unsolvable (its self-sustaining label set is empty).
pub fn solve(problem: &LclProblem, tree: &RootedTree) -> Option<Labeling> {
    let kept = solvable_labels(problem);
    let first = kept.first()?;
    let mut labeling = Labeling::new(tree.len());
    labeling.set(tree.root().0, first);
    for v in tree.bfs_order() {
        if tree.is_leaf(v) {
            continue;
        }
        let parent_label = labeling.get(v.0).expect("BFS order labels parents first");
        let config = problem
            .continuation_within(parent_label, kept)
            .expect("kept labels always have a continuation within the kept set");
        for (&child, &label) in tree.children(v).iter().zip(config.children()) {
            labeling.set(child.0, label);
        }
    }
    Some(labeling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_trees::{generators, FlatTree};

    #[test]
    fn greedy_solves_three_coloring() {
        let p: LclProblem = "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n"
            .parse()
            .unwrap();
        for seed in 0..3 {
            let tree = generators::random_full(2, 201, seed);
            let labeling = solve(&p, &tree).unwrap();
            labeling.verify(&FlatTree::from_tree(&tree), &p).unwrap();
        }
    }

    #[test]
    fn greedy_solves_mis() {
        let p: LclProblem = "1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n"
            .parse()
            .unwrap();
        let tree = generators::balanced(2, 6);
        let labeling = solve(&p, &tree).unwrap();
        labeling.verify(&FlatTree::from_tree(&tree), &p).unwrap();
    }

    #[test]
    fn greedy_returns_none_for_unsolvable() {
        let p: LclProblem = "a : b b\nb : c c\n".parse().unwrap();
        let tree = generators::balanced(2, 4);
        assert!(solve(&p, &tree).is_none());
    }

    #[test]
    fn greedy_handles_delta_three() {
        let p: LclProblem = "1 : 2 2 2\n2 : 1 1 1\n".parse().unwrap();
        let tree = generators::random_full(3, 121, 11);
        let labeling = solve(&p, &tree).unwrap();
        labeling.verify(&FlatTree::from_tree(&tree), &p).unwrap();
    }
}
