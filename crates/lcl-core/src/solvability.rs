//! Solvability of a problem on arbitrarily deep full δ-ary trees.
//!
//! The paper implicitly assumes problems are solvable; for a complete tool we also
//! detect unsolvable ones. A problem is solvable on *every* full δ-ary tree iff the
//! greatest fixed point of "keep only labels that have a continuation below within
//! the kept set" (Definition 4.5) is non-empty: the root may then pick any kept
//! label and every internal node extends the labeling downwards, while leaves are
//! unconstrained. Conversely, if the fixed point is empty, a simple induction shows
//! that no labeling of a deep enough balanced tree can satisfy all internal nodes.

use crate::label_set::LabelSet;
use crate::problem::LclProblem;

/// Computes the greatest set `S ⊆ Σ(Π)` such that every label in `S` has a
/// continuation below using only labels of `S` (the *self-sustaining* labels).
///
/// The problem is solvable on all full δ-ary trees iff the result is non-empty.
pub fn solvable_labels(problem: &LclProblem) -> LabelSet {
    let mut kept = problem.labels();
    loop {
        let next: LabelSet = kept
            .iter()
            .filter(|&l| problem.has_continuation_within(l, kept))
            .collect();
        if next == kept {
            return kept;
        }
        kept = next;
    }
}

/// Returns `true` if the problem admits a solution on every full δ-ary tree.
pub fn is_solvable(problem: &LclProblem) -> bool {
    !solvable_labels(problem).is_empty()
}

/// The depth beyond which an unsolvable problem provably has no solution: if the
/// greatest fixed point is empty, the iteration removes at least one label per step,
/// so balanced trees of depth `|Σ| + 1` already have no valid labeling.
pub fn unsolvability_depth_bound(problem: &LclProblem) -> usize {
    problem.num_labels() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy;
    use crate::label::Label;
    use crate::labeling::Labeling;
    use lcl_trees::{generators, FlatTree};

    #[test]
    fn coloring_problems_are_solvable() {
        let p: LclProblem = "1:22\n2:11\n".parse().unwrap();
        assert!(is_solvable(&p));
        assert_eq!(solvable_labels(&p).len(), 2);
    }

    #[test]
    fn empty_configuration_set_is_unsolvable() {
        let p: LclProblem = "labels: a b\n".parse().unwrap();
        assert!(!is_solvable(&p));
        assert!(solvable_labels(&p).is_empty());
    }

    #[test]
    fn dead_end_labels_are_removed_but_problem_stays_solvable() {
        // `b` can only be followed by `c`, which has no continuation; but `a` loops.
        let p: LclProblem = "a : a a\na : b c\nb : c c\n".parse().unwrap();
        let solvable = solvable_labels(&p);
        let a = p.label_by_name("a").unwrap();
        assert!(solvable.contains(a));
        assert!(!solvable.contains(p.label_by_name("b").unwrap()));
        assert!(!solvable.contains(p.label_by_name("c").unwrap()));
        assert!(is_solvable(&p));
    }

    #[test]
    fn chain_of_dead_ends_is_unsolvable() {
        // Every label eventually runs out of continuations.
        let p: LclProblem = "a : b b\nb : c c\n".parse().unwrap();
        assert!(!is_solvable(&p));
    }

    #[test]
    fn exhaustive_check_on_small_unsolvable_instance() {
        // Brute-force all labelings of a depth-2 balanced binary tree and confirm
        // that none is valid, matching the fixed-point verdict: with the single
        // configuration a : b b, nodes at depth 1 can never be labeled correctly.
        let p: LclProblem = "a : b b\n".parse().unwrap();
        assert!(!is_solvable(&p));
        let tree = FlatTree::balanced(2, 2);
        let labels: Vec<Label> = p.labels().iter().collect();
        let n = tree.len();
        let total = labels.len().pow(n as u32);
        let mut found = false;
        for code in 0..total {
            let mut c = code;
            let mut labeling = Labeling::for_tree(&tree);
            for v in 0..n as u32 {
                labeling.set(v, labels[c % labels.len()]);
                c /= labels.len();
            }
            if labeling.verify(&tree, &p).is_ok() {
                found = true;
                break;
            }
        }
        assert!(
            !found,
            "brute force found a solution for an 'unsolvable' problem"
        );
    }

    #[test]
    fn solvable_labels_support_greedy_solutions() {
        let p: LclProblem = "a : a a\na : b c\nb : c c\n".parse().unwrap();
        let tree = generators::random_full(2, 101, 3);
        let labeling = greedy::solve(&p, &tree).expect("solvable problem");
        labeling.verify(&FlatTree::from_tree(&tree), &p).unwrap();
    }

    #[test]
    fn depth_bound_is_labels_plus_one() {
        let p: LclProblem = "a : b b\nb : c c\n".parse().unwrap();
        assert_eq!(unsolvability_depth_bound(&p), 4);
    }
}
