//! Acceptance test for the generalized B/X-partition solver at scale: on a
//! 2^20-node tree the measured rounds must be sublinear — bounded by a small
//! constant times n^{1/k} — and the labeling must pass the parallel CSR
//! validator of `lcl-verify`.

use rooted_tree_lcl::algorithms::flat::{poly_partition_flat, solve_poly_flat, SolveScratch};
use rooted_tree_lcl::algorithms::{ceil_nth_root, PolyPart};
use rooted_tree_lcl::core::find_poly_certificate;
use rooted_tree_lcl::problems::pi_k;
use rooted_tree_lcl::trees::FlatTree;
use rooted_tree_lcl::verify::LabelingValidator;

#[test]
fn million_node_rounds_are_sublinear_and_validated() {
    let n: usize = 1 << 20;
    let mut scratch = SolveScratch::new();
    for k in [2usize, 3] {
        let problem = pi_k::pi_k(k);
        let cert = find_poly_certificate(&problem).expect("Π_k is polynomial");
        assert_eq!(cert.exponent(), k);
        let tree = FlatTree::random_full(2, n, 42);
        let idx = tree.level_index();
        let outcome = solve_poly_flat(&problem, &cert, &tree, &idx, &mut scratch).unwrap();
        LabelingValidator::new(&problem)
            .validate_parallel(&tree, &outcome.labels)
            .unwrap_or_else(|e| panic!("Π_{k}: CSR validator rejected the labeling: {e}"));

        let total = outcome.rounds.total();
        let root = ceil_nth_root(tree.len(), k);
        // Budget: k explorations of ≤ n^{1/k} levels, a rake completion of
        // ≤ n^{1/k}, the charged ruling-set constants, and a core whose size
        // shrinks by ~n^{1/k} per iteration. A generous constant catches
        // regressions to linear behaviour while staying noise-free.
        let max_chain: usize = cert
            .levels
            .iter()
            .map(|level| level.chain_threshold)
            .max()
            .unwrap_or(0);
        let budget = (4 * k + 8) * (max_chain + 2) * root;
        assert!(
            total <= budget,
            "Π_{k}: {total} rounds exceed the O(n^(1/{k})) budget {budget}"
        );
        assert!(
            total * 8 < tree.len(),
            "Π_{k}: {total} rounds is not sublinear in n = {}",
            tree.len()
        );
    }
}

#[test]
fn partition_core_shrinks_with_the_threshold() {
    // The analysis behind the upper bound: each iteration keeps only
    // branching nodes, leaves, and short chains — O(n / n^{1/k}) many, up to
    // the chain-threshold constant.
    let problem = pi_k::pi_k(2);
    let cert = find_poly_certificate(&problem).unwrap();
    let tree = FlatTree::random_full(2, 1 << 16, 7);
    let partition = poly_partition_flat(&tree, &tree.level_index(), &cert);
    let core = partition
        .part
        .iter()
        .filter(|p| matches!(p, PolyPart::Core))
        .count();
    let root = ceil_nth_root(tree.len(), 2);
    let l1 = cert.levels[0].chain_threshold;
    let bound = 4 * (l1 + 2) * (tree.len() / root + 1);
    assert!(
        core <= bound,
        "core of {core} nodes exceeds the shrinkage bound {bound} (n^(1/2) = {root})"
    );
}
