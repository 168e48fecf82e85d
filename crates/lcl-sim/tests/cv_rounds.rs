//! The Cole–Vishkin round count is a closed form of the identifier range.
//!
//! The flat solvers of `lcl-algorithms` record their Cole–Vishkin phase as
//! `ChainColorReduction::rounds(ids.id_bits())` without running the
//! reduction. These tests pin that closed form equal to the rounds of both
//! real runs — the message-passing `Simulator` and the flat port — and check
//! that both runs end with a proper colouring below 6 colours for every
//! identifier model, the sparse `{1, …, n³}` identifiers included.

use lcl_sim::flat::{chain_color_reduction_flat, CvScratch};
use lcl_sim::programs::ChainColorReduction;
use lcl_sim::{IdAssignment, Simulator};
use lcl_trees::FlatTree;

/// The three identifier models of Section 4.2 on `n` nodes.
fn id_models(n: usize, seed: u64) -> [IdAssignment; 3] {
    [
        IdAssignment::sequential_len(n),
        IdAssignment::random_permutation_len(n, seed),
        IdAssignment::random_sparse_len(n, seed),
    ]
}

/// Asserts that `colors` is a colouring with fewer than 6 colours that is
/// proper along every parent edge of `tree`.
fn assert_proper(tree: &FlatTree, colors: &[u8], case: &str) {
    for v in 0..tree.len() as u32 {
        assert!(colors[v as usize] < 6, "{case}: colour of node {v}");
        if let Some(p) = tree.parent(v) {
            assert_ne!(colors[v as usize], colors[p as usize], "{case}: edge {v}");
        }
    }
}

#[test]
fn closed_form_equals_the_simulator_and_flat_rounds() {
    let mut scratch = CvScratch::new();
    let sizes = (1..=1usize << 12).chain([1 << 16, 1 << 20]);
    for n in sizes {
        // A directed path has exactly `n` nodes; the round count does not
        // depend on the shape.
        let tree = FlatTree::balanced(1, n - 1);
        for ids in id_models(n, n as u64) {
            let expected = ChainColorReduction::rounds(ids.id_bits());
            let flat = chain_color_reduction_flat(&tree, &ids, 1, &mut scratch);
            assert_eq!(flat.rounds, expected, "flat, n = {n}");
            let (_, sim) = Simulator::new(&tree, ids).run(&ChainColorReduction);
            assert_eq!(sim.rounds, expected, "simulator, n = {n}");
        }
    }
}

#[test]
fn sparse_identifiers_reduce_below_six_colours() {
    // The step count once came from `n` instead of the identifier range, so
    // on these trees the sparse identifiers (up to n³) stopped above 6
    // colours.
    let mut scratch = CvScratch::new();
    for (n, seed) in [(5, 1), (11, 0)]
        .into_iter()
        .chain((3..=255).flat_map(|n| (0..2).map(move |seed| (n, seed))))
    {
        let tree = FlatTree::random_full(2, n, seed);
        let ids = IdAssignment::random_sparse_len(tree.len(), seed);
        let case = format!("n = {n}, seed = {seed}");
        let (colors, sim) = Simulator::new(&tree, ids.clone()).run(&ChainColorReduction);
        assert_proper(&tree, &colors, &case);
        let flat = chain_color_reduction_flat(&tree, &ids, 1, &mut scratch);
        assert_eq!(scratch.colors(), colors.as_slice(), "{case}");
        assert_eq!(flat, sim, "{case}");
    }
}
