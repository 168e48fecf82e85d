//! Seeded property tests for the tree generators: the balanced size formula,
//! the hairy-path shape of Definition 4.11, degree bounds of random full
//! δ-ary trees, minimality of `balanced_with_at_least`, and agreement between
//! the arena generators and their streaming `FlatTree` counterparts.
//!
//! These are loop-based property tests in the workspace's dependency-free
//! style: a `SplitMix64` seed drives every randomized case, so failures
//! reproduce exactly.

use lcl_rand::SplitMix64;
use lcl_trees::flat::complete_tree_size;
use lcl_trees::generators::{
    balanced, balanced_with_at_least, hairy_path, path, random_full, random_skewed,
};
use lcl_trees::FlatTree;

/// Closed form of the complete δ-ary tree size: `(δ^(d+1) − 1)/(δ − 1)` for
/// δ ≥ 2, and `d + 1` on the path.
fn closed_form_size(delta: usize, depth: usize) -> usize {
    if delta == 1 {
        depth + 1
    } else {
        (delta.pow(depth as u32 + 1) - 1) / (delta - 1)
    }
}

#[test]
fn balanced_size_formula_over_the_grid() {
    for delta in 1..=4 {
        for depth in 0..=5 {
            let t = balanced(delta, depth);
            let expected = closed_form_size(delta, depth);
            assert_eq!(t.len(), expected, "delta {delta} depth {depth}");
            assert_eq!(
                complete_tree_size(delta, depth),
                expected,
                "delta {delta} depth {depth}"
            );
            assert!(t.is_full_dary(delta));
            assert_eq!(t.leaf_count(), delta.pow(depth as u32));
            assert_eq!(t.internal_count(), expected - delta.pow(depth as u32));
            // Every leaf sits at exactly `depth`.
            let depths = t.depths();
            for leaf in t.leaves() {
                assert_eq!(depths[leaf.index()], depth);
            }
            t.validate().unwrap();
        }
    }
}

#[test]
fn hairy_path_shape_matches_definition_4_11() {
    // Definition 4.11: a directed path of spine nodes, each with exactly δ
    // children — one continuing the spine (except the last), the rest leaves.
    let mut rng = SplitMix64::seed_from_u64(411);
    for _ in 0..40 {
        let delta = 1 + rng.gen_index(4);
        let spine = 1 + rng.gen_index(20);
        let t = hairy_path(delta, spine);
        assert_eq!(t.len(), 1 + spine * delta, "delta {delta} spine {spine}");
        assert_eq!(t.internal_count(), spine);
        assert_eq!(t.leaf_count(), spine * (delta - 1) + 1);
        assert_eq!(t.height(), spine);
        assert!(t.is_full_dary(delta));
        // Walk the spine: each internal node has exactly one internal child,
        // except the deepest, whose children are all leaves.
        let mut cur = t.root();
        for step in 0..spine {
            assert_eq!(t.num_children(cur), delta, "spine step {step}");
            let internal_children: Vec<_> = t
                .children(cur)
                .iter()
                .copied()
                .filter(|&c| t.num_children(c) > 0)
                .collect();
            if step + 1 < spine {
                assert_eq!(
                    internal_children.len(),
                    1,
                    "spine must continue through exactly one child at step {step}"
                );
                cur = internal_children[0];
            } else {
                assert!(
                    internal_children.is_empty(),
                    "the last spine node must carry only leaves"
                );
            }
        }
        t.validate().unwrap();
    }
    // δ = 1 degenerates to the directed path.
    assert_eq!(
        FlatTree::from_tree(&hairy_path(1, 7)),
        FlatTree::from_tree(&path(8))
    );
}

#[test]
fn random_full_degree_bounds_over_seeds() {
    let mut rng = SplitMix64::seed_from_u64(2026);
    for _ in 0..60 {
        let delta = 1 + rng.gen_index(4);
        let min_nodes = 1 + rng.gen_index(300);
        let seed = rng.next_u64();
        let t = random_full(delta, min_nodes, seed);
        // Degree bound: every node has 0 or exactly δ children.
        for v in t.nodes() {
            let c = t.num_children(v);
            assert!(
                c == 0 || c == delta,
                "node degree {c} violates full δ-ary with delta {delta}"
            );
        }
        // Size bound: each expansion adds δ nodes, so n ≡ 1 (mod δ) and the
        // generator stops at the first size ≥ min_nodes.
        assert!(t.len() >= min_nodes);
        assert!(t.len() < min_nodes + delta.max(2));
        assert_eq!((t.len() - 1) % delta, 0);
        t.validate().unwrap();
        // Determinism: the same seed regrows the identical tree.
        assert_eq!(
            FlatTree::from_tree(&random_full(delta, min_nodes, seed)),
            FlatTree::from_tree(&t)
        );
    }
}

#[test]
fn random_full_seeds_actually_vary() {
    let trees: Vec<FlatTree> = (0..6)
        .map(|seed| FlatTree::from_tree(&random_full(2, 101, seed)))
        .collect();
    assert!(
        trees.windows(2).any(|w| w[0] != w[1]),
        "six seeds produced six identical 101-node trees"
    );
}

#[test]
fn balanced_with_at_least_is_minimal() {
    let mut rng = SplitMix64::seed_from_u64(64);
    for _ in 0..60 {
        let delta = 1 + rng.gen_index(4);
        let min_nodes = 1 + rng.gen_index(500);
        let t = balanced_with_at_least(delta, min_nodes);
        let height = t.height();
        // It is the complete tree of its height, it meets the bound, and the
        // next-smaller complete tree does not.
        assert_eq!(t.len(), complete_tree_size(delta, height));
        assert!(t.len() >= min_nodes, "delta {delta} min {min_nodes}");
        if height > 0 {
            assert!(
                complete_tree_size(delta, height - 1) < min_nodes,
                "delta {delta} min {min_nodes}: depth {height} is not minimal"
            );
        }
    }
}

#[test]
fn random_skewed_respects_degree_and_size_bounds() {
    let mut rng = SplitMix64::seed_from_u64(7);
    for _ in 0..20 {
        let delta = 1 + rng.gen_index(3);
        let min_nodes = 10 + rng.gen_index(100);
        let skew = [0.0, 0.25, 0.5, 0.75, 1.0][rng.gen_index(5)];
        let t = random_skewed(delta, min_nodes, skew, rng.next_u64());
        assert!(t.is_full_dary(delta));
        assert!(t.len() >= min_nodes);
        t.validate().unwrap();
    }
}

#[test]
fn streaming_generators_agree_with_arena_generators_over_seeds() {
    let mut rng = SplitMix64::seed_from_u64(99);
    for _ in 0..25 {
        let delta = 1 + rng.gen_index(3);
        let min_nodes = 1 + rng.gen_index(200);
        let seed = rng.next_u64();
        assert_eq!(
            FlatTree::random_full(delta, min_nodes, seed),
            FlatTree::from_tree(&random_full(delta, min_nodes, seed)),
            "delta {delta} min {min_nodes} seed {seed}"
        );
        let depth = rng.gen_index(5);
        assert_eq!(
            FlatTree::balanced(delta, depth),
            FlatTree::from_tree(&balanced(delta, depth))
        );
        let spine = 1 + rng.gen_index(12);
        assert_eq!(
            FlatTree::hairy_path(delta, spine),
            FlatTree::from_tree(&hairy_path(delta, spine))
        );
    }
}
