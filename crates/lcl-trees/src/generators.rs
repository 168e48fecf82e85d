//! Arena generators for the tree families used throughout the paper: balanced
//! and random full δ-ary trees (Section 4.1), directed paths (δ = 1), hairy
//! paths (Definition 4.11), and the skewed and path-with-subtrees shapes that
//! have no streaming counterpart. A test oracle: production code builds its
//! trees with the [`FlatTree`](crate::FlatTree) generators, which produce the
//! same trees for equal arguments.

use lcl_rand::SplitMix64;

use crate::flat::minimal_complete_depth;
use crate::tree::{NodeId, RootedTree, TreeBuilder};

/// Builds the perfectly balanced full δ-ary tree of the given `depth`
/// (a *complete* δ-ary tree: every internal node has exactly δ children and all
/// leaves are at depth `depth`).
pub fn balanced(delta: usize, depth: usize) -> RootedTree {
    assert!(delta >= 1, "delta must be at least 1");
    let mut b = TreeBuilder::new();
    for _ in 0..depth {
        b.expand_all_leaves(delta);
    }
    b.finish()
}

/// Builds the smallest perfectly balanced full δ-ary tree with at least `min_nodes`
/// nodes ("as balanced as possible", used in the proofs of Lemma 6.4 and 6.7).
pub fn balanced_with_at_least(delta: usize, min_nodes: usize) -> RootedTree {
    balanced(delta, minimal_complete_depth(delta, min_nodes))
}

/// Builds a directed path with `len` nodes (a full 1-ary tree). The root is the
/// first node; each node's single child continues the path.
pub fn path(len: usize) -> RootedTree {
    assert!(len >= 1);
    let mut t = RootedTree::singleton();
    let mut cur = t.root();
    for _ in 1..len {
        cur = t.add_child(cur);
    }
    t
}

/// Builds a *hairy path* (Definition 4.11): a directed path of `spine_len` internal
/// nodes where every spine node has exactly `delta` children — one continuing the
/// spine (except for the last spine node) and the rest being leaves.
///
/// The returned tree is a full δ-ary tree.
pub fn hairy_path(delta: usize, spine_len: usize) -> RootedTree {
    assert!(delta >= 1);
    assert!(spine_len >= 1);
    let mut t = RootedTree::singleton();
    let mut cur = t.root();
    for i in 0..spine_len {
        let children = t.add_children(cur, delta);
        if i + 1 < spine_len {
            // Continue the spine through the first child; the rest stay leaves.
            cur = children[0];
        }
    }
    t
}

/// Builds a uniformly random full δ-ary tree with at least `min_nodes` nodes, by
/// repeatedly expanding a random leaf into an internal node with δ children.
///
/// The result always satisfies `is_full_dary(delta)` and has
/// `min_nodes ≤ n ≤ min_nodes + delta` nodes.
pub fn random_full(delta: usize, min_nodes: usize, seed: u64) -> RootedTree {
    assert!(delta >= 1);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = RootedTree::singleton();
    let mut leaves: Vec<NodeId> = vec![t.root()];
    while t.len() < min_nodes {
        let idx = rng.gen_index(leaves.len());
        let leaf = leaves.swap_remove(idx);
        let new_children = t.add_children(leaf, delta);
        leaves.extend(new_children);
    }
    t
}

/// Builds a random full δ-ary tree whose expansion is biased towards deep, skinny
/// shapes (`skew` close to 1.0) or shallow, bushy shapes (`skew` close to 0.0).
///
/// With `skew = 1.0` the most recently created leaf is always expanded, producing a
/// hairy path; with `skew = 0.0` the oldest leaf is expanded, producing a balanced
/// tree; values in between interpolate. Useful for stress-testing solvers whose
/// round complexity depends on tree height.
pub fn random_skewed(delta: usize, min_nodes: usize, skew: f64, seed: u64) -> RootedTree {
    assert!(delta >= 1);
    assert!((0.0..=1.0).contains(&skew), "skew must be in [0, 1]");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut t = RootedTree::singleton();
    let mut leaves: Vec<NodeId> = vec![t.root()];
    while t.len() < min_nodes {
        let idx = if rng.gen_bool(skew) {
            leaves.len() - 1
        } else {
            rng.gen_index(leaves.len())
        };
        let leaf = leaves.remove(idx);
        let new_children = t.add_children(leaf, delta);
        leaves.extend(new_children);
    }
    t
}

/// Builds the tree produced by attaching a balanced full δ-ary tree of depth
/// `subtree_depth` below each spine node of a directed path of length `spine_len`
/// (in addition to the spine child). The spine nodes therefore have `delta`
/// children; this matches the "imagine δ − 1 additional trees connected to each node
/// of the path" simulation used in the proof of Theorem 7.7.
pub fn path_with_balanced_subtrees(
    delta: usize,
    spine_len: usize,
    subtree_depth: usize,
) -> RootedTree {
    assert!(delta >= 1);
    assert!(spine_len >= 1);
    let mut t = RootedTree::singleton();
    let mut cur = t.root();
    for i in 0..spine_len {
        let children = t.add_children(cur, delta);
        // Children 1..delta carry balanced subtrees; child 0 continues the spine.
        for &c in children.iter().skip(1) {
            attach_balanced(&mut t, c, delta, subtree_depth);
        }
        if i + 1 < spine_len {
            cur = children[0];
        } else {
            attach_balanced(&mut t, children[0], delta, subtree_depth);
        }
    }
    t
}

/// Attaches a balanced full δ-ary tree of the given depth below `node` (which must
/// currently be a leaf of `tree`).
pub fn attach_balanced(tree: &mut RootedTree, node: NodeId, delta: usize, depth: usize) {
    let mut frontier = vec![node];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * delta);
        for v in frontier {
            next.extend(tree.add_children(v, delta));
        }
        frontier = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::complete_tree_size;

    #[test]
    fn balanced_sizes() {
        assert_eq!(balanced(2, 0).len(), 1);
        assert_eq!(balanced(2, 3).len(), 15);
        assert_eq!(balanced(3, 2).len(), 13);
        assert_eq!(complete_tree_size(2, 3), 15);
        assert_eq!(complete_tree_size(1, 4), 5);
        assert_eq!(complete_tree_size(3, 2), 13);
    }

    #[test]
    fn balanced_is_full_and_uniform_depth() {
        let t = balanced(3, 3);
        assert!(t.is_full_dary(3));
        let depths = t.depths();
        for leaf in t.leaves() {
            assert_eq!(depths[leaf.index()], 3);
        }
        t.validate().unwrap();
    }

    #[test]
    fn balanced_with_at_least_minimal() {
        let t = balanced_with_at_least(2, 10);
        assert!(t.len() >= 10);
        assert_eq!(t.len(), 15);
        assert_eq!(balanced_with_at_least(2, 1).len(), 1);
        assert_eq!(balanced_with_at_least(2, 3).len(), 3);
    }

    #[test]
    fn path_structure() {
        let t = path(5);
        assert_eq!(t.len(), 5);
        assert!(t.is_full_dary(1));
        assert_eq!(t.height(), 4);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn hairy_path_structure() {
        let t = hairy_path(3, 4);
        assert!(t.is_full_dary(3));
        assert_eq!(t.internal_count(), 4);
        assert_eq!(t.len(), 1 + 4 * 3);
        assert_eq!(t.height(), 4);
        t.validate().unwrap();
    }

    #[test]
    fn random_full_is_full_dary() {
        for seed in 0..5 {
            let t = random_full(2, 101, seed);
            assert!(t.is_full_dary(2));
            assert!(t.len() >= 101);
            assert!(t.len() <= 103);
            t.validate().unwrap();
        }
        let t3 = random_full(3, 100, 7);
        assert!(t3.is_full_dary(3));
    }

    #[test]
    fn random_full_sizes_are_congruent() {
        // A full delta-ary tree always has n ≡ 1 (mod delta) nodes.
        for seed in 0..5 {
            let t = random_full(3, 50, seed);
            assert_eq!((t.len() - 1) % 3, 0);
        }
    }

    #[test]
    fn random_skewed_extremes() {
        let skinny = random_skewed(2, 41, 1.0, 1);
        let bushy = random_skewed(2, 41, 0.0, 1);
        assert!(skinny.is_full_dary(2));
        assert!(bushy.is_full_dary(2));
        assert!(skinny.height() > bushy.height());
    }

    #[test]
    fn path_with_subtrees_is_full() {
        let t = path_with_balanced_subtrees(2, 5, 2);
        assert!(t.is_full_dary(2));
        assert!(t.height() >= 5);
        t.validate().unwrap();
    }

    #[test]
    fn attach_balanced_expands_leaf() {
        let mut t = RootedTree::singleton();
        let r = t.root();
        attach_balanced(&mut t, r, 2, 3);
        assert_eq!(t.len(), 15);
        assert!(t.is_full_dary(2));
    }
}
