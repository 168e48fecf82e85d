//! Lower-bound constructions of Section 5.4: bipolar trees, the `⊕_x` operation,
//! the hierarchy `T^x_0, T^x_1, …, T^x_k`, and the concatenations `T^x_{i←j}`.
//!
//! These trees witness the Ω(n^{1/k}) lower bounds (Lemma 5.13/5.14): `T^x_k` has
//! Θ(x^k) nodes, its layer-ℓ nodes form paths of exactly `x` nodes, and solving a
//! problem whose pruning sequence has length `k` requires coordination along a full
//! layer path.

use crate::flat::FlatTree;

/// A *bipolar tree* (Section 5.4): a rooted tree with two distinguished nodes `s`
/// (the root) and `t`; the unique path from `s` to `t` is the *core path*.
///
/// Each node also carries the *layer number* assigned by the hierarchical
/// construction (layer 0 for the innermost copies, layer `k` for the outermost core
/// path of `T^x_k`).
#[derive(Debug, Clone)]
pub struct BipolarTree {
    /// The underlying rooted tree (rooted at `s`).
    pub tree: FlatTree,
    /// The source pole, equal to the root of `tree`.
    pub s: u32,
    /// The sink pole.
    pub t: u32,
    /// Layer number of each node, indexed by node id.
    pub layer: Vec<usize>,
    /// The middle edge `(t₁, s₂)` for concatenations `T^x_{i←j}`, if any.
    pub middle_edge: Option<(u32, u32)>,
}

impl BipolarTree {
    /// The trivial bipolar tree `T^x_0`: a single node in layer 0 with `s = t`.
    pub fn trivial() -> Self {
        BipolarTree {
            tree: FlatTree::from_parent_array(vec![FlatTree::NO_PARENT]),
            s: 0,
            t: 0,
            layer: vec![0],
            middle_edge: None,
        }
    }

    /// Returns the core path from `s` to `t` (inclusive).
    pub fn core_path(&self) -> Vec<u32> {
        let mut path = vec![self.t];
        let mut cur = self.t;
        while cur != self.s {
            cur = self.tree.parent(cur).expect("t must be a descendant of s");
            path.push(cur);
        }
        path.reverse();
        path
    }

    /// Returns all nodes in the given layer.
    pub fn layer_nodes(&self, layer: usize) -> Vec<u32> {
        (0..self.tree.len() as u32)
            .filter(|&v| self.layer[v as usize] == layer)
            .collect()
    }

    /// Returns the maximum layer number.
    pub fn max_layer(&self) -> usize {
        self.layer.iter().copied().max().unwrap_or(0)
    }
}

/// Appends a copy of `sub` to the parent array `parent` and its layers to
/// `layer` (both indexed by node id), making `sub`'s root a child of `under`.
/// The copy's nodes get the next ids in `sub`'s BFS order `bfs`, so each
/// node's children stay consecutive and in port order. Returns the mapping
/// from `sub` node ids to the new ids.
fn graft(
    parent: &mut Vec<u32>,
    layer: &mut Vec<usize>,
    under: u32,
    sub: &BipolarTree,
    bfs: &[u32],
) -> Vec<u32> {
    let mut map = vec![u32::MAX; sub.tree.len()];
    for &v in bfs {
        map[v as usize] = parent.len() as u32;
        parent.push(sub.tree.parent(v).map_or(under, |p| map[p as usize]));
        layer.push(sub.layer[v as usize]);
    }
    map
}

/// The `⊕_x` operation (Section 5.4): start with an `x`-node path `v₁ ← v₂ ← … ← v_x`
/// (oriented towards `v₁`, which becomes the new root `s`), and attach `δ − 1`
/// copies of `inner` below each path node. The new `t` is `v_x`. All path nodes are
/// assigned layer `new_layer`; grafted copies keep their own layers.
pub fn extend(inner: &BipolarTree, delta: usize, x: usize, new_layer: usize) -> BipolarTree {
    assert!(delta >= 1, "delta must be at least 1");
    assert!(x >= 1, "the core path must contain at least one node");
    // The path takes ids 0..x, each node the parent of the next.
    let mut parent: Vec<u32> = (0..x as u32)
        .map(|v| v.checked_sub(1).unwrap_or(FlatTree::NO_PARENT))
        .collect();
    let mut layer = vec![new_layer; x];
    let index = inner.tree.level_index();
    for v in 0..x as u32 {
        for _ in 0..delta.saturating_sub(1) {
            graft(&mut parent, &mut layer, v, inner, index.bfs_order());
        }
    }
    BipolarTree {
        tree: FlatTree::from_parent_array(parent),
        s: 0,
        t: x as u32 - 1,
        layer,
        middle_edge: None,
    }
}

/// Builds the bipolar tree `T^x_k` of Section 5.4 for trees with `delta` children
/// per internal node: `T^x_0` is a single node and `T^x_i = ⊕_x T^x_{i−1}`.
pub fn t_x_k(delta: usize, x: usize, k: usize) -> BipolarTree {
    let mut current = BipolarTree::trivial();
    for i in 1..=k {
        current = extend(&current, delta, x, i);
    }
    current
}

/// Builds the concatenation `T^x_{i←j}` (Section 5.4): `T^x_i` and `T^x_j` joined by
/// the *middle edge* `{t₁, s₂}`, i.e. the root of the second tree becomes a child of
/// the sink pole of the first. The result is a bipolar tree with `s = s₁`, `t = t₂`.
pub fn t_x_i_j(delta: usize, x: usize, i: usize, j: usize) -> BipolarTree {
    let left = t_x_k(delta, x, i);
    let right = t_x_k(delta, x, j);
    concatenate(&left, &right)
}

/// Concatenates two bipolar trees by adding the middle edge `{left.t, right.s}`.
pub fn concatenate(left: &BipolarTree, right: &BipolarTree) -> BipolarTree {
    let mut parent = left.tree.parent_array().to_vec();
    let mut layer = left.layer.clone();
    let index = right.tree.level_index();
    let map = graft(&mut parent, &mut layer, left.t, right, index.bfs_order());
    BipolarTree {
        tree: FlatTree::from_parent_array(parent),
        s: left.s,
        t: map[right.t as usize],
        layer,
        middle_edge: Some((left.t, map[right.s as usize])),
    }
}

/// The number of nodes of `T^x_k` for the given parameters, computed from the
/// recurrence `|T^x_0| = 1`, `|T^x_i| = x · (1 + (δ − 1) · |T^x_{i−1}|)`.
pub fn t_x_k_size(delta: usize, x: usize, k: usize) -> usize {
    let mut size = 1usize;
    for _ in 0..k {
        size = x * (1 + (delta - 1) * size);
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_bipolar_tree() {
        let t = BipolarTree::trivial();
        assert_eq!(t.tree.len(), 1);
        assert_eq!(t.s, t.t);
        assert_eq!(t.core_path().len(), 1);
        assert_eq!(t.max_layer(), 0);
    }

    #[test]
    fn extend_once_matches_structure() {
        // T^x_1 with delta = 3, x = 5 (the setting of Figure 4 before the second level).
        let t1 = t_x_k(3, 5, 1);
        assert_eq!(t1.tree.len(), t_x_k_size(3, 5, 1));
        assert_eq!(t1.tree.len(), 5 * (1 + 2));
        assert_eq!(t1.core_path().len(), 5);
        // Every core-path node except t has delta children; t has delta - 1.
        let core = t1.core_path();
        for (idx, &v) in core.iter().enumerate() {
            let expected = if idx + 1 == core.len() { 2 } else { 3 };
            assert_eq!(t1.tree.num_children(v), expected, "node {idx} of core path");
        }
        t1.tree.validate().unwrap();
    }

    #[test]
    fn figure_4_node_count() {
        // Figure 4: delta = 3, x = 5, k = 2.
        let t = t_x_k(3, 5, 2);
        assert_eq!(t.tree.len(), t_x_k_size(3, 5, 2));
        assert_eq!(t.tree.len(), 5 * (1 + 2 * 15));
        assert_eq!(t.max_layer(), 2);
        // Layer-2 nodes form the core path of exactly x nodes.
        assert_eq!(t.layer_nodes(2).len(), 5);
        // Layer-1 nodes form paths of exactly x nodes each: 2 copies per core node.
        assert_eq!(t.layer_nodes(1).len(), 5 * 2 * 5);
        t.tree.validate().unwrap();
    }

    #[test]
    fn size_grows_as_x_to_the_k() {
        for k in 1..=3 {
            for x in [2usize, 4, 8] {
                let predicted = t_x_k_size(2, x, k);
                let built = t_x_k(2, x, k);
                assert_eq!(built.tree.len(), predicted);
            }
        }
        // Θ(x^k): doubling x multiplies the size by roughly 2^k.
        let small = t_x_k_size(2, 8, 3) as f64;
        let large = t_x_k_size(2, 16, 3) as f64;
        let ratio = large / small;
        assert!(ratio > 6.0 && ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn degrees_in_t_x_k() {
        // Section 5.4: for x ≥ 2 and 1 ≤ j ≤ k there are three possible degrees:
        // 1 (layer-0 nodes), δ (the root and the last node of layer paths), δ + 1
        // (everything else). Degree counts the parent too, except for the root.
        let delta = 3;
        let t = t_x_k(delta, 4, 2);
        for v in 0..t.tree.len() as u32 {
            let degree = t.tree.num_children(v) + usize::from(t.tree.parent(v).is_some());
            if t.layer[v as usize] == 0 {
                assert_eq!(degree, 1, "layer-0 node {v}");
            } else {
                assert!(
                    degree == delta || degree == delta + 1,
                    "unexpected degree {degree} at {v}"
                );
            }
        }
    }

    #[test]
    fn concatenation_has_middle_edge() {
        let t = t_x_i_j(3, 4, 2, 1);
        let (a, b) = t.middle_edge.unwrap();
        assert_eq!(t.tree.parent(b), Some(a));
        assert_eq!(t.tree.len(), t_x_k_size(3, 4, 2) + t_x_k_size(3, 4, 1));
        // s and t are the poles of the two halves.
        assert_eq!(t.s, 0);
        assert!(t.layer[t.s as usize] == 2);
        assert!(t.layer[t.t as usize] == 1);
        t.tree.validate().unwrap();
    }

    #[test]
    fn t_x_i_i_is_extend_2x() {
        // Observation from the paper: T^x_{i←i} is simply ⊕_{2x} T^x_{i−1}.
        let delta = 2;
        let x = 3;
        let a = t_x_i_j(delta, x, 2, 2);
        let inner = t_x_k(delta, x, 1);
        let b = extend(&inner, delta, 2 * x, 2);
        assert_eq!(a.tree.len(), b.tree.len());
        assert_eq!(a.core_path().len(), b.core_path().len());
    }

    #[test]
    fn graft_preserves_shape() {
        let (mut parent, mut layer) = (vec![FlatTree::NO_PARENT], vec![9]);
        let sub = t_x_k(2, 2, 1);
        let map = graft(
            &mut parent,
            &mut layer,
            0,
            &sub,
            sub.tree.level_index().bfs_order(),
        );
        let base = FlatTree::from_parent_array(parent);
        assert_eq!(base.len(), 1 + sub.tree.len());
        assert_eq!(base.num_children(0), 1);
        assert_eq!(base.num_children(map[sub.s as usize]), 2);
        assert_eq!(layer, [9, 1, 1, 0, 0]);
        base.validate().unwrap();
    }

    #[test]
    fn constructions_match_the_arena_grafts() {
        // The arena construction these trees were first built with: path
        // nodes first, then one BFS-order graft per copy.
        use crate::tree::{NodeId, RootedTree};
        fn arena_graft(tree: &mut RootedTree, under: NodeId, sub: &RootedTree) -> Vec<NodeId> {
            let mut map = vec![NodeId(u32::MAX); sub.len()];
            for v in sub.bfs_order() {
                let p = sub.parent(v).map_or(under, |p| map[p.index()]);
                map[v.index()] = tree.add_child(p);
            }
            map
        }
        fn arena_t_x_k(delta: usize, x: usize, k: usize) -> RootedTree {
            let mut current = RootedTree::singleton();
            for _ in 1..=k {
                let mut tree = RootedTree::singleton();
                let mut path = vec![tree.root()];
                for _ in 1..x {
                    let next = tree.add_child(*path.last().unwrap());
                    path.push(next);
                }
                for &v in &path {
                    for _ in 0..delta - 1 {
                        arena_graft(&mut tree, v, &current);
                    }
                }
                current = tree;
            }
            current
        }
        for (delta, x, k) in [(2, 3, 2), (3, 5, 2), (3, 4, 3), (2, 8, 1)] {
            let arena = arena_t_x_k(delta, x, k);
            assert_eq!(t_x_k(delta, x, k).tree, FlatTree::from_tree(&arena));
            let mut joined = arena.clone();
            let right = arena_t_x_k(delta, x, 1);
            let sink = NodeId(x as u32 - 1);
            let map = arena_graft(&mut joined, sink, &right);
            let c = t_x_i_j(delta, x, k, 1);
            assert_eq!(c.tree, FlatTree::from_tree(&joined));
            assert_eq!(c.middle_edge, Some((sink.0, map[0].0)));
        }
    }
}
