//! Radius-t views (Section 5.4): the ball of nodes a node can see after t rounds.
//!
//! Used by the small-scale lower-bound experiments: two nodes with isomorphic
//! radius-t views must produce the same output under any deterministic t-round
//! algorithm that only uses the structure visible in the view.

use lcl_trees::FlatTree;

/// The radius-`t` ball around a node, with enough structure to compare views for
/// isomorphism in the port-numbering model: for every node in the ball we record
/// its distance-profile position relative to the centre.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct View {
    /// Canonical encoding of the view (see [`radius_t_view`]).
    pub encoding: Vec<u64>,
}

/// Computes a canonical, identifier-free encoding of the radius-`t` view of `v` in
/// the port-numbering model. Two nodes receive equal encodings iff their views are
/// isomorphic (including the positions of "external" edges leaving the ball and the
/// distinction between parent and child ports).
pub fn radius_t_view(tree: &FlatTree, v: u32, t: usize) -> View {
    // Encode recursively: the view from a node is determined by (a) whether it has
    // a parent, (b) for each child in port order, the child's sub-view one radius
    // smaller, and (c) the view of the parent one radius smaller excluding the
    // subtree we came from. We encode with a simple bracket language over u64.
    fn encode_down(tree: &FlatTree, u: u32, radius: usize, out: &mut Vec<u64>) {
        out.push(1); // open "down"
        out.push(tree.num_children(u) as u64);
        if radius > 0 {
            for &c in tree.children(u) {
                encode_down(tree, c, radius - 1, out);
            }
        }
        out.push(2); // close
    }
    fn encode_up(tree: &FlatTree, u: u32, from: u32, radius: usize, out: &mut Vec<u64>) {
        out.push(3); // open "up"
        match tree.parent(u) {
            None => out.push(0),
            Some(_) => out.push(1),
        }
        out.push(tree.num_children(u) as u64);
        // The port (1-based) of `from`, the child of `u` we came from.
        let port = tree.children(u).iter().position(|&c| c == from);
        out.push(port.expect("`from` is a child of `u`") as u64 + 1);
        if radius > 0 {
            for &c in tree.children(u) {
                if c != from {
                    encode_down(tree, c, radius - 1, out);
                }
            }
            if let Some(p) = tree.parent(u) {
                encode_up(tree, p, u, radius - 1, out);
            }
        }
        out.push(4); // close
    }

    let mut encoding = Vec::new();
    encoding.push(if tree.parent(v).is_some() { 1 } else { 0 });
    encode_down(tree, v, t, &mut encoding);
    if t > 0 {
        if let Some(p) = tree.parent(v) {
            encode_up(tree, p, v, t - 1, &mut encoding);
        }
    }
    View { encoding }
}

/// Groups all nodes of the tree by their radius-`t` view. Nodes in the same group
/// are indistinguishable to any `t`-round port-numbering algorithm.
pub fn view_classes(tree: &FlatTree, t: usize) -> Vec<Vec<u32>> {
    let mut map: std::collections::BTreeMap<View, Vec<u32>> = std::collections::BTreeMap::new();
    for v in 0..tree.len() as u32 {
        map.entry(radius_t_view(tree, v, t)).or_default().push(v);
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_zero_views_distinguish_only_degree_and_parent() {
        let tree = FlatTree::balanced(2, 2);
        let classes = view_classes(&tree, 0);
        // Root (no parent, 2 children), internal (parent + 2 children), leaf.
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn deep_interior_nodes_of_balanced_trees_share_views() {
        let tree = FlatTree::balanced(2, 6);
        let depths = tree.depths();
        // Depth-3 nodes attached through port 0 all have identical radius-1 views
        // (the view includes the port at the parent, so port-1 children differ).
        // Children are numbered in port order, so port 0 is the first child.
        let mid: Vec<u32> = (0..tree.len() as u32)
            .filter(|&v| depths[v as usize] == 3 && tree.children(tree.parent(v).unwrap())[0] == v)
            .collect();
        let first_view = radius_t_view(&tree, mid[0], 1);
        for &v in &mid[1..] {
            assert_eq!(radius_t_view(&tree, v, 1), first_view);
        }
        // But the root's view differs.
        assert_ne!(radius_t_view(&tree, tree.root(), 1), first_view);
    }

    #[test]
    fn views_grow_more_distinguishing_with_radius() {
        let tree = FlatTree::hairy_path(2, 20);
        let classes_0 = view_classes(&tree, 0).len();
        let classes_2 = view_classes(&tree, 2).len();
        assert!(classes_2 >= classes_0);
    }
}
