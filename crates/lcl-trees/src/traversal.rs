//! Arena traversal helpers that are not methods of [`RootedTree`]: level
//! structure, root-to-leaf paths (Definition 4.10), and vertical paths
//! (sub-paths of root-to-leaf paths, used heavily in Sections 5–7). Test
//! oracles, like the arena tree itself.

use crate::tree::{NodeId, RootedTree};

/// Groups the nodes of `tree` by depth: entry `i` lists all nodes at depth `i`.
pub fn nodes_by_depth(tree: &RootedTree) -> Vec<Vec<NodeId>> {
    let depths = tree.depths();
    let height = depths.iter().copied().max().unwrap_or(0);
    let mut levels = vec![Vec::new(); height + 1];
    for v in tree.nodes() {
        levels[depths[v.index()]].push(v);
    }
    levels
}

/// Returns every root-to-leaf path (Definition 4.10), each as a vector of nodes
/// starting at the root and ending at a leaf.
pub fn root_to_leaf_paths(tree: &RootedTree) -> Vec<Vec<NodeId>> {
    tree.leaves()
        .map(|leaf| {
            let mut path = tree.ancestor_chain(leaf, tree.len());
            path.reverse();
            path
        })
        .collect()
}

/// Returns the vertical path from `top` down to `bottom`, or `None` if `bottom` is
/// not a descendant of `top`. The result starts at `top` and ends at `bottom`.
pub fn vertical_path(tree: &RootedTree, top: NodeId, bottom: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![bottom];
    let mut cur = bottom;
    while cur != top {
        cur = tree.parent(cur)?;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Returns `true` if `tree` is a *hairy path* (Definition 4.11) for the given `delta`:
/// a full δ-ary tree obtained by attaching leaves to a directed path such that all
/// path nodes have exactly δ children.
pub fn is_hairy_path(tree: &RootedTree, delta: usize) -> bool {
    if !tree.is_full_dary(delta) {
        return false;
    }
    // Internal nodes must form a single vertical path: each internal node has at
    // most one internal child.
    let mut cur = tree.root();
    if tree.is_leaf(cur) {
        return tree.len() == 1;
    }
    loop {
        let internal_children: Vec<NodeId> = tree
            .children(cur)
            .iter()
            .copied()
            .filter(|&c| tree.is_internal(c))
            .collect();
        match internal_children.len() {
            0 => break,
            1 => cur = internal_children[0],
            _ => return false,
        }
    }
    // Every internal node must be on the path we just walked; equivalently, the
    // number of internal nodes equals the path length we traversed.
    let mut path_len = 1;
    let mut cur = tree.root();
    loop {
        let next = tree
            .children(cur)
            .iter()
            .copied()
            .find(|&c| tree.is_internal(c));
        match next {
            Some(n) => {
                path_len += 1;
                cur = n;
            }
            None => break,
        }
    }
    path_len == tree.internal_count()
}

/// Statistics of the vertical structure of a tree, used by experiment reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeStats {
    /// Total number of nodes.
    pub nodes: usize,
    /// Number of internal nodes.
    pub internal: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Height (maximum depth).
    pub height: usize,
    /// Length of the shortest root-to-leaf path.
    pub min_leaf_depth: usize,
    /// Maximum number of children over all nodes.
    pub max_degree: usize,
}

/// Computes [`TreeStats`] for a tree.
pub fn stats(tree: &RootedTree) -> TreeStats {
    let depths = tree.depths();
    let min_leaf_depth = tree.leaves().map(|v| depths[v.index()]).min().unwrap_or(0);
    TreeStats {
        nodes: tree.len(),
        internal: tree.internal_count(),
        leaves: tree.leaf_count(),
        height: tree.height(),
        min_leaf_depth,
        max_degree: tree
            .nodes()
            .map(|v| tree.num_children(v))
            .max()
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn levels_of_balanced_tree() {
        let t = generators::balanced(2, 3);
        let levels = nodes_by_depth(&t);
        assert_eq!(levels.len(), 4);
        assert_eq!(levels[0].len(), 1);
        assert_eq!(levels[1].len(), 2);
        assert_eq!(levels[2].len(), 4);
        assert_eq!(levels[3].len(), 8);
    }

    #[test]
    fn root_to_leaf_paths_cover_leaves() {
        let t = generators::balanced(2, 2);
        let paths = root_to_leaf_paths(&t);
        assert_eq!(paths.len(), 4);
        for p in &paths {
            assert_eq!(p[0], t.root());
            assert_eq!(p.len(), 3);
            assert!(t.is_leaf(*p.last().unwrap()));
        }
    }

    #[test]
    fn vertical_path_between_nodes() {
        let t = generators::balanced(2, 3);
        let leaf = t.leaves().next().unwrap();
        let path = vertical_path(&t, t.root(), leaf).unwrap();
        assert_eq!(path.len(), 4);
        assert_eq!(path[0], t.root());
        assert_eq!(*path.last().unwrap(), leaf);
        // Not a descendant: sibling of the root's first child.
        let c = t.children(t.root())[1];
        let d = t.children(t.root())[0];
        assert!(vertical_path(&t, c, d).is_none());
    }

    #[test]
    fn hairy_path_detection() {
        let hp = generators::hairy_path(2, 5);
        assert!(is_hairy_path(&hp, 2));
        let balanced = generators::balanced(2, 3);
        assert!(!is_hairy_path(&balanced, 2));
        let singleton = RootedTree::singleton();
        assert!(is_hairy_path(&singleton, 2));
    }

    #[test]
    fn stats_of_balanced_tree() {
        let t = generators::balanced(3, 2);
        let s = stats(&t);
        assert_eq!(s.nodes, 13);
        assert_eq!(s.internal, 4);
        assert_eq!(s.leaves, 9);
        assert_eq!(s.height, 2);
        assert_eq!(s.min_leaf_depth, 2);
        assert_eq!(s.max_degree, 3);
    }
}
