//! Arena-based rooted trees, the reference tree type of the tests.
//!
//! A [`RootedTree`] stores nodes in a flat arena indexed by [`NodeId`]. Every node
//! except the root has exactly one parent; children are kept in insertion order,
//! which doubles as a deterministic port numbering (the paper's `p(v)` in
//! Section 7.3 is derived from it). Production code builds
//! [`FlatTree`](crate::FlatTree)s; the arena tree, its per-node `Vec`s and its
//! naive traversals are the independent oracle the CSR layer is tested against.

use std::fmt;

/// Index of a node inside a [`RootedTree`] arena.
///
/// Node ids are dense: a tree with `n` nodes uses ids `0..n`. The root is not
/// necessarily id `0` in general, but all constructors in this crate place it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A rooted tree stored in an arena.
///
/// The tree is *directed towards the root*: every non-root node has a parent, and
/// edges are conceptually oriented from child to parent, matching the convention of
/// the paper (Section 5.3: "each edge `{u, v}` is oriented from `u` to `v` if `v` is
/// the parent of `u`").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootedTree {
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    root: NodeId,
}

impl RootedTree {
    /// Creates a tree consisting of a single root node.
    pub fn singleton() -> Self {
        RootedTree {
            parent: vec![None],
            children: vec![Vec::new()],
            root: NodeId(0),
        }
    }

    /// Returns the root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Returns the number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the tree has no nodes.
    ///
    /// Trees built through this crate always contain at least the root, so this is
    /// only `true` for exotic hand-built instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Returns the parent of `v`, or `None` if `v` is the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Returns the children of `v` in port order.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Returns the number of children of `v`.
    #[inline]
    pub fn num_children(&self, v: NodeId) -> usize {
        self.children[v.index()].len()
    }

    /// Returns `true` if `v` has no children.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children[v.index()].is_empty()
    }

    /// Returns `true` if `v` has at least one child.
    #[inline]
    pub fn is_internal(&self, v: NodeId) -> bool {
        !self.is_leaf(v)
    }

    /// Returns the port number of `v` at its parent (0-based position among the
    /// parent's children), or `None` for the root.
    pub fn port_at_parent(&self, v: NodeId) -> Option<usize> {
        let p = self.parent(v)?;
        self.children(p).iter().position(|&c| c == v)
    }

    /// Adds a child to `parent` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of bounds.
    pub fn add_child(&mut self, parent: NodeId) -> NodeId {
        assert!(parent.index() < self.len(), "parent {parent} out of bounds");
        let id = NodeId(self.parent.len() as u32);
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.children[parent.index()].push(id);
        id
    }

    /// Adds `count` children to `parent`, returning their ids in port order.
    pub fn add_children(&mut self, parent: NodeId, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_child(parent)).collect()
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Iterates over all internal (non-leaf) nodes.
    pub fn internal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&v| self.is_internal(v))
    }

    /// Iterates over all leaves.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&v| self.is_leaf(v))
    }

    /// Returns the number of internal nodes.
    pub fn internal_count(&self) -> usize {
        self.internal_nodes().count()
    }

    /// Returns the number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves().count()
    }

    /// Returns `true` if every internal node has exactly `delta` children, i.e. the
    /// tree is a *full δ-ary tree* in the sense of Section 4.1.
    pub fn is_full_dary(&self, delta: usize) -> bool {
        self.nodes()
            .all(|v| self.is_leaf(v) || self.num_children(v) == delta)
    }

    /// Returns the depth of `v` (number of edges from the root).
    pub fn depth(&self, v: NodeId) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Returns the height of the tree (maximum depth of any node).
    pub fn height(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Returns the depth of every node, indexed by node id.
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.len()];
        for v in self.bfs_order() {
            if let Some(p) = self.parent(v) {
                depth[v.index()] = depth[p.index()] + 1;
            }
        }
        depth
    }

    /// Returns the nodes in breadth-first order starting from the root.
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(self.root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &c in self.children(v) {
                queue.push_back(c);
            }
        }
        order
    }

    /// Returns the nodes in a post-order traversal (children before parents).
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut order = self.bfs_order();
        order.reverse();
        order
    }

    /// Returns the size of the subtree rooted at each node.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.len()];
        for v in self.post_order() {
            if let Some(p) = self.parent(v) {
                size[p.index()] += size[v.index()];
            }
        }
        size
    }

    /// Returns the height of the subtree rooted at each node (0 for leaves).
    pub fn subtree_heights(&self) -> Vec<usize> {
        let mut height = vec![0usize; self.len()];
        for v in self.post_order() {
            if let Some(p) = self.parent(v) {
                height[p.index()] = height[p.index()].max(height[v.index()] + 1);
            }
        }
        height
    }

    /// Iterates over the strict ancestors of `v`, nearest first.
    pub fn ancestors(&self, v: NodeId) -> Ancestors<'_> {
        Ancestors {
            tree: self,
            current: self.parent(v),
        }
    }

    /// Returns the ancestor of `v` at distance `k`, or `None` if the root is closer
    /// than `k` edges away. Distance 0 returns `v` itself.
    pub fn ancestor_at(&self, v: NodeId, k: usize) -> Option<NodeId> {
        let mut cur = v;
        for _ in 0..k {
            cur = self.parent(cur)?;
        }
        Some(cur)
    }

    /// Returns the chain `[v, parent(v), …]` of length at most `k + 1` (i.e. `v`
    /// followed by up to `k` ancestors, nearest first).
    pub fn ancestor_chain(&self, v: NodeId, k: usize) -> Vec<NodeId> {
        let mut chain = Vec::with_capacity(k + 1);
        chain.push(v);
        let mut cur = v;
        for _ in 0..k {
            match self.parent(cur) {
                Some(p) => {
                    chain.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        chain
    }

    /// Returns all descendants of `v` at distance exactly `k` (including `v` itself
    /// when `k == 0`).
    pub fn descendants_at(&self, v: NodeId, k: usize) -> Vec<NodeId> {
        let mut frontier = vec![v];
        for _ in 0..k {
            let mut next = Vec::new();
            for u in frontier {
                next.extend_from_slice(self.children(u));
            }
            frontier = next;
        }
        frontier
    }

    /// Returns all nodes of the subtree rooted at `v`, in BFS order from `v`.
    pub fn subtree_nodes(&self, v: NodeId) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &c in self.children(u) {
                queue.push_back(c);
            }
        }
        order
    }

    /// Returns the unique undirected distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let depths = self.depths();
        let (mut a, mut b) = (a, b);
        let (mut da, mut db) = (depths[a.index()], depths[b.index()]);
        let mut dist = 0;
        while da > db {
            a = self.parent(a).expect("depth accounting");
            da -= 1;
            dist += 1;
        }
        while db > da {
            b = self.parent(b).expect("depth accounting");
            db -= 1;
            dist += 1;
        }
        while a != b {
            a = self.parent(a).expect("nodes in same tree");
            b = self.parent(b).expect("nodes in same tree");
            dist += 2;
        }
        dist
    }

    /// Checks internal consistency (parent/child symmetry, acyclicity, single root).
    /// Intended for tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("tree has no nodes".into());
        }
        if self.parent[self.root.index()].is_some() {
            return Err("root has a parent".into());
        }
        let mut root_count = 0;
        for v in self.nodes() {
            match self.parent(v) {
                None => root_count += 1,
                Some(p) => {
                    if !self.children(p).contains(&v) {
                        return Err(format!("{v} not listed among children of {p}"));
                    }
                }
            }
            for &c in self.children(v) {
                if self.parent(c) != Some(v) {
                    return Err(format!("child {c} of {v} has wrong parent"));
                }
            }
        }
        if root_count != 1 {
            return Err(format!("expected exactly one root, found {root_count}"));
        }
        if self.bfs_order().len() != self.len() {
            return Err("tree is not connected".into());
        }
        Ok(())
    }
}

impl Default for RootedTree {
    fn default() -> Self {
        Self::singleton()
    }
}

/// Iterator over the strict ancestors of a node, nearest first.
pub struct Ancestors<'a> {
    tree: &'a RootedTree,
    current: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.current?;
        self.current = self.tree.parent(cur);
        Some(cur)
    }
}

/// Convenience builder used by generators that construct trees level by level.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    tree: RootedTree,
}

impl TreeBuilder {
    /// Creates a builder holding a single-root tree.
    pub fn new() -> Self {
        TreeBuilder {
            tree: RootedTree::singleton(),
        }
    }

    /// Returns the root node id.
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// Adds `delta` children under `parent`.
    pub fn expand(&mut self, parent: NodeId, delta: usize) -> Vec<NodeId> {
        self.tree.add_children(parent, delta)
    }

    /// Gives every current leaf `delta` children, returning the new leaves.
    pub fn expand_all_leaves(&mut self, delta: usize) -> Vec<NodeId> {
        let leaves: Vec<NodeId> = self.tree.leaves().collect();
        let mut new_leaves = Vec::with_capacity(leaves.len() * delta);
        for leaf in leaves {
            new_leaves.extend(self.tree.add_children(leaf, delta));
        }
        new_leaves
    }

    /// Consumes the builder, returning the finished tree.
    pub fn finish(self) -> RootedTree {
        self.tree
    }

    /// Read-only access to the tree under construction.
    pub fn tree(&self) -> &RootedTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> RootedTree {
        // root with two children; first child has two children.
        let mut t = RootedTree::singleton();
        let r = t.root();
        let a = t.add_child(r);
        let _b = t.add_child(r);
        let _c = t.add_child(a);
        let _d = t.add_child(a);
        t
    }

    #[test]
    fn singleton_tree() {
        let t = RootedTree::singleton();
        assert_eq!(t.len(), 1);
        assert!(t.is_leaf(t.root()));
        assert_eq!(t.height(), 0);
        assert!(t.is_full_dary(2));
        t.validate().unwrap();
    }

    #[test]
    fn add_child_links_parent_and_port() {
        let mut t = RootedTree::singleton();
        let r = t.root();
        let a = t.add_child(r);
        let b = t.add_child(r);
        assert_eq!(t.parent(a), Some(r));
        assert_eq!(t.parent(b), Some(r));
        assert_eq!(t.children(r), &[a, b]);
        assert_eq!(t.port_at_parent(a), Some(0));
        assert_eq!(t.port_at_parent(b), Some(1));
        assert_eq!(t.port_at_parent(r), None);
        t.validate().unwrap();
    }

    #[test]
    fn depths_and_height() {
        let t = small_tree();
        let depths = t.depths();
        assert_eq!(depths[t.root().index()], 0);
        assert_eq!(t.height(), 2);
        assert_eq!(t.depth(NodeId(3)), 2);
    }

    #[test]
    fn full_dary_detection() {
        let t = small_tree();
        assert!(t.is_full_dary(2));
        let mut t2 = small_tree();
        t2.add_child(NodeId(1));
        assert!(!t2.is_full_dary(2));
    }

    #[test]
    fn bfs_and_post_order_cover_all_nodes() {
        let t = small_tree();
        assert_eq!(t.bfs_order().len(), t.len());
        assert_eq!(t.post_order().len(), t.len());
        assert_eq!(t.bfs_order()[0], t.root());
        assert_eq!(*t.post_order().last().unwrap(), t.root());
    }

    #[test]
    fn subtree_sizes_and_heights() {
        let t = small_tree();
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[t.root().index()], 5);
        assert_eq!(sizes[NodeId(1).index()], 3);
        assert_eq!(sizes[NodeId(2).index()], 1);
        let heights = t.subtree_heights();
        assert_eq!(heights[t.root().index()], 2);
        assert_eq!(heights[NodeId(1).index()], 1);
    }

    #[test]
    fn ancestors_and_ancestor_at() {
        let t = small_tree();
        let leaf = NodeId(3);
        let ancs: Vec<NodeId> = t.ancestors(leaf).collect();
        assert_eq!(ancs, vec![NodeId(1), NodeId(0)]);
        assert_eq!(t.ancestor_at(leaf, 0), Some(leaf));
        assert_eq!(t.ancestor_at(leaf, 1), Some(NodeId(1)));
        assert_eq!(t.ancestor_at(leaf, 2), Some(NodeId(0)));
        assert_eq!(t.ancestor_at(leaf, 3), None);
        assert_eq!(t.ancestor_chain(leaf, 5), vec![leaf, NodeId(1), NodeId(0)]);
    }

    #[test]
    fn descendants_at_distance() {
        let t = small_tree();
        assert_eq!(t.descendants_at(t.root(), 0), vec![t.root()]);
        assert_eq!(t.descendants_at(t.root(), 1), vec![NodeId(1), NodeId(2)]);
        assert_eq!(t.descendants_at(t.root(), 2), vec![NodeId(3), NodeId(4)]);
        assert!(t.descendants_at(t.root(), 3).is_empty());
    }

    #[test]
    fn distances() {
        let t = small_tree();
        assert_eq!(t.distance(NodeId(3), NodeId(4)), 2);
        assert_eq!(t.distance(NodeId(3), NodeId(2)), 3);
        assert_eq!(t.distance(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.distance(NodeId(0), NodeId(3)), 2);
    }

    #[test]
    fn builder_expand_all_leaves() {
        let mut b = TreeBuilder::new();
        b.expand_all_leaves(3);
        b.expand_all_leaves(3);
        let t = b.finish();
        assert_eq!(t.len(), 1 + 3 + 9);
        assert!(t.is_full_dary(3));
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn subtree_nodes_bfs() {
        let t = small_tree();
        let sub = t.subtree_nodes(NodeId(1));
        assert_eq!(sub, vec![NodeId(1), NodeId(3), NodeId(4)]);
    }
}
