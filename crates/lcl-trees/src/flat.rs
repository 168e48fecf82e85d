//! Compressed-sparse-row (CSR) rooted trees, for million-node scale.
//!
//! [`FlatTree`] is the tree type every production path builds and walks: the
//! generators, the solvers, the validator, repair and the simulator. It packs
//! a rooted tree into three flat arrays:
//!
//! * `parent[v]` — the parent of `v`, or [`FlatTree::NO_PARENT`] for the root;
//! * `child_start[v] .. child_start[v + 1]` — the range of `children` holding
//!   the children of `v`, in port order;
//! * `children` — all child ids, concatenated.
//!
//! This is the representation the parallel labeling validator in `lcl-verify`
//! shards over: contiguous, `Sync`, and O(1) to slice at any node range. A
//! `FlatTree` is immutable; the streaming generators ([`FlatTree::random_full`],
//! [`FlatTree::balanced`], [`FlatTree::hairy_path`]) and the lower-bound
//! constructions of [`crate::lower_bound`] build it from a parent array
//! without ever touching a per-node `Vec`. Node ids follow creation order, so
//! the children of a node are numbered consecutively and in port order.
//!
//! # The level index
//!
//! The level-synchronous solvers in `lcl-algorithms` process the tree one
//! depth level at a time. [`LevelIndex`] precomputes everything those passes
//! need, in two allocation-free passes over the CSR arrays (one forward BFS,
//! one reverse scan):
//!
//! * `order` — the nodes in BFS order ([`LevelIndex::bfs_order`]), identical
//!   to a queue-based breadth-first walk from the root. Positions into `order` are called *BFS
//!   positions*; the nodes of depth `d` occupy the contiguous slice
//!   `order[level_start[d] .. level_start[d + 1]]` ([`LevelIndex::level`]).
//! * `parent_pos[i]` — the BFS position of the parent of the node at BFS
//!   position `i` (always `< level_start[d]` for a node at depth `d`), and
//! * `first_child_pos[i] .. first_child_pos[i + 1]` — the BFS positions of
//!   its children. Because BFS appends each node's children consecutively,
//!   these offsets are *monotone*: the BFS view is itself a CSR tree indexed
//!   by position. A per-level pass that walks parents in a contiguous
//!   position range therefore writes a contiguous child range — which is what
//!   lets the flat solvers shard a level across `std::thread::scope` workers
//!   with nothing but `split_at_mut`.
//! * `depth`, `subtree_size`, `subtree_height` — per-node (id-indexed)
//!   aggregates; depths come out of the BFS pass, sizes and heights out of
//!   the reverse scan (children precede parents in reverse BFS order).

use lcl_rand::SplitMix64;

#[cfg(any(test, feature = "reference"))]
use crate::tree::{NodeId, RootedTree};

/// Number of nodes of the complete δ-ary tree of the given depth.
pub fn complete_tree_size(delta: usize, depth: usize) -> usize {
    if delta == 1 {
        return depth + 1;
    }
    let mut size = 0usize;
    let mut level = 1usize;
    for _ in 0..=depth {
        size += level;
        level *= delta;
    }
    size
}

/// The smallest depth whose complete δ-ary tree has at least `min_nodes` nodes.
pub fn minimal_complete_depth(delta: usize, min_nodes: usize) -> usize {
    assert!(delta >= 1);
    let mut depth = 0usize;
    while complete_tree_size(delta, depth) < min_nodes {
        depth += 1;
    }
    depth
}

/// A rooted tree in compressed-sparse-row form. See the module documentation.
///
/// The CSR arrays are `pub(crate)` so the [`crate::dynamic`] layer can edit
/// them in place; everything outside this crate sees an immutable tree.
#[derive(Debug, Clone)]
pub struct FlatTree {
    pub(crate) parent: Vec<u32>,
    pub(crate) child_start: Vec<u32>,
    pub(crate) children: Vec<u32>,
    pub(crate) root: u32,
    /// Lazily computed node-id-indexed depths ([`FlatTree::depths`]).
    pub(crate) depth_cache: std::sync::OnceLock<Vec<u32>>,
}

impl PartialEq for FlatTree {
    fn eq(&self, other: &Self) -> bool {
        // The depth cache is derived state; equality is structural.
        self.parent == other.parent
            && self.child_start == other.child_start
            && self.children == other.children
            && self.root == other.root
    }
}

impl Eq for FlatTree {}

impl FlatTree {
    /// Sentinel stored in the parent array for the root node.
    pub const NO_PARENT: u32 = u32::MAX;

    #[cfg(any(test, feature = "reference"))]
    /// Builds the CSR view of an arena `tree`. Children keep their port
    /// order.
    pub fn from_tree(tree: &RootedTree) -> Self {
        let n = tree.len();
        let mut parent = Vec::with_capacity(n);
        let mut child_start = Vec::with_capacity(n + 1);
        let mut children = Vec::with_capacity(n.saturating_sub(1));
        child_start.push(0);
        for v in tree.nodes() {
            parent.push(match tree.parent(v) {
                Some(p) => p.0,
                None => Self::NO_PARENT,
            });
            children.extend(tree.children(v).iter().map(|c| c.0));
            child_start.push(children.len() as u32);
        }
        FlatTree {
            parent,
            child_start,
            children,
            root: tree.root().0,
            depth_cache: std::sync::OnceLock::new(),
        }
    }

    /// Builds the CSR arrays from a parent array alone (entry `NO_PARENT`
    /// marks the root). Children end up in ascending id order, which matches
    /// the port order of every generator in this crate (children are created
    /// with consecutive, increasing ids).
    pub(crate) fn from_parent_array(parent: Vec<u32>) -> Self {
        let n = parent.len();
        assert!(n >= 1, "tree must have at least one node");
        assert!(n < Self::NO_PARENT as usize, "tree too large for u32 ids");
        let mut child_start = vec![0u32; n + 1];
        let mut root = None;
        for (v, &p) in parent.iter().enumerate() {
            if p == Self::NO_PARENT {
                assert!(root.is_none(), "parent array has multiple roots");
                root = Some(v as u32);
            } else {
                assert!((p as usize) < n, "parent {p} of node {v} out of bounds");
                child_start[p as usize + 1] += 1;
            }
        }
        let root = root.expect("parent array has no root");
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut cursor = child_start.clone();
        let mut children = vec![0u32; n - 1];
        // Ascending v keeps each node's children sorted by id.
        for (v, &p) in parent.iter().enumerate() {
            if p != Self::NO_PARENT {
                children[cursor[p as usize] as usize] = v as u32;
                cursor[p as usize] += 1;
            }
        }
        FlatTree {
            parent,
            child_start,
            children,
            root,
            depth_cache: std::sync::OnceLock::new(),
        }
    }

    /// A uniformly random full δ-ary tree with at least `min_nodes` nodes
    /// (at most `min_nodes + δ`), grown by expanding a random leaf into δ
    /// children until the size bound is met. Only the parent
    /// array and a flat leaf list are touched during growth, so million-node
    /// trees build in O(n) time and O(n) words with no per-node allocation.
    pub fn random_full(delta: usize, min_nodes: usize, seed: u64) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut parent: Vec<u32> = Vec::with_capacity(min_nodes + delta);
        parent.push(Self::NO_PARENT);
        let mut leaves: Vec<u32> = vec![0];
        while parent.len() < min_nodes {
            let idx = rng.gen_index(leaves.len());
            let leaf = leaves.swap_remove(idx);
            for _ in 0..delta {
                leaves.push(parent.len() as u32);
                parent.push(leaf);
            }
        }
        Self::from_parent_array(parent)
    }

    /// The complete full δ-ary tree of the given depth: every internal node
    /// has δ children and every leaf sits at `depth`.
    pub fn balanced(delta: usize, depth: usize) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        let total = complete_tree_size(delta, depth);
        let mut parent: Vec<u32> = Vec::with_capacity(total);
        parent.push(Self::NO_PARENT);
        let mut level_start = 0usize;
        for _ in 0..depth {
            let level_end = parent.len();
            for p in level_start..level_end {
                for _ in 0..delta {
                    parent.push(p as u32);
                }
            }
            level_start = level_end;
        }
        Self::from_parent_array(parent)
    }

    /// A *hairy path* (Definition 4.11): a directed path of `spine_len`
    /// internal nodes, each with δ children — one continuing the spine
    /// (except the last), the rest leaves.
    pub fn hairy_path(delta: usize, spine_len: usize) -> Self {
        assert!(delta >= 1 && spine_len >= 1);
        let mut parent: Vec<u32> = Vec::with_capacity(1 + spine_len * delta);
        parent.push(Self::NO_PARENT);
        let mut cur = 0u32;
        for i in 0..spine_len {
            let first_child = parent.len() as u32;
            for _ in 0..delta {
                parent.push(cur);
            }
            if i + 1 < spine_len {
                cur = first_child;
            }
        }
        Self::from_parent_array(parent)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the tree has no nodes (never produced by the constructors).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: u32) -> Option<u32> {
        match self.parent[v as usize] {
            Self::NO_PARENT => None,
            p => Some(p),
        }
    }

    /// The raw parent array (`NO_PARENT` marks the root).
    #[inline]
    pub fn parent_array(&self) -> &[u32] {
        &self.parent
    }

    /// The children of `v`, in port order.
    #[inline]
    pub fn children(&self, v: u32) -> &[u32] {
        let start = self.child_start[v as usize] as usize;
        let end = self.child_start[v as usize + 1] as usize;
        &self.children[start..end]
    }

    /// The number of children of `v`.
    #[inline]
    pub fn num_children(&self, v: u32) -> usize {
        (self.child_start[v as usize + 1] - self.child_start[v as usize]) as usize
    }

    /// `true` if `v` has no children.
    #[inline]
    pub fn is_leaf(&self, v: u32) -> bool {
        self.num_children(v) == 0
    }

    /// `true` if every internal node has exactly `delta` children.
    pub fn is_full_dary(&self, delta: usize) -> bool {
        (0..self.len() as u32).all(|v| self.is_leaf(v) || self.num_children(v) == delta)
    }

    /// The depth of every node, indexed by node id. Computed by one BFS pass
    /// over the CSR arrays on first use and memoized for the lifetime of the
    /// tree (a `FlatTree` is immutable outside this crate), so repeated calls
    /// allocate nothing. Callers holding a [`LevelIndex`] should prefer
    /// [`LevelIndex::depths`], which shares its arrays with the solvers.
    pub fn depths(&self) -> &[u32] {
        self.depth_cache.get_or_init(|| {
            let mut depth = vec![0u32; self.len()];
            let mut queue = std::collections::VecDeque::with_capacity(self.len());
            queue.push_back(self.root);
            while let Some(v) = queue.pop_front() {
                for &c in self.children(v) {
                    depth[c as usize] = depth[v as usize] + 1;
                    queue.push_back(c);
                }
            }
            depth
        })
    }

    /// The height of the tree (maximum depth).
    pub fn height(&self) -> usize {
        self.depths().iter().copied().max().unwrap_or(0) as usize
    }

    #[cfg(any(test, feature = "reference"))]
    /// Expands the CSR view back into an arena `RootedTree`. Intended for
    /// small-tree agreement tests; costs one `Vec` per node again.
    pub fn to_rooted(&self) -> RootedTree {
        assert_eq!(
            self.root, 0,
            "to_rooted requires the root at id 0, as all constructors place it"
        );
        let mut tree = RootedTree::singleton();
        // All constructors produce parent[v] < v for v > 0, so a single
        // ascending pass can re-add every node. Verify as we go.
        for v in 1..self.len() as u32 {
            let p = self.parent[v as usize];
            assert!(p < v, "flat tree is not in creation order");
            let id = tree.add_child(NodeId(p));
            assert_eq!(id, NodeId(v), "children must be contiguous per parent");
        }
        tree
    }

    /// Builds the [`LevelIndex`] of this tree: BFS order, per-level slices,
    /// depths, and subtree sizes/heights. See the module documentation for the
    /// layout. O(n) time, two passes, no per-node allocation.
    pub fn level_index(&self) -> LevelIndex {
        LevelIndex::new(self)
    }

    /// Checks internal CSR consistency (parent/child symmetry, single root,
    /// connectivity). Intended for tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("tree has no nodes".into());
        }
        if self.child_start.len() != self.len() + 1 {
            return Err("child_start has the wrong length".into());
        }
        if self.children.len() != self.len() - 1 {
            return Err("children array must hold exactly n - 1 edges".into());
        }
        let mut roots = 0usize;
        for v in 0..self.len() as u32 {
            match self.parent(v) {
                None => roots += 1,
                Some(p) => {
                    if !self.children(p).contains(&v) {
                        return Err(format!("node {v} missing from children of {p}"));
                    }
                }
            }
            for &c in self.children(v) {
                if self.parent(c) != Some(v) {
                    return Err(format!("child {c} of {v} has wrong parent"));
                }
            }
        }
        if roots != 1 {
            return Err(format!("expected exactly one root, found {roots}"));
        }
        // Connectivity: count the nodes actually reachable from the root
        // (depths() is indexed by id and always has length n, so it cannot
        // detect an unreachable component).
        let mut reached = 0usize;
        let mut stack = vec![self.root];
        while let Some(v) = stack.pop() {
            reached += 1;
            stack.extend_from_slice(self.children(v));
        }
        if reached != self.len() {
            return Err(format!(
                "tree is not connected: {reached} of {} nodes reachable from the root",
                self.len()
            ));
        }
        Ok(())
    }
}

/// The precomputed level structure of a [`FlatTree`]. See the module
/// documentation for the layout and the safe-sharding invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelIndex {
    /// BFS positions → node ids.
    pub(crate) order: Vec<u32>,
    /// `level_start[d] .. level_start[d + 1]` is the position range of depth
    /// `d`; `level_start.len() == height + 2`.
    pub(crate) level_start: Vec<u32>,
    /// Node id → depth.
    pub(crate) depth: Vec<u32>,
    /// Node id → size of its subtree (1 for leaves).
    pub(crate) subtree_size: Vec<u32>,
    /// Node id → height of its subtree (0 for leaves).
    pub(crate) subtree_height: Vec<u32>,
    /// BFS position → BFS position of the parent (`NO_POS` at the root).
    pub(crate) parent_pos: Vec<u32>,
    /// BFS position → first BFS position of its children; monotone, with a
    /// trailing `n` entry, so children of position `i` are
    /// `first_child_pos[i] .. first_child_pos[i + 1]`.
    pub(crate) first_child_pos: Vec<u32>,
}

impl LevelIndex {
    /// Sentinel stored in [`Self::parent_positions`] for the root.
    pub const NO_POS: u32 = u32::MAX;

    fn new(tree: &FlatTree) -> Self {
        let n = tree.len();
        let mut order = Vec::with_capacity(n);
        let mut parent_pos = Vec::with_capacity(n);
        let mut first_child_pos = Vec::with_capacity(n + 1);
        let mut depth = vec![0u32; n];
        let mut level_start = vec![0u32];

        // Pass 1: BFS. `order` doubles as the queue; `head` is the cursor.
        order.push(tree.root());
        parent_pos.push(Self::NO_POS);
        let mut head = 0usize;
        let mut current_level = 0u32;
        while head < order.len() {
            let v = order[head];
            if depth[v as usize] > current_level {
                current_level = depth[v as usize];
                level_start.push(head as u32);
            }
            first_child_pos.push(order.len() as u32);
            for &c in tree.children(v) {
                depth[c as usize] = depth[v as usize] + 1;
                parent_pos.push(head as u32);
                order.push(c);
            }
            head += 1;
        }
        level_start.push(n as u32);
        first_child_pos.push(n as u32);

        // Pass 2: reverse BFS accumulates subtree sizes and heights (every
        // child is processed before its parent).
        let mut subtree_size = vec![1u32; n];
        let mut subtree_height = vec![0u32; n];
        for pos in (1..n).rev() {
            let v = order[pos] as usize;
            let p = tree.parent_array()[v] as usize;
            subtree_size[p] += subtree_size[v];
            subtree_height[p] = subtree_height[p].max(subtree_height[v] + 1);
        }

        LevelIndex {
            order,
            level_start,
            depth,
            subtree_size,
            subtree_height,
            parent_pos,
            first_child_pos,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the index covers no nodes (never produced by [`FlatTree`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The height of the tree (maximum depth).
    #[inline]
    pub fn height(&self) -> usize {
        self.level_start.len() - 2
    }

    /// Number of levels (`height + 1`).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_start.len() - 1
    }

    /// The nodes of depth `d`, in BFS order.
    #[inline]
    pub fn level(&self, d: usize) -> &[u32] {
        let lo = self.level_start[d] as usize;
        let hi = self.level_start[d + 1] as usize;
        &self.order[lo..hi]
    }

    /// The BFS-position range of depth `d`.
    #[inline]
    pub fn level_range(&self, d: usize) -> std::ops::Range<usize> {
        self.level_start[d] as usize..self.level_start[d + 1] as usize
    }

    /// All nodes in BFS order (position → node id).
    #[inline]
    pub fn bfs_order(&self) -> &[u32] {
        &self.order
    }

    /// Depth of every node, indexed by node id.
    #[inline]
    pub fn depths(&self) -> &[u32] {
        &self.depth
    }

    /// Subtree size of every node, indexed by node id.
    #[inline]
    pub fn subtree_sizes(&self) -> &[u32] {
        &self.subtree_size
    }

    /// Subtree height of every node, indexed by node id (0 for leaves).
    #[inline]
    pub fn subtree_heights(&self) -> &[u32] {
        &self.subtree_height
    }

    /// BFS position → BFS position of the parent ([`Self::NO_POS`] at the
    /// root, which always sits at position 0).
    #[inline]
    pub fn parent_positions(&self) -> &[u32] {
        &self.parent_pos
    }

    /// The monotone child offsets over BFS positions: children of the node at
    /// position `i` occupy positions `offsets[i] .. offsets[i + 1]`.
    #[inline]
    pub fn child_pos_offsets(&self) -> &[u32] {
        &self.first_child_pos
    }

    /// The BFS-position range of the children of the node at position `pos`.
    #[inline]
    pub fn children_pos(&self, pos: usize) -> std::ops::Range<usize> {
        self.first_child_pos[pos] as usize..self.first_child_pos[pos + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn from_tree_preserves_structure() {
        let tree = generators::random_full(2, 101, 3);
        let flat = FlatTree::from_tree(&tree);
        assert_eq!(flat.len(), tree.len());
        assert_eq!(flat.root(), tree.root().0);
        for v in tree.nodes() {
            assert_eq!(flat.parent(v.0), tree.parent(v).map(|p| p.0));
            let expected: Vec<u32> = tree.children(v).iter().map(|c| c.0).collect();
            assert_eq!(flat.children(v.0), expected.as_slice());
        }
        flat.validate().unwrap();
    }

    #[test]
    fn streaming_random_full_matches_arena_generator() {
        // Same seed, same leaf-expansion process, same tree.
        for seed in 0..4 {
            let arena = generators::random_full(2, 201, seed);
            let flat = FlatTree::random_full(2, 201, seed);
            assert_eq!(flat, FlatTree::from_tree(&arena), "seed {seed}");
        }
        let arena3 = generators::random_full(3, 100, 9);
        assert_eq!(
            FlatTree::random_full(3, 100, 9),
            FlatTree::from_tree(&arena3)
        );
    }

    #[test]
    fn streaming_balanced_matches_arena_generator() {
        for (delta, depth) in [(1, 5), (2, 4), (3, 3)] {
            let arena = generators::balanced(delta, depth);
            assert_eq!(
                FlatTree::balanced(delta, depth),
                FlatTree::from_tree(&arena),
                "delta {delta} depth {depth}"
            );
        }
    }

    #[test]
    fn streaming_hairy_path_matches_arena_generator() {
        for (delta, spine) in [(1, 4), (2, 6), (3, 5)] {
            let arena = generators::hairy_path(delta, spine);
            assert_eq!(
                FlatTree::hairy_path(delta, spine),
                FlatTree::from_tree(&arena),
                "delta {delta} spine {spine}"
            );
        }
    }

    #[test]
    fn to_rooted_round_trips() {
        let flat = FlatTree::random_full(3, 151, 5);
        let rooted = flat.to_rooted();
        rooted.validate().unwrap();
        assert_eq!(FlatTree::from_tree(&rooted), flat);
    }

    #[test]
    fn depths_and_height_match_arena() {
        let arena = generators::random_skewed(2, 101, 0.7, 2);
        let flat = FlatTree::from_tree(&arena);
        let expected: Vec<u32> = arena.depths().iter().map(|&d| d as u32).collect();
        assert_eq!(flat.depths(), expected.as_slice());
        assert_eq!(flat.height(), arena.height());
        // Memoized: the second call returns the same cached slice.
        assert_eq!(flat.depths().as_ptr(), flat.depths().as_ptr());
    }

    #[test]
    fn large_tree_is_well_formed() {
        let flat = FlatTree::random_full(2, 100_001, 1);
        assert!(flat.len() >= 100_001);
        assert!(flat.is_full_dary(2));
        flat.validate().unwrap();
    }

    #[test]
    fn validate_detects_unreachable_cycle() {
        // A root plus a detached 2-cycle: parent/child symmetry holds and
        // there is exactly one root, so only the connectivity check can
        // reject it.
        let broken = FlatTree::from_parent_array(vec![FlatTree::NO_PARENT, 2, 1]);
        let err = broken.validate().unwrap_err();
        assert!(err.contains("not connected"), "{err}");
    }

    #[test]
    fn singleton_flat_tree() {
        let flat = FlatTree::balanced(2, 0);
        assert_eq!(flat.len(), 1);
        assert!(flat.is_leaf(0));
        assert_eq!(flat.height(), 0);
        flat.validate().unwrap();
    }

    #[test]
    fn level_index_matches_arena_traversals() {
        let arena = generators::random_skewed(2, 301, 0.7, 5);
        let flat = FlatTree::from_tree(&arena);
        let idx = flat.level_index();
        let bfs: Vec<u32> = arena.bfs_order().iter().map(|v| v.0).collect();
        assert_eq!(idx.bfs_order(), bfs.as_slice());
        let depths: Vec<u32> = arena.depths().iter().map(|&d| d as u32).collect();
        assert_eq!(idx.depths(), depths.as_slice());
        let sizes: Vec<u32> = arena.subtree_sizes().iter().map(|&s| s as u32).collect();
        assert_eq!(idx.subtree_sizes(), sizes.as_slice());
        let heights: Vec<u32> = arena.subtree_heights().iter().map(|&h| h as u32).collect();
        assert_eq!(idx.subtree_heights(), heights.as_slice());
        assert_eq!(idx.height(), arena.height());
    }

    #[test]
    fn level_index_level_slices_partition_the_bfs_order() {
        let flat = FlatTree::random_full(3, 301, 9);
        let idx = flat.level_index();
        let mut seen = 0usize;
        for d in 0..idx.num_levels() {
            let level = idx.level(d);
            assert!(!level.is_empty(), "level {d} empty");
            for &v in level {
                assert_eq!(idx.depths()[v as usize] as usize, d);
            }
            assert_eq!(idx.level_range(d).start, seen);
            seen += level.len();
        }
        assert_eq!(seen, flat.len());
    }

    #[test]
    fn level_index_bfs_view_is_a_csr_tree() {
        let flat = FlatTree::random_full(2, 201, 4);
        let idx = flat.level_index();
        let order = idx.bfs_order();
        let offsets = idx.child_pos_offsets();
        // Monotone offsets; children ranges agree with the id-space CSR view.
        for pos in 0..flat.len() {
            assert!(offsets[pos] <= offsets[pos + 1]);
            let children: Vec<u32> = idx.children_pos(pos).map(|q| order[q]).collect();
            assert_eq!(children.as_slice(), flat.children(order[pos]));
            for q in idx.children_pos(pos) {
                assert_eq!(idx.parent_positions()[q] as usize, pos);
            }
        }
        assert_eq!(idx.parent_positions()[0], LevelIndex::NO_POS);
    }

    #[test]
    fn level_index_singleton() {
        let idx = FlatTree::balanced(2, 0).level_index();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.num_levels(), 1);
        assert_eq!(idx.height(), 0);
        assert_eq!(idx.level(0), &[0]);
        assert!(idx.children_pos(0).is_empty());
        assert_eq!(idx.subtree_sizes(), &[1]);
        assert_eq!(idx.subtree_heights(), &[0]);
    }
}
