//! Mutable dynamic layer over [`FlatTree`] + [`LevelIndex`]: subtree
//! attach/detach edits with incremental index repair.
//!
//! A packed CSR tree cannot absorb edits in place — inserting a child shifts
//! every offset after it. [`DynamicTree`] therefore keeps *two* adjacency
//! views of the same node set:
//!
//! * a **slack adjacency**: one stride-δ row of child slots per node
//!   (`slack[v·δ ..]`, `child_count[v]`), giving O(1) child insertion and
//!   removal during a batch of edits, and
//! * the retained packed [`FlatTree`] CSR arrays, rebuilt from the slack rows
//!   into their existing capacity at [`DynamicTree::sync`] time, so the
//!   solvers and the validator keep their contiguous, shardable view.
//!
//! Node ids stay **dense**: a detach compacts the id space by swapping live
//! tail nodes into the holes and records every move in the edit journal
//! ([`JournalOp::Remapped`]), so a caller holding per-node state (labels!) can
//! replay the journal and stay aligned. The root keeps id 0 forever.
//!
//! Per-node aggregates (`depth`, `subtree_size`, `subtree_height`) are
//! maintained *eagerly* per edit along the affected ancestor chain — O(depth)
//! per edit. The positional BFS arrays of the [`LevelIndex`] (`order`,
//! `level_start`, `parent_pos`, `first_child_pos`) are repaired at sync time
//! by truncating to the lowest dirty level and re-running the BFS from there,
//! which costs O(nodes at depth ≥ dirty − 1) instead of O(n); past a churn
//! threshold (half the tree) the repair degenerates to a full rebuild into
//! the retained buffers.
//!
//! Both edit operations preserve full-δ-arity: [`DynamicTree::attach_subtree`]
//! grafts a *complete* δ-ary subtree of a given depth under a leaf, and
//! [`DynamicTree::detach_subtree`] prunes *all* strict descendants of a node,
//! turning it back into a leaf. The certificate-driven solvers (and their
//! incremental repair in `lcl-algorithms`) therefore never leave their
//! regular-tree fast path.

use lcl_rand::SplitMix64;

use crate::flat::{complete_tree_size, FlatTree, LevelIndex};
#[cfg(any(test, feature = "reference"))]
use crate::tree::{NodeId, RootedTree};

/// One structural (or labeling) edit of a [`DynamicTree`]. Produced by
/// [`EditScriptGen`], consumed by [`DynamicTree::apply_edit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeEdit {
    /// Graft a complete δ-ary subtree of `depth` levels under the leaf.
    Attach {
        /// The leaf to expand (must have no children).
        leaf: u32,
        /// Depth of the grafted complete subtree (≥ 1).
        depth: u32,
    },
    /// Remove every strict descendant of `node`, making it a leaf again.
    Detach {
        /// The subtree root to prune (kept; its descendants go).
        node: u32,
    },
    /// Overwrite the node's label. A structural no-op: the tree does not know
    /// about labels; `lcl_algorithms::repair` turns this into a
    /// label perturbation to repair.
    Relabel {
        /// The node whose label is perturbed.
        node: u32,
    },
}

/// One label-array maintenance record. Replaying the journal in order keeps
/// any id-indexed side array (a labeling) aligned with the edited id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// Ids `first .. first + count` were appended by an attach; side arrays
    /// must grow to `first + count` entries (fresh entries are unlabeled).
    Grown {
        /// First new id.
        first: u32,
        /// Number of appended ids.
        count: u32,
    },
    /// A live node moved from id `from` to id `to` during detach compaction;
    /// side arrays must copy entry `from` into entry `to`.
    Remapped {
        /// The old (tail) id.
        from: u32,
        /// The new (hole) id.
        to: u32,
    },
    /// The id space shrank to `new_len`; side arrays must truncate.
    Truncated {
        /// Number of live nodes after the detach.
        new_len: u32,
    },
}

/// A mutable rooted tree: the packed CSR view plus the slack adjacency and
/// the incrementally repaired level index. See the module documentation.
#[derive(Debug, Clone)]
pub struct DynamicTree {
    flat: FlatTree,
    idx: LevelIndex,
    delta: usize,
    /// Stride-δ child slots: children of `v` are `slack[v·δ .. v·δ + count]`.
    slack: Vec<u32>,
    /// Number of occupied child slots per node (0 or δ on full-δ-ary trees).
    child_count: Vec<u32>,
    journal: Vec<JournalOp>,
    /// Attach sites (post-batch ids): former leaves whose fresh descendants
    /// need labels.
    dirty_fill: Vec<u32>,
    /// Detach sites (post-batch ids): nodes that became leaves.
    dirty_check: Vec<u32>,
    /// Relabel sites (post-batch ids): nodes whose labels were perturbed.
    dirty_relabel: Vec<u32>,
    /// Lowest tree level whose BFS-positional arrays are stale
    /// (`usize::MAX` = clean).
    dirty_level: usize,
    /// Nodes attached + removed since the last level-index sync: past half
    /// the tree, [`Self::sync_index`] rebuilds from the root.
    churn: usize,
    /// Nodes attached + removed since the last CSR sync: past half the tree,
    /// [`Self::sync_csr`] repacks instead of merging.
    csr_churn: usize,
    /// The packed CSR arrays mirror the slack adjacency.
    csr_synced: bool,
    /// The BFS-positional level-index arrays are current. Kept separate from
    /// `csr_synced` so steady-state incremental repair (which only reads the
    /// packed CSR) never pays the O(n) positional BFS; the index is rebuilt
    /// lazily when a full solve actually asks for it.
    index_synced: bool,
    /// Packed rows whose content or size changed since the last CSR sync
    /// (attach/detach sites, compaction holes, parents of moved nodes) —
    /// position-based, so compaction never has to rename entries. Everything
    /// else is block-copied at [`Self::sync_csr`] time.
    csr_dirty_rows: Vec<u32>,
    /// Minimum node count since the last CSR sync: positions at or above it
    /// were truncated at some point (shrink-then-grow reuses them for fresh
    /// nodes), so the merge trusts no packed row there.
    min_len: usize,
    // Reusable scratch (all high-water retained, so steady-state edits
    // allocate nothing).
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    removed: Vec<u32>,
    remap: Vec<(u32, u32)>,
    scratch_start: Vec<u32>,
    scratch_children: Vec<u32>,
}

impl DynamicTree {
    /// Wraps `flat` (which must be full δ-ary with the root at id 0, as every
    /// constructor in this crate produces) for editing.
    pub fn new(flat: FlatTree, delta: usize) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        assert_eq!(flat.root(), 0, "dynamic trees keep the root at id 0");
        let n = flat.len();
        let mut slack = vec![0u32; n * delta];
        let mut child_count = vec![0u32; n];
        for v in 0..n {
            let row = flat.children(v as u32);
            assert!(
                row.is_empty() || row.len() == delta,
                "node {v} has {} children; dynamic trees must be full {delta}-ary",
                row.len()
            );
            slack[v * delta..v * delta + row.len()].copy_from_slice(row);
            child_count[v] = row.len() as u32;
        }
        let idx = flat.level_index();
        DynamicTree {
            flat,
            idx,
            delta,
            slack,
            child_count,
            journal: Vec::new(),
            dirty_fill: Vec::new(),
            dirty_check: Vec::new(),
            dirty_relabel: Vec::new(),
            dirty_level: usize::MAX,
            churn: 0,
            csr_churn: 0,
            csr_synced: true,
            index_synced: true,
            csr_dirty_rows: Vec::new(),
            min_len: n,
            mark: Vec::new(),
            epoch: 0,
            stack: Vec::new(),
            removed: Vec::new(),
            remap: Vec::new(),
            scratch_start: Vec::new(),
            scratch_children: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.flat.parent.len()
    }

    /// `true` when the tree has no nodes (never true: the root persists).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arity δ of the tree.
    #[inline]
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The parent of `v`, or `None` at the root. Always current.
    #[inline]
    pub fn parent(&self, v: u32) -> Option<u32> {
        match self.flat.parent[v as usize] {
            FlatTree::NO_PARENT => None,
            p => Some(p),
        }
    }

    /// The children of `v` in port order (slack view). Always current.
    #[inline]
    pub fn children(&self, v: u32) -> &[u32] {
        let base = v as usize * self.delta;
        &self.slack[base..base + self.child_count[v as usize] as usize]
    }

    /// `true` if `v` currently has no children.
    #[inline]
    pub fn is_leaf(&self, v: u32) -> bool {
        self.child_count[v as usize] == 0
    }

    /// The port of `child` at `parent` (its position among the parent's
    /// children), or `None` if it is not a child. O(δ).
    #[inline]
    pub fn port_of(&self, parent: u32, child: u32) -> Option<usize> {
        self.children(parent).iter().position(|&c| c == child)
    }

    /// Depth of `v`. Maintained eagerly; always current.
    #[inline]
    pub fn depth(&self, v: u32) -> u32 {
        self.idx.depth[v as usize]
    }

    /// Subtree size of `v` (1 for leaves). Maintained eagerly; always current.
    #[inline]
    pub fn subtree_size(&self, v: u32) -> u32 {
        self.idx.subtree_size[v as usize]
    }

    /// Subtree height of `v` (0 for leaves). Maintained eagerly; always
    /// current.
    #[inline]
    pub fn subtree_height(&self, v: u32) -> u32 {
        self.idx.subtree_height[v as usize]
    }

    /// The packed CSR view. Only valid after [`Self::sync_csr`] (or the full
    /// [`Self::sync`]).
    #[inline]
    pub fn tree(&self) -> &FlatTree {
        assert!(
            self.csr_synced,
            "call sync_csr() before reading the packed view"
        );
        &self.flat
    }

    /// The level index. Only valid after [`Self::sync`].
    #[inline]
    pub fn index(&self) -> &LevelIndex {
        assert!(
            self.index_synced,
            "call sync() before reading the level index"
        );
        &self.idx
    }

    /// The label-maintenance journal since the last [`Self::clear_journal`].
    #[inline]
    pub fn journal(&self) -> &[JournalOp] {
        &self.journal
    }

    /// Attach sites of the pending batch (post-batch ids, chronological).
    #[inline]
    pub fn attach_sites(&self) -> &[u32] {
        &self.dirty_fill
    }

    /// Detach sites of the pending batch (post-batch ids, chronological).
    #[inline]
    pub fn detach_sites(&self) -> &[u32] {
        &self.dirty_check
    }

    /// Relabel sites of the pending batch (post-batch ids, chronological;
    /// sites whose nodes a later detach removed are dropped).
    #[inline]
    pub fn relabel_sites(&self) -> &[u32] {
        &self.dirty_relabel
    }

    /// Forgets the journal and the dirty-site lists (after a repair consumed
    /// them). Retains capacity.
    pub fn clear_journal(&mut self) {
        self.journal.clear();
        self.dirty_fill.clear();
        self.dirty_check.clear();
        self.dirty_relabel.clear();
    }

    /// Applies one edit. [`TreeEdit::Relabel`] is a structural no-op.
    pub fn apply_edit(&mut self, edit: TreeEdit) {
        match edit {
            TreeEdit::Attach { leaf, depth } => {
                self.attach_subtree(leaf, depth as usize);
            }
            TreeEdit::Detach { node } => {
                self.detach_subtree(node);
            }
            TreeEdit::Relabel { node } => {
                assert!((node as usize) < self.len(), "relabel node out of bounds");
                self.dirty_relabel.push(node);
            }
        }
    }

    /// Grafts a complete δ-ary subtree of `depth` levels under the leaf.
    /// New nodes get the ids `old_len ..`, level by level (so `parent[v] < v`
    /// holds for every new node). Returns the range of new ids.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf or `depth == 0`.
    pub fn attach_subtree(&mut self, leaf: u32, depth: usize) -> std::ops::Range<u32> {
        assert!((leaf as usize) < self.len(), "attach leaf out of bounds");
        assert!(self.is_leaf(leaf), "attach target must be a leaf");
        assert!(depth >= 1, "attach depth must be at least 1");
        let added = complete_tree_size(self.delta, depth) - 1;
        let first = self.len() as u32;
        assert!(
            self.len() + added < FlatTree::NO_PARENT as usize,
            "tree too large for u32 ids"
        );
        let leaf_depth = self.idx.depth[leaf as usize];

        // Create the new rows level by level. A node at relative depth r
        // (1 ..= depth) heads a complete subtree of height depth − r.
        let mut frontier_start = leaf as usize;
        let mut frontier_end = leaf as usize + 1;
        for r in 1..=depth {
            let level_first = self.len();
            let height = (depth - r) as u32;
            let size = complete_tree_size(self.delta, depth - r) as u32;
            for p in frontier_start..frontier_end {
                for _ in 0..self.delta {
                    let id = self.len() as u32;
                    self.flat.parent.push(p as u32);
                    self.slack.extend(std::iter::repeat_n(0, self.delta));
                    let slot = p * self.delta + self.child_count[p] as usize;
                    self.slack[slot] = id;
                    self.child_count[p] += 1;
                    self.child_count.push(0);
                    self.idx.depth.push(leaf_depth + r as u32);
                    self.idx.subtree_size.push(size);
                    self.idx.subtree_height.push(height);
                }
            }
            frontier_start = level_first;
            frontier_end = self.len();
        }

        // Ancestor aggregates: every node on the root chain (including the
        // former leaf) grew by `added`; heights climb while they increase.
        let mut a = leaf;
        loop {
            self.idx.subtree_size[a as usize] += added as u32;
            match self.parent(a) {
                Some(p) => a = p,
                None => break,
            }
        }
        self.idx.subtree_height[leaf as usize] = depth as u32;
        let mut child_h = depth as u32;
        let mut a = leaf;
        while let Some(p) = self.parent(a) {
            if self.idx.subtree_height[p as usize] > child_h {
                break;
            }
            self.idx.subtree_height[p as usize] = child_h + 1;
            child_h += 1;
            a = p;
        }

        self.journal.push(JournalOp::Grown {
            first,
            count: added as u32,
        });
        self.dirty_fill.push(leaf);
        self.csr_dirty_rows.push(leaf);
        self.dirty_level = self.dirty_level.min(leaf_depth as usize + 1);
        self.churn += added;
        self.csr_churn += added;
        self.csr_synced = false;
        self.index_synced = false;
        first..self.len() as u32
    }

    /// Removes every strict descendant of `node`, making it a leaf, and
    /// compacts the id space (journaling every move). Returns the number of
    /// removed nodes (0 if `node` already is a leaf — a no-op that journals
    /// nothing).
    pub fn detach_subtree(&mut self, node: u32) -> usize {
        assert!((node as usize) < self.len(), "detach node out of bounds");
        if self.is_leaf(node) {
            return 0;
        }
        let n = self.len();
        let delta = self.delta;

        // Collect and mark the strict descendants.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale marks could alias. Reset the stamp array.
            self.mark.clear();
            self.epoch = 1;
        }
        self.mark.resize(n, 0);
        self.removed.clear();
        self.stack.clear();
        let base = node as usize * delta;
        let cc = self.child_count[node as usize] as usize;
        self.stack.extend_from_slice(&self.slack[base..base + cc]);
        while let Some(v) = self.stack.pop() {
            self.mark[v as usize] = self.epoch;
            self.removed.push(v);
            let base = v as usize * delta;
            let cc = self.child_count[v as usize] as usize;
            self.stack.extend_from_slice(&self.slack[base..base + cc]);
        }
        let r_count = self.removed.len();
        debug_assert_eq!(r_count as u32, self.idx.subtree_size[node as usize] - 1);

        // Aggregates along the ancestor chain.
        self.idx.subtree_size[node as usize] = 1;
        self.idx.subtree_height[node as usize] = 0;
        self.child_count[node as usize] = 0;
        let mut a = node;
        while let Some(p) = self.parent(a) {
            self.idx.subtree_size[p as usize] -= r_count as u32;
            a = p;
        }
        let mut a = node;
        while let Some(p) = self.parent(a) {
            let new_h = self
                .children(p)
                .iter()
                .map(|&c| self.idx.subtree_height[c as usize] + 1)
                .max()
                .expect("p has at least the child a");
            if self.idx.subtree_height[p as usize] == new_h {
                break;
            }
            self.idx.subtree_height[p as usize] = new_h;
            a = p;
        }
        self.dirty_level = self
            .dirty_level
            .min(self.idx.depth[node as usize] as usize + 1);
        self.csr_dirty_rows.push(node);

        // Compact: fill each hole below the new length with the highest live
        // tail node. References stay current at every step: moving a node
        // updates its parent's child slot and its children's parent entries.
        self.removed.sort_unstable();
        let new_len = n - r_count;
        self.remap.clear();
        let mut src = n;
        for i in 0..self.removed.len() {
            let hole = self.removed[i] as usize;
            if hole >= new_len {
                break;
            }
            loop {
                src -= 1;
                if self.mark[src] != self.epoch {
                    break;
                }
            }
            debug_assert!(src >= new_len);
            self.move_row(src, hole);
            self.remap.push((src as u32, hole as u32));
            self.journal.push(JournalOp::Remapped {
                from: src as u32,
                to: hole as u32,
            });
            // The moved node's BFS position entry still holds its old id.
            self.dirty_level = self.dirty_level.min(self.idx.depth[hole] as usize);
        }
        self.flat.parent.truncate(new_len);
        self.slack.truncate(new_len * delta);
        self.child_count.truncate(new_len);
        self.idx.depth.truncate(new_len);
        self.idx.subtree_size.truncate(new_len);
        self.idx.subtree_height.truncate(new_len);
        self.journal.push(JournalOp::Truncated {
            new_len: new_len as u32,
        });
        self.min_len = self.min_len.min(new_len);

        // Keep the dirty-site lists aligned: drop removed sites, rename moved
        // ones, then record this detach site under its current id.
        let (mark, epoch, remap) = (&self.mark, self.epoch, &self.remap);
        let rename = |v: u32| -> Option<u32> {
            if mark[v as usize] == epoch {
                return None;
            }
            Some(
                remap
                    .iter()
                    .find(|&&(from, _)| from == v)
                    .map(|&(_, to)| to)
                    .unwrap_or(v),
            )
        };
        retain_map(&mut self.dirty_fill, rename);
        retain_map(&mut self.dirty_check, rename);
        retain_map(&mut self.dirty_relabel, rename);
        let node_now = rename(node).expect("the detach site itself stays live");
        self.dirty_check.push(node_now);

        self.churn += r_count;
        self.csr_churn += r_count;
        self.csr_synced = false;
        self.index_synced = false;
        r_count
    }

    /// Moves the live row `src` into the hole `hole` (both old-id space).
    fn move_row(&mut self, src: usize, hole: usize) {
        let delta = self.delta;
        let p = self.flat.parent[src] as usize;
        self.flat.parent[hole] = p as u32;
        // The hole takes the moved row's content and the parent's row renames
        // a child entry; both packed rows are stale now.
        self.csr_dirty_rows.push(hole as u32);
        self.csr_dirty_rows.push(p as u32);
        debug_assert_ne!(
            self.flat.parent[src],
            FlatTree::NO_PARENT,
            "root never moves"
        );
        let row = &mut self.slack[p * delta..p * delta + self.child_count[p] as usize];
        let slot = row
            .iter()
            .position(|&c| c as usize == src)
            .expect("parent row contains the moved child");
        row[slot] = hole as u32;
        let cc = self.child_count[src] as usize;
        for i in 0..cc {
            let c = self.slack[src * delta + i] as usize;
            self.flat.parent[c] = hole as u32;
        }
        self.slack
            .copy_within(src * delta..src * delta + delta, hole * delta);
        self.child_count[hole] = self.child_count[src];
        self.idx.depth[hole] = self.idx.depth[src];
        self.idx.subtree_size[hole] = self.idx.subtree_size[src];
        self.idx.subtree_height[hole] = self.idx.subtree_height[src];
    }

    /// Repacks the CSR arrays from the slack rows and repairs the positional
    /// level-index arrays from the lowest dirty level (full rebuild past the
    /// churn threshold of half the tree). Idempotent; allocation-free once
    /// the buffers reached their high-water capacity.
    ///
    /// Steady-state incremental repair only needs the packed CSR — call
    /// [`Self::sync_csr`] there and leave the positional BFS to whoever
    /// actually reads [`Self::index`].
    pub fn sync(&mut self) {
        self.sync_csr();
        self.sync_index();
    }

    /// Repacks only the packed CSR arrays (`parent`, `child_start`,
    /// `children`) from the slack rows into their retained buffers — the
    /// cheap, memcpy-bound half of [`Self::sync`] that [`Self::tree`] needs.
    /// The BFS-positional level-index arrays stay stale until
    /// [`Self::sync_index`] runs.
    pub fn sync_csr(&mut self) {
        if self.csr_synced {
            return;
        }
        let n = self.len();
        // Edit-aware maintenance: rewrite only the rows the edits touched and
        // block-copy the clean segments between them. Past heavy churn the
        // segment bookkeeping stops paying for itself; fall back to the tight
        // full repack.
        if self.csr_merge_pays() {
            self.csr_dirty_rows.sort_unstable();
            self.csr_dirty_rows.dedup();
            self.merge_csr(n);
        } else {
            self.repack_csr(n);
        }
        self.csr_dirty_rows.clear();
        self.csr_churn = 0;
        self.min_len = n;
        self.flat.depth_cache.take();
        self.csr_synced = true;
    }

    /// Whether [`Self::sync_csr`] merges the edited rows into the packed
    /// arrays rather than repacking them all: only while the edits since the
    /// last CSR sync touched less than half the tree's nodes and an eighth of
    /// its rows.
    fn csr_merge_pays(&self) -> bool {
        let n = self.len();
        2 * self.csr_churn < n && 8 * self.csr_dirty_rows.len() < n
    }

    /// Full CSR repack from the slack rows into the retained buffers: counts
    /// are 0 or δ on a full-δ-ary tree, so offsets are a running sum and each
    /// occupied row is one short copy.
    fn repack_csr(&mut self, n: usize) {
        let delta = self.delta;
        self.flat.child_start.resize(n + 1, 0);
        self.flat.children.resize(n.saturating_sub(1), 0);
        let mut w = 0usize;
        for v in 0..n {
            self.flat.child_start[v] = w as u32;
            let cc = self.child_count[v] as usize;
            if cc != 0 {
                let base = v * delta;
                self.flat.children[w..w + cc].copy_from_slice(&self.slack[base..base + cc]);
                w += cc;
            }
        }
        self.flat.child_start[n] = w as u32;
        debug_assert_eq!(w, n - 1);
    }

    /// Edit-aware CSR rebuild: walks the sorted dirty rows, block-copies each
    /// clean segment from the current packed arrays (offsets shifted by the
    /// running size delta — a vectorizable add), rewrites exactly the dirty
    /// rows and the appended tail from the slack rows, then swaps the scratch
    /// buffers in. Memcpy-bound where the full repack is per-row-loop-bound.
    fn merge_csr(&mut self, n: usize) {
        let delta = self.delta;
        let n_old = self.flat.child_start.len() - 1;
        // Rows past `common` cannot be trusted: they no longer exist, are
        // new, or sat above a truncation point at some moment since the last
        // sync (shrink-then-grow reuses their positions for fresh nodes).
        // That whole tail is rewritten from slack wholesale, so only dirty
        // rows below it matter.
        let common = n.min(n_old).min(self.min_len);
        let mut ns = std::mem::take(&mut self.scratch_start);
        let mut nc = std::mem::take(&mut self.scratch_children);
        ns.resize(n + 1, 0);
        nc.resize(n.saturating_sub(1), 0);
        let old_start = &self.flat.child_start;
        let old_children = &self.flat.children;
        let mut w = 0usize;
        // Offset shift of clean rows, mod 2³²: new_start − old_start.
        let mut shift = 0u32;
        let mut prev = 0usize;
        let copy_clean =
            |ns: &mut [u32], nc: &mut [u32], from: usize, to: usize, w: &mut usize, shift: u32| {
                if shift == 0 {
                    ns[from..to].copy_from_slice(&old_start[from..to]);
                } else {
                    for i in from..to {
                        ns[i] = old_start[i].wrapping_add(shift);
                    }
                }
                let lo = old_start[from] as usize;
                let hi = old_start[to] as usize;
                nc[*w..*w + (hi - lo)].copy_from_slice(&old_children[lo..hi]);
                *w += hi - lo;
            };
        for &dirty in &self.csr_dirty_rows {
            let v = dirty as usize;
            if v >= common {
                break; // sorted: the rest lies in the rewritten tail
            }
            copy_clean(&mut ns, &mut nc, prev, v, &mut w, shift);
            ns[v] = w as u32;
            let cc = self.child_count[v] as usize;
            if cc != 0 {
                nc[w..w + cc].copy_from_slice(&self.slack[v * delta..v * delta + cc]);
                w += cc;
            }
            shift = (w as u32).wrapping_sub(old_start[v + 1]);
            prev = v + 1;
        }
        copy_clean(&mut ns, &mut nc, prev, common, &mut w, shift);
        for (v, start) in ns.iter_mut().enumerate().take(n).skip(common) {
            *start = w as u32;
            let cc = self.child_count[v] as usize;
            if cc != 0 {
                nc[w..w + cc].copy_from_slice(&self.slack[v * delta..v * delta + cc]);
                w += cc;
            }
        }
        ns[n] = w as u32;
        debug_assert_eq!(w, n - 1);
        self.scratch_start = std::mem::replace(&mut self.flat.child_start, ns);
        self.scratch_children = std::mem::replace(&mut self.flat.children, nc);
    }

    /// Repairs the BFS-positional level-index arrays (`order`, `level_start`,
    /// `parent_pos`, `first_child_pos`) from the lowest dirty level — the
    /// O(nodes at depth ≥ dirty − 1) half of [`Self::sync`] that only full
    /// solves consume via [`Self::index`].
    pub fn sync_index(&mut self) {
        if self.index_synced {
            return;
        }
        self.sync_csr();
        let n = self.len();

        // Positional repair: truncate to the dirty level and re-run the BFS.
        let dirty = if 2 * self.churn >= n {
            1
        } else {
            self.dirty_level.max(1)
        };
        let dirty = dirty.min(self.idx.level_start.len() - 1);
        let pos_d = self.idx.level_start[dirty] as usize;
        let pos_dm1 = self.idx.level_start[dirty - 1] as usize;
        self.idx.order.truncate(pos_d);
        self.idx.parent_pos.truncate(pos_d);
        self.idx.first_child_pos.truncate(pos_dm1);
        self.idx.level_start.truncate(dirty);
        let mut head = pos_dm1;
        let mut current_level = (dirty - 1) as u32;
        while head < self.idx.order.len() {
            let v = self.idx.order[head] as usize;
            let dv = self.idx.depth[v];
            if dv > current_level {
                current_level = dv;
                self.idx.level_start.push(head as u32);
            }
            self.idx.first_child_pos.push(self.idx.order.len() as u32);
            let lo = self.flat.child_start[v] as usize;
            let hi = self.flat.child_start[v + 1] as usize;
            for &c in &self.flat.children[lo..hi] {
                debug_assert_eq!(self.idx.depth[c as usize], dv + 1);
                self.idx.parent_pos.push(head as u32);
                self.idx.order.push(c);
            }
            head += 1;
        }
        self.idx.level_start.push(n as u32);
        self.idx.first_child_pos.push(n as u32);
        debug_assert_eq!(self.idx.order.len(), n);

        self.dirty_level = usize::MAX;
        self.churn = 0;
        self.index_synced = true;
    }

    #[cfg(any(test, feature = "reference"))]
    /// Expands into an arena `RootedTree` by BFS renumbering (compaction
    /// can leave `parent[v] > v`, so the creation-order expansion of
    /// `FlatTree::to_rooted` does not apply). Test-grade: allocates freely.
    pub fn to_rooted(&self) -> RootedTree {
        let n = self.len();
        let mut tree = RootedTree::singleton();
        let mut map = vec![u32::MAX; n];
        map[0] = 0;
        let mut queue = std::collections::VecDeque::with_capacity(n);
        queue.push_back(0u32);
        while let Some(v) = queue.pop_front() {
            for &c in self.children(v) {
                let id = tree.add_child(NodeId(map[v as usize]));
                map[c as usize] = id.0;
                queue.push_back(c);
            }
        }
        tree
    }

    /// Checks every internal invariant: slack/parent symmetry, full-δ-arity,
    /// connectivity, dense ids, and (always-current) per-node aggregates.
    /// After [`Self::sync`], additionally checks the packed CSR and the
    /// positional index arrays against a fresh [`LevelIndex`]. Test-grade:
    /// O(n) and allocates.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if n == 0 {
            return Err("tree has no nodes".into());
        }
        if self.flat.parent[0] != FlatTree::NO_PARENT {
            return Err("root must sit at id 0".into());
        }
        let mut reached = 0usize;
        let mut stack = vec![0u32];
        while let Some(v) = stack.pop() {
            reached += 1;
            let cc = self.child_count[v as usize] as usize;
            if cc != 0 && cc != self.delta {
                return Err(format!("node {v} has {cc} children (not 0 or δ)"));
            }
            for &c in self.children(v) {
                if c as usize >= n {
                    return Err(format!("child {c} of {v} out of bounds"));
                }
                if self.flat.parent[c as usize] != v {
                    return Err(format!("child {c} of {v} has wrong parent"));
                }
                if self.idx.depth[c as usize] != self.idx.depth[v as usize] + 1 {
                    return Err(format!("child {c} of {v} has wrong depth"));
                }
                stack.push(c);
            }
            let size: u32 = 1 + self
                .children(v)
                .iter()
                .map(|&c| self.idx.subtree_size[c as usize])
                .sum::<u32>();
            if self.idx.subtree_size[v as usize] != size {
                return Err(format!(
                    "node {v} subtree size {} != {size}",
                    self.idx.subtree_size[v as usize]
                ));
            }
            let height = self
                .children(v)
                .iter()
                .map(|&c| self.idx.subtree_height[c as usize] + 1)
                .max()
                .unwrap_or(0);
            if self.idx.subtree_height[v as usize] != height {
                return Err(format!(
                    "node {v} subtree height {} != {height}",
                    self.idx.subtree_height[v as usize]
                ));
            }
        }
        if reached != n {
            return Err(format!("only {reached} of {n} nodes reachable"));
        }
        if self.csr_synced {
            self.flat.validate()?;
            if self.index_synced {
                let fresh = self.flat.level_index();
                if fresh != self.idx {
                    return Err("repaired level index differs from a fresh rebuild".into());
                }
            }
        }
        Ok(())
    }
}

/// Retains the elements `f` maps to `Some`, applying the rename in place.
fn retain_map(list: &mut Vec<u32>, f: impl Fn(u32) -> Option<u32>) {
    let mut w = 0;
    for i in 0..list.len() {
        if let Some(v) = f(list[i]) {
            list[w] = v;
            w += 1;
        }
    }
    list.truncate(w);
}

/// Deterministic seeded edit-script generator: given the evolving tree, emits
/// (and applies) attach/detach/relabel edits that keep the node count near a
/// target and the tree full-δ-ary. Both sides of a solve/verify pair replay
/// the identical script from `(seed, initial tree)`.
#[derive(Debug, Clone)]
pub struct EditScriptGen {
    rng: SplitMix64,
    target_nodes: usize,
    max_attach_depth: usize,
    max_detach_size: u32,
}

impl EditScriptGen {
    /// A generator steering the node count toward `target_nodes`.
    pub fn new(seed: u64, target_nodes: usize) -> Self {
        EditScriptGen {
            rng: SplitMix64::seed_from_u64(seed),
            target_nodes,
            max_attach_depth: 2,
            max_detach_size: 64,
        }
    }

    /// Generates the next edit against the current tree, without applying it.
    pub fn next_edit(&mut self, tree: &DynamicTree) -> TreeEdit {
        let roll = self.rng.next_u64() % 100;
        if roll < 25 {
            return TreeEdit::Relabel {
                node: self.rng.gen_index(tree.len()) as u32,
            };
        }
        let grow = tree.len() < self.target_nodes;
        let attach = if grow { roll < 80 } else { roll < 45 };
        if attach {
            let leaf = self.random_leaf(tree);
            let depth = 1 + self.rng.gen_index(self.max_attach_depth) as u32;
            TreeEdit::Attach { leaf, depth }
        } else {
            // Descend from a random node to one with a small subtree; a leaf
            // has nothing to prune, so fall back to expanding it instead.
            let mut v = self.rng.gen_index(tree.len()) as u32;
            while tree.subtree_size(v) > self.max_detach_size {
                let children = tree.children(v);
                v = children[self.rng.gen_index(children.len())];
            }
            if tree.is_leaf(v) {
                TreeEdit::Attach { leaf: v, depth: 1 }
            } else {
                TreeEdit::Detach { node: v }
            }
        }
    }

    /// Generates and applies `count` edits, appending them to `out`.
    pub fn apply_batch(&mut self, tree: &mut DynamicTree, count: usize, out: &mut Vec<TreeEdit>) {
        for _ in 0..count {
            let edit = self.next_edit(tree);
            tree.apply_edit(edit);
            out.push(edit);
        }
    }

    fn random_leaf(&mut self, tree: &DynamicTree) -> u32 {
        let mut v = self.rng.gen_index(tree.len()) as u32;
        while !tree.is_leaf(v) {
            let children = tree.children(v);
            v = children[self.rng.gen_index(children.len())];
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(n: usize, seed: u64) -> DynamicTree {
        DynamicTree::new(FlatTree::random_full(2, n, seed), 2)
    }

    #[test]
    fn attach_grows_a_complete_subtree() {
        let mut dt = tree(31, 1);
        let n0 = dt.len();
        let leaf = (0..n0 as u32).find(|&v| dt.is_leaf(v)).unwrap();
        let range = dt.attach_subtree(leaf, 2);
        assert_eq!(range.len(), 6);
        assert_eq!(dt.len(), n0 + 6);
        assert_eq!(dt.subtree_height(leaf), 2);
        assert_eq!(dt.subtree_size(leaf), 7);
        dt.sync();
        dt.validate().unwrap();
        assert!(dt.tree().is_full_dary(2));
    }

    #[test]
    fn detach_prunes_to_a_leaf_and_compacts_ids() {
        let mut dt = tree(63, 2);
        let n0 = dt.len();
        let v = (0..n0 as u32)
            .find(|&v| !dt.is_leaf(v) && dt.subtree_size(v) <= 15 && dt.subtree_size(v) > 1)
            .unwrap();
        let expect = dt.subtree_size(v) as usize - 1;
        let removed = dt.detach_subtree(v);
        assert_eq!(removed, expect);
        assert_eq!(dt.len(), n0 - removed);
        let v_now = dt.detach_sites()[0];
        assert!(dt.is_leaf(v_now));
        dt.sync();
        dt.validate().unwrap();
    }

    #[test]
    fn detach_on_a_leaf_is_a_noop() {
        let mut dt = tree(15, 3);
        let leaf = (0..dt.len() as u32).find(|&v| dt.is_leaf(v)).unwrap();
        assert_eq!(dt.detach_subtree(leaf), 0);
        assert!(dt.journal().is_empty());
        dt.sync();
        dt.validate().unwrap();
    }

    #[test]
    fn journal_replay_keeps_side_arrays_aligned() {
        let mut dt = tree(127, 4);
        // Side array holds each node's id at creation; after replay, entry v
        // must equal the id the node had before the batch (or NEW).
        let mut side: Vec<u32> = (0..dt.len() as u32).collect();
        let mut gen = EditScriptGen::new(9, 127);
        let mut edits = Vec::new();
        gen.apply_batch(&mut dt, 32, &mut edits);
        for &op in dt.journal() {
            match op {
                JournalOp::Grown { first, count } => {
                    side.resize((first + count) as usize, u32::MAX)
                }
                JournalOp::Remapped { from, to } => side[to as usize] = side[from as usize],
                JournalOp::Truncated { new_len } => side.truncate(new_len as usize),
            }
        }
        dt.sync();
        dt.validate().unwrap();
        assert_eq!(side.len(), dt.len());
        // Spot-check alignment through the structure: a node and its recorded
        // original id must agree on depth relative to the original tree where
        // the original id survives.
        assert_eq!(side[0], 0, "root never moves");
    }

    #[test]
    fn sync_matches_fresh_rebuild_after_random_batches() {
        for seed in 0..4 {
            let mut dt = tree(201, seed);
            let mut gen = EditScriptGen::new(seed ^ 0xabcd, 201);
            let mut edits = Vec::new();
            for _ in 0..6 {
                gen.apply_batch(&mut dt, 16, &mut edits);
                dt.sync();
                dt.validate().unwrap();
                dt.clear_journal();
            }
        }
    }

    #[test]
    fn churn_threshold_full_rebuild_matches() {
        let mut dt = tree(63, 7);
        // Detach a huge subtree right below the root: churn ≥ n/2 forces the
        // full-rebuild path.
        let big = *dt
            .children(0)
            .iter()
            .max_by_key(|&&c| dt.subtree_size(c))
            .unwrap();
        dt.detach_subtree(big);
        dt.sync();
        dt.validate().unwrap();
    }

    #[test]
    fn csr_only_batches_keep_merging_past_half_the_tree_in_total_churn() {
        // Steady-state repair syncs only the CSR. Each small batch must take
        // the merge path even once the churn since the last index sync has
        // passed half the tree, and the merged CSR must equal a full repack.
        let mut dt = tree(4001, 11);
        let mut gen = EditScriptGen::new(5, 4001);
        let mut edits = Vec::new();
        let mut batches = 0;
        while 2 * dt.churn < 3 * dt.len() {
            gen.apply_batch(&mut dt, 4, &mut edits);
            assert!(dt.csr_merge_pays(), "batch {batches} fell back to a repack");
            dt.sync_csr();
            let mut fresh = dt.clone();
            fresh.repack_csr(fresh.len());
            assert_eq!(dt.flat.child_start, fresh.flat.child_start);
            assert_eq!(dt.flat.children, fresh.flat.children);
            dt.tree().validate().unwrap();
            dt.clear_journal();
            batches += 1;
        }
        assert!(batches > 10, "the churn crossed n/2 in {batches} batches");
    }

    #[test]
    fn to_rooted_round_trips_through_bfs_renumbering() {
        let mut dt = tree(63, 8);
        let mut gen = EditScriptGen::new(3, 63);
        let mut edits = Vec::new();
        gen.apply_batch(&mut dt, 24, &mut edits);
        let rooted = dt.to_rooted();
        rooted.validate().unwrap();
        assert_eq!(rooted.len(), dt.len());
        // The BFS degree sequence identifies the ordered tree.
        let flat = FlatTree::from_tree(&rooted);
        let idx = flat.level_index();
        dt.sync();
        let ours: Vec<usize> = dt
            .index()
            .bfs_order()
            .iter()
            .map(|&v| dt.children(v).len())
            .collect();
        let theirs: Vec<usize> = idx
            .bfs_order()
            .iter()
            .map(|&v| flat.children(v).len())
            .collect();
        assert_eq!(ours, theirs);
    }
}
