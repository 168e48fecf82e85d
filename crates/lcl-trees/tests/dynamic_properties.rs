//! Property tests for the mutable [`DynamicTree`] layer: edit scripts are
//! replayed against a naive grow-only arena model and the two trees must stay
//! ordered-isomorphic after every batch; the incrementally repaired
//! [`LevelIndex`] must satisfy the BFS invariants a fresh build guarantees;
//! and detaching a complete subtree then re-attaching one of the same depth
//! is a shape identity.

use lcl_trees::{DynamicTree, EditScriptGen, FlatTree, JournalOp, TreeEdit};

/// A deliberately naive ordered-tree model with stable, never-reused ids:
/// correctness baseline for the compacting dynamic tree.
struct Model {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl Model {
    fn from_flat(tree: &FlatTree) -> Self {
        let n = tree.len();
        let mut model = Model {
            parent: vec![None; n],
            children: vec![Vec::new(); n],
        };
        for v in 0..n as u32 {
            for &c in tree.children(v) {
                model.parent[c as usize] = Some(v as usize);
                model.children[v as usize].push(c as usize);
            }
        }
        model
    }

    fn add(&mut self, parent: usize) -> usize {
        let id = self.parent.len();
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.children[parent].push(id);
        id
    }

    /// Applies the edit to the model, mirroring the dynamic tree's id-growth
    /// order (level by level, parents in frontier order) so the journal's
    /// `Grown` ranges line up with `map` extensions.
    fn apply(&mut self, edit: TreeEdit, map: &[usize], delta: usize) {
        match edit {
            TreeEdit::Attach { leaf, depth } => {
                let mut frontier = vec![map[leaf as usize]];
                for _ in 0..depth {
                    let mut next = Vec::new();
                    for &p in &frontier {
                        for _ in 0..delta {
                            next.push(self.add(p));
                        }
                    }
                    frontier = next;
                }
            }
            TreeEdit::Detach { node } => {
                // Stable ids: just cut the child lists; orphaned descendants
                // become unreachable.
                let mut stack = std::mem::take(&mut self.children[map[node as usize]]);
                while let Some(v) = stack.pop() {
                    self.parent[v] = None;
                    stack.append(&mut self.children[v]);
                }
            }
            TreeEdit::Relabel { .. } => {}
        }
    }
}

/// Replays the journal suffix onto the dyn-id → model-id map. `Grown` entries
/// map to the model ids created by the matching `Model::apply` call, which
/// appends in the same order.
fn replay_journal(map: &mut Vec<usize>, journal: &[JournalOp], model_len_before: usize) {
    let mut next_model = model_len_before;
    for &op in journal {
        match op {
            JournalOp::Grown { first, count } => {
                assert_eq!(first as usize, map.len(), "growth is append-only");
                for _ in 0..count {
                    map.push(next_model);
                    next_model += 1;
                }
            }
            JournalOp::Remapped { from, to } => map[to as usize] = map[from as usize],
            JournalOp::Truncated { new_len } => map.truncate(new_len as usize),
        }
    }
}

/// Walks both trees top-down in lockstep and asserts ordered isomorphism,
/// including that the id map agrees with the pairing.
fn assert_ordered_isomorphic(dt: &DynamicTree, model: &Model, map: &[usize]) {
    assert_eq!(map.len(), dt.len());
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((0u32, map[0]));
    let mut visited = 0usize;
    while let Some((d, m)) = queue.pop_front() {
        visited += 1;
        assert_eq!(map[d as usize], m, "id map disagrees with the structure");
        let dc = dt.children(d);
        let mc = &model.children[m];
        assert_eq!(dc.len(), mc.len(), "child counts differ at node {d}");
        for (&a, &b) in dc.iter().zip(mc) {
            queue.push_back((a, b));
        }
    }
    assert_eq!(visited, dt.len(), "dynamic tree has unreachable nodes");
}

/// Checks the BFS invariants of the (incrementally repaired) level index.
fn assert_index_invariants(dt: &DynamicTree) {
    let idx = dt.index();
    let n = dt.len();
    assert_eq!(idx.len(), n);
    assert_eq!(
        idx.subtree_sizes()[0] as usize,
        n,
        "root subtree is the tree"
    );
    // BFS contiguity: depths are non-decreasing along the order, and each
    // level slice contains exactly the nodes of that depth.
    let order = idx.bfs_order();
    let depths = idx.depths();
    for w in order.windows(2) {
        assert!(depths[w[0] as usize] <= depths[w[1] as usize]);
    }
    for d in 0..idx.num_levels() {
        for &v in idx.level(d) {
            assert_eq!(depths[v as usize] as usize, d);
        }
    }
    // Aggregates agree with direct recomputation over children.
    for v in 0..n as u32 {
        let size: u32 = 1 + dt
            .children(v)
            .iter()
            .map(|&c| idx.subtree_sizes()[c as usize])
            .sum::<u32>();
        assert_eq!(idx.subtree_sizes()[v as usize], size);
        let height = dt
            .children(v)
            .iter()
            .map(|&c| idx.subtree_heights()[c as usize] + 1)
            .max()
            .unwrap_or(0);
        assert_eq!(idx.subtree_heights()[v as usize], height);
    }
}

#[test]
fn edit_scripts_stay_isomorphic_to_the_arena_model() {
    for (delta, seed) in [(2usize, 11u64), (2, 12), (3, 13)] {
        let flat = FlatTree::random_full(delta, 301, seed);
        let mut model = Model::from_flat(&flat);
        let mut map: Vec<usize> = (0..flat.len()).collect();
        let mut dt = DynamicTree::new(flat, delta);
        let mut gen = EditScriptGen::new(seed ^ 0x9e37, 301);
        for _ in 0..8 {
            let mut edits = Vec::new();
            for _ in 0..16 {
                let edit = gen.next_edit(&dt);
                let model_len = model.parent.len();
                let journal_len = dt.journal().len();
                dt.apply_edit(edit);
                model.apply(edit, &map, delta);
                replay_journal(&mut map, &dt.journal()[journal_len..], model_len);
                edits.push(edit);
            }
            dt.sync();
            dt.validate().unwrap();
            dt.clear_journal();
            assert_ordered_isomorphic(&dt, &model, &map);
            assert_index_invariants(&dt);
        }
    }
}

#[test]
fn detach_then_attach_same_depth_is_a_shape_identity() {
    let flat = FlatTree::random_full(2, 255, 21);
    let mut dt = DynamicTree::new(flat, 2);
    let reference = dt.to_rooted();
    // Pick a node heading a complete subtree (detach + attach restores it).
    let v = (0..dt.len() as u32)
        .find(|&v| {
            let h = dt.subtree_height(v);
            (1..=4).contains(&h)
                && dt.subtree_size(v) as usize == lcl_trees::flat::complete_tree_size(2, h as usize)
        })
        .expect("random full trees contain small complete subtrees");
    let depth = dt.subtree_height(v) as usize;
    dt.detach_subtree(v);
    // The site may have been renamed by compaction.
    let v_now = *dt.detach_sites().last().unwrap();
    dt.attach_subtree(v_now, depth);
    dt.sync();
    dt.validate().unwrap();

    let a = reference;
    let b = dt.to_rooted();
    assert_eq!(a.len(), b.len());
    let fa = FlatTree::from_tree(&a);
    let fb = FlatTree::from_tree(&b);
    let da: Vec<usize> = fa
        .level_index()
        .bfs_order()
        .iter()
        .map(|&v| fa.children(v).len())
        .collect();
    let db: Vec<usize> = fb
        .level_index()
        .bfs_order()
        .iter()
        .map(|&v| fb.children(v).len())
        .collect();
    assert_eq!(da, db, "detach-then-attach must restore the BFS shape");
}

#[test]
fn scripts_with_heavy_churn_cross_the_full_rebuild_threshold() {
    // Small tree + large batches: cumulative churn regularly exceeds n/2,
    // exercising the full-rebuild path of sync() alongside the incremental
    // one; validate() compares against a fresh index either way.
    let flat = FlatTree::random_full(2, 63, 31);
    let mut dt = DynamicTree::new(flat, 2);
    let mut gen = EditScriptGen::new(77, 63);
    let mut edits = Vec::new();
    for _ in 0..12 {
        gen.apply_batch(&mut dt, 24, &mut edits);
        dt.sync();
        dt.validate().unwrap();
        dt.clear_journal();
        assert_index_invariants(&dt);
    }
}
