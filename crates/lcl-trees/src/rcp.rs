//! The rake-and-compress partition `RCP(p)` of Definition 5.8.
//!
//! `RCP(p)` iteratively partitions the node set into layers `V₁, V₂, …, V_L`:
//! at each step the removed nodes are the current leaves (indegree 0, "rake") plus
//! the nodes of indegree 1 that lie in connected components of indegree-1 nodes of
//! size at least `p` ("compress", Definition 5.7). Lemma 5.9 guarantees that a
//! constant fraction of the remaining nodes is removed in every step, hence
//! `L = O(log n)`; Lemma 5.10 shows the layers can be computed in `O(log n)`
//! CONGEST rounds. [`rcp_partition_flat`] computes the partition on a
//! [`FlatTree`] for the O(log n) solver of `lcl-algorithms` and the experiment
//! harness; the arena version in `reference` (tests and the `reference`
//! feature only) is its oracle.

use crate::flat::FlatTree;

/// How a node was removed by `RCP(p)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovalKind {
    /// Removed as a leaf of the remaining graph (`leaves(G_i)`, Definition 5.6).
    Rake,
    /// Removed as part of a long path of indegree-1 nodes
    /// (`long-path-nodes(G_i, p)`, Definition 5.7).
    Compress,
}

/// The result of running `RCP(p)` on a [`FlatTree`]: the same partition as
/// `reference::rcp_partition`, stored in flat CSR arrays with the compress
/// runs recorded during construction (so the O(log n) solver never re-walks
/// the tree to find them).
///
/// Unlike the arena version — which rescans *all* nodes on every layer,
/// O(n log n) total — the flat version keeps a compacted worklist of the alive
/// nodes; because each `RCP(p)` step removes at least a `1/(6p)` fraction
/// (Lemma 5.9) the total work is O(p·n) with no per-layer allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatRcp {
    /// The parameter `p` the partition was computed with.
    pub p: usize,
    /// Layer of each node (1-based, indexed by node id).
    pub layer: Vec<u32>,
    /// How each node was removed, indexed by node id.
    pub kind: Vec<RemovalKind>,
    /// CSR offsets over [`Self::layer_nodes`]: layer `i` (1-based) holds the
    /// nodes `layer_nodes[layer_start[i - 1] .. layer_start[i]]`.
    layer_start: Vec<u32>,
    layer_nodes: Vec<u32>,
    /// CSR offsets over [`Self::run_nodes`], one run per entry pair.
    run_start: Vec<u32>,
    /// The compress runs, each top-down, grouped by layer.
    run_nodes: Vec<u32>,
    /// CSR offsets over runs: layer `i` owns the runs
    /// `runs_by_layer_start[i - 1] .. runs_by_layer_start[i]`.
    runs_by_layer_start: Vec<u32>,
}

impl FlatRcp {
    /// Number of layers `L`.
    pub fn num_layers(&self) -> usize {
        self.layer_start.len() - 1
    }

    /// Layer of a node (1-based).
    pub fn layer_of(&self, v: u32) -> usize {
        self.layer[v as usize] as usize
    }

    /// The nodes of layer `i` (1-based), rakes first (ascending id), then the
    /// compress components in discovery order, each top-down — the same order
    /// as the arena partition's `layers[i - 1]`.
    pub fn nodes_of_layer(&self, i: usize) -> &[u32] {
        let lo = self.layer_start[i - 1] as usize;
        let hi = self.layer_start[i] as usize;
        &self.layer_nodes[lo..hi]
    }

    /// The maximal vertical compress runs of layer `i` (1-based), each
    /// top-down.
    pub fn runs_of_layer(&self, i: usize) -> impl Iterator<Item = &[u32]> {
        let lo = self.runs_by_layer_start[i - 1] as usize;
        let hi = self.runs_by_layer_start[i] as usize;
        (lo..hi).map(move |r| {
            &self.run_nodes[self.run_start[r] as usize..self.run_start[r + 1] as usize]
        })
    }

    /// All compress runs across all layers, in layer order.
    pub fn runs(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.run_start.len() - 1).map(move |r| {
            &self.run_nodes[self.run_start[r] as usize..self.run_start[r + 1] as usize]
        })
    }
}

/// Runs `RCP(p)` (Definition 5.8) on a [`FlatTree`] — the CSR counterpart of
/// `reference::rcp_partition`, producing the identical partition (same layer and kind
/// per node, same per-layer node order). See [`FlatRcp`] for the complexity
/// difference.
///
/// # Panics
///
/// Panics if `p == 0`.
pub fn rcp_partition_flat(tree: &FlatTree, p: usize) -> FlatRcp {
    assert!(p >= 1, "RCP parameter p must be at least 1");
    let n = tree.len();
    let mut removed = vec![false; n];
    let mut layer = vec![0u32; n];
    let mut kind = vec![RemovalKind::Rake; n];
    let mut indegree: Vec<u32> = (0..n as u32).map(|v| tree.num_children(v) as u32).collect();
    // Per-layer visit stamps for component walks (epoch = layer number, so the
    // array is never cleared).
    let mut visited = vec![0u32; n];
    let mut alive: Vec<u32> = (0..n as u32).collect();
    let mut component: Vec<u32> = Vec::new();

    let mut layer_nodes: Vec<u32> = Vec::with_capacity(n);
    let mut layer_start: Vec<u32> = vec![0];
    let mut run_nodes: Vec<u32> = Vec::new();
    let mut run_start: Vec<u32> = vec![0];
    let mut runs_by_layer_start: Vec<u32> = vec![0];

    let mut current_layer = 0u32;
    while !alive.is_empty() {
        current_layer += 1;
        let layer_begin = layer_nodes.len();

        // Rake: current leaves, in ascending id order (`alive` stays sorted).
        for &v in &alive {
            if indegree[v as usize] == 0 {
                layer_nodes.push(v);
                kind[v as usize] = RemovalKind::Rake;
                layer[v as usize] = current_layer;
            }
        }

        // Compress: indegree-1 components (vertical paths) of size >= p.
        for &v in &alive {
            if indegree[v as usize] != 1 || visited[v as usize] == current_layer {
                continue;
            }
            // Walk to the top of the component.
            let mut top = v;
            while let Some(pp) = tree.parent(top) {
                if !removed[pp as usize] && indegree[pp as usize] == 1 {
                    top = pp;
                } else {
                    break;
                }
            }
            // Walk down, stamping and collecting the component.
            component.clear();
            let mut cur = top;
            loop {
                visited[cur as usize] = current_layer;
                component.push(cur);
                let next = tree
                    .children(cur)
                    .iter()
                    .copied()
                    .find(|&c| !removed[c as usize] && indegree[c as usize] == 1);
                match next {
                    Some(c) if visited[c as usize] != current_layer => cur = c,
                    _ => break,
                }
            }
            if component.len() >= p {
                for &u in &component {
                    layer_nodes.push(u);
                    kind[u as usize] = RemovalKind::Compress;
                    layer[u as usize] = current_layer;
                }
                run_nodes.extend_from_slice(&component);
                run_start.push(run_nodes.len() as u32);
            }
        }

        assert!(
            layer_nodes.len() > layer_begin,
            "RCP must remove at least one node per step on a non-empty tree"
        );

        for &v in &layer_nodes[layer_begin..] {
            removed[v as usize] = true;
        }
        for &v in &layer_nodes[layer_begin..] {
            if let Some(pp) = tree.parent(v) {
                if !removed[pp as usize] {
                    indegree[pp as usize] -= 1;
                }
            }
        }
        alive.retain(|&v| !removed[v as usize]);
        layer_start.push(layer_nodes.len() as u32);
        runs_by_layer_start.push(run_start.len() as u32 - 1);
    }

    FlatRcp {
        p,
        layer,
        kind,
        layer_start,
        layer_nodes,
        run_start,
        run_nodes,
        runs_by_layer_start,
    }
}

/// The arena `RCP(p)`, the oracle that [`rcp_partition_flat`] is checked
/// against: a full rescan of the tree per layer, and the partition's
/// defining properties checked by replay.
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::RemovalKind;
    use crate::tree::{NodeId, RootedTree};

    /// The result of running `RCP(p)` on a rooted tree.
    #[derive(Debug, Clone)]
    pub struct RcpPartition {
        /// The parameter `p` the partition was computed with.
        pub p: usize,
        /// Layer of each node (1-based, indexed by node id).
        pub layer: Vec<usize>,
        /// How each node was removed.
        pub kind: Vec<RemovalKind>,
        /// Nodes of each layer; `layers[i]` is `V_{i+1}` of Definition 5.8.
        pub layers: Vec<Vec<NodeId>>,
    }

    impl RcpPartition {
        /// Number of layers `L`.
        pub fn num_layers(&self) -> usize {
            self.layers.len()
        }

        /// Layer of a node (1-based).
        pub fn layer_of(&self, v: NodeId) -> usize {
            self.layer[v.index()]
        }

        /// The maximal vertical runs of compress nodes inside one layer.
        ///
        /// Each run is returned top-down (closest to the root first). During the
        /// `O(log n)` algorithm of Theorem 5.1 these are the "long paths" whose inner
        /// labels are completed with the help of a ruling set.
        pub fn compress_runs(&self, tree: &RootedTree) -> Vec<Vec<NodeId>> {
            let mut runs = Vec::new();
            for (layer_idx, nodes) in self.layers.iter().enumerate() {
                let layer_no = layer_idx + 1;
                for &v in nodes {
                    if self.kind[v.index()] != RemovalKind::Compress {
                        continue;
                    }
                    // v starts a run iff its parent is not a compress node of the same layer.
                    let parent_in_same_run = tree.parent(v).is_some_and(|p| {
                        self.layer[p.index()] == layer_no
                            && self.kind[p.index()] == RemovalKind::Compress
                    });
                    if parent_in_same_run {
                        continue;
                    }
                    let mut run = vec![v];
                    let mut cur = v;
                    loop {
                        let next = tree.children(cur).iter().copied().find(|&c| {
                            self.layer[c.index()] == layer_no
                                && self.kind[c.index()] == RemovalKind::Compress
                        });
                        match next {
                            Some(c) => {
                                run.push(c);
                                cur = c;
                            }
                            None => break,
                        }
                    }
                    runs.push(run);
                }
            }
            runs
        }
    }

    /// Runs `RCP(p)` (Definition 5.8) on `tree` and returns the layer partition.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn rcp_partition(tree: &RootedTree, p: usize) -> RcpPartition {
        assert!(p >= 1, "RCP parameter p must be at least 1");
        let n = tree.len();
        let mut removed = vec![false; n];
        let mut layer = vec![0usize; n];
        let mut kind = vec![RemovalKind::Rake; n];
        let mut layers = Vec::new();
        // Remaining indegree = number of children not yet removed.
        let mut indegree: Vec<usize> = tree.nodes().map(|v| tree.num_children(v)).collect();
        let mut remaining = n;
        let mut current_layer = 0usize;

        while remaining > 0 {
            current_layer += 1;
            let mut this_layer = Vec::new();

            // Rake: current leaves.
            for v in tree.nodes() {
                if !removed[v.index()] && indegree[v.index()] == 0 {
                    this_layer.push(v);
                    kind[v.index()] = RemovalKind::Rake;
                }
            }

            // Compress: indegree-1 nodes in components of size >= p.
            let degree_one: Vec<NodeId> = tree
                .nodes()
                .filter(|&v| !removed[v.index()] && indegree[v.index()] == 1)
                .collect();
            let in_x = {
                let mut flags = vec![false; n];
                for &v in &degree_one {
                    flags[v.index()] = true;
                }
                flags
            };
            let mut visited = vec![false; n];
            for &v in &degree_one {
                if visited[v.index()] {
                    continue;
                }
                // Walk to the top of this component of indegree-1 nodes.
                let mut top = v;
                while let Some(pnode) = tree.parent(top) {
                    if in_x[pnode.index()] && !removed[pnode.index()] {
                        top = pnode;
                    } else {
                        break;
                    }
                }
                // Walk downwards collecting the component (each member has exactly one
                // remaining child, and the component is a vertical path).
                let mut component = vec![top];
                visited[top.index()] = true;
                let mut cur = top;
                loop {
                    let next = tree
                        .children(cur)
                        .iter()
                        .copied()
                        .find(|&c| !removed[c.index()] && in_x[c.index()]);
                    match next {
                        Some(c) if !visited[c.index()] => {
                            visited[c.index()] = true;
                            component.push(c);
                            cur = c;
                        }
                        _ => break,
                    }
                }
                if component.len() >= p {
                    for &u in &component {
                        this_layer.push(u);
                        kind[u.index()] = RemovalKind::Compress;
                    }
                }
            }

            assert!(
                !this_layer.is_empty(),
                "RCP must remove at least one node per step on a non-empty tree"
            );

            for &v in &this_layer {
                removed[v.index()] = true;
                layer[v.index()] = current_layer;
                remaining -= 1;
            }
            for &v in &this_layer {
                if let Some(pnode) = tree.parent(v) {
                    if !removed[pnode.index()] {
                        indegree[pnode.index()] -= 1;
                    }
                }
            }
            layers.push(this_layer);
        }

        RcpPartition {
            p,
            layer,
            kind,
            layers,
        }
    }

    /// Checks the defining properties of an `RCP(p)` partition. Used by tests and by
    /// the property-based suite; returns a description of the first violation
    /// found.
    pub fn validate_partition(tree: &RootedTree, part: &RcpPartition) -> Result<(), String> {
        let n = tree.len();
        if part.layer.len() != n || part.kind.len() != n {
            return Err("partition arrays have wrong length".into());
        }
        // Every node appears in exactly one layer, consistent with `layer`.
        let mut seen = vec![false; n];
        for (i, nodes) in part.layers.iter().enumerate() {
            for &v in nodes {
                if seen[v.index()] {
                    return Err(format!("{v} appears in two layers"));
                }
                seen[v.index()] = true;
                if part.layer[v.index()] != i + 1 {
                    return Err(format!("{v} has inconsistent layer number"));
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("some node is missing from the partition".into());
        }
        // Replay the process and check each layer matches the definition.
        let mut removed = vec![false; n];
        for (i, nodes) in part.layers.iter().enumerate() {
            let layer_no = i + 1;
            let indegree = |v: NodeId, removed: &Vec<bool>| {
                tree.children(v)
                    .iter()
                    .filter(|c| !removed[c.index()])
                    .count()
            };
            for v in tree.nodes() {
                if removed[v.index()] {
                    continue;
                }
                let deg = indegree(v, &removed);
                let in_layer = part.layer[v.index()] == layer_no;
                if deg == 0 && !in_layer {
                    return Err(format!("leaf {v} of G_{i} not removed in layer {layer_no}"));
                }
                if in_layer && deg >= 2 {
                    return Err(format!("{v} removed with indegree {deg} >= 2"));
                }
                if in_layer && deg == 1 && part.kind[v.index()] != RemovalKind::Compress {
                    return Err(format!("{v} with indegree 1 should be a compress node"));
                }
            }
            for &v in nodes {
                removed[v.index()] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{rcp_partition, validate_partition};
    use super::*;
    use crate::generators;
    use crate::tree::RootedTree;

    #[test]
    fn singleton_has_one_layer() {
        let t = RootedTree::singleton();
        let part = rcp_partition(&t, 3);
        assert_eq!(part.num_layers(), 1);
        assert_eq!(part.layer_of(t.root()), 1);
        validate_partition(&t, &part).unwrap();
    }

    #[test]
    fn balanced_tree_layers_grow_logarithmically() {
        // A perfectly balanced tree rakes one level per step, so the number of
        // layers is exactly depth + 1.
        let t = generators::balanced(2, 6);
        let part = rcp_partition(&t, 4);
        assert_eq!(part.num_layers(), 7);
        validate_partition(&t, &part).unwrap();
    }

    #[test]
    fn path_is_compressed() {
        let t = generators::path(64);
        let part = rcp_partition(&t, 2);
        // A long path must be mostly compressed; with only rakes it would take 64
        // layers, with compression it takes O(log n).
        assert!(part.num_layers() <= 10, "layers = {}", part.num_layers());
        assert!(part.kind.contains(&RemovalKind::Compress));
        validate_partition(&t, &part).unwrap();
    }

    #[test]
    fn hairy_path_uses_both_rake_and_compress() {
        let t = generators::hairy_path(2, 100);
        let part = rcp_partition(&t, 3);
        assert!(part.num_layers() <= 20);
        assert!(part.kind.contains(&RemovalKind::Rake));
        assert!(part.kind.contains(&RemovalKind::Compress));
        validate_partition(&t, &part).unwrap();
    }

    #[test]
    fn lemma_5_9_logarithmic_layer_count() {
        // Lemma 5.9: each step removes at least a 1/(6p) fraction, so
        // L <= log_{1/(1-1/(6p))}(n) + 1. Check the bound for several shapes.
        let p = 3usize;
        let bound = |n: usize| {
            let shrink = 1.0 - 1.0 / (6.0 * p as f64);
            ((n as f64).ln() / (1.0 / shrink).ln()).ceil() as usize + 2
        };
        for seed in 0..3 {
            let t = generators::random_full(2, 2000, seed);
            let part = rcp_partition(&t, p);
            assert!(
                part.num_layers() <= bound(t.len()),
                "layers {} exceeds bound {}",
                part.num_layers(),
                bound(t.len())
            );
            validate_partition(&t, &part).unwrap();
        }
        let skinny = generators::random_skewed(2, 2000, 0.95, 7);
        let part = rcp_partition(&skinny, p);
        assert!(part.num_layers() <= bound(skinny.len()));
    }

    #[test]
    fn compress_runs_are_vertical_and_long() {
        let t = generators::hairy_path(2, 50);
        let p = 4;
        let part = rcp_partition(&t, p);
        let runs = part.compress_runs(&t);
        assert!(!runs.is_empty());
        for run in &runs {
            assert!(run.len() >= p, "run shorter than p");
            for w in run.windows(2) {
                assert_eq!(t.parent(w[1]), Some(w[0]), "run must be a vertical path");
            }
        }
        validate_partition(&t, &part).unwrap();
    }

    #[test]
    fn short_paths_are_not_compressed() {
        // With p larger than the path length, no node is ever compressed.
        let t = generators::path(5);
        let part = rcp_partition(&t, 10);
        assert!(part.kind.iter().all(|&k| k == RemovalKind::Rake));
        assert_eq!(part.num_layers(), 5);
    }

    /// Asserts that the flat partition matches the arena partition exactly:
    /// same layer/kind per node, same per-layer node order, same runs.
    fn assert_flat_matches_arena(t: &RootedTree, p: usize) {
        let arena = rcp_partition(t, p);
        let flat = rcp_partition_flat(&FlatTree::from_tree(t), p);
        assert_eq!(flat.p, arena.p);
        assert_eq!(flat.num_layers(), arena.num_layers());
        let arena_layer: Vec<u32> = arena.layer.iter().map(|&l| l as u32).collect();
        assert_eq!(flat.layer, arena_layer);
        assert_eq!(flat.kind, arena.kind);
        for (i, nodes) in arena.layers.iter().enumerate() {
            let expected: Vec<u32> = nodes.iter().map(|v| v.0).collect();
            assert_eq!(flat.nodes_of_layer(i + 1), expected.as_slice(), "layer {i}");
        }
        let arena_runs: Vec<Vec<u32>> = arena
            .compress_runs(t)
            .into_iter()
            .map(|run| run.into_iter().map(|v| v.0).collect())
            .collect();
        let flat_runs: Vec<Vec<u32>> = flat.runs().map(|r| r.to_vec()).collect();
        assert_eq!(flat_runs, arena_runs);
        // Per-layer run grouping is consistent with the global run list.
        let regrouped: Vec<Vec<u32>> = (1..=flat.num_layers())
            .flat_map(|i| flat.runs_of_layer(i).map(|r| r.to_vec()))
            .collect();
        assert_eq!(regrouped, flat_runs);
    }

    #[test]
    fn flat_partition_matches_arena_on_all_shapes() {
        for seed in 0..3 {
            assert_flat_matches_arena(&generators::random_full(2, 501, seed), 3);
        }
        assert_flat_matches_arena(&generators::balanced(2, 6), 4);
        assert_flat_matches_arena(&generators::hairy_path(2, 100), 3);
        assert_flat_matches_arena(&generators::path(64), 2);
        assert_flat_matches_arena(&generators::random_skewed(2, 801, 0.9, 5), 4);
        assert_flat_matches_arena(&generators::random_full(3, 301, 7), 5);
        assert_flat_matches_arena(&RootedTree::singleton(), 3);
    }
}
