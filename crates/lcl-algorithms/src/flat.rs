//! The flat solver engine: level-synchronous CSR implementations of every solver.
//!
//! Through the automata-theoretic lens of Chang–Studený–Suomela 2020, every
//! phase of the certificate-driven solvers is a per-level table lookup: the
//! label of a node is a pure function of its parent's (label,
//! certificate-position) state. This module exploits that by running each
//! solver as a sequence of *level passes* over the [`LevelIndex`] of a
//! [`FlatTree`]:
//!
//! * per-node state lives in BFS-position-indexed arrays, so a level is a
//!   contiguous slice and the children of a contiguous parent range are a
//!   contiguous range of the next level (see the `lcl_trees::flat` module
//!   docs);
//! * each level pass is sharded across `std::thread::scope` workers via
//!   [`split_at_mut`](slice::split_at_mut) — workers read the already-final
//!   prefix and write disjoint child chunks, no locks, no unsafe;
//! * all buffers live in a reusable [`SolveScratch`], so after warm-up a
//!   level pass performs **zero** heap allocations (pinned by the
//!   counting-allocator test in `tests/zero_alloc_flat.rs`).
//!
//! Measured phases are measured on the input (the flat Cole–Vishkin path
//! reproduces the `lcl-sim` simulator metrics exactly), charged phases use
//! the paper's constants, and the per-seed round accounting is pinned by the
//! golden file of `tests/flat_agreement.rs`. The labeling itself is only
//! required to be valid: both checkers must accept it, which the fuzz oracle
//! in `lcl-verify` enforces.

use std::ops::Range;

use lcl_core::automaton::Automaton;
use lcl_core::{
    solvable_labels, ClassificationReport, Complexity, Configuration, ConstantCertificate, Label,
    LabelSet, LclProblem, LogCertificate, LogStarCertificate, PolyCertificate,
};
use lcl_sim::flat::{chain_color_reduction_flat, CvScratch};
use lcl_sim::IdAssignment;
use lcl_trees::rcp::{rcp_partition_flat, RemovalKind};
use lcl_trees::{FlatTree, LevelIndex};

use crate::solve::{
    ceil_nth_root, pi_k_part_labels, poly_rounds, Part, PolyPart, RoundReport, SolveError,
    MIS_TABLE, POLY_ALGORITHM,
};

/// Sentinel for "no label assigned yet" in flat label arrays.
pub(crate) const NO_LABEL: Label = Label(u16::MAX);

/// Minimum number of parents in a level before sharding it pays off.
const MIN_SHARD: usize = 4096;

/// The rounds of the Figure 1 MIS program under the simulator: one round to
/// start the port strings moving plus four propagation rounds; every node
/// (including the root, which pads with virtual ancestors) completes its
/// 4-bit code in round 5 regardless of the tree. Asserted equal to the
/// measured [`crate::oracle`] run by `tests/flat_agreement.rs`.
const MIS_SIM_ROUNDS: usize = 5;

/// The result of a flat solve: a complete labeling indexed by node id plus
/// the round accounting of the algorithm used.
#[derive(Debug, Clone)]
pub struct FlatOutcome {
    /// One label per node id.
    pub labels: Vec<Label>,
    /// The round accounting.
    pub rounds: RoundReport,
    /// Which solver produced the outcome.
    pub algorithm: &'static str,
}

/// Per-node state of the certificate fill pass, BFS-position-indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockState {
    /// The node's label (`NO_LABEL` until assigned).
    label: Label,
    /// The label of the node's block root (selects the certificate tree).
    root: Label,
    /// The node's level-order index inside that certificate tree.
    cert_idx: u32,
}

const EMPTY_BLOCK: BlockState = BlockState {
    label: NO_LABEL,
    root: NO_LABEL,
    cert_idx: 0,
};

/// Reusable buffers for the flat solvers. One scratch serves any sequence of
/// solves; buffers grow to the high-water mark of the trees seen and are
/// never shrunk, so repeated per-level passes allocate nothing.
#[derive(Debug)]
pub struct SolveScratch {
    workers: usize,
    cv: CvScratch,
    block: Vec<BlockState>,
    code: Vec<u8>,
    glabels: Vec<Label>,
    comp_depth: Vec<u32>,
    labels_id: Vec<Label>,
    in_u: Vec<bool>,
    done: Vec<bool>,
    frontier: Vec<u32>,
    size: Vec<u32>,
    part: Vec<Part>,
    iteration_depths: Vec<usize>,
    walk: Vec<Label>,
    reach: Vec<LabelSet>,
}

impl SolveScratch {
    /// A scratch that shards level passes over the available cores.
    pub fn new() -> Self {
        Self::with_workers(
            std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1),
        )
    }

    /// A scratch with an explicit worker bound (1 = fully sequential).
    pub fn with_workers(workers: usize) -> Self {
        SolveScratch {
            workers: workers.max(1),
            cv: CvScratch::new(),
            block: Vec::new(),
            code: Vec::new(),
            glabels: Vec::new(),
            comp_depth: Vec::new(),
            labels_id: Vec::new(),
            in_u: Vec::new(),
            done: Vec::new(),
            frontier: Vec::new(),
            size: Vec::new(),
            part: Vec::new(),
            iteration_depths: Vec::new(),
            walk: Vec::new(),
            reach: Vec::new(),
        }
    }

    /// The configured worker bound.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Reconfigures the worker bound.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The flat Cole–Vishkin buffers, for driving
    /// [`chain_color_reduction_flat`] directly.
    pub fn cv_mut(&mut self) -> &mut CvScratch {
        &mut self.cv
    }

    /// The Π_k partition of the most recent [`pi_k_partition_pass`], by node id.
    pub fn part(&self) -> &[Part] {
        &self.part
    }

    /// The per-iteration exploration depths of the most recent
    /// [`pi_k_partition_pass`].
    pub fn iteration_depths(&self) -> &[usize] {
        &self.iteration_depths
    }
}

impl Default for SolveScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Resizes `buf` to `n` copies of `value` without shrinking its capacity.
fn reset<T: Copy>(buf: &mut Vec<T>, n: usize, value: T) {
    buf.clear();
    buf.resize(n, value);
}

/// The body of one sharded level pass: `(parents, head, tail, tail_base)`.
type LevelBody<'a, T> = dyn Fn(Range<usize>, &[T], &mut [T], usize) + Sync + 'a;

/// Runs one top-down level pass: `body(parents, head, tail, tail_base)` where
/// `head` is the immutable prefix of `data` up to the start of level
/// `level + 1` (it contains every already-processed position) and `tail` is
/// the writable remainder. With `workers > 1` the parent range is cut into
/// contiguous chunks; because child ranges of contiguous parents are
/// contiguous (the BFS-view CSR invariant), each worker receives a disjoint
/// `&mut` chunk of `tail` via `split_at_mut` — a child's absolute position
/// `q` maps to `tail[q - tail_base]`.
fn level_pass<T: Send + Sync>(
    idx: &LevelIndex,
    level: usize,
    workers: usize,
    data: &mut [T],
    body: &LevelBody<'_, T>,
) {
    let parents = idx.level_range(level);
    if parents.is_empty() {
        return;
    }
    let split = idx.level_range(level + 1).start;
    let (head, tail) = data.split_at_mut(split);
    let workers = workers.clamp(1, parents.len() / MIN_SHARD + 1);
    if workers == 1 {
        body(parents, head, tail, split);
        return;
    }
    let offsets = idx.child_pos_offsets();
    let chunk = parents.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let head: &[T] = head;
        let mut tail = tail;
        let mut a = parents.start;
        while a < parents.end {
            let b = (a + chunk).min(parents.end);
            let lo = offsets[a] as usize;
            let hi = offsets[b] as usize;
            let whole = std::mem::take(&mut tail);
            let (mine, rest) = whole.split_at_mut(hi - lo);
            tail = rest;
            scope.spawn(move || body(a..b, head, mine, lo));
            a = b;
        }
    });
}

/// Scatters a BFS-position-indexed label array back to node-id order.
fn scatter_labels(idx: &LevelIndex, by_pos: impl Fn(usize) -> Label) -> Vec<Label> {
    let order = idx.bfs_order();
    let mut labels = vec![NO_LABEL; order.len()];
    for (pos, &v) in order.iter().enumerate() {
        labels[v as usize] = by_pos(pos);
    }
    labels
}

// ---------------------------------------------------------------------------
// Certificate splitting (Theorems 6.3 and 7.2)
// ---------------------------------------------------------------------------

/// The per-level certificate fill shared by the O(1) and O(log* n) solvers:
/// blocks of the certificate depth are filled top-down by copying certificate
/// trees, one sharded level pass per tree level. Returns `true` when every
/// node received a label (always the case on full δ-ary trees). This is the
/// hot per-level pass pinned to zero allocations by `tests/zero_alloc_flat.rs`.
pub fn certificate_fill_pass(
    cert: &LogStarCertificate,
    idx: &LevelIndex,
    scratch: &mut SolveScratch,
) -> bool {
    let n = idx.len();
    let d = cert.depth;
    reset(&mut scratch.block, n, EMPTY_BLOCK);
    let first = cert
        .labels
        .first()
        .expect("certificates have at least one label");
    scratch.block[0] = BlockState {
        label: first,
        root: first,
        cert_idx: 0,
    };
    for level in 0..idx.height() {
        level_pass(
            idx,
            level,
            scratch.workers,
            &mut scratch.block,
            &|parents, head, tail, base| {
                for i in parents {
                    let s = head[i];
                    if s.label == NO_LABEL {
                        continue;
                    }
                    // A node at a block-root level restarts the walk of its
                    // own certificate tree; anyone else continues the block
                    // root's walk.
                    let (root, ci) = if level % d == 0 {
                        (s.label, 0usize)
                    } else {
                        (s.root, s.cert_idx as usize)
                    };
                    let cert_tree = cert
                        .tree_for(root)
                        .expect("block roots carry certificate labels");
                    for (q, cc) in idx.children_pos(i).zip(cert_tree.children_of(ci)) {
                        tail[q - base] = BlockState {
                            label: cert_tree.label_at(cc),
                            root,
                            cert_idx: cc as u32,
                        };
                    }
                }
            },
        );
    }
    scratch.block.iter().all(|s| s.label != NO_LABEL)
}

/// Completes a partial fill downwards inside the certificate labels: every
/// labeled node keeps its label, and unlabeled children of labeled nodes are
/// filled greedily within the problem's self-sustaining set. Only reachable on
/// irregular (non-full-δ-ary) trees, so this cold path allocates freely.
fn complete_downwards_flat(
    problem: &LclProblem,
    cert_labels: LabelSet,
    idx: &LevelIndex,
    block: &mut [BlockState],
) {
    let restricted = problem.restrict_to(cert_labels);
    let kept = solvable_labels(&restricted);
    for pos in 0..block.len() {
        let children = idx.children_pos(pos);
        if children.is_empty() {
            continue;
        }
        let parent_label = block[pos].label;
        if parent_label == NO_LABEL {
            // Stop at the first unlabeled ancestor.
            return;
        }
        if children.clone().all(|q| block[q].label != NO_LABEL) {
            continue;
        }
        let fixed: Vec<Option<Label>> = children
            .clone()
            .map(|q| Some(block[q].label).filter(|&l| l != NO_LABEL))
            .collect();
        let chosen = if fixed.iter().all(|f| f.is_none()) {
            restricted.continuation_within(parent_label, kept)
        } else {
            restricted
                .configurations_with_parent(parent_label)
                .find(|cfg| {
                    cfg.uses_only(|l| kept.contains(l) || fixed.contains(&Some(l)))
                        && multiset_assign(cfg.children(), &fixed).is_some()
                })
        };
        let Some(cfg) = chosen else { return };
        let assignment = match multiset_assign(cfg.children(), &fixed) {
            Some(a) => a,
            None => cfg.children().to_vec(),
        };
        for (q, l) in children.zip(assignment) {
            block[q].label = l;
        }
    }
}

/// Arranges `children` so fixed slots keep their labels; free slots get the
/// remaining labels in order. `None` if the fixed labels are not a sub-multiset.
fn multiset_assign(children: &[Label], fixed: &[Option<Label>]) -> Option<Vec<Label>> {
    let mut remaining: Vec<Label> = children.to_vec();
    let mut out = vec![NO_LABEL; fixed.len()];
    for (slot, f) in out.iter_mut().zip(fixed) {
        if let Some(l) = f {
            let at = remaining.iter().position(|r| r == l)?;
            remaining.swap_remove(at);
            *slot = *l;
        }
    }
    let mut rest = remaining.into_iter();
    for slot in out.iter_mut() {
        if *slot == NO_LABEL {
            *slot = rest.next().expect("counts match");
        }
    }
    Some(out)
}

/// Runs the fill (plus greedy completion when needed) and scatters to ids.
fn fill_and_scatter(
    problem: &LclProblem,
    cert: &LogStarCertificate,
    idx: &LevelIndex,
    scratch: &mut SolveScratch,
) -> Vec<Label> {
    if !certificate_fill_pass(cert, idx, scratch) {
        complete_downwards_flat(problem, cert.labels, idx, &mut scratch.block);
    }
    let block = &scratch.block;
    scatter_labels(idx, |pos| block[pos].label)
}

/// The certificate-driven O(log* n) algorithm of Theorem 6.3: a sharded flat
/// Cole–Vishkin phase (measured; the Θ(log* n) term), the coprime-counter
/// splitting into blocks of the certificate depth (charged O(d)), and sharded
/// per-level block completion from the certificate trees.
pub fn solve_log_star_flat(
    problem: &LclProblem,
    cert: &LogStarCertificate,
    tree: &FlatTree,
    idx: &LevelIndex,
    ids: &IdAssignment,
    scratch: &mut SolveScratch,
) -> FlatOutcome {
    let mut rounds = RoundReport::new();
    let workers = scratch.workers;
    let metrics = chain_color_reduction_flat(tree, ids, workers, &mut scratch.cv);
    rounds.measured("Cole–Vishkin colour reduction", metrics.rounds);

    let d = cert.depth;
    rounds.charged("coprime counter splitting (O(d))", 4 * d + 2);

    let labels = fill_and_scatter(problem, cert, idx, scratch);
    rounds.charged("block completion from certificate trees", 2 * d + 2);

    FlatOutcome {
        labels,
        rounds,
        algorithm: "certificate splitting (Theorem 6.3)",
    }
}

/// The O(1) algorithm of Theorem 7.2: the certificate machinery of the
/// O(log* n) solver with the Cole–Vishkin colouring replaced by a defective
/// distance-k colouring from port numbers, so every phase is charged a
/// constant (`k = 20·d + 1`) and no Θ(log* n) term appears.
pub fn solve_constant_flat(
    problem: &LclProblem,
    cert: &ConstantCertificate,
    idx: &LevelIndex,
    scratch: &mut SolveScratch,
) -> FlatOutcome {
    let base = &cert.base;
    let d = base.depth;
    let labels = fill_and_scatter(problem, base, idx, scratch);

    // Round accounting per Theorem 7.2: k = 20·d + 1.
    let k = 20 * d + 1;
    let mut rounds = RoundReport::new();
    rounds.charged(
        "port-number defective distance-k colouring (10k ancestors)",
        10 * k,
    );
    rounds.charged("marking periodic paths + ruling set extension", 8 * d + 2);
    rounds.charged("block completion from certificate trees", 2 * d + 2);
    FlatOutcome {
        labels,
        rounds,
        algorithm: "defective-colouring splitting (Theorem 7.2)",
    }
}

// ---------------------------------------------------------------------------
// The 4-round MIS algorithm (Section 1.3, Figure 1)
// ---------------------------------------------------------------------------

/// The per-level port-string propagation of the Figure 1 MIS algorithm:
/// `code(child) = ((code(parent) << 1) | (port & 1)) & 0b1111`, one sharded
/// level pass per tree level, codes stored by BFS position in the scratch.
pub fn mis_code_pass(idx: &LevelIndex, scratch: &mut SolveScratch) {
    reset(&mut scratch.code, idx.len(), 0);
    for level in 0..idx.height() {
        level_pass(
            idx,
            level,
            scratch.workers,
            &mut scratch.code,
            &|parents, head, tail, base| {
                for i in parents {
                    let code = head[i];
                    for (port, q) in idx.children_pos(i).enumerate() {
                        tail[q - base] = ((code << 1) | (port as u8 & 1)) & 0b1111;
                    }
                }
            },
        );
    }
}

/// The 4-round MIS algorithm of Section 1.3 and Figure 1: every node's 4-bit
/// port code is computed top-down in level passes and looked up in the magic
/// table (4) of the paper. The labels equal the outputs of the message-passing
/// [`crate::oracle::MisFourRounds`] program.
///
/// # Panics
///
/// Panics if `problem` does not contain labels named `1`, `a`, and `b` or if
/// it is not a binary-tree problem (δ = 2).
pub fn solve_mis_four_rounds_flat(
    problem: &LclProblem,
    idx: &LevelIndex,
    scratch: &mut SolveScratch,
) -> FlatOutcome {
    assert_eq!(
        problem.delta(),
        2,
        "the Figure 1 algorithm is for binary trees"
    );
    let table: Vec<Label> = MIS_TABLE
        .iter()
        .map(|c| {
            problem
                .label_by_name(&c.to_string())
                .unwrap_or_else(|| panic!("problem is missing the MIS label {c:?}"))
        })
        .collect();
    mis_code_pass(idx, scratch);
    let code = &scratch.code;
    let labels = scatter_labels(idx, |pos| table[code[pos] as usize]);
    let mut rounds = RoundReport::new();
    rounds.measured("port-string propagation + table lookup", MIS_SIM_ROUNDS);
    FlatOutcome {
        labels,
        rounds,
        algorithm: "4-round MIS (Section 1.3, Figure 1)",
    }
}

// ---------------------------------------------------------------------------
// Rake-and-compress (Theorem 5.1)
// ---------------------------------------------------------------------------

/// Assigns `v`'s children per a configuration of its label that places
/// `required` (if any) on the required child, allocation-free (the multiset
/// is distributed with a skip-one filter instead of a scratch `Vec`).
fn assign_children_flat(
    problem_pf: &LclProblem,
    labels: &mut [Label],
    tree: &FlatTree,
    v: u32,
    required: Option<(u32, Label)>,
) -> Result<(), String> {
    let children = tree.children(v);
    if children.is_empty() {
        return Ok(());
    }
    let parent_label = labels[v as usize];
    debug_assert_ne!(parent_label, NO_LABEL, "node labeled before its children");
    if children.len() != problem_pf.delta() {
        // Unconstrained node (only possible on irregular trees): give every
        // child an arbitrary certificate label.
        let fallback = problem_pf.labels().first().expect("non-empty");
        for &c in children {
            if labels[c as usize] == NO_LABEL {
                labels[c as usize] = fallback;
            }
        }
        return Ok(());
    }
    let config = match required {
        Some((_, label)) => problem_pf
            .configurations_with_parent(parent_label)
            .find(|c| c.children().contains(&label)),
        None => problem_pf.configurations_with_parent(parent_label).next(),
    }
    .ok_or_else(|| {
        format!(
            "no configuration for {} with required child",
            problem_pf.label_name(parent_label)
        )
    })?;
    match required {
        None => {
            for (&c, &l) in children.iter().zip(config.children()) {
                labels[c as usize] = l;
            }
        }
        Some((rc, rl)) => {
            labels[rc as usize] = rl;
            // Skip the one occurrence handed to the required child; hand the
            // rest out in configuration order.
            let mut skipped = false;
            let mut rest = config.children().iter().filter(|&&l| {
                if !skipped && l == rl {
                    skipped = true;
                    false
                } else {
                    true
                }
            });
            for &c in children {
                if c == rc {
                    continue;
                }
                labels[c as usize] = *rest.next().expect("configuration has δ children");
            }
        }
    }
    Ok(())
}

/// The O(log n) algorithm of Theorem 5.1: rake-and-compress over the CSR
/// partition of [`rcp_partition_flat`] (worklist-based, O(p·n)), with reusable
/// automaton-walk buffers so completing a compress run allocates nothing.
/// Layers are labeled from the last (holding the root) down to the first:
/// rake nodes extend their label downwards inside Σ(Π_pf), compress runs are
/// filled by a walk of the exact run length in the automaton M(Π_pf). The
/// layer count is measured (the Θ(log n) term, Lemma 5.9); layer computation
/// and completion are charged O(k) per layer (Lemma 5.10).
pub fn solve_log_flat(
    _problem: &LclProblem,
    cert: &LogCertificate,
    tree: &FlatTree,
    scratch: &mut SolveScratch,
) -> Result<FlatOutcome, String> {
    let problem_pf = &cert.problem_pf;
    let automaton = Automaton::of(problem_pf);
    let k = cert.rcp_parameter();
    let partition = rcp_partition_flat(tree, k);
    let num_layers = partition.num_layers();

    let first_label = problem_pf.labels().first().expect("certificate non-empty");
    let n = tree.len();
    reset(&mut scratch.labels_id, n, NO_LABEL);
    let labels = &mut scratch.labels_id;
    let walk = &mut scratch.walk;
    let reach = &mut scratch.reach;

    for layer in (1..=num_layers).rev() {
        // Rake nodes of this layer.
        for &v in partition.nodes_of_layer(layer) {
            if partition.kind[v as usize] != RemovalKind::Rake {
                continue;
            }
            if labels[v as usize] == NO_LABEL {
                labels[v as usize] = first_label;
            }
            let fixed_child = tree
                .children(v)
                .iter()
                .copied()
                .find(|&c| labels[c as usize] != NO_LABEL)
                .map(|c| (c, labels[c as usize]));
            assign_children_flat(problem_pf, labels, tree, v, fixed_child)?;
        }
        // Compress runs of this layer.
        for run in partition.runs_of_layer(layer) {
            let top = run[0];
            if labels[top as usize] == NO_LABEL {
                labels[top as usize] = first_label;
            }
            let start = labels[top as usize];
            let bottom = *run.last().expect("runs are non-empty");
            // The single remaining child of the bottom node that is already
            // labeled (processed in an earlier, higher layer), if any.
            let fixed_bottom_child = tree
                .children(bottom)
                .iter()
                .copied()
                .find(|&c| labels[c as usize] != NO_LABEL);
            // Find a walk of the exact run length from the top label to the
            // fixed bottom label (or to any label when the bottom is free).
            let found = match fixed_bottom_child {
                Some(c) => {
                    automaton.find_walk_into(start, labels[c as usize], run.len(), reach, walk)
                }
                None => problem_pf
                    .labels()
                    .iter()
                    .any(|t| automaton.find_walk_into(start, t, run.len(), reach, walk)),
            };
            if !found {
                return Err(format!(
                    "no walk of length {} from {} in the certificate automaton (run shorter than k = {k}?)",
                    run.len(),
                    problem_pf.label_name(start)
                ));
            }
            // walk[j] is the label of run[j]; walk[run.len()] is the label below.
            for (j, &node) in run.iter().enumerate() {
                labels[node as usize] = walk[j];
                let next_label = walk[j + 1];
                let required = if j + 1 < run.len() {
                    Some((run[j + 1], next_label))
                } else {
                    fixed_bottom_child.map(|c| (c, labels[c as usize]))
                };
                // For the bottom node without a fixed child, still force the
                // walk's final label onto one child so the walk stays consistent.
                let required = match required {
                    Some(r) => Some(r),
                    None => tree.children(node).first().map(|&c| (c, next_label)),
                };
                assign_children_flat(problem_pf, labels, tree, node, required)?;
            }
        }
    }

    if labels.contains(&NO_LABEL) {
        return Err("rake-and-compress completion left unlabeled nodes".into());
    }
    let labels = labels.clone();

    let mut rounds = RoundReport::new();
    let metrics = chain_color_reduction_flat(
        tree,
        &IdAssignment::sequential_len(n),
        scratch.workers,
        &mut scratch.cv,
    );
    rounds.measured(
        "distance-k colouring for ruling sets (Cole–Vishkin)",
        metrics.rounds,
    );
    rounds.charged("RCP(k) layer computation (Lemma 5.10)", 2 * k * num_layers);
    rounds.charged("per-layer completion", (2 * k + 2) * num_layers);
    Ok(FlatOutcome {
        labels,
        rounds,
        algorithm: "rake-and-compress (Theorem 5.1)",
    })
}

// ---------------------------------------------------------------------------
// The polynomial region (Section 8)
// ---------------------------------------------------------------------------

/// The Lemma 8.1 partition over flat arrays: one reusable membership bitvec,
/// one in-place compacted frontier, and subtree sizes accumulated upwards in
/// reverse BFS order (children precede parents). Results land in
/// [`SolveScratch::part`] / [`SolveScratch::iteration_depths`]. Iteration `i`
/// puts the nodes whose remaining subtree has at most `⌈n^{1/k}⌉` nodes into
/// `B_i`, and into `X_i` the large nodes with a small (or already removed)
/// child.
pub fn pi_k_partition_pass(
    tree: &FlatTree,
    idx: &LevelIndex,
    k: usize,
    scratch: &mut SolveScratch,
) {
    assert!(k >= 1);
    let n = idx.len();
    let threshold = ceil_nth_root(n, k);
    reset(&mut scratch.part, n, Part::B(k));
    reset(&mut scratch.in_u, n, true);
    reset(&mut scratch.done, n, false);
    reset(&mut scratch.size, n, 0);
    scratch.iteration_depths.clear();
    scratch.frontier.clear();
    scratch.frontier.extend(0..n as u32);
    let subtree_heights = idx.subtree_heights();
    let order = idx.bfs_order();
    let parents = tree.parent_array();

    let (part, frontier, size, in_u, done, iteration_depths) = (
        &mut scratch.part,
        &mut scratch.frontier,
        &mut scratch.size,
        &mut scratch.in_u,
        &mut scratch.done,
        &mut scratch.iteration_depths,
    );

    for i in 1..=k {
        if frontier.is_empty() {
            break;
        }
        // N_v: subtree sizes within the forest induced by U_i, accumulated
        // upwards by walking BFS positions in reverse (children first).
        for &v in frontier.iter() {
            size[v as usize] = 1;
        }
        for pos in (1..n).rev() {
            let v = order[pos] as usize;
            if !in_u[v] {
                continue;
            }
            let p = parents[v] as usize;
            if in_u[p] {
                size[p] += size[v];
            }
        }
        iteration_depths.push(
            threshold.min(
                frontier
                    .iter()
                    .map(|&v| subtree_heights[v as usize] as usize + 1)
                    .max()
                    .unwrap_or(0),
            ),
        );

        if i == k {
            for &v in frontier.iter() {
                part[v as usize] = Part::B(i);
                done[v as usize] = true;
            }
            break;
        }
        // B_i: small subtrees.
        for &v in frontier.iter() {
            if (size[v as usize] as usize) <= threshold {
                part[v as usize] = Part::B(i);
                done[v as usize] = true;
            }
        }
        // X_i: large nodes with a small child, or with a child already
        // removed in an earlier iteration.
        for &v in frontier.iter() {
            if done[v as usize] {
                continue;
            }
            let has_small_child = tree
                .children(v)
                .iter()
                .any(|&c| in_u[c as usize] && (size[c as usize] as usize) <= threshold);
            let has_earlier_child = tree.children(v).iter().any(|&c| !in_u[c as usize]);
            if has_small_child || has_earlier_child {
                part[v as usize] = Part::X(i);
                done[v as usize] = true;
            }
        }
        // Compact the frontier to U_{i+1}.
        for &v in frontier.iter() {
            in_u[v as usize] = !done[v as usize];
        }
        frontier.retain(|&v| in_u[v as usize]);
    }
    // Unassigned nodes (loop exited early) stay B(k) from the reset.
}

/// Solves Π_k (the problem built by `lcl_problems::pi_k::pi_k(k)`) with the
/// O(n^{1/k}) partition algorithm of Lemma 8.1: nodes in `X_i` output `x_i`,
/// and every component of `B_i` is 2-coloured with `{a_i, b_i}` by the parity
/// of its depth within the component, in sharded top-down level passes.
pub fn solve_pi_k_flat(
    problem: &LclProblem,
    k: usize,
    tree: &FlatTree,
    idx: &LevelIndex,
    scratch: &mut SolveScratch,
) -> FlatOutcome {
    pi_k_partition_pass(tree, idx, k, scratch);
    let (x_labels, ab_labels) = pi_k_part_labels(problem, k);
    let order = idx.bfs_order();

    // Depth of each node within its B_i component (0 at component roots),
    // computed by position in sharded level passes.
    reset(&mut scratch.comp_depth, idx.len(), 0);
    let part = std::mem::take(&mut scratch.part);
    for level in 0..idx.height() {
        let part_ref: &[Part] = &part;
        level_pass(
            idx,
            level,
            scratch.workers,
            &mut scratch.comp_depth,
            &|parents, head, tail, base| {
                for i in parents {
                    let pv = part_ref[order[i] as usize];
                    for q in idx.children_pos(i) {
                        let same = part_ref[order[q] as usize] == pv;
                        tail[q - base] = if same { head[i] + 1 } else { 0 };
                    }
                }
            },
        );
    }
    let comp_depth = &scratch.comp_depth;
    let labels = scatter_labels(idx, |pos| {
        let v = order[pos] as usize;
        match part[v] {
            Part::X(i) => x_labels[i - 1],
            Part::B(i) => {
                let (a, b) = ab_labels[i - 1];
                if comp_depth[pos].is_multiple_of(2) {
                    a
                } else {
                    b
                }
            }
        }
    });
    scratch.part = part;

    let mut rounds = RoundReport::new();
    for (i, depth) in scratch.iteration_depths.iter().enumerate() {
        rounds.measured(
            format!("iteration {} subtree-size exploration", i + 1),
            *depth,
        );
    }
    rounds.charged("component 2-colouring (within-component depth)", {
        ceil_nth_root(idx.len(), k)
    });
    FlatOutcome {
        labels,
        rounds,
        algorithm: "Π_k partition (Lemma 8.1)",
    }
}

// ---------------------------------------------------------------------------
// The generalized B/X partition (exact exponent certificate)
// ---------------------------------------------------------------------------

/// The generalized B/X partition: per-node parts, per-iteration chain runs,
/// and the measured exploration depths.
#[derive(Debug, Clone)]
pub struct FlatPolyPartition {
    /// For every node id, the part it belongs to.
    pub part: Vec<PolyPart>,
    /// The compressed runs of iteration `i` are `runs_by_iteration[i − 1]`,
    /// each a vertical path listed top-down.
    pub runs_by_iteration: Vec<Vec<Vec<u32>>>,
    /// The measured per-iteration exploration depths (the O(n^{1/k}) terms).
    pub iteration_depths: Vec<usize>,
}

/// Computes the generalized partition for the certificate's exponent `k`:
/// iteration `i < k` removes every node whose remaining subtree has at most
/// `⌈n^{1/k}⌉` nodes (`Rake(i)`, downward closed), then every maximal run of
/// remaining nodes with exactly one remaining child whose length reaches the
/// level's `chain_threshold` (`Chain(i)`); survivors of all iterations form
/// the `Core`. Compare Lemma 8.1's B/X partition, which this generalizes: the
/// rakes play the role of the `B_i` blocks and the chains the role of the
/// `x_i` separators, with the chain threshold guaranteeing the flexibility
/// walks of the labeling pass always exist. Subtree sizes are accumulated in
/// reverse BFS order (children before parents).
pub fn poly_partition_flat(
    tree: &FlatTree,
    idx: &LevelIndex,
    cert: &PolyCertificate,
) -> FlatPolyPartition {
    let k = cert.exponent();
    let n = idx.len();
    let threshold = ceil_nth_root(n, k);
    let mut part: Vec<PolyPart> = vec![PolyPart::Core; n];
    let mut runs_by_iteration: Vec<Vec<Vec<u32>>> = Vec::new();
    let mut iteration_depths = Vec::new();
    let subtree_heights = idx.subtree_heights();
    let order = idx.bfs_order();
    let parents = tree.parent_array();

    let mut in_u = vec![true; n];
    let mut frontier: Vec<u32> = (0..n as u32).collect();
    let mut size = vec![0usize; n];
    let mut live_children = vec![0usize; n];

    for i in 1..k {
        let mut runs: Vec<Vec<u32>> = Vec::new();
        if frontier.is_empty() {
            runs_by_iteration.push(runs);
            iteration_depths.push(0);
            continue;
        }
        for &v in &frontier {
            size[v as usize] = 1;
        }
        for pos in (1..n).rev() {
            let v = order[pos] as usize;
            if !in_u[v] {
                continue;
            }
            let p = parents[v] as usize;
            if in_u[p] {
                size[p] += size[v];
            }
        }
        iteration_depths.push(
            threshold.min(
                frontier
                    .iter()
                    .map(|&v| subtree_heights[v as usize] as usize + 1)
                    .max()
                    .unwrap_or(0),
            ),
        );
        for &v in &frontier {
            if size[v as usize] <= threshold {
                part[v as usize] = PolyPart::Rake(i);
                in_u[v as usize] = false;
            }
        }
        frontier.retain(|&v| in_u[v as usize]);
        for &v in &frontier {
            live_children[v as usize] = tree
                .children(v)
                .iter()
                .filter(|&&c| in_u[c as usize])
                .count();
        }
        let is_candidate =
            |v: u32, in_u: &[bool], live: &[usize]| in_u[v as usize] && live[v as usize] == 1;
        let min_run = cert.levels[i - 1].chain_threshold.max(1);
        for &v in &frontier {
            if !is_candidate(v, &in_u, &live_children) {
                continue;
            }
            let parent_is_candidate = tree
                .parent(v)
                .is_some_and(|p| is_candidate(p, &in_u, &live_children));
            if parent_is_candidate {
                continue;
            }
            let mut run = vec![v];
            let mut cur = v;
            loop {
                let next = tree
                    .children(cur)
                    .iter()
                    .copied()
                    .find(|&c| in_u[c as usize])
                    .expect("candidates have exactly one remaining child");
                if !is_candidate(next, &in_u, &live_children) {
                    break;
                }
                run.push(next);
                cur = next;
            }
            if run.len() >= min_run {
                runs.push(run);
            }
        }
        for run in &runs {
            for &v in run {
                part[v as usize] = PolyPart::Chain(i);
                in_u[v as usize] = false;
            }
        }
        frontier.retain(|&v| in_u[v as usize]);
        runs_by_iteration.push(runs);
    }

    FlatPolyPartition {
        part,
        runs_by_iteration,
        iteration_depths,
    }
}

/// Solves any polynomial-region problem with the generalized B/X-partition
/// algorithm driven by its exact-exponent certificate, using the reusable
/// automaton-walk buffers of the scratch so chain completion allocates only
/// for the partition itself.
///
/// Layers are processed from the core (level `k`) down to level 1. Every
/// piece root whose parent lives in a *lower* layer picks its own starting
/// label (within the level set for rakes and the core, within the flexible
/// SCC for chain tops); every other node is prescribed by its parent's
/// configuration choice. Chain runs are filled with an exact-length walk in
/// the automaton of `Π|S_i` from the prescribed top label to the label the
/// below-run attachment already chose — the walk exists because runs reach
/// the certificate's `chain_threshold = |C_i| + flexibility` and `C_i` is a
/// strongly connected flexible component containing both endpoints
/// (`S_{i+1} = trim(C_i) ⊆ C_i`). Rake pieces and the core are completed
/// downward inside their (trimmed) level sets.
pub fn solve_poly_flat(
    problem: &LclProblem,
    cert: &PolyCertificate,
    tree: &FlatTree,
    idx: &LevelIndex,
    scratch: &mut SolveScratch,
) -> Result<FlatOutcome, String> {
    let k = cert.exponent();
    let partition = poly_partition_flat(tree, idx, cert);
    let restrictions: Vec<LclProblem> = cert
        .levels
        .iter()
        .map(|level| problem.restrict_to(level.labels))
        .collect();
    let automata: Vec<Automaton> = restrictions.iter().map(Automaton::of).collect();
    let n = idx.len();
    let order = idx.bfs_order();
    reset(&mut scratch.labels_id, n, NO_LABEL);
    let labels = &mut scratch.labels_id;
    let walk = &mut scratch.walk;
    let reach = &mut scratch.reach;

    for layer in (1..=k).rev() {
        if layer < k {
            let restricted = &restrictions[layer - 1];
            let automaton = &automata[layer - 1];
            let scc = cert.levels[layer - 1].scc;
            for run in &partition.runs_by_iteration[layer - 1] {
                let top = run[0];
                if labels[top as usize] == NO_LABEL {
                    // Top with a lower-layer parent (global root or the
                    // attachment below an earlier iteration's chain): free
                    // choice in C_i.
                    labels[top as usize] = scc.first().expect("flexible SCCs are non-empty");
                }
                let start = labels[top as usize];
                let bottom = *run.last().expect("runs are non-empty");
                let below = tree
                    .children(bottom)
                    .iter()
                    .copied()
                    .find(|&c| labels[c as usize] != NO_LABEL);
                let found = match below {
                    Some(c) => {
                        automaton.find_walk_into(start, labels[c as usize], run.len(), reach, walk)
                    }
                    None => scc
                        .iter()
                        .any(|t| automaton.find_walk_into(start, t, run.len(), reach, walk)),
                };
                if !found {
                    return Err(format!(
                        "no walk of length {} from {} in the level-{layer} automaton \
                         (run shorter than the chain threshold?)",
                        run.len(),
                        restricted.label_name(start)
                    ));
                }
                for (j, &node) in run.iter().enumerate() {
                    labels[node as usize] = walk[j];
                    let required = if j + 1 < run.len() {
                        Some((run[j + 1], walk[j + 1]))
                    } else {
                        below.map(|c| (c, labels[c as usize]))
                    };
                    assign_children_flat(restricted, labels, tree, node, required)?;
                }
            }
        }
        let restricted = &restrictions[layer - 1];
        let wanted = |p: PolyPart| match p {
            PolyPart::Rake(i) => i == layer,
            PolyPart::Core => layer == k,
            PolyPart::Chain(_) => false,
        };
        for &v in order.iter() {
            if !wanted(partition.part[v as usize]) {
                continue;
            }
            if labels[v as usize] == NO_LABEL {
                labels[v as usize] = restricted.labels().first().expect("non-empty level");
            }
            assign_children_flat(restricted, labels, tree, v, None)?;
        }
    }

    if labels.contains(&NO_LABEL) {
        return Err("generalized partition completion left unlabeled nodes".into());
    }
    let labels = labels.clone();

    let rounds = poly_rounds(&partition.iteration_depths, cert, |kind| {
        flat_piece_depths(tree, order, &partition.part, kind)
    });
    Ok(FlatOutcome {
        labels,
        rounds,
        algorithm: POLY_ALGORITHM,
    })
}

/// The maximal within-piece depth (in nodes) over all pieces of the selected
/// kind — the measured completion cost of that phase.
fn flat_piece_depths(
    tree: &FlatTree,
    order: &[u32],
    part: &[PolyPart],
    kind: fn(PolyPart) -> bool,
) -> usize {
    let mut depth = vec![0usize; part.len()];
    let mut max_depth = 0usize;
    for &v in order {
        if !kind(part[v as usize]) {
            continue;
        }
        let d = match tree.parent(v) {
            Some(p) if part[p as usize] == part[v as usize] => depth[p as usize] + 1,
            _ => 1,
        };
        depth[v as usize] = d;
        max_depth = max_depth.max(d);
    }
    max_depth
}

// ---------------------------------------------------------------------------
// Greedy baseline (the n^{Θ(1)} fallback of the dispatcher)
// ---------------------------------------------------------------------------

/// The O(n) baseline for any solvable problem, the global greedy top-down
/// sweep (`rtlcl solve --baseline`): the continuation configuration of every
/// kept label is resolved once, then the tree is labeled in sharded top-down
/// level passes. Produces the labeling of the per-node arena greedy walk in
/// `lcl_core::greedy`, its test oracle.
pub fn solve_greedy_flat(
    problem: &LclProblem,
    idx: &LevelIndex,
    scratch: &mut SolveScratch,
) -> Option<FlatOutcome> {
    let kept = solvable_labels(problem);
    let first = kept.first()?;
    // Continuation table: one configuration per kept label, chosen exactly as
    // the arena greedy oracle chooses it per node.
    let num_alphabet = problem.alphabet().len();
    let mut continuation: Vec<Option<&Configuration>> = vec![None; num_alphabet];
    for l in kept {
        continuation[l.index()] = problem.continuation_within(l, kept);
    }
    reset(&mut scratch.glabels, idx.len(), NO_LABEL);
    scratch.glabels[0] = first;
    for level in 0..idx.height() {
        let continuation = &continuation;
        level_pass(
            idx,
            level,
            scratch.workers,
            &mut scratch.glabels,
            &|parents, head, tail, base| {
                for i in parents {
                    let children = idx.children_pos(i);
                    if children.is_empty() {
                        continue;
                    }
                    let config = continuation[head[i].index()]
                        .expect("kept labels always have a continuation within the kept set");
                    for (q, &l) in children.zip(config.children()) {
                        tail[q - base] = l;
                    }
                }
            },
        );
    }
    let glabels = &scratch.glabels;
    let labels = scatter_labels(idx, |pos| glabels[pos]);
    let mut rounds = RoundReport::new();
    rounds.measured("global top-down sweep (tree height)", idx.height() + 1);
    Some(FlatOutcome {
        labels,
        rounds,
        algorithm: "global greedy (O(n) baseline)",
    })
}

/// The Θ(n)-round baseline for the global 2-coloring problem (2): every node
/// learns its depth (a full top-down sweep) and outputs the colour of its
/// depth parity.
///
/// # Panics
///
/// Panics if `problem` has no labels named `1` and `2`.
pub fn solve_by_depth_parity_flat(problem: &LclProblem, tree: &FlatTree) -> FlatOutcome {
    let one = problem
        .label_by_name("1")
        .expect("2-coloring problem uses labels 1 and 2");
    let two = problem.label_by_name("2").expect("label 2");
    let labels = tree
        .depths()
        .iter()
        .map(|d| if d % 2 == 0 { one } else { two })
        .collect();
    let mut rounds = RoundReport::new();
    rounds.measured("top-down depth propagation", tree.height() + 1);
    FlatOutcome {
        labels,
        rounds,
        algorithm: "depth parity (Θ(n) baseline)",
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Solves `problem` on `tree` with the asymptotically optimal solver for its
/// complexity class, as determined by the classification `report`:
///
/// * O(1) and Θ(log* n) problems use the certificate-driven splitting solvers
///   (Theorems 7.2 and 6.3);
/// * Θ(log n) problems use the rake-and-compress solver (Theorem 5.1);
/// * Θ(n^{1/k}) problems use the generalized B/X-partition solver driven by
///   the exact-exponent certificate (Section 5, Lemma 8.1).
///
/// Round accounting is deterministic for equal `(tree, ids)`.
pub fn solve_flat(
    problem: &LclProblem,
    report: &ClassificationReport,
    tree: &FlatTree,
    idx: &LevelIndex,
    ids: &IdAssignment,
    scratch: &mut SolveScratch,
) -> Result<FlatOutcome, SolveError> {
    match report.complexity {
        Complexity::Unsolvable => Err(SolveError::Unsolvable),
        Complexity::Constant => {
            let cert = report
                .constant_certificate()
                .expect("constant class implies a certificate")
                .map_err(|e| SolveError::CertificateTooLarge(e.to_string()))?;
            Ok(solve_constant_flat(problem, &cert, idx, scratch))
        }
        Complexity::LogStar => {
            let cert = report
                .log_star_certificate()
                .expect("log* class implies a certificate")
                .map_err(|e| SolveError::CertificateTooLarge(e.to_string()))?;
            Ok(solve_log_star_flat(problem, &cert, tree, idx, ids, scratch))
        }
        Complexity::Log => {
            let cert = report
                .log_certificate()
                .expect("log class implies a certificate");
            solve_log_flat(problem, cert, tree, scratch).map_err(SolveError::Internal)
        }
        Complexity::Polynomial { .. } => {
            let cert = report
                .poly_certificate()
                .expect("polynomial class implies an exponent certificate");
            solve_poly_flat(problem, cert, tree, idx, scratch).map_err(SolveError::Internal)
        }
    }
}
