//! Algorithm 3 (`findUnrestrictedCertificate`): certificate builders, and their
//! conversion into explicit uniform certificates (the constructive content of
//! Lemma 6.9).
//!
//! A *certificate builder* records, for ever larger sets of "possible root labels",
//! how each set can be produced from δ previously produced sets through an allowed
//! configuration. Algorithm 3 succeeds when the full label set of the (restricted)
//! problem is producible; Theorem 6.8 shows this happens exactly when a uniform
//! certificate (Definition 6.1) exists, and Lemma 6.9 converts a builder into such a
//! certificate. The conversion implemented here follows the same plan — build the
//! set-labeled shape tree, instantiate one concrete tree per certificate label, make
//! the depth uniform, and (for certificates for O(1) solvability) push a leaf
//! carrying the special label down to the deepest level by grafting a decorated
//! closed walk — and the result is always re-checked against Definition 6.1 by the
//! caller's tests.
//!
//! The search itself is the masked kernel [`crate::scratch::exists_builder_masked`];
//! [`crate::scratch::extract_builder`] reads its recorded derivations back as a
//! [`CertificateBuilder`], whose entries end at the success entry. Materialization
//! only follows derivations reachable from that entry.

use std::collections::BTreeMap;

use crate::certificate::{CertificateTree, LogStarCertificate};
use crate::configuration::assign_children_to_slots;
use crate::label::Label;
use crate::label_set::LabelSet;
use crate::problem::LclProblem;

/// One element of the set `R` maintained by Algorithm 3: a set of labels that can
/// all be produced as roots of identically-leaf-labeled trees, plus the indicator
/// of whether such trees can contain the special label `a` on a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootSetEntry {
    /// The producible root labels.
    pub labels: LabelSet,
    /// Whether the corresponding trees can be built with the special label on a
    /// leaf. Always `false` when Algorithm 3 is run without a special label.
    pub has_special_leaf: bool,
}

/// How a derived [`RootSetEntry`] was produced: the δ entries used as child slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivation {
    /// Indices (into [`CertificateBuilder::entries`]) of the δ child entries.
    pub child_indices: Vec<usize>,
}

/// The output of Algorithm 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateBuilder {
    /// δ of the problem the builder was computed for.
    pub delta: usize,
    /// The special label `a`, if one was requested.
    pub target: Option<Label>,
    /// The entries of `R` in insertion order, up to and including the success
    /// entry (the search stops there). The singletons come first; a success
    /// entry that is itself a singleton ends the list early.
    pub entries: Vec<RootSetEntry>,
    /// For each entry, how it was derived (`None` for the initial singletons).
    pub derivations: Vec<Option<Derivation>>,
    /// Index of the successful entry `(Σ(Π'), a ≠ ε)`: the last entry.
    pub success_index: usize,
}

impl CertificateBuilder {
    /// The labels of the successful entry, i.e. the certificate labels Σ_T.
    pub fn certificate_labels(&self) -> LabelSet {
        self.entries[self.success_index].labels
    }
}

/// Algorithm 3: searches for a certificate builder for `problem`, optionally
/// requiring that the special label `target` can appear on a certificate leaf.
///
/// `problem` is usually a restriction of the original problem to a candidate label
/// set Σ' (Algorithms 4 and 5 drive the search over subsets). Returns `None` when no
/// builder exists.
///
/// This is the masked kernel [`crate::scratch::exists_builder_masked`] over
/// `problem.labels()` followed by [`crate::scratch::extract_builder`], on the
/// calling thread's scratch. The search stops at the success entry, so
/// [`CertificateBuilder::entries`] ends there: `success_index` is always the
/// last index.
pub fn find_unrestricted_certificate(
    problem: &LclProblem,
    target: Option<Label>,
) -> Option<CertificateBuilder> {
    crate::scratch::with_thread_scratch(|scratch| {
        crate::scratch::exists_builder_masked(problem, problem.labels(), target, scratch);
        crate::scratch::extract_builder(problem, scratch)
    })
}

/// The naive reference Algorithm 3, kept as a test oracle for the masked
/// kernel: it runs the fixed point to the end over a `BTreeSet`, then looks
/// for the success entry. Its entries up to `success_index` equal the
/// kernel's builder.
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub mod reference {
    use std::collections::BTreeSet;

    use super::{CertificateBuilder, Derivation, RootSetEntry};
    use crate::configuration::children_match_slots;
    use crate::label::Label;
    use crate::label_set::LabelSet;
    use crate::problem::LclProblem;

    /// Algorithm 3 run to its full fixed point; `entries` and `derivations`
    /// hold every producible entry, not only those up to the success entry.
    pub fn find_unrestricted_certificate_full(
        problem: &LclProblem,
        target: Option<Label>,
    ) -> Option<CertificateBuilder> {
        if problem.configurations().is_empty() || problem.labels().is_empty() {
            return None;
        }
        if let Some(t) = target {
            if !problem.labels().contains(t) {
                return None;
            }
        }
        let delta = problem.delta();
        let mut entries: Vec<RootSetEntry> = Vec::new();
        let mut derivations: Vec<Option<Derivation>> = Vec::new();
        let mut seen: BTreeSet<(LabelSet, bool)> = BTreeSet::new();

        for label in problem.labels() {
            let entry = RootSetEntry {
                labels: LabelSet::singleton(label),
                has_special_leaf: Some(label) == target,
            };
            seen.insert((entry.labels, entry.has_special_leaf));
            entries.push(entry);
            derivations.push(None);
        }

        // Fixed-point loop: repeatedly try every δ-tuple of existing entries.
        loop {
            let mut added = false;
            let snapshot_len = entries.len();
            let mut tuple = vec![0usize; delta];
            'tuples: loop {
                let slot_sets: Vec<LabelSet> = tuple.iter().map(|&i| entries[i].labels).collect();
                let mut produced = LabelSet::EMPTY;
                for config in problem.configurations() {
                    if produced.contains(config.parent()) {
                        continue;
                    }
                    if children_match_slots(config.children(), &slot_sets) {
                        produced.insert(config.parent());
                    }
                }
                if !produced.is_empty() {
                    let flag = tuple.iter().any(|&i| entries[i].has_special_leaf);
                    if seen.insert((produced, flag)) {
                        entries.push(RootSetEntry {
                            labels: produced,
                            has_special_leaf: flag,
                        });
                        derivations.push(Some(Derivation {
                            child_indices: tuple.clone(),
                        }));
                        added = true;
                    }
                }
                // Advance the tuple (odometer over `snapshot_len` symbols).
                let mut pos = 0;
                loop {
                    if pos == delta {
                        break 'tuples;
                    }
                    tuple[pos] += 1;
                    if tuple[pos] < snapshot_len {
                        break;
                    }
                    tuple[pos] = 0;
                    pos += 1;
                }
            }
            if !added {
                break;
            }
        }

        let wanted_flag = target.is_some();
        let success_index = entries
            .iter()
            .position(|e| e.labels == problem.labels() && e.has_special_leaf == wanted_flag)?;
        Some(CertificateBuilder {
            delta,
            target,
            entries,
            derivations,
            success_index,
        })
    }

    /// [`find_unrestricted_certificate_full`] cut at its success entry: what
    /// the masked kernel records.
    pub fn find_unrestricted_certificate_cut(
        problem: &LclProblem,
        target: Option<Label>,
    ) -> Option<CertificateBuilder> {
        let mut builder = find_unrestricted_certificate_full(problem, target)?;
        builder.entries.truncate(builder.success_index + 1);
        builder.derivations.truncate(builder.success_index + 1);
        Some(builder)
    }
}

/// Errors while materializing a certificate builder into explicit trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateBuildError {
    /// The certificate trees would exceed the configured node budget. The decision
    /// (O(log* n) vs Ω(log n)) is unaffected; only the explicit trees are withheld.
    TooLarge {
        /// Required depth of the certificate trees.
        depth: usize,
        /// Number of nodes each tree would need.
        nodes: usize,
        /// The configured budget.
        budget: usize,
    },
}

impl std::fmt::Display for CertificateBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateBuildError::TooLarge {
                depth,
                nodes,
                budget,
            } => write!(
                f,
                "certificate trees of depth {depth} need {nodes} nodes, over the budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for CertificateBuildError {}

/// Internal shape-tree node used during materialization: a node of the set-labeled
/// tree of Lemma 6.9.
#[derive(Debug, Clone)]
struct ShapeNode {
    entry: usize,
    children: Vec<usize>,
    depth: usize,
    on_trail: bool,
}

/// Materializes a certificate builder (computed for the restriction `problem` of the
/// original problem to the certificate labels) into a uniform certificate.
///
/// `max_nodes` bounds the size of each certificate tree; the depth of the produced
/// certificate is the depth of the builder's derivation tree, extended when a
/// special label must be pushed to the leaf level.
pub fn build_log_star_certificate(
    problem: &LclProblem,
    builder: &CertificateBuilder,
    max_nodes: usize,
) -> Result<LogStarCertificate, CertificateBuildError> {
    let delta = builder.delta;
    let sigma_t = builder.certificate_labels();
    debug_assert_eq!(sigma_t, problem.labels());

    // Case 1: a single certificate label σ. The builder's success implies C(Π') is
    // non-empty, and every configuration of the restriction is (σ : σ … σ).
    if sigma_t.len() == 1 {
        let sigma = sigma_t.first().expect("non-empty");
        let mut labels = vec![sigma];
        labels.extend(std::iter::repeat_n(sigma, delta));
        let tree = CertificateTree::new(delta, 1, labels);
        return Ok(LogStarCertificate {
            labels: sigma_t,
            depth: 1,
            trees: BTreeMap::from([(sigma, tree)]),
        });
    }

    // Step A: build the shape tree from the successful entry.
    let mut shape: Vec<ShapeNode> = Vec::new();
    build_shape(
        builder,
        builder.success_index,
        0,
        builder.target.is_some(),
        &mut shape,
    );

    let d0 = shape
        .iter()
        .filter(|n| n.children.is_empty())
        .map(|n| n.depth)
        .max()
        .expect("shape tree has leaves");
    debug_assert!(d0 >= 1, "multi-label certificates have depth at least 1");

    // Step B: locate the designated special leaf and extract its depth.
    let trail_leaf = shape
        .iter()
        .position(|n| n.on_trail && n.children.is_empty());
    let d_a = trail_leaf.map(|i| shape[i].depth);

    // Step C: final depth. Without a special label the shape depth suffices; with
    // one, the special leaf is pushed down by whole multiples of its own depth
    // (grafting the closed walk) until it is the deepest node.
    let depth = match d_a {
        None => d0,
        Some(da) => {
            debug_assert!(da >= 1);
            if d0 <= da {
                da
            } else {
                da * d0.div_ceil(da)
            }
        }
    };
    let nodes = CertificateTree::node_count(delta, depth);
    if nodes > max_nodes {
        return Err(CertificateBuildError::TooLarge {
            depth,
            nodes,
            budget: max_nodes,
        });
    }

    // Step D: concrete label assignment of the shape tree for each root label, plus
    // the decorated closed walk read off the tree rooted at the special label.
    let mut trees = BTreeMap::new();
    let walk = match (builder.target, trail_leaf) {
        (Some(a), Some(_)) => {
            let assignment = assign_shape(problem, builder, &shape, a);
            Some(extract_walk(problem, builder, &shape, &assignment))
        }
        _ => None,
    };
    for sigma in sigma_t {
        let assignment = assign_shape(problem, builder, &shape, sigma);
        let tree = emit_tree(
            problem,
            &shape,
            &assignment,
            walk.as_ref(),
            trail_leaf,
            delta,
            depth,
        );
        trees.insert(sigma, tree);
    }

    Ok(LogStarCertificate {
        labels: sigma_t,
        depth,
        trees,
    })
}

/// Recursively expands the shape tree below the given entry. Returns the index of
/// the created node.
fn build_shape(
    builder: &CertificateBuilder,
    entry: usize,
    depth: usize,
    on_trail: bool,
    shape: &mut Vec<ShapeNode>,
) -> usize {
    let node_index = shape.len();
    shape.push(ShapeNode {
        entry,
        children: Vec::new(),
        depth,
        on_trail,
    });
    let is_singleton = builder.entries[entry].labels.len() == 1;
    let singleton_is_target = is_singleton
        && builder.target.is_some()
        && builder.entries[entry].labels.first() == builder.target;
    // A node is expanded if it is not a singleton, or if it lies on the trail
    // towards the special label but is a *derived* singleton of a different label
    // (base singletons with the special flag are the special label itself).
    let expand = if !is_singleton {
        true
    } else {
        on_trail && !singleton_is_target && builder.derivations[entry].is_some()
    };
    if !expand {
        return node_index;
    }
    let derivation = builder.derivations[entry]
        .as_ref()
        .expect("non-singleton entries are always derived");
    // Pick which child continues the trail: any child whose entry has the special
    // flag (exists because flags are ORs of the children's flags).
    let trail_child = if on_trail {
        derivation
            .child_indices
            .iter()
            .position(|&c| builder.entries[c].has_special_leaf)
    } else {
        None
    };
    let mut children = Vec::with_capacity(derivation.child_indices.len());
    for (slot, &child_entry) in derivation.child_indices.iter().enumerate() {
        let child_on_trail = trail_child == Some(slot);
        let child_index = build_shape(builder, child_entry, depth + 1, child_on_trail, shape);
        children.push(child_index);
    }
    shape[node_index].children = children;
    node_index
}

/// Assigns a concrete label to every shape node for the tree rooted at `root_label`.
fn assign_shape(
    problem: &LclProblem,
    builder: &CertificateBuilder,
    shape: &[ShapeNode],
    root_label: Label,
) -> Vec<Label> {
    let mut assignment = vec![Label(u16::MAX); shape.len()];
    assignment[0] = root_label;
    // Shape nodes are stored in DFS order, so parents precede children; walk in
    // index order and assign each node's children when the node is visited.
    for (index, node) in shape.iter().enumerate() {
        if node.children.is_empty() {
            // Leaves are singletons; force their label (also covers the root of a
            // single-node shape, which cannot happen for multi-label certificates).
            if index != 0 {
                continue;
            }
        }
        let label = assignment[index];
        if node.children.is_empty() {
            continue;
        }
        let slot_sets: Vec<LabelSet> = node
            .children
            .iter()
            .map(|&c| builder.entries[shape[c].entry].labels)
            .collect();
        let (_, child_assignment) = problem
            .configurations_with_parent(label)
            .find_map(|config| {
                assign_children_to_slots(config.children(), &slot_sets)
                    .map(|assignment| (config, assignment))
            })
            .expect("Algorithm 3 derivations always admit a configuration assignment");
        for (&child_shape, &child_label) in node.children.iter().zip(child_assignment.iter()) {
            assignment[child_shape] = child_label;
        }
    }
    // Singleton leaves that were never assigned through a parent (possible only for
    // the root, handled above) keep their forced singleton value.
    for (index, node) in shape.iter().enumerate() {
        if assignment[index] == Label(u16::MAX) {
            let entry = &builder.entries[node.entry];
            debug_assert_eq!(entry.labels.len(), 1);
            assignment[index] = entry.labels.first().expect("singleton");
        }
    }
    assignment
}

/// One step of the decorated closed walk used to push the special label to the
/// deepest level: the labels of the δ children of the step's node, and which child
/// continues the walk.
#[derive(Debug, Clone)]
struct WalkStep {
    child_labels: Vec<Label>,
    trail_slot: usize,
}

/// Reads the decorated closed walk (from the special label back to itself) off the
/// concrete tree rooted at the special label.
fn extract_walk(
    problem: &LclProblem,
    builder: &CertificateBuilder,
    shape: &[ShapeNode],
    assignment_for_target: &[Label],
) -> Vec<WalkStep> {
    let _ = problem;
    let mut steps = Vec::new();
    let mut current = 0usize; // the root is always on the trail when a target is set
    loop {
        let node = &shape[current];
        if node.children.is_empty() {
            break;
        }
        let trail_slot = node
            .children
            .iter()
            .position(|&c| shape[c].on_trail)
            .expect("trail continues through exactly one child");
        let child_labels: Vec<Label> = node
            .children
            .iter()
            .map(|&c| assignment_for_target[c])
            .collect();
        let next = node.children[trail_slot];
        steps.push(WalkStep {
            child_labels,
            trail_slot,
        });
        current = next;
        let _ = builder;
    }
    steps
}

/// What generates a subtree position while emitting the final complete trees.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A node of the shape tree.
    Shape(usize),
    /// A node on a grafted copy of the closed walk (`step` ∈ 1..=walk length).
    Walk(usize),
    /// A padding chain below a fixed label.
    Pad(Label),
}

/// Emits the complete δ-ary certificate tree of the given depth for one root label.
fn emit_tree(
    problem: &LclProblem,
    shape: &[ShapeNode],
    assignment: &[Label],
    walk: Option<&Vec<WalkStep>>,
    trail_leaf: Option<usize>,
    delta: usize,
    depth: usize,
) -> CertificateTree {
    let total = CertificateTree::node_count(delta, depth);
    let mut labels: Vec<Label> = vec![Label(u16::MAX); total];
    let sigma_t = problem.labels();

    let padding_config = |label: Label| -> Vec<Label> {
        problem
            .continuation_within(label, sigma_t)
            .expect("every certificate label has a continuation within Σ_T")
            .children()
            .to_vec()
    };

    // Depth-first emission over (position, depth, source).
    let mut stack: Vec<(usize, usize, Source)> = vec![(0, 0, Source::Shape(0))];
    while let Some((pos, d, source)) = stack.pop() {
        let label = match source {
            Source::Shape(node) => assignment[node],
            Source::Walk(step) => {
                let walk = walk.expect("walk sources only occur with a special label");
                if step == walk.len() {
                    // Completed one traversal: back at the special label.
                    assignment[trail_leaf.expect("trail leaf exists")]
                } else {
                    // The label of the walk node at this step is the trail child of
                    // the previous step.
                    walk[step - 1].child_labels[walk[step - 1].trail_slot]
                }
            }
            Source::Pad(l) => l,
        };
        labels[pos] = label;
        if d == depth {
            continue;
        }
        let first_child_pos = delta * pos + 1;
        match source {
            Source::Shape(node) if !shape[node].children.is_empty() => {
                for (slot, &child) in shape[node].children.iter().enumerate() {
                    stack.push((first_child_pos + slot, d + 1, Source::Shape(child)));
                }
            }
            Source::Shape(node) if trail_leaf == Some(node) => {
                // Designated special leaf above the final depth: graft the walk.
                let walk = walk.expect("special leaf implies a walk");
                let step = &walk[0];
                for (slot, &child_label) in step.child_labels.iter().enumerate() {
                    let child_source = if slot == step.trail_slot {
                        Source::Walk(1)
                    } else {
                        Source::Pad(child_label)
                    };
                    stack.push((first_child_pos + slot, d + 1, child_source));
                }
            }
            Source::Shape(_) | Source::Pad(_) => {
                // A leaf of the shape tree (or a padding node) above the final
                // depth: pad with an arbitrary continuation inside Σ_T.
                let children = padding_config(label);
                for (slot, &child_label) in children.iter().enumerate() {
                    stack.push((first_child_pos + slot, d + 1, Source::Pad(child_label)));
                }
            }
            Source::Walk(step_index) => {
                let walk = walk.expect("walk sources only occur with a special label");
                let step = if step_index == walk.len() {
                    &walk[0] // restart the walk below the special label
                } else {
                    &walk[step_index]
                };
                let next_index = if step_index == walk.len() {
                    1
                } else {
                    step_index + 1
                };
                for (slot, &child_label) in step.child_labels.iter().enumerate() {
                    let child_source = if slot == step.trail_slot {
                        Source::Walk(next_index)
                    } else {
                        Source::Pad(child_label)
                    };
                    stack.push((first_child_pos + slot, d + 1, child_source));
                }
            }
        }
    }
    debug_assert!(labels.iter().all(|&l| l != Label(u16::MAX)));
    CertificateTree::new(delta, depth, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn restricted(problem: &LclProblem) -> LclProblem {
        problem.restrict_to(problem.labels())
    }

    fn three_coloring() -> LclProblem {
        "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n"
            .parse()
            .unwrap()
    }

    fn mis() -> LclProblem {
        "1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n"
            .parse()
            .unwrap()
    }

    #[test]
    fn builder_found_for_three_coloring() {
        let p = three_coloring();
        let builder = find_unrestricted_certificate(&p, None).expect("3-coloring is O(log* n)");
        assert_eq!(builder.certificate_labels().len(), 3);
        assert_eq!(builder.entries.len(), builder.derivations.len());
        // The initial singletons come first and have no derivation.
        assert!(builder.derivations[..3].iter().all(|d| d.is_none()));
        assert!(builder.derivations[builder.success_index].is_some());
    }

    #[test]
    fn kernel_builder_is_the_reference_cut_at_its_success_entry() {
        let b = mis().label_by_name("b");
        for (p, target) in [(three_coloring(), None), (mis(), None), (mis(), b)] {
            let kernel = find_unrestricted_certificate(&p, target).unwrap();
            assert_eq!(kernel.success_index, kernel.entries.len() - 1);
            assert_eq!(
                Some(&kernel),
                reference::find_unrestricted_certificate_cut(&p, target).as_ref()
            );
            // Materialization only reads entries reachable from the success
            // entry, so the full fixed point yields the same certificate.
            let full = reference::find_unrestricted_certificate_full(&p, target).unwrap();
            assert!(full.entries.len() >= kernel.entries.len());
            assert_eq!(
                build_log_star_certificate(&restricted(&p), &kernel, 1_000_000),
                build_log_star_certificate(&restricted(&p), &full, 1_000_000)
            );
        }
    }

    #[test]
    fn builder_materializes_into_valid_certificate_for_three_coloring() {
        let p = three_coloring();
        let builder = find_unrestricted_certificate(&p, None).unwrap();
        let cert = build_log_star_certificate(&restricted(&p), &builder, 1_000_000).unwrap();
        cert.verify(&p).unwrap();
        assert!(cert.depth >= 1);
        assert_eq!(cert.trees.len(), 3);
    }

    #[test]
    fn builder_not_found_for_two_coloring() {
        // 2-coloring is Θ(n): the full label set {1, 2} is never producible because
        // any fixed leaf labeling forces the root's parity.
        let p: LclProblem = "1:22\n2:11\n".parse().unwrap();
        assert!(find_unrestricted_certificate(&p, None).is_none());
    }

    #[test]
    fn builder_not_found_for_branch_two_coloring() {
        // Problem (5) has complexity Θ(log n), so no O(log* n) certificate exists.
        let p: LclProblem = "1 : 1 2\n2 : 1 1\n".parse().unwrap();
        assert!(find_unrestricted_certificate(&p, None).is_none());
    }

    #[test]
    fn builder_with_special_label_for_mis() {
        let p = mis();
        let b = p.label_by_name("b").unwrap();
        let builder = find_unrestricted_certificate(&p, Some(b)).expect("MIS is O(1)");
        assert!(builder.entries[builder.success_index].has_special_leaf);
        let cert = build_log_star_certificate(&restricted(&p), &builder, 1_000_000).unwrap();
        cert.verify(&p).unwrap();
        assert!(
            cert.has_leaf_labeled(b),
            "special label must appear on a leaf"
        );
    }

    #[test]
    fn builder_without_special_label_for_mis() {
        let p = mis();
        let builder = find_unrestricted_certificate(&p, None).unwrap();
        let cert = build_log_star_certificate(&restricted(&p), &builder, 1_000_000).unwrap();
        cert.verify(&p).unwrap();
    }

    #[test]
    fn missing_target_label_fails() {
        let p = three_coloring();
        assert!(find_unrestricted_certificate(&p, Some(Label(77))).is_none());
    }

    #[test]
    fn single_label_certificate() {
        let p: LclProblem = "x : x x\n".parse().unwrap();
        let x = p.label_by_name("x").unwrap();
        let builder = find_unrestricted_certificate(&p, Some(x)).unwrap();
        let cert = build_log_star_certificate(&p, &builder, 1_000).unwrap();
        cert.verify(&p).unwrap();
        assert_eq!(cert.depth, 1);
        assert!(cert.has_leaf_labeled(x));
    }

    #[test]
    fn empty_problem_has_no_builder() {
        let p: LclProblem = "labels: a b\n".parse().unwrap();
        assert!(find_unrestricted_certificate(&p, None).is_none());
    }

    #[test]
    fn node_budget_is_respected() {
        let p = three_coloring();
        let builder = find_unrestricted_certificate(&p, None).unwrap();
        let err = build_log_star_certificate(&restricted(&p), &builder, 2).unwrap_err();
        assert!(matches!(err, CertificateBuildError::TooLarge { .. }));
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn delta_three_coloring_builder() {
        // 4-coloring with δ = 3 is O(log* n); the builder and materialization must
        // handle δ > 2.
        let mut b = LclProblem::builder(3);
        let names = ["1", "2", "3", "4"];
        for p in 0..4 {
            for x in 0..4 {
                for y in x..4 {
                    for z in y..4 {
                        if x != p && y != p && z != p {
                            b.configuration(names[p], &[names[x], names[y], names[z]]);
                        }
                    }
                }
            }
        }
        let p = b.build();
        let builder = find_unrestricted_certificate(&p, None).expect("4-coloring is O(log* n)");
        let cert = build_log_star_certificate(&restricted(&p), &builder, 5_000_000).unwrap();
        cert.verify(&p).unwrap();
    }
}
