//! Labelings of rooted trees and solution verification (Definition 4.2).
//!
//! A [`Labeling`] assigns a label (or nothing yet) to every node of a
//! [`FlatTree`], indexed by node id. The independent checker
//! [`Labeling::verify`] implements Definition 4.2 exactly: every node must carry
//! an active label, and every node with exactly δ children must form an allowed
//! configuration with them (nodes with a different number of children — leaves
//! in full δ-ary trees — are unconstrained). It is a naive per-node walk that
//! shares no code with the solvers or with the CSR validator of `lcl-verify`,
//! so tests and the fuzzing oracle use it as the reference checker.

use lcl_trees::FlatTree;

use crate::configuration::Configuration;
use crate::label::Label;
use crate::problem::LclProblem;

/// A (possibly partial) assignment of labels to the nodes of a tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    labels: Vec<Option<Label>>,
}

impl Labeling {
    /// Creates an empty labeling for a tree with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Labeling {
            labels: vec![None; num_nodes],
        }
    }

    /// Creates an empty labeling sized for `tree`.
    pub fn for_tree(tree: &FlatTree) -> Self {
        Self::new(tree.len())
    }

    /// Creates a complete labeling from one label per node, indexed by node id
    /// (the layout of the flat solvers' output).
    pub fn from_labels(labels: &[Label]) -> Self {
        Labeling {
            labels: labels.iter().copied().map(Some).collect(),
        }
    }

    /// Number of nodes the labeling covers.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the labeling covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of `v`, if assigned.
    #[inline]
    pub fn get(&self, v: u32) -> Option<Label> {
        self.labels[v as usize]
    }

    /// Assigns a label to `v` (overwriting any previous assignment).
    #[inline]
    pub fn set(&mut self, v: u32, label: Label) {
        self.labels[v as usize] = Some(label);
    }

    /// Removes the assignment of `v`.
    pub fn clear(&mut self, v: u32) {
        self.labels[v as usize] = None;
    }

    /// Returns `true` if `v` has a label.
    #[inline]
    pub fn is_set(&self, v: u32) -> bool {
        self.labels[v as usize].is_some()
    }

    /// Returns `true` if every node has a label.
    pub fn is_complete(&self) -> bool {
        self.labels.iter().all(|l| l.is_some())
    }

    /// Number of labeled nodes.
    pub fn assigned_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Iterates over `(node, label)` pairs of assigned nodes.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Label)> + '_ {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|label| (i as u32, label)))
    }

    /// Verifies that this labeling is a solution of `problem` on `tree`
    /// (Definition 4.2). Returns the first violation found.
    pub fn verify(&self, tree: &FlatTree, problem: &LclProblem) -> Result<(), SolutionError> {
        if self.labels.len() != tree.len() {
            return Err(SolutionError::WrongSize {
                expected: tree.len(),
                found: self.labels.len(),
            });
        }
        let nodes = 0..tree.len() as u32;
        for v in nodes.clone() {
            let label = match self.get(v) {
                Some(l) => l,
                None => return Err(SolutionError::Unlabeled { node: v }),
            };
            if !problem.labels().contains(label) {
                return Err(SolutionError::InactiveLabel { node: v, label });
            }
        }
        for v in nodes {
            if tree.num_children(v) != problem.delta() {
                continue; // unconstrained (leaf of a full δ-ary tree, or irregular node)
            }
            let parent_label = self.get(v).expect("checked above");
            let child_labels: Vec<Label> = tree
                .children(v)
                .iter()
                .map(|&c| self.get(c).expect("checked above"))
                .collect();
            let config = Configuration::new(parent_label, child_labels.clone());
            if !problem.allows(&config) {
                return Err(SolutionError::ForbiddenConfiguration {
                    node: v,
                    parent_label,
                    child_labels,
                });
            }
        }
        Ok(())
    }

    /// Renders the labeling as `node=name` pairs, useful in error messages.
    pub fn display(&self, problem: &LclProblem) -> String {
        let mut parts = Vec::new();
        for (v, l) in self.iter() {
            parts.push(format!("v{v}={}", problem.label_name(l)));
        }
        parts.join(" ")
    }
}

/// A violation of Definition 4.2 found by [`Labeling::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolutionError {
    /// The labeling covers a different number of nodes than the tree.
    WrongSize {
        /// Number of nodes in the tree.
        expected: usize,
        /// Number of entries in the labeling.
        found: usize,
    },
    /// A node has no label.
    Unlabeled {
        /// The unlabeled node.
        node: u32,
    },
    /// A node is labeled with a label outside Σ(Π).
    InactiveLabel {
        /// The offending node.
        node: u32,
        /// The label it carries.
        label: Label,
    },
    /// A constrained node together with its children does not form an allowed
    /// configuration.
    ForbiddenConfiguration {
        /// The constrained (parent) node.
        node: u32,
        /// Its label.
        parent_label: Label,
        /// The labels of its children, in port order.
        child_labels: Vec<Label>,
    },
}

impl std::fmt::Display for SolutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolutionError::WrongSize { expected, found } => {
                write!(
                    f,
                    "labeling covers {found} nodes but the tree has {expected}"
                )
            }
            SolutionError::Unlabeled { node } => write!(f, "node v{node} has no label"),
            SolutionError::InactiveLabel { node, label } => {
                write!(
                    f,
                    "node v{node} carries label {label} outside the active set"
                )
            }
            SolutionError::ForbiddenConfiguration { node, .. } => {
                write!(
                    f,
                    "node v{node} and its children form a forbidden configuration"
                )
            }
        }
    }
}

impl std::error::Error for SolutionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_coloring() -> LclProblem {
        "1:22\n2:11\n".parse().unwrap()
    }

    #[test]
    fn complete_valid_labeling_verifies() {
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        let tree = FlatTree::balanced(2, 3);
        let depths = tree.depths();
        let mut labeling = Labeling::for_tree(&tree);
        for v in 0..tree.len() as u32 {
            let label = if depths[v as usize].is_multiple_of(2) {
                one
            } else {
                two
            };
            labeling.set(v, label);
        }
        assert!(labeling.is_complete());
        labeling.verify(&tree, &p).unwrap();
    }

    #[test]
    fn missing_label_is_reported() {
        let p = two_coloring();
        let tree = FlatTree::balanced(2, 1);
        let labeling = Labeling::for_tree(&tree);
        let err = labeling.verify(&tree, &p).unwrap_err();
        assert_eq!(err, SolutionError::Unlabeled { node: 0 });
        assert_eq!(err.to_string(), "node v0 has no label");
    }

    #[test]
    fn unlabeled_node_is_reported_by_its_flat_id() {
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let tree = FlatTree::balanced(2, 2);
        let mut labeling = Labeling::for_tree(&tree);
        for v in 0..tree.len() as u32 {
            labeling.set(v, one);
        }
        labeling.clear(3);
        assert!(!labeling.is_set(3));
        let err = labeling.verify(&tree, &p).unwrap_err();
        assert_eq!(err, SolutionError::Unlabeled { node: 3 });
        assert_eq!(err.to_string(), "node v3 has no label");
    }

    #[test]
    fn forbidden_configuration_is_reported() {
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let tree = FlatTree::balanced(2, 1);
        let mut labeling = Labeling::for_tree(&tree);
        for v in 0..tree.len() as u32 {
            labeling.set(v, one);
        }
        let err = labeling.verify(&tree, &p).unwrap_err();
        assert!(matches!(err, SolutionError::ForbiddenConfiguration { .. }));
    }

    #[test]
    fn leaves_are_unconstrained() {
        // Leaves may carry any active label, even one that never appears in a
        // configuration's child position.
        let p: LclProblem = "1 : 1 1\nlabels: z\n".parse().unwrap();
        let one = p.label_by_name("1").unwrap();
        let z = p.label_by_name("z").unwrap();
        let tree = FlatTree::balanced(2, 1);
        let mut labeling = Labeling::for_tree(&tree);
        labeling.set(tree.root(), one);
        for &c in tree.children(tree.root()) {
            labeling.set(c, z);
        }
        // The root's configuration (1 : z z) is forbidden...
        assert!(labeling.verify(&tree, &p).is_err());
        // ...but labeling the root's children 1 and hanging z on nothing is fine:
        let mut ok = Labeling::for_tree(&tree);
        for v in 0..tree.len() as u32 {
            ok.set(v, one);
        }
        ok.verify(&tree, &p).unwrap();
    }

    #[test]
    fn inactive_label_is_reported() {
        let p = two_coloring();
        let tree = FlatTree::balanced(2, 1);
        let mut labeling = Labeling::for_tree(&tree);
        for v in 0..tree.len() as u32 {
            labeling.set(v, Label(99));
        }
        let err = labeling.verify(&tree, &p).unwrap_err();
        assert!(matches!(err, SolutionError::InactiveLabel { .. }));
    }

    #[test]
    fn wrong_size_is_reported() {
        let p = two_coloring();
        let tree = FlatTree::balanced(2, 2);
        let labeling = Labeling::new(3);
        let err = labeling.verify(&tree, &p).unwrap_err();
        assert!(matches!(err, SolutionError::WrongSize { .. }));
    }

    #[test]
    fn irregular_nodes_are_unconstrained() {
        // A node with 1 child in a δ=2 problem is unconstrained (Definition 4.2
        // only constrains nodes with exactly δ children).
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let tree = FlatTree::balanced(1, 1);
        let mut labeling = Labeling::for_tree(&tree);
        for v in 0..tree.len() as u32 {
            labeling.set(v, one);
        }
        labeling.verify(&tree, &p).unwrap();
    }

    #[test]
    fn iter_and_counts() {
        let tree = FlatTree::balanced(2, 1);
        let mut labeling = Labeling::for_tree(&tree);
        assert_eq!(labeling.assigned_count(), 0);
        labeling.set(tree.root(), Label(0));
        assert_eq!(labeling.assigned_count(), 1);
        assert_eq!(labeling.iter().count(), 1);
        labeling.clear(tree.root());
        assert_eq!(labeling.assigned_count(), 0);
        assert!(!labeling.is_complete());
    }
}
