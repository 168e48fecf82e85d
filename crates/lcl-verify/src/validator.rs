//! The parallel O(n) labeling validator.
//!
//! [`Labeling::verify`](lcl_core::Labeling::verify) is the repository's
//! reference checker: per node it collects the child labels into a fresh
//! `Vec`, builds a [`Configuration`](lcl_core::Configuration) (another
//! allocation plus a sort), and binary-searches the problem's configuration
//! list with `Vec` comparisons. That is the right shape for an oracle on toy
//! trees and exactly the wrong shape for a million nodes.
//!
//! [`LabelingValidator`] precomputes, once per problem, a dense
//! parent-indexed table: for every alphabet label, the sorted list of allowed
//! child multisets packed into a single `u128` (16 bits per child, so any
//! δ ≤ 8 fits; larger δ falls back to unpacked rows). Checking a node is then
//!
//! 1. one bitset membership test (`label ∈ Σ`),
//! 2. an insertion sort of at most δ `u16`s on the stack,
//! 3. one binary search over a flat `&[u128]`.
//!
//! No allocation, no pointer chasing — which makes the per-node check safe to
//! shard: [`LabelingValidator::validate_parallel`] splits the node range over
//! `std::thread::scope` workers, each scanning a contiguous slice of the CSR
//! arrays, and reports the lowest-numbered violation so the verdict is
//! deterministic regardless of worker count.

use lcl_core::{Label, LabelSet, LclProblem};
use lcl_trees::FlatTree;

/// Child multisets packed into a `u128` fit 8 slots of 16 bits.
const MAX_PACKED_DELTA: usize = 8;

/// A violation found by the validator. Mirrors
/// [`SolutionError`](lcl_core::SolutionError) with flat node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The label slice covers a different number of nodes than the tree.
    WrongSize {
        /// Number of nodes in the tree.
        expected: usize,
        /// Number of labels supplied.
        found: usize,
    },
    /// A node carries a label outside the problem's active set Σ.
    InactiveLabel {
        /// The offending node.
        node: u32,
        /// The label it carries.
        label: Label,
    },
    /// A node with exactly δ children does not form an allowed configuration
    /// with them.
    ForbiddenConfiguration {
        /// The constrained (parent) node.
        node: u32,
    },
}

impl ValidationError {
    /// The node the violation anchors to, or `None` for `WrongSize`, which
    /// concerns the labeling as a whole rather than any node.
    pub fn node(&self) -> Option<u32> {
        match self {
            ValidationError::WrongSize { .. } => None,
            ValidationError::InactiveLabel { node, .. } => Some(*node),
            ValidationError::ForbiddenConfiguration { node } => Some(*node),
        }
    }
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::WrongSize { expected, found } => {
                write!(
                    f,
                    "labeling covers {found} nodes but the tree has {expected}"
                )
            }
            ValidationError::InactiveLabel { node, label } => {
                write!(
                    f,
                    "node v{node} carries label {label} outside the active set"
                )
            }
            ValidationError::ForbiddenConfiguration { node } => {
                write!(
                    f,
                    "node v{node} and its children form a forbidden configuration"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A reusable, thread-safe checker for one problem. See the module docs.
#[derive(Debug, Clone)]
pub struct LabelingValidator {
    delta: usize,
    active: LabelSet,
    /// Indexed by parent label: the sorted packed child multisets (δ ≤ 8).
    packed: Vec<Vec<u128>>,
    /// Indexed by parent label: the sorted unpacked child multisets (δ > 8).
    unpacked: Vec<Vec<Vec<u16>>>,
}

impl LabelingValidator {
    /// Builds the dense parent-indexed tables for `problem`.
    pub fn new(problem: &LclProblem) -> Self {
        let num_alphabet = problem.alphabet().len();
        let delta = problem.delta();
        let mut packed = vec![Vec::new(); num_alphabet];
        let mut unpacked = vec![Vec::new(); num_alphabet];
        for c in problem.configurations() {
            if delta <= MAX_PACKED_DELTA {
                // Configuration children are already in canonical sorted order.
                let mut key = 0u128;
                for &child in c.children() {
                    key = (key << 16) | child.0 as u128;
                }
                packed[c.parent().index()].push(key);
            } else {
                unpacked[c.parent().index()].push(c.children().iter().map(|l| l.0).collect());
            }
        }
        for rows in &mut packed {
            rows.sort_unstable();
            rows.dedup();
        }
        for rows in &mut unpacked {
            rows.sort_unstable();
            rows.dedup();
        }
        LabelingValidator {
            delta,
            active: problem.labels(),
            packed,
            unpacked,
        }
    }

    /// The δ of the underlying problem.
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Checks node `v` of `tree` under `labels`. Allocation-free.
    #[inline]
    fn check_node(&self, tree: &FlatTree, labels: &[Label], v: u32) -> Result<(), ValidationError> {
        let label = labels[v as usize];
        if !self.active.contains(label) {
            return Err(ValidationError::InactiveLabel { node: v, label });
        }
        let children = tree.children(v);
        if children.len() != self.delta {
            // Unconstrained: leaf of a full δ-ary tree, or irregular node.
            return Ok(());
        }
        let allowed = if self.delta <= MAX_PACKED_DELTA {
            let mut sorted = [0u16; MAX_PACKED_DELTA];
            for (slot, &c) in sorted.iter_mut().zip(children) {
                *slot = labels[c as usize].0;
            }
            // Insertion sort: δ ≤ 8 elements, branch-friendly, on the stack.
            for i in 1..self.delta {
                let mut j = i;
                while j > 0 && sorted[j - 1] > sorted[j] {
                    sorted.swap(j - 1, j);
                    j -= 1;
                }
            }
            let mut key = 0u128;
            for &c in &sorted[..self.delta] {
                key = (key << 16) | c as u128;
            }
            self.packed[label.index()].binary_search(&key).is_ok()
        } else {
            let mut sorted: Vec<u16> = children.iter().map(|&c| labels[c as usize].0).collect();
            sorted.sort_unstable();
            self.unpacked[label.index()].binary_search(&sorted).is_ok()
        };
        if allowed {
            Ok(())
        } else {
            Err(ValidationError::ForbiddenConfiguration { node: v })
        }
    }

    /// Validates `labels` (one label per node id) against the problem on
    /// `tree`, sequentially. Returns the lowest-numbered violation.
    pub fn validate(&self, tree: &FlatTree, labels: &[Label]) -> Result<(), ValidationError> {
        if labels.len() != tree.len() {
            return Err(ValidationError::WrongSize {
                expected: tree.len(),
                found: labels.len(),
            });
        }
        for v in 0..tree.len() as u32 {
            self.check_node(tree, labels, v)?;
        }
        Ok(())
    }

    /// Validates `labels` on the node-id range `range` only — the restriction
    /// the parallel validator applies per shard, exposed so incremental
    /// repair can prove a dirty region correct without paying for the whole
    /// tree. Checks each node of the range against its (full) child multiset,
    /// so the caller must include the *parents* of relabeled nodes in the
    /// range. Sequential and allocation-free below two shard widths; larger
    /// ranges delegate to the sharded path over the restricted range.
    ///
    /// The verdict is range-local: nodes outside `range` are not checked
    /// (except as children of ranged nodes). `WrongSize` still covers the
    /// whole labeling.
    pub fn validate_range(
        &self,
        tree: &FlatTree,
        labels: &[Label],
        range: std::ops::Range<u32>,
    ) -> Result<(), ValidationError> {
        if labels.len() != tree.len() {
            return Err(ValidationError::WrongSize {
                expected: tree.len(),
                found: labels.len(),
            });
        }
        let range = range.start..range.end.min(tree.len() as u32);
        if range.len() < 2 * 4096 {
            for v in range {
                self.check_node(tree, labels, v)?;
            }
            return Ok(());
        }
        let workers = std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1)
            .min(range.len().div_ceil(4096))
            .max(1);
        let chunk = range.len().div_ceil(workers);
        let mut verdicts: Vec<Option<ValidationError>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = range.start + (w * chunk) as u32;
                    let hi = (lo.saturating_add(chunk as u32)).min(range.end);
                    scope.spawn(move || {
                        (lo..hi).find_map(|v| self.check_node(tree, labels, v).err())
                    })
                })
                .collect();
            verdicts = handles
                .into_iter()
                .map(|h| h.join().expect("validator worker panicked"))
                .collect();
        });
        match verdicts.into_iter().flatten().next() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Validates `labels` against the problem on `tree`, sharding the node
    /// range over `std::thread::scope` workers (one per available core, capped
    /// by the shard count that keeps shards ≥ 4096 nodes). The verdict is the
    /// same as [`Self::validate`]: the lowest-numbered violation, regardless
    /// of how many workers ran.
    pub fn validate_parallel(
        &self,
        tree: &FlatTree,
        labels: &[Label],
    ) -> Result<(), ValidationError> {
        if labels.len() != tree.len() {
            return Err(ValidationError::WrongSize {
                expected: tree.len(),
                found: labels.len(),
            });
        }
        let n = tree.len();
        let workers = std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1)
            .min(n.div_ceil(4096))
            .max(1);
        if workers == 1 {
            return self.validate(tree, labels);
        }
        let chunk = n.div_ceil(workers);
        let mut verdicts: Vec<Option<ValidationError>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = (w * chunk) as u32;
                    let hi = (((w + 1) * chunk).min(n)) as u32;
                    scope.spawn(move || {
                        (lo..hi).find_map(|v| self.check_node(tree, labels, v).err())
                    })
                })
                .collect();
            verdicts = handles
                .into_iter()
                .map(|h| h.join().expect("validator worker panicked"))
                .collect();
        });
        // Shards are in ascending node order, so the first shard with a
        // violation holds the lowest-numbered one.
        match verdicts.into_iter().flatten().next() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_coloring() -> LclProblem {
        "1:22\n2:11\n".parse().unwrap()
    }

    fn parity_labels(tree: &FlatTree, even: Label, odd: Label) -> Vec<Label> {
        tree.depths()
            .iter()
            .map(|&d| if d % 2 == 0 { even } else { odd })
            .collect()
    }

    #[test]
    fn accepts_valid_parity_coloring() {
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        let validator = LabelingValidator::new(&p);
        let tree = FlatTree::random_full(2, 501, 3);
        let labels = parity_labels(&tree, one, two);
        validator.validate(&tree, &labels).unwrap();
        validator.validate_parallel(&tree, &labels).unwrap();
    }

    #[test]
    fn rejects_flipped_label_at_lowest_node() {
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        let validator = LabelingValidator::new(&p);
        let tree = FlatTree::random_full(2, 501, 3);
        let mut labels = parity_labels(&tree, one, two);
        // Flip a mid-tree node: its parent's configuration breaks (and its
        // own, if internal).
        labels[137] = if labels[137] == one { two } else { one };
        let seq = validator.validate(&tree, &labels).unwrap_err();
        let par = validator.validate_parallel(&tree, &labels).unwrap_err();
        assert_eq!(seq, par, "parallel verdict must be deterministic");
        assert!(matches!(
            seq,
            ValidationError::ForbiddenConfiguration { .. }
        ));
    }

    #[test]
    fn validate_range_agrees_with_full_validate() {
        use lcl_rand::SplitMix64;
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        let validator = LabelingValidator::new(&p);
        let mut rng = SplitMix64::seed_from_u64(42);
        for seed in 0..6u64 {
            let tree = FlatTree::random_full(2, 801, seed);
            let mut labels = parity_labels(&tree, one, two);
            // Corrupt a random node half the time.
            let corrupted = if seed % 2 == 0 {
                let v = rng.gen_index(tree.len());
                labels[v] = if labels[v] == one { two } else { one };
                Some(v as u32)
            } else {
                None
            };
            let full = validator.validate(&tree, &labels);
            let whole = validator.validate_range(&tree, &labels, 0..tree.len() as u32);
            assert_eq!(full, whole, "whole-tree range must match validate");
            if let Some(v) = corrupted {
                // A range that covers the corrupted node and its parent must
                // reject; a range strictly before both must accept.
                let parent = tree.parent(v).unwrap_or(v);
                let lo = parent.min(v);
                assert!(validator
                    .validate_range(&tree, &labels, lo..tree.len() as u32)
                    .is_err());
                if lo > 0 {
                    validator.validate_range(&tree, &labels, 0..lo).unwrap();
                }
            }
            // Ranges past the end clamp; empty ranges accept.
            validator
                .validate_range(&tree, &labels, tree.len() as u32..u32::MAX)
                .unwrap();
        }
        // Large even tree exercises the sharded path of validate_range.
        let tree = FlatTree::random_full(2, 40_001, 9);
        let labels = parity_labels(&tree, one, two);
        validator
            .validate_range(&tree, &labels, 0..tree.len() as u32)
            .unwrap();
        let mut labels = labels;
        labels[33_333] = if labels[33_333] == one { two } else { one };
        assert_eq!(
            validator
                .validate_range(&tree, &labels, 0..tree.len() as u32)
                .unwrap_err(),
            validator.validate(&tree, &labels).unwrap_err(),
            "sharded range verdict must match the sequential one"
        );
    }

    #[test]
    fn rejects_inactive_label() {
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        let validator = LabelingValidator::new(&p);
        let tree = FlatTree::balanced(2, 3);
        let mut labels = parity_labels(&tree, one, two);
        labels[0] = Label(99);
        assert_eq!(
            validator.validate(&tree, &labels).unwrap_err(),
            ValidationError::InactiveLabel {
                node: 0,
                label: Label(99)
            }
        );
        // An inactive label deeper in the tree may surface as the parent's
        // forbidden configuration first (the scan is a single per-node pass);
        // the verdict is still a rejection.
        let mut labels = parity_labels(&tree, one, two);
        labels[5] = Label(99);
        assert!(validator.validate(&tree, &labels).is_err());
    }

    #[test]
    fn rejects_wrong_size() {
        let p = two_coloring();
        let validator = LabelingValidator::new(&p);
        let tree = FlatTree::balanced(2, 2);
        let err = validator.validate(&tree, &[]).unwrap_err();
        assert!(matches!(err, ValidationError::WrongSize { .. }));
        let err = validator.validate_parallel(&tree, &[]).unwrap_err();
        assert!(matches!(err, ValidationError::WrongSize { .. }));
    }

    #[test]
    fn irregular_nodes_are_unconstrained() {
        // A node with 1 child under δ = 2 is unconstrained, as in the
        // reference checker.
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let tree = FlatTree::balanced(1, 1);
        let validator = LabelingValidator::new(&p);
        validator.validate(&tree, &[one, one]).unwrap();
    }

    #[test]
    fn agrees_with_reference_checker_on_random_labelings() {
        // Differential test against Labeling::verify over random labelings of
        // random trees: identical accept/reject verdicts.
        use lcl_core::Labeling;
        use lcl_rand::SplitMix64;
        let problems: Vec<LclProblem> = [
            "1:22\n2:11\n",
            "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
            "1:aa\n1:ab\n1:bb\na:bb\nb:b1\nb:11\n",
            "a : b\nb : a\n",
        ]
        .iter()
        .map(|t| t.parse().unwrap())
        .collect();
        let mut rng = SplitMix64::seed_from_u64(77);
        for p in &problems {
            let validator = LabelingValidator::new(p);
            let active: Vec<Label> = p.labels().iter().collect();
            for seed in 0..8 {
                let flat = FlatTree::random_full(p.delta(), 41, seed);
                let labels: Vec<Label> = (0..flat.len())
                    .map(|_| active[rng.gen_index(active.len())])
                    .collect();
                let reference = Labeling::from_labels(&labels).verify(&flat, p);
                let ours = validator.validate(&flat, &labels);
                let ours_par = validator.validate_parallel(&flat, &labels);
                assert_eq!(reference.is_ok(), ours.is_ok(), "{p} seed {seed}");
                assert_eq!(ours, ours_par, "{p} seed {seed}");
            }
        }
    }

    #[test]
    fn validates_million_node_tree() {
        let p = two_coloring();
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        let validator = LabelingValidator::new(&p);
        let tree = FlatTree::random_full(2, 1_000_000, 1);
        assert!(tree.len() >= 1_000_000);
        let labels = parity_labels(&tree, one, two);
        validator.validate_parallel(&tree, &labels).unwrap();
    }
}
