//! Differential verification for the rooted-tree LCL stack.
//!
//! The classifier (`lcl-core`) *decides* complexity classes; the solvers
//! (`lcl-algorithms`) *claim* to realize them. This crate is the machinery
//! that cross-checks the two at scale, in the spirit of the machine-checked
//! agreement used by "Efficient Classification of Locally Checkable Problems
//! in Regular Trees" (Balliu et al. 2022) and the automata-theoretic toolkit
//! of Chang–Studený–Suomela:
//!
//! * [`LabelingValidator`] — a parallel, allocation-free O(n) checker of
//!   complete labelings against a problem's dense parent-indexed
//!   configuration tables, sharding [`FlatTree`](lcl_trees::FlatTree) CSR
//!   arrays over `std::thread::scope` workers. Validates million-node trees
//!   in milliseconds; differentially tested against the reference checker
//!   [`Labeling::verify`](lcl_core::Labeling::verify) on small trees.
//! * [`fuzz_classifier_vs_solvers`] — the fuzzing oracle: random problems →
//!   classify → solve on random/balanced/hairy-path trees → validate, with
//!   every disagreement (solver failure on a solvable instance, invalid
//!   labeling, valid labeling for an "unsolvable" problem, checker
//!   disagreement, canonicalization mismatch) reported as a
//!   [`Discrepancy`].
//! * [`EditSession`] — the edit-batch step on one solved dynamic tree:
//!   seeded edits, identifier maintenance, label perturbations, incremental
//!   repair, and validation of the dirty ranges the repair reports.
//! * [`solve_checked`] — the seeded solve-then-validate step of `rtlcl solve`
//!   and the daemon's `/solve`.
//!
//! The CLI exposes them: `rtlcl verify` validates a labeling file,
//! `rtlcl fuzz` runs the oracle (CI runs a 200-iteration smoke fuzz on every
//! push), and `rtlcl solve --edits` drives an edit session.
//!
//! ```
//! use lcl_verify::{fuzz_classifier_vs_solvers, LabelingValidator};
//! use lcl_trees::FlatTree;
//!
//! // Validate a depth-parity 2-coloring of a 100k-node random binary tree.
//! let problem: lcl_core::LclProblem = "1:22\n2:11\n".parse().unwrap();
//! let one = problem.label_by_name("1").unwrap();
//! let two = problem.label_by_name("2").unwrap();
//! let tree = FlatTree::random_full(2, 100_000, 7);
//! let labels: Vec<_> = tree
//!     .depths()
//!     .into_iter()
//!     .map(|d| if d % 2 == 0 { one } else { two })
//!     .collect();
//! LabelingValidator::new(&problem)
//!     .validate_parallel(&tree, &labels)
//!     .unwrap();
//!
//! // A short oracle run: zero discrepancies expected.
//! assert!(fuzz_classifier_vs_solvers(1, 5).is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod session;
pub mod solve;
pub mod validator;

pub use fuzz::{fuzz_classifier_vs_solvers, Discrepancy, FuzzReport};
pub use session::{EditBatch, EditError, EditSession};
pub use solve::{solve_checked, CheckedSolve, SolveCheckError};
pub use validator::{LabelingValidator, ValidationError};
