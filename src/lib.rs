//! `rooted-tree-lcl` — a reproduction of *Locally Checkable Problems in Rooted
//! Trees* (Balliu, Brandt, Chang, Olivetti, Studený, Suomela, Tereshchenko;
//! PODC 2021).
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`core`] (`lcl-core`) — the problem formalism, path-form automata,
//!   certificates, and the four-class complexity classifier;
//! * [`problems`] (`lcl-problems`) — the catalog of the paper's sample problems;
//! * [`trees`] (`lcl-trees`) — CSR rooted trees, streaming generators, dynamic
//!   edits, lower-bound constructions, rake-and-compress;
//! * [`sim`] (`lcl-sim`) — the synchronous LOCAL/CONGEST simulator;
//! * [`algorithms`] (`lcl-algorithms`) — the certificate-driven solvers;
//! * [`verify`] (`lcl-verify`) — the parallel labeling validator and the
//!   classifier-vs-solver differential fuzzing oracle;
//! * [`serve`] (`lcl-serve`) — the fault-tolerant `rtlcl serve` HTTP/JSON
//!   daemon: one warm engine, bounded queues, deadlines, crash-safe snapshot
//!   flush.
//!
//! # Quickstart
//!
//! ```
//! use rooted_tree_lcl::prelude::*;
//!
//! // Classify the maximal independent set problem of Section 1.3 …
//! let problem = rooted_tree_lcl::problems::mis::mis_binary();
//! let report = classify(&problem);
//! assert_eq!(report.complexity, Complexity::Constant);
//!
//! // … and solve it on a random full binary tree with the optimal algorithm.
//! let tree = FlatTree::random_full(2, 501, 7);
//! let ids = IdAssignment::sequential_len(tree.len());
//! let mut scratch = SolveScratch::new();
//! let outcome = solve_flat(&problem, &report, &tree, &tree.level_index(), &ids, &mut scratch)
//!     .unwrap();
//! LabelingValidator::new(&problem)
//!     .validate_parallel(&tree, &outcome.labels)
//!     .unwrap();
//! ```

#![forbid(unsafe_code)]

pub use lcl_algorithms as algorithms;
pub use lcl_core as core;
pub use lcl_problems as problems;
pub use lcl_serve as serve;
pub use lcl_sim as sim;
pub use lcl_trees as trees;
pub use lcl_verify as verify;

/// The most commonly used items, re-exported for convenience.
pub mod prelude {
    pub use lcl_algorithms::{solve_flat, FlatOutcome, RoundReport, SolveError, SolveScratch};
    pub use lcl_core::{
        classify, ClassificationEngine, ClassificationReport, Complexity, Label, LabelSet,
        Labeling, LclProblem, LogStarCertificate,
    };
    pub use lcl_sim::IdAssignment;
    pub use lcl_trees::FlatTree;
    pub use lcl_verify::{fuzz_classifier_vs_solvers, FuzzReport, LabelingValidator};
}
