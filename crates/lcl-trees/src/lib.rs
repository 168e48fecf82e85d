//! Rooted-tree substrate for the `rooted-tree-lcl` reproduction of
//! *Locally Checkable Problems in Rooted Trees* (PODC 2021).
//!
//! This crate is purely structural: it knows nothing about LCL problems or labels.
//! It provides
//!
//! * the compressed-sparse-row rooted tree every production path builds, with
//!   streaming million-node generators (balanced, random full δ-ary, hairy
//!   paths) and a precomputed level index for level-synchronous passes
//!   ([`flat`]: [`FlatTree`], [`LevelIndex`]),
//! * its mutable layer for subtree attach/detach edits ([`dynamic`]),
//! * the lower-bound constructions of Section 5.4 ([`lower_bound`]:
//!   the bipolar trees `T^x_k` and their concatenations `T^x_{i←j}`),
//! * the rake-and-compress partition `RCP(p)` of Definition 5.8 ([`rcp`]).
//!
//! Node ids are dense `u32`s in creation order; the children of a node are
//! stored in port order. The arena tree, its generators and its traversals
//! are test oracles behind the `reference` feature.
//!
//! # Example
//!
//! ```
//! use lcl_trees::FlatTree;
//!
//! // A full binary tree of depth 3: 15 nodes, 7 internal.
//! let tree = FlatTree::balanced(2, 3);
//! assert_eq!(tree.len(), 15);
//! assert!(tree.is_full_dary(2));
//! assert_eq!(tree.height(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod flat;
#[cfg(any(test, feature = "reference"))]
pub mod generators;
pub mod lower_bound;
pub mod rcp;
#[cfg(any(test, feature = "reference"))]
pub mod traversal;
#[cfg(any(test, feature = "reference"))]
pub mod tree;

pub use dynamic::{DynamicTree, EditScriptGen, JournalOp, TreeEdit};
pub use flat::{FlatTree, LevelIndex};
pub use rcp::{rcp_partition_flat, FlatRcp};
#[cfg(any(test, feature = "reference"))]
pub use tree::{NodeId, RootedTree, TreeBuilder};
