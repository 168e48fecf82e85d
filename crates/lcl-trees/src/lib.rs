//! Rooted-tree substrate for the `rooted-tree-lcl` reproduction of
//! *Locally Checkable Problems in Rooted Trees* (PODC 2021).
//!
//! This crate is purely structural: it knows nothing about LCL problems or labels.
//! It provides
//!
//! * an arena-based rooted tree type ([`RootedTree`], [`NodeId`]),
//! * a flat compressed-sparse-row view with streaming million-node generators
//!   and a precomputed level index for level-synchronous passes
//!   ([`flat`]: [`FlatTree`], [`LevelIndex`]),
//! * traversal and measurement helpers ([`traversal`]),
//! * generators for the tree families used throughout the paper
//!   ([`generators`]: balanced and random full δ-ary trees, hairy paths),
//! * the lower-bound constructions of Section 5.4 ([`lower_bound`]:
//!   the bipolar trees `T^x_k` and their concatenations `T^x_{i←j}`),
//! * the rake-and-compress partition `RCP(p)` of Definition 5.8 ([`rcp`]).
//!
//! # Example
//!
//! ```
//! use lcl_trees::{generators, RootedTree};
//!
//! // A full binary tree of depth 3: 15 nodes, 7 internal.
//! let tree: RootedTree = generators::balanced(2, 3);
//! assert_eq!(tree.len(), 15);
//! assert!(tree.is_full_dary(2));
//! assert_eq!(tree.height(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod flat;
pub mod generators;
pub mod lower_bound;
pub mod rcp;
pub mod traversal;
pub mod tree;

pub use dynamic::{DynamicTree, EditScriptGen, JournalOp, TreeEdit};
pub use flat::{FlatTree, LevelIndex};
pub use rcp::{rcp_partition_flat, FlatRcp};
pub use tree::{NodeId, RootedTree, TreeBuilder};
