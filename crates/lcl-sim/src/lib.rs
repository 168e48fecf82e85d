//! A synchronous LOCAL / CONGEST round simulator for rooted trees.
//!
//! The simulator runs a [`NodeProgram`] — the code of a single node — on every node
//! of a rooted tree in synchronous rounds, exactly as in the model description of
//! Section 4.2 of the paper: per round every node sends one (optional) message to
//! its parent and one to each child, receives the messages sent towards it in the
//! same round, updates its state, and may decide on its final output. The simulation
//! stops when every node has produced an output.
//!
//! The simulator tracks [`Metrics`]: the number of rounds, the number of messages,
//! and the maximum message size in bits, which is how CONGEST compliance
//! (O(log n)-bit messages) is audited by the experiments.
//!
//! ```
//! use lcl_sim::{programs, Simulator, IdAssignment};
//! use lcl_trees::FlatTree;
//!
//! let tree = FlatTree::balanced(2, 4);
//! let sim = Simulator::new(&tree, IdAssignment::sequential_len(tree.len()));
//! let (depths, metrics) = sim.run(&programs::DepthComputation);
//! assert_eq!(depths[tree.root() as usize], 0);
//! assert_eq!(metrics.rounds, 5); // the root's value reaches depth 4 in 5 rounds
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flat;
pub mod ids;
pub mod metrics;
pub mod node;
pub mod program;
pub mod programs;
pub mod runtime;
pub mod views;

pub use flat::{chain_color_reduction_flat, CvScratch};
pub use ids::IdAssignment;
pub use metrics::Metrics;
pub use node::NodeInfo;
pub use program::{broadcast, NodeProgram, RoundAction};
pub use runtime::Simulator;
