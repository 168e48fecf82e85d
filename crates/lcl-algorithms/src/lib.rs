//! Distributed and centralized solvers for LCL problems on rooted regular trees.
//!
//! This crate implements the *constructive* side of the paper: the algorithms whose
//! existence the certificates of `lcl-core` witness. Each solver has one
//! implementation, a level-synchronous pass over the CSR trees of
//! [`lcl_trees::FlatTree`] in [`flat`]; [`solve_flat`] dispatches on the
//! complexity class.
//!
//! | Complexity class | Solver | Paper reference |
//! |---|---|---|
//! | O(1) | [`flat::solve_constant_flat`] (defective-colouring splitting from a certificate for O(1) solvability); [`flat::solve_mis_four_rounds_flat`] is the explicit 4-round MIS algorithm | Section 1.3, Theorem 7.2 |
//! | Θ(log* n) | [`flat::solve_log_star_flat`] (tree splitting driven by a uniform certificate) | Theorem 6.3 |
//! | Θ(log n) | [`flat::solve_log_flat`] (rake-and-compress driven by a certificate for O(log n) solvability) | Theorem 5.1 |
//! | Θ(n^{1/k}) | [`flat::solve_poly_flat`] (generalized B/X partition driven by the exact-exponent certificate); [`flat::solve_pi_k_flat`] is the Π_k special case | Section 5, Lemma 8.1 |
//! | Θ(n) baselines | [`flat::solve_greedy_flat`] (global greedy sweep, `rtlcl solve --baseline`) and [`flat::solve_by_depth_parity_flat`] (2-colouring) | Section 2.1.1 |
//!
//! ## Round accounting
//!
//! The asymptotically dominant phases are *measured*: the Cole–Vishkin colour
//! reduction rounds come from the identifier range, as the closed form
//! `ChainColorReduction::rounds(ids.id_bits())` of `lcl-sim` (no solver reads
//! the colours, so none runs the reduction; `lcl-sim`'s `tests/cv_rounds.rs`
//! pins the closed form equal to the rounds of the simulator run), the number
//! of rake-and-compress layers is computed from the actual input tree, and the
//! recursion depth of the Π_k partition is measured. Constant-round completion phases (certificate filling, ruling-set
//! chunk completion) are executed centrally and charged the constant round cost
//! derived in the paper; the [`RoundReport`] returned by every solver itemizes
//! both kinds of contributions so experiments can plot exactly what was measured.
//! The labelings produced are always full solutions and are validated with the
//! independent checker of `lcl-core`. The message-passing MIS program of
//! [`oracle`] is the LOCAL-model reference the 4-round solver is checked against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flat;
pub mod oracle;
pub mod repair;
pub mod solve;

pub use flat::{solve_flat, FlatOutcome, SolveScratch};
pub use repair::{
    repair_labeling, resolve_full, LabelPerturbation, RepairOutcome, RepairPlan, RepairScratch,
};
pub use solve::{ceil_nth_root, Part, PolyPart, RoundReport, SolveError, MIS_TABLE};
