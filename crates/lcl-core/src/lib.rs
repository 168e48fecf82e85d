//! LCL problems on rooted regular trees and the PODC 2021 complexity classifier.
//!
//! This crate implements the primary contribution of *Locally Checkable Problems in
//! Rooted Trees* (Balliu, Brandt, Chang, Olivetti, Studený, Suomela, Tereshchenko;
//! PODC 2021):
//!
//! * the problem formalism Π = (δ, Σ, C) of Definition 4.1 ([`problem`], [`label`],
//!   [`configuration`], [`parser`]),
//! * the path-form and its automaton with flexibility analysis (Definitions 4.6–4.9,
//!   [`automaton`]),
//! * solution labelings and their verification (Definition 4.2, [`labeling`]),
//! * the certificate machinery and decision procedures:
//!   - Algorithms 1–2 and the certificate for O(log n) solvability (Section 5,
//!     [`log_certificate`]),
//!   - Algorithm 3, certificate builders, and uniform certificates for O(log* n)
//!     solvability (Section 6, [`builder`], [`certificate`], [`log_star`]),
//!   - Algorithm 5 and certificates for O(1) solvability (Section 7, [`constant`]),
//!   - the exact Θ(n^{1/k}) exponent of the polynomial region via the
//!     trim/flexible-SCC descent of Lemmas 5.28–5.29 ([`poly`]),
//! * the top-level classifier returning one of the four complexity classes,
//!   with the polynomial class carrying its exact exponent ([`classifier`]).
//!
//! # Hot-path representation: [`label_set::LabelSet`]
//!
//! Every decision procedure above is, at its core, a loop over label-set
//! operations (fixed points of continuations, flexibility pruning, subset
//! searches). Label sets are therefore `u128`-backed bitsets ([`LabelSet`]):
//! `Copy`, allocation-free, with O(1) union/intersection/subset/membership, and
//! iteration in ascending label order so output matches the former ordered-set
//! representation. Problems intern their configurations once at construction
//! into a dense, parent-indexed table with precomputed per-configuration label
//! sets ([`LclProblem`]), making "has a continuation within S" a few subset
//! tests. Code that wants an ordered `BTreeSet` converts with
//! [`LabelSet::to_btree`].
//!
//! # Zero-allocation decisions: [`scratch`]
//!
//! The decision-only path ([`classify_complexity`] /
//! [`classify_complexity_with`]) runs every stage — pruning fixed point, subset
//! searches, Algorithm 3 — on the parent problem's dense tables under a
//! [`LabelSet`] mask, with all mutable state in a reusable
//! [`scratch::ClassifyScratch`]. A cache-miss classification clones no problem
//! and materializes no restriction; see the [`scratch`] module docs for the
//! buffer contract. The report path ([`classify`]) runs the same decision and
//! extracts its certificate builders from the scratch, so Algorithm 3 runs
//! once per search either way.
//!
//! # Batch classification and sweeps: [`engine`]
//!
//! The [`engine::ClassificationEngine`] layers canonical-form memoization
//! (label-permutation-invariant keys), a parallel `classify_batch`, and a
//! resumable canonical-first [`engine::ClassificationEngine::sweep_resumable`]
//! driver on top of the classifier, opening the "sweep a whole problem family"
//! workload: see `lcl-problems::random` / `lcl-problems::canonical` for family
//! generators and the `rtlcl classify-batch` / `rtlcl sweep` subcommands for
//! the CLI entry points.
//!
//! # Quick example
//!
//! ```
//! use lcl_core::{classify, Complexity, LclProblem};
//!
//! // 3-coloring of rooted binary trees, Section 1.2 of the paper.
//! let problem: LclProblem = "\
//!     1 : 2 2\n1 : 2 3\n1 : 3 3\n\
//!     2 : 1 1\n2 : 1 3\n2 : 3 3\n\
//!     3 : 1 1\n3 : 1 2\n3 : 2 2\n"
//!     .parse()
//!     .unwrap();
//! let report = classify(&problem);
//! assert_eq!(report.complexity, Complexity::LogStar);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
pub mod bitslice;
pub mod builder;
pub mod certificate;
pub mod classifier;
pub mod configuration;
pub mod constant;
pub mod engine;
#[cfg(any(test, feature = "reference"))]
pub mod greedy;
pub mod label;
pub mod label_set;
pub mod labeling;
pub mod log_certificate;
pub mod log_star;
pub mod parser;
pub mod poly;
pub mod problem;
pub mod scratch;
pub mod snapshot;
pub mod solvability;

pub use automaton::Automaton;
pub use bitslice::{
    classify_block_sliced, BitSliceScratch, BlockStats, LaneVerdict, LaneWidth, LaneWord,
    SlicedUniverse, LANES,
};
pub use builder::{find_unrestricted_certificate, CertificateBuilder};
pub use certificate::{CertificateTree, ConstantCertificate, LogStarCertificate};
pub use classifier::{
    classify, classify_complexity, classify_complexity_with, classify_with_config,
    ClassificationReport, ClassifierConfig, Complexity,
};
pub use configuration::Configuration;
pub use constant::{find_constant_certificate, find_constant_certificate_within};
pub use engine::{
    canonical_form, CanonicalKey, ClassificationEngine, ComplexityHistogram, EngineStats,
    MaskBlock, OrbitProblem, SweepCheckpoint, SweepLaneStats, SweepOutcome,
};
pub use label::{Alphabet, Label};
pub use label_set::LabelSet;
pub use labeling::{Labeling, SolutionError};
pub use log_certificate::{find_log_certificate, LogCertificate, LogCertificateAnalysis};
pub use log_star::{
    find_log_star_certificate, find_log_star_certificate_within, MAX_SEARCH_LABELS,
};
pub use parser::ParseError;
pub use poly::{find_poly_certificate, PolyCertificate, PolyLevel};
pub use problem::LclProblem;
pub use scratch::ClassifyScratch;
pub use snapshot::{
    load_or_quarantine, EngineKind, LoadOutcome, MaskRange, SegmentEncoder, SnapshotError,
    SnapshotLayout, SnapshotWriter, SweepCursor, SweepSnapshot,
};
pub use solvability::solvable_labels;

/// Problem texts shared by the unit tests of several modules (the integration
/// tests under `tests/` carry their own copies — `tests/zero_alloc.rs` must
/// stay self-contained for its global-allocator isolation, and the workspace
/// tests go through `lcl_problems::extras`).
#[cfg(test)]
pub(crate) mod test_fixtures {
    /// The Section 8 construction with k = 2: an iterated 2-coloring whose
    /// pruning takes two iterations and whose exact exponent is 2 (Θ(√n)).
    /// The canonical constructor lives in `lcl_problems::extras::section_8_depth_two`.
    pub(crate) const SECTION_8_DEPTH_TWO: &str = "a1 : b1 b1\nb1 : a1 a1\n\
        a2 : b2 b2\na2 : a1 b1\na2 : a1 x1\na2 : b1 x1\na2 : a1 a1\na2 : b1 b1\na2 : x1 x1\n\
        b2 : a2 a2\nb2 : a1 b1\nb2 : a1 x1\nb2 : b1 x1\nb2 : a1 a1\nb2 : b1 b1\nb2 : x1 x1\n\
        x1 : a1 a1\nx1 : a1 b1\nx1 : b1 b1\nx1 : a2 a1\nx1 : a2 b1\nx1 : b2 a1\nx1 : b2 b1\nx1 : x1 a1\nx1 : x1 b1\n";
}
