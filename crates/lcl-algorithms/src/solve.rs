//! The round accounting every solver reports, the errors of
//! [`solve_flat`](crate::solve_flat), and the tables the flat solvers share.

use std::borrow::Cow;

use lcl_core::{Label, LclProblem, PolyCertificate};

/// Itemized round accounting of one solver run. The `measured` flag of each phase
/// records whether the count was obtained by actually running / measuring that phase
/// (Cole–Vishkin rounds, rake-and-compress layer counts, recursion depths) or charged
/// as the constant derived in the paper's analysis.
///
/// Phase names are `Cow<'static, str>`: every fixed phase name is a borrowed
/// `&'static str`, so recording a phase on the solve hot path allocates
/// nothing (only the Π_k solver's per-iteration labels are owned strings).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundReport {
    phases: Vec<(Cow<'static, str>, usize, bool)>,
}

impl RoundReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a measured phase.
    pub fn measured(&mut self, name: impl Into<Cow<'static, str>>, rounds: usize) -> &mut Self {
        self.phases.push((name.into(), rounds, true));
        self
    }

    /// Adds a phase charged with the constant round cost from the paper's analysis.
    pub fn charged(&mut self, name: impl Into<Cow<'static, str>>, rounds: usize) -> &mut Self {
        self.phases.push((name.into(), rounds, false));
        self
    }

    /// Total number of rounds over all phases.
    pub fn total(&self) -> usize {
        self.phases.iter().map(|(_, r, _)| r).sum()
    }

    /// The individual phases: `(name, rounds, measured)`.
    pub fn phases(&self) -> &[(Cow<'static, str>, usize, bool)] {
        &self.phases
    }

    /// A one-line summary such as `17 rounds (CV coloring: 5*, splitting: 12)`;
    /// measured phases are marked with `*`.
    pub fn summary(&self) -> String {
        let items: Vec<String> = self
            .phases
            .iter()
            .map(|(name, rounds, measured)| {
                format!("{name}: {rounds}{}", if *measured { "*" } else { "" })
            })
            .collect();
        format!("{} rounds ({})", self.total(), items.join(", "))
    }
}

/// Errors returned by [`solve_flat`](crate::solve_flat).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The problem is unsolvable on deep trees.
    Unsolvable,
    /// A certificate needed by the selected solver could not be materialized within
    /// the configured size budget.
    CertificateTooLarge(String),
    /// The solver could not complete the labeling (indicates an internal bug; never
    /// expected on correctly classified problems).
    Internal(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Unsolvable => write!(f, "the problem is unsolvable"),
            SolveError::CertificateTooLarge(e) => write!(f, "certificate too large: {e}"),
            SolveError::Internal(e) => write!(f, "internal solver error: {e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The exact ceiling k-th root: the smallest `t ≥ 1` with `t^k ≥ n`.
///
/// The partition solvers use this as the subtree-size threshold `n^{1/k}`; a
/// floating-point `(n as f64).powf(1.0 / k)` can round the wrong way near
/// exact powers for large `n` (53-bit mantissa), which would shift every
/// iteration's B/X boundary. Powers are computed in `u128` with saturation,
/// so the binary search is exact for every `usize` input.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn ceil_nth_root(n: usize, k: usize) -> usize {
    assert!(k >= 1, "k-th roots need k >= 1");
    if n <= 1 {
        return 1;
    }
    if k == 1 {
        return n;
    }
    let pow_at_least = |t: u128| -> bool {
        let mut acc: u128 = 1;
        for _ in 0..k {
            acc = acc.saturating_mul(t);
            if acc >= n as u128 {
                return true;
            }
        }
        acc >= n as u128
    };
    let (mut lo, mut hi) = (1usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pow_at_least(mid as u128) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The 16-symbol output table (4) of the paper for the 4-round MIS algorithm of
/// Section 1.3 and Figure 1, indexed by the 4-bit port code.
pub const MIS_TABLE: [char; 16] = [
    'b', '1', 'a', 'b', 'b', 'b', '1', 'b', 'b', '1', '1', 'b', 'b', 'b', '1', 'b',
];

/// Membership in the Lemma 8.1 partition
/// `V = B₁ ∪ X₁ ∪ B₂ ∪ X₂ ∪ … ∪ X_{k−1} ∪ B_k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// `B_i`: components that are properly 2-coloured with `{a_i, b_i}`.
    B(usize),
    /// `X_i`: separator nodes labeled `x_i`.
    X(usize),
}

/// Resolves the Π_k part labels once per solve: `x_1 … x_{k−1}` (separators
/// exist only below level k) and `(a_i, b_i)` for `i = 1 … k` — so the
/// per-node labeling loop never formats a label name.
///
/// # Panics
///
/// Panics if `problem` is missing one of the Π_k labels.
pub(crate) fn pi_k_part_labels(
    problem: &LclProblem,
    k: usize,
) -> (Vec<Label>, Vec<(Label, Label)>) {
    let label = |name: &str| {
        problem
            .label_by_name(name)
            .unwrap_or_else(|| panic!("Π_k problem is missing label {name}"))
    };
    let x_labels = (1..k).map(|i| label(&format!("x{i}"))).collect();
    let ab_labels = (1..=k)
        .map(|i| (label(&format!("a{i}")), label(&format!("b{i}"))))
        .collect();
    (x_labels, ab_labels)
}

/// Membership in the generalized certificate-driven partition: `Rake(i)` holds
/// the ≤ n^{1/k}-node subtrees peeled off at iteration `i` (labeled within the
/// certificate's level-`i` set `S_i`), `Chain(i)` the long one-child runs
/// completed by flexibility walks inside the level's flexible SCC `C_i`, and
/// `Core` the remainder after `k − 1` iterations (labeled within `S_k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolyPart {
    /// A small-subtree node removed at iteration `i` (1-based).
    Rake(usize),
    /// A long-run node removed at iteration `i` (1-based).
    Chain(usize),
    /// A survivor of all `k − 1` iterations.
    Core,
}

/// The algorithm tag of the generalized partition solver.
pub(crate) const POLY_ALGORITHM: &str = "generalized B/X partition (exact exponent certificate)";

/// Builds the round report of the generalized partition solver from the
/// maximal rake-piece and core-component depths (in nodes).
///
/// Round accounting: `k − 1` measured subtree-size explorations of ≤ n^{1/k}
/// levels each, a charged constant per iteration for the ruling-set chain
/// completion, and the measured maximal rake-piece and core-component depths
/// (≤ n^{1/k} and O(n^{1/k}) respectively) — in total O(n^{1/k}).
pub(crate) fn poly_rounds(
    iteration_depths: &[usize],
    cert: &PolyCertificate,
    rake_depth: usize,
    core_depth: usize,
) -> RoundReport {
    let mut rounds = RoundReport::new();
    for (i, depth) in iteration_depths.iter().enumerate() {
        rounds.measured(
            format!("iteration {} subtree-size exploration", i + 1),
            *depth,
        );
    }
    if cert.exponent() > 1 {
        let ruling: usize = cert.levels[..cert.exponent() - 1]
            .iter()
            .map(|level| 2 * level.chain_threshold + 2)
            .sum();
        rounds.charged("chain completion via ruling sets", ruling);
        rounds.measured("rake completion (max rake piece depth)", rake_depth);
    }
    rounds.measured("core completion (max core component depth)", core_depth);
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{solve_flat, FlatOutcome, SolveScratch};
    use lcl_core::{classify, Labeling};
    use lcl_sim::IdAssignment;
    use lcl_trees::FlatTree;

    /// Runs the dispatcher on `tree` and checks the labeling with the
    /// reference checker.
    fn solve_and_verify(
        problem: &LclProblem,
        tree: &FlatTree,
        ids: &IdAssignment,
    ) -> Result<FlatOutcome, SolveError> {
        let report = classify(problem);
        let idx = tree.level_index();
        let outcome = solve_flat(problem, &report, tree, &idx, ids, &mut SolveScratch::new())?;
        Labeling::from_labels(&outcome.labels)
            .verify(tree, problem)
            .unwrap_or_else(|e| panic!("{problem}: invalid solution: {e}"));
        Ok(outcome)
    }

    #[test]
    fn round_report_accounting() {
        let mut report = RoundReport::new();
        report.measured("coloring", 5).charged("completion", 7);
        assert_eq!(report.total(), 12);
        assert_eq!(report.phases().len(), 2);
        let summary = report.summary();
        assert!(summary.contains("12 rounds"));
        assert!(summary.contains("coloring: 5*"));
        assert!(summary.contains("completion: 7"));
    }

    #[test]
    fn solve_dispatches_for_every_class() {
        let problems = [
            (
                "1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n",
                "O(1)",
            ),
            (
                "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
                "log*",
            ),
            ("1 : 1 2\n2 : 1 1\n", "log"),
            ("1:22\n2:11\n", "poly"),
        ];
        let tree = FlatTree::random_full(2, 301, 11);
        let ids = IdAssignment::random_permutation_len(tree.len(), 5);
        for (text, class) in problems {
            let problem: LclProblem = text.parse().unwrap();
            assert_eq!(classify(&problem).complexity.short_name(), class);
            let outcome = solve_and_verify(&problem, &tree, &ids).unwrap();
            assert!(outcome.rounds.total() > 0);
        }
    }

    #[test]
    fn solve_routes_the_polynomial_class_to_the_partition_solver() {
        let problem: LclProblem = "1:22\n2:11\n".parse().unwrap();
        let tree = FlatTree::random_full(2, 501, 3);
        let ids = IdAssignment::sequential_len(tree.len());
        let outcome = solve_and_verify(&problem, &tree, &ids).unwrap();
        assert_eq!(outcome.algorithm, POLY_ALGORITHM);
    }

    #[test]
    fn solve_rejects_unsolvable_problems() {
        let problem: LclProblem = "a : b b\nb : c c\n".parse().unwrap();
        let tree = FlatTree::balanced(2, 4);
        let ids = IdAssignment::sequential_len(tree.len());
        let err = solve_and_verify(&problem, &tree, &ids).unwrap_err();
        assert_eq!(err, SolveError::Unsolvable);
    }

    #[test]
    fn ceil_nth_root_boundary_values() {
        // Exact powers map to their root; one more tips over to root + 1.
        for t in [1usize, 2, 3, 10, 31, 1000, 65_536] {
            for k in 1..=4 {
                let n = (t as u128).pow(k as u32);
                if n <= usize::MAX as u128 {
                    let n = n as usize;
                    assert_eq!(ceil_nth_root(n, k), t, "n = {n}, k = {k}");
                    if t > 1 && k > 1 {
                        assert_eq!(ceil_nth_root(n - 1, k), t, "n = {}, k = {k}", n - 1);
                        assert_eq!(ceil_nth_root(n + 1, k), t + 1, "n = {}, k = {k}", n + 1);
                    }
                }
            }
        }
        // Degenerate inputs.
        assert_eq!(ceil_nth_root(0, 3), 1);
        assert_eq!(ceil_nth_root(1, 7), 1);
        assert_eq!(ceil_nth_root(usize::MAX, 1), usize::MAX);
        // Large exact cubes near the f64 mantissa limit, where
        // `(n as f64).powf(1.0 / 3.0)` rounding is untrustworthy.
        for t in [1_000_003usize, 2_097_151, 2_642_245] {
            let n = t * t * t;
            assert_eq!(ceil_nth_root(n, 3), t);
            assert_eq!(ceil_nth_root(n + 1, 3), t + 1);
        }
        // Huge k saturates cleanly.
        assert_eq!(ceil_nth_root(usize::MAX, 200), 2);
    }
}
