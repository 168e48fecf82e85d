//! The top-level classifier: given a problem Π, decide whether its distributed
//! round complexity is O(1), Θ(log* n), Θ(log n), or n^{Θ(1)} (Sections 5–7).
//!
//! The decision combines the three certificate searches, exploiting the nesting of
//! the classes so that the cheap polynomial-time test (Algorithm 2) runs first and
//! the exponential ones (Algorithms 4 and 5) only run on problems already known to
//! be O(log n):
//!
//! 1. solvability (greatest fixed point of continuations) — otherwise `Unsolvable`;
//! 2. Algorithm 2 — no certificate ⇒ `Polynomial` with the *exact* exponent
//!    computed by the trim/flexible-SCC descent of Lemmas 5.28–5.29 (see the
//!    [`crate::poly`] module; the pruning iteration count of Theorem 5.2 is an
//!    upper bound on the exponent and stays available through the report);
//! 3. Algorithm 4 — no certificate ⇒ `Log` (Θ(log n), Theorem 5.1 + Lemma 6.7);
//! 4. Algorithm 5 — no certificate ⇒ `LogStar` (Θ(log* n), Theorem 6.3 +
//!    Theorem 7.7), otherwise `Constant` (Theorem 7.2).
//!
//! Each stage has one implementation, a masked kernel of [`crate::scratch`];
//! the full report runs the same kernels once each and reads its certificates
//! off those runs.

use std::fmt;

use crate::builder::CertificateBuildError;
use crate::certificate::{ConstantCertificate, LogStarCertificate};
use crate::constant::ConstantSearchResult;
use crate::label_set::LabelSet;
use crate::log_certificate::{extract_log_analysis, LogCertificate, LogCertificateAnalysis};
use crate::log_star::LogStarSearchResult;
use crate::poly::{poly_certificate_within, PolyCertificate};
use crate::problem::LclProblem;
use crate::scratch::{poly_exponent_masked, prune_fixpoint_masked, with_thread_scratch};
use crate::solvability::solvable_labels;

/// The four complexity classes of the paper, plus `Unsolvable` for problems that
/// admit no solution on deep trees at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Complexity {
    /// No labeling satisfies the constraints on sufficiently deep full δ-ary trees.
    Unsolvable,
    /// O(1) rounds (deterministic and randomized, LOCAL and CONGEST).
    Constant,
    /// Θ(log* n) rounds.
    LogStar,
    /// Θ(log n) rounds.
    Log,
    /// Θ(n^{1/k}) rounds for the recorded exponent `k`: both the O(n^{1/k})
    /// upper bound and the Ω(n^{1/k}) lower bound, witnessed by the maximal
    /// trim/flexible-SCC chain of [`crate::poly::PolyCertificate`].
    Polynomial {
        /// The exact exponent `k` of Θ(n^{1/k}); `k = 1` means Θ(n).
        exponent: usize,
    },
}

impl Complexity {
    /// `true` for every class that admits some algorithm (everything except
    /// [`Complexity::Unsolvable`]).
    pub fn is_solvable(self) -> bool {
        self != Complexity::Unsolvable
    }

    /// A short machine-friendly name for tables (`O(1)`, `log*`, `log`, `poly`,
    /// `unsolvable`).
    pub fn short_name(self) -> &'static str {
        match self {
            Complexity::Unsolvable => "unsolvable",
            Complexity::Constant => "O(1)",
            Complexity::LogStar => "log*",
            Complexity::Log => "log",
            Complexity::Polynomial { .. } => "poly",
        }
    }
}

impl fmt::Display for Complexity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Complexity::Unsolvable => write!(f, "unsolvable"),
            Complexity::Constant => write!(f, "O(1)"),
            Complexity::LogStar => write!(f, "Θ(log* n)"),
            Complexity::Log => write!(f, "Θ(log n)"),
            Complexity::Polynomial { exponent: 1 } => write!(f, "Θ(n)"),
            Complexity::Polynomial { exponent } => write!(f, "Θ(n^(1/{exponent}))"),
        }
    }
}

/// Tunable limits of the classifier. Only affects how large the *explicit*
/// certificate trees may grow when materialized; decisions are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassifierConfig {
    /// Maximum number of nodes per materialized certificate tree.
    pub max_certificate_nodes: usize,
}

impl Default for ClassifierConfig {
    fn default() -> Self {
        ClassifierConfig {
            max_certificate_nodes: 4_000_000,
        }
    }
}

/// The full outcome of classifying a problem: the complexity class plus every
/// certificate and trace the decision rests on.
#[derive(Debug, Clone)]
pub struct ClassificationReport {
    /// The problem that was classified.
    pub problem: LclProblem,
    /// The configuration the classifier ran with; certificate materialization
    /// through the report respects its limits.
    pub config: ClassifierConfig,
    /// The resulting complexity class.
    pub complexity: Complexity,
    /// The greatest self-sustaining label set (empty iff unsolvable).
    pub solvable_labels: LabelSet,
    /// Algorithm 2's analysis: pruning trace, fixed point, and (possibly) the
    /// certificate for O(log n) solvability.
    pub log_analysis: LogCertificateAnalysis,
    /// Algorithm 4's result, when a uniform certificate exists.
    pub log_star: Option<LogStarSearchResult>,
    /// Algorithm 5's result, when a certificate for O(1) solvability exists.
    pub constant: Option<ConstantSearchResult>,
    /// The exact-exponent certificate, present exactly when the class is
    /// [`Complexity::Polynomial`].
    pub poly: Option<PolyCertificate>,
}

impl ClassificationReport {
    /// The certificate for O(log n) solvability, if any.
    pub fn log_certificate(&self) -> Option<&LogCertificate> {
        self.log_analysis.certificate.as_ref()
    }

    /// The Θ(n^{1/k}) certificate (the maximal trim/flexible-SCC chain), if
    /// the problem is in the polynomial region.
    pub fn poly_certificate(&self) -> Option<&PolyCertificate> {
        self.poly.as_ref()
    }

    /// Materializes the uniform certificate for O(log* n) solvability, if any,
    /// bounded by the node budget of the report's [`ClassifierConfig`].
    pub fn log_star_certificate(
        &self,
    ) -> Option<Result<LogStarCertificate, CertificateBuildError>> {
        self.log_star
            .as_ref()
            .map(|r| r.materialize(self.config.max_certificate_nodes))
    }

    /// Materializes the certificate for O(1) solvability, if any, bounded by the
    /// node budget of the report's [`ClassifierConfig`].
    pub fn constant_certificate(
        &self,
    ) -> Option<Result<ConstantCertificate, CertificateBuildError>> {
        self.constant
            .as_ref()
            .map(|r| r.materialize(self.config.max_certificate_nodes))
    }

    /// A multi-line human-readable summary of the decision and its witnesses.
    pub fn describe(&self) -> String {
        let alphabet = self.problem.alphabet();
        let mut out = String::new();
        out.push_str(&format!(
            "problem: δ = {}, |Σ| = {}, |C| = {}\n",
            self.problem.delta(),
            self.problem.num_labels(),
            self.problem.num_configurations()
        ));
        out.push_str(&format!("complexity: {}\n", self.complexity));
        out.push_str(&format!(
            "solvable labels: {}\n",
            alphabet.format_set(self.solvable_labels)
        ));
        for (i, removed) in self.log_analysis.pruned_sets.iter().enumerate() {
            out.push_str(&format!(
                "pruning iteration {}: removed path-inflexible labels {}\n",
                i + 1,
                alphabet.format_set(*removed)
            ));
        }
        match self.log_certificate() {
            Some(cert) => out.push_str(&format!(
                "certificate for O(log n): Π_pf with labels {} ({} configurations), max flexibility {}\n",
                alphabet.format_set(cert.problem_pf.labels()),
                cert.problem_pf.num_configurations(),
                cert.max_flexibility
            )),
            None => out.push_str(&format!(
                "no certificate for O(log n): pruning lower bound Ω(n^(1/{}))\n",
                self.log_analysis.iterations().max(1)
            )),
        }
        if let Some(cert) = self.poly_certificate() {
            out.push_str(&format!(
                "exact exponent: Θ(n^(1/{})) via the trim/flexible-SCC chain\n",
                cert.exponent()
            ));
            for (i, level) in cert.levels.iter().enumerate() {
                if level.scc.is_empty() {
                    out.push_str(&format!(
                        "poly level {}: labels {} (no further flexible descent)\n",
                        i + 1,
                        alphabet.format_set(level.labels)
                    ));
                } else {
                    out.push_str(&format!(
                        "poly level {}: labels {}, flexible SCC {} (flexibility {}, chain threshold {})\n",
                        i + 1,
                        alphabet.format_set(level.labels),
                        alphabet.format_set(level.scc),
                        level.flexibility,
                        level.chain_threshold
                    ));
                }
            }
        }
        match &self.log_star {
            Some(r) => out.push_str(&format!(
                "certificate for O(log* n): labels {}\n",
                alphabet.format_set(r.certificate_labels)
            )),
            None if self.complexity == Complexity::Log => {
                out.push_str("no certificate for O(log* n): lower bound Ω(log n)\n")
            }
            None => {}
        }
        match &self.constant {
            Some(r) => out.push_str(&format!(
                "certificate for O(1): special configuration {}\n",
                r.special.display(alphabet)
            )),
            None if self.complexity == Complexity::LogStar => {
                out.push_str("no certificate for O(1): lower bound Ω(log* n)\n")
            }
            None => {}
        }
        out
    }
}

/// Classifies a problem with the default configuration. See the module
/// documentation for the decision procedure.
pub fn classify(problem: &LclProblem) -> ClassificationReport {
    classify_with_config(problem, &ClassifierConfig::default())
}

/// Decides only the complexity class, skipping everything a
/// [`ClassificationReport`] carries: no problem clones, no pruning trace, no
/// certificate construction (in particular none of the flexibility DPs that
/// building a [`LogCertificate`] runs). This is the batch hot path used by
/// [`crate::engine::ClassificationEngine`]; it always agrees with
/// [`classify`]`(problem).complexity`.
///
/// Runs on the calling thread's [`crate::scratch::ClassifyScratch`]; batch
/// workers that want explicit buffer ownership use
/// [`classify_complexity_with`].
pub fn classify_complexity(problem: &LclProblem) -> Complexity {
    with_thread_scratch(|scratch| classify_complexity_with(problem, scratch))
}

/// [`classify_complexity`] with an explicit scratch: the zero-allocation hot
/// path. Every stage works on the parent problem's dense tables under a
/// [`LabelSet`] mask — no `LclProblem` is cloned and no restriction is
/// materialized, for any candidate subset or pruning iteration (see the
/// `scratch` module docs for the contract, and `tests/zero_alloc.rs` for the
/// allocation-counter proof).
pub fn classify_complexity_with(
    problem: &LclProblem,
    scratch: &mut crate::scratch::ClassifyScratch,
) -> Complexity {
    let sustaining = solvable_labels(problem);
    if sustaining.is_empty() {
        return Complexity::Unsolvable;
    }
    let (fixpoint, iterations) = prune_fixpoint_masked(problem, scratch);
    if fixpoint.is_empty() {
        // The exponent never exceeds the pruning iteration count (every chain
        // level survives one more pruning round than the next), so a problem
        // whose labels all vanish in one iteration is exactly Θ(n) — the
        // common case in random families, decided without the exponent DFS.
        let exponent = if iterations <= 1 {
            1
        } else {
            poly_exponent_masked(problem, sustaining, scratch)
        };
        return Complexity::Polynomial { exponent };
    }
    if crate::log_star::decide_log_star_subset(problem, sustaining, scratch).is_none() {
        return Complexity::Log;
    }
    if crate::constant::decide_constant_subset(problem, sustaining, scratch).is_some() {
        Complexity::Constant
    } else {
        Complexity::LogStar
    }
}

/// Classifies a problem. The configuration is threaded into the report, where it
/// bounds certificate materialization; it cannot change the resulting class.
///
/// The report is the decision path plus extraction: the solvability fixed
/// point, the masked pruning loop, the exponent DFS and the subset searches
/// each run at most once, and every certificate is read off the run that
/// decided it. The problem is stored into the report through a single clone
/// at the end.
pub fn classify_with_config(
    problem: &LclProblem,
    config: &ClassifierConfig,
) -> ClassificationReport {
    let config = *config;
    let solvable = solvable_labels(problem);
    let (log_analysis, poly) = with_thread_scratch(|scratch| {
        let (fixpoint, iterations) = prune_fixpoint_masked(problem, scratch);
        let log_analysis = extract_log_analysis(problem, fixpoint, scratch);
        let poly = (!solvable.is_empty() && fixpoint.is_empty())
            .then(|| poly_certificate_within(problem, solvable, iterations, scratch));
        (log_analysis, poly)
    });
    let mut log_star = None;
    let mut constant = None;

    // The log* and O(1) searches borrow the thread scratch themselves.
    let complexity = if solvable.is_empty() {
        Complexity::Unsolvable
    } else if let Some(cert) = &poly {
        Complexity::Polynomial {
            exponent: cert.exponent(),
        }
    } else {
        log_star = crate::log_star::find_log_star_certificate_within(problem, solvable);
        if log_star.is_none() {
            Complexity::Log
        } else {
            constant = crate::constant::find_constant_certificate_within(problem, solvable);
            if constant.is_some() {
                Complexity::Constant
            } else {
                Complexity::LogStar
            }
        }
    };

    ClassificationReport {
        problem: problem.clone(),
        config,
        complexity,
        solvable_labels: solvable,
        log_analysis,
        log_star,
        constant,
        poly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify_text(text: &str) -> ClassificationReport {
        let p: LclProblem = text.parse().unwrap();
        classify(&p)
    }

    #[test]
    fn paper_example_three_coloring_is_log_star() {
        // Section 1.2, configurations (1).
        let report = classify_text("1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n");
        assert_eq!(report.complexity, Complexity::LogStar);
        assert!(report.log_star.is_some());
        assert!(report.constant.is_none());
    }

    #[test]
    fn paper_example_two_coloring_is_global() {
        // Section 1.2, configurations (2): Θ(n) = n^{Θ(1)} with k = 1.
        let report = classify_text("1:22\n2:11\n");
        assert_eq!(report.complexity, Complexity::Polynomial { exponent: 1 });
        let cert = report.poly_certificate().expect("polynomial certificate");
        cert.verify(&report.problem).unwrap();
    }

    #[test]
    fn paper_example_mis_is_constant() {
        // Section 1.3, configurations (3).
        let report = classify_text("1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n");
        assert_eq!(report.complexity, Complexity::Constant);
        let special = &report.constant.as_ref().unwrap().special;
        assert_eq!(special.display(report.problem.alphabet()), "b : 1 b");
    }

    #[test]
    fn paper_example_branch_two_coloring_is_log() {
        // Section 1.4, configurations (5).
        let report = classify_text("1 : 1 2\n2 : 1 1\n");
        assert_eq!(report.complexity, Complexity::Log);
        assert!(report.log_certificate().is_some());
        assert!(report.log_star.is_none());
    }

    #[test]
    fn figure_2_combination_is_log() {
        let report = classify_text("a : b b\nb : a a\n1 : 1 2\n2 : 1 1\n");
        assert_eq!(report.complexity, Complexity::Log);
        assert_eq!(report.log_analysis.iterations(), 1);
    }

    #[test]
    fn unsolvable_problem() {
        let report = classify_text("a : b b\nb : c c\n");
        assert_eq!(report.complexity, Complexity::Unsolvable);
        assert!(!report.complexity.is_solvable());
    }

    #[test]
    fn trivial_problem_is_constant() {
        let report = classify_text("x : x x\n");
        assert_eq!(report.complexity, Complexity::Constant);
    }

    #[test]
    fn describe_mentions_class_and_certificates() {
        let report = classify_text("1 : 1 2\n2 : 1 1\n");
        let text = report.describe();
        assert!(text.contains("Θ(log n)"));
        assert!(text.contains("certificate for O(log n)"));
        assert!(text.contains("no certificate for O(log* n)"));
    }

    #[test]
    fn certificates_materialize_from_report() {
        let report = classify_text("1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n");
        let log_star = report.log_star_certificate().unwrap().unwrap();
        log_star.verify(&report.problem).unwrap();
        let constant = report.constant_certificate().unwrap().unwrap();
        constant.verify(&report.problem).unwrap();
    }

    #[test]
    fn config_limits_apply_through_the_report() {
        // A tiny node budget makes materialization fail with TooLarge while the
        // decision itself is unaffected.
        let p: LclProblem = "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n"
            .parse()
            .unwrap();
        let tight = ClassifierConfig {
            max_certificate_nodes: 2,
        };
        let report = classify_with_config(&p, &tight);
        assert_eq!(report.complexity, Complexity::LogStar);
        assert_eq!(report.config, tight);
        let err = report.log_star_certificate().unwrap().unwrap_err();
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn display_of_complexities() {
        assert_eq!(Complexity::Constant.to_string(), "O(1)");
        assert_eq!(Complexity::LogStar.to_string(), "Θ(log* n)");
        assert_eq!(Complexity::Log.to_string(), "Θ(log n)");
        assert_eq!(
            Complexity::Polynomial { exponent: 2 }.to_string(),
            "Θ(n^(1/2))"
        );
        assert_eq!(Complexity::Polynomial { exponent: 1 }.to_string(), "Θ(n)");
        assert_eq!(Complexity::Unsolvable.to_string(), "unsolvable");
        assert_eq!(Complexity::Constant.short_name(), "O(1)");
        assert_eq!(Complexity::Log.short_name(), "log");
    }

    #[test]
    fn delta_one_path_problems() {
        // On directed paths (δ = 1): 3-coloring is Θ(log* n), 2-coloring is global.
        let three = classify_text("1:2\n1:3\n2:1\n2:3\n3:1\n3:2\n");
        assert_eq!(three.complexity, Complexity::LogStar);
        let two = classify_text("1:2\n2:1\n");
        assert_eq!(two.complexity, Complexity::Polynomial { exponent: 1 });
    }
}
