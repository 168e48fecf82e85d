//! Section 5: the super-logarithmic region.
//!
//! Algorithm 1 (`removePathInflexibleConfigurations`) and Algorithm 2
//! (`findLogCertificate`) together decide in polynomial time whether a
//! problem's round complexity is O(log n) or n^{Ω(1)} (Theorem 5.3). When a
//! certificate exists it is the restriction Π_pf of the problem to the labels of a
//! minimal absorbing subgraph of the pruned automaton; Theorem 5.1 turns it into an
//! O(log n) CONGEST algorithm (implemented in `lcl-algorithms`), and when it does
//! not exist the pruning sequence Σ₁, …, Σ_k witnesses an Ω(n^{1/k}) lower bound
//! (Theorem 5.2).
//!
//! The pruning loop has one implementation, the masked kernel
//! [`crate::scratch::prune_fixpoint_masked`], which records Σ₁, …, Σ_k in its
//! scratch. [`find_log_certificate`] is that run plus extraction: the trace is
//! read off the scratch, the fixed point is one restriction of the problem,
//! and Π_pf's flexibility comes from the masked `max_flexibility_masked`. The
//! `reference` module keeps the materializing loop as a test oracle.

use crate::automaton::Automaton;
use crate::label_set::LabelSet;
use crate::problem::LclProblem;
use crate::scratch::{
    max_flexibility_masked, prune_fixpoint_masked, with_thread_scratch, ClassifyScratch,
};

/// The certificate for O(log n) solvability produced by Algorithm 2: a non-empty
/// path-flexible restriction Π_pf whose automaton is strongly connected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogCertificate {
    /// The restriction Π_pf of the original problem to the labels of a minimal
    /// absorbing subgraph of the pruned automaton.
    pub problem_pf: LclProblem,
    /// The maximum flexibility (Definition 4.8) over the labels of Π_pf.
    pub max_flexibility: usize,
}

impl LogCertificate {
    /// The rake-and-compress parameter used by the O(log n) algorithm of
    /// Theorem 5.1: `max flexibility + |Σ(Π_pf)|`.
    pub fn rcp_parameter(&self) -> usize {
        self.max_flexibility + self.problem_pf.num_labels()
    }

    /// Verifies the properties guaranteed by Lemma 5.5: the certificate problem is
    /// non-empty, a restriction of `original`, all of its states are flexible, its
    /// automaton is strongly connected and has at least one edge, and every label
    /// has a continuation below within the certificate labels.
    pub fn verify(&self, original: &LclProblem) -> Result<(), String> {
        if self.problem_pf.is_empty() {
            return Err("certificate problem is empty".into());
        }
        if !self.problem_pf.is_restriction_of(original) {
            return Err("certificate problem is not a restriction of the original".into());
        }
        let automaton = Automaton::of(&self.problem_pf);
        if !automaton.is_strongly_connected() {
            return Err("certificate automaton is not strongly connected".into());
        }
        if automaton.num_edges() == 0 {
            return Err("certificate automaton has no edges".into());
        }
        let labels = self.problem_pf.labels();
        for l in labels {
            match automaton.flexibility(l) {
                None => {
                    return Err(format!(
                        "label {} is inflexible in the certificate",
                        self.problem_pf.label_name(l)
                    ))
                }
                Some(f) if f > self.max_flexibility => {
                    return Err(format!(
                        "stored max flexibility {} is below the flexibility {} of {}",
                        self.max_flexibility,
                        f,
                        self.problem_pf.label_name(l)
                    ))
                }
                Some(_) => {}
            }
            if !self.problem_pf.has_continuation_within(l, labels) {
                return Err(format!(
                    "label {} has no continuation below within the certificate",
                    self.problem_pf.label_name(l)
                ));
            }
        }
        Ok(())
    }
}

/// The full outcome of Algorithm 2, including the pruning trace shown in Figure 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogCertificateAnalysis {
    /// The label sets Σ₁, Σ₂, …, Σ_k removed by the successive iterations of
    /// Algorithm 1 (only non-empty removals are recorded).
    pub pruned_sets: Vec<LabelSet>,
    /// The fixed point Π_k reached by the pruning loop (possibly empty).
    pub fixpoint: LclProblem,
    /// The certificate, if the fixed point is non-empty.
    pub certificate: Option<LogCertificate>,
}

impl LogCertificateAnalysis {
    /// The number of pruning iterations `k`. When no certificate exists this is the
    /// exponent of the Ω(n^{1/k}) lower bound of Theorem 5.2.
    pub fn iterations(&self) -> usize {
        self.pruned_sets.len()
    }

    /// `true` if a certificate for O(log n) solvability exists.
    pub fn has_certificate(&self) -> bool {
        self.certificate.is_some()
    }
}

/// Algorithm 2: `findLogCertificate`. Iterates Algorithm 1 to a fixed point; if the
/// fixed point is empty the problem requires n^{Ω(1)} rounds, otherwise the
/// restriction to a minimal absorbing subgraph of the fixed point's automaton is a
/// certificate for O(log n) solvability.
pub fn find_log_certificate(problem: &LclProblem) -> LogCertificateAnalysis {
    with_thread_scratch(|scratch| {
        let (fixpoint, _) = prune_fixpoint_masked(problem, scratch);
        extract_log_analysis(problem, fixpoint, scratch)
    })
}

/// Algorithm 2's outcome, read off the [`prune_fixpoint_masked`] run in
/// `scratch` that stopped at `fixpoint`.
pub(crate) fn extract_log_analysis(
    problem: &LclProblem,
    fixpoint: LabelSet,
    scratch: &mut ClassifyScratch,
) -> LogCertificateAnalysis {
    let pruned_sets = scratch.pruned_sets.clone();
    let fixpoint = problem.restrict_to(fixpoint);
    let certificate = (!fixpoint.is_empty()).then(|| {
        let absorbing = Automaton::of(&fixpoint)
            .minimal_absorbing_component()
            .expect("non-empty automaton has a minimal absorbing subgraph");
        LogCertificate {
            problem_pf: fixpoint.restrict_to(absorbing),
            // The absorbing component is one flexible SCC (Lemma 5.5).
            max_flexibility: max_flexibility_masked(problem, absorbing, absorbing, scratch),
        }
    });
    LogCertificateAnalysis {
        pruned_sets,
        fixpoint,
        certificate,
    }
}

/// Algorithm 2 over materialized restrictions, kept as a test oracle for the
/// masked pruning kernel: every iteration builds the restriction and its
/// [`Automaton`].
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub mod reference {
    use super::{LogCertificate, LogCertificateAnalysis};
    use crate::automaton::{reference as automaton_reference, Automaton};
    use crate::problem::LclProblem;

    /// Algorithm 1: the restriction of `problem` to its path-flexible labels.
    ///
    /// Labels which were path-flexible in the input can become
    /// path-inflexible in the output; Algorithm 2 therefore iterates this
    /// procedure to a fixed point.
    pub fn remove_path_inflexible(problem: &LclProblem) -> LclProblem {
        let flexible = automaton_reference::flexible_states(&Automaton::of(problem));
        problem.restrict_to(flexible)
    }

    /// Algorithm 2: iterates [`remove_path_inflexible`] to its fixed point,
    /// recording the non-empty removed label sets, then restricts the fixed
    /// point to a minimal absorbing subgraph of its automaton.
    pub fn find_log_certificate(problem: &LclProblem) -> LogCertificateAnalysis {
        let mut current = problem.clone();
        let mut pruned_sets = Vec::new();
        loop {
            let next = remove_path_inflexible(&current);
            if next == current {
                break;
            }
            let removed = current.labels() - next.labels();
            if !removed.is_empty() {
                pruned_sets.push(removed);
            }
            current = next;
        }
        let certificate = (!current.is_empty()).then(|| {
            let absorbing =
                automaton_reference::minimal_absorbing_component(&Automaton::of(&current))
                    .expect("non-empty automaton has a minimal absorbing subgraph");
            let problem_pf = current.restrict_to(absorbing);
            let automaton = Automaton::of(&problem_pf);
            let max_flexibility = absorbing
                .iter()
                .map(|l| {
                    automaton_reference::flexibility(&automaton, l).expect("flexible (Lemma 5.5)")
                })
                .max()
                .unwrap_or(0);
            LogCertificate {
                problem_pf,
                max_flexibility,
            }
        });
        LogCertificateAnalysis {
            pruned_sets,
            fixpoint: current,
            certificate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(text: &str) -> LclProblem {
        text.parse().unwrap()
    }

    /// Figure 2a: Π₀, the combination of branch 2-coloring and proper 2-coloring.
    fn pi0() -> LclProblem {
        problem("a : b b\nb : a a\n1 : 1 2\n2 : 1 1\n")
    }

    #[test]
    fn algorithm_1_on_pi0_removes_a_and_b() {
        // Figure 2d: Π₁ is the restriction to {1, 2}.
        let p = pi0();
        let pruned = reference::remove_path_inflexible(&p);
        assert_eq!(pruned.num_labels(), 2);
        assert!(pruned.label_by_name("1").is_some());
        assert!(pruned.label_by_name("2").is_some());
        assert!(pruned.label_by_name("a").is_none());
        assert_eq!(pruned.num_configurations(), 2);
    }

    #[test]
    fn figure_2_pruning_trace() {
        // Algorithm 2 on Π₀ removes {a, b} in one iteration and stops with the
        // branch-2-coloring problem as Π_pf (Figure 2g).
        let p = pi0();
        let analysis = find_log_certificate(&p);
        assert_eq!(analysis.iterations(), 1);
        let removed = analysis.pruned_sets[0];
        let names: Vec<&str> = removed.iter().map(|l| p.label_name(l)).collect();
        assert_eq!(names, vec!["a", "b"]);
        let cert = analysis.certificate.expect("Π₀ is O(log n) solvable");
        assert_eq!(cert.problem_pf.num_labels(), 2);
        assert_eq!(cert.problem_pf.num_configurations(), 2);
        cert.verify(&p).unwrap();
    }

    #[test]
    fn branch_two_coloring_has_certificate() {
        // Problem (5): complexity Θ(log n), so a certificate must exist.
        let p = problem("1 : 1 2\n2 : 1 1\n");
        let analysis = find_log_certificate(&p);
        assert!(analysis.has_certificate());
        assert_eq!(analysis.iterations(), 0);
        let cert = analysis.certificate.unwrap();
        assert_eq!(cert.problem_pf.num_labels(), 2);
        cert.verify(&p).unwrap();
        assert!(cert.rcp_parameter() >= 3);
    }

    #[test]
    fn two_coloring_has_no_certificate() {
        // Problem (2): complexity Θ(n); pruning empties the problem in one step.
        let p = problem("1:22\n2:11\n");
        let analysis = find_log_certificate(&p);
        assert!(!analysis.has_certificate());
        assert_eq!(analysis.iterations(), 1);
        assert!(analysis.fixpoint.is_empty());
    }

    #[test]
    fn three_coloring_certificate_covers_all_labels() {
        let p = problem("1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n");
        let analysis = find_log_certificate(&p);
        let cert = analysis.certificate.unwrap();
        assert_eq!(cert.problem_pf.num_labels(), 3);
        assert_eq!(cert.max_flexibility, 2);
        cert.verify(&p).unwrap();
    }

    #[test]
    fn iterated_pruning_takes_multiple_steps() {
        // A problem engineered so that removing the first inflexible set makes a
        // second set inflexible: the Π₂ construction of Section 8 (k = 2).
        let p = problem(crate::test_fixtures::SECTION_8_DEPTH_TWO);
        let analysis = find_log_certificate(&p);
        assert!(!analysis.has_certificate());
        assert_eq!(analysis.iterations(), 2);
        // First iteration removes the inner 2-coloring {a1, b1}; the second removes
        // the rest.
        let first: Vec<&str> = analysis.pruned_sets[0]
            .iter()
            .map(|l| p.label_name(l))
            .collect();
        assert_eq!(first, vec!["a1", "b1"]);
    }

    #[test]
    fn unused_labels_are_pruned_immediately() {
        let p = problem("1 : 1 1\nlabels: z\n");
        let analysis = find_log_certificate(&p);
        assert!(analysis.has_certificate());
        let cert = analysis.certificate.unwrap();
        assert_eq!(cert.problem_pf.num_labels(), 1);
        assert_eq!(cert.max_flexibility, 1);
    }

    #[test]
    fn certificate_verification_rejects_tampering() {
        let p = problem("1 : 1 2\n2 : 1 1\n");
        let analysis = find_log_certificate(&p);
        let mut cert = analysis.certificate.unwrap();
        cert.max_flexibility = 0;
        assert!(cert.verify(&p).is_err());
    }

    #[test]
    fn empty_problem_has_no_certificate() {
        let p = problem("labels: a b c\n");
        let analysis = find_log_certificate(&p);
        assert!(!analysis.has_certificate());
        assert!(analysis.fixpoint.is_empty());
    }
}
