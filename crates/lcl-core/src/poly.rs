//! The exact exponent of the polynomial region (Section 5, Lemmas 5.28–5.31).
//!
//! A solvable problem with no certificate for O(log n) solvability has round
//! complexity Θ(n^{1/k}) for a *computable* k. The decision procedure layers
//! two operations over the label sets of the problem:
//!
//! * **trim** (Lemma 5.28, [`crate::scratch::trim_masked`]) — the greatest
//!   subset of a label set in which every label heads a configuration lying
//!   fully inside the subset, i.e. the labels that can head arbitrarily deep
//!   subtrees of the restriction;
//! * **flexible-SCC restriction** (Lemma 5.29) — a strongly connected
//!   component of the restriction's path-form automaton whose period is 1
//!   (every state admits closed walks of all sufficiently large lengths).
//!
//! The exponent is the depth of the longest descent
//! `S₁ ⊋ C₁ ⊇ S₂ ⊋ C₂ ⊇ … ⊇ S_k` where `S₁ = trim(Σ)`, each `C_i` is a
//! flexible SCC of the automaton of `Π|S_i`, and `S_{i+1} = trim(C_i)`:
//!
//! * **upper bound**: the chain drives an O(n^{1/k})-round algorithm
//!   (`lcl_algorithms::flat::solve_poly_flat`) that peels the tree into k
//!   layers of n^{1/k}-sized rake pieces and flexibility-completed chains,
//!   generalizing the Π_k partition of Lemma 8.1;
//! * **lower bound**: no chain of length k+1 exists, which generalizes the
//!   Ω(n^{1/k}) argument of Theorem 5.2 (the chain levels embed into the
//!   pruning sequence of Algorithm 2, so k never exceeds the pruning
//!   iteration count — asserted by the integration tests).
//!
//! In the polynomial region every flexible SCC is a *proper* subset of its
//! (trimmed) level: a trimmed set that is a single flexible SCC would be a
//! certificate for O(log n) solvability (Lemma 5.5), contradicting the region.
//! Hence the descent strictly shrinks and its depth is at most `|Σ|`.
//!
//! The descent has one implementation, the allocation-free DFS
//! [`crate::scratch::poly_exponent_masked`], which records its deepest chain
//! in its scratch. [`find_poly_certificate`] is that run plus extraction: it
//! reads the chain `(S_i, C_i)` off the scratch and computes each level's
//! flexibility. The `reference` module keeps the recursive descent over
//! materialized restrictions as a test oracle.

use crate::automaton::Automaton;
use crate::label_set::LabelSet;
use crate::problem::LclProblem;
use crate::scratch::{
    max_flexibility_masked, poly_exponent_masked, prune_fixpoint_masked, trim_masked,
    with_thread_scratch, ClassifyScratch,
};
use crate::solvability::solvable_labels;

/// One level of the trim/flexible-SCC descent witnessing Θ(n^{1/k}).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolyLevel {
    /// The trimmed label set `S_i` of this level (non-empty).
    pub labels: LabelSet,
    /// The flexible SCC `C_i ⊊ S_i` the chain descends through
    /// (`trim(C_i) = S_{i+1}`). Empty on the last level.
    pub scc: LabelSet,
    /// The maximum flexibility (Definition 4.8) over the states of `scc`
    /// within the automaton of `Π|S_i`; 0 on the last level.
    pub flexibility: usize,
    /// The minimum length of a chain the level's solver layer compresses:
    /// `|scc| + flexibility`, which guarantees a walk of any such length
    /// between any two `scc` labels. 0 on the last level.
    pub chain_threshold: usize,
}

/// The certificate for Θ(n^{1/k}) complexity: the maximal trim/flexible-SCC
/// descent. `levels.len()` is the exponent `k`; `levels[0].labels` is the
/// self-sustaining set and each subsequent level is the trim of its
/// predecessor's flexible SCC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyCertificate {
    /// The chain `S₁ ⊋ C₁ ⊇ S₂ ⊋ … ⊇ S_k`, outermost level first.
    pub levels: Vec<PolyLevel>,
}

impl PolyCertificate {
    /// The exponent `k` of Θ(n^{1/k}): the length of the chain.
    pub fn exponent(&self) -> usize {
        self.levels.len()
    }

    /// Verifies the certificate against `problem`: the structural chain
    /// conditions (upper-bound witness) plus maximality (lower-bound witness,
    /// re-derived with the allocation-free decision procedure).
    pub fn verify(&self, problem: &LclProblem) -> Result<(), String> {
        if self.levels.is_empty() {
            return Err("certificate chain is empty".into());
        }
        let sustaining = solvable_labels(problem);
        if sustaining.is_empty() {
            return Err("problem is unsolvable".into());
        }
        if self.levels[0].labels != sustaining {
            return Err("chain does not start at the self-sustaining label set".into());
        }
        let k = self.levels.len();
        for (i, level) in self.levels.iter().enumerate() {
            if level.labels.is_empty() {
                return Err(format!("level {} has an empty label set", i + 1));
            }
            if trim_masked(problem, level.labels) != level.labels {
                return Err(format!("level {} label set is not trimmed", i + 1));
            }
            let restricted = problem.restrict_to(level.labels);
            let automaton = Automaton::of(&restricted);
            if i + 1 < k {
                let comp = automaton
                    .components()
                    .into_iter()
                    .find(|c| c.states == level.scc)
                    .ok_or_else(|| format!("level {} scc is not an SCC of Π|S", i + 1))?;
                if !comp.has_cycle || comp.period != 1 {
                    return Err(format!("level {} scc is not flexible", i + 1));
                }
                if level.scc == level.labels {
                    return Err(format!(
                        "level {} scc covers the whole level (a certificate for O(log n))",
                        i + 1
                    ));
                }
                if trim_masked(problem, level.scc) != self.levels[i + 1].labels {
                    return Err(format!(
                        "level {} trim does not match level {}",
                        i + 1,
                        i + 2
                    ));
                }
                let flex = level
                    .scc
                    .iter()
                    .map(|l| {
                        automaton
                            .flexibility(l)
                            .ok_or_else(|| format!("level {} scc state is inflexible", i + 1))
                    })
                    .try_fold(0usize, |acc, f| f.map(|f| acc.max(f)))?;
                if level.flexibility != flex {
                    return Err(format!(
                        "level {} stores flexibility {} but the automaton gives {}",
                        i + 1,
                        level.flexibility,
                        flex
                    ));
                }
                if level.chain_threshold != level.scc.len() + flex {
                    return Err(format!("level {} chain threshold is inconsistent", i + 1));
                }
            } else {
                if !level.scc.is_empty() {
                    return Err("last level must not descend further".into());
                }
                if level.flexibility != 0 || level.chain_threshold != 0 {
                    return Err("last level carries a non-zero flexibility/threshold".into());
                }
            }
        }
        // Maximality (the Ω(n^{1/k}) side): the chain must realize the exact
        // exponent, re-derived by the independent masked decision procedure.
        let exact =
            with_thread_scratch(|scratch| poly_exponent_masked(problem, sustaining, scratch));
        if exact != k {
            return Err(format!(
                "chain has length {k} but the exact exponent is {exact}"
            ));
        }
        Ok(())
    }
}

/// Computes the exact-exponent certificate of a polynomial-region problem, or
/// `None` when the problem is outside the region (unsolvable, or Algorithm 2
/// finds a certificate for O(log n) solvability).
pub fn find_poly_certificate(problem: &LclProblem) -> Option<PolyCertificate> {
    let sustaining = solvable_labels(problem);
    if sustaining.is_empty() {
        return None;
    }
    with_thread_scratch(|scratch| {
        let (fixpoint, iterations) = prune_fixpoint_masked(problem, scratch);
        fixpoint
            .is_empty()
            .then(|| poly_certificate_within(problem, sustaining, iterations, scratch))
    })
}

/// The certificate of a polynomial-region problem whose pruning loop ran
/// `iterations` non-empty rounds: one [`poly_exponent_masked`] run, then the
/// chain read off the scratch. The exponent never exceeds the iteration count,
/// so with `iterations ≤ 1` the chain is the single level `sustaining` and the
/// DFS is skipped, as on the decision path. An empty SCC has flexibility 0, so
/// the last level carries a zero flexibility and threshold.
pub(crate) fn poly_certificate_within(
    problem: &LclProblem,
    sustaining: LabelSet,
    iterations: usize,
    scratch: &mut ClassifyScratch,
) -> PolyCertificate {
    let exponent = if iterations <= 1 {
        scratch.poly_chain.clear();
        scratch.poly_chain.push((sustaining, LabelSet::EMPTY));
        1
    } else {
        poly_exponent_masked(problem, sustaining, scratch)
    };
    let levels = (0..exponent)
        .map(|i| {
            let (labels, scc) = scratch.poly_chain[i];
            let flexibility = max_flexibility_masked(problem, labels, scc, scratch);
            PolyLevel {
                labels,
                scc,
                flexibility,
                chain_threshold: scc.len() + flexibility,
            }
        })
        .collect();
    PolyCertificate { levels }
}

/// The descent over materialized restrictions, kept as a test oracle for the
/// masked DFS: every level builds its restriction, its [`Automaton`] and the
/// trims of its flexible SCCs by [`solvable_labels`] on restrictions.
#[cfg(any(test, feature = "reference"))]
#[doc(hidden)]
pub mod reference {
    use super::{PolyCertificate, PolyLevel};
    use crate::automaton::{reference as automaton_reference, Automaton};
    use crate::label_set::LabelSet;
    use crate::problem::LclProblem;
    use crate::solvability::solvable_labels;

    /// The exact-exponent certificate, or `None` outside the polynomial
    /// region, with Algorithm 2 run by
    /// [`crate::log_certificate::reference::find_log_certificate`].
    pub fn find_poly_certificate(problem: &LclProblem) -> Option<PolyCertificate> {
        let sustaining = solvable_labels(problem);
        if sustaining.is_empty()
            || crate::log_certificate::reference::find_log_certificate(problem).has_certificate()
        {
            return None;
        }
        Some(PolyCertificate {
            levels: best_chain(problem, sustaining),
        })
    }

    /// The deepest descent below the trimmed non-empty set `s`, levels-first.
    /// Flexible SCCs are visited in least-label order and ties keep the first
    /// maximum.
    pub fn best_chain(problem: &LclProblem, s: LabelSet) -> Vec<PolyLevel> {
        let automaton = Automaton::of(&problem.restrict_to(s));
        // Kosaraju's order is not the masked DFS's, so the reference fixes the
        // tie-break itself: least label first.
        let mut components = automaton_reference::components(&automaton);
        components.sort_by_key(|c| c.states.first());
        let mut best_below: Vec<PolyLevel> = Vec::new();
        let mut best_scc = LabelSet::EMPTY;
        for comp in components {
            if !comp.has_cycle || comp.period != 1 || comp.states == s {
                continue;
            }
            let trimmed = solvable_labels(&problem.restrict_to(comp.states));
            if trimmed.is_empty() {
                continue;
            }
            let below = best_chain(problem, trimmed);
            if below.len() > best_below.len() {
                best_below = below;
                best_scc = comp.states;
            }
        }
        let flexibility = best_scc
            .iter()
            .map(|l| {
                automaton_reference::flexibility(&automaton, l)
                    .expect("states of a flexible SCC are flexible")
            })
            .max()
            .unwrap_or(0);
        let mut levels = vec![PolyLevel {
            labels: s,
            scc: best_scc,
            flexibility,
            chain_threshold: best_scc.len() + flexibility,
        }];
        levels.extend(best_below);
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{classify, Complexity};

    fn problem(text: &str) -> LclProblem {
        text.parse().unwrap()
    }

    /// The Section 8 construction with k = 2 (shared test fixture).
    fn section_8_depth_two() -> LclProblem {
        problem(crate::test_fixtures::SECTION_8_DEPTH_TWO)
    }

    #[test]
    fn two_coloring_has_a_depth_one_certificate() {
        let p = problem("1:22\n2:11\n");
        let cert = find_poly_certificate(&p).expect("2-coloring is polynomial");
        assert_eq!(cert.exponent(), 1);
        assert_eq!(cert.levels[0].labels, p.labels());
        assert!(cert.levels[0].scc.is_empty());
        cert.verify(&p).unwrap();
    }

    #[test]
    fn section_8_problem_has_a_depth_two_chain() {
        let p = section_8_depth_two();
        let cert = find_poly_certificate(&p).expect("polynomial problem");
        assert_eq!(cert.exponent(), 2);
        cert.verify(&p).unwrap();
        // The chain descends through the flexible SCC {x1, a2, b2} into the
        // inner 2-coloring {a2, b2}.
        let names: Vec<&str> = cert.levels[1]
            .labels
            .iter()
            .map(|l| p.label_name(l))
            .collect();
        assert_eq!(names, vec!["a2", "b2"]);
        assert_eq!(cert.levels[0].scc.len(), 3);
        assert!(cert.levels[0].chain_threshold >= cert.levels[0].scc.len());
    }

    #[test]
    fn non_polynomial_problems_have_no_certificate() {
        // Θ(log n), Θ(log* n), O(1), and unsolvable problems all return None.
        for text in [
            "1 : 1 2\n2 : 1 1\n",
            "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n",
            "x : x x\n",
            "a : b b\nb : c c\n",
        ] {
            assert!(find_poly_certificate(&problem(text)).is_none(), "{text}");
        }
    }

    #[test]
    fn verification_rejects_tampered_chains() {
        let p = section_8_depth_two();
        let cert = find_poly_certificate(&p).unwrap();

        let mut truncated = cert.clone();
        truncated.levels.pop();
        // The now-last level still names an SCC.
        assert!(truncated.verify(&p).is_err());

        let mut wrong_flex = cert.clone();
        wrong_flex.levels[0].flexibility += 1;
        assert!(wrong_flex.verify(&p).is_err());

        let mut wrong_set = cert.clone();
        wrong_set.levels[1].labels = p.labels();
        assert!(wrong_set.verify(&p).is_err());

        let empty = PolyCertificate { levels: Vec::new() };
        assert!(empty.verify(&p).is_err());
    }

    #[test]
    fn certificate_agrees_with_the_classifier() {
        for text in ["1:22\n2:11\n", "1:2\n2:1\n"] {
            let p = problem(text);
            let cert = find_poly_certificate(&p).unwrap();
            assert_eq!(
                classify(&p).complexity,
                Complexity::Polynomial {
                    exponent: cert.exponent()
                }
            );
        }
    }
}
