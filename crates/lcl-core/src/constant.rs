//! Algorithm 5 (`constantCertificate`): deciding O(1) vs Ω(log* n).
//!
//! A problem is constant-time solvable iff it has a certificate for O(1)
//! solvability (Definition 7.1): a uniform certificate together with a *special
//! configuration* `(a : b₁, …, a, …, b_δ)` whose labels all belong to the
//! certificate and whose repeated label `a` appears on a certificate leaf.
//! Algorithm 5 searches over label subsets and over special configurations inside
//! each restriction, invoking Algorithm 3 with the special label as the required
//! leaf.

use crate::builder::{build_log_star_certificate, CertificateBuildError, CertificateBuilder};
use crate::certificate::ConstantCertificate;
use crate::configuration::Configuration;
use crate::label::Label;
use crate::label_set::LabelSet;
use crate::log_star::{is_self_sustaining, subsets_by_size, MAX_SEARCH_LABELS};
use crate::problem::LclProblem;
use crate::scratch::extract_builder;
use crate::solvability::solvable_labels;

/// The outcome of a successful Algorithm 5 search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantSearchResult {
    /// The certificate labels Σ_T.
    pub certificate_labels: LabelSet,
    /// The restriction of the problem to Σ_T.
    pub restricted: LclProblem,
    /// The special configuration `(a : …, a, …)`.
    pub special: Configuration,
    /// The certificate builder found by Algorithm 3 with `a` as the required leaf.
    pub builder: CertificateBuilder,
}

impl ConstantSearchResult {
    /// The special label `a`.
    pub fn special_label(&self) -> Label {
        self.special.parent()
    }

    /// Materializes the explicit certificate for O(1) solvability.
    pub fn materialize(
        &self,
        max_nodes: usize,
    ) -> Result<ConstantCertificate, CertificateBuildError> {
        let base = build_log_star_certificate(&self.restricted, &self.builder, max_nodes)?;
        Ok(ConstantCertificate {
            base,
            special: self.special.clone(),
        })
    }
}

/// Algorithm 5: searches for a certificate for O(1) solvability. Returns `None` if
/// none exists (the problem then requires Ω(log* n) rounds by Theorem 7.7).
pub fn find_constant_certificate(problem: &LclProblem) -> Option<ConstantSearchResult> {
    find_constant_certificate_within(problem, solvable_labels(problem))
}

/// [`find_constant_certificate`] with a precomputed greatest self-sustaining
/// set: `sustaining` must be `solvable_labels(problem)`. The classifier
/// computes that fixed point once per problem and threads it through, so the
/// certificate stages never re-run it.
pub fn find_constant_certificate_within(
    problem: &LclProblem,
    sustaining: LabelSet,
) -> Option<ConstantSearchResult> {
    // The decision stops on the first special parent (in configuration order)
    // whose builder exists in the winning subset, so its last Algorithm 3 run
    // is that builder; the special configuration is the first one with that
    // parent.
    let (subset, builder) = crate::scratch::with_thread_scratch(|scratch| {
        let subset = decide_constant_subset(problem, sustaining, scratch)?;
        let builder = extract_builder(problem, scratch)
            .expect("the decision stopped on a builder for this subset");
        Some((subset, builder))
    })?;
    let restricted = problem.restrict_to(subset);
    let special = restricted
        .configurations()
        .iter()
        .find(|c| c.parent_repeats_in_children() && Some(c.parent()) == builder.target)
        .expect("the decision's special label heads a special configuration")
        .clone();
    Some(ConstantSearchResult {
        certificate_labels: subset,
        restricted,
        special,
        builder,
    })
}

/// Decision core of Algorithm 5: the first subset of `sustaining` (smallest,
/// then lexicographic) that is self-sustaining and admits a builder with some
/// special configuration's parent on a leaf — found purely by masking. On
/// `Some`, the scratch holds the Algorithm 3 run of the first such parent in
/// configuration order for [`extract_builder`]. Public so external harnesses
/// (the classifier bench's stage-by-stage decision twin) can replicate the
/// hot path exactly.
pub fn decide_constant_subset(
    problem: &LclProblem,
    sustaining: LabelSet,
    scratch: &mut crate::scratch::ClassifyScratch,
) -> Option<LabelSet> {
    // The problem must contain at least one special configuration at all; otherwise
    // every solution is a proper coloring and the problem is Ω(log* n)
    // (Theorem 7.7).
    if !problem
        .configurations()
        .iter()
        .any(|c| c.parent_repeats_in_children())
    {
        return None;
    }
    if sustaining.is_empty() {
        return None;
    }
    assert!(
        sustaining.len() <= MAX_SEARCH_LABELS,
        "Algorithm 5 enumerates subsets of at most {MAX_SEARCH_LABELS} labels, got {}",
        sustaining.len()
    );
    for subset in subsets_by_size(sustaining) {
        if !is_self_sustaining(problem, subset) {
            continue;
        }
        // Builder existence depends only on (subset, special parent), so each
        // distinct parent is tried once even when several special
        // configurations share it.
        let mut tried = LabelSet::EMPTY;
        for (i, c) in problem.configurations().iter().enumerate() {
            if !c.parent_repeats_in_children()
                || !problem.configuration_label_set(i).is_subset(subset)
            {
                continue;
            }
            if !tried.insert(c.parent()) {
                continue;
            }
            if crate::scratch::exists_builder_masked(problem, subset, Some(c.parent()), scratch) {
                return Some(subset);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mis() -> LclProblem {
        "1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n"
            .parse()
            .unwrap()
    }

    #[test]
    fn mis_is_constant_time() {
        let p = mis();
        let result = find_constant_certificate(&p).expect("MIS is O(1), Section 1.3");
        // The special configuration is b : b 1 (the only one repeating its parent).
        let b = p.label_by_name("b").unwrap();
        assert_eq!(result.special_label(), b);
        let cert = result.materialize(1_000_000).unwrap();
        cert.verify(&p).unwrap();
    }

    #[test]
    fn three_coloring_is_not_constant_time() {
        let p: LclProblem = "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n"
            .parse()
            .unwrap();
        assert!(find_constant_certificate(&p).is_none());
    }

    #[test]
    fn branch_two_coloring_is_not_constant_time() {
        // It has a special configuration (1 : 1 2) but no O(log* n) certificate.
        let p: LclProblem = "1 : 1 2\n2 : 1 1\n".parse().unwrap();
        assert!(find_constant_certificate(&p).is_none());
    }

    #[test]
    fn trivial_problem_is_constant_time() {
        let p: LclProblem = "x : x x\n".parse().unwrap();
        let result = find_constant_certificate(&p).unwrap();
        let cert = result.materialize(1_000).unwrap();
        cert.verify(&p).unwrap();
        assert_eq!(cert.base.depth, 1);
    }

    #[test]
    fn special_configuration_outside_certificate_labels_does_not_count() {
        // The special configuration (s : s s) exists but `s` is a dead end (no other
        // configuration leads back to it from the rest), while the rest of the
        // problem is 2-coloring. Restricted to {s} alone the problem is fine, so the
        // classifier should pick {s} as the certificate.
        let p: LclProblem = "1:22\n2:11\ns:ss\n".parse().unwrap();
        let result = find_constant_certificate(&p).unwrap();
        let s = p.label_by_name("s").unwrap();
        assert_eq!(result.certificate_labels, LabelSet::singleton(s));
        let cert = result.materialize(1_000).unwrap();
        cert.verify(&p).unwrap();
    }

    #[test]
    fn special_configuration_must_be_usable() {
        // (a : a b) repeats its parent, but b has no continuation, so the only
        // self-sustaining set is {a} restricted to (a : a a)... which does not exist
        // here; hence no certificate and the problem is in fact unsolvable.
        let p: LclProblem = "a : a b\n".parse().unwrap();
        assert!(find_constant_certificate(&p).is_none());
    }

    #[test]
    fn mis_without_special_configuration_is_not_constant() {
        // Removing (b : b 1) removes the only special configuration; the remaining
        // problem is solvable but no longer O(1).
        let p: LclProblem = "1 : a a\n1 : a b\n1 : b b\na : b b\nb : 1 1\n"
            .parse()
            .unwrap();
        assert!(find_constant_certificate(&p).is_none());
    }
}
