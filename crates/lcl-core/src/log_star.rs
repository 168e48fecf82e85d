//! Algorithm 4 (`findCertificate`): deciding O(log* n) vs Ω(log n).
//!
//! The algorithm searches over subsets Σ' ⊆ Σ(Π): for each candidate it restricts
//! the problem to Σ' and runs Algorithm 3. Theorem 6.8 shows a builder is found for
//! some subset iff a uniform certificate (Definition 6.1) exists, which by
//! Theorem 6.3 / Lemma 6.7 happens iff the problem is solvable in O(log* n) rounds.
//! The search prunes subsets in which some label has no continuation below
//! (such a label could never be the root of a certificate tree), which keeps the
//! exponential search fast on all problems of practical interest. Subsets are
//! enumerated directly as sub-masks of the [`LabelSet`] bitset.

use crate::builder::{build_log_star_certificate, CertificateBuildError, CertificateBuilder};
use crate::certificate::LogStarCertificate;
use crate::label::Label;
use crate::label_set::LabelSet;
use crate::problem::LclProblem;
use crate::scratch::extract_builder;
use crate::solvability::solvable_labels;

/// The outcome of a successful Algorithm 4 search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogStarSearchResult {
    /// The certificate labels Σ_T (the subset Σ' that succeeded).
    pub certificate_labels: LabelSet,
    /// The restriction of the problem to Σ_T.
    pub restricted: LclProblem,
    /// The certificate builder found by Algorithm 3.
    pub builder: CertificateBuilder,
}

impl LogStarSearchResult {
    /// Materializes the explicit uniform certificate (Lemma 6.9), bounding each
    /// certificate tree by `max_nodes` nodes.
    pub fn materialize(
        &self,
        max_nodes: usize,
    ) -> Result<LogStarCertificate, CertificateBuildError> {
        build_log_star_certificate(&self.restricted, &self.builder, max_nodes)
    }
}

/// The subset searches of Algorithms 4–5 enumerate every subset of the
/// self-sustaining label set; beyond this many labels the 2^n enumeration is
/// hopeless, so the search panics with a clear message rather than looping for
/// years. Callers that feed arbitrary problems into batch sweeps should bound
/// their label counts accordingly (`rtlcl classify-batch` validates its
/// `--labels` against this).
pub const MAX_SEARCH_LABELS: usize = 20;

/// Streaming cursor over the non-empty subsets of a label set in ascending
/// `(size, bitmask)` order — the enumeration order of Algorithms 4–5.
///
/// This replaces the formerly materialized sorted `Vec<LabelSet>`: same-size
/// subsets are generated by Gosper's hack over the *compressed* index space
/// (bit `i` ↦ the `i`-th smallest member of `labels`), and the compressed →
/// expanded mapping is strictly increasing on bit positions, so ascending
/// compressed masks expand to ascending [`LabelSet`] bitmasks. The cursor is a
/// few words of `Copy` state; nothing is allocated no matter how many of the
/// `2^n − 1` subsets the search consumes.
#[derive(Debug, Clone)]
pub(crate) struct SubsetsBySize {
    /// `positions[i]` = label index of compressed bit `i` (ascending).
    positions: [u16; MAX_SEARCH_LABELS],
    /// Number of labels (compressed bits).
    n: u32,
    /// Current subset size, 1..=n.
    size: u32,
    /// Current combination in the compressed space.
    comb: u64,
}

/// Enumerates the non-empty subsets of `labels`, smallest first (see
/// [`SubsetsBySize`]).
///
/// # Panics
///
/// Panics if `labels` has more than [`MAX_SEARCH_LABELS`] members.
pub(crate) fn subsets_by_size(labels: LabelSet) -> SubsetsBySize {
    let n = labels.len();
    assert!(
        n <= MAX_SEARCH_LABELS,
        "subset search over at most {MAX_SEARCH_LABELS} labels, got {n}"
    );
    let mut positions = [0u16; MAX_SEARCH_LABELS];
    for (i, l) in labels.iter().enumerate() {
        positions[i] = l.0;
    }
    SubsetsBySize {
        positions,
        n: n as u32,
        size: 1,
        comb: 1,
    }
}

impl Iterator for SubsetsBySize {
    type Item = LabelSet;

    fn next(&mut self) -> Option<LabelSet> {
        if self.n == 0 || self.size > self.n {
            return None;
        }
        let current = self.comb;
        let mut out = LabelSet::EMPTY;
        let mut bits = current;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            out.insert(Label(self.positions[i]));
            bits &= bits - 1;
        }
        // Advance: Gosper's hack to the next same-size combination; when the
        // carry leaves the n-bit space the size is exhausted.
        let low = current & current.wrapping_neg();
        let carry = current + low;
        if carry >= 1u64 << self.n {
            self.size += 1;
            self.comb = if self.size > self.n {
                0
            } else {
                (1u64 << self.size) - 1
            };
        } else {
            self.comb = carry | (((current ^ carry) / low) >> 2);
        }
        Some(out)
    }
}

/// Returns `true` if every label of `subset` has a continuation below within
/// `subset` in `problem` — a necessary condition for `subset` to be the label set of
/// a uniform certificate (every label is the root of a certificate tree of depth
/// ≥ 1).
pub(crate) fn is_self_sustaining(problem: &LclProblem, subset: LabelSet) -> bool {
    subset
        .iter()
        .all(|l| problem.has_continuation_within(l, subset))
}

/// Algorithm 4: searches for a uniform certificate of O(log* n) solvability.
/// Returns `None` if none exists (the problem then requires Ω(log n) rounds by
/// Lemma 6.7).
pub fn find_log_star_certificate(problem: &LclProblem) -> Option<LogStarSearchResult> {
    // Certificate labels all need continuations inside the certificate, so they lie
    // inside the greatest self-sustaining set; only search subsets of it.
    find_log_star_certificate_within(problem, solvable_labels(problem))
}

/// [`find_log_star_certificate`] with a precomputed greatest self-sustaining
/// set: `sustaining` must be `solvable_labels(problem)`. The classifier
/// computes that fixed point once per problem and threads it through, so the
/// certificate stages never re-run it.
pub fn find_log_star_certificate_within(
    problem: &LclProblem,
    sustaining: LabelSet,
) -> Option<LogStarSearchResult> {
    // The decision's last Algorithm 3 run is the winning subset's: extract its
    // builder from the scratch instead of searching again.
    let (subset, builder) = crate::scratch::with_thread_scratch(|scratch| {
        let subset = decide_log_star_subset(problem, sustaining, scratch)?;
        let builder = extract_builder(problem, scratch)
            .expect("the decision stopped on a builder for this subset");
        Some((subset, builder))
    })?;
    Some(LogStarSearchResult {
        certificate_labels: subset,
        restricted: problem.restrict_to(subset),
        builder,
    })
}

/// Decision core of Algorithm 4: the first (smallest, then lexicographic)
/// subset of `sustaining` that is self-sustaining and admits a certificate
/// builder, found purely by masking — no restricted problems are built. On
/// `Some`, the scratch holds that subset's Algorithm 3 run for
/// [`extract_builder`]. Public so external harnesses (the classifier bench's
/// stage-by-stage decision twin) can replicate the hot path exactly.
pub fn decide_log_star_subset(
    problem: &LclProblem,
    sustaining: LabelSet,
    scratch: &mut crate::scratch::ClassifyScratch,
) -> Option<LabelSet> {
    if sustaining.is_empty() {
        return None;
    }
    assert!(
        sustaining.len() <= MAX_SEARCH_LABELS,
        "Algorithm 4 enumerates subsets of at most {MAX_SEARCH_LABELS} labels, got {}",
        sustaining.len()
    );
    subsets_by_size(sustaining).find(|&subset| {
        is_self_sustaining(problem, subset)
            && crate::scratch::exists_builder_masked(problem, subset, None, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_coloring() -> LclProblem {
        "1:22\n1:23\n1:33\n2:11\n2:13\n2:33\n3:11\n3:12\n3:22\n"
            .parse()
            .unwrap()
    }

    #[test]
    fn three_coloring_has_log_star_certificate() {
        let p = three_coloring();
        let result = find_log_star_certificate(&p).expect("3-coloring is Θ(log* n)");
        let cert = result.materialize(1_000_000).unwrap();
        cert.verify(&p).unwrap();
        // The certificate uses all three colors (no proper subset of size 1 or 2
        // self-sustains into a certificate for a proper coloring).
        assert_eq!(result.certificate_labels.len(), 3);
    }

    #[test]
    fn mis_has_log_star_certificate() {
        let p: LclProblem = "1 : a a\n1 : a b\n1 : b b\na : b b\nb : b 1\nb : 1 1\n"
            .parse()
            .unwrap();
        let result = find_log_star_certificate(&p).expect("MIS is O(1) ⊆ O(log* n)");
        let cert = result.materialize(1_000_000).unwrap();
        cert.verify(&p).unwrap();
    }

    #[test]
    fn branch_two_coloring_has_none() {
        let p: LclProblem = "1 : 1 2\n2 : 1 1\n".parse().unwrap();
        assert!(find_log_star_certificate(&p).is_none());
    }

    #[test]
    fn two_coloring_has_none() {
        let p: LclProblem = "1:22\n2:11\n".parse().unwrap();
        assert!(find_log_star_certificate(&p).is_none());
    }

    #[test]
    fn unsolvable_problem_has_none() {
        let p: LclProblem = "a : b b\nb : c c\n".parse().unwrap();
        assert!(find_log_star_certificate(&p).is_none());
    }

    #[test]
    fn trivial_problem_uses_single_label() {
        // With a universally allowed single label the smallest certificate uses just
        // that label.
        let p: LclProblem = "x : x x\nx : x y\ny : x x\n".parse().unwrap();
        let result = find_log_star_certificate(&p).unwrap();
        assert_eq!(result.certificate_labels.len(), 1);
        let cert = result.materialize(1_000).unwrap();
        cert.verify(&p).unwrap();
        assert_eq!(cert.depth, 1);
    }

    #[test]
    fn certificate_found_inside_larger_problem() {
        // The union of 2-coloring on {1, 2} and an unconstrained label z: a
        // certificate exists using only {z}, even though {1, 2} alone admits none.
        let p: LclProblem = "1:22\n2:11\nz:zz\nz:12\n".parse().unwrap();
        let result = find_log_star_certificate(&p).unwrap();
        let z = p.label_by_name("z").unwrap();
        assert_eq!(result.certificate_labels, LabelSet::singleton(z));
        assert_eq!(
            result.certificate_labels.to_btree(),
            [z].into_iter().collect()
        );
    }

    #[test]
    fn subsets_are_enumerated_smallest_first() {
        let labels: LabelSet = [Label(0), Label(1), Label(2)].into_iter().collect();
        let subsets: Vec<LabelSet> = subsets_by_size(labels).collect();
        assert_eq!(subsets.len(), 7);
        assert_eq!(subsets[0].len(), 1);
        assert_eq!(subsets[6].len(), 3);
        // Sizes are non-decreasing throughout.
        assert!(subsets.windows(2).all(|w| w[0].len() <= w[1].len()));
    }

    #[test]
    fn streaming_cursor_matches_materialized_sort() {
        // The cursor must reproduce the historical order exactly: sort all
        // non-empty subsets by (size, bitmask) and compare, including over a
        // non-contiguous label set.
        for labels in [
            [Label(0), Label(1), Label(2)]
                .into_iter()
                .collect::<LabelSet>(),
            [Label(1), Label(4), Label(7), Label(9)]
                .into_iter()
                .collect(),
            [Label(5)].into_iter().collect(),
            [Label(0), Label(2), Label(3), Label(8), Label(120)]
                .into_iter()
                .collect(),
        ] {
            let mut expected: Vec<LabelSet> = labels.subsets().filter(|s| !s.is_empty()).collect();
            expected.sort_by_key(|s| (s.len(), s.bits()));
            let streamed: Vec<LabelSet> = subsets_by_size(labels).collect();
            assert_eq!(streamed, expected, "labels {labels}");
        }
        assert_eq!(subsets_by_size(LabelSet::EMPTY).count(), 0);
    }

    #[test]
    fn self_sustaining_check() {
        let p: LclProblem = "1 : 1 2\n2 : 1 1\n".parse().unwrap();
        let one = p.label_by_name("1").unwrap();
        let two = p.label_by_name("2").unwrap();
        let both: LabelSet = [one, two].into_iter().collect();
        let just_one = LabelSet::singleton(one);
        assert!(is_self_sustaining(&p, both));
        // 1 alone has no continuation using only 1 (its configurations need 2).
        assert!(!is_self_sustaining(&p, just_one));
    }
}
