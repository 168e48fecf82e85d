//! The report path reads Algorithm 2's pruning trace and the Θ(n^{1/k})
//! chain off the masked kernels' own runs. This test checks them against the
//! reference implementations over materialized restrictions
//! (`log_certificate::reference`, `poly::reference`): the pruned sets, the
//! fixed point, the O(log n) certificate and every chain level must be equal,
//! and the chain must pick the same flexible SCC on ties (least label first).

use rooted_tree_lcl::core::{
    classify, find_log_certificate, find_poly_certificate, log_certificate, poly, Complexity,
    LabelSet, LclProblem,
};
use rooted_tree_lcl::problems::random::{enumerate_problems, random_problem, RandomProblemSpec};
use rooted_tree_lcl::problems::{extras, pi_k};

fn assert_matches_reference(problem: &LclProblem, context: &str) {
    let log_reference = log_certificate::reference::find_log_certificate(problem);
    let poly_reference = poly::reference::find_poly_certificate(problem);
    let report = classify(problem);
    let text = problem.to_text();
    assert_eq!(report.log_analysis, log_reference, "{context}: {text}");
    assert_eq!(report.poly, poly_reference, "{context}: {text}");
    assert_eq!(find_log_certificate(problem), log_reference, "{context}");
    assert_eq!(find_poly_certificate(problem), poly_reference, "{context}");
}

#[test]
fn extracted_trace_and_chain_match_the_reference() {
    for problem in enumerate_problems(2, 2) {
        assert_matches_reference(&problem, "exhaustive δ=2 2-label");
    }
    for k in 1..=5 {
        assert_matches_reference(&pi_k::pi_k(k), &format!("Π_{k}"));
    }
    assert_matches_reference(&extras::section_8_depth_two(), "section 8 (k = 2)");
    for (delta, num_labels, density) in [(2, 3, 0.3), (2, 4, 0.2), (1, 4, 0.3), (3, 3, 0.2)] {
        let spec = RandomProblemSpec {
            delta,
            num_labels,
            density,
        };
        for seed in 0..100 {
            let context = format!("random d{delta} l{num_labels} seed {seed}");
            assert_matches_reference(&random_problem(&spec, seed), &context);
        }
    }
}

#[test]
fn chain_ties_descend_through_the_least_label_scc() {
    // Two disjoint Section 8 copies: both top-level flexible SCCs descend
    // equally deep, so the chain must take the one with the smaller least
    // label, which is the copy written first.
    let a_copy = extras::section_8_depth_two().to_text();
    let c_copy = a_copy.replace('a', "c").replace('b', "d").replace('x', "y");
    let a_names = ["a1", "b1", "a2", "b2", "x1"];
    let c_names = ["c1", "d1", "c2", "d2", "y1"];
    for (text, leading, trailing) in [
        (a_copy.clone() + &c_copy, a_names, c_names),
        (c_copy + &a_copy, c_names, a_names),
    ] {
        let problem: LclProblem = text.parse().unwrap();
        let labels_of = |names: [&str; 5]| -> LabelSet {
            names
                .iter()
                .map(|n| problem.label_by_name(n).unwrap())
                .collect()
        };
        let (leading, trailing) = (labels_of(leading), labels_of(trailing));
        assert!(leading.first() < trailing.first());

        let report = classify(&problem);
        assert_eq!(report.complexity, Complexity::Polynomial { exponent: 2 });
        let cert = report.poly_certificate().expect("polynomial certificate");
        cert.verify(&problem).unwrap();
        assert_eq!(cert.exponent(), 2);
        assert!(
            cert.levels[0].scc.is_subset(leading),
            "{}",
            report.describe()
        );
        assert!(
            cert.levels[1].labels.is_subset(leading),
            "{}",
            report.describe()
        );
        assert_eq!(
            report.poly,
            poly::reference::find_poly_certificate(&problem)
        );
    }
}
