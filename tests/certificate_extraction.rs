//! The report path's certificate builders are extracted from the masked
//! decision kernel's single Algorithm 3 run. This test checks them against
//! the naive reference: Algorithms 4–5 written as plain subset loops over
//! restricted problems, with the full-fixed-point Algorithm 3 cut at its
//! success entry. Certificate labels, special configuration and builder must
//! be equal, and so must the materialized certificates, which must verify.

use rooted_tree_lcl::core::builder::reference::{
    find_unrestricted_certificate_cut, find_unrestricted_certificate_full,
};
use rooted_tree_lcl::core::builder::{build_log_star_certificate, CertificateBuilder};
use rooted_tree_lcl::core::{
    classify, solvable_labels, Complexity, Configuration, LabelSet, LclProblem,
};
use rooted_tree_lcl::problems::random::{random_problem, RandomProblemSpec};
use rooted_tree_lcl::problems::{catalog, pi_k};

/// Node budget for materialized certificate trees; both sides must agree
/// even when it is exceeded.
const MAX_NODES: usize = 200_000;

/// The non-empty self-sustaining subsets of `solvable_labels(problem)` in
/// Algorithm 4's order: by size, then by bitmask.
fn candidate_subsets(problem: &LclProblem) -> Vec<LabelSet> {
    let mut subsets: Vec<LabelSet> = solvable_labels(problem)
        .subsets()
        .filter(|s| !s.is_empty())
        .filter(|&s| s.iter().all(|l| problem.has_continuation_within(l, s)))
        .collect();
    subsets.sort_by_key(|s| (s.len(), s.bits()));
    subsets
}

/// Algorithm 4 by brute force: the first candidate whose restriction admits a
/// builder.
fn reference_log_star(problem: &LclProblem) -> Option<(LabelSet, CertificateBuilder)> {
    candidate_subsets(problem).into_iter().find_map(|subset| {
        find_unrestricted_certificate_cut(&problem.restrict_to(subset), None).map(|b| (subset, b))
    })
}

/// Algorithm 5 by brute force: the first candidate, and inside it the first
/// special configuration in configuration order, whose parent admits a
/// builder with that label on a leaf.
fn reference_constant(
    problem: &LclProblem,
) -> Option<(LabelSet, Configuration, CertificateBuilder)> {
    for subset in candidate_subsets(problem) {
        let restricted = problem.restrict_to(subset);
        for special in restricted.configurations() {
            if !special.parent_repeats_in_children() {
                continue;
            }
            if let Some(b) = find_unrestricted_certificate_cut(&restricted, Some(special.parent()))
            {
                return Some((subset, special.clone(), b));
            }
        }
    }
    None
}

/// Checks one problem's report against the reference; returns its class.
///
/// Algorithms 4–5 only run on problems that Algorithm 2 places in O(log n);
/// on the others both searches must be absent from the report, and the
/// reference searches are skipped (Π_5's 2^14 subsets would take minutes).
fn check(name: &str, problem: &LclProblem) -> Complexity {
    let report = classify(problem);
    if !report.log_analysis.has_certificate() {
        assert!(
            report.log_star.is_none() && report.constant.is_none(),
            "{name}"
        );
        return report.complexity;
    }

    let reference = reference_log_star(problem);
    assert_eq!(
        report.log_star.is_some(),
        reference.is_some(),
        "{name}: log* verdict"
    );
    if let (Some(found), Some((labels, builder))) = (&report.log_star, reference) {
        assert_eq!(found.certificate_labels, labels, "{name}: log* labels");
        assert_eq!(found.builder, builder, "{name}: log* builder");
        let full = find_unrestricted_certificate_full(&found.restricted, None).unwrap();
        let ours = found.materialize(MAX_NODES);
        assert_eq!(
            ours,
            build_log_star_certificate(&found.restricted, &full, MAX_NODES),
            "{name}: log* certificate"
        );
        if let Ok(cert) = ours {
            cert.verify(problem)
                .unwrap_or_else(|e| panic!("{name}: log* certificate invalid: {e}"));
        }
    }

    let reference = reference_constant(problem);
    assert_eq!(
        report.constant.is_some(),
        reference.is_some(),
        "{name}: O(1) verdict"
    );
    if let (Some(found), Some((labels, special, builder))) = (&report.constant, reference) {
        assert_eq!(found.certificate_labels, labels, "{name}: O(1) labels");
        assert_eq!(found.special, special, "{name}: special configuration");
        assert_eq!(found.builder, builder, "{name}: O(1) builder");
        let full =
            find_unrestricted_certificate_full(&found.restricted, Some(special.parent())).unwrap();
        let ours = found.materialize(MAX_NODES);
        assert_eq!(
            ours.as_ref().map(|c| &c.base),
            build_log_star_certificate(&found.restricted, &full, MAX_NODES).as_ref(),
            "{name}: O(1) certificate"
        );
        if let Ok(cert) = ours {
            cert.verify(problem)
                .unwrap_or_else(|e| panic!("{name}: O(1) certificate invalid: {e}"));
        }
    }
    report.complexity
}

#[test]
fn catalog_and_pi_k_certificates_match_the_reference() {
    for entry in catalog() {
        check(entry.name, &entry.problem);
    }
    for k in 1..=5 {
        check(&format!("pi-{k}"), &pi_k::pi_k(k));
    }
}

/// `problem` without its special configurations (those repeating the parent
/// among the children): uniform random problems are almost never Θ(log* n),
/// these often are.
fn without_special_configurations(problem: &LclProblem) -> LclProblem {
    let configurations = problem
        .configurations()
        .iter()
        .filter(|c| !c.parent_repeats_in_children())
        .cloned()
        .collect();
    LclProblem::new(
        problem.delta(),
        problem.alphabet().clone(),
        problem.labels(),
        configurations,
    )
}

#[test]
fn random_family_certificates_match_the_reference() {
    let mut classes = Vec::new();
    for delta in [2, 3] {
        for num_labels in 2..=4 {
            for seed in 0..16 {
                let uniform = random_problem(
                    &RandomProblemSpec {
                        delta,
                        num_labels,
                        density: 0.3,
                    },
                    seed,
                );
                let coloring_like = without_special_configurations(&random_problem(
                    &RandomProblemSpec {
                        delta,
                        num_labels,
                        density: 0.5,
                    },
                    seed,
                ));
                for (kind, problem) in [("uniform", uniform), ("coloring-like", coloring_like)] {
                    let name = format!("{kind} δ={delta} |Σ|={num_labels} seed={seed}");
                    let class = check(&name, &problem).short_name();
                    if !classes.contains(&class) {
                        classes.push(class);
                    }
                }
            }
        }
    }
    for class in ["unsolvable", "O(1)", "log*", "log", "poly"] {
        assert!(
            classes.contains(&class),
            "the family has no {class} problem"
        );
    }
}
