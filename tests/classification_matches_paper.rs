//! Cross-crate integration test: the classifier reproduces the complexity classes
//! the paper states for every catalog problem (experiment E1), and the certificates
//! it returns verify against their definitions.

use rooted_tree_lcl::core::{classify, Complexity};
use rooted_tree_lcl::problems::{catalog, pi_k};

#[test]
fn catalog_classifications_match_the_paper() {
    for entry in catalog() {
        let report = classify(&entry.problem);
        assert!(
            entry.expected.matches(report.complexity),
            "{}: expected {}, got {}",
            entry.name,
            entry.expected.describe(),
            report.complexity
        );
    }
}

#[test]
fn certificates_in_reports_verify_against_their_definitions() {
    for entry in catalog() {
        let report = classify(&entry.problem);
        if let Some(cert) = report.log_certificate() {
            cert.verify(&entry.problem)
                .unwrap_or_else(|e| panic!("{}: O(log n) certificate invalid: {e}", entry.name));
        }
        if let Some(cert) = report.log_star_certificate() {
            cert.unwrap()
                .verify(&entry.problem)
                .unwrap_or_else(|e| panic!("{}: O(log* n) certificate invalid: {e}", entry.name));
        }
        if let Some(cert) = report.constant_certificate() {
            cert.unwrap()
                .verify(&entry.problem)
                .unwrap_or_else(|e| panic!("{}: O(1) certificate invalid: {e}", entry.name));
        }
    }
}

#[test]
fn class_nesting_is_respected() {
    // Constant ⇒ log* certificate exists ⇒ log certificate exists.
    for entry in catalog() {
        let report = classify(&entry.problem);
        match report.complexity {
            Complexity::Constant => {
                assert!(report.constant.is_some());
                assert!(report.log_star.is_some());
                assert!(report.log_certificate().is_some());
            }
            Complexity::LogStar => {
                assert!(report.constant.is_none());
                assert!(report.log_star.is_some());
                assert!(report.log_certificate().is_some());
            }
            Complexity::Log => {
                assert!(report.log_star.is_none());
                assert!(report.log_certificate().is_some());
            }
            Complexity::Polynomial { .. } => {
                assert!(report.log_certificate().is_none());
            }
            Complexity::Unsolvable => {
                assert!(report.solvable_labels.is_empty());
            }
        }
    }
}

#[test]
fn pi_k_exact_exponent_matches_k() {
    // Theorem 8.3: Π_k has complexity exactly Θ(n^{1/k}) — the built-in
    // differential oracle of the exponent decision procedure.
    for k in 1..=5 {
        let problem = pi_k::pi_k(k);
        let report = classify(&problem);
        assert_eq!(
            report.complexity,
            Complexity::Polynomial { exponent: k },
            "Π_{k}"
        );
        let cert = report.poly_certificate().expect("polynomial certificate");
        assert_eq!(cert.exponent(), k);
        cert.verify(&problem).unwrap();
        // The exponent never exceeds the pruning iteration count (the
        // Ω(n^{1/iterations}) side of Theorem 5.2); on Π_k they coincide.
        assert_eq!(report.log_analysis.iterations(), k);
    }
}

// The brute-force reference for the exact exponent: the same trim/flexible-SCC
// descent, but over *materialized* restrictions (`restrict_to` +
// `solvable_labels` + `Automaton::components`) instead of the masked kernels,
// after Algorithm 2 run over materialized restrictions too.

use rooted_tree_lcl::core::poly::reference::find_poly_certificate as reference_certificate;
use rooted_tree_lcl::core::LclProblem;

/// `Some(k)` iff the reference places the problem in the polynomial region.
fn reference_exponent(problem: &LclProblem) -> Option<usize> {
    reference_certificate(problem).map(|cert| cert.exponent())
}

fn assert_exponent_matches_reference(problem: &LclProblem, context: &str) {
    let complexity = classify(problem).complexity;
    match (reference_exponent(problem), complexity) {
        (Some(k), Complexity::Polynomial { exponent }) => {
            assert_eq!(exponent, k, "{context}: {}", problem.to_text());
        }
        (None, Complexity::Polynomial { .. }) => {
            panic!(
                "{context}: classifier says polynomial, reference disagrees: {}",
                problem.to_text()
            );
        }
        (Some(k), other) => {
            panic!(
                "{context}: reference says Θ(n^(1/{k})), classifier says {other}: {}",
                problem.to_text()
            );
        }
        (None, _) => {}
    }
}

#[test]
fn exponent_procedure_matches_brute_force_reference_exhaustively() {
    // Every problem over δ = 2 and two labels: 2 × 3 = 6 possible
    // configurations, 64 problems — the full universe the sweep golden covers.
    let names = ["a", "b"];
    let universe: Vec<(usize, [usize; 2])> = (0..2)
        .flat_map(|p| [(p, [0, 0]), (p, [0, 1]), (p, [1, 1])])
        .collect();
    for mask in 0u32..1 << universe.len() {
        let mut b = LclProblem::builder(2);
        b.label("a");
        b.label("b");
        for (i, (p, cs)) in universe.iter().enumerate() {
            if mask & (1 << i) != 0 {
                b.configuration(names[*p], &[names[cs[0]], names[cs[1]]]);
            }
        }
        let problem = b.build();
        assert_exponent_matches_reference(&problem, "exhaustive δ=2 2-label");
    }
}

#[test]
fn exponent_procedure_matches_reference_on_deep_and_random_problems() {
    use rooted_tree_lcl::problems::random::{random_problem, RandomProblemSpec};
    // Deep chains: Π_1..Π_4 plus the Section 8 k = 2 construction.
    for k in 1..=4 {
        assert_exponent_matches_reference(&pi_k::pi_k(k), "pi_k");
    }
    let section8 = rooted_tree_lcl::problems::extras::section_8_depth_two();
    assert_exponent_matches_reference(&section8, "section 8 (k = 2)");
    // Random 3- and 4-label problems, and sparse δ=1 path problems.
    for seed in 0..120 {
        for (delta, labels, density) in [(2, 3, 0.25), (2, 4, 0.2), (1, 3, 0.3)] {
            let spec = RandomProblemSpec {
                delta,
                num_labels: labels,
                density,
            };
            let problem = random_problem(&spec, seed);
            assert_exponent_matches_reference(&problem, "random");
        }
    }
}

#[test]
fn exponent_is_bounded_by_pruning_iterations() {
    use rooted_tree_lcl::problems::random::{random_problem, RandomProblemSpec};
    for seed in 0..200 {
        let spec = RandomProblemSpec {
            delta: 2,
            num_labels: 3,
            density: 0.3,
        };
        let problem = random_problem(&spec, seed);
        let report = classify(&problem);
        if let Complexity::Polynomial { exponent } = report.complexity {
            assert!(exponent >= 1);
            assert!(
                exponent <= report.log_analysis.iterations().max(1),
                "exponent {exponent} exceeds pruning iterations {} on {}",
                report.log_analysis.iterations(),
                problem.to_text()
            );
            report
                .poly_certificate()
                .expect("polynomial certificate")
                .verify(&problem)
                .unwrap();
        }
    }
}
