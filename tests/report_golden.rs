//! Byte-exact golden of the full classification report: the JSON rendering
//! (`lcl_serve::report_to_json`) plus `describe()` for every catalog problem,
//! Π_1…Π_6, the Section 8 construction and a seeded random family in which
//! every class appears. It pins the pruning trace, the fixed point, the
//! O(log n) certificate, the Θ(n^{1/k}) chain and the log*/O(1) witnesses.
//!
//! Regenerate with
//! `cargo test --release --test report_golden -- --ignored record_report_goldens`
//! only when a report is meant to change.

use std::collections::BTreeMap;

use rooted_tree_lcl::core::{classify, classify_complexity, LclProblem};
use rooted_tree_lcl::problems::random::{random_problem, RandomProblemSpec};
use rooted_tree_lcl::problems::{catalog, extras, pi_k};
use rooted_tree_lcl::serve::report_to_json;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/report_goldens.txt");

/// Problems kept per (family, class) bucket of the random family.
const PER_CLASS: usize = 12;

/// The random family: for each (δ, |Σ|), scan seeds in order (densities
/// cycling) and keep the first `PER_CLASS` problems of each class.
fn random_cases() -> Vec<(String, LclProblem)> {
    const DENSITIES: [f64; 4] = [0.15, 0.25, 0.35, 0.5];
    let mut cases = Vec::new();
    for (delta, num_labels) in [(2, 3), (2, 4), (1, 4), (3, 3)] {
        let mut kept: BTreeMap<&'static str, usize> = BTreeMap::new();
        for seed in 0..4000u64 {
            let density = DENSITIES[seed as usize % DENSITIES.len()];
            let spec = RandomProblemSpec {
                delta,
                num_labels,
                density,
            };
            let problem = random_problem(&spec, seed);
            let class = classify_complexity(&problem).short_name();
            let count = kept.entry(class).or_insert(0);
            if *count < PER_CLASS {
                *count += 1;
                cases.push((
                    format!("random d{delta} l{num_labels} density {density} seed {seed}"),
                    problem,
                ));
            }
        }
    }
    cases
}

fn all_cases() -> Vec<(String, LclProblem)> {
    let mut cases: Vec<(String, LclProblem)> = catalog()
        .into_iter()
        .map(|e| (format!("catalog {}", e.name), e.problem))
        .collect();
    cases.extend((1..=6).map(|k| (format!("pi_{k}"), pi_k::pi_k(k))));
    cases.push(("section 8 (k = 2)".into(), extras::section_8_depth_two()));
    cases.extend(random_cases());
    cases
}

fn render(cases: &[(String, LclProblem)]) -> String {
    let mut out = String::new();
    for (name, problem) in cases {
        let report = classify(problem);
        out.push_str(&format!("== {name}\n{}\n", report_to_json(&report)));
        out.push_str(&report.describe());
    }
    out
}

#[test]
fn reports_match_the_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    let actual = render(&all_cases());
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "first difference at line {}", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "line count");
    assert_eq!(actual, golden);
}

#[test]
fn random_family_covers_every_class() {
    let classes: std::collections::BTreeSet<&str> = random_cases()
        .iter()
        .map(|(_, p)| classify_complexity(p).short_name())
        .collect();
    assert_eq!(
        classes.into_iter().collect::<Vec<_>>(),
        ["O(1)", "log", "log*", "poly", "unsolvable"]
    );
}

#[test]
#[ignore = "rewrites tests/data/report_goldens.txt"]
fn record_report_goldens() {
    std::fs::write(GOLDEN_PATH, render(&all_cases())).expect("write golden");
}
