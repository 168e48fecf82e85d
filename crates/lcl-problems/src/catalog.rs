//! A named catalog of the paper's sample problems with their expected complexity
//! classes, used by the E1/E2 experiments ("classify every sample problem"), the
//! CLI, and the integration tests.

use std::sync::OnceLock;

use lcl_core::{Complexity, LclProblem};

use crate::{coloring, extras, mis, pi_k};

/// The expected complexity class of a catalog entry, as stated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedComplexity {
    /// O(1) rounds.
    Constant,
    /// Θ(log* n) rounds.
    LogStar,
    /// Θ(log n) rounds.
    Log,
    /// Θ(n^{1/k}) rounds for the given k.
    Polynomial(usize),
    /// No solution exists on deep trees.
    Unsolvable,
}

impl ExpectedComplexity {
    /// Checks a classifier verdict against the expectation.
    pub fn matches(self, actual: Complexity) -> bool {
        match (self, actual) {
            (ExpectedComplexity::Constant, Complexity::Constant) => true,
            (ExpectedComplexity::LogStar, Complexity::LogStar) => true,
            (ExpectedComplexity::Log, Complexity::Log) => true,
            (ExpectedComplexity::Polynomial(k), Complexity::Polynomial { exponent }) => {
                k == exponent
            }
            (ExpectedComplexity::Unsolvable, Complexity::Unsolvable) => true,
            _ => false,
        }
    }

    /// Human-readable form used in experiment tables.
    pub fn describe(self) -> String {
        match self {
            ExpectedComplexity::Constant => "O(1)".into(),
            ExpectedComplexity::LogStar => "Θ(log* n)".into(),
            ExpectedComplexity::Log => "Θ(log n)".into(),
            ExpectedComplexity::Polynomial(k) => format!("Θ(n^(1/{k}))"),
            ExpectedComplexity::Unsolvable => "unsolvable".into(),
        }
    }
}

/// A named problem together with its paper reference and expected class.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Short identifier (stable, used on the command line).
    pub name: &'static str,
    /// Where the problem appears in the paper.
    pub reference: &'static str,
    /// The expected complexity class.
    pub expected: ExpectedComplexity,
    /// The problem itself.
    pub problem: LclProblem,
}

/// The full catalog of sample problems.
pub fn catalog() -> Vec<CatalogEntry> {
    entries().to_vec()
}

/// The catalog, built once on first use.
fn entries() -> &'static [CatalogEntry] {
    static CATALOG: OnceLock<Vec<CatalogEntry>> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

/// Builds every catalog entry.
fn build_catalog() -> Vec<CatalogEntry> {
    let mut entries = vec![
        CatalogEntry {
            name: "3-coloring",
            reference: "Section 1.2, configurations (1)",
            expected: ExpectedComplexity::LogStar,
            problem: coloring::three_coloring_binary(),
        },
        CatalogEntry {
            name: "2-coloring",
            reference: "Section 1.2, configurations (2)",
            expected: ExpectedComplexity::Polynomial(1),
            problem: coloring::two_coloring_binary(),
        },
        CatalogEntry {
            name: "4-coloring",
            reference: "Section 1.2 (more colors)",
            expected: ExpectedComplexity::LogStar,
            problem: coloring::coloring(2, 4),
        },
        CatalogEntry {
            name: "3-coloring-ternary",
            reference: "Section 1.2 generalized to δ = 3",
            expected: ExpectedComplexity::LogStar,
            problem: coloring::coloring(3, 3),
        },
        CatalogEntry {
            name: "mis",
            reference: "Section 1.3, configurations (3)",
            expected: ExpectedComplexity::Constant,
            problem: mis::mis_binary(),
        },
        CatalogEntry {
            name: "mis-ternary",
            reference: "Section 1.3 generalized to δ = 3",
            expected: ExpectedComplexity::Constant,
            problem: mis::mis(3),
        },
        CatalogEntry {
            name: "independent-set",
            reference: "independent set without maximality (baseline)",
            expected: ExpectedComplexity::Constant,
            problem: mis::independent_set_binary(),
        },
        CatalogEntry {
            name: "branch-2-coloring",
            reference: "Section 1.4, configurations (5)",
            expected: ExpectedComplexity::Log,
            problem: coloring::branch_two_coloring(),
        },
        CatalogEntry {
            name: "figure-2-combination",
            reference: "Figure 2, problem Π₀",
            expected: ExpectedComplexity::Log,
            problem: coloring::figure_2_combination(),
        },
        CatalogEntry {
            name: "trivial",
            reference: "baseline (single always-allowed label)",
            expected: ExpectedComplexity::Constant,
            problem: extras::trivial(2),
        },
        CatalogEntry {
            name: "unsolvable",
            reference: "baseline (no allowed configurations)",
            expected: ExpectedComplexity::Unsolvable,
            problem: extras::unsolvable(2),
        },
        CatalogEntry {
            name: "both-colors-below",
            reference: "extra O(1) example",
            expected: ExpectedComplexity::Constant,
            problem: extras::both_colors_below(2),
        },
    ];
    for k in 1..=4 {
        let name: &'static str = match k {
            1 => "pi-1",
            2 => "pi-2",
            3 => "pi-3",
            _ => "pi-4",
        };
        entries.push(CatalogEntry {
            name,
            reference: "Section 8, problem Π_k",
            expected: ExpectedComplexity::Polynomial(k),
            problem: pi_k::pi_k(k),
        });
    }
    entries
}

/// Looks a catalog entry up by name.
pub fn by_name(name: &str) -> Option<CatalogEntry> {
    entries().iter().find(|e| e.name == name).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::classify;

    #[test]
    fn catalog_is_nonempty_and_names_are_unique() {
        let entries = catalog();
        assert!(entries.len() >= 15);
        let mut names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len());
    }

    #[test]
    fn every_name_resolves_to_an_equal_freshly_built_problem() {
        for fresh in build_catalog() {
            let found = by_name(fresh.name).expect("every catalog name resolves");
            assert_eq!(found.name, fresh.name);
            assert_eq!(found.expected, fresh.expected);
            assert_eq!(found.problem, fresh.problem, "{}", fresh.name);
        }
        assert!(by_name("no-such-problem").is_none());
    }

    #[test]
    fn every_entry_classifies_as_expected() {
        // This is experiment E1: the classifier reproduces the complexity classes
        // the paper states for all of its sample problems.
        for entry in catalog() {
            let report = classify(&entry.problem);
            assert!(
                entry.expected.matches(report.complexity),
                "{}: expected {}, classifier said {}",
                entry.name,
                entry.expected.describe(),
                report.complexity
            );
        }
    }

    #[test]
    fn all_four_classes_are_represented() {
        // Table 1's rooted-regular-trees column: the classes O(1), Θ(log* n),
        // Θ(log n) and n^{Θ(1)} are all non-empty.
        let entries = catalog();
        for expected in [
            ExpectedComplexity::Constant,
            ExpectedComplexity::LogStar,
            ExpectedComplexity::Log,
            ExpectedComplexity::Polynomial(1),
            ExpectedComplexity::Polynomial(2),
        ] {
            assert!(
                entries.iter().any(|e| e.expected == expected),
                "no catalog entry with expected class {expected:?}"
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("mis").is_some());
        assert!(by_name("definitely-missing").is_none());
    }

    #[test]
    fn expected_complexity_matching() {
        assert!(ExpectedComplexity::Constant.matches(Complexity::Constant));
        assert!(!ExpectedComplexity::Constant.matches(Complexity::Log));
        assert!(ExpectedComplexity::Polynomial(2).matches(Complexity::Polynomial { exponent: 2 }));
        assert!(!ExpectedComplexity::Polynomial(2).matches(Complexity::Polynomial { exponent: 1 }));
        assert!(ExpectedComplexity::Log.describe().contains("log"));
    }
}
