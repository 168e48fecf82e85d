//! Seeded random problem generators and problem-family enumeration, used by the
//! property-based tests, the batch classification engine, and the benchmarks
//! (classification throughput as a function of |Σ| and |C|).
//!
//! Two family shapes are provided:
//!
//! * [`random_problems`] / [`random_family`] — i.i.d. samples from the density
//!   distribution of [`RandomProblemSpec`], for statistical sweeps;
//! * [`enumerate_problems`] — the *complete* family of problems over a fixed
//!   (δ, Σ): every subset of the possible configurations, enumerated
//!   deterministically. There are `2^(|Σ| · multisets)` of them (e.g. 2^18 for
//!   δ = 2 over 3 labels), so callers usually `take(n)` or sample the index
//!   space; the iterator is cheap and lazy.

use lcl_core::{Configuration, Label, LclProblem};
use lcl_rand::SplitMix64;

/// Parameters of the random problem distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomProblemSpec {
    /// Number of children of internal nodes.
    pub delta: usize,
    /// Number of labels.
    pub num_labels: usize,
    /// Probability that any given configuration (parent, child multiset) is allowed.
    pub density: f64,
}

impl Default for RandomProblemSpec {
    fn default() -> Self {
        RandomProblemSpec {
            delta: 2,
            num_labels: 3,
            density: 0.3,
        }
    }
}

/// All (parent, non-decreasing child tuple) pairs over `num_labels` labels — the
/// universe a (δ, Σ) family draws its configurations from, in a fixed order.
/// Shared with the canonical-first enumeration in [`crate::canonical`].
pub(crate) fn configuration_universe(delta: usize, num_labels: usize) -> Vec<(usize, Vec<usize>)> {
    let mut universe = Vec::new();
    let mut children = vec![0usize; delta];
    loop {
        if children.windows(2).all(|w| w[0] <= w[1]) {
            for parent in 0..num_labels {
                universe.push((parent, children.clone()));
            }
        }
        let mut pos = 0;
        loop {
            if pos == delta {
                break;
            }
            children[pos] += 1;
            if children[pos] < num_labels {
                break;
            }
            children[pos] = 0;
            pos += 1;
        }
        if pos == delta {
            break;
        }
    }
    universe
}

pub(crate) fn problem_from_universe(
    delta: usize,
    num_labels: usize,
    universe: &[(usize, Vec<usize>)],
    included: impl Fn(usize) -> bool,
) -> LclProblem {
    let names: Vec<String> = (0..num_labels).map(|i| format!("l{i}")).collect();
    let alphabet = lcl_core::Alphabet::new(names);
    let labels: lcl_core::LabelSet = (0..num_labels as u16).map(Label).collect();
    let configurations: Vec<Configuration> = universe
        .iter()
        .enumerate()
        .filter(|(i, _)| included(*i))
        .map(|(_, (parent, children))| {
            Configuration::new(
                Label(*parent as u16),
                children.iter().map(|&c| Label(c as u16)).collect(),
            )
        })
        .collect();
    LclProblem::new(delta, alphabet, labels, configurations)
}

/// Generates a random problem: every possible configuration is included
/// independently with probability `spec.density`.
pub fn random_problem(spec: &RandomProblemSpec, seed: u64) -> LclProblem {
    assert!(spec.num_labels >= 1);
    assert!((0.0..=1.0).contains(&spec.density));
    let mut rng = SplitMix64::seed_from_u64(seed);
    let universe = configuration_universe(spec.delta, spec.num_labels);
    let included: Vec<bool> = universe
        .iter()
        .map(|_| rng.gen_bool(spec.density))
        .collect();
    problem_from_universe(spec.delta, spec.num_labels, &universe, |i| included[i])
}

/// Generates `count` random problems with consecutive seeds.
pub fn random_problems(spec: &RandomProblemSpec, base_seed: u64, count: usize) -> Vec<LclProblem> {
    (0..count)
        .map(|i| random_problem(spec, base_seed + i as u64))
        .collect()
}

/// Alias of [`random_problems`] with family terminology: the batch workload of
/// the classification engine ("classify this whole family").
pub fn random_family(spec: &RandomProblemSpec, base_seed: u64, count: usize) -> Vec<LclProblem> {
    random_problems(spec, base_seed, count)
}

/// Lazily enumerates the *complete* problem family over (δ, Σ = `num_labels`
/// labels): one problem per subset of the configuration universe, in increasing
/// order of the subset's bitmask. The first element (mask 0) has no
/// configurations at all.
///
/// # Panics
///
/// Panics if the universe has more than 63 configurations (the family would
/// have more than 2^63 members; enumerate a sub-family instead).
pub fn enumerate_problems(delta: usize, num_labels: usize) -> FamilyIter {
    let universe = configuration_universe(delta, num_labels);
    assert!(
        universe.len() <= 63,
        "family over {} possible configurations is too large to enumerate",
        universe.len()
    );
    FamilyIter {
        delta,
        num_labels,
        universe,
        next_mask: 0,
    }
}

/// Iterator over a complete (δ, Σ) problem family; see [`enumerate_problems`].
#[derive(Debug, Clone)]
pub struct FamilyIter {
    delta: usize,
    num_labels: usize,
    universe: Vec<(usize, Vec<usize>)>,
    next_mask: u64,
}

impl FamilyIter {
    /// Total number of problems in the family.
    pub fn family_size(&self) -> u64 {
        1u64 << self.universe.len()
    }

    /// The problem at a specific position (bitmask over the configuration
    /// universe), independent of the iteration state.
    pub fn problem_at(&self, mask: u64) -> LclProblem {
        problem_from_universe(self.delta, self.num_labels, &self.universe, |i| {
            mask & (1 << i) != 0
        })
    }
}

impl Iterator for FamilyIter {
    type Item = LclProblem;

    fn next(&mut self) -> Option<LclProblem> {
        if self.next_mask >= self.family_size() {
            return None;
        }
        let p = self.problem_at(self.next_mask);
        self.next_mask += 1;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::classify;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = RandomProblemSpec::default();
        let a = random_problem(&spec, 42);
        let b = random_problem(&spec, 42);
        assert_eq!(a, b);
        let c = random_problem(&spec, 43);
        assert!(a != c || a.num_configurations() == c.num_configurations());
    }

    #[test]
    fn density_extremes() {
        let empty = random_problem(
            &RandomProblemSpec {
                density: 0.0,
                ..Default::default()
            },
            1,
        );
        assert_eq!(empty.num_configurations(), 0);
        let full = random_problem(
            &RandomProblemSpec {
                density: 1.0,
                ..Default::default()
            },
            1,
        );
        // 3 labels, delta 2: 6 child multisets × 3 parents.
        assert_eq!(full.num_configurations(), 18);
    }

    #[test]
    fn random_problems_classify_without_panicking() {
        let spec = RandomProblemSpec {
            delta: 2,
            num_labels: 3,
            density: 0.35,
        };
        for (i, p) in random_problems(&spec, 7, 20).iter().enumerate() {
            let report = classify(p);
            assert!(
                report.complexity.is_solvable() || report.solvable_labels.is_empty(),
                "problem {i}: inconsistent solvability"
            );
        }
    }

    #[test]
    fn labels_are_always_present_even_with_no_configurations() {
        let p = random_problem(
            &RandomProblemSpec {
                num_labels: 4,
                density: 0.0,
                ..Default::default()
            },
            9,
        );
        assert_eq!(p.num_labels(), 4);
    }

    #[test]
    fn universe_sizes() {
        // δ=2 over k labels: k * C(k+1, 2) configurations; the arithmetic
        // count of `family_universe_len` matches the built universe.
        for (delta, labels, len) in [(2, 2, 2 * 3), (2, 3, 3 * 6), (1, 3, 3 * 3), (3, 3, 30)] {
            assert_eq!(configuration_universe(delta, labels).len(), len);
            assert_eq!(
                crate::canonical::family_universe_len(delta, labels),
                Ok(len)
            );
        }
    }

    #[test]
    fn enumeration_covers_the_family() {
        let family = enumerate_problems(2, 2);
        assert_eq!(family.family_size(), 64);
        let all: Vec<LclProblem> = family.collect();
        assert_eq!(all.len(), 64);
        // Every problem is distinct and over the same (δ, Σ).
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.delta(), 2);
            assert_eq!(p.num_labels(), 2);
            assert_eq!(p.num_configurations(), (i as u64).count_ones() as usize);
        }
        for pair in all.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn problem_at_matches_iteration() {
        let mut family = enumerate_problems(2, 2);
        let at_5 = family.problem_at(5);
        let via_iter = family.nth(5).unwrap();
        assert_eq!(at_5, via_iter);
    }
}
