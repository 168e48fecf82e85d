//! Property-based tests over random problems, random trees, and random label
//! sets, driven by the workspace's own seeded PRNG (`lcl-rand`). Each property
//! runs a fixed number of deterministic cases, so failures reproduce exactly.

use std::collections::BTreeSet;

use lcl_rand::SplitMix64;
use rooted_tree_lcl::core::{classify, solvable_labels, Complexity, Label, LabelSet};
use rooted_tree_lcl::prelude::*;
use rooted_tree_lcl::problems::random::{random_problem, RandomProblemSpec};
use rooted_tree_lcl::trees::{generators, rcp};

const CASES: u64 = 48;

/// The reference model: `LabelSet` must agree with `BTreeSet<Label>` on every
/// operation, on random inputs across the whole 0..128 index range.
#[test]
fn label_set_agrees_with_btreeset_model() {
    let mut rng = SplitMix64::seed_from_u64(0xface);
    for case in 0..500 {
        let size_a = rng.gen_index(20);
        let size_b = rng.gen_index(20);
        let a_model: BTreeSet<Label> = (0..size_a)
            .map(|_| Label(rng.gen_index(128) as u16))
            .collect();
        let b_model: BTreeSet<Label> = (0..size_b)
            .map(|_| Label(rng.gen_index(128) as u16))
            .collect();
        let a = LabelSet::from_btree(&a_model);
        let b = LabelSet::from_btree(&b_model);

        // Cardinality, membership, iteration order.
        assert_eq!(a.len(), a_model.len(), "case {case}: len");
        assert_eq!(a.is_empty(), a_model.is_empty());
        let probe = Label(rng.gen_index(128) as u16);
        assert_eq!(a.contains(probe), a_model.contains(&probe));
        let iterated: Vec<Label> = a.iter().collect();
        let model_order: Vec<Label> = a_model.iter().copied().collect();
        assert_eq!(iterated, model_order, "case {case}: ascending iteration");
        assert_eq!(a.first(), a_model.first().copied());

        // Set algebra.
        let union_model: BTreeSet<Label> = a_model.union(&b_model).copied().collect();
        let inter_model: BTreeSet<Label> = a_model.intersection(&b_model).copied().collect();
        let diff_model: BTreeSet<Label> = a_model.difference(&b_model).copied().collect();
        assert_eq!(a.union(b).to_btree(), union_model, "case {case}: union");
        assert_eq!(
            a.intersection(b).to_btree(),
            inter_model,
            "case {case}: intersection"
        );
        assert_eq!(
            a.difference(b).to_btree(),
            diff_model,
            "case {case}: difference"
        );
        assert_eq!(a.is_subset(b), a_model.is_subset(&b_model));
        assert_eq!(a.is_superset(b), a_model.is_superset(&b_model));
        assert_eq!(a.is_disjoint(b), a_model.is_disjoint(&b_model));

        // Mutation round trip.
        let mut grown = a;
        let mut grown_model = a_model.clone();
        assert_eq!(grown.insert(probe), grown_model.insert(probe));
        assert_eq!(grown.remove(probe), grown_model.remove(&probe));
        assert_eq!(grown.to_btree(), grown_model, "case {case}: insert/remove");

        // Rank agrees with the number of strictly smaller members.
        let r = a.rank(probe);
        assert_eq!(r, a_model.iter().filter(|l| **l < probe).count());
    }
}

/// Random full trees really are full δ-ary trees of the requested size.
#[test]
fn random_full_trees_are_full() {
    let mut rng = SplitMix64::seed_from_u64(1);
    for _ in 0..CASES {
        let delta = 1 + rng.gen_index(3);
        let min_nodes = 1 + rng.gen_index(299);
        let seed = rng.next_u64();
        let tree = FlatTree::random_full(delta, min_nodes, seed);
        assert!(tree.len() >= min_nodes);
        assert!(tree.is_full_dary(delta));
        assert!(tree.validate().is_ok());
    }
}

/// RCP(p) partitions satisfy Definition 5.8 and have O(log n) layers.
#[test]
fn rcp_partitions_are_valid() {
    let mut rng = SplitMix64::seed_from_u64(2);
    for _ in 0..CASES {
        let p = 1 + rng.gen_index(5);
        let min_nodes = 2 + rng.gen_index(498);
        let seed = rng.next_u64();
        let tree = generators::random_full(2, min_nodes, seed);
        let part = rcp::reference::rcp_partition(&tree, p);
        assert!(rcp::reference::validate_partition(&tree, &part).is_ok());
        // Generous logarithmic bound (Lemma 5.9 gives shrinkage 1/(6p) per layer).
        let bound = 12 * p * ((tree.len() as f64).ln().ceil() as usize + 1) + 1;
        assert!(part.num_layers() <= bound);
    }
}

/// Classifier invariants on random problems: solvability agrees with the
/// greatest-fixed-point test, the classes are internally consistent, and for
/// solvable problems the unified solver produces verifiable solutions.
#[test]
fn classifier_and_solver_agree_on_random_problems() {
    for seed in 0..CASES {
        let spec = RandomProblemSpec {
            delta: 2,
            num_labels: 3,
            density: 0.30,
        };
        let problem = random_problem(&spec, seed);
        let report = classify(&problem);
        assert_eq!(
            report.complexity == Complexity::Unsolvable,
            report.solvable_labels.is_empty()
        );
        match report.complexity {
            Complexity::Constant => assert!(report.constant.is_some()),
            Complexity::LogStar => {
                assert!(report.log_star.is_some() && report.constant.is_none())
            }
            Complexity::Log => {
                assert!(report.log_certificate().is_some() && report.log_star.is_none())
            }
            Complexity::Polynomial { exponent } => {
                assert!(exponent >= 1);
                assert!(report.log_certificate().is_none());
                let cert = report.poly_certificate().expect("polynomial certificate");
                assert_eq!(cert.exponent(), exponent);
            }
            Complexity::Unsolvable => {}
        }
        if report.complexity.is_solvable() {
            let tree = FlatTree::random_full(2, 101, seed);
            let ids = IdAssignment::sequential_len(tree.len());
            let idx = tree.level_index();
            let outcome = solve_flat(
                &problem,
                &report,
                &tree,
                &idx,
                &ids,
                &mut SolveScratch::new(),
            );
            let outcome = outcome.expect("solvable problems must be solved");
            assert!(Labeling::from_labels(&outcome.labels)
                .verify(&tree, &problem)
                .is_ok());
        }
    }
}

/// Restriction is monotone: restricting to the solvable labels never changes
/// solvability, and path-forms of restrictions are restrictions of path-forms.
#[test]
fn restriction_invariants() {
    for seed in 0..CASES {
        let spec = RandomProblemSpec {
            delta: 2,
            num_labels: 4,
            density: 0.25,
        };
        let problem = random_problem(&spec, seed);
        let solvable = solvable_labels(&problem);
        let restricted = problem.restrict_to(solvable);
        assert!(restricted.is_restriction_of(&problem));
        assert_eq!(solvable_labels(&restricted), solvable);
        let pf_restricted = restricted.path_form();
        let pf = problem.path_form();
        assert!(pf_restricted.is_restriction_of(&pf));
    }
}

/// Restricting through the `LabelSet` API agrees with a `BTreeSet`-driven
/// reference restriction computed by hand.
#[test]
fn restriction_agrees_with_btreeset_model() {
    let mut rng = SplitMix64::seed_from_u64(3);
    for seed in 0..CASES {
        let spec = RandomProblemSpec {
            delta: 2,
            num_labels: 4,
            density: 0.35,
        };
        let problem = random_problem(&spec, seed);
        // Random subset of the labels, built as a BTreeSet model first.
        let subset_model: BTreeSet<Label> = problem
            .labels()
            .iter()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        let subset = LabelSet::from_btree(&subset_model);
        let restricted = problem.restrict_to(subset);
        assert_eq!(restricted.labels().to_btree(), subset_model);
        // Reference: a configuration survives iff all its labels are in the model.
        let expected: Vec<_> = problem
            .configurations()
            .iter()
            .filter(|c| c.labels().all(|l| subset_model.contains(&l)))
            .cloned()
            .collect();
        assert_eq!(restricted.configurations(), expected.as_slice());
    }
}
