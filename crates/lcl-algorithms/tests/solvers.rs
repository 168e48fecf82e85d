//! Per-solver behaviour of the flat solvers: valid labelings on the paper's
//! problems across tree shapes, the growth of the round counts with n, the
//! shape of the Π_k and generalized partitions, and the Θ(n) baselines.

use lcl_algorithms::flat::{
    pi_k_partition_pass, poly_partition_flat, solve_by_depth_parity_flat, solve_constant_flat,
    solve_greedy_flat, solve_log_flat, solve_log_star_flat, solve_mis_four_rounds_flat,
    solve_pi_k_flat, solve_poly_flat, FlatOutcome, SolveScratch,
};
use lcl_algorithms::{ceil_nth_root, oracle, Part, PolyPart};
use lcl_core::{
    classify, ConstantCertificate, Labeling, LclProblem, LogCertificate, LogStarCertificate,
    PolyCertificate,
};
use lcl_problems::{coloring, extras, mis, pi_k};
use lcl_sim::flat::{chain_color_reduction_flat, CvScratch};
use lcl_sim::programs::ChainColorReduction;
use lcl_sim::{IdAssignment, Simulator};
use lcl_trees::rcp::rcp_partition_flat;
use lcl_trees::{generators, FlatTree};

/// Checks `outcome` with the independent reference checker of `lcl-core`.
fn assert_valid(problem: &LclProblem, tree: &FlatTree, outcome: &FlatOutcome) {
    Labeling::from_labels(&outcome.labels)
        .verify(tree, problem)
        .unwrap_or_else(|e| panic!("`{}` produced an invalid labeling: {e}", outcome.algorithm));
}

fn constant_cert(problem: &LclProblem) -> ConstantCertificate {
    classify(problem)
        .constant_certificate()
        .expect("problem must be O(1)")
        .unwrap()
}

fn log_star_cert(problem: &LclProblem) -> LogStarCertificate {
    classify(problem)
        .log_star
        .expect("problem must be O(log* n)")
        .materialize(4_000_000)
        .unwrap()
}

fn log_cert(problem: &LclProblem) -> LogCertificate {
    classify(problem)
        .log_certificate()
        .expect("problem must be O(log n)")
        .clone()
}

fn poly_cert(problem: &LclProblem) -> PolyCertificate {
    lcl_core::find_poly_certificate(problem).expect("polynomial-region problem")
}

fn constant(problem: &LclProblem, tree: &FlatTree) -> FlatOutcome {
    let cert = constant_cert(problem);
    solve_constant_flat(
        problem,
        &cert,
        &tree.level_index(),
        &mut SolveScratch::new(),
    )
}

fn log_star(
    problem: &LclProblem,
    cert: &LogStarCertificate,
    tree: &FlatTree,
    ids: &IdAssignment,
) -> FlatOutcome {
    let idx = tree.level_index();
    solve_log_star_flat(problem, cert, tree, &idx, ids, &mut SolveScratch::new())
}

fn log(problem: &LclProblem, cert: &LogCertificate, tree: &FlatTree) -> FlatOutcome {
    solve_log_flat(problem, cert, tree, &mut SolveScratch::new()).unwrap()
}

fn pi(problem: &LclProblem, k: usize, tree: &FlatTree) -> FlatOutcome {
    let idx = tree.level_index();
    solve_pi_k_flat(problem, k, tree, &idx, &mut SolveScratch::new())
}

fn poly(problem: &LclProblem, cert: &PolyCertificate, tree: &FlatTree) -> FlatOutcome {
    let idx = tree.level_index();
    solve_poly_flat(problem, cert, tree, &idx, &mut SolveScratch::new()).unwrap()
}

// -- O(1): the 4-round MIS algorithm and the certificate solver ------------

#[test]
fn mis_four_rounds_on_balanced_and_random_trees() {
    let problem = mis::mis_binary();
    let mut trees: Vec<FlatTree> = [1, 2, 3, 6, 9]
        .into_iter()
        .map(|depth| FlatTree::balanced(2, depth))
        .collect();
    trees.extend((0..5).map(|seed| FlatTree::random_full(2, 1001, seed)));
    for tree in trees {
        let outcome =
            solve_mis_four_rounds_flat(&problem, &tree.level_index(), &mut SolveScratch::new());
        assert_valid(&problem, &tree, &outcome);
    }
}

#[test]
fn mis_output_is_independent_of_identifiers() {
    // The algorithm only uses port numbers: the message-passing program run
    // under sequential and random identifiers outputs exactly the flat labels.
    let problem = mis::mis_binary();
    let tree = FlatTree::random_full(2, 301, 2);
    let flat = solve_mis_four_rounds_flat(&problem, &tree.level_index(), &mut SolveScratch::new());
    for ids in [
        IdAssignment::sequential_len(tree.len()),
        IdAssignment::random_permutation_len(tree.len(), 9),
    ] {
        let (outputs, _) = Simulator::new(&tree, ids).run(&oracle::MisFourRounds);
        let labels: Vec<_> = outputs
            .iter()
            .map(|c| problem.label_by_name(&c.to_string()).unwrap())
            .collect();
        assert_eq!(flat.labels, labels);
    }
}

#[test]
fn constant_solver_solves_mis_on_random_trees() {
    let problem = mis::mis_binary();
    for seed in 0..4 {
        let tree = FlatTree::random_full(2, 701, seed);
        assert_valid(&problem, &tree, &constant(&problem, &tree));
    }
    let problem = mis::mis(3);
    let tree = FlatTree::random_full(3, 601, 8);
    assert_valid(&problem, &tree, &constant(&problem, &tree));
}

#[test]
fn constant_solver_solves_the_extra_constant_problems() {
    for problem in [
        extras::trivial(2),
        extras::copy_child(2),
        extras::both_colors_below(2),
        extras::chain_or_free(2),
    ] {
        let tree = FlatTree::random_full(2, 301, 5);
        assert_valid(&problem, &tree, &constant(&problem, &tree));
    }
}

#[test]
fn constant_round_count_does_not_depend_on_n() {
    let problem = mis::mis_binary();
    let small = constant(&problem, &FlatTree::balanced(2, 5));
    let large = constant(&problem, &FlatTree::random_full(2, 30_001, 2));
    assert_eq!(small.rounds.total(), large.rounds.total());
}

// -- Θ(log* n): certificate splitting ---------------------------------------

#[test]
fn log_star_solver_three_colors_random_balanced_and_skewed_trees() {
    let problem = coloring::three_coloring_binary();
    let cert = log_star_cert(&problem);
    for seed in 0..4 {
        let tree = FlatTree::random_full(2, 501, seed);
        let ids = IdAssignment::random_permutation_len(tree.len(), seed);
        assert_valid(&problem, &tree, &log_star(&problem, &cert, &tree, &ids));
    }
    for tree in [
        FlatTree::balanced(2, 9),
        FlatTree::from_tree(&generators::random_skewed(2, 801, 0.9, 3)),
        FlatTree::hairy_path(2, 200),
    ] {
        let ids = IdAssignment::sequential_len(tree.len());
        assert_valid(&problem, &tree, &log_star(&problem, &cert, &tree, &ids));
    }
}

#[test]
fn log_star_solver_four_colors_delta_three() {
    let problem = coloring::coloring(3, 4);
    let cert = log_star_cert(&problem);
    let tree = FlatTree::random_full(3, 401, 17);
    let ids = IdAssignment::random_permutation_len(tree.len(), 2);
    assert_valid(&problem, &tree, &log_star(&problem, &cert, &tree, &ids));
}

#[test]
fn log_star_rounds_are_constants_plus_log_star() {
    let problem = coloring::three_coloring_binary();
    let cert = log_star_cert(&problem);
    let rounds = |n: usize| {
        let tree = FlatTree::random_full(2, n, 1);
        let ids = IdAssignment::random_permutation_len(tree.len(), 1);
        log_star(&problem, &cert, &tree, &ids).rounds.total()
    };
    let (r_small, r_large) = (rounds(101), rounds(20_001));
    // 200× more nodes: the round count barely moves (log* growth).
    assert!(r_large <= r_small + 3, "small {r_small}, large {r_large}");
}

#[test]
fn log_star_colouring_phase_counts_the_simulator_rounds() {
    // The solver records the Cole–Vishkin rounds without running the
    // reduction; they must be the rounds of the message-passing program on
    // the same identifiers, sparse ones (up to n³) included.
    let problem = coloring::three_coloring_binary();
    let cert = log_star_cert(&problem);
    for (n, seed) in [(5, 1), (11, 0), (501, 3), (4097, 2)] {
        let tree = FlatTree::random_full(2, n, seed);
        for ids in [
            IdAssignment::random_permutation_len(tree.len(), seed),
            IdAssignment::random_sparse_len(tree.len(), seed),
        ] {
            let outcome = log_star(&problem, &cert, &tree, &ids);
            let (_, metrics) = Simulator::new(&tree, ids).run(&ChainColorReduction);
            let phase = &outcome.rounds.phases()[0];
            assert_eq!(phase.0, "Cole–Vishkin colour reduction");
            assert_eq!(phase.1, metrics.rounds, "n = {n}, seed = {seed}");
            assert!(phase.2, "the colouring phase is measured");
        }
    }
}

#[test]
#[should_panic(expected = "one identifier per node is required")]
fn log_star_solver_rejects_identifiers_of_another_size() {
    let problem = coloring::three_coloring_binary();
    let cert = log_star_cert(&problem);
    let tree = FlatTree::random_full(2, 101, 1);
    let ids = IdAssignment::sequential_len(tree.len() - 1);
    log_star(&problem, &cert, &tree, &ids);
}

#[test]
fn mis_certificate_also_solves_via_the_log_star_solver() {
    let problem = mis::mis_binary();
    let cert = log_star_cert(&problem);
    let tree = FlatTree::random_full(2, 301, 4);
    let ids = IdAssignment::sequential_len(tree.len());
    assert_valid(&problem, &tree, &log_star(&problem, &cert, &tree, &ids));
}

#[test]
fn chain_colouring_is_proper_and_fast() {
    let tree = FlatTree::random_full(2, 1001, 3);
    let ids = IdAssignment::random_permutation_len(tree.len(), 1);
    let mut cv = CvScratch::new();
    let metrics = chain_color_reduction_flat(&tree, &ids, 1, &mut cv);
    for v in 0..tree.len() as u32 {
        if let Some(p) = tree.parent(v) {
            assert_ne!(cv.colors()[v as usize], cv.colors()[p as usize]);
        }
    }
    assert!(metrics.rounds < 12);
}

// -- Θ(log n): rake-and-compress ---------------------------------------------

#[test]
fn log_solver_solves_branch_two_coloring_on_random_trees() {
    let problem = coloring::branch_two_coloring();
    let cert = log_cert(&problem);
    for seed in 0..4 {
        let tree = FlatTree::random_full(2, 501, seed);
        assert_valid(&problem, &tree, &log(&problem, &cert, &tree));
    }
}

#[test]
fn log_solver_solves_figure_2_combination_on_various_shapes() {
    let problem = coloring::figure_2_combination();
    let cert = log_cert(&problem);
    for tree in [
        FlatTree::balanced(2, 10),
        FlatTree::from_tree(&generators::random_skewed(2, 2001, 0.9, 5)),
        FlatTree::hairy_path(2, 400),
        FlatTree::from_tree(&generators::path(512)),
    ] {
        assert_valid(&problem, &tree, &log(&problem, &cert, &tree));
    }
}

#[test]
fn log_solver_also_solves_a_log_star_problem_and_delta_three() {
    // Every O(log* n) problem is also O(log n); the rake-and-compress solver
    // must handle it through its own machinery.
    let problem = coloring::three_coloring_binary();
    let tree = FlatTree::random_full(2, 801, 13);
    assert_valid(&problem, &tree, &log(&problem, &log_cert(&problem), &tree));
    // Branch 2-coloring analogue with δ = 3.
    let problem: LclProblem = "1 : 1 2 2\n2 : 1 1 1\n".parse().unwrap();
    let tree = FlatTree::random_full(3, 601, 21);
    assert_valid(&problem, &tree, &log(&problem, &log_cert(&problem), &tree));
}

#[test]
fn rcp_layer_count_grows_logarithmically() {
    let cert = log_cert(&coloring::branch_two_coloring());
    let layers = |n: usize| {
        rcp_partition_flat(&FlatTree::random_full(2, n, 3), cert.rcp_parameter()).num_layers()
    };
    let (l_small, l_large) = (layers(201), layers(20_001));
    assert!(l_large > l_small);
    // 100× more nodes but nowhere near 100× more layers.
    assert!(l_large < 8 * l_small, "small {l_small}, large {l_large}");
}

// -- Θ(n^{1/k}): the Π_k and generalized partitions ------------------------

#[test]
fn pi_k_solver_on_balanced_random_and_skewed_trees() {
    let problem = pi_k::pi_k(1);
    let tree = FlatTree::balanced(2, 8);
    assert_valid(&problem, &tree, &pi(&problem, 1, &tree));
    let problem = pi_k::pi_k(2);
    for tree in [
        FlatTree::balanced(2, 9),
        FlatTree::random_full(2, 2001, 3),
        FlatTree::from_tree(&generators::random_skewed(2, 1501, 0.8, 4)),
    ] {
        assert_valid(&problem, &tree, &pi(&problem, 2, &tree));
    }
    let problem = pi_k::pi_k(3);
    for seed in 0..3 {
        let tree = FlatTree::random_full(2, 3001, seed);
        assert_valid(&problem, &tree, &pi(&problem, 3, &tree));
    }
}

#[test]
fn pi_k_rounds_scale_sublinearly() {
    let problem = pi_k::pi_k(2);
    let r_small = pi(&problem, 2, &FlatTree::balanced(2, 8)).rounds.total(); // 511 nodes
    let r_large = pi(&problem, 2, &FlatTree::balanced(2, 14)).rounds.total(); // 32767 nodes
                                                                              // 64× more nodes: an O(√n) algorithm grows by ≈ 8×, far below 64×.
    assert!(r_large < 16 * r_small, "small {r_small}, large {r_large}");
}

#[test]
fn pi_k_partition_has_k_levels_of_small_components() {
    // Every node lands in B_1..B_k or X_1..X_{k−1}, and every B_i component
    // (connected through parent edges inside B_i) fits the n^{1/k} threshold.
    let k = 3;
    let tree = FlatTree::random_full(2, 3001, 5);
    let idx = tree.level_index();
    let mut scratch = SolveScratch::new();
    pi_k_partition_pass(&tree, &idx, k, &mut scratch);
    let part = scratch.part();
    assert!(part.iter().all(|p| match *p {
        Part::B(i) => (1..=k).contains(&i),
        Part::X(i) => (1..k).contains(&i),
    }));
    assert!(scratch.iteration_depths().len() <= k);
    let threshold = ceil_nth_root(tree.len(), k);
    let mut size = vec![1usize; tree.len()];
    for &v in idx.bfs_order().iter().rev() {
        if let (Some(p), Part::B(_)) = (tree.parent(v), part[v as usize]) {
            if part[p as usize] == part[v as usize] {
                size[p as usize] += size[v as usize];
            }
        }
    }
    for (v, p) in part.iter().enumerate() {
        if matches!(p, Part::B(i) if *i < k) {
            assert!(size[v] <= threshold, "B component of {} nodes", size[v]);
        }
    }
}

#[test]
fn generalized_solver_handles_pi_k_via_its_certificate() {
    for k in 1..=3 {
        let problem = pi_k::pi_k(k);
        let cert = poly_cert(&problem);
        assert_eq!(cert.exponent(), k);
        for tree in [
            FlatTree::balanced(2, 8),
            FlatTree::random_full(2, 2001, k as u64),
            FlatTree::hairy_path(2, 300),
        ] {
            let outcome = poly(&problem, &cert, &tree);
            assert_valid(&problem, &tree, &outcome);
            assert_eq!(
                outcome.algorithm,
                "generalized B/X partition (exact exponent certificate)"
            );
        }
    }
}

#[test]
fn generalized_solver_handles_two_coloring_and_paths() {
    // Exponent 1 (Θ(n)): the whole tree is the core, completed downward.
    let problem = coloring::two_coloring_binary();
    let cert = poly_cert(&problem);
    assert_eq!(cert.exponent(), 1);
    let tree = FlatTree::random_full(2, 801, 3);
    assert_valid(&problem, &tree, &poly(&problem, &cert, &tree));

    // δ = 1: 2-coloring of directed paths.
    let path_problem: LclProblem = "1:2\n2:1\n".parse().unwrap();
    let cert = poly_cert(&path_problem);
    let tree = FlatTree::from_tree(&generators::path(257));
    assert_valid(&path_problem, &tree, &poly(&path_problem, &cert, &tree));
}

#[test]
fn generalized_solver_rounds_scale_sublinearly() {
    let problem = pi_k::pi_k(2);
    let cert = poly_cert(&problem);
    let r_small = poly(&problem, &cert, &FlatTree::balanced(2, 8))
        .rounds
        .total();
    let r_large = poly(&problem, &cert, &FlatTree::balanced(2, 14))
        .rounds
        .total();
    // 64× more nodes: an O(√n) algorithm grows by ≈ 8×, far below 64×.
    assert!(r_large < 16 * r_small, "small {r_small}, large {r_large}");
}

#[test]
fn generalized_partition_respects_the_chain_threshold() {
    let problem = pi_k::pi_k(2);
    let cert = poly_cert(&problem);
    let tree = FlatTree::hairy_path(2, 400);
    let idx = tree.level_index();
    let partition = poly_partition_flat(&tree, &idx, &cert);
    for (i, runs) in partition.runs_by_iteration.iter().enumerate() {
        let min_run = cert.levels[i].chain_threshold.max(1);
        for run in runs {
            assert!(run.len() >= min_run, "run shorter than the threshold");
            for w in run.windows(2) {
                assert_eq!(tree.parent(w[1]), Some(w[0]), "runs must be vertical");
            }
        }
    }
    // Every rake piece fits the subtree-size threshold.
    let threshold = ceil_nth_root(tree.len(), cert.exponent());
    let mut rake_sizes = vec![0usize; tree.len()];
    for &v in idx.bfs_order().iter().rev() {
        if let PolyPart::Rake(i) = partition.part[v as usize] {
            rake_sizes[v as usize] += 1;
            if let Some(p) = tree.parent(v) {
                if partition.part[p as usize] == PolyPart::Rake(i) {
                    rake_sizes[p as usize] += rake_sizes[v as usize];
                }
            }
        }
    }
    assert!(rake_sizes.iter().all(|&s| s <= threshold));
}

// -- Θ(n) baselines ----------------------------------------------------------

#[test]
fn greedy_baseline_solves_a_polynomial_problem() {
    let problem: LclProblem = "1:22\n2:11\n".parse().unwrap();
    let tree = FlatTree::random_full(2, 501, 3);
    let idx = tree.level_index();
    let outcome = solve_greedy_flat(&problem, &idx, &mut SolveScratch::new()).unwrap();
    assert_eq!(outcome.algorithm, "global greedy (O(n) baseline)");
    assert_valid(&problem, &tree, &outcome);
    assert_eq!(outcome.rounds.total(), tree.height() + 1);
}

#[test]
fn greedy_baseline_rejects_unsolvable_problems() {
    let problem: LclProblem = "a : b b\nb : c c\n".parse().unwrap();
    let idx = FlatTree::balanced(2, 4).level_index();
    assert!(solve_greedy_flat(&problem, &idx, &mut SolveScratch::new()).is_none());
}

#[test]
fn depth_parity_solves_two_coloring() {
    let problem = coloring::two_coloring_binary();
    let tree = FlatTree::random_full(2, 801, 7);
    let outcome = solve_by_depth_parity_flat(&problem, &tree);
    assert_valid(&problem, &tree, &outcome);
    assert_eq!(outcome.rounds.total(), tree.height() + 1);
}
