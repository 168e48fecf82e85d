//! Experiments E8–E11: measured round counts of the solvers for each of the four
//! complexity classes as n grows, reproducing the shape of the paper's landscape
//! (flat / log* / log / n^{1/k}), plus the raw RCP layer counts of Lemma 5.9.

use lcl_algorithms::flat::{
    solve_by_depth_parity_flat, solve_constant_flat, solve_log_flat, solve_log_star_flat,
    solve_pi_k_flat, SolveScratch,
};
use lcl_core::classify;
use lcl_problems::{coloring, mis, pi_k};
use lcl_sim::IdAssignment;
use lcl_trees::rcp::rcp_partition_flat;
use lcl_trees::FlatTree;
use lcl_verify::LabelingValidator;

fn main() {
    let mis_problem = mis::mis_binary();
    let mis_cert = classify(&mis_problem)
        .constant_certificate()
        .unwrap()
        .unwrap();
    let col_problem = coloring::three_coloring_binary();
    let col_cert = classify(&col_problem)
        .log_star_certificate()
        .unwrap()
        .unwrap();
    let branch_problem = coloring::branch_two_coloring();
    let branch_cert = classify(&branch_problem).log_certificate().unwrap().clone();
    let pi2 = pi_k::pi_k(2);
    let two_col = coloring::two_coloring_binary();
    let mut scratch = SolveScratch::new();

    println!(
        "{:>9} | {:>10} {:>14} {:>16} {:>12} {:>10} | {:>10}",
        "n", "MIS O(1)", "3col log*", "branch log", "Π₂ √n", "2col n", "RCP layers"
    );
    for &n in &lcl_bench::scaling_sizes() {
        let tree = FlatTree::random_full(2, n + 1, n as u64);
        let idx = tree.level_index();
        let ids = IdAssignment::random_permutation_len(tree.len(), 3);

        let r_const = solve_constant_flat(&mis_problem, &mis_cert, &idx, &mut scratch);
        let r_logstar =
            solve_log_star_flat(&col_problem, &col_cert, &tree, &idx, &ids, &mut scratch);
        let r_log = solve_log_flat(&branch_problem, &branch_cert, &tree, &mut scratch).unwrap();
        let r_poly = solve_pi_k_flat(&pi2, 2, &tree, &idx, &mut scratch);
        let r_global = solve_by_depth_parity_flat(&two_col, &tree);
        // The Θ(log n) term of the rake-and-compress solver (Lemma 5.9).
        let layers = rcp_partition_flat(&tree, branch_cert.rcp_parameter()).num_layers();

        for (problem, outcome) in [
            (&mis_problem, &r_const),
            (&col_problem, &r_logstar),
            (&branch_problem, &r_log),
            (&pi2, &r_poly),
            (&two_col, &r_global),
        ] {
            LabelingValidator::new(problem)
                .validate(&tree, &outcome.labels)
                .expect("valid solution");
        }
        println!(
            "{:>9} | {:>10} {:>14} {:>16} {:>12} {:>10} | {:>10}",
            tree.len(),
            r_const.rounds.total(),
            r_logstar.rounds.total(),
            r_log.rounds.total(),
            r_poly.rounds.total(),
            r_global.rounds.total(),
            layers
        );
    }
    println!("\nexpected shape: O(1) flat, Θ(log* n) nearly flat, Θ(log n) ∝ RCP layers ∝ log n,");
    println!("Θ(√n) growing with √n, Θ(n) growing with tree height; all outputs verified");
}
