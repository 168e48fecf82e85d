//! Experiments E8–E11: measured round counts of the four solvers as a function of
//! n, reproducing the *shape* of the paper's four complexity classes — flat for
//! O(1), barely growing for Θ(log* n), logarithmic for Θ(log n), and n^{1/k}-like
//! for the polynomial class.
//!
//! Run with `cargo run --release --example round_complexity_scaling`.

use rooted_tree_lcl::algorithms::flat::{
    solve_by_depth_parity_flat, solve_constant_flat, solve_log_flat, solve_log_star_flat,
    solve_pi_k_flat, SolveScratch,
};
use rooted_tree_lcl::core::classify;
use rooted_tree_lcl::prelude::*;
use rooted_tree_lcl::problems::{coloring, mis, pi_k};

fn main() {
    let sizes = [1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16];

    let mis_problem = mis::mis_binary();
    let mis_report = classify(&mis_problem);
    let mis_cert = mis_report.constant_certificate().unwrap().unwrap();

    let col_problem = coloring::three_coloring_binary();
    let col_report = classify(&col_problem);
    let col_cert = col_report.log_star_certificate().unwrap().unwrap();

    let branch_problem = coloring::branch_two_coloring();
    let branch_cert = classify(&branch_problem).log_certificate().unwrap().clone();

    let pi2_problem = pi_k::pi_k(2);
    let two_col = coloring::two_coloring_binary();
    let mut scratch = SolveScratch::new();

    println!(
        "{:>9} {:>12} {:>16} {:>16} {:>14} {:>12}",
        "n", "MIS O(1)", "3-col Θ(log*n)", "branch Θ(log n)", "Π₂ Θ(√n)", "2-col Θ(n)"
    );
    for &n in &sizes {
        let tree = FlatTree::random_full(2, n + 1, n as u64);
        let idx = tree.level_index();
        let ids = IdAssignment::random_permutation_len(tree.len(), 7);

        let r_const = solve_constant_flat(&mis_problem, &mis_cert, &idx, &mut scratch);
        let r_logstar =
            solve_log_star_flat(&col_problem, &col_cert, &tree, &idx, &ids, &mut scratch);
        let r_log = solve_log_flat(&branch_problem, &branch_cert, &tree, &mut scratch).unwrap();
        let r_poly = solve_pi_k_flat(&pi2_problem, 2, &tree, &idx, &mut scratch);
        let r_global = solve_by_depth_parity_flat(&two_col, &tree);
        for (problem, outcome) in [
            (&mis_problem, &r_const),
            (&col_problem, &r_logstar),
            (&branch_problem, &r_log),
            (&pi2_problem, &r_poly),
            (&two_col, &r_global),
        ] {
            LabelingValidator::new(problem)
                .validate(&tree, &outcome.labels)
                .unwrap();
        }

        println!(
            "{:>9} {:>12} {:>16} {:>16} {:>14} {:>12}",
            tree.len(),
            r_const.rounds.total(),
            r_logstar.rounds.total(),
            r_log.rounds.total(),
            r_poly.rounds.total(),
            r_global.rounds.total()
        );
    }
    println!("\nall outputs verified against the independent solution checker");
    println!("(columns: measured + charged rounds; see RoundReport::summary for the breakdown)");
}
