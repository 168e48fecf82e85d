//! Wall-clock benchmarks of the five solvers (supporting experiments E6 and
//! E8–E11; the round-count tables themselves are produced by the experiment
//! binaries).
//!
//! Every solver runs on a `FlatTree` with a warm `SolveScratch`; the measured
//! closure includes building the level index, so each case charges the solver
//! its whole per-tree setup. Medians, spreads and sample counts are written to
//! `BENCH_solvers.json`.

use std::time::Duration;

use lcl_algorithms::flat::{
    solve_constant_flat, solve_log_flat, solve_log_star_flat, solve_mis_four_rounds_flat,
    solve_pi_k_flat, SolveScratch,
};
use lcl_bench::harness::{Bench, BenchReport};
use lcl_core::classify;
use lcl_problems::{coloring, mis, pi_k};
use lcl_sim::IdAssignment;
use lcl_trees::FlatTree;

const SIZES: [usize; 3] = [1 << 10, 1 << 13, 1 << 16];
const MILLION: usize = 1 << 20;
/// Samples for the million-node cases (heavyweight; keeps CI wall-clock bounded).
const BIG_SAMPLES: usize = 3;

/// Runs one solver over the three standard sizes plus the million-node case.
fn run_sizes(bench: &mut Bench, mut case: impl FnMut(&mut Bench, usize, usize) -> Duration) {
    for &n in &SIZES {
        case(bench, n, 11);
    }
    case(bench, MILLION, BIG_SAMPLES);
}

fn main() {
    let mut report = BenchReport::new("solvers");
    let mut scratch = SolveScratch::new();

    // -- 4-round MIS (Section 1.3, Figure 1) --------------------------------
    let mis_problem = mis::mis_binary();
    let mut bench = Bench::new("solve_mis_four_rounds_flat");
    run_sizes(&mut bench, |b, n, samples| {
        let tree = FlatTree::random_full(2, n, 1);
        b.case_samples(&format!("n={n}"), samples, || {
            let idx = tree.level_index();
            solve_mis_four_rounds_flat(&mis_problem, &idx, &mut scratch)
        })
    });
    report.add_group(bench);

    // -- Generic O(1) solver (Theorem 7.2) ----------------------------------
    let cert = classify(&mis_problem)
        .constant_certificate()
        .unwrap()
        .unwrap();
    let mut bench = Bench::new("solve_constant_generic_flat");
    run_sizes(&mut bench, |b, n, samples| {
        let tree = FlatTree::random_full(2, n, 2);
        b.case_samples(&format!("n={n}"), samples, || {
            let idx = tree.level_index();
            solve_constant_flat(&mis_problem, &cert, &idx, &mut scratch)
        })
    });
    report.add_group(bench);

    // -- O(log* n) solver (Theorem 6.3) -------------------------------------
    let coloring_problem = coloring::three_coloring_binary();
    let cert = classify(&coloring_problem)
        .log_star_certificate()
        .unwrap()
        .unwrap();
    let mut bench = Bench::new("solve_log_star_flat");
    run_sizes(&mut bench, |b, n, samples| {
        let tree = FlatTree::random_full(2, n, 3);
        b.case_samples(&format!("n={n}"), samples, || {
            let idx = tree.level_index();
            let ids = IdAssignment::sequential_len(tree.len());
            solve_log_star_flat(&coloring_problem, &cert, &tree, &idx, &ids, &mut scratch)
        })
    });
    report.add_group(bench);

    // -- O(log n) solver (Theorem 5.1) --------------------------------------
    let branch_problem = coloring::branch_two_coloring();
    let cert = classify(&branch_problem).log_certificate().unwrap().clone();
    let mut bench = Bench::new("solve_log_flat");
    run_sizes(&mut bench, |b, n, samples| {
        let tree = FlatTree::random_full(2, n, 4);
        b.case_samples(&format!("n={n}"), samples, || {
            solve_log_flat(&branch_problem, &cert, &tree, &mut scratch).unwrap()
        })
    });
    report.add_group(bench);

    // -- Π_2 partition solver (Lemma 8.1) -----------------------------------
    let pi2 = pi_k::pi_k(2);
    let mut bench = Bench::new("solve_pi_2_flat");
    run_sizes(&mut bench, |b, n, samples| {
        let tree = FlatTree::random_full(2, n, 5);
        b.case_samples(&format!("n={n}"), samples, || {
            let idx = tree.level_index();
            solve_pi_k_flat(&pi2, 2, &tree, &idx, &mut scratch)
        })
    });
    report.add_group(bench);

    report.write().expect("bench report written");
}
