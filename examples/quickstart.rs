//! Quickstart: define a problem in the paper's notation, classify it, inspect the
//! certificates, and solve it on a generated tree.
//!
//! Run with `cargo run --example quickstart`.

use rooted_tree_lcl::prelude::*;

fn main() {
    // The 3-coloring problem of Section 1.2, written exactly as in the paper:
    // each line is `parent : children`, and the order of the children is irrelevant.
    let problem: LclProblem = "
        1 : 2 2
        1 : 2 3
        1 : 3 3
        2 : 1 1
        2 : 1 3
        2 : 3 3
        3 : 1 1
        3 : 1 2
        3 : 2 2
    "
    .parse()
    .expect("well-formed problem description");

    // Classify: the paper proves 3-coloring is Θ(log* n).
    let report = classify(&problem);
    println!("== classification ==");
    print!("{}", report.describe());
    assert_eq!(report.complexity, Complexity::LogStar);

    // Solve it on a random full binary tree with the certificate-driven algorithm.
    let tree = FlatTree::random_full(2, 10_001, 42);
    let ids = IdAssignment::random_permutation_len(tree.len(), 1);
    let outcome = solve_flat(
        &problem,
        &report,
        &tree,
        &tree.level_index(),
        &ids,
        &mut SolveScratch::new(),
    )
    .expect("solvable problem");
    Labeling::from_labels(&outcome.labels)
        .verify(&tree, &problem)
        .expect("solver outputs are valid solutions");
    println!("\n== solving on a {}-node random tree ==", tree.len());
    println!("algorithm: {}", outcome.algorithm);
    println!("round accounting: {}", outcome.rounds.summary());

    // The certificate behind the algorithm (Figure 7 of the paper).
    let cert = report
        .log_star_certificate()
        .expect("Θ(log* n) problems have a uniform certificate")
        .expect("small certificate");
    println!("\n== uniform certificate (Definition 6.1) ==");
    println!(
        "labels: {}, depth: {}",
        problem.alphabet().format_set(cert.labels.iter()),
        cert.depth
    );
    for (label, tree) in &cert.trees {
        let names: Vec<&str> = tree
            .labels()
            .iter()
            .map(|&l| problem.label_name(l))
            .collect();
        println!(
            "tree rooted at {}: {}",
            problem.label_name(*label),
            names.join(" ")
        );
    }
}
