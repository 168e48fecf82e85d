//! Classify a user-supplied problem: reads a problem description from the path
//! given as the first argument (or from a built-in example if none is given),
//! classifies it, prints the certificates, and — if a tree size is given as a
//! second argument — solves it on a random full tree of that size.
//!
//! ```text
//! cargo run --release --example custom_problem -- my_problem.txt 1000
//! ```

use rooted_tree_lcl::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let text = match args.get(1) {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => {
            println!("no input file given; using the branch 2-coloring problem (5) as a demo\n");
            "1 : 1 2\n2 : 1 1\n".to_string()
        }
    };
    let problem: LclProblem = match text.parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    let report = classify(&problem);
    print!("{}", report.describe());

    if let Some(size) = args.get(2).and_then(|s| s.parse::<usize>().ok()) {
        if !report.complexity.is_solvable() {
            println!("problem is unsolvable; skipping the solve step");
            return;
        }
        let tree = FlatTree::random_full(problem.delta(), size, 1);
        let ids = IdAssignment::random_permutation_len(tree.len(), 2);
        let idx = tree.level_index();
        match solve_flat(
            &problem,
            &report,
            &tree,
            &idx,
            &ids,
            &mut SolveScratch::new(),
        ) {
            Ok(outcome) => {
                Labeling::from_labels(&outcome.labels)
                    .verify(&tree, &problem)
                    .expect("valid solution");
                println!(
                    "\nsolved on a {}-node random full {}-ary tree with `{}`",
                    tree.len(),
                    problem.delta(),
                    outcome.algorithm
                );
                println!("round accounting: {}", outcome.rounds.summary());
            }
            Err(e) => println!("\nsolver error: {e}"),
        }
    }
}
