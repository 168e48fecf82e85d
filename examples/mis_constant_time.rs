//! The maximal-independent-set showcase of Section 1.3 / Figure 1 (experiments E5
//! and E6): the classifier discovers that MIS is constant-time solvable, and both
//! the explicit 4-round algorithm and the generic certificate-driven solver produce
//! valid solutions whose round count does not depend on n.
//!
//! Run with `cargo run --release --example mis_constant_time`.

use rooted_tree_lcl::algorithms::flat::{
    solve_constant_flat, solve_mis_four_rounds_flat, SolveScratch,
};
use rooted_tree_lcl::algorithms::{oracle, MIS_TABLE};
use rooted_tree_lcl::core::classify;
use rooted_tree_lcl::prelude::*;
use rooted_tree_lcl::problems::mis::mis_binary;

fn main() {
    let problem = mis_binary();
    let report = classify(&problem);
    println!("== classification of MIS (configurations (3) of the paper) ==");
    print!("{}", report.describe());
    assert_eq!(report.complexity, Complexity::Constant);

    // The certificate for O(1) solvability (Figure 8).
    let cert = report.constant_certificate().unwrap().unwrap();
    println!("\n== certificate for O(1) solvability (Definition 7.1) ==");
    println!(
        "certificate labels: {}, depth {}, special configuration: {}",
        problem.alphabet().format_set(cert.base.labels.iter()),
        cert.base.depth,
        cert.special.display(problem.alphabet()),
    );

    // The Figure 1 check: the 16-symbol table is consistent with every code.
    let violations = oracle::verify_table_against(&problem);
    println!("\n== Figure 1 / string (4): exhaustive case check ==");
    println!(
        "table {:?}: {} of 16 codes valid",
        MIS_TABLE.iter().collect::<String>(),
        16 - violations.len()
    );
    assert!(violations.is_empty());

    // Solve on growing trees with both constant-time algorithms.
    println!("\n== rounds vs n (flat = constant time) ==");
    println!(
        "{:>10} {:>18} {:>22}",
        "n", "4-round alg", "generic (Thm 7.2)"
    );
    let validator = LabelingValidator::new(&problem);
    let mut scratch = SolveScratch::new();
    for exponent in [10, 12, 14, 16, 18] {
        let tree = FlatTree::random_full(2, (1usize << exponent) + 1, exponent as u64);
        let idx = tree.level_index();
        let explicit = solve_mis_four_rounds_flat(&problem, &idx, &mut scratch);
        validator.validate(&tree, &explicit.labels).unwrap();
        let generic = solve_constant_flat(&problem, &cert, &idx, &mut scratch);
        validator.validate(&tree, &generic.labels).unwrap();
        println!(
            "{:>10} {:>18} {:>22}",
            tree.len(),
            explicit.rounds.total(),
            generic.rounds.total()
        );
    }
    println!("\nboth algorithms verified on every instance");
}
