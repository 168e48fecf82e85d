//! The LOCAL-model oracle of the 4-round MIS algorithm (Section 1.3, Figure 1).
//!
//! Every node learns the 4-bit string of port directions leading to it from its
//! ancestor at distance 4 (padding with 0s near the root, i.e. imagining the tree
//! embedded below a chain of virtual port-0 ancestors), interprets the string as a
//! number between 0 and 15, and outputs the corresponding symbol of the magic
//! string (4) of the paper:
//!
//! ```text
//! b 1 a b b b 1 b b 1 1 b b b 1 b
//! ```
//!
//! [`MisFourRounds`] runs that algorithm as a genuine message-passing program on
//! the `lcl-sim` simulator. It is not a solver: the labels come from
//! [`solve_mis_four_rounds_flat`](crate::flat::solve_mis_four_rounds_flat), whose
//! outputs and charged round count are checked against this program's run.
//! The communication takes exactly 4 rounds (plus one round in which the nodes
//! announce their outputs to nobody — the simulator counts the round in which
//! the last output is produced).

use lcl_core::LclProblem;
use lcl_sim::{IdAssignment, Metrics, NodeInfo, NodeProgram, RoundAction, Simulator};
use lcl_trees::FlatTree;

use crate::solve::MIS_TABLE;

/// The node program: 4 rounds of passing port-direction strings downwards.
pub struct MisFourRounds;

/// Per-node state: the current code and its length in bits.
#[derive(Debug, Clone, Default)]
pub struct MisState {
    code: u8,
    len: usize,
}

impl NodeProgram for MisFourRounds {
    type State = MisState;
    type Message = u8;
    type Output = char;

    fn init(&self, _info: &NodeInfo) -> Self::State {
        MisState::default()
    }

    fn round(
        &self,
        round: usize,
        _info: &NodeInfo,
        state: &mut Self::State,
        from_parent: Option<&Self::Message>,
        _from_children: &[Option<Self::Message>],
        to_children: &mut [Option<Self::Message>],
    ) -> RoundAction<Self::Message, Self::Output> {
        // Adopt the code received from the parent (rounds 2..=5); the root extends
        // its own code with a virtual port-0 ancestor instead.
        if round >= 2 && state.len < 4 {
            state.code = match from_parent {
                Some(&c) => c,
                None => state.code, // virtual ancestors contribute leading 0 bits
            };
            state.len += 1;
        }
        if state.len == 4 {
            return RoundAction::output(MIS_TABLE[state.code as usize]);
        }
        // Send each child the code extended by its port direction (0 = left),
        // written into the simulator's reusable per-node buffer.
        for (port, slot) in to_children.iter_mut().enumerate() {
            *slot = Some(((state.code << 1) | (port as u8 & 1)) & 0b1111);
        }
        RoundAction::idle()
    }

    fn message_bits(&self, _message: &Self::Message) -> usize {
        4
    }
}

/// Runs [`MisFourRounds`] on the simulator: every node's output symbol (by node
/// id) together with the measured metrics.
pub fn run(tree: &FlatTree) -> (Vec<char>, Metrics) {
    Simulator::new(tree, IdAssignment::sequential_len(tree.len())).run(&MisFourRounds)
}

/// The simulator metrics of one run (exposed separately for the experiments).
pub fn run_metrics(tree: &FlatTree) -> Metrics {
    run(tree).1
}

/// Exhaustively checks the correctness argument of Section 1.3: for every 4-bit
/// code `x y z w`, the node's output together with the outputs of its two children
/// (codes `y z w 0` and `y z w 1`) forms an allowed configuration of the MIS
/// problem. Returns the list of violated codes (empty = the table is correct).
pub fn verify_table_against(problem: &LclProblem) -> Vec<u8> {
    let label_of = |c: char| problem.label_by_name(&c.to_string()).expect("MIS labels");
    let mut violations = Vec::new();
    for code in 0u8..16 {
        let parent = MIS_TABLE[code as usize];
        let left = MIS_TABLE[((code << 1) & 0b1111) as usize];
        let right = MIS_TABLE[(((code << 1) & 0b1111) | 1) as usize];
        let ok = problem.allows_parts(label_of(parent), &[label_of(left), label_of(right)]);
        if !ok {
            violations.push(code);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_problems::mis::mis_binary;

    #[test]
    fn table_is_consistent_with_the_mis_configurations() {
        // The "23 possible cases" check of Section 1.3, done exhaustively.
        let problem = mis_binary();
        assert!(verify_table_against(&problem).is_empty());
    }

    #[test]
    fn round_count_is_constant() {
        // The communication takes 4 rounds; the simulator reports 5 because the
        // final outputs are produced in the round after the last message arrives.
        let small = FlatTree::balanced(2, 4);
        let large = FlatTree::random_full(2, 50_001, 1);
        let m_small = run_metrics(&small);
        let m_large = run_metrics(&large);
        assert_eq!(m_small.rounds, m_large.rounds);
        assert!(m_large.rounds <= 5);
        assert!(m_large.is_congest_compliant(large.len(), 1));
    }
}
