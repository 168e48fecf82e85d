//! Built-in node programs: small, genuinely message-passing building blocks. The
//! flat solvers of `lcl-algorithms` are checked against their simulator runs
//! (the flat Cole–Vishkin path reproduces [`ChainColorReduction`] exactly), and
//! the experiments and examples run them directly.

use crate::node::NodeInfo;
use crate::program::{broadcast, NodeProgram, RoundAction};

/// Every node learns its depth (distance from the root). Takes `height + 1` rounds:
/// the root outputs 0 immediately and each level learns its value one round after
/// its parent.
pub struct DepthComputation;

impl NodeProgram for DepthComputation {
    type State = Option<usize>;
    type Message = usize;
    type Output = usize;

    fn init(&self, info: &NodeInfo) -> Self::State {
        if info.is_root() {
            Some(0)
        } else {
            None
        }
    }

    fn round(
        &self,
        _round: usize,
        _info: &NodeInfo,
        state: &mut Self::State,
        from_parent: Option<&Self::Message>,
        _from_children: &[Option<Self::Message>],
        to_children: &mut [Option<Self::Message>],
    ) -> RoundAction<Self::Message, Self::Output> {
        if state.is_none() {
            if let Some(&d) = from_parent {
                *state = Some(d + 1);
            }
        }
        match *state {
            Some(depth) => {
                broadcast(to_children, depth);
                RoundAction::output(depth)
            }
            None => RoundAction::idle(),
        }
    }
}

/// Every node learns the size of its subtree. Takes `height + 1` rounds: leaves
/// report 1 immediately, counts aggregate upwards.
pub struct SubtreeSize;

impl NodeProgram for SubtreeSize {
    type State = ();
    type Message = usize;
    type Output = usize;

    fn init(&self, _info: &NodeInfo) -> Self::State {}

    fn round(
        &self,
        _round: usize,
        _info: &NodeInfo,
        _state: &mut Self::State,
        _from_parent: Option<&Self::Message>,
        from_children: &[Option<Self::Message>],
        _to_children: &mut [Option<Self::Message>],
    ) -> RoundAction<Self::Message, Self::Output> {
        if from_children.iter().all(|m| m.is_some()) {
            let size = 1 + from_children
                .iter()
                .map(|m| m.expect("checked above"))
                .sum::<usize>();
            RoundAction::output(size).with_parent_message(size)
        } else {
            RoundAction::idle()
        }
    }
}

/// Cole–Vishkin colour reduction along parent pointers (Section 3.4 of
/// Barenboim–Elkin, used by the paper for the O(log* n) building blocks).
///
/// Starting from the unique identifiers, every node repeatedly replaces its colour
/// by the position-and-value of the lowest bit in which it differs from its
/// parent's colour. After `iterations(n)` rounds (a log*-type function of the
/// identifier range) all colours lie in `{0, …, 5}` and neighbouring (parent/child)
/// colours differ. The root plays against a virtual parent whose colour always
/// differs in the lowest bit.
pub struct ChainColorReduction;

/// State of [`ChainColorReduction`]: the current colour and how many reduction
/// steps are still to be executed.
#[derive(Debug, Clone)]
pub struct CvState {
    color: u64,
    remaining: usize,
}

impl ChainColorReduction {
    /// The colour-range sequence: starting from identifiers below `2^bits`, one
    /// Cole–Vishkin step maps colours in `[0, 2^b)` to colours in `[0, 2b)`.
    /// Returns the number of steps needed to reach at most 6 colours.
    pub fn iterations_needed(id_bits: usize) -> usize {
        let mut bits = id_bits.max(3);
        let mut steps = 0;
        while bits > 3 {
            // Colours fit in `bits` bits; after one step they fit in
            // ceil(log2(bits)) + 1 bits.
            let next = (usize::BITS - (bits - 1).leading_zeros()) as usize + 1;
            bits = next;
            steps += 1;
        }
        // With bits == 3 colours are in [0, 8); two more steps reach [0, 6):
        // 8 colours → one step → 2·3 = 6 colours.
        steps + 1
    }

    pub(crate) fn cv_step(own: u64, parent: u64) -> u64 {
        let differing = own ^ parent;
        debug_assert!(differing != 0, "proper colouring is preserved by CV steps");
        let i = differing.trailing_zeros() as u64;
        2 * i + ((own >> i) & 1)
    }
}

impl NodeProgram for ChainColorReduction {
    type State = CvState;
    type Message = u64;
    type Output = u8;

    fn init(&self, info: &NodeInfo) -> Self::State {
        let id_bits = (64 - (info.n as u64).leading_zeros()) as usize;
        CvState {
            color: info.id,
            remaining: Self::iterations_needed(id_bits),
        }
    }

    fn round(
        &self,
        round: usize,
        info: &NodeInfo,
        state: &mut Self::State,
        from_parent: Option<&Self::Message>,
        _from_children: &[Option<Self::Message>],
        to_children: &mut [Option<Self::Message>],
    ) -> RoundAction<Self::Message, Self::Output> {
        // Round 1 only announces the initial colours so that all nodes perform
        // their reduction steps in lockstep from round 2 on.
        if round == 1 {
            broadcast(to_children, state.color);
            return RoundAction::idle();
        }
        if state.remaining > 0 {
            let parent_color = if info.is_root() {
                state.color ^ 1 // virtual parent differing in bit 0
            } else {
                *from_parent.expect("the parent announces its colour every round")
            };
            state.color = Self::cv_step(state.color, parent_color);
            state.remaining -= 1;
        }
        broadcast(to_children, state.color);
        let mut action = RoundAction::idle();
        if state.remaining == 0 {
            debug_assert!(state.color < 6, "colour {} out of range", state.color);
            action.output = Some(state.color as u8);
        }
        action
    }

    fn message_bits(&self, message: &Self::Message) -> usize {
        (64 - message.leading_zeros()).max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdAssignment, Simulator};
    use lcl_trees::FlatTree;

    #[test]
    fn depth_computation_matches_tree_depths() {
        let tree = FlatTree::random_full(2, 101, 5);
        let sim = Simulator::new(&tree, IdAssignment::sequential_len(tree.len()));
        let (outputs, metrics) = sim.run(&DepthComputation);
        let expected: Vec<usize> = tree.depths().iter().map(|&d| d as usize).collect();
        assert_eq!(outputs, expected);
        assert_eq!(metrics.rounds, tree.height() + 1);
    }

    #[test]
    fn subtree_size_matches_reference() {
        let tree = FlatTree::random_full(3, 101, 9);
        let sim = Simulator::new(&tree, IdAssignment::sequential_len(tree.len()));
        let (outputs, _) = sim.run(&SubtreeSize);
        let idx = tree.level_index();
        let expected: Vec<usize> = idx.subtree_sizes().iter().map(|&s| s as usize).collect();
        assert_eq!(outputs, expected);
        assert_eq!(outputs[tree.root() as usize], tree.len());
    }

    #[test]
    fn cv_step_produces_differing_colors() {
        // Classic example: two 6-bit colours differing in bit 2.
        let a = 0b101100u64;
        let b = 0b101000u64;
        let ca = ChainColorReduction::cv_step(a, b);
        let cb = ChainColorReduction::cv_step(b, a);
        assert_ne!(ca, cb);
        assert_eq!(ca, 2 * 2 + 1);
        assert_eq!(cb, 2 * 2);
    }

    #[test]
    fn iterations_needed_is_log_star_like() {
        assert!(ChainColorReduction::iterations_needed(3) >= 1);
        assert!(ChainColorReduction::iterations_needed(20) <= 6);
        assert!(ChainColorReduction::iterations_needed(64) <= 7);
        // Monotone in the identifier size.
        assert!(
            ChainColorReduction::iterations_needed(64) >= ChainColorReduction::iterations_needed(8)
        );
    }

    #[test]
    fn chain_coloring_is_proper_on_parent_edges() {
        for seed in 0..3 {
            let tree = FlatTree::random_full(2, 501, seed);
            let ids = IdAssignment::random_permutation_len(tree.len(), seed);
            let (colors, metrics) = Simulator::new(&tree, ids).run(&ChainColorReduction);
            for v in 0..tree.len() as u32 {
                assert!(colors[v as usize] < 6);
                if let Some(p) = tree.parent(v) {
                    assert_ne!(colors[v as usize], colors[p as usize], "edge {v}");
                }
            }
            // O(log* n) behaviour: a handful of rounds, far below the tree height.
            assert!(metrics.rounds <= 10, "rounds = {}", metrics.rounds);
            assert!(metrics.is_congest_compliant(tree.len(), 8));
        }
    }

    #[test]
    fn chain_coloring_on_paths_and_hairy_paths() {
        // A 300-node directed path is the complete 1-ary tree of depth 299.
        let path = FlatTree::balanced(1, 299);
        let hairy = FlatTree::hairy_path(3, 100);
        for (tree, ids) in [
            (&path, IdAssignment::random_permutation_len(path.len(), 3)),
            (&hairy, IdAssignment::sequential_len(hairy.len())),
        ] {
            let (colors, _) = Simulator::new(tree, ids).run(&ChainColorReduction);
            for v in 0..tree.len() as u32 {
                if let Some(p) = tree.parent(v) {
                    assert_ne!(colors[v as usize], colors[p as usize]);
                }
            }
        }
    }
}
