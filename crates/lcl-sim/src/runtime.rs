//! The synchronous scheduler.

use lcl_trees::FlatTree;

use crate::ids::IdAssignment;
use crate::metrics::Metrics;
use crate::node::NodeInfo;
use crate::program::NodeProgram;

/// A simulator bound to one tree and one identifier assignment.
pub struct Simulator<'a> {
    tree: &'a FlatTree,
    ids: IdAssignment,
    max_rounds: usize,
    /// The global maximum degree δ, computed once at construction so per-node
    /// queries stay O(1).
    delta: usize,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `tree` with the given identifiers.
    ///
    /// # Panics
    ///
    /// Panics if the identifier assignment does not cover exactly the tree's nodes.
    pub fn new(tree: &'a FlatTree, ids: IdAssignment) -> Self {
        assert_eq!(ids.len(), tree.len(), "one identifier per node is required");
        let delta = (0..tree.len() as u32)
            .map(|u| tree.num_children(u))
            .max()
            .unwrap_or(0);
        Simulator {
            tree,
            ids,
            max_rounds: 4 * tree.len() + 16,
            delta,
        }
    }

    /// Overrides the safety limit on the number of rounds (default `4n + 16`).
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// The identifier assignment in use.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// The initial knowledge of a node.
    pub fn node_info(&self, v: u32) -> NodeInfo {
        NodeInfo {
            id: self.ids.as_slice()[v as usize],
            n: self.tree.len(),
            num_children: self.tree.num_children(v),
            has_parent: self.tree.parent(v).is_some(),
            delta: self.delta,
        }
    }

    /// Runs `program` on every node until all nodes have produced an output.
    /// Returns the outputs indexed by node id and the collected metrics.
    ///
    /// All message plumbing lives in flat, CSR-shaped buffers allocated once
    /// and recycled across rounds: the per-round cost is O(n + edges) writes
    /// with zero heap allocation (child messages are written into a reusable
    /// port-indexed scratch slice and scattered to their receivers).
    ///
    /// # Panics
    ///
    /// Panics if the program has not terminated after the safety limit on rounds —
    /// this always indicates a bug in the program, never legitimate behaviour of the
    /// algorithms in this repository.
    pub fn run<P: NodeProgram>(&self, program: &P) -> (Vec<P::Output>, Metrics) {
        let n = self.tree.len();
        let nodes = 0..n as u32;
        let infos: Vec<NodeInfo> = nodes.clone().map(|v| self.node_info(v)).collect();
        let mut states: Vec<P::State> = infos.iter().map(|i| program.init(i)).collect();
        let mut outputs: Vec<Option<P::Output>> = vec![None; n];
        let mut metrics = Metrics::default();
        let mut pending = n;

        // Static topology tables, computed once: `child_off[v] .. child_off[v + 1]`
        // are v's child-message slots (port-indexed), `port_of[v]` is v's port at
        // its parent.
        let mut child_off: Vec<usize> = Vec::with_capacity(n + 1);
        child_off.push(0);
        let mut total_edges = 0usize;
        for v in nodes.clone() {
            total_edges += self.tree.num_children(v);
            child_off.push(total_edges);
        }
        let mut port_of: Vec<usize> = vec![0; n];
        for v in nodes.clone() {
            for (port, &c) in self.tree.children(v).iter().enumerate() {
                port_of[c as usize] = port;
            }
        }

        // Double-buffered messages in flight, indexed by receiver; `to_children`
        // is the reusable per-node scratch handed to the program each round.
        let mut from_parent: Vec<Option<P::Message>> = vec![None; n];
        let mut next_from_parent: Vec<Option<P::Message>> = vec![None; n];
        let mut from_children: Vec<Option<P::Message>> = vec![None; total_edges];
        let mut next_from_children: Vec<Option<P::Message>> = vec![None; total_edges];
        let mut to_children: Vec<Option<P::Message>> = vec![None; self.delta];

        let mut round = 0usize;
        while pending > 0 {
            round += 1;
            assert!(
                round <= self.max_rounds,
                "node program did not terminate within {} rounds",
                self.max_rounds
            );
            for v in nodes.clone() {
                let idx = v as usize;
                let slots = &mut to_children[..infos[idx].num_children];
                let action = program.round(
                    round,
                    &infos[idx],
                    &mut states[idx],
                    from_parent[idx].as_ref(),
                    &from_children[child_off[idx]..child_off[idx + 1]],
                    slots,
                );
                if outputs[idx].is_none() {
                    if let Some(out) = action.output {
                        outputs[idx] = Some(out);
                        pending -= 1;
                    }
                }
                if let (Some(msg), Some(parent)) = (action.to_parent, self.tree.parent(v)) {
                    metrics.record_message(program.message_bits(&msg));
                    next_from_children[child_off[parent as usize] + port_of[idx]] = Some(msg);
                }
                for (port, slot) in slots.iter_mut().enumerate() {
                    if let Some(msg) = slot.take() {
                        metrics.record_message(program.message_bits(&msg));
                        let child = self.tree.children(v)[port];
                        next_from_parent[child as usize] = Some(msg);
                    }
                }
            }
            std::mem::swap(&mut from_parent, &mut next_from_parent);
            std::mem::swap(&mut from_children, &mut next_from_children);
            for slot in next_from_parent.iter_mut() {
                *slot = None;
            }
            for slot in next_from_children.iter_mut() {
                *slot = None;
            }
        }
        metrics.rounds = round;
        let outputs = outputs
            .into_iter()
            .map(|o| o.expect("loop exits only when all outputs are set"))
            .collect();
        (outputs, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RoundAction;

    /// Every node outputs its own identifier immediately; zero communication.
    struct OutputOwnId;
    impl NodeProgram for OutputOwnId {
        type State = ();
        type Message = ();
        type Output = u64;
        fn init(&self, _info: &NodeInfo) -> Self::State {}
        fn round(
            &self,
            _round: usize,
            info: &NodeInfo,
            _state: &mut Self::State,
            _from_parent: Option<&Self::Message>,
            _from_children: &[Option<Self::Message>],
            _to_children: &mut [Option<Self::Message>],
        ) -> RoundAction<Self::Message, Self::Output> {
            RoundAction::output(info.id)
        }
    }

    /// Every node learns the identifier of its parent (the root reports its own):
    /// a single down-cast.
    struct LearnParentId;
    impl NodeProgram for LearnParentId {
        type State = ();
        type Message = u64;
        type Output = u64;
        fn init(&self, _info: &NodeInfo) -> Self::State {}
        fn round(
            &self,
            _round: usize,
            info: &NodeInfo,
            _state: &mut Self::State,
            from_parent: Option<&Self::Message>,
            _from_children: &[Option<Self::Message>],
            to_children: &mut [Option<Self::Message>],
        ) -> RoundAction<Self::Message, Self::Output> {
            crate::program::broadcast(to_children, info.id);
            let mut action = RoundAction::idle();
            if info.is_root() {
                action.output = Some(info.id);
            } else if let Some(&pid) = from_parent {
                action.output = Some(pid);
            }
            action
        }
    }

    #[test]
    fn zero_round_program_takes_one_round() {
        let tree = FlatTree::balanced(2, 3);
        let sim = Simulator::new(&tree, IdAssignment::sequential_len(tree.len()));
        let (outputs, metrics) = sim.run(&OutputOwnId);
        assert_eq!(metrics.rounds, 1);
        assert_eq!(metrics.messages, 0);
        assert_eq!(outputs[tree.root() as usize], 1);
    }

    #[test]
    fn parent_id_propagates_in_two_rounds() {
        let tree = FlatTree::balanced(2, 3);
        let ids = IdAssignment::sequential_len(tree.len());
        let sim = Simulator::new(&tree, ids.clone());
        let (outputs, metrics) = sim.run(&LearnParentId);
        assert_eq!(metrics.rounds, 2);
        for v in 0..tree.len() as u32 {
            let expected = ids.as_slice()[tree.parent(v).unwrap_or(v) as usize];
            assert_eq!(outputs[v as usize], expected);
        }
        assert!(metrics.messages > 0);
        assert!(metrics.is_congest_compliant(tree.len(), 32));
    }

    #[test]
    #[should_panic(expected = "did not terminate")]
    fn non_terminating_program_is_caught() {
        struct Never;
        impl NodeProgram for Never {
            type State = ();
            type Message = ();
            type Output = ();
            fn init(&self, _info: &NodeInfo) -> Self::State {}
            fn round(
                &self,
                _round: usize,
                _info: &NodeInfo,
                _state: &mut Self::State,
                _fp: Option<&Self::Message>,
                _fc: &[Option<Self::Message>],
                _tc: &mut [Option<Self::Message>],
            ) -> RoundAction<Self::Message, Self::Output> {
                RoundAction::idle()
            }
        }
        let tree = FlatTree::balanced(2, 1);
        let sim =
            Simulator::new(&tree, IdAssignment::sequential_len(tree.len())).with_max_rounds(10);
        let _ = sim.run(&Never);
    }
}
