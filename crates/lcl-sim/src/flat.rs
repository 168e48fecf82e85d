//! Flat (CSR) execution paths for the built-in programs.
//!
//! The message-passing [`Simulator`](crate::Simulator) is the semantic
//! reference: it runs any [`NodeProgram`](crate::NodeProgram) faithfully, one
//! boxed message slot per edge. For the solvers in `lcl-algorithms` the only
//! program on the hot path is Cole–Vishkin chain colour reduction, whose data
//! flow is trivially regular — each node reads its parent's previous colour —
//! so this module executes it directly over double-buffered `u64` arrays on a
//! [`FlatTree`]: no per-node state structs and no message slots.
//!
//! [`chain_color_reduction_flat`] reproduces the simulator run *exactly*: the
//! same colours and the same [`Metrics`] (rounds, message count, bit totals)
//! as `Simulator::run(&ChainColorReduction)` with the same identifiers, so the
//! Cole–Vishkin phases the flat solvers report as measured are the rounds of
//! the message-passing program. Each reduction round is sharded across
//! `std::thread::scope` workers over contiguous node ranges (reads go to the
//! previous buffer, so workers only ever write their own chunk).

use lcl_trees::FlatTree;

use crate::ids::IdAssignment;
use crate::metrics::Metrics;
use crate::programs::ChainColorReduction;

/// Minimum per-worker chunk: below this, sharding a round costs more than it
/// saves (same threshold as the CSR validator in `lcl-verify`).
const MIN_CHUNK: usize = 4096;

/// Reusable buffers for [`chain_color_reduction_flat`]. After the first run of
/// a given tree size, subsequent runs perform no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct CvScratch {
    cur: Vec<u64>,
    next: Vec<u64>,
    colors: Vec<u8>,
}

impl CvScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The colours of the most recent run, indexed by node id (all `< 6`).
    pub fn colors(&self) -> &[u8] {
        &self.colors
    }
}

/// Resizes `buf` to `n` entries without shrinking its capacity.
fn reset<T: Copy + Default>(buf: &mut Vec<T>, n: usize) {
    buf.clear();
    buf.resize(n, T::default());
}

/// Charges one round's broadcast to `metrics`: every node sends its current
/// colour to each child, exactly as the simulator records it.
fn account_broadcast(metrics: &mut Metrics, tree: &FlatTree, colors: &[u64]) {
    for v in 0..tree.len() as u32 {
        let nc = tree.num_children(v);
        if nc == 0 {
            continue;
        }
        let bits = (64 - colors[v as usize].leading_zeros()).max(1) as usize;
        metrics.messages += nc;
        metrics.total_message_bits += nc * bits;
        metrics.max_message_bits = metrics.max_message_bits.max(bits);
    }
}

/// Runs Cole–Vishkin chain colour reduction on a [`FlatTree`] over flat `u64`
/// arrays, writing the final colours (proper along every parent edge, values
/// `< 6`) into `scratch` and returning the metrics of the equivalent simulator
/// run. `workers` bounds the shard count per round (1 = sequential).
///
/// # Panics
///
/// Panics if `ids` does not cover exactly the tree's nodes.
pub fn chain_color_reduction_flat(
    tree: &FlatTree,
    ids: &IdAssignment,
    workers: usize,
    scratch: &mut CvScratch,
) -> Metrics {
    let n = tree.len();
    assert_eq!(ids.len(), n, "one identifier per node is required");
    let CvScratch { cur, next, colors } = scratch;
    reset(cur, n);
    cur.copy_from_slice(ids.as_slice());
    reset(next, n);

    let id_bits = (64 - (n as u64).leading_zeros()) as usize;
    let iters = ChainColorReduction::iterations_needed(id_bits);
    let mut metrics = Metrics::default();

    // Round 1 announces the initial colours; reduction steps follow in
    // lockstep, one per round, every round re-broadcasting downwards.
    account_broadcast(&mut metrics, tree, cur);
    let parent = tree.parent_array();
    for _ in 0..iters {
        let step = |lo: usize, out: &mut [u64]| {
            for (i, slot) in out.iter_mut().enumerate() {
                let v = lo + i;
                let own = cur[v];
                let p = parent[v];
                let parent_color = if p == FlatTree::NO_PARENT {
                    own ^ 1 // virtual parent differing in bit 0
                } else {
                    cur[p as usize]
                };
                *slot = ChainColorReduction::cv_step(own, parent_color);
            }
        };
        let workers = workers.clamp(1, n.div_ceil(MIN_CHUNK).max(1));
        if workers == 1 {
            step(0, next);
        } else {
            let chunk = n.div_ceil(workers);
            std::thread::scope(|scope| {
                for (w, out) in next.chunks_mut(chunk).enumerate() {
                    let step = &step;
                    scope.spawn(move || step(w * chunk, out));
                }
            });
        }
        std::mem::swap(cur, next);
        account_broadcast(&mut metrics, tree, cur);
    }
    metrics.rounds = iters + 1;

    reset(colors, n);
    for (c, &v) in colors.iter_mut().zip(cur.iter()) {
        debug_assert!(v < 6, "colour {v} out of range");
        *c = v as u8;
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    /// The message-passing run on the same tree and identifiers.
    fn simulator_run(flat: &FlatTree, ids: &IdAssignment) -> (Vec<u8>, Metrics) {
        Simulator::new(flat, ids.clone()).run(&ChainColorReduction)
    }

    #[test]
    fn matches_simulator_colors_and_metrics() {
        let mut scratch = CvScratch::new();
        for (flat, seed) in [
            (FlatTree::random_full(2, 501, 3), 1u64),
            (FlatTree::random_full(3, 301, 9), 2),
            (FlatTree::balanced(2, 7), 3),
            (FlatTree::hairy_path(2, 120), 4),
        ] {
            let ids = IdAssignment::random_permutation_len(flat.len(), seed);
            let (expected_colors, expected_metrics) = simulator_run(&flat, &ids);
            for workers in [1, 4] {
                let metrics = chain_color_reduction_flat(&flat, &ids, workers, &mut scratch);
                assert_eq!(scratch.colors(), expected_colors.as_slice());
                assert_eq!(metrics, expected_metrics, "workers {workers}");
            }
        }
    }

    #[test]
    fn colors_are_proper_on_a_large_tree() {
        let flat = FlatTree::random_full(2, 100_001, 7);
        let ids = IdAssignment::sequential_len(flat.len());
        let mut scratch = CvScratch::new();
        let metrics = chain_color_reduction_flat(&flat, &ids, 4, &mut scratch);
        for v in 0..flat.len() as u32 {
            if let Some(p) = flat.parent(v) {
                assert_ne!(scratch.colors()[v as usize], scratch.colors()[p as usize]);
            }
        }
        assert!(metrics.rounds <= 10);
        assert!(metrics.is_congest_compliant(flat.len(), 8));
    }

    #[test]
    fn singleton_tree_reduces() {
        let flat = FlatTree::balanced(2, 0);
        let ids = IdAssignment::sequential_len(1);
        let mut scratch = CvScratch::new();
        let (expected_colors, expected_metrics) = simulator_run(&flat, &ids);
        let metrics = chain_color_reduction_flat(&flat, &ids, 1, &mut scratch);
        assert_eq!(scratch.colors(), expected_colors.as_slice());
        assert_eq!(metrics, expected_metrics);
    }
}
