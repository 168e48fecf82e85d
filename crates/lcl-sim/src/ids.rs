//! Identifier assignments (Section 4.2: identifiers from `{1, …, poly(n)}`).

use lcl_rand::SplitMix64;

/// An assignment of unique identifiers to the nodes of a tree, indexed by
/// node id. Every assignment depends on the node count alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<u64>,
}

impl IdAssignment {
    /// Sequential identifiers `1, 2, …, n` in node-id order — the "adversarially
    /// boring" assignment.
    pub fn sequential_len(n: usize) -> Self {
        IdAssignment {
            ids: (1..=n as u64).collect(),
        }
    }

    /// A uniformly random permutation of `1, …, n` (seeded).
    pub fn random_permutation_len(n: usize, seed: u64) -> Self {
        let mut ids: Vec<u64> = (1..=n as u64).collect();
        SplitMix64::seed_from_u64(seed).shuffle(&mut ids);
        IdAssignment { ids }
    }

    /// Random distinct identifiers from `{1, …, n³}` (seeded), matching the
    /// identifier-space assumption used in the randomized lower bound of Lemma 6.7.
    pub fn random_sparse_len(n: usize, seed: u64) -> Self {
        let cube = (n as u64).saturating_pow(3).max(n as u64);
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < n {
            chosen.insert(rng.gen_range_u64(1, cube));
        }
        IdAssignment {
            ids: chosen.into_iter().collect(),
        }
    }

    /// Builds an assignment from explicit values.
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are not pairwise distinct.
    pub fn from_vec(ids: Vec<u64>) -> Self {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "identifiers must be distinct");
        IdAssignment { ids }
    }

    /// The identifiers as a flat slice indexed by node id.
    pub fn as_slice(&self) -> &[u64] {
        &self.ids
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the assignment covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The number of bits needed to write any identifier of this assignment:
    /// the bit length of the largest identifier, the identifier range the
    /// Cole–Vishkin round count depends on.
    pub fn id_bits(&self) -> usize {
        bit_length(self.ids.iter().copied().max().unwrap_or(1))
    }

    /// The [`id_bits`](Self::id_bits) of [`sequential_len(n)`](Self::sequential_len)
    /// and of every [`random_permutation_len(n, _)`](Self::random_permutation_len),
    /// without building the assignment: the bit length of `n`.
    pub fn sequential_id_bits(n: usize) -> usize {
        bit_length(n.max(1) as u64)
    }

    /// Replays a [`lcl_trees::DynamicTree`] edit journal so identifiers follow
    /// the edited id space: surviving nodes keep their identifiers across
    /// detach swap-compaction (a moved child carries its id to its new slot,
    /// just as the tree recomputes its port), nodes appended by an attach
    /// receive fresh identifiers above everything assigned so far, and
    /// truncation drops the identifiers of removed nodes. The result is again
    /// a valid assignment: pairwise distinct, one id per live node.
    ///
    /// Call this *before* handing the journal to a consumer that clears it
    /// (label repair does); the journal must start where this assignment ends.
    pub fn apply_journal(&mut self, journal: &[lcl_trees::JournalOp]) {
        let mut next = self.ids.iter().copied().max().unwrap_or(0) + 1;
        for &op in journal {
            match op {
                lcl_trees::JournalOp::Grown { first, count } => {
                    let end = (first + count) as usize;
                    debug_assert_eq!(
                        first as usize,
                        self.ids.len(),
                        "journal does not start where this assignment ends"
                    );
                    while self.ids.len() < end {
                        self.ids.push(next);
                        next += 1;
                    }
                }
                lcl_trees::JournalOp::Remapped { from, to } => {
                    self.ids[to as usize] = self.ids[from as usize];
                }
                lcl_trees::JournalOp::Truncated { new_len } => {
                    self.ids.truncate(new_len as usize);
                }
            }
        }
    }
}

/// The number of bits in the binary representation of `x`.
fn bit_length(x: u64) -> usize {
    (u64::BITS - x.leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids() {
        let ids = IdAssignment::sequential_len(7);
        assert_eq!(ids.as_slice()[0], 1);
        assert_eq!(ids.len(), 7);
        assert_eq!(ids.id_bits(), 3);
        for n in [1, 2, 7, 8, 1000, 1 << 20] {
            assert_eq!(
                IdAssignment::sequential_id_bits(n),
                IdAssignment::sequential_len(n).id_bits()
            );
            assert_eq!(
                IdAssignment::sequential_id_bits(n),
                IdAssignment::random_permutation_len(n, 3).id_bits()
            );
        }
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let ids = IdAssignment::random_permutation_len(15, 7);
        let mut values = ids.as_slice().to_vec();
        values.sort_unstable();
        assert_eq!(values, (1..=15).collect::<Vec<u64>>());
        // Different seeds give different permutations (with overwhelming probability).
        let other = IdAssignment::random_permutation_len(15, 8);
        assert_ne!(ids, other);
    }

    #[test]
    fn random_sparse_ids_are_distinct_and_bounded() {
        let ids = IdAssignment::random_sparse_len(15, 3);
        let mut values = ids.as_slice().to_vec();
        let n = 15u64;
        assert!(values.iter().all(|&v| v >= 1 && v <= n * n * n));
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 15);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn from_vec_rejects_duplicates() {
        let _ = IdAssignment::from_vec(vec![1, 2, 2]);
    }

    #[test]
    fn apply_journal_tracks_random_edit_scripts() {
        use lcl_trees::{DynamicTree, EditScriptGen, FlatTree};
        for seed in 0..4u64 {
            let flat = FlatTree::random_full(2, 151, seed);
            let mut dt = DynamicTree::new(flat, 2);
            let mut ids = IdAssignment::random_permutation_len(dt.len(), seed);
            // Remember the identifier each live node carries before editing.
            let before: Vec<u64> = ids.as_slice().to_vec();
            let mut gen = EditScriptGen::new(seed ^ 0x5eed, 151);
            let mut edits = Vec::new();
            for _ in 0..3 {
                edits.clear();
                gen.apply_batch(&mut dt, 24, &mut edits);
                ids.apply_journal(dt.journal());
                dt.clear_journal();
            }
            dt.sync();
            assert_eq!(ids.len(), dt.len(), "one identifier per live node");
            // Pairwise distinct (a valid assignment after arbitrary batches).
            let mut sorted = ids.as_slice().to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), ids.len(), "identifiers stay distinct");
            // The root never moves, so it must keep its original identifier;
            // every identifier is either an original survivor or fresh (above
            // the original id space), never a reused original.
            assert_eq!(ids.as_slice()[0], before[0], "root keeps its id");
            let old_max = before.iter().copied().max().unwrap();
            let originals: std::collections::BTreeSet<u64> = before.iter().copied().collect();
            for &id in ids.as_slice() {
                assert!(
                    originals.contains(&id) || id > old_max,
                    "id {id} is neither a survivor nor fresh"
                );
            }
        }
    }

    #[test]
    fn apply_journal_moves_ids_with_compaction() {
        use lcl_trees::JournalOp;
        let mut ids = IdAssignment::from_vec(vec![10, 20, 30, 40]);
        // Node 3 (id 40) moves into the hole at 1; the space shrinks to 3.
        ids.apply_journal(&[
            JournalOp::Remapped { from: 3, to: 1 },
            JournalOp::Truncated { new_len: 3 },
        ]);
        assert_eq!(ids.as_slice(), &[10, 40, 30]);
        // A subsequent attach appends fresh ids above the running maximum.
        ids.apply_journal(&[JournalOp::Grown { first: 3, count: 2 }]);
        assert_eq!(ids.len(), 5);
        assert_eq!(ids.as_slice()[3..], [41, 42]);
    }
}
