//! The initial knowledge of a node (Section 4.2): its identifier, degree, the
//! total number of nodes `n`, the identifier range, δ, and which incident edge
//! leads to the parent.

/// Everything a node knows before the first communication round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// The node's unique identifier (from `{1, …, poly(n)}`).
    pub id: u64,
    /// Total number of nodes in the tree.
    pub n: usize,
    /// The bit length of the largest identifier in the tree: every identifier
    /// lies below `2^id_bits` (the identifier range, known to all nodes).
    pub id_bits: usize,
    /// Number of children of this node (0 for leaves).
    pub num_children: usize,
    /// `true` unless this node is the root.
    pub has_parent: bool,
    /// The maximum number of children over the whole tree (the δ of full δ-ary
    /// instances). Corresponds to the global knowledge of Δ in the model.
    pub delta: usize,
}

impl NodeInfo {
    /// `true` if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.num_children == 0
    }

    /// `true` if the node is the root.
    pub fn is_root(&self) -> bool {
        !self.has_parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_root_predicates() {
        let leaf = NodeInfo {
            id: 5,
            n: 10,
            id_bits: 4,
            num_children: 0,
            has_parent: true,
            delta: 2,
        };
        assert!(leaf.is_leaf());
        assert!(!leaf.is_root());
        let root = NodeInfo {
            id: 1,
            n: 10,
            id_bits: 4,
            num_children: 2,
            has_parent: false,
            delta: 2,
        };
        assert!(root.is_root());
        assert!(!root.is_leaf());
    }
}
