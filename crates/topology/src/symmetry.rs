//! Symmetries of a machine: node permutations that map the bandwidth
//! relation `B` onto itself.
//!
//! The paper scales synthesis by "exploiting symmetries in topologies and
//! collectives"; the synthesizer does so by solving a formula's quotient
//! under a group of such permutations that *acts freely* on the nodes (no
//! element but the identity fixes a node — the rotations of a ring, the
//! translations of a hypercube). A free group has at most one element per
//! image of node 0, so only automorphisms **without fixed points** are of
//! any use to it, and on a machine like a crossbar they are a vanishing
//! share of all automorphisms in lexicographic order. The search below
//! therefore enumerates them directly: one bounded backtracking search per
//! image of node 0, pruning `image == node`.

use crate::model::{Edge, Topology};
use std::collections::BTreeMap;

/// Search-tree nodes one enumeration may visit, split evenly over the
/// images of node 0. The enumeration is a best effort: whatever subset of
/// the automorphisms it finds within the budget is sound to use.
const SEARCH_BUDGET: usize = 1 << 16;

/// Automorphisms kept per image of node 0 (a free group can use one).
const PER_IMAGE: usize = 16;

/// The bandwidth relation as a sorted multiset of `(edges, budget)`, the
/// form in which two relations are compared.
fn relation(topology: &Topology, map: impl Fn(usize) -> usize) -> Vec<(Vec<Edge>, u64)> {
    let mut relation: Vec<(Vec<Edge>, u64)> = topology
        .constraints()
        .iter()
        .map(|c| {
            let mut edges: Vec<Edge> = c.edges.iter().map(|&(s, d)| (map(s), map(d))).collect();
            edges.sort_unstable();
            (edges, c.chunks_per_round)
        })
        .collect();
    relation.sort_unstable();
    relation
}

/// One backtracking search over the images of nodes `1..P` for a fixed
/// image of node 0.
struct Search<'a> {
    topology: &'a Topology,
    /// The relation to reproduce (see [`relation`]).
    target: &'a [(Vec<Edge>, u64)],
    /// `pair_class[a * P + b]`: which constraints (by size and budget)
    /// contain the edge `a → b`. An automorphism preserves every pair's
    /// class, which prunes a partial assignment long before it is complete.
    pair_class: &'a [u32],
    image: Vec<usize>,
    used: Vec<bool>,
    budget: usize,
    found: Vec<Vec<usize>>,
}

impl Search<'_> {
    fn extend(&mut self, node: usize) {
        let p = self.used.len();
        if node == p {
            let image = &self.image;
            if relation(self.topology, |n| image[n]) == self.target {
                self.found.push(self.image.clone());
            }
            return;
        }
        for candidate in 0..p {
            if self.budget == 0 || self.found.len() == PER_IMAGE {
                return;
            }
            if candidate == node || self.used[candidate] {
                continue;
            }
            self.budget -= 1;
            let class = self.pair_class;
            let consistent = (0..node).all(|earlier| {
                let mapped = self.image[earlier];
                class[earlier * p + node] == class[mapped * p + candidate]
                    && class[node * p + earlier] == class[candidate * p + mapped]
            });
            if consistent {
                self.image[node] = candidate;
                self.used[candidate] = true;
                self.extend(node + 1);
                self.used[candidate] = false;
            }
        }
    }
}

impl Topology {
    /// `true` if relabelling every node `n` as `permutation[n]` maps the
    /// multiset of bandwidth constraints onto itself.
    pub fn is_automorphism(&self, permutation: &[usize]) -> bool {
        let p = self.num_nodes();
        let mut seen = vec![false; p];
        permutation.len() == p
            && permutation
                .iter()
                .all(|&n| n < p && !std::mem::replace(&mut seen[n], true))
            && relation(self, |n| permutation[n]) == relation(self, |n| n)
    }

    /// Automorphisms of the machine that fix no node, each as the vector of
    /// node images, in lexicographic order: a few per image of node 0, found
    /// within a fixed search budget. The identity is never
    /// among them. Transport labels are descriptive and ignored.
    pub fn fixed_point_free_automorphisms(&self) -> Vec<Vec<usize>> {
        let p = self.num_nodes();
        let mut classes: BTreeMap<Vec<(usize, u64)>, u32> = BTreeMap::new();
        let mut containing: Vec<Vec<(usize, u64)>> = vec![Vec::new(); p * p];
        for c in self.constraints() {
            for &(src, dst) in &c.edges {
                containing[src * p + dst].push((c.edges.len(), c.chunks_per_round));
            }
        }
        let pair_class: Vec<u32> = containing
            .into_iter()
            .map(|mut constraints| {
                constraints.sort_unstable();
                let next = classes.len() as u32;
                *classes.entry(constraints).or_insert(next)
            })
            .collect();
        let target = relation(self, |n| n);

        let mut found = Vec::new();
        for image_of_zero in 1..p {
            let mut search = Search {
                topology: self,
                target: &target,
                pair_class: &pair_class,
                image: vec![image_of_zero; p],
                used: vec![false; p],
                budget: SEARCH_BUDGET / (p - 1),
                found: Vec::new(),
            };
            search.used[image_of_zero] = true;
            search.extend(1);
            found.append(&mut search.found);
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn count(topology: &Topology) -> usize {
        let found = topology.fixed_point_free_automorphisms();
        for permutation in &found {
            assert!(topology.is_automorphism(permutation), "{permutation:?}");
            assert!(permutation.iter().enumerate().all(|(n, &image)| n != image));
        }
        let mut sorted = found.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted, found, "lexicographic, without repeats");
        found.len()
    }

    #[test]
    fn named_machines_have_the_expected_fixed_point_free_automorphisms() {
        // A ring's dihedral group: the P - 1 rotations, and for even P the
        // P / 2 reflections through two opposite edges.
        assert_eq!(count(&builders::ring(8, 1)), 7 + 4);
        assert_eq!(count(&builders::ring(5, 1)), 4);
        assert_eq!(count(&builders::amd_z52()), 11);
        // A one-way ring has the rotations only.
        assert_eq!(count(&builders::ring_unidirectional(6, 1)), 5);
        // The DGX-1 has three non-trivial automorphisms and all are free.
        assert_eq!(count(&builders::dgx1()), 3);
        // The end-to-end flip of a chain fixes the middle node of an odd one.
        assert_eq!(count(&builders::chain(6, 1)), 1);
        assert_eq!(count(&builders::chain(5, 1)), 0);
        // Swapping the rows of a 2x3 mesh and turning it by 180 degrees
        // fix no node; reversing its columns fixes the middle one.
        assert_eq!(count(&builders::mesh2d(2, 3, 1)), 2);
        // Every automorphism of a star fixes its centre.
        assert_eq!(count(&builders::star(5, 1)), 0);
        // The 8 translations of a 3-cube are free, and so are some of
        // their products with coordinate permutations.
        let cube = builders::hypercube(3, 1);
        assert!(count(&cube) >= 7);
        for translation in 1..8usize {
            let image: Vec<usize> = (0..8).map(|n| n ^ translation).collect();
            assert!(cube.fixed_point_free_automorphisms().contains(&image));
        }
    }

    /// Every permutation of `0..p`, in lexicographic order.
    fn permutations(p: usize) -> Vec<Vec<usize>> {
        if p == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for first in 0..p {
            for rest in permutations(p - 1) {
                let mut perm = vec![first];
                perm.extend(rest.into_iter().map(|n| n + usize::from(n >= first)));
                all.push(perm);
            }
        }
        all
    }

    #[test]
    fn the_dgx1_root_stabiliser_is_trivial() {
        // All 8! relabellings: the DGX-1 has exactly four automorphisms,
        // the identity and the three free ones. Of the 5 040 that fix node
        // 0, only the identity is one, so no symmetry (with any chunk
        // permutation) maps a collective rooted at a GPU onto itself.
        let dgx1 = builders::dgx1();
        let all = permutations(8);
        assert_eq!(all.len(), 40_320);
        let automorphisms: Vec<&Vec<usize>> = all
            .iter()
            .filter(|perm| dgx1.is_automorphism(perm))
            .collect();
        assert_eq!(automorphisms.len(), 4);
        assert_eq!(all.iter().filter(|perm| perm[0] == 0).count(), 5_040);
        let stabiliser: Vec<&Vec<usize>> = automorphisms
            .iter()
            .copied()
            .filter(|perm| perm[0] == 0)
            .collect();
        assert_eq!(stabiliser, vec![&(0..8).collect::<Vec<usize>>()]);
        let free = dgx1.fixed_point_free_automorphisms();
        assert!(free.iter().all(|perm| automorphisms.contains(&perm)));
    }

    #[test]
    fn the_search_is_bounded_on_a_crossbar() {
        // Every derangement of 16 nodes is an automorphism (about 7.7e12 of
        // them): the enumeration keeps a few per image of node 0.
        assert_eq!(count(&builders::fully_connected(16, 1)), 15 * PER_IMAGE);
    }

    #[test]
    fn budgets_and_shared_constraints_are_part_of_the_relation() {
        // Doubling one hop of a ring leaves only the reflection through it.
        let mut ring = builders::ring(6, 1);
        ring.add_bidi_link(0, 1, 1);
        assert_eq!(
            ring.fixed_point_free_automorphisms(),
            vec![vec![1, 0, 5, 4, 3, 2]]
        );
        // An egress cap on one node pins that node.
        let mut capped = builders::ring(4, 1);
        capped.add_shared_constraint([(0, 1), (0, 3)], 1);
        assert_eq!(count(&capped), 0);
        // The same cap on every node is symmetric again.
        let mut capped = builders::ring(4, 1);
        for n in 0..4 {
            capped.add_shared_constraint([(n, (n + 1) % 4), (n, (n + 3) % 4)], 1);
        }
        assert_eq!(count(&capped), 3 + 2);
        // Not a permutation, wrong length: not automorphisms.
        assert!(!capped.is_automorphism(&[1, 1, 2, 3]));
        assert!(!capped.is_automorphism(&[1, 2, 3]));
        assert!(capped.is_automorphism(&[0, 1, 2, 3]));
    }
}
