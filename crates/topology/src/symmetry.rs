//! Symmetries of a machine: node permutations that map the bandwidth
//! relation `B` onto itself. The synthesizer "exploits symmetries in
//! topologies and collectives", as the paper puts it, by solving a formula's
//! quotient under a group of them that *acts freely* on the nodes (only the
//! identity fixes a node: the rotations of a ring, the translations of a
//! hypercube). [`Topology::free_group`] grows one in one backtracking search.

use crate::model::{Edge, Topology};

/// Search-tree nodes one search may visit, a safety net: a search cut short
/// returns the free group grown so far, as sound to use as a larger one.
const SEARCH_BUDGET: usize = 1 << 16;

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

/// The node permutations `generators` generate, identity first, or `None`
/// if one of them other than the identity fixes a node.
fn generate_free(num_nodes: usize, generators: &[Vec<usize>]) -> Option<Vec<Vec<usize>>> {
    let mut elements: Vec<Vec<usize>> = vec![(0..num_nodes).collect()];
    let mut next = 0;
    while next < elements.len() {
        for generator in generators {
            let product: Vec<usize> = elements[next].iter().map(|&n| generator[n]).collect();
            if elements.contains(&product) {
                continue;
            }
            // A free action has one element per image of node 0 at most.
            let free = product.iter().enumerate().all(|(n, &image)| n != image);
            if !free || elements.len() == num_nodes {
                return None;
            }
            elements.push(product);
        }
        next += 1;
    }
    Some(elements)
}

/// Each item's rank among the distinct items, in sorted order.
fn ranks<T: Ord>(items: &[T]) -> Vec<u32> {
    let mut distinct: Vec<&T> = items.iter().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let rank = |item| distinct.binary_search(&item).expect("listed") as u32;
    items.iter().map(rank).collect()
}

/// Colour refinement to a fixpoint, which automorphisms keep: a node's next
/// colour ranks its colour with the sorted `(class out, class in, colour)`
/// of its neighbours (class 0 is no edge, as from a node to itself), so a
/// round that splits no colour changes none.
fn colours(p: usize, pair_class: &[u32]) -> Vec<u32> {
    let mut colour = vec![0; p];
    loop {
        let signatures: Vec<_> = (0..p)
            .map(|n| {
                let mut around: Vec<_> = (0..p)
                    .map(|m| (pair_class[n * p + m], pair_class[m * p + n], colour[m]))
                    .filter(|&(out, into, _)| (out, into) != (0, 0))
                    .collect();
                around.sort_unstable();
                (colour[n], around)
            })
            .collect();
        let next = ranks(&signatures);
        if next == colour {
            return colour;
        }
        colour = next;
    }
}

struct Search<'a> {
    topology: &'a Topology,
    target: Vec<(Vec<Edge>, u64)>,
    /// `pair_class[a * P + b]`: the sizes and budgets of the constraints
    /// that contain the edge `a → b`, which every automorphism preserves.
    pair_class: Vec<u32>,
    colour: Vec<u32>,
    generators: Vec<Vec<usize>>,
    /// The group the generators generate, identity first.
    elements: Vec<Vec<usize>>,
    /// The partial map, set below the node being extended.
    image: Vec<usize>,
    visited: usize,
}

impl Search<'_> {
    /// Whether `node → candidate` may extend the map: it keeps colours (as
    /// every automorphism does), pair classes and the map injective, and
    /// `candidate` is outside `node`'s orbit under the group so far (if
    /// `τ(n) = h(n)`, then `h⁻¹∘τ ≠ id` fixes `n` and `τ` cannot join).
    fn admissible(&self, node: usize, candidate: usize) -> bool {
        let (p, class) = (self.image.len(), &self.pair_class);
        self.colour[candidate] == self.colour[node]
            && !self.image[..node].contains(&candidate)
            && !self.elements.iter().any(|h| h[node] == candidate)
            && (0..node).all(|earlier| {
                let mapped = self.image[earlier];
                class[earlier * p + node] == class[mapped * p + candidate]
                    && class[node * p + earlier] == class[candidate * p + mapped]
            })
    }

    /// Extend the map from `node` on, least images first; `true` once a
    /// complete map is an automorphism that joins the group. Node 0 then
    /// goes on to its next image the group does not reach.
    fn extend(&mut self, node: usize) -> bool {
        let p = self.image.len();
        if node == p {
            let image = &self.image;
            if relation(self.topology, |n| image[n]) != self.target {
                return false;
            }
            self.generators.push(self.image.clone());
            let Some(elements) = generate_free(p, &self.generators) else {
                self.generators.pop();
                return false;
            };
            self.elements = elements;
            return true;
        }
        for candidate in 0..p {
            if self.visited < SEARCH_BUDGET && self.admissible(node, candidate) {
                self.visited += 1;
                self.image[node] = candidate;
                if self.extend(node + 1) && node > 0 {
                    return true;
                }
            }
        }
        false
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

    /// A group of automorphisms that acts freely on the nodes, identity
    /// first: per image of node 0, ascending, that it does not reach yet,
    /// the lexicographically least automorphism that keeps it free joins,
    /// until it has `P` elements. Transport labels are ignored.
    pub fn free_group(&self) -> Vec<Vec<usize>> {
        self.search_free_group().0
    }

    /// [`Topology::free_group`] and the search-tree nodes it visited.
    fn search_free_group(&self) -> (Vec<Vec<usize>>, usize) {
        let p = self.num_nodes();
        let mut containing: Vec<Vec<(usize, u64)>> = vec![Vec::new(); p * p];
        for c in self.constraints() {
            for &(src, dst) in &c.edges {
                containing[src * p + dst].push((c.edges.len(), c.chunks_per_round));
            }
        }
        containing.iter_mut().for_each(|list| list.sort_unstable());
        let pair_class = ranks(&containing);
        let mut search = Search {
            topology: self,
            target: relation(self, |n| n),
            colour: colours(p, &pair_class),
            pair_class,
            generators: Vec::new(),
            elements: vec![(0..p).collect()],
            image: vec![0; p],
            visited: 0,
        };
        search.extend(0);
        (search.elements, search.visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    /// The free group's order, after checking that it is one: automorphisms,
    /// the identity first and the only element that fixes a node, closed
    /// under products.
    fn order(topology: &Topology) -> usize {
        let group = topology.free_group();
        let p = topology.num_nodes();
        assert_eq!(group[0], (0..p).collect::<Vec<usize>>(), "identity first");
        for g in &group {
            assert!(topology.is_automorphism(g), "{g:?}");
            let fixes_a_node = g.iter().enumerate().any(|(n, &image)| n == image);
            assert_eq!(fixes_a_node, *g == group[0], "only the identity: {g:?}");
            for h in &group {
                let product: Vec<usize> = g.iter().map(|&n| h[n]).collect();
                assert!(group.contains(&product), "closed");
            }
        }
        assert!(group.len() <= p.max(1));
        group.len()
    }

    fn machine(spec: &str) -> Topology {
        builders::parse_spec(spec).expect("a known machine")
    }

    #[test]
    fn named_machines_have_the_expected_free_groups() {
        // A ring's rotations; a one-way ring has nothing else.
        assert_eq!(order(&builders::ring(8, 1)), 8);
        assert_eq!(order(&builders::ring(5, 1)), 5);
        assert_eq!(order(&builders::ring_unidirectional(6, 1)), 6);
        assert_eq!(order(&builders::amd_z52()), 8);
        // The DGX-1 has three non-trivial automorphisms and all are free.
        assert_eq!(order(&builders::dgx1()), 4);
        // The end-to-end flip of a chain fixes the middle node of an odd one.
        assert_eq!(order(&builders::chain(6, 1)), 2);
        assert_eq!(order(&builders::chain(5, 1)), 1);
        // Swapping the rows of a 2x3 mesh fixes no node; every other
        // symmetry but its product with that swap fixes one.
        assert_eq!(order(&builders::mesh2d(2, 3, 1)), 2);
        // Every automorphism of a star fixes its centre.
        assert_eq!(order(&builders::star(5, 1)), 1);
        assert_eq!(order(&builders::hypercube(3, 1)), 8);
        assert_eq!(order(&builders::fully_connected(8, 1)), 8);
        // A corner of an 8x8 mesh goes only to a corner.
        assert_eq!(order(&machine("mesh:8x8")), 4);
    }

    /// Search-tree nodes are deterministic where wall time is not. Without
    /// colour refinement mesh:8x8's search runs into the cap with a group
    /// of 2; rings:16x16 is the largest search of the named machines.
    /// fc:16's count is pinned with the crossbar below.
    #[test]
    fn search_effort_is_pinned() {
        for (spec, order, visited) in [
            ("hypercube:6", 64, 384),
            ("mesh:8x8", 4, 134),
            ("rings:16x16", 16, 512),
        ] {
            let (group, nodes) = machine(spec).search_free_group();
            assert_eq!((group.len(), nodes), (order, visited), "{spec}");
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
        let free = dgx1.free_group();
        assert_eq!(free.iter().collect::<Vec<_>>(), automorphisms);
    }

    #[test]
    fn the_search_is_bounded_on_a_crossbar() {
        // Every derangement of 16 nodes is an automorphism (about 7.7e12 of
        // them): with the orbit rule each of the four generators is found
        // without backtracking, one search-tree node per node. Without it
        // the search runs into the cap with a group of 2.
        let (group, nodes) = machine("fc:16").search_free_group();
        assert_eq!((group.len(), nodes), (16, 4 * 16));
        assert!(nodes < SEARCH_BUDGET);
    }

    #[test]
    fn budgets_and_shared_constraints_are_part_of_the_relation() {
        // Doubling one hop of a ring leaves only the reflection through it.
        let mut ring = builders::ring(6, 1);
        ring.add_bidi_link(0, 1, 1);
        assert_eq!(
            ring.free_group(),
            vec![vec![0, 1, 2, 3, 4, 5], vec![1, 0, 5, 4, 3, 2]]
        );
        // An egress cap on one node pins that node.
        let mut capped = builders::ring(4, 1);
        capped.add_shared_constraint([(0, 1), (0, 3)], 1);
        assert_eq!(order(&capped), 1);
        // The same cap on every node is symmetric again.
        let mut capped = builders::ring(4, 1);
        for n in 0..4 {
            capped.add_shared_constraint([(n, (n + 1) % 4), (n, (n + 3) % 4)], 1);
        }
        assert_eq!(order(&capped), 4);
        // Not a permutation, wrong length: not automorphisms.
        assert!(!capped.is_automorphism(&[1, 1, 2, 3]));
        assert!(!capped.is_automorphism(&[1, 2, 3]));
        assert!(capped.is_automorphism(&[0, 1, 2, 3]));
    }
}
