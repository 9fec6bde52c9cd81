//! Topology metrics used by the Pareto-synthesis procedure (Algorithm 1):
//! the diameter (latency lower bound `a_l`) and cut-based bandwidth lower
//! bounds (`b_l`, the "inverse bisection bandwidth" of the paper).

use crate::model::Topology;
use crate::rational::Rational;
use std::collections::VecDeque;

/// Total per-round budget of the `links` (as [`Topology::link_bandwidths`]
/// lists them) that cross *into* the node set `inside` from its complement.
/// Cut enumeration lists the links once and calls this per cut.
pub fn cut_bandwidth(links: &[(usize, usize, u64)], inside: impl Fn(usize) -> bool) -> u64 {
    links
        .iter()
        .filter(|&&(src, dst, _)| !inside(src) && inside(dst))
        .map(|&(_, _, bw)| bw)
        .sum()
}

impl Topology {
    /// Shortest hop distances from `src` to every node (BFS over usable
    /// links). Unreachable nodes get `None`.
    pub fn distances_from(&self, src: usize) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.num_nodes()];
        dist[src] = Some(0);
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(n) = queue.pop_front() {
            let d = dist[n].expect("visited");
            for m in self.out_neighbors(n) {
                if dist[m].is_none() {
                    dist[m] = Some(d + 1);
                    queue.push_back(m);
                }
            }
        }
        dist
    }

    /// `true` if every node can reach every other node.
    pub fn is_strongly_connected(&self) -> bool {
        (0..self.num_nodes()).all(|src| self.distances_from(src).iter().all(|d| d.is_some()))
    }

    /// The diameter of the topology (maximum shortest-path hop count), or
    /// `None` if the topology is not strongly connected.
    ///
    /// This is the latency lower bound `a_l` used by Algorithm 1: no
    /// algorithm can complete an all-to-all-style collective in fewer steps
    /// than the diameter.
    pub fn diameter(&self) -> Option<usize> {
        let mut max = 0;
        for src in 0..self.num_nodes() {
            for d in self.distances_from(src) {
                max = max.max(d?);
            }
        }
        Some(max)
    }

    /// Eccentricity of a node: the largest hop distance from `root` to any
    /// node (`None` if some node is unreachable). This is the latency lower
    /// bound for rooted collectives such as Broadcast.
    pub fn eccentricity(&self, root: usize) -> Option<usize> {
        self.distances_from(root)
            .into_iter()
            .try_fold(0usize, |acc, d| d.map(|d| acc.max(d)))
    }

    /// Total per-round chunk budget of edges crossing *into* the node set
    /// `inside` from its complement.
    pub fn cut_in_bandwidth(&self, inside: &[bool]) -> u64 {
        assert_eq!(inside.len(), self.num_nodes());
        self.links()
            .iter()
            .filter(|&&(s, d)| !inside[s] && inside[d])
            .filter_map(|&(s, d)| self.link_bandwidth(s, d))
            .sum()
    }

    /// Total per-round chunk budget of edges crossing *out of* the node set.
    pub fn cut_out_bandwidth(&self, inside: &[bool]) -> u64 {
        assert_eq!(inside.len(), self.num_nodes());
        self.links()
            .iter()
            .filter(|&&(s, d)| inside[s] && !inside[d])
            .filter_map(|&(s, d)| self.link_bandwidth(s, d))
            .sum()
    }

    /// Bandwidth lower bound `b_l` (in rounds per chunk, `R/C`) for
    /// Allgather-style collectives where every node's data must reach every
    /// other node.
    ///
    /// For every non-empty proper subset `S` of nodes, at least
    /// `P − |S|` distinct chunks (per per-node chunk) must enter `S`, so any
    /// algorithm needs at least `(P − |S|) / in_bw(S)` rounds per chunk. The
    /// bound is the maximum over all cuts; for `P ≤ 20` all cuts are
    /// enumerated, otherwise only single-node and complement cuts are used.
    /// The single-node cut reproduces the paper's DGX-1 bound of 7/6
    /// (§2.4), and the half-cut is the classical bisection bound.
    pub fn allgather_bandwidth_lower_bound(&self) -> Option<Rational> {
        let p = self.num_nodes();
        if p == 1 {
            return Some(Rational::zero());
        }
        let links = self.link_bandwidths();
        let mut best = Rational::zero();
        // One cut: `outside` chunks (per per-node chunk) must enter it over
        // `bw` chunks per round.
        let mut consider = |outside: usize, bw: u64| -> Option<()> {
            if bw == 0 {
                return None; // disconnected: no finite bound
            }
            best = best.max(Rational::new(outside as u64, bw));
            Some(())
        };
        if p <= 20 {
            // Node sets as bitmasks: a million cuts at `P = 20`, each
            // `O(|links|)` bit tests.
            for inside in 1u32..(1 << p) - 1 {
                let bw = cut_bandwidth(&links, |n| inside >> n & 1 == 1);
                consider(p - inside.count_ones() as usize, bw)?;
            }
        } else {
            for n in 0..p {
                consider(p - 1, cut_bandwidth(&links, |m| m == n))?;
                consider(1, cut_bandwidth(&links, |m| m != n))?;
            }
        }
        Some(best)
    }

    /// Bandwidth lower bound `R/C` for a rooted Broadcast from `root`: every
    /// other node must receive `C` chunks, so every single-node cut not
    /// containing the root gives a bound of `1 / in_bw(n)`.
    pub fn broadcast_bandwidth_lower_bound(&self, root: usize) -> Option<Rational> {
        let p = self.num_nodes();
        if p == 1 {
            return Some(Rational::zero());
        }
        let mut best = Rational::zero();
        for n in 0..p {
            if n == root {
                continue;
            }
            let mut inside = vec![false; p];
            inside[n] = true;
            let bw = self.cut_in_bandwidth(&inside);
            if bw == 0 {
                return None;
            }
            best = best.max(Rational::new(1, bw));
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use crate::builders;
    use crate::model::Topology;
    use crate::rational::Rational;

    #[test]
    fn ring_diameter() {
        let t = builders::ring(8, 1);
        assert_eq!(t.diameter(), Some(4));
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn unidirectional_ring_diameter() {
        let t = builders::ring_unidirectional(5, 1);
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn fully_connected_diameter_is_one() {
        let t = builders::fully_connected(6, 1);
        assert_eq!(t.diameter(), Some(1));
    }

    #[test]
    fn disconnected_topology_has_no_diameter() {
        let mut t = Topology::new("split", 4);
        t.add_bidi_link(0, 1, 1);
        t.add_bidi_link(2, 3, 1);
        assert_eq!(t.diameter(), None);
        assert!(!t.is_strongly_connected());
        assert_eq!(t.allgather_bandwidth_lower_bound(), None);
    }

    #[test]
    fn dgx1_diameter_is_two() {
        let t = builders::dgx1();
        assert_eq!(t.diameter(), Some(2));
    }

    #[test]
    fn dgx1_allgather_bound_is_seven_sixths() {
        // §2.4: each node must receive 7 chunks over 6 incoming NVLinks.
        let t = builders::dgx1();
        assert_eq!(
            t.allgather_bandwidth_lower_bound(),
            Some(Rational::new(7, 6))
        );
    }

    /// The per-cut implementation the bitmask enumeration replaced, kept as
    /// its reference: one `Vec<bool>` and one `cut_in_bandwidth` per cut.
    fn reference_allgather_bound(t: &Topology) -> Option<Rational> {
        let p = t.num_nodes();
        let masks: Vec<Vec<bool>> = if p <= 20 {
            (1u32..(1 << p) - 1)
                .map(|mask| (0..p).map(|i| mask >> i & 1 == 1).collect())
                .collect()
        } else {
            (0..p)
                .flat_map(|n| {
                    [true, false].map(|single| (0..p).map(|m| (m == n) == single).collect())
                })
                .collect()
        };
        let mut best = Rational::zero();
        for inside in masks {
            let outside = inside.iter().filter(|&&b| !b).count() as u64;
            match t.cut_in_bandwidth(&inside) {
                0 => return None,
                bw => best = best.max(Rational::new(outside, bw)),
            }
        }
        Some(best)
    }

    #[test]
    fn bitmask_allgather_bound_equals_the_per_cut_reference() {
        let mut lopsided = builders::chain(6, 2);
        lopsided.add_link(5, 0, 1).add_link(2, 4, 3);
        lopsided.add_shared_constraint([(0, 1), (2, 1)], 1);
        let mut one_way = Topology::new("one-way", 3);
        one_way.add_link(0, 1, 1).add_link(1, 2, 1);
        for t in [
            builders::dgx1(),
            builders::ring(5, 1),
            builders::mesh2d(3, 4, 1),
            builders::star(6, 2),
            lopsided,
            one_way,
            // Beyond 20 nodes: single-node cuts and complements only.
            builders::ring(24, 2),
            builders::ring_of_rings(4, 6, 2, 1),
        ] {
            assert_eq!(
                t.allgather_bandwidth_lower_bound(),
                reference_allgather_bound(&t),
                "{}",
                t.name()
            );
        }
    }

    #[test]
    fn ring_allgather_bound() {
        // Bidirectional ring of 8 with unit links: each node has 2 incoming
        // links and must receive 7 chunks -> 7/2 rounds per chunk.
        let t = builders::ring(8, 1);
        assert_eq!(
            t.allgather_bandwidth_lower_bound(),
            Some(Rational::new(7, 2))
        );
    }

    #[test]
    fn eccentricity_of_chain_ends() {
        let t = builders::chain(5, 1);
        assert_eq!(t.eccentricity(0), Some(4));
        assert_eq!(t.eccentricity(2), Some(2));
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn broadcast_bound_unit_ring() {
        let t = builders::ring(4, 1);
        assert_eq!(
            t.broadcast_bandwidth_lower_bound(0),
            Some(Rational::new(1, 2))
        );
    }

    #[test]
    fn cut_bandwidth_directionality() {
        let mut t = Topology::new("dir", 2);
        t.add_link(0, 1, 3);
        let inside = vec![false, true];
        assert_eq!(t.cut_in_bandwidth(&inside), 3);
        assert_eq!(t.cut_out_bandwidth(&inside), 0);
    }

    #[test]
    fn single_node_topology() {
        let t = Topology::new("solo", 1);
        assert_eq!(t.diameter(), Some(0));
        assert_eq!(t.allgather_bandwidth_lower_bound(), Some(Rational::zero()));
    }

    #[test]
    fn hypercube_diameter() {
        let t = builders::hypercube(3, 1);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.diameter(), Some(3));
    }

    #[test]
    fn mesh_diameter() {
        let t = builders::mesh2d(3, 4, 1);
        assert_eq!(t.num_nodes(), 12);
        assert_eq!(t.diameter(), Some(5));
    }

    #[test]
    fn amd_z52_diameter_is_four() {
        // The paper's model of the Gigabyte Z52 is an 8-node ring (§5.2.2),
        // so the latency-optimal Allgather takes 4 steps (Table 5).
        let t = builders::amd_z52();
        assert_eq!(t.diameter(), Some(4));
        assert_eq!(
            t.allgather_bandwidth_lower_bound(),
            Some(Rational::new(7, 2))
        );
    }
}
