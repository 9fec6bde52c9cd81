//! Topology metrics used by the Pareto-synthesis procedure (Algorithm 1):
//! the diameter (latency lower bound `a_l`) and the cut bandwidths that
//! `sccl_core::bounds` turns into the bandwidth lower bound `b_l` (the
//! "inverse bisection bandwidth" of the paper).

use crate::model::Topology;
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
}

#[cfg(test)]
mod tests {
    use crate::builders;
    use crate::model::Topology;

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
    }

    #[test]
    fn dgx1_diameter_is_two() {
        let t = builders::dgx1();
        assert_eq!(t.diameter(), Some(2));
    }

    #[test]
    fn eccentricity_of_chain_ends() {
        let t = builders::chain(5, 1);
        assert_eq!(t.eccentricity(0), Some(4));
        assert_eq!(t.eccentricity(2), Some(2));
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn cut_bandwidth_directionality() {
        let mut t = Topology::new("dir", 2);
        t.add_link(0, 1, 3);
        assert_eq!(t.cut_in_bandwidth(&[false, true]), 3);
        assert_eq!(t.cut_in_bandwidth(&[true, false]), 0);
    }

    #[test]
    fn single_node_topology() {
        let t = Topology::new("solo", 1);
        assert_eq!(t.diameter(), Some(0));
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
    }
}
