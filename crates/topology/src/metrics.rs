//! Topology metrics used by the Pareto-synthesis procedure (Algorithm 1):
//! hop distances and the diameter (latency lower bound `a_l`), and cut
//! bandwidths, which `sccl_core::bounds` turns into the bandwidth lower
//! bound `b_l` (the "inverse bisection bandwidth" of the paper).

use crate::model::Topology;
use std::collections::VecDeque;

/// Shortest hop distances from `src` over the out-adjacency lists `out`.
fn bfs(out: &[Vec<usize>], src: usize) -> Vec<Option<usize>> {
    let mut dist = vec![None; out.len()];
    dist[src] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(n) = queue.pop_front() {
        let d = dist[n].expect("visited");
        for &m in &out[n] {
            if dist[m].is_none() {
                dist[m] = Some(d + 1);
                queue.push_back(m);
            }
        }
    }
    dist
}

impl Topology {
    /// Out-neighbours of every node, in [`Topology::links`] order, from one
    /// pass over the usable links.
    fn out_adjacency(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_nodes()];
        for (src, dst) in self.links() {
            out[src].push(dst);
        }
        out
    }

    /// Shortest hop distances from `src` to every node (BFS over usable
    /// links). Unreachable nodes get `None`.
    pub fn distances_from(&self, src: usize) -> Vec<Option<usize>> {
        bfs(&self.out_adjacency(), src)
    }

    /// All-pairs shortest hop distances: `distances()[src][dst]`, `None`
    /// where `dst` is unreachable from `src`. One BFS per source over one
    /// adjacency built once.
    pub fn distances(&self) -> Vec<Vec<Option<usize>>> {
        let out = self.out_adjacency();
        (0..self.num_nodes()).map(|src| bfs(&out, src)).collect()
    }

    /// `true` if every node can reach every other node.
    pub fn is_strongly_connected(&self) -> bool {
        self.distances().iter().flatten().all(Option::is_some)
    }

    /// The diameter of the topology (maximum shortest-path hop count), or
    /// `None` if the topology is not strongly connected.
    ///
    /// This is the latency lower bound `a_l` used by Algorithm 1: no
    /// algorithm can complete an all-to-all-style collective in fewer steps
    /// than the diameter.
    pub fn diameter(&self) -> Option<usize> {
        self.distances()
            .into_iter()
            .flatten()
            .try_fold(0usize, |acc, d| d.map(|d| acc.max(d)))
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
        self.link_bandwidths()
            .into_iter()
            .filter(|&(src, dst, _)| !inside[src] && inside[dst])
            .map(|(_, _, bw)| bw)
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
