//! Property-based tests for topology metrics.

use proptest::prelude::*;
use sccl_topology::{builders, Topology};
use std::collections::VecDeque;

/// BFS from `src` that asks the topology for each dequeued node's
/// out-neighbours: the reference [`Topology::distances`] must equal.
fn reference_distances_from(topology: &Topology, src: usize) -> Vec<Option<usize>> {
    let mut dist = vec![None; topology.num_nodes()];
    dist[src] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(n) = queue.pop_front() {
        for m in topology.out_neighbors(n) {
            if dist[m].is_none() {
                dist[m] = Some(dist[n].expect("visited") + 1);
                queue.push_back(m);
            }
        }
    }
    dist
}

/// Strategy: a random connected topology built from a ring backbone plus
/// random extra links, with bandwidths in 1..=3.
fn random_connected_topology() -> impl Strategy<Value = Topology> {
    (
        3usize..8,
        prop::collection::vec((0usize..8, 0usize..8, 1u64..4), 0..12),
        1u64..3,
    )
        .prop_map(|(n, extras, ring_bw)| {
            let mut t = builders::ring(n, ring_bw);
            for (a, b, bw) in extras {
                let a = a % n;
                let b = b % n;
                if a != b {
                    t.add_link(a, b, bw);
                }
            }
            t
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring backbones keep everything connected, with diameter ≤ ⌊n/2⌋.
    #[test]
    fn ring_backbone_is_connected(topo in random_connected_topology()) {
        prop_assert!(topo.is_strongly_connected());
        let d = topo.diameter().expect("connected");
        prop_assert!(d <= topo.num_nodes() / 2);
        prop_assert!(d >= 1);
    }

    /// Adding links never increases the diameter. (The bandwidth half of
    /// this property is `sccl_core::bounds`'.)
    #[test]
    fn extra_links_only_help(n in 4usize..8, a in 0usize..8, b in 0usize..8) {
        let a = a % n;
        let b = b % n;
        prop_assume!(a != b);
        let base = builders::ring(n, 1);
        let mut extended = base.clone();
        extended.add_bidi_link(a, b, 2);
        let d_base = base.diameter().expect("connected");
        let d_ext = extended.diameter().expect("connected");
        prop_assert!(d_ext <= d_base);
    }

    /// Reversing a topology preserves node count, link count and (for the
    /// Allgather bound computed on the reversed graph) symmetry of
    /// bidirectional topologies.
    #[test]
    fn reversal_is_an_involution(topo in random_connected_topology()) {
        let rev = topo.reversed();
        prop_assert_eq!(rev.num_nodes(), topo.num_nodes());
        prop_assert_eq!(rev.num_links(), topo.num_links());
        prop_assert_eq!(rev.reversed().links(), topo.links());
    }

    /// Eccentricity from any node is bounded by the diameter and at least
    /// the distance to any single node.
    #[test]
    fn eccentricity_bounds(topo in random_connected_topology(), node in 0usize..8) {
        let node = node % topo.num_nodes();
        let ecc = topo.eccentricity(node).expect("connected");
        let diameter = topo.diameter().expect("connected");
        prop_assert!(ecc <= diameter);
        let dist = topo.distances_from(node);
        let max_dist = dist.iter().map(|d| d.expect("connected")).max().unwrap_or(0);
        prop_assert_eq!(ecc, max_dist);
    }

    /// All-pairs distances equal one reference BFS per source on random
    /// directed topologies: no backbone, so some pairs are unreachable, and
    /// zero-budget constraints make some mentioned edges unusable.
    #[test]
    fn all_pairs_distances_equal_per_source_bfs(
        n in 1usize..10,
        links in prop::collection::vec((0usize..10, 0usize..10, 0u64..3), 0..16),
    ) {
        let mut topo = Topology::new(format!("random-{n}"), n);
        for &(a, b, bw) in &links {
            if a % n != b % n {
                topo.add_link(a % n, b % n, bw);
            }
        }
        let all = topo.distances();
        prop_assert_eq!(all.len(), n);
        for (src, row) in all.iter().enumerate() {
            prop_assert_eq!(row, &reference_distances_from(&topo, src));
            prop_assert_eq!(row, &topo.distances_from(src));
        }
        let reachable = all.iter().flatten().all(Option::is_some);
        prop_assert_eq!(topo.is_strongly_connected(), reachable);
        let diameter = all.iter().flatten().try_fold(0, |acc, d| d.map(|d| acc.max(d)));
        prop_assert_eq!(topo.diameter(), diameter);
    }

    /// Bandwidth symmetry of the standard builders: every node of a ring,
    /// hypercube or fully-connected graph has equal in- and out-bandwidth.
    #[test]
    fn builder_bandwidth_symmetry(kind in 0usize..3, n in 2usize..6, bw in 1u64..4) {
        let topo = match kind {
            0 => builders::ring(n.max(2), bw),
            1 => builders::hypercube(n.min(4) as u32, bw),
            _ => builders::fully_connected(n.max(2), bw),
        };
        for node in 0..topo.num_nodes() {
            prop_assert_eq!(topo.in_bandwidth(node), topo.out_bandwidth(node));
        }
    }
}
