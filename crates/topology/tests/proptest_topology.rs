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

/// Strategy: a random directed topology on 1 to 9 nodes with no backbone,
/// so some pairs are unreachable, and with zero-budget links, so some
/// mentioned edges are unusable.
fn random_directed_topology() -> impl Strategy<Value = Topology> {
    (
        1usize..10,
        prop::collection::vec((0usize..10, 0usize..10, 0u64..3), 0..16),
    )
        .prop_map(|(n, links)| {
            let mut topo = Topology::new(format!("random-{n}"), n);
            for &(a, b, bw) in &links {
                if a % n != b % n {
                    topo.add_link(a % n, b % n, bw);
                }
            }
            topo
        })
}

/// Strategy: a random directed circulant on 2 to 7 nodes, `n → n + offset`
/// for every node and a random set of offsets and budgets, so the rotations
/// are automorphisms and a free group of at least `P` elements exists;
/// sometimes one node's egress is also capped, which breaks them.
fn random_circulant_topology() -> impl Strategy<Value = Topology> {
    (
        2usize..8,
        prop::collection::vec((1usize..7, 1u64..3), 1..4),
        0usize..3,
    )
        .prop_map(|(n, offsets, capped)| {
            let mut topo = Topology::new(format!("circulant-{n}"), n);
            for &(offset, bw) in &offsets {
                if offset % n != 0 {
                    for a in 0..n {
                        topo.add_link(a, (a + offset) % n, bw);
                    }
                }
            }
            if capped == 0 && n > 2 {
                topo.add_shared_constraint([(0, 1 % n), (0, n - 1)], 1);
            }
            topo
        })
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

/// The group `generators` generate, in breadth-first order from the
/// identity, or `None` once it has an element other than the identity
/// that fixes a node (it then does not act freely).
fn free_closure(p: usize, generators: &[Vec<usize>]) -> Option<Vec<Vec<usize>>> {
    let mut elements: Vec<Vec<usize>> = vec![(0..p).collect()];
    let mut next = 0;
    while next < elements.len() {
        for g in generators {
            let product: Vec<usize> = elements[next].iter().map(|&n| g[n]).collect();
            if !elements.contains(&product) {
                if product.iter().enumerate().any(|(n, &m)| n == m) {
                    return None;
                }
                elements.push(product);
            }
        }
        next += 1;
    }
    Some(elements)
}

/// The reference [`Topology::free_group`] must equal: the greedy pass over
/// all `P!` permutations in lexicographic order, where one that
/// `is_automorphism` accepts joins if the group does not reach its image of
/// node 0 yet and stays free with it.
fn brute_force_free_group(topology: &Topology) -> Vec<Vec<usize>> {
    let p = topology.num_nodes();
    let mut generators: Vec<Vec<usize>> = Vec::new();
    let mut group = vec![(0..p).collect::<Vec<usize>>()];
    for perm in permutations(p) {
        if group.iter().any(|h| h[0] == perm[0]) || !topology.is_automorphism(&perm) {
            continue;
        }
        generators.push(perm);
        match free_closure(p, &generators) {
            Some(larger) => group = larger,
            None => drop(generators.pop()),
        }
    }
    group
}

/// [`Topology::free_group`] equals the brute-force reference, element for
/// element, and is a group of automorphisms in which only the identity
/// fixes a node.
fn assert_free_group_is_the_reference(topology: &Topology) {
    let group = topology.free_group();
    assert_eq!(
        group,
        brute_force_free_group(topology),
        "{}",
        topology.name()
    );
    for g in &group {
        assert!(topology.is_automorphism(g));
        let fixes_a_node = g.iter().enumerate().any(|(n, &m)| n == m);
        assert_eq!(fixes_a_node, *g == group[0], "only the identity");
        for h in &group {
            let product: Vec<usize> = g.iter().map(|&n| h[n]).collect();
            assert!(group.contains(&product), "closed");
        }
    }
}

#[test]
fn free_groups_of_small_named_machines_are_the_brute_force_ones() {
    let named = [
        "ring:4",
        "ring:5",
        "ring:6",
        "ring:7",
        "uniring:6",
        "chain:5",
        "chain:6",
        "star:5",
        "fc:3",
        "fc:4",
        "fc:5",
        "fc:6",
        "hypercube:2",
        "mesh:2x3",
        "dgx1",
        "amd",
    ];
    for spec in named {
        assert_free_group_is_the_reference(&builders::parse_spec(spec).expect("a machine"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random machines of up to 7 nodes, the search returns the group
    /// the brute-force greedy pass does, element for element.
    #[test]
    fn free_group_is_the_brute_force_greedy_group(
        connected in random_connected_topology(),
        directed in random_directed_topology(),
        circulant in random_circulant_topology(),
    ) {
        assert_free_group_is_the_reference(&connected);
        assert_free_group_is_the_reference(&circulant);
        if directed.num_nodes() <= 7 {
            assert_free_group_is_the_reference(&directed);
        }
    }
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
    fn all_pairs_distances_equal_per_source_bfs(topo in random_directed_topology()) {
        let n = topo.num_nodes();
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
