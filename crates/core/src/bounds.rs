//! Lower bounds used by the Pareto-synthesis procedure (Algorithm 1):
//! the latency lower bound `a_l` and bandwidth lower bound `b_l`.

use sccl_collectives::CollectiveSpec;
use sccl_topology::metrics::cut_bandwidth;
use sccl_topology::{Rational, Topology};

/// Latency lower bound `a_l` in steps: the largest shortest-path distance
/// any chunk has to travel from one of its pre-condition nodes to a
/// post-condition node. For Allgather this is the topology diameter, for a
/// rooted Broadcast the root's eccentricity.
///
/// Returns `None` if some required delivery is impossible (disconnected
/// topology).
pub fn latency_lower_bound(topology: &Topology, spec: &CollectiveSpec) -> Option<usize> {
    // Distances from every node (BFS each source once).
    let dist: Vec<Vec<Option<usize>>> = (0..topology.num_nodes())
        .map(|src| topology.distances_from(src))
        .collect();
    let mut bound = 0usize;
    for &(chunk, dst) in &spec.post {
        let best = spec
            .pre
            .iter()
            .filter(|&&(c, _)| c == chunk)
            .filter_map(|&(_, src)| dist[src][dst])
            .min()?;
        bound = bound.max(best);
    }
    Some(bound)
}

/// Bandwidth lower bound `b_l` in rounds per per-node chunk (`R/C`).
///
/// For every non-empty proper subset `S` of nodes, any chunk whose
/// pre-condition nodes all lie outside `S` but which must reach a node in
/// `S` has to cross the cut at least once, so
/// `R ≥ crossing(S) / in_bandwidth(S)`. Dividing by the per-node chunk
/// count `C` of `spec` gives a bound on `R/C` that is independent of `C`
/// for all the collectives of Table 2 (crossing scales linearly with `C`).
///
/// This generalizes both the per-node ingress bound the paper uses for the
/// DGX-1 Allgather (7/6, §2.4) and the bisection bound that is binding for
/// Alltoall. All `2^P − 2` cuts are enumerated for `P ≤ 16`; beyond that
/// only single-node cuts and their complements are considered.
///
/// Returns `None` if some cut has zero incoming bandwidth but requires a
/// crossing (disconnected for this collective).
pub fn bandwidth_lower_bound(
    topology: &Topology,
    spec: &CollectiveSpec,
    per_node_chunks: usize,
) -> Option<Rational> {
    let p = topology.num_nodes();
    assert!(per_node_chunks > 0);
    if p == 1 {
        return Some(Rational::zero());
    }
    let links = topology.link_bandwidths();
    let mut best = Rational::zero();
    // One cut: `need > 0` chunks must cross into it, `bw` per round can.
    let mut consider = |need: usize, bw: u64| -> Option<()> {
        if bw == 0 {
            return None;
        }
        best = best.max(Rational::new(need as u64, bw * per_node_chunks as u64));
        Some(())
    };
    if p <= 16 {
        // Node sets as bitmasks, built once: a 16-node stage has 65 534
        // cuts, and each must cost `O(G + |links|)` bit tests rather than
        // a rescan of the pre/post relations.
        let mut chunks = vec![(0u32, 0u32); spec.num_chunks];
        for &(c, n) in &spec.pre {
            chunks[c].0 |= 1 << n;
        }
        for &(c, n) in &spec.post {
            chunks[c].1 |= 1 << n;
        }
        for inside in 1u32..(1 << p) - 1 {
            let need = chunks
                .iter()
                .filter(|&&(pre, post)| pre & inside == 0 && post & inside != 0)
                .count();
            if need > 0 {
                consider(need, cut_bandwidth(&links, |n| inside >> n & 1 == 1))?;
            }
        }
    } else {
        let mut chunks = vec![(Vec::new(), Vec::new()); spec.num_chunks];
        for &(c, n) in &spec.pre {
            chunks[c].0.push(n);
        }
        for &(c, n) in &spec.post {
            chunks[c].1.push(n);
        }
        for n in 0..p {
            // `{n}`, then its complement.
            for single in [true, false] {
                let inside = |m: usize| (m == n) == single;
                let need = chunks
                    .iter()
                    .filter(|(pre, post)| {
                        !pre.iter().any(|&m| inside(m)) && post.iter().any(|&m| inside(m))
                    })
                    .count();
                if need > 0 {
                    consider(need, cut_bandwidth(&links, inside))?;
                }
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sccl_collectives::{Collective, CollectiveClass};
    use sccl_topology::builders;

    /// The per-cut implementation [`bandwidth_lower_bound`] replaced: one
    /// `Vec<bool>` per cut, the pre/post relations rescanned per chunk per
    /// cut. Kept as the reference the bitmask enumeration must equal.
    fn reference_bandwidth_lower_bound(
        topology: &Topology,
        spec: &CollectiveSpec,
        per_node_chunks: usize,
    ) -> Option<Rational> {
        let p = topology.num_nodes();
        if p == 1 {
            return Some(Rational::zero());
        }
        let mut best = Rational::zero();
        let mut consider = |inside: &[bool]| -> Option<()> {
            let need = (0..spec.num_chunks)
                .filter(|&c| {
                    let pre_inside = spec.pre.iter().any(|&(pc, n)| pc == c && inside[n]);
                    let post_inside = spec.post.iter().any(|&(pc, n)| pc == c && inside[n]);
                    !pre_inside && post_inside
                })
                .count() as u64;
            if need == 0 {
                return Some(());
            }
            let bw = topology.cut_in_bandwidth(inside);
            if bw == 0 {
                return None;
            }
            best = best.max(Rational::new(need, bw * per_node_chunks as u64));
            Some(())
        };
        if p <= 16 {
            for mask in 1u32..(1 << p) - 1 {
                let inside: Vec<bool> = (0..p).map(|i| mask >> i & 1 == 1).collect();
                consider(&inside)?;
            }
        } else {
            for n in 0..p {
                let mut inside = vec![false; p];
                inside[n] = true;
                consider(&inside)?;
                let complement: Vec<bool> = inside.iter().map(|b| !b).collect();
                consider(&complement)?;
            }
        }
        Some(best)
    }

    fn non_combining() -> Vec<Collective> {
        Collective::all_with_root_zero()
            .into_iter()
            .filter(|c| c.class() == CollectiveClass::NonCombining)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random directed topologies (a chain backbone some cases break,
        /// so `None` answers are compared too), random link budgets and an
        /// optional shared egress cap, every non-combining collective.
        #[test]
        fn bitmask_bound_equals_the_per_cut_reference(
            n in 2usize..=10,
            backbone in any::<bool>(),
            links in prop::collection::vec((0usize..10, 0usize..10, 0u64..4), 0..14),
            shared_cap in 0u64..3,
            chunks in 1usize..3,
        ) {
            let mut topo = Topology::new(format!("random-{n}"), n);
            if backbone {
                for i in 0..n - 1 {
                    topo.add_bidi_link(i, i + 1, 1);
                }
            }
            for &(a, b, bw) in &links {
                if a % n != b % n {
                    topo.add_link(a % n, b % n, bw);
                }
            }
            if shared_cap > 0 {
                topo.add_shared_constraint((1..n).map(|d| (0, d)), shared_cap);
            }
            for collective in non_combining() {
                let c = chunks * if collective == Collective::Alltoall { n } else { 1 };
                let spec = collective.spec(n, c);
                prop_assert_eq!(
                    bandwidth_lower_bound(&topo, &spec, c),
                    reference_bandwidth_lower_bound(&topo, &spec, c),
                    "{} on {:?}", collective, topo
                );
            }
        }
    }

    #[test]
    fn single_node_cuts_beyond_sixteen_nodes_equal_the_reference() {
        for topo in [builders::ring(20, 2), builders::ring_of_rings(3, 6, 2, 1)] {
            let p = topo.num_nodes();
            for collective in non_combining() {
                let c = if collective == Collective::Alltoall {
                    p
                } else {
                    1
                };
                let spec = collective.spec(p, c);
                assert_eq!(
                    bandwidth_lower_bound(&topo, &spec, c),
                    reference_bandwidth_lower_bound(&topo, &spec, c),
                    "{collective} on {}",
                    topo.name()
                );
            }
        }
    }

    #[test]
    fn dgx1_allgather_bounds_match_paper() {
        // §2.4–2.5: diameter 2, bandwidth bound 7/6.
        let topo = builders::dgx1();
        let spec = Collective::Allgather.spec(8, 6);
        assert_eq!(latency_lower_bound(&topo, &spec), Some(2));
        assert_eq!(
            bandwidth_lower_bound(&topo, &spec, 6),
            Some(Rational::new(7, 6))
        );
    }

    #[test]
    fn dgx1_allgather_bound_independent_of_chunk_count() {
        let topo = builders::dgx1();
        for c in [1usize, 2, 3, 6] {
            let spec = Collective::Allgather.spec(8, c);
            assert_eq!(
                bandwidth_lower_bound(&topo, &spec, c),
                Some(Rational::new(7, 6)),
                "C={c}"
            );
        }
    }

    #[test]
    fn dgx1_alltoall_bound_is_bisection_limited() {
        // 24 chunks per node, 8 rounds is bandwidth-optimal in Table 4, so
        // the bound must be 8/24 = 1/3.
        let topo = builders::dgx1();
        let spec = Collective::Alltoall.spec(8, 24);
        assert_eq!(
            bandwidth_lower_bound(&topo, &spec, 24),
            Some(Rational::new(1, 3))
        );
    }

    #[test]
    fn dgx1_broadcast_bound() {
        // Broadcast 6 chunks in 6 rounds is NCCL's ring; SCCL's Table 4 has
        // 18 chunks in 5 steps... the per-node ingress bound is 1/6.
        let topo = builders::dgx1();
        let spec = Collective::Broadcast { root: 0 }.spec(8, 6);
        assert_eq!(
            bandwidth_lower_bound(&topo, &spec, 6),
            Some(Rational::new(1, 6))
        );
    }

    #[test]
    fn amd_ring_allgather_bounds_match_table5() {
        // Table 5: latency-optimal Allgather takes 4 steps; the
        // bandwidth-optimal one is (C=2, S=7, R=7), i.e. R/C = 7/2.
        let topo = builders::amd_z52();
        let spec = Collective::Allgather.spec(8, 2);
        assert_eq!(latency_lower_bound(&topo, &spec), Some(4));
        assert_eq!(
            bandwidth_lower_bound(&topo, &spec, 2),
            Some(Rational::new(7, 2))
        );
    }

    #[test]
    fn broadcast_latency_bound_is_eccentricity() {
        let topo = builders::chain(5, 1);
        let spec = Collective::Broadcast { root: 0 }.spec(5, 1);
        assert_eq!(latency_lower_bound(&topo, &spec), Some(4));
        let spec_mid = Collective::Broadcast { root: 2 }.spec(5, 1);
        assert_eq!(latency_lower_bound(&topo, &spec_mid), Some(2));
    }

    #[test]
    fn gather_bound_limited_by_root_ingress() {
        let topo = builders::star(5, 1);
        let spec = Collective::Gather { root: 0 }.spec(5, 1);
        // Root has 4 incoming unit links and must receive 4 chunks: R/C >= 1.
        assert_eq!(
            bandwidth_lower_bound(&topo, &spec, 1),
            Some(Rational::from_integer(1))
        );
        assert_eq!(latency_lower_bound(&topo, &spec), Some(1));
    }

    #[test]
    fn disconnected_topology_has_no_bounds() {
        let mut topo = sccl_topology::Topology::new("split", 4);
        topo.add_bidi_link(0, 1, 1);
        topo.add_bidi_link(2, 3, 1);
        let spec = Collective::Allgather.spec(4, 1);
        assert_eq!(latency_lower_bound(&topo, &spec), None);
        assert_eq!(bandwidth_lower_bound(&topo, &spec, 1), None);
    }

    #[test]
    fn two_node_allgather_bounds() {
        // Two nodes exchanging one chunk each over unit links: one step,
        // one round per chunk.
        let topo = builders::ring(2, 1);
        let spec = Collective::Allgather.spec(2, 1);
        assert_eq!(latency_lower_bound(&topo, &spec), Some(1));
        assert_eq!(
            bandwidth_lower_bound(&topo, &spec, 1),
            Some(Rational::from_integer(1))
        );
    }
}
