//! Lower bounds used by the Pareto-synthesis procedure (Algorithm 1):
//! the latency lower bound `a_l` and bandwidth lower bound `b_l`.

use sccl_collectives::CollectiveSpec;
use sccl_topology::{Rational, Topology};
use std::collections::BTreeMap;

/// Latency lower bound `a_l` in steps: the largest shortest-path distance
/// any chunk has to travel from one of its pre-condition nodes to a
/// post-condition node. For Allgather this is the topology diameter, for a
/// rooted Broadcast the root's eccentricity.
///
/// Returns `None` if some required delivery is impossible (disconnected
/// topology).
pub fn latency_lower_bound(topology: &Topology, spec: &CollectiveSpec) -> Option<usize> {
    let dist = topology.distances();
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
/// Alltoall. For `P ≤ 16` every cut counts, but only the weakly connected
/// node sets (over links with a positive budget) are visited: if `S` splits
/// into parts with no link between them, their in-bandwidths add up to
/// `S`'s and `S`'s crossing is at most the sum of theirs, so `S`'s ratio is
/// at most the larger part ratio, and a crossing into zero in-bandwidth
/// shows on a part. The cost is the number of connected sets: 240 on a
/// 16-node ring, all `2^16 − 2` on a complete graph. Beyond 16 nodes only
/// single-node cuts and their complements are considered.
///
/// Each set is grown from its least node one neighbour at a time
/// (ESU-style), so `in_bandwidth(S)` is updated from that neighbour's
/// links alone. `crossing(S)` is counted from buckets: the chunks held by
/// a single pre-node are grouped by their post-condition set and by how
/// many of them each pre-node holds, so a bucket whose post set meets `S`
/// contributes its multiplicity times the number of its pre-nodes outside
/// `S`. Every other chunk is tested directly, chunks with equal pre and
/// post sets as one. The worst cut is kept as an unreduced ratio and
/// reduced once at the end.
///
/// Returns `None` if some cut has zero incoming bandwidth but requires a
/// crossing (disconnected for this collective).
pub fn bandwidth_lower_bound(
    topology: &Topology,
    spec: &CollectiveSpec,
    per_node_chunks: usize,
) -> Option<Rational> {
    bound_and_sets_visited(topology, spec, per_node_chunks).0
}

/// [`bandwidth_lower_bound`] and how many connected sets it visited (`P ≤ 16`).
fn bound_and_sets_visited(
    topology: &Topology,
    spec: &CollectiveSpec,
    per_node_chunks: usize,
) -> (Option<Rational>, usize) {
    let p = topology.num_nodes();
    assert!(per_node_chunks > 0);
    // Every node's incoming `(src, b)` and outgoing `(dst, b)` links, from
    // one pass over the link budgets.
    let mut in_links = vec![Vec::new(); p];
    let mut out_links = vec![Vec::new(); p];
    let budgets = topology.link_bandwidths();
    for &(src, dst, bw) in &budgets {
        in_links[dst].push((src, bw));
        out_links[src].push((dst, bw));
    }
    // The worst cut so far as `need / (bw·C)`, compared by
    // cross-multiplication: `need > 0` chunks must cross into the cut,
    // `bw` per round can; `bw = 0` makes `need / 0`, worse than any.
    let mut best = (0u64, 1u64);
    let mut consider = |need: u64, bw: u64| {
        let den = bw * per_node_chunks as u64;
        if u128::from(need) * u128::from(best.1) > u128::from(best.0) * u128::from(den) {
            best = (need, den);
        }
    };
    let mut visited = 0;
    if p <= 16 {
        let full = (1u32 << p) - 1;
        let mut chunks = vec![(0u32, 0u32); spec.num_chunks];
        for &(c, n) in &spec.pre {
            chunks[c].0 |= 1 << n;
        }
        for &(c, n) in &spec.post {
            chunks[c].1 |= 1 << n;
        }
        // Chunks with equal masks count together, as one `(pre, post, m)`.
        // Those held by one node are then merged across holders into
        // buckets `(post, pres, m)`: each node of `pres` holds `m` chunks
        // owed to `post`. A bucket of one holder stays a direct test.
        let mut weights: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for (pre, post) in chunks {
            *weights.entry((pre, post)).or_default() += 1;
        }
        let mut holders: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        let mut direct = Vec::new();
        for ((pre, post), m) in weights {
            if pre.count_ones() == 1 {
                *holders.entry((post, m)).or_default() |= pre;
            } else {
                direct.push((pre, post, m));
            }
        }
        let mut buckets = Vec::new();
        for ((post, m), pres) in holders {
            if pres.count_ones() == 1 {
                direct.push((pres, post, m));
            } else {
                buckets.push((post, pres, m));
            }
        }
        let mut adjacent = vec![0u32; p];
        for &(src, dst, _) in &budgets {
            adjacent[src] |= 1 << dst;
            adjacent[dst] |= 1 << src;
        }
        // A frame: a connected set, its in-bandwidth, the nodes it may still
        // grow by, and the nodes it may not (its own and those tried before).
        let mut stack = vec![(0u32, 0u64, full, 0u32)];
        while let Some(top) = stack.last_mut() {
            let (inside, bw, grow, banned) = *top;
            if grow == 0 {
                stack.pop();
                continue;
            }
            let v = grow.trailing_zeros() as usize;
            let banned = banned | 1 << v;
            *top = (inside, bw, grow & !banned, banned);
            let from_outside: u64 = in_links[v]
                .iter()
                .filter(|&&(src, _)| inside >> src & 1 == 0)
                .map(|&(_, b)| b)
                .sum();
            let to_inside: u64 = out_links[v]
                .iter()
                .filter(|&&(dst, _)| inside >> dst & 1 == 1)
                .map(|&(_, b)| b)
                .sum();
            // Joining, `v`'s links from outside start crossing and its
            // links into the set stop. A seed grows by its neighbours only.
            let bw = bw + from_outside - to_inside;
            let grow = adjacent[v] | if inside == 0 { 0 } else { grow };
            let inside = inside | 1 << v;
            stack.push((inside, bw, grow & !banned, banned));
            if inside == full {
                continue;
            }
            visited += 1;
            let need = buckets
                .iter()
                .filter(|&&(post, _, _)| post & inside != 0)
                .map(|&(_, pres, m)| m * u64::from((pres & !inside).count_ones()))
                .sum::<u64>()
                + direct
                    .iter()
                    .filter(|&&(pre, post, _)| pre & inside == 0 && post & inside != 0)
                    .map(|&(_, _, m)| m)
                    .sum::<u64>();
            if need > 0 {
                consider(need, bw);
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
            // `{n}`, entered by every link into `n`; then its complement,
            // entered by every link out of `n`.
            for (single, links) in [(true, &in_links[n]), (false, &out_links[n])] {
                let inside = |m: usize| (m == n) == single;
                let need = chunks
                    .iter()
                    .filter(|(pre, post)| {
                        !pre.iter().any(|&m| inside(m)) && post.iter().any(|&m| inside(m))
                    })
                    .count();
                if need > 0 {
                    consider(need as u64, links.iter().map(|&(_, b)| b).sum());
                }
            }
        }
    }
    ((best.1 > 0).then(|| Rational::new(best.0, best.1)), visited)
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

    /// A bitmask enumeration of every cut in counting order, its demand
    /// from a scan of all chunks' masks and its bandwidth from a scan of
    /// all links. Fast enough to be the reference at sixteen nodes, where
    /// [`reference_bandwidth_lower_bound`] is not.
    fn bitmask_bandwidth_lower_bound(
        topology: &Topology,
        spec: &CollectiveSpec,
        per_node_chunks: usize,
    ) -> Option<Rational> {
        let p = topology.num_nodes();
        assert!((2..=16).contains(&p));
        let links = topology.link_bandwidths();
        let mut chunks = vec![(0u32, 0u32); spec.num_chunks];
        for &(c, n) in &spec.pre {
            chunks[c].0 |= 1 << n;
        }
        for &(c, n) in &spec.post {
            chunks[c].1 |= 1 << n;
        }
        let mut best = Rational::zero();
        for inside in 1u32..(1 << p) - 1 {
            let need = chunks
                .iter()
                .filter(|&&(pre, post)| pre & inside == 0 && post & inside != 0)
                .count() as u64;
            if need == 0 {
                continue;
            }
            let bw: u64 = links
                .iter()
                .filter(|&&(src, dst, _)| inside >> src & 1 == 0 && inside >> dst & 1 == 1)
                .map(|&(_, _, bw)| bw)
                .sum();
            if bw == 0 {
                return None;
            }
            best = best.max(Rational::new(need, bw * per_node_chunks as u64));
        }
        Some(best)
    }

    /// The connected-set walk and its bucketed demand equal the bitmask
    /// enumeration where they matter: sixteen-node stages, including a
    /// shared egress cap (so a link's budget is not its own constraint's)
    /// and a ring of rings (two bandwidth tiers), and Alltoall's per-pair
    /// buckets on twelve nodes.
    #[test]
    fn connected_set_bound_equals_the_bitmask_reference_at_sixteen_nodes() {
        let mut capped = builders::ring(16, 2);
        capped.add_shared_constraint([(0, 1), (0, 15)], 1);
        let machines = [
            builders::ring(16, 1),
            builders::hypercube(4, 1),
            builders::ring_of_rings(4, 4, 2, 1),
            capped,
        ];
        for topo in &machines {
            assert_eq!(topo.num_nodes(), 16);
            for collective in [
                Collective::Allgather,
                Collective::Broadcast { root: 0 },
                Collective::Gather { root: 0 },
                Collective::Scatter { root: 0 },
            ] {
                let spec = collective.spec(16, 1);
                assert_eq!(
                    bandwidth_lower_bound(topo, &spec, 1),
                    bitmask_bandwidth_lower_bound(topo, &spec, 1),
                    "{collective} on {}",
                    topo.name()
                );
            }
        }
        let ring12 = builders::ring(12, 1);
        let spec = Collective::Alltoall.spec(12, 12);
        assert_eq!(
            bandwidth_lower_bound(&ring12, &spec, 12),
            bitmask_bandwidth_lower_bound(&ring12, &spec, 12)
        );
    }

    /// Only the connected node sets are visited: the 16 · 15 arcs of a
    /// ring, every proper subset of a complete graph.
    #[test]
    fn connected_sets_visited_are_counted_exactly() {
        let spec = Collective::Allgather.spec(16, 1);
        for (topo, sets) in [
            (builders::ring(16, 1), 240),
            (builders::fully_connected(16, 1), (1 << 16) - 2),
        ] {
            let (bound, visited) = bound_and_sets_visited(&topo, &spec, 1);
            assert_eq!(bound, bitmask_bandwidth_lower_bound(&topo, &spec, 1));
            assert_eq!(visited, sets, "{}", topo.name());
        }
    }

    /// A ring backbone plus random extra links, bandwidths in 1..=3.
    fn random_connected_topology() -> impl Strategy<Value = Topology> {
        (
            3usize..8,
            prop::collection::vec((0usize..8, 0usize..8, 1u64..4), 0..12),
            1u64..3,
        )
            .prop_map(|(n, extras, ring_bw)| {
                let mut t = builders::ring(n, ring_bw);
                for (a, b, bw) in extras {
                    if a % n != b % n {
                        t.add_link(a % n, b % n, bw);
                    }
                }
                t
            })
    }

    /// The Allgather bound at one chunk per node.
    fn allgather_bound(topology: &Topology) -> Option<Rational> {
        let spec = Collective::Allgather.spec(topology.num_nodes(), 1);
        bandwidth_lower_bound(topology, &spec, 1)
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

        /// The connected-set walk against the bitmask reference on 11 to
        /// 16 nodes: directed links only, some with a zero budget, an
        /// optional shared egress cap, and a chain backbone some cases
        /// leave out (so disconnected sets and `None` answers are compared).
        #[test]
        fn connected_set_bound_equals_the_bitmask_reference(
            n in 11usize..=16,
            backbone in any::<bool>(),
            links in prop::collection::vec((0usize..16, 0usize..16, 0u64..4), 0..24),
            shared_cap in 0u64..3,
            chunks in 1usize..3,
        ) {
            let mut topo = Topology::new(format!("random-{n}"), n);
            if backbone {
                for i in 0..n - 1 {
                    topo.add_link(i, i + 1, 1);
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
                    bitmask_bandwidth_lower_bound(&topo, &spec, c),
                    "{} on {:?}", collective, topo
                );
            }
        }

        /// Adding links never increases the Allgather bandwidth bound.
        #[test]
        fn extra_links_only_lower_the_allgather_bound(
            n in 4usize..8,
            a in 0usize..8,
            b in 0usize..8,
        ) {
            prop_assume!(a % n != b % n);
            let base = builders::ring(n, 1);
            let mut extended = base.clone();
            extended.add_bidi_link(a % n, b % n, 2);
            let b_base = allgather_bound(&base).expect("connected");
            let b_ext = allgather_bound(&extended).expect("connected");
            prop_assert!(b_ext <= b_base);
        }

        /// The single-node ingress bound is always a valid lower bound on
        /// the cut-based Allgather bound.
        #[test]
        fn ingress_bound_is_dominated_by_cut_bound(topo in random_connected_topology()) {
            let p = topo.num_nodes() as u64;
            let cut_bound = allgather_bound(&topo).expect("connected");
            for n in 0..topo.num_nodes() {
                let ingress = topo.in_bandwidth(n);
                prop_assert!(ingress > 0);
                prop_assert!(cut_bound >= Rational::new(p - 1, ingress));
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
