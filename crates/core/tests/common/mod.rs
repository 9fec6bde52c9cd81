//! Topology strategies shared by the property tests of this crate.

use proptest::prelude::*;
use sccl_topology::{builders, Topology};

/// Small random topologies: ring, chain, star, fully-connected or hypercube
/// with 3–5 nodes (4 or 8 for the hypercube).
pub fn small_topology() -> impl Strategy<Value = Topology> {
    (0usize..5, 3usize..6, 1u64..3).prop_map(|(kind, n, bw)| match kind {
        0 => builders::ring(n, bw),
        1 => builders::chain(n, bw),
        2 => builders::star(n, bw),
        3 => builders::fully_connected(n, bw),
        _ => builders::hypercube(2, bw),
    })
}

/// Arbitrary machines of 3–5 nodes: each ordered pair is a link or not,
/// with its own budget of 1–3 chunks per round; one node may have all its
/// outgoing links share a smaller cap. Nothing makes them connected.
pub fn arbitrary_topology() -> impl Strategy<Value = Topology> {
    (
        3usize..6,
        prop::collection::vec((any::<bool>(), 1u64..4), 20),
        prop::option::of((0usize..5, 1u64..3)),
    )
        .prop_map(|(n, pairs, egress_cap)| {
            let mut topo = Topology::new(format!("arbitrary-{n}"), n);
            let mut pairs = pairs.into_iter();
            for src in 0..n {
                for dst in (0..n).filter(|&dst| dst != src) {
                    let (linked, budget) = pairs.next().expect("20 pairs cover 5 nodes");
                    if linked {
                        topo.add_link(src, dst, budget);
                    }
                }
            }
            if let Some((node, cap)) = egress_cap {
                let node = node % n;
                let out: Vec<(usize, usize)> = topo
                    .links()
                    .into_iter()
                    .filter(|&(src, _)| src == node)
                    .collect();
                if !out.is_empty() {
                    topo.add_shared_constraint(out, cap);
                }
            }
            topo
        })
}
