//! Builders for the topologies evaluated in the paper (NVIDIA DGX-1,
//! Gigabyte Z52 with AMD MI50 GPUs) and for the standard families used in
//! tests and additional experiments (rings, chains, stars, hypercubes,
//! meshes, fully-connected).

use crate::model::Topology;

/// Bidirectional ring of `n` nodes: node `i` is linked with `(i + 1) % n`
/// in both directions, `bandwidth` chunks per round per direction.
pub fn ring(n: usize, bandwidth: u64) -> Topology {
    assert!(n >= 2);
    let mut t = Topology::new(format!("ring-{n}"), n);
    for i in 0..n {
        t.add_bidi_link(i, (i + 1) % n, bandwidth);
    }
    t
}

/// Unidirectional ring of `n` nodes: node `i` sends only to `(i + 1) % n`.
pub fn ring_unidirectional(n: usize, bandwidth: u64) -> Topology {
    assert!(n >= 2);
    let mut t = Topology::new(format!("uniring-{n}"), n);
    for i in 0..n {
        t.add_link(i, (i + 1) % n, bandwidth);
    }
    t
}

/// Bidirectional chain (line) of `n` nodes.
pub fn chain(n: usize, bandwidth: u64) -> Topology {
    assert!(n >= 2);
    let mut t = Topology::new(format!("chain-{n}"), n);
    for i in 0..n - 1 {
        t.add_bidi_link(i, i + 1, bandwidth);
    }
    t
}

/// Star of `n` nodes with node 0 at the centre.
pub fn star(n: usize, bandwidth: u64) -> Topology {
    assert!(n >= 2);
    let mut t = Topology::new(format!("star-{n}"), n);
    for i in 1..n {
        t.add_bidi_link(0, i, bandwidth);
    }
    t
}

/// Fully-connected topology of `n` nodes.
pub fn fully_connected(n: usize, bandwidth: u64) -> Topology {
    assert!(n >= 2);
    let mut t = Topology::new(format!("fc-{n}"), n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                t.add_link(i, j, bandwidth);
            }
        }
    }
    t
}

/// Hypercube of dimension `dim` (`2^dim` nodes); neighbours differ in one
/// bit.
pub fn hypercube(dim: u32, bandwidth: u64) -> Topology {
    let n = 1usize << dim;
    let mut t = Topology::new(format!("hypercube-{dim}"), n);
    for i in 0..n {
        for b in 0..dim {
            let j = i ^ (1 << b);
            if i < j {
                t.add_bidi_link(i, j, bandwidth);
            }
        }
    }
    t
}

/// 2D mesh (grid) of `rows × cols` nodes with nearest-neighbour links.
pub fn mesh2d(rows: usize, cols: usize, bandwidth: u64) -> Topology {
    assert!(rows * cols >= 2);
    let mut t = Topology::new(format!("mesh-{rows}x{cols}"), rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                t.add_bidi_link(id(r, c), id(r, c + 1), bandwidth);
            }
            if r + 1 < rows {
                t.add_bidi_link(id(r, c), id(r + 1, c), bandwidth);
            }
        }
    }
    t
}

/// The NVLink ring orders of the DGX-1 (§2.2, §5.2.1).
///
/// The first Hamiltonian cycle has two NVLinks per hop, the second one.
pub const DGX1_DOUBLE_RING: [usize; 8] = [0, 1, 4, 5, 6, 7, 2, 3];
pub const DGX1_SINGLE_RING: [usize; 8] = [0, 2, 1, 3, 6, 4, 7, 5];

/// NVIDIA DGX-1: 8 V100 GPUs connected by NVLink (Figure 1 of the paper).
///
/// The topology is the union of two non-overlapping bidirectional
/// Hamiltonian cycles; hops of the first cycle have two NVLinks (2 chunks
/// per round), hops of the second have one. Every GPU therefore has 6
/// incoming and 6 outgoing NVLink "units".
pub fn dgx1() -> Topology {
    let mut t = Topology::new("dgx1", 8);
    for w in 0..8 {
        let a = DGX1_DOUBLE_RING[w];
        let b = DGX1_DOUBLE_RING[(w + 1) % 8];
        t.add_bidi_link(a, b, 2);
        t.set_transport(a, b, "nvlink-x2");
        t.set_transport(b, a, "nvlink-x2");
    }
    for w in 0..8 {
        let a = DGX1_SINGLE_RING[w];
        let b = DGX1_SINGLE_RING[(w + 1) % 8];
        t.add_bidi_link(a, b, 1);
        t.set_transport(a, b, "nvlink-x1");
        t.set_transport(b, a, "nvlink-x1");
    }
    t
}

/// The ring order used to model the Gigabyte Z52 (§5.2.2).
pub const AMD_Z52_RING: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Gigabyte Z52: 8 AMD MI50 GPUs (Figure 3 of the paper).
///
/// xGMI links form two islands bridged by PCIe; because xGMI and PCIe could
/// not be used simultaneously, the paper models the machine as a single
/// bidirectional ring with one chunk per round on every hop and the same β
/// for both transports. GPUs 1 and 5 are the PCIe bridges between islands.
pub fn amd_z52() -> Topology {
    let mut t = Topology::new("amd-z52", 8);
    for w in 0..8 {
        let a = AMD_Z52_RING[w];
        let b = AMD_Z52_RING[(w + 1) % 8];
        t.add_bidi_link(a, b, 1);
        // Hops adjacent to the bridge GPUs are PCIe, the rest xGMI; the
        // split is descriptive only (same bandwidth either way).
        let transport = if a == 1 || b == 1 || a == 5 || b == 5 {
            "pcie"
        } else {
            "xgmi"
        };
        t.set_transport(a, b, transport);
        t.set_transport(b, a, transport);
    }
    t
}

/// An NVSwitch-style machine (DGX-2-like): `n` GPUs, all pairs connected
/// with the same per-round budget. With a full crossbar every collective
/// has diameter 1, so the interesting trade-offs collapse — useful as a
/// contrast to the DGX-1 in co-design experiments.
pub fn nvswitch(n: usize, bandwidth: u64) -> Topology {
    let mut t = fully_connected(n, bandwidth);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                t.set_transport(i, j, "nvswitch");
            }
        }
    }
    t
}

/// Two DGX-1 boxes bridged by `cross_links` InfiniBand-style links between
/// corresponding GPUs (GPU `i` of box 0 to GPU `i` of box 1), each with
/// `cross_bandwidth` chunks per round.
///
/// The paper synthesizes for a single node and leaves hierarchical
/// multi-node algorithms to systems like Horovod/BlueConnect/PLink (§6);
/// this builder exercises that future-work direction: the same synthesis
/// machinery runs unchanged on the 16-GPU two-box graph, it just gets a
/// much smaller bisection bandwidth.
pub fn dual_dgx1(cross_links: usize, cross_bandwidth: u64) -> Topology {
    assert!((1..=8).contains(&cross_links));
    let single = dgx1();
    let links = single.link_bandwidths();
    let mut t = Topology::new("dual-dgx1", 16);
    for box_id in 0..2usize {
        let offset = box_id * 8;
        for &(src, dst, bw) in &links {
            t.add_link(src + offset, dst + offset, bw);
            t.set_transport(src + offset, dst + offset, "nvlink");
        }
    }
    for i in 0..cross_links {
        t.add_bidi_link(i, i + 8, cross_bandwidth);
        t.set_transport(i, i + 8, "infiniband");
        t.set_transport(i + 8, i, "infiniband");
    }
    t
}

/// A ring of rings: `groups` local rings of `group_size` nodes each, with
/// the first node of every group forming an outer ring at a (typically
/// lower) cross bandwidth.
///
/// This is the canonical hierarchical benchmark machine: a rack of
/// NVLink-class boxes whose node 0s are bridged by a network ring. Intra
/// links get `local_bandwidth` chunks per round, the outer ring
/// `cross_bandwidth`. Node `g * group_size + j` is member `j` of group `g`.
pub fn ring_of_rings(
    groups: usize,
    group_size: usize,
    local_bandwidth: u64,
    cross_bandwidth: u64,
) -> Topology {
    assert!(groups >= 2, "need at least two groups");
    assert!(group_size >= 2, "need at least two nodes per group");
    let n = groups * group_size;
    let mut t = Topology::new(format!("rings-{groups}x{group_size}"), n);
    for g in 0..groups {
        let base = g * group_size;
        if group_size == 2 {
            t.add_bidi_link(base, base + 1, local_bandwidth);
        } else {
            for j in 0..group_size {
                t.add_bidi_link(base + j, base + (j + 1) % group_size, local_bandwidth);
            }
        }
    }
    for g in 0..groups {
        let a = g * group_size;
        let b = ((g + 1) % groups) * group_size;
        if groups == 2 && g == 1 {
            break; // a 2-group outer "ring" is a single bidi link
        }
        t.add_bidi_link(a, b, cross_bandwidth);
        t.set_transport(a, b, "network");
        t.set_transport(b, a, "network");
    }
    t
}

/// A rack of DGX-1 boxes: `boxes` full [`dgx1`] machines whose GPU 0s are
/// bridged by a bidirectional InfiniBand ring with `cross_bandwidth` chunks
/// per round. GPU `b * 8 + i` is GPU `i` of box `b`.
pub fn dgx_rack(boxes: usize, cross_bandwidth: u64) -> Topology {
    assert!(boxes >= 2, "a rack needs at least two boxes");
    let single = dgx1();
    let links = single.link_bandwidths();
    let mut t = Topology::new(format!("dgx-rack-{boxes}"), boxes * 8);
    for box_id in 0..boxes {
        let offset = box_id * 8;
        for &(src, dst, bw) in &links {
            t.add_link(src + offset, dst + offset, bw);
            if let Some(transport) = single.transport(src, dst) {
                t.set_transport(src + offset, dst + offset, transport);
            }
        }
    }
    for box_id in 0..boxes {
        let a = box_id * 8;
        let b = ((box_id + 1) % boxes) * 8;
        if boxes == 2 && box_id == 1 {
            break; // two boxes: one bidi bridge, not a doubled "ring"
        }
        t.add_bidi_link(a, b, cross_bandwidth);
        t.set_transport(a, b, "infiniband");
        t.set_transport(b, a, "infiniband");
    }
    t
}

/// A DGX-1 whose inter-GPU links are all reduced to a single NVLink, used
/// in ablation experiments on how link multiplicity changes the frontier.
pub fn dgx1_single_links() -> Topology {
    let mut t = Topology::new("dgx1-single", 8);
    for ring_order in [DGX1_DOUBLE_RING, DGX1_SINGLE_RING] {
        for w in 0..8 {
            let a = ring_order[w];
            let b = ring_order[(w + 1) % 8];
            t.add_bidi_link(a, b, 1);
        }
    }
    t
}

/// Parse a textual topology specification, as accepted by the `sccl` CLI
/// and by batch manifests:
///
/// * named machines — `dgx1`, `dgx1-single`, `amd` (aka `amd-z52`, `z52`)
/// * parameterized families — `ring:N`, `uniring:N`, `chain:N`, `star:N`,
///   `fc:N`, `hypercube:D`, `mesh:RxC`, `nvswitch:N`
/// * hierarchical machines — `rings:GxM` (`G` local rings of `M` nodes,
///   local bandwidth 2, leader ring bandwidth 1), `dgx-rack:N` (`N` DGX-1
///   boxes bridged by an InfiniBand ring on GPU 0s)
///
/// Returns `None` for anything unrecognised.
pub fn parse_spec(spec: &str) -> Option<Topology> {
    if let Some((kind, arg)) = spec.split_once(':') {
        let parse_n = || arg.parse::<usize>().ok();
        return match kind {
            "rings" => {
                let (g, m) = arg.split_once('x')?;
                Some(ring_of_rings(g.parse().ok()?, m.parse().ok()?, 2, 1))
            }
            "dgx-rack" => Some(dgx_rack(parse_n()?, 1)),
            "ring" => Some(ring(parse_n()?, 1)),
            "uniring" => Some(ring_unidirectional(parse_n()?, 1)),
            "chain" => Some(chain(parse_n()?, 1)),
            "star" => Some(star(parse_n()?, 1)),
            "fc" => Some(fully_connected(parse_n()?, 1)),
            "hypercube" => Some(hypercube(arg.parse().ok()?, 1)),
            "nvswitch" => Some(nvswitch(parse_n()?, 1)),
            "mesh" => {
                let (r, c) = arg.split_once('x')?;
                Some(mesh2d(r.parse().ok()?, c.parse().ok()?, 1))
            }
            _ => None,
        };
    }
    match spec {
        "dgx1" => Some(dgx1()),
        "dgx1-single" => Some(dgx1_single_links()),
        "amd" | "amd-z52" | "z52" => Some(amd_z52()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ring_structure() {
        let t = ring(4, 2);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_links(), 8);
        assert_eq!(t.link_bandwidth(0, 1), Some(2));
        assert_eq!(t.link_bandwidth(1, 0), Some(2));
        assert_eq!(t.link_bandwidth(0, 2), None);
    }

    #[test]
    fn star_structure() {
        let t = star(5, 1);
        assert_eq!(t.out_neighbors(0).len(), 4);
        assert_eq!(t.out_neighbors(3), vec![0]);
    }

    #[test]
    fn fully_connected_structure() {
        let t = fully_connected(4, 1);
        assert_eq!(t.num_links(), 12);
        assert_eq!(t.in_bandwidth(2), 3);
    }

    #[test]
    fn hypercube_structure() {
        let t = hypercube(3, 1);
        assert_eq!(t.num_links(), 8 * 3);
        assert!(t.has_link(0, 1));
        assert!(t.has_link(0, 2));
        assert!(t.has_link(0, 4));
        assert!(!t.has_link(0, 3));
    }

    #[test]
    fn mesh_structure() {
        let t = mesh2d(2, 3);
        assert_eq!(t.num_nodes(), 6);
        assert!(t.has_link(0, 1));
        assert!(t.has_link(0, 3));
        assert!(!t.has_link(0, 4));
    }

    fn mesh2d(rows: usize, cols: usize) -> Topology {
        super::mesh2d(rows, cols, 1)
    }

    #[test]
    fn dgx1_structure() {
        let t = dgx1();
        assert_eq!(t.num_nodes(), 8);
        // 16 undirected NVLink hops = 32 directed edges.
        assert_eq!(t.num_links(), 32);
        // Every GPU has 6 NVLink units in and out (§5.1.1).
        for n in 0..8 {
            assert_eq!(t.in_bandwidth(n), 6, "GPU {n} in-bandwidth");
            assert_eq!(t.out_bandwidth(n), 6, "GPU {n} out-bandwidth");
        }
        // The double ring hops have bandwidth 2.
        assert_eq!(t.link_bandwidth(0, 1), Some(2));
        assert_eq!(t.link_bandwidth(1, 4), Some(2));
        // The single ring hops have bandwidth 1.
        assert_eq!(t.link_bandwidth(0, 2), Some(1));
        assert_eq!(t.link_bandwidth(3, 6), Some(1));
        // Cross-socket pairs not connected by NVLink.
        assert!(!t.has_link(0, 6));
    }

    #[test]
    fn dgx1_rings_are_disjoint_hamiltonian_cycles() {
        let hops = |order: [usize; 8]| -> BTreeSet<(usize, usize)> {
            (0..8)
                .flat_map(|i| {
                    let a = order[i];
                    let b = order[(i + 1) % 8];
                    [(a.min(b), a.max(b))]
                })
                .collect()
        };
        let double = hops(DGX1_DOUBLE_RING);
        let single = hops(DGX1_SINGLE_RING);
        assert_eq!(double.len(), 8);
        assert_eq!(single.len(), 8);
        assert!(double.is_disjoint(&single));
    }

    #[test]
    fn amd_z52_structure() {
        let t = amd_z52();
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.num_links(), 16);
        for n in 0..8 {
            assert_eq!(t.in_bandwidth(n), 2);
        }
        assert_eq!(t.transport(0, 1), Some("pcie"));
        assert_eq!(t.transport(2, 3), Some("xgmi"));
    }

    #[test]
    fn dgx1_single_links_halves_double_ring() {
        let t = dgx1_single_links();
        assert_eq!(t.link_bandwidth(0, 1), Some(1));
        assert_eq!(t.in_bandwidth(0), 4);
    }

    #[test]
    fn nvswitch_is_a_full_crossbar() {
        let t = nvswitch(16, 1);
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.num_links(), 16 * 15);
        assert_eq!(t.diameter(), Some(1));
        assert_eq!(t.transport(3, 9), Some("nvswitch"));
    }

    #[test]
    fn dual_dgx1_structure() {
        let t = dual_dgx1(4, 1);
        assert_eq!(t.num_nodes(), 16);
        // Intra-box NVLink structure is preserved in both boxes.
        assert_eq!(t.link_bandwidth(0, 1), Some(2));
        assert_eq!(t.link_bandwidth(8, 9), Some(2));
        assert!(!t.has_link(0, 9));
        // Cross-box InfiniBand bridges on the first four GPUs.
        assert!(t.has_link(2, 10));
        assert!(!t.has_link(5, 13));
        assert_eq!(t.transport(2, 10), Some("infiniband"));
        assert!(t.is_strongly_connected());
        assert_eq!(t.diameter(), Some(4));
        // The bisection between the two boxes is the 4 IB links each way.
        let inside: Vec<bool> = (0..16).map(|i| i >= 8).collect();
        assert_eq!(t.cut_in_bandwidth(&inside), 4);
    }

    #[test]
    #[should_panic]
    fn dual_dgx1_requires_at_least_one_cross_link() {
        dual_dgx1(0, 1);
    }

    #[test]
    fn ring_of_rings_structure() {
        let t = ring_of_rings(4, 4, 2, 1);
        assert_eq!(t.num_nodes(), 16);
        // Local ring hops at local bandwidth.
        assert_eq!(t.link_bandwidth(0, 1), Some(2));
        assert_eq!(t.link_bandwidth(5, 6), Some(2));
        // Leader ring at cross bandwidth, on nodes 0, 4, 8, 12.
        assert_eq!(t.link_bandwidth(0, 4), Some(1));
        assert_eq!(t.link_bandwidth(12, 0), Some(1));
        assert_eq!(t.transport(0, 4), Some("network"));
        // No shortcuts between non-leader members of different groups.
        assert!(!t.has_link(1, 5));
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn two_group_ring_of_rings_has_single_bridge() {
        let t = ring_of_rings(2, 2, 2, 1);
        assert_eq!(t.num_nodes(), 4);
        // Exactly one bidi bridge 0<->2, not a doubled pair.
        assert_eq!(t.link_bandwidth(0, 2), Some(1));
        assert_eq!(t.link_bandwidth(2, 0), Some(1));
        assert_eq!(
            t.constraints()
                .iter()
                .filter(|c| c.edges.contains(&(0, 2)))
                .count(),
            1
        );
    }

    #[test]
    fn dgx_rack_structure() {
        let t = dgx_rack(3, 1);
        assert_eq!(t.num_nodes(), 24);
        // Intra-box NVLink structure preserved per box.
        assert_eq!(t.link_bandwidth(8, 9), Some(2));
        assert_eq!(t.transport(16, 18), Some("nvlink-x1"));
        // InfiniBand ring over GPU 0s.
        assert!(t.has_link(0, 8));
        assert!(t.has_link(16, 0));
        assert_eq!(t.transport(0, 8), Some("infiniband"));
        assert!(t.is_strongly_connected());
    }
}

#[cfg(test)]
mod parse_tests {
    use super::*;

    #[test]
    fn named_and_parameterized_specs() {
        assert_eq!(parse_spec("dgx1").unwrap().num_nodes(), 8);
        assert_eq!(parse_spec("amd").unwrap().name(), "amd-z52");
        assert_eq!(parse_spec("ring:6").unwrap().num_nodes(), 6);
        assert_eq!(parse_spec("hypercube:3").unwrap().num_nodes(), 8);
        assert_eq!(parse_spec("mesh:2x3").unwrap().num_nodes(), 6);
        assert_eq!(parse_spec("nvswitch:4").unwrap().num_nodes(), 4);
        let uni = parse_spec("uniring:4").unwrap();
        assert!(uni.has_link(0, 1) && !uni.has_link(1, 0));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(parse_spec("").is_none());
        assert!(parse_spec("torus:4").is_none());
        assert!(parse_spec("ring:x").is_none());
        assert!(parse_spec("mesh:4").is_none());
    }
}
