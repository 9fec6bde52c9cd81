//! NCCL- and RCCL-style baselines for the two machines of the evaluation
//! (§5.3, Table 3).
//!
//! NCCL on a DGX-1 decomposes the NVLink fabric into 6 logical
//! single-NVLink unidirectional rings (the double-NVLink Hamiltonian cycle
//! contributes two rings per direction, the single-NVLink cycle one per
//! direction) and runs the classical ring algorithms over them. RCCL on the
//! Gigabyte Z52 uses the single physical ring in both directions.

use crate::rings::{
    pipelined_broadcast, pipelined_reduce, ring_allgather, ring_allreduce, ring_reducescatter, Ring,
};
use sccl_core::Algorithm;
use sccl_topology::builders::{AMD_Z52_RING, DGX1_DOUBLE_RING, DGX1_SINGLE_RING};

/// The 6 logical single-NVLink rings NCCL uses on the DGX-1 (§2.2):
/// 2 copies of the double-NVLink cycle and 1 copy of the single-NVLink
/// cycle, each in both directions.
pub fn dgx1_rings() -> Vec<Ring> {
    let fwd_double: Ring = DGX1_DOUBLE_RING.to_vec();
    let rev_double: Ring = DGX1_DOUBLE_RING.iter().rev().copied().collect();
    let fwd_single: Ring = DGX1_SINGLE_RING.to_vec();
    let rev_single: Ring = DGX1_SINGLE_RING.iter().rev().copied().collect();
    vec![
        fwd_double.clone(),
        fwd_double,
        rev_double.clone(),
        rev_double,
        fwd_single,
        rev_single,
    ]
}

/// The 2 logical rings RCCL uses on the Gigabyte Z52 model (one per
/// direction of the physical ring).
pub fn amd_rings() -> Vec<Ring> {
    let fwd: Ring = AMD_Z52_RING.to_vec();
    let rev: Ring = AMD_Z52_RING.iter().rev().copied().collect();
    vec![fwd, rev]
}

/// NCCL's DGX-1 Allgather: `(C, S, R) = (6, 7, 7)` (Table 3).
pub fn nccl_allgather_dgx1() -> Algorithm {
    ring_allgather("dgx1", 8, &dgx1_rings())
}

/// NCCL's DGX-1 ReduceScatter (same ring structure as Allgather).
pub fn nccl_reducescatter_dgx1() -> Algorithm {
    ring_reducescatter("dgx1", 8, &dgx1_rings())
}

/// NCCL's DGX-1 Allreduce: `(C, S, R) = (48, 14, 14)` (Table 3).
pub fn nccl_allreduce_dgx1() -> Algorithm {
    ring_allreduce("dgx1", 8, &dgx1_rings())
}

/// NCCL's DGX-1 pipelined Broadcast with multiplier `m`:
/// `(C, S, R) = (6m, 6+m, 6+m)` (Table 3).
pub fn nccl_broadcast_dgx1(root: usize, multiplier: usize) -> Algorithm {
    pipelined_broadcast("dgx1", 8, &dgx1_rings(), root, multiplier)
}

/// NCCL's DGX-1 pipelined Reduce with multiplier `m`.
pub fn nccl_reduce_dgx1(root: usize, multiplier: usize) -> Algorithm {
    pipelined_reduce("dgx1", 8, &dgx1_rings(), root, multiplier)
}

/// RCCL's Allgather on the Gigabyte Z52 ring: `(C, S, R) = (2, 7, 7)`.
pub fn rccl_allgather_amd() -> Algorithm {
    ring_allgather("amd-z52", 8, &amd_rings())
}

/// RCCL's Allreduce on the Gigabyte Z52 ring: `(C, S, R) = (16, 14, 14)`.
pub fn rccl_allreduce_amd() -> Algorithm {
    ring_allreduce("amd-z52", 8, &amd_rings())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_collectives::Collective;
    use sccl_core::combining::{
        allreduce_required, reduce_required, reducescatter_required, validate_combining,
    };
    use sccl_topology::builders;

    #[test]
    fn dgx1_rings_respect_link_capacity() {
        // The 6 logical rings overlap physical edges at most up to their
        // NVLink multiplicity, so the ring Allgather must validate against
        // the DGX-1 bandwidth constraints.
        let topo = builders::dgx1();
        let alg = nccl_allgather_dgx1();
        let spec = Collective::Allgather.spec(8, 6);
        alg.validate(&topo, &spec).expect("valid NCCL allgather");
    }

    #[test]
    fn nccl_allgather_matches_table3() {
        let alg = nccl_allgather_dgx1();
        assert_eq!(alg.per_node_chunks, 6);
        assert_eq!(alg.num_steps(), 7);
        assert_eq!(alg.total_rounds(), 7);
    }

    #[test]
    fn nccl_allreduce_matches_table3() {
        let topo = builders::dgx1();
        let alg = nccl_allreduce_dgx1();
        assert_eq!(alg.per_node_chunks, 48);
        assert_eq!(alg.num_steps(), 14);
        assert_eq!(alg.total_rounds(), 14);
        validate_combining(&alg, &topo, &allreduce_required(alg.num_chunks, 8))
            .expect("valid NCCL allreduce");
    }

    #[test]
    fn nccl_reducescatter_is_valid() {
        let topo = builders::dgx1();
        let alg = nccl_reducescatter_dgx1();
        // Table 3 shares the row with Allgather, (6, 7, 7); the combining
        // schedule counts global chunks, 8 nodes × 6.
        assert_eq!(alg.per_node_chunks, 48);
        assert_eq!(alg.num_steps(), 7);
        assert_eq!(alg.total_rounds(), 7);
        validate_combining(&alg, &topo, &reducescatter_required(alg.num_chunks, 8))
            .expect("valid NCCL reduce-scatter");
    }

    #[test]
    fn nccl_broadcast_matches_table3_for_various_multipliers() {
        let topo = builders::dgx1();
        for m in [1usize, 2, 4] {
            let alg = nccl_broadcast_dgx1(0, m);
            assert_eq!(alg.per_node_chunks, 6 * m);
            assert_eq!(alg.num_steps(), 6 + m);
            assert_eq!(alg.total_rounds(), (6 + m) as u64);
            let spec = Collective::Broadcast { root: 0 }.spec(8, 6 * m);
            alg.validate(&topo, &spec).expect("valid NCCL broadcast");
        }
    }

    #[test]
    fn nccl_reduce_is_valid() {
        let topo = builders::dgx1();
        let alg = nccl_reduce_dgx1(0, 2);
        validate_combining(&alg, &topo, &reduce_required(alg.num_chunks, 0))
            .expect("valid NCCL reduce");
    }

    #[test]
    fn rccl_allgather_matches_figure6_baseline() {
        let topo = builders::amd_z52();
        let alg = rccl_allgather_amd();
        assert_eq!(alg.per_node_chunks, 2);
        assert_eq!(alg.num_steps(), 7);
        let spec = Collective::Allgather.spec(8, 2);
        alg.validate(&topo, &spec).expect("valid RCCL allgather");
    }

    #[test]
    fn rccl_allreduce_shape() {
        let topo = builders::amd_z52();
        let alg = rccl_allreduce_amd();
        assert_eq!(alg.per_node_chunks, 16);
        assert_eq!(alg.num_steps(), 14);
        validate_combining(&alg, &topo, &allreduce_required(alg.num_chunks, 8))
            .expect("valid RCCL allreduce");
    }

    #[test]
    fn ring_collections_have_expected_counts() {
        assert_eq!(dgx1_rings().len(), 6);
        assert_eq!(amd_rings().len(), 2);
    }
}
