//! (α, β) discrete-event cost simulator.
//!
//! The paper's Figures 4–6 compare wall-clock time of lowered algorithms on
//! real GPUs; without that hardware, this module predicts execution time
//! from the same (α, β) model the paper uses to reason about its algorithms
//! (§2.3, §3.6), refined to the granularity of individual links and steps
//! and parameterized by the lowering choices of §4.
//!
//! For each synchronous step the simulator charges a fixed cost α plus the
//! transfer time of the busiest link in that step (`chunks on the link /
//! link bandwidth × chunk bytes × β`); the total is the sum over steps.
//! For a perfectly balanced schedule this reduces to the closed-form
//! `S·α + (R/C)·L·β` of §3.6.

use sccl_core::{Algorithm, CostModel};
use sccl_program::{CopyEngine, KernelFusion, LoweringOptions, TransferModel};
use sccl_topology::Topology;
use std::collections::BTreeMap;

/// How the lowering choices perturb the base link constants (§4):
/// * DMA engines: ≈10 % higher bandwidth, higher fixed cost, and no fusion
///   (so they also force per-step synchronization costs).
/// * Pull transfers: request packets consume reverse bandwidth, ≈10 %
///   slower than push.
/// * Per-step kernels: a global synchronization per step instead of
///   fine-grained flags, raising the per-step fixed cost.
pub fn effective_cost_model(base: &CostModel, lowering: &LoweringOptions) -> CostModel {
    let mut alpha = base.alpha_us;
    let mut beta = base.beta_us_per_byte;
    match lowering.copy_engine {
        CopyEngine::KernelCopy => {}
        CopyEngine::DmaMemcpy => {
            alpha *= 2.0;
            beta /= 1.10;
        }
    }
    match lowering.transfer_model {
        TransferModel::Push => {}
        TransferModel::Pull => beta *= 1.10,
    }
    match lowering.kernel_fusion {
        KernelFusion::SingleFused => {}
        KernelFusion::PerStep => alpha *= 2.5,
    }
    CostModel::new(alpha, beta)
}

/// Predicted execution time in microseconds for `algorithm` moving a
/// per-node input buffer of `input_bytes` bytes, lowered with `lowering`.
pub fn simulate_time(
    algorithm: &Algorithm,
    topology: &Topology,
    input_bytes: u64,
    base: &CostModel,
    lowering: &LoweringOptions,
) -> f64 {
    let cost = effective_cost_model(base, lowering);
    let chunk_bytes = input_bytes as f64 / algorithm.per_node_chunks as f64;
    let mut total = 0.0;
    for step in 0..algorithm.num_steps() {
        // Chunks crossing each link during this step.
        let mut per_link: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for send in algorithm.sends.iter().filter(|s| s.step == step) {
            *per_link.entry((send.src, send.dst)).or_insert(0) += 1;
        }
        let busiest = per_link
            .iter()
            .map(|(&(src, dst), &count)| {
                let bw = topology.link_bandwidth(src, dst).unwrap_or(1).max(1) as f64;
                count as f64 / bw
            })
            .fold(0.0f64, f64::max);
        total += cost.alpha_us + busiest * chunk_bytes * cost.beta_us_per_byte;
    }
    total
}

/// Closed-form prediction `S·α + (R/C)·L·β` (§3.6), for comparison with the
/// link-level simulation.
pub fn closed_form_time(
    algorithm: &Algorithm,
    input_bytes: u64,
    base: &CostModel,
    lowering: &LoweringOptions,
) -> f64 {
    let cost = effective_cost_model(base, lowering);
    algorithm.cost().predicted_time(&cost, input_bytes)
}

/// Speedup of `candidate` over `baseline` at a given input size (> 1 means
/// the candidate is faster), both under their own lowering options.
pub fn speedup(
    candidate: (&Algorithm, &LoweringOptions),
    baseline: (&Algorithm, &LoweringOptions),
    topology: &Topology,
    input_bytes: u64,
    base: &CostModel,
) -> f64 {
    let t_candidate = simulate_time(candidate.0, topology, input_bytes, base, candidate.1);
    let t_baseline = simulate_time(baseline.0, topology, input_bytes, base, baseline.1);
    t_baseline / t_candidate
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_collectives::Collective;
    use sccl_core::pareto::{pareto_synthesize, SynthesisConfig};
    use sccl_topology::builders;

    fn ring_frontier() -> (Topology, Vec<Algorithm>) {
        let topo = builders::ring(4, 1);
        let report = pareto_synthesize(&topo, Collective::Allgather, &SynthesisConfig::default())
            .expect("report");
        let algs = report.entries.into_iter().map(|e| e.algorithm).collect();
        (topo, algs)
    }

    #[test]
    fn balanced_schedule_matches_closed_form() {
        let (topo, algs) = ring_frontier();
        // The bandwidth-optimal ring schedule is perfectly balanced, so the
        // link-level simulation agrees with the closed form.
        let bw_opt = algs.last().expect("bandwidth-optimal entry");
        let model = CostModel::nvlink();
        let lowering = LoweringOptions::default();
        for bytes in [1_000u64, 1_000_000, 100_000_000] {
            let sim = simulate_time(bw_opt, &topo, bytes, &model, &lowering);
            let closed = closed_form_time(bw_opt, bytes, &model, &lowering);
            let rel = (sim - closed).abs() / closed;
            assert!(rel < 1e-6, "bytes={bytes}: {sim} vs {closed}");
        }
    }

    #[test]
    fn frontier_never_simulates_slower_than_its_closed_form() {
        // The closed form charges every step its full round count on the
        // busiest link, so no synthesized schedule simulates slower than
        // its (C, S, R).
        let (topo, algs) = ring_frontier();
        let model = CostModel::nvlink();
        let lowering = LoweringOptions::default();
        for (i, alg) in algs.iter().enumerate() {
            for bytes in [1_000u64, 1_000_000, 100_000_000] {
                let sim = simulate_time(alg, &topo, bytes, &model, &lowering);
                let closed = closed_form_time(alg, bytes, &model, &lowering);
                let rel = (sim - closed) / closed;
                assert!(rel < 1e-6, "entry {i}, bytes={bytes}: {sim} vs {closed}");
            }
        }
    }

    #[test]
    fn latency_optimal_wins_small_bandwidth_optimal_wins_large() {
        let (topo, algs) = ring_frontier();
        let lat = &algs[0];
        let bw = algs.last().expect("entry");
        let model = CostModel::nvlink();
        let lowering = LoweringOptions::default();
        let t_small = |a: &Algorithm| simulate_time(a, &topo, 1_024, &model, &lowering);
        let t_large = |a: &Algorithm| simulate_time(a, &topo, 256 * 1024 * 1024, &model, &lowering);
        assert!(t_small(lat) < t_small(bw), "latency-optimal wins at 1 KB");
        assert!(
            t_large(bw) < t_large(lat),
            "bandwidth-optimal wins at 256 MB"
        );
    }

    #[test]
    fn dma_lowering_trades_alpha_for_beta() {
        let base = CostModel::nvlink();
        let kernel = effective_cost_model(&base, &LoweringOptions::default());
        let dma = effective_cost_model(&base, &LoweringOptions::dma_per_step());
        assert!(dma.alpha_us > kernel.alpha_us);
        assert!(dma.beta_us_per_byte < kernel.beta_us_per_byte);
    }

    #[test]
    fn dma_wins_only_at_large_sizes() {
        let (topo, algs) = ring_frontier();
        let bw = algs.last().expect("entry");
        let model = CostModel::nvlink();
        let fused = LoweringOptions::default();
        let dma = LoweringOptions::dma_per_step();
        let small = 4 * 1024;
        let large = 512 * 1024 * 1024;
        assert!(
            simulate_time(bw, &topo, small, &model, &fused)
                < simulate_time(bw, &topo, small, &model, &dma)
        );
        assert!(
            simulate_time(bw, &topo, large, &model, &dma)
                < simulate_time(bw, &topo, large, &model, &fused)
        );
    }

    #[test]
    fn speedup_is_relative() {
        let (topo, algs) = ring_frontier();
        let lat = &algs[0];
        let bw = algs.last().expect("entry");
        let model = CostModel::nvlink();
        let lowering = LoweringOptions::default();
        let s = speedup((lat, &lowering), (bw, &lowering), &topo, 1_024, &model);
        assert!(
            s > 1.0,
            "latency-optimal should beat bandwidth-optimal at 1 KB"
        );
        let inv = speedup((bw, &lowering), (lat, &lowering), &topo, 1_024, &model);
        assert!((s * inv - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pull_model_is_slower() {
        let (topo, algs) = ring_frontier();
        let bw = algs.last().expect("entry");
        let model = CostModel::nvlink();
        let push = LoweringOptions::default();
        let pull = LoweringOptions {
            transfer_model: TransferModel::Pull,
            ..Default::default()
        };
        let bytes = 64 * 1024 * 1024;
        assert!(
            simulate_time(bw, &topo, bytes, &model, &push)
                < simulate_time(bw, &topo, bytes, &model, &pull)
        );
    }
}
