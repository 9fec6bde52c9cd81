//! Schedule analysis: link utilization, balance, and a textual step/link
//! occupancy rendering.
//!
//! Bandwidth-optimal schedules keep every link busy every step (the 6-ring
//! DGX-1 Allgather uses all 48 NVLink units in all 7 steps); these helpers
//! quantify that, and the `dgx1_pareto` example prints them.

use crate::algorithm::Algorithm;
use sccl_topology::Topology;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-step, per-link chunk counts of a schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkUtilization {
    /// `counts[step][(src, dst)]` = chunks sent over that link in that step.
    pub counts: Vec<BTreeMap<(usize, usize), u64>>,
    /// Per-round link capacity of every usable link.
    pub capacities: BTreeMap<(usize, usize), u64>,
    /// Rounds per step of the analysed schedule.
    pub rounds_per_step: Vec<u64>,
}

impl LinkUtilization {
    /// Analyse `algorithm` on `topology`.
    pub fn analyse(algorithm: &Algorithm, topology: &Topology) -> Self {
        let steps = algorithm.num_steps();
        let mut counts = vec![BTreeMap::new(); steps];
        for send in &algorithm.sends {
            *counts[send.step].entry((send.src, send.dst)).or_insert(0) += 1;
        }
        let capacities = topology
            .link_bandwidths()
            .into_iter()
            .map(|(s, d, b)| ((s, d), b))
            .collect();
        LinkUtilization {
            counts,
            capacities,
            rounds_per_step: algorithm.rounds_per_step.clone(),
        }
    }

    /// Total chunk-transfers of the schedule.
    pub fn total_transfers(&self) -> u64 {
        self.counts.iter().flat_map(|m| m.values()).copied().sum()
    }

    /// Total link-round capacity of the schedule
    /// (`Σ_steps Σ_links capacity·rounds`).
    pub fn total_capacity(&self) -> u64 {
        let per_round: u64 = self.capacities.values().sum();
        self.rounds_per_step.iter().map(|r| r * per_round).sum()
    }

    /// Fraction of the total link capacity actually used (1.0 means every
    /// link is saturated in every round of every step).
    pub fn utilization(&self) -> f64 {
        let cap = self.total_capacity();
        if cap == 0 {
            return 0.0;
        }
        self.total_transfers() as f64 / cap as f64
    }

    /// The busiest link of a step measured in rounds needed
    /// (`chunks / capacity`), which is what the step's duration is
    /// proportional to in the (α, β) model.
    pub fn busiest_link_rounds(&self, step: usize) -> f64 {
        self.counts[step]
            .iter()
            .map(|(&link, &chunks)| {
                let cap = self.capacities.get(&link).copied().unwrap_or(1).max(1);
                chunks as f64 / cap as f64
            })
            .fold(0.0, f64::max)
    }

    /// Balance of a step: average occupied-link load divided by the
    /// busiest-link load (1.0 = perfectly balanced across the links used).
    pub fn step_balance(&self, step: usize) -> f64 {
        let loads: Vec<f64> = self.counts[step]
            .iter()
            .map(|(&link, &chunks)| {
                let cap = self.capacities.get(&link).copied().unwrap_or(1).max(1);
                chunks as f64 / cap as f64
            })
            .collect();
        if loads.is_empty() {
            return 1.0;
        }
        let max = loads.iter().copied().fold(0.0, f64::max);
        let avg = loads.iter().sum::<f64>() / loads.len() as f64;
        if max == 0.0 {
            1.0
        } else {
            avg / max
        }
    }

    /// Render a compact per-step table: links used, chunks moved, busiest
    /// link and balance.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>7} {:>7} {:>8} {:>9} {:>8}",
            "step", "rounds", "links", "chunks", "busiest", "balance"
        );
        for step in 0..self.counts.len() {
            let links = self.counts[step].len();
            let chunks: u64 = self.counts[step].values().sum();
            let _ = writeln!(
                out,
                "{:>5} {:>7} {:>7} {:>8} {:>9.2} {:>8.2}",
                step,
                self.rounds_per_step[step],
                links,
                chunks,
                self.busiest_link_rounds(step),
                self.step_balance(step)
            );
        }
        let _ = writeln!(
            out,
            "overall link utilization: {:.1}%",
            self.utilization() * 100.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_baselines_free::ring_allgather_fixture;
    use sccl_topology::builders;

    /// Local fixture: the classic single-ring Allgather on 4 nodes (avoids a
    /// dependency on `sccl-baselines`, which depends on this crate).
    mod sccl_baselines_free {
        use crate::algorithm::{Algorithm, Send};
        use sccl_collectives::Collective;

        pub fn ring_allgather_fixture() -> Algorithm {
            let mut sends = Vec::new();
            for step in 0..3 {
                for node in 0..4usize {
                    let chunk = (node + 4 - step) % 4;
                    sends.push(Send::copy(chunk, node, (node + 1) % 4, step));
                }
            }
            Algorithm {
                collective: Collective::Allgather,
                topology_name: "ring-4".to_string(),
                num_nodes: 4,
                per_node_chunks: 1,
                num_chunks: 4,
                rounds_per_step: vec![1, 1, 1],
                sends,
            }
        }
    }

    #[test]
    fn unidirectional_ring_uses_half_the_links() {
        let topo = builders::ring(4, 1);
        let alg = ring_allgather_fixture();
        let util = LinkUtilization::analyse(&alg, &topo);
        assert_eq!(util.total_transfers(), 12);
        // 8 directed links × 3 rounds = 24 capacity; only half is used
        // because the schedule only sends clockwise.
        assert_eq!(util.total_capacity(), 24);
        assert!((util.utilization() - 0.5).abs() < 1e-9);
        for step in 0..3 {
            assert_eq!(util.counts[step].len(), 4);
            assert!((util.busiest_link_rounds(step) - 1.0).abs() < 1e-9);
            assert!((util.step_balance(step) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn render_contains_summary() {
        let topo = builders::ring(4, 1);
        let alg = ring_allgather_fixture();
        let util = LinkUtilization::analyse(&alg, &topo);
        let text = util.render();
        assert!(text.contains("overall link utilization: 50.0%"));
        assert!(text.contains("step"));
    }

    #[test]
    fn unbalanced_step_detected() {
        let topo = builders::ring(4, 1);
        let mut alg = ring_allgather_fixture();
        // Add a second chunk on one link at step 0 and bump its rounds.
        alg.sends.push(crate::algorithm::Send::copy(1, 1, 2, 0));
        alg.rounds_per_step[0] = 2;
        let util = LinkUtilization::analyse(&alg, &topo);
        assert!(util.busiest_link_rounds(0) > 1.0);
        assert!(util.step_balance(0) < 1.0);
    }

    #[test]
    fn empty_step_is_balanced() {
        let topo = builders::ring(4, 1);
        let mut alg = ring_allgather_fixture();
        alg.sends.retain(|s| s.step != 1);
        let util = LinkUtilization::analyse(&alg, &topo);
        assert_eq!(util.counts[1].len(), 0);
        assert_eq!(util.step_balance(1), 1.0);
        assert_eq!(util.busiest_link_rounds(1), 0.0);
    }
}
