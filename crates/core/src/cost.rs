//! The (α, β) cost model of §2.3/§3.6 and the `(S, R, C)` algorithm costs
//! it prices (§3.7).

use sccl_topology::Rational;
use serde::{Deserialize, Serialize};

/// The `(S, R, C)` characterization of a k-synchronous algorithm's cost:
/// latency cost `a = S` and bandwidth cost `b = R/C` (§3.6–3.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AlgorithmCost {
    /// Number of synchronous steps `S` (the latency cost `a`).
    pub steps: u64,
    /// Total number of rounds `R`.
    pub rounds: u64,
    /// Per-node chunk count `C`.
    pub chunks: u64,
}

impl AlgorithmCost {
    pub fn new(steps: u64, rounds: u64, chunks: u64) -> Self {
        assert!(chunks > 0, "chunk count must be positive");
        AlgorithmCost {
            steps,
            rounds,
            chunks,
        }
    }

    /// Latency cost `a` (the α multiplier).
    pub fn latency_cost(&self) -> u64 {
        self.steps
    }

    /// Bandwidth cost `b = R / C` (the L·β multiplier).
    pub fn bandwidth_cost(&self) -> Rational {
        Rational::new(self.rounds, self.chunks)
    }

    /// `true` if this algorithm is k-synchronous for the given `k`
    /// (`R ≤ S + k`, §3.1).
    pub fn is_k_synchronous(&self, k: u64) -> bool {
        self.rounds <= self.steps + k
    }

    /// Predicted wall-clock time for an input of `input_bytes` bytes under
    /// the (α, β) model: `S·α + (R/C)·L·β` (§3.6).
    pub fn predicted_time(&self, model: &CostModel, input_bytes: u64) -> f64 {
        self.steps as f64 * model.alpha_us
            + self.bandwidth_cost().to_f64() * input_bytes as f64 * model.beta_us_per_byte
    }
}

/// Link cost constants: α is the fixed per-step cost, β the per-byte cost
/// of a unit-bandwidth link.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed cost per synchronous step, in microseconds (kernel launch,
    /// synchronization flags, …).
    pub alpha_us: f64,
    /// Transfer cost per byte over a unit-bandwidth link, in microseconds.
    pub beta_us_per_byte: f64,
}

impl CostModel {
    pub fn new(alpha_us: f64, beta_us_per_byte: f64) -> Self {
        assert!(alpha_us >= 0.0 && beta_us_per_byte >= 0.0);
        CostModel {
            alpha_us,
            beta_us_per_byte,
        }
    }

    /// NVLink-class constants: ~25 GB/s per link unit and a ~10 µs
    /// per-step fixed cost (kernel launch + flag synchronization), matching
    /// the DGX-1 description in §5.1.1.
    pub fn nvlink() -> Self {
        CostModel::new(10.0, 1.0 / 25_000.0)
    }

    /// NVLink constants when lowering through `cudaMemcpy` DMA engines:
    /// ~10 % higher effective bandwidth but a higher per-step fixed cost
    /// (§4, "DMA engines and kernel copies").
    pub fn nvlink_dma() -> Self {
        CostModel::new(18.0, 1.0 / 27_500.0)
    }

    /// PCIe 4.0 x16 / xGMI-class constants for the Gigabyte Z52 (§5.1.2):
    /// ~27 GB/s effective per link and a slightly larger fixed cost.
    pub fn amd_z52() -> Self {
        CostModel::new(12.0, 1.0 / 27_000.0)
    }

    /// The input size at which two algorithm costs break even, in bytes
    /// (`None` if one dominates at every size).
    pub fn crossover_bytes(&self, a: &AlgorithmCost, b: &AlgorithmCost) -> Option<f64> {
        let da = a.steps as f64 - b.steps as f64;
        let db = b.bandwidth_cost().to_f64() - a.bandwidth_cost().to_f64();
        if db == 0.0 {
            return None;
        }
        let x = da * self.alpha_us / (db * self.beta_us_per_byte);
        if x > 0.0 {
            Some(x)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_bandwidth_costs() {
        // The bandwidth-optimal DGX-1 Allgather: 6 chunks, 7 steps, 7 rounds.
        let c = AlgorithmCost::new(7, 7, 6);
        assert_eq!(c.latency_cost(), 7);
        assert_eq!(c.bandwidth_cost(), Rational::new(7, 6));
        assert!(c.is_k_synchronous(0));
    }

    #[test]
    fn k_synchronous_bound() {
        let c = AlgorithmCost::new(2, 3, 2);
        assert!(!c.is_k_synchronous(0));
        assert!(c.is_k_synchronous(1));
    }

    #[test]
    fn predicted_time_matches_formula() {
        let model = CostModel::new(10.0, 0.001);
        let c = AlgorithmCost::new(3, 7, 6);
        let t = c.predicted_time(&model, 6_000_000);
        let expected = 3.0 * 10.0 + (7.0 / 6.0) * 6_000_000.0 * 0.001;
        assert!((t - expected).abs() < 1e-6);
    }

    #[test]
    fn crossover_between_latency_and_bandwidth_optimal() {
        // The latency-optimal (1,2,2) and bandwidth-optimal (6,3,7) DGX-1
        // Allgather algorithms cross over at a finite positive size.
        let model = CostModel::nvlink();
        let lat = AlgorithmCost::new(2, 2, 1);
        let bw = AlgorithmCost::new(3, 7, 6);
        let x = model.crossover_bytes(&lat, &bw).expect("crossover exists");
        assert!(x > 0.0);
        // Below the crossover the latency-optimal one is faster, above it
        // the bandwidth-optimal one is.
        assert!(
            lat.predicted_time(&model, (x / 2.0) as u64)
                < bw.predicted_time(&model, (x / 2.0) as u64)
        );
        assert!(
            lat.predicted_time(&model, (x * 2.0) as u64)
                > bw.predicted_time(&model, (x * 2.0) as u64)
        );
    }

    #[test]
    fn no_crossover_when_equal_bandwidth() {
        let model = CostModel::nvlink();
        let a = AlgorithmCost::new(3, 7, 6);
        let b = AlgorithmCost::new(7, 7, 6);
        assert_eq!(model.crossover_bytes(&a, &b), None);
    }

    #[test]
    #[should_panic]
    fn zero_chunks_rejected() {
        AlgorithmCost::new(1, 1, 0);
    }

    #[test]
    fn cost_model_presets_are_sane() {
        let nv = CostModel::nvlink();
        let dma = CostModel::nvlink_dma();
        // The DMA path has higher fixed cost but higher bandwidth.
        assert!(dma.alpha_us > nv.alpha_us);
        assert!(dma.beta_us_per_byte < nv.beta_us_per_byte);
    }
}
