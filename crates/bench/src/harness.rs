//! Shared synthesis-probing harness for the figure binaries.
//!
//! The figures of the paper plot `(C, S, R)` points of Tables 4 and 5
//! (which the tier-1 tests `table4_dgx1.rs` / `table5_z52.rs` and the
//! benchmark ledger decide): each binary probes its points with a per-row
//! time budget and feeds the concrete schedules to the link-level
//! simulator; when a probe exceeds its budget the harness falls back to
//! the closed-form (α, β) cost of §3.6, flagging the row.

use sccl_collectives::Collective;
use sccl_core::encoding::{synthesize, EncodingOptions, SynCollInstance, SynthesisOutcome};
use sccl_core::{Algorithm, AlgorithmCost, CostModel};
use sccl_program::LoweringOptions;
use sccl_runtime::{closed_form_time, simulate_time};
use sccl_solver::{Limits, SolverConfig};
use sccl_topology::Topology;
use std::time::Duration;

/// Result of probing one `(C, S, R)` point.
#[derive(Clone, Debug)]
pub struct ProbeResult {
    pub collective: Collective,
    pub chunks: usize,
    pub steps: usize,
    pub rounds: u64,
    pub outcome: ProbeOutcome,
    pub time: Duration,
}

/// Outcome of a probe.
#[derive(Clone, Debug)]
pub enum ProbeOutcome {
    Synthesized(Box<Algorithm>),
    Unsatisfiable,
    Timeout,
}

impl ProbeResult {
    pub fn is_sat(&self) -> bool {
        matches!(self.outcome, ProbeOutcome::Synthesized(_))
    }

    /// Human-readable verdict for the table output.
    pub fn verdict(&self) -> &'static str {
        match self.outcome {
            ProbeOutcome::Synthesized(_) => "SAT",
            ProbeOutcome::Unsatisfiable => "UNSAT",
            ProbeOutcome::Timeout => "timeout",
        }
    }
}

/// Probe a single non-combining `(C, S, R)` point with a time budget.
pub fn probe(
    topology: &Topology,
    collective: Collective,
    chunks: usize,
    steps: usize,
    rounds: u64,
    budget: Duration,
) -> ProbeResult {
    let instance = SynCollInstance {
        spec: collective.spec(topology.num_nodes(), chunks),
        per_node_chunks: chunks,
        num_steps: steps,
        num_rounds: rounds,
    };
    let run = synthesize(
        topology,
        &instance,
        &EncodingOptions::default(),
        SolverConfig::default(),
        Limits::time(budget),
    );
    let time = run.total_time();
    let outcome = match run.outcome {
        SynthesisOutcome::Satisfiable(a) => ProbeOutcome::Synthesized(Box::new(a)),
        SynthesisOutcome::Unsatisfiable => ProbeOutcome::Unsatisfiable,
        SynthesisOutcome::Unknown => ProbeOutcome::Timeout,
    };
    ProbeResult {
        collective,
        chunks,
        steps,
        rounds,
        outcome,
        time,
    }
}

/// A figure series: a labelled algorithm (or, if synthesis exceeded its
/// budget, just its cost tuple) plus the lowering it is evaluated under.
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub algorithm: Option<Algorithm>,
    pub cost: AlgorithmCost,
    pub lowering: LoweringOptions,
    /// `true` when the series uses the closed-form cost because the
    /// schedule was not synthesized within the budget.
    pub closed_form_fallback: bool,
}

impl Series {
    /// Build a series from a synthesized algorithm.
    pub fn from_algorithm(
        label: impl Into<String>,
        algorithm: Algorithm,
        lowering: LoweringOptions,
    ) -> Self {
        let cost = algorithm.cost();
        Series {
            label: label.into(),
            algorithm: Some(algorithm),
            cost,
            lowering,
            closed_form_fallback: false,
        }
    }

    /// Build a series from a `(C, S, R)` cost tuple only.
    pub fn from_cost(
        label: impl Into<String>,
        chunks: u64,
        steps: u64,
        rounds: u64,
        lowering: LoweringOptions,
    ) -> Self {
        Series {
            label: label.into(),
            algorithm: None,
            cost: AlgorithmCost::new(steps, rounds, chunks),
            lowering,
            closed_form_fallback: true,
        }
    }

    /// Predicted execution time at `input_bytes`.
    pub fn time(&self, topology: &Topology, input_bytes: u64, model: &CostModel) -> f64 {
        match &self.algorithm {
            Some(alg) => simulate_time(alg, topology, input_bytes, model, &self.lowering),
            None => {
                // Closed-form fallback: build a zero-send placeholder is not
                // needed; use the cost formula directly.
                let effective = sccl_runtime::effective_cost_model(model, &self.lowering);
                self.cost.predicted_time(&effective, input_bytes)
            }
        }
    }
}

/// Probe an Allgather `(C, S, R)` point and wrap it as a figure series,
/// falling back to the closed form on timeout/UNSAT.
pub fn allgather_series(
    topology: &Topology,
    chunks: usize,
    steps: usize,
    rounds: u64,
    lowering: LoweringOptions,
    budget: Duration,
    label_suffix: &str,
) -> Series {
    let label = format!("({chunks},{steps},{rounds}){label_suffix}");
    let result = probe(
        topology,
        Collective::Allgather,
        chunks,
        steps,
        rounds,
        budget,
    );
    match result.outcome {
        ProbeOutcome::Synthesized(alg) => Series::from_algorithm(label, *alg, lowering),
        _ => Series::from_cost(label, chunks as u64, steps as u64, rounds, lowering),
    }
}

/// Baseline series built from an existing (hand-written) algorithm.
pub fn baseline_series(label: &str, algorithm: Algorithm, lowering: LoweringOptions) -> Series {
    Series::from_algorithm(label, algorithm, lowering)
}

/// Compute a speedup row (candidate vs baseline) across input sizes.
pub fn speedup_row(
    candidate: &Series,
    baseline: &Series,
    topology: &Topology,
    model: &CostModel,
    sizes: &[u64],
) -> Vec<f64> {
    sizes
        .iter()
        .map(|&bytes| {
            baseline.time(topology, bytes, model) / candidate.time(topology, bytes, model)
        })
        .collect()
}

/// The time budget to use per probe, read from `SCCL_PROBE_TIMEOUT_SECS`
/// (default `default_secs`).
pub fn probe_budget(default_secs: u64) -> Duration {
    std::env::var("SCCL_PROBE_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_secs)
        .unwrap_or(Duration::from_secs(default_secs))
}

/// Use the closed-form time predictions directly for figure series instead
/// of synthesizing schedules (set `SCCL_FIGURE_CLOSED_FORM=1`); useful for
/// quickly regenerating the figure shapes.
pub fn figures_closed_form() -> bool {
    std::env::var("SCCL_FIGURE_CLOSED_FORM")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Re-export used by `Series::time`; kept public for the binaries.
pub fn closed_form(
    alg: &Algorithm,
    bytes: u64,
    model: &CostModel,
    lowering: &LoweringOptions,
) -> f64 {
    closed_form_time(alg, bytes, model, lowering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_topology::builders;

    #[test]
    fn probe_ring_allgather_sat_and_unsat() {
        let topo = builders::ring(4, 1);
        let sat = probe(
            &topo,
            Collective::Allgather,
            1,
            3,
            3,
            Duration::from_secs(30),
        );
        assert!(sat.is_sat());
        assert_eq!(sat.verdict(), "SAT");
        let unsat = probe(
            &topo,
            Collective::Allgather,
            1,
            1,
            1,
            Duration::from_secs(30),
        );
        assert!(!unsat.is_sat());
        assert_eq!(unsat.verdict(), "UNSAT");
    }

    #[test]
    fn series_times_are_consistent() {
        let topo = builders::ring(4, 1);
        let lowering = LoweringOptions::default();
        let synthesized = allgather_series(&topo, 1, 3, 3, lowering, Duration::from_secs(30), "");
        assert!(!synthesized.closed_form_fallback);
        let fallback = Series::from_cost("(1,3,3)", 1, 3, 3, lowering);
        let model = CostModel::nvlink();
        // The closed form charges every step its full round count on the
        // busiest link; a synthesized schedule uses each link at most that
        // much, so its link-level simulation can only be at least as fast
        // — and never slower — than the closed-form envelope of the same
        // (C, S, R) point.
        for bytes in [1_000u64, 1_000_000] {
            let a = synthesized.time(&topo, bytes, &model);
            let b = fallback.time(&topo, bytes, &model);
            assert!(a > 0.0);
            assert!(
                a <= b * (1.0 + 1e-6),
                "simulated synthesized schedule ({a}) slower than its closed form ({b})"
            );
        }
    }

    #[test]
    fn speedup_row_shape() {
        let topo = builders::ring(4, 1);
        let lowering = LoweringOptions::default();
        let a = Series::from_cost("a", 1, 2, 2, lowering);
        let b = Series::from_cost("b", 2, 3, 3, lowering);
        let model = CostModel::nvlink();
        let sizes = [1_024u64, 1 << 20, 1 << 28];
        let row = speedup_row(&a, &b, &topo, &model, &sizes);
        assert_eq!(row.len(), 3);
        // Fewer steps wins at small sizes; worse bandwidth loses at large.
        assert!(row[0] > 1.0);
        assert!(row[2] < 1.0);
    }

    #[test]
    fn probe_budget_default() {
        std::env::remove_var("SCCL_PROBE_TIMEOUT_SECS");
        assert_eq!(probe_budget(45), Duration::from_secs(45));
    }
}
