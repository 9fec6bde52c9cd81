//! Integration test: the shape of the paper's Figures 4–6 (§5.2), on
//! schedules synthesized under the benchmark ledger's per-probe budget of
//! 20 000 conflicts and timed by the link-level (α, β) simulator.
//!
//! The paper plots measured speedups over NCCL (DGX-1) and RCCL (Gigabyte
//! Z52). The simulator reproduces which entry wins in which size band, not
//! the measured values, so each curve is asserted by where it crosses 1:
//! the sizes at which the synthesized schedule wins, on the figure's own
//! x-axis (×8 apart). Where the simulator departs from the paper, a named
//! test asserts what it does show and its doc comment states the gap.

use sccl::prelude::*;
use sccl_baselines::{nccl_allgather_dgx1, nccl_allreduce_dgx1, rccl_allgather_amd};
use sccl_core::combining::compose_allreduce;
use sccl_core::encoding::{synthesize, EncodingOptions, SynCollInstance, SynthesisOutcome};
use sccl_runtime::speedup;
use sccl_solver::{Limits, SolverConfig};

/// `PROBE_CONFLICTS` of the ledger's `table4-probes` workload.
const LEDGER_BUDGET: u64 = 20_000;

/// Two times closer than this relative gap are a tie, neither a win nor a
/// loss.
const TIE: f64 = 1e-9;

/// One figure: a machine, its cost model, the library baseline and the
/// x-axis of input sizes in bytes.
struct Figure {
    topology: Topology,
    model: CostModel,
    baseline: Algorithm,
    sizes: Vec<u64>,
}

impl Figure {
    /// Figure 4: Allgather on the DGX-1 against NCCL's six rings.
    fn allgather_dgx1() -> Self {
        Self::new(
            builders::dgx1(),
            CostModel::nvlink(),
            nccl_allgather_dgx1(),
            (960, 251_658_240),
        )
    }

    /// Figure 5: Allreduce on the DGX-1 against NCCL's ring Allreduce.
    fn allreduce_dgx1() -> Self {
        Self::new(
            builders::dgx1(),
            CostModel::nvlink(),
            nccl_allreduce_dgx1(),
            (7_860, 257_556_480),
        )
    }

    /// Figure 6: Allgather on the Gigabyte Z52 against RCCL's two rings.
    fn allgather_z52() -> Self {
        Self::new(
            builders::amd_z52(),
            CostModel::amd_z52(),
            rccl_allgather_amd(),
            (512, 1 << 30),
        )
    }

    fn new(
        topology: Topology,
        model: CostModel,
        baseline: Algorithm,
        (min, max): (u64, u64),
    ) -> Self {
        let sizes = std::iter::successors(Some(min), |s| Some(s * 8))
            .take_while(|&s| s <= max)
            .collect();
        Figure {
            topology,
            model,
            baseline,
            sizes,
        }
    }

    /// The Allgather `(c, s, r)` of this figure's machine, synthesized
    /// within the budget and replayed.
    fn allgather(&self, (c, s, r): (usize, usize, u64)) -> Algorithm {
        let instance = SynCollInstance {
            spec: Collective::Allgather.spec(self.topology.num_nodes(), c),
            per_node_chunks: c,
            num_steps: s,
            num_rounds: r,
        };
        let run = synthesize(
            &self.topology,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::conflicts(LEDGER_BUDGET),
        );
        let SynthesisOutcome::Satisfiable(alg) = run.outcome else {
            panic!("Allgather ({c},{s},{r}) is not found within {LEDGER_BUDGET} conflicts");
        };
        alg.validate(&self.topology, &instance.spec)
            .unwrap_or_else(|e| panic!("Allgather ({c},{s},{r}): invalid schedule: {e:?}"));
        alg
    }

    /// The speedup of `candidate` lowered with `lowering` over the baseline
    /// (fused push kernels) at every size of the x-axis.
    fn speedups(&self, candidate: &Algorithm, lowering: LoweringOptions) -> Vec<f64> {
        let push = LoweringOptions::default();
        self.sizes
            .iter()
            .map(|&bytes| {
                speedup(
                    (candidate, &lowering),
                    (&self.baseline, &push),
                    &self.topology,
                    bytes,
                    &self.model,
                )
            })
            .collect()
    }

    /// The sizes at which a curve is above 1: where the candidate wins.
    fn winning_sizes(&self, speedups: &[f64]) -> Vec<u64> {
        self.sizes
            .iter()
            .zip(speedups)
            .filter(|&(_, &s)| s > 1.0 + TIE)
            .map(|(&bytes, _)| bytes)
            .collect()
    }
}

fn assert_ties(speedups: &[f64]) {
    assert!(
        speedups.iter().all(|s| (s - 1.0).abs() < TIE),
        "{speedups:?}"
    );
}

/// Figure 4: the latency-optimal (1,2,2) Allgather wins at small sizes and
/// loses once bandwidth dominates. The paper reads ≈2× at the smallest
/// size; the simulator reads 3.5×.
#[test]
fn figure4_latency_optimal_allgather_wins_small_sizes_only() {
    let fig = Figure::allgather_dgx1();
    let s = fig.speedups(&fig.allgather((1, 2, 2)), LoweringOptions::default());
    assert!(s[0] >= 1.5, "{s:?}");
    assert_eq!(fig.winning_sizes(&s), [960, 7_680, 61_440, 491_520]);
}

/// §2.5's Pareto point: (2,2,3) takes the steps of (1,2,2) at a lower
/// bandwidth cost R/C, so it is at least as fast at every size.
#[test]
fn figure4_two_chunk_allgather_is_never_slower_than_one_chunk() {
    let fig = Figure::allgather_dgx1();
    let push = LoweringOptions::default();
    let one = fig.speedups(&fig.allgather((1, 2, 2)), push);
    let two = fig.speedups(&fig.allgather((2, 2, 3)), push);
    assert!(
        two.iter().zip(&one).all(|(t, o)| t >= o),
        "{two:?} vs {one:?}"
    );
}

/// Figure 4: (5,6,6) sits between the two ends of the frontier, one step
/// shorter than NCCL at a higher bandwidth cost, so its lead lasts into
/// the megabytes and ends before the largest sizes.
#[test]
fn figure4_five_chunk_allgather_wins_below_thirty_megabytes() {
    let fig = Figure::allgather_dgx1();
    let s = fig.speedups(&fig.allgather((5, 6, 6)), LoweringOptions::default());
    assert_eq!(
        fig.winning_sizes(&s),
        [960, 7_680, 61_440, 491_520, 3_932_160]
    );
}

/// Figure 4: the bandwidth-optimal (6,7,7) Allgather has NCCL's ring
/// structure and its cost; the paper reads ≈1× at every size.
#[test]
fn figure4_bandwidth_optimal_allgather_ties_nccl() {
    let fig = Figure::allgather_dgx1();
    assert_ties(&fig.speedups(&fig.allgather((6, 7, 7)), LoweringOptions::default()));
}

/// Figure 4: lowered to per-step cudaMemcpy, (6,7,7) pays a higher fixed
/// cost per step for the DMA engines' higher bandwidth, so it loses at small
/// sizes and wins at the largest, as in the paper.
#[test]
fn figure4_dma_lowering_wins_only_at_the_largest_size() {
    let fig = Figure::allgather_dgx1();
    let s = fig.speedups(&fig.allgather((6, 7, 7)), LoweringOptions::dma_per_step());
    assert_eq!(fig.winning_sizes(&s), [251_658_240]);
}

/// Figure 5: the Allreduce composed from the (1,2,2) Allgather phase wins
/// at small sizes and loses once bandwidth dominates.
#[test]
fn figure5_latency_optimal_allreduce_wins_small_sizes_only() {
    let fig = Figure::allreduce_dgx1();
    let s = fig.speedups(
        &compose_allreduce(&fig.allgather((1, 2, 2))),
        LoweringOptions::default(),
    );
    assert!(s[0] >= 1.5, "{s:?}");
    assert_eq!(fig.winning_sizes(&s), [7_860, 62_880, 503_040, 4_024_320]);
}

/// Figure 5: the paper reads ≈1.1× for the (6,7,7)-phase Allreduce at the
/// largest size; the simulator reads exactly 1 at every size. The (α, β)
/// model charges neither NCCL's kernel overheads nor SCCL's, and the two
/// schedules have the same (C, S, R), so nothing separates them.
#[test]
fn figure5_bandwidth_optimal_allreduce_ties_nccl_where_the_paper_leads() {
    let fig = Figure::allreduce_dgx1();
    assert_ties(&fig.speedups(
        &compose_allreduce(&fig.allgather((6, 7, 7))),
        LoweringOptions::default(),
    ));
}

/// Figure 5: the paper has a mid-range band where NCCL beats every SCCL
/// entry, which it attributes to the multi-step kernels' synchronization.
/// The simulator charges no such overhead, and the band does not appear:
/// at every size the best of the four composed Allreduces is at least as
/// fast as NCCL.
#[test]
fn figure5_no_size_band_where_nccl_beats_every_synthesized_allreduce() {
    let fig = Figure::allreduce_dgx1();
    let curves: Vec<Vec<f64>> = [(1, 2, 2), (4, 5, 5), (5, 6, 6), (6, 7, 7)]
        .into_iter()
        .map(|row| {
            fig.speedups(
                &compose_allreduce(&fig.allgather(row)),
                LoweringOptions::default(),
            )
        })
        .collect();
    for (i, bytes) in fig.sizes.iter().enumerate() {
        let best = curves.iter().map(|c| c[i]).fold(0.0, f64::max);
        assert!(best >= 1.0 - TIE, "{bytes} B: best speedup {best}");
    }
}

/// Figure 6: the latency-optimal (1,4,4) Allgather wins at small sizes and
/// loses once bandwidth dominates.
#[test]
fn figure6_latency_optimal_allgather_wins_small_sizes_only() {
    let fig = Figure::allgather_z52();
    let s = fig.speedups(&fig.allgather((1, 4, 4)), LoweringOptions::default());
    assert!(s[0] >= 1.5, "{s:?}");
    assert_eq!(fig.winning_sizes(&s), [512, 4_096, 32_768, 262_144]);
}

/// Figure 6: the paper's (2,7,7) Allgather leads RCCL at large sizes; the
/// simulator reads exactly 1 at every size. RCCL's two rings are the same
/// (C, S, R), and the (α, β) model charges neither RCCL's kernel overheads
/// nor SCCL's.
#[test]
fn figure6_bandwidth_optimal_allgather_ties_rccl_where_the_paper_leads() {
    let fig = Figure::allgather_z52();
    assert_ties(&fig.speedups(&fig.allgather((2, 7, 7)), LoweringOptions::default()));
}
