//! Property-based test for checkpointable synthesis: interrupting a
//! Pareto sweep at a random point, persisting the checkpoint (through a
//! JSON round trip, as the scheduler's journal does) and resuming over a
//! re-enumerated plan reaches the byte-identical frontier of an
//! uninterrupted sweep.

use proptest::prelude::*;
use sccl_collectives::Collective;
use sccl_core::pareto::{base_problem, sweep, SweepCheckpoint, SynthesisConfig};
use sccl_solver::Limits;
use sccl_topology::{builders, Topology};

fn small_topology() -> impl Strategy<Value = Topology> {
    (0usize..4, 3usize..5, 1u64..3).prop_map(|(kind, n, bw)| match kind {
        0 => builders::ring(n, bw),
        1 => builders::chain(n, bw),
        2 => builders::star(n, bw),
        _ => builders::fully_connected(n, bw),
    })
}

fn collective_strategy() -> impl Strategy<Value = Collective> {
    prop_oneof![
        Just(Collective::Allgather),
        Just(Collective::Broadcast { root: 0 }),
        Just(Collective::Scatter { root: 0 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Checkpoint-at-any-point + resume == uninterrupted.
    #[test]
    fn interrupted_plus_resumed_equals_uninterrupted(
        topo in small_topology(),
        collective in collective_strategy(),
        interrupt_at in 0usize..64,
    ) {
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: 4,
            ..SynthesisConfig::default()
        };
        let base = base_problem(&topo, collective);

        // Uninterrupted reference sweep, capturing a checkpoint after
        // every decided candidate (exactly what `Engine::serve` persists
        // through the journal).
        let mut checkpoints: Vec<SweepCheckpoint> = Vec::new();
        let reference = sweep(
            &base,
            &topo,
            collective,
            &config,
            None,
            |merge| checkpoints.push(merge.checkpoint()),
            |jobs, index| base.solve(&jobs[index], &config, Limits::none()),
        )
        .expect("connected topology");

        // "Interrupt" after a random decided candidate: resume from that
        // checkpoint — after a JSON round trip, over a re-enumerated plan
        // (a restarted process has nothing but the checkpoint).
        prop_assume!(!checkpoints.is_empty());
        let checkpoint = &checkpoints[interrupt_at % checkpoints.len()];
        let json = serde_json::to_string(checkpoint).expect("serializable");
        let restored: SweepCheckpoint = serde_json::from_str(&json).expect("round trips");
        let resumed = sweep(
            &base,
            &topo,
            collective,
            &config,
            Some(&restored),
            |_| {},
            |jobs, index| base.solve(&jobs[index], &config, Limits::none()),
        )
        .expect("connected topology");

        prop_assert!(
            resumed.same_frontier(&reference),
            "resumed frontier diverged:\nreference: {:?}\nresumed: {:?}",
            reference,
            resumed
        );
    }
}
