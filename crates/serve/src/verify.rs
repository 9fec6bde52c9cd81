//! Decode-time verification for the flat serve path: every frontier
//! algorithm is independently re-checked before it can enter the hot tier
//! — the same trust posture as the hierarchical path's composition
//! verifier (`sccl_hier::verify_composition`): nothing a solver or a disk
//! read produced is replayed to clients unchecked.
//!
//! Each entry must be a schedule for the requested instance — the
//! topology's node count, the requested collective, and the `(C, S, R)`
//! the entry claims — and must pass [`sccl_core::check::check`], the one
//! replay of the run semantics: Table 2's pre/post relations for the
//! non-combining collectives, contributor sets for the combining ones.

use sccl_collectives::Collective;
use sccl_core::check::check;
use sccl_core::pareto::SynthesisReport;
use sccl_topology::Topology;

/// Re-check every entry of `report` for `collective` on `topology`.
///
/// Returns `Err` with a human-readable description naming the offending
/// frontier entry and the first check that failed. The serving layer
/// treats any error as grounds to quarantine the backing cache entry.
pub fn verify_report(
    topology: &Topology,
    collective: Collective,
    report: &SynthesisReport,
) -> Result<(), String> {
    for (index, entry) in report.entries.iter().enumerate() {
        let algorithm = &entry.algorithm;
        let label = || {
            format!(
                "frontier entry {index} (chunks {}, steps {}, rounds {})",
                entry.chunks, entry.steps, entry.rounds
            )
        };
        // A ReduceScatter frontier reports the `C` of its Allgather dual
        // (the paper's footnote); its inverted schedule splits every input
        // into `P·C` chunks.
        let chunks = match collective {
            Collective::ReduceScatter => entry.chunks.saturating_mul(topology.num_nodes()),
            _ => entry.chunks,
        };
        let schedule = (
            algorithm.per_node_chunks,
            algorithm.num_steps(),
            algorithm.total_rounds(),
        );
        if (chunks, entry.steps, entry.rounds) != schedule {
            return Err(format!(
                "{}: the schedule's (chunks, steps, rounds) are {schedule:?}",
                label()
            ));
        }
        check(topology, collective, algorithm).map_err(|error| format!("{}: {error}", label()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_core::pareto::{pareto_synthesize, SynthesisConfig};
    use sccl_core::{Algorithm, Send};
    use sccl_topology::builders;

    fn quick_config() -> SynthesisConfig {
        SynthesisConfig {
            max_steps: 6,
            max_chunks: 2,
            ..Default::default()
        }
    }

    #[test]
    fn clean_frontiers_verify_for_every_collective_class() {
        let ring = builders::ring(4, 1);
        for collective in [
            Collective::Allgather,
            Collective::Broadcast { root: 0 },
            Collective::Reduce { root: 0 },
            Collective::ReduceScatter,
            Collective::Allreduce,
        ] {
            let report = pareto_synthesize(&ring, collective, &quick_config()).expect("synthesis");
            assert!(
                verify_report(&ring, collective, &report).is_ok(),
                "freshly solved {collective} frontier must verify"
            );
        }
    }

    #[test]
    fn a_tampered_send_fails_verification() {
        let ring = builders::ring(4, 1);
        let mut report =
            pareto_synthesize(&ring, Collective::Allgather, &quick_config()).expect("synthesis");
        // Rewire one send across a link the ring does not have — exactly
        // the kind of silent corruption a bit-flipped cache entry or a
        // decoder bug would produce.
        let algorithm = &mut report.entries[0].algorithm;
        let send = algorithm.sends.first_mut().expect("nonempty schedule");
        send.dst = (send.src + 2) % algorithm.num_nodes;
        let error = verify_report(&ring, Collective::Allgather, &report)
            .expect_err("tampered schedule must fail");
        assert!(
            error.contains("frontier entry 0"),
            "error names the entry: {error}"
        );
    }

    #[test]
    fn an_entry_must_be_a_schedule_for_the_instance() {
        let ring = builders::ring(8, 1);
        let report =
            pareto_synthesize(&ring, Collective::Allgather, &quick_config()).expect("synthesis");
        assert_eq!(
            (
                report.entries[0].chunks,
                report.entries[0].steps,
                report.entries[0].rounds
            ),
            (1, 4, 4)
        );
        // Entry 0 replaced by a 2-node, 1-step schedule over link 0<->1: a
        // valid Allgather, but of another instance than the entry claims.
        let two_nodes = Algorithm {
            collective: Collective::Allgather,
            topology_name: ring.name().to_string(),
            num_nodes: 2,
            per_node_chunks: 1,
            num_chunks: 2,
            rounds_per_step: vec![1],
            sends: vec![Send::copy(0, 0, 1, 0), Send::copy(1, 1, 0, 0)],
        };
        let mut tampered = report.clone();
        tampered.entries[0].algorithm = two_nodes;
        assert!(verify_report(&ring, Collective::Allgather, &tampered).is_err());

        // Nor may an entry claim another collective or another (C, S, R).
        let mut relabelled = report.clone();
        relabelled.entries[0].algorithm.collective = Collective::Broadcast { root: 0 };
        assert!(verify_report(&ring, Collective::Allgather, &relabelled).is_err());
        let mut overclaimed = report.clone();
        overclaimed.entries[0].rounds -= 1;
        assert!(verify_report(&ring, Collective::Allgather, &overclaimed).is_err());
        assert!(verify_report(&ring, Collective::Allgather, &report).is_ok());
    }

    #[test]
    fn a_dropped_chunk_fails_the_post_condition() {
        let ring = builders::ring(4, 1);
        let mut report =
            pareto_synthesize(&ring, Collective::Allgather, &quick_config()).expect("synthesis");
        let algorithm = &mut report.entries[0].algorithm;
        algorithm.sends.pop();
        assert!(
            verify_report(&ring, Collective::Allgather, &report).is_err(),
            "a schedule missing a send must fail verification"
        );
    }
}
