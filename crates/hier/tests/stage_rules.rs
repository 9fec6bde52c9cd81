//! The composer's four collective rules, pinned stage by stage.
//!
//! Each composition of Allgather, and of Broadcast, Gather and Scatter
//! rooted at a leader (node 0), at a non-leader of the leader's group
//! (node 1) and in another group (node P−1), on two machines, is rendered
//! as its stage list — name, level, recorded collective, instances,
//! lanes, steps, rounds — plus the composed `(C, S, R)` and send count,
//! and compared against `stage_rules.golden`. A refactor of the planner
//! that claims to keep its compositions must keep every line.

use sccl_collectives::Collective;
use sccl_hier::{HierEngineExt, HierRequest};
use sccl_sched::Engine;
use sccl_topology::builders;
use std::fmt::Write;

const MACHINES: [&str; 2] = ["rings:2x4", "dgx-rack:2"];

fn render(engine: &Engine, spec: &str, collective: Collective) -> String {
    let topology = builders::parse_spec(spec).expect("a known machine spec");
    let response = engine
        .synthesize_hier(HierRequest::new(&topology, collective))
        .unwrap_or_else(|e| panic!("{collective:?} on {spec}: {e}"));
    let algorithm = &response.algorithm;
    let cost = algorithm.cost();
    let mut out = format!(
        "{spec} {collective:?}: (C, S, R) = ({}, {}, {}), sends {}\n",
        cost.chunks,
        cost.steps,
        cost.rounds,
        algorithm.composed.sends.len()
    );
    for stage in &algorithm.stages {
        writeln!(
            out,
            "  {} {} {:?} instances {} lanes {} steps {} rounds {}",
            stage.name,
            stage.level,
            stage.collective,
            stage.instances,
            stage.lanes,
            stage.steps,
            stage.rounds
        )
        .expect("writing to a String");
    }
    out
}

#[test]
fn every_rule_composes_its_pinned_stages() {
    let engine = Engine::builder()
        .build()
        .expect("a cacheless engine builds infallibly");
    let mut actual = String::new();
    for spec in MACHINES {
        let last = builders::parse_spec(spec)
            .expect("a known machine spec")
            .num_nodes()
            - 1;
        actual += &render(&engine, spec, Collective::Allgather);
        for root in [0, 1, last] {
            for collective in [
                Collective::Broadcast { root },
                Collective::Gather { root },
                Collective::Scatter { root },
            ] {
                actual += &render(&engine, spec, collective);
            }
        }
    }
    let expected = include_str!("stage_rules.golden");
    for (line, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "line {} of stage_rules.golden", line + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "stage_rules.golden line count"
    );
}
