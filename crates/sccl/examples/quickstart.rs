//! Quickstart: build an [`Engine`], synthesize the Pareto frontier of
//! Allgather algorithms for a small ring through one request, lower a
//! frontier entry and generate code for it, and run the program on threads
//! with real data.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use sccl::prelude::*;
use sccl_runtime::oracle;

fn main() {
    // 1. Describe the hardware: a 4-node bidirectional ring with unit
    //    bandwidth per link per round.
    let topology = builders::ring(4, 1);
    println!("{topology}");

    // 2. One long-lived engine serves every request. Add .cache_dir("...")
    //    to persist frontiers across processes.
    let engine = Engine::builder().build().expect("engine");
    let response = engine
        .synthesize(
            SynthesisRequest::new(&topology, Collective::Allgather)
                .with_config(SynthesisConfig::default()),
        )
        .expect("synthesis should succeed on a connected ring");
    let report = &response.report;

    println!(
        "lower bounds: latency {} steps, bandwidth {} rounds/chunk ({})",
        report.latency_lower_bound,
        report.bandwidth_lower_bound,
        match response.provenance {
            Provenance::CacheHit => "from cache".to_string(),
            Provenance::Solved => format!("solved in {:.2?}", response.timings.solve),
        }
    );
    for entry in &report.entries {
        println!(
            "synthesized (C={}, S={}, R={}) [{}] in {:.2?}",
            entry.chunks,
            entry.steps,
            entry.rounds,
            entry.optimality.label(),
            entry.synthesis_time
        );
        println!("{}", entry.algorithm);
    }

    // 3. Lower the first (fewest-steps) entry — here the latency-optimal
    //    point, since the uncapped ring frontier reaches the latency bound —
    //    print generated code, and predict times under the NVLink (α, β)
    //    cost model.
    let algorithm = &report.entries.first().expect("nonempty frontier").algorithm;
    let options = LoweringOptions::default();
    let program = lower(algorithm, options);
    println!("{program}");
    println!("--- generated code (excerpt) ---");
    let code = generate_cuda(&program);
    for line in code.lines().take(25) {
        println!("{line}");
    }
    println!("... ({} lines total)", code.lines().count());
    let predict =
        |bytes| simulate_time(algorithm, &topology, bytes, &CostModel::nvlink(), &options);
    println!(
        "predicted: {:.2} µs at 1 KiB, {:.2} µs at 256 MiB",
        predict(1 << 10),
        predict(1 << 28)
    );

    // 4. Execute it on one thread per rank and check the result against a
    //    sequential oracle.
    let exec_config = ExecutionConfig {
        chunk_elems: 32,
        mode: ExecutionMode::Fused,
    };
    let inputs = oracle::allgather_inputs(4, algorithm.num_chunks, exec_config.chunk_elems, 42);
    let valid = oracle::scattered_valid(4, algorithm.num_chunks);
    let result = execute(&program, &inputs, &valid, exec_config);
    let expected =
        oracle::allgather_expected(&inputs, 4, algorithm.num_chunks, exec_config.chunk_elems);
    assert_eq!(result.buffers, expected);
    println!(
        "executed on {} threads in {:?} ({:?} mode): results match the oracle",
        4, result.elapsed, result.mode
    );
}
