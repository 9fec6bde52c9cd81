//! The metric vocabulary — every name `BENCHMARK.json` lists, with its unit
//! and direction — and the few statistics the ledger reports them with.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may worsen before
    /// it counts as a regression: three times the widest spread measured on
    /// any workload, at most the 0.25 `BENCHMARK.json` permits — which every
    /// inexact metric reaches on `serve-mixed` (README, "Measured spreads").
    pub bound: f64,
    /// The workloads ISSUE 11 defines the metric on; empty means all five.
    /// `BENCHMARK.json`'s harness wants every metric from every workload,
    /// so the others report a stand-in measured the same way (README, "What
    /// each metric reads where"), and the output says which rows those are.
    pub scope: &'static [&'static str],
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const SYNTHESIS: &[&str] = &["frontier-cold", "table4-probes", "hier-compose"];
const SERVING: &[&str] = &["serve-hot", "serve-mixed"];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        scope: &[],
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        scope: SYNTHESIS,
    },
    EndToEnd {
        name: "decided_share",
        unit: "ratio",
        better: Higher,
        bound: 0.001,
        scope: &[],
    },
    EndToEnd {
        name: "quality_gap",
        unit: "ratio",
        better: Lower,
        bound: 0.001,
        scope: &["frontier-cold", "hier-compose"],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        scope: &[],
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        scope: SERVING,
    },
    EndToEnd {
        name: "hit_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        scope: SERVING,
    },
    EndToEnd {
        name: "miss_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        scope: &["serve-mixed"],
    },
    EndToEnd {
        name: "daemon_cpu_us_per_req",
        unit: "us",
        better: Lower,
        bound: 0.25,
        scope: SERVING,
    },
];

impl EndToEnd {
    pub fn in_scope(&self, workload: &str) -> bool {
        self.scope.is_empty() || self.scope.contains(&workload)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // solver
    layer("solver.conflicts", "count", Lower),
    layer("solver.propagations", "count", Lower),
    layer("solver.conflicts_per_s", "1/s", Higher),
    layer("solver.props_per_s", "1/s", Higher),
    layer("solver.us_per_probe", "us", Lower),
    layer("solver.kernel_php_ms", "ms", Lower),
    layer("solver.kernel_assume_us", "us", Lower),
    // core
    layer("core.incremental.base_encode_ms", "ms", Lower),
    layer("core.incremental.candidate_ms", "ms", Lower),
    layer("core.incremental.vars", "count", Lower),
    layer("core.incremental.clauses", "count", Lower),
    layer("core.incremental.pb", "count", Lower),
    layer("core.pareto.candidates", "count", Lower),
    layer("core.pareto.solve_calls", "count", Lower),
    layer("core.pareto.canonical_probes", "count", Lower),
    layer("core.pareto.probes_per_candidate", "ratio", Lower),
    layer("core.pareto.useful_solve_share", "ratio", Higher),
    layer("core.pareto.memo_hits", "count", Higher),
    layer("core.pareto.core_skips", "count", Higher),
    layer("core.pareto.cold_fallbacks", "count", Lower),
    layer("core.encoding.encode_ms", "ms", Lower),
    layer("core.encoding.solve_ms", "ms", Lower),
    layer("core.encoding.vars", "count", Lower),
    layer("core.encoding.clauses", "count", Lower),
    layer("core.encoding.sat_ms", "ms", Lower),
    layer("core.encoding.unsat_ms", "ms", Lower),
    layer("core.encoding.undecided_ms", "ms", Lower),
    layer("core.bounds_ms", "ms", Lower),
    // sched
    layer("sched.engine.overhead_ms", "ms", Lower),
    layer("sched.cache.key_hash_us", "us", Lower),
    layer("sched.cache.lookup_us", "us", Lower),
    layer("sched.cache.store_us", "us", Lower),
    layer("sched.journal.append_us", "us", Lower),
    layer("sched.parallel.wall_ratio_2t", "ratio", Higher),
    // serve
    layer("serve.wire.request_parse_us", "us", Lower),
    layer("serve.wire.response_encode_us", "us", Lower),
    layer("serve.client.decode_us", "us", Lower),
    layer("serve.hot.lookup_ns", "ns", Lower),
    layer("serve.verify.report_us", "us", Lower),
    layer("serve.hot_hit_share", "ratio", Higher),
    layer("serve.disk_hit_share", "ratio", Lower),
    layer("serve.solved", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.queue.peak_depth", "count", Lower),
    layer("serve.queue_wait_us_p50", "us", Lower),
    layer("serve.reported_total_us_p50", "us", Lower),
    layer("serve.daemon.transport_us_p50", "us", Lower),
    layer("serve.disk_hit_p50_us", "us", Lower),
    layer("serve.rtt_p99_us", "us", Lower),
    layer("serve.journal_cost_us", "us", Lower),
    layer("serve.ratelimit_cost_us", "us", Lower),
    // hier
    layer("hier.partition_ms", "ms", Lower),
    layer("hier.stage_solve_ms", "ms", Lower),
    layer("hier.stitch_ms", "ms", Lower),
    layer("hier.verify_ms", "ms", Lower),
    layer("hier.stage_solves", "count", Lower),
    layer("hier.cache_hits", "count", Higher),
    layer("hier.composed_rounds", "count", Lower),
    layer("hier.total_sends", "count", Lower),
    layer("hier.flat_round_ratio", "ratio", Lower),
    // program, runtime, topology: the output side
    layer("program.lower_us", "us", Lower),
    layer("program.codegen_us", "us", Lower),
    layer("program.xml_us", "us", Lower),
    layer("program.ops", "count", Lower),
    layer("runtime.simulate_us", "us", Lower),
    layer("runtime.sim_speedup_1k", "ratio", Higher),
    layer("runtime.sim_speedup_64m", "ratio", Higher),
    layer("topology.build_ms", "ms", Lower),
    // every workload
    layer("trace.unattributed_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the vocabulary"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolation percentile (`q` in `0..=1`) of unsorted samples;
/// 0 for none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Geometric mean; 1 for none (the neutral quality gap).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    /// `BENCHMARK.json` at the repository root is the contract other tools
    /// read; the tables above are what the binary prints. They must agree.
    #[test]
    fn vocabulary_matches_benchmark_json() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let json: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let section = |key: &str| -> Vec<Vec<(String, serde_json::Value)>> {
            let serde_json::Value::Map(top) = &json else {
                panic!("BENCHMARK.json is an object")
            };
            let (_, serde_json::Value::Seq(items)) =
                top.iter().find(|(k, _)| k == key).expect("section present")
            else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|item| match item {
                    serde_json::Value::Map(fields) => fields.clone(),
                    _ => panic!("{key} holds objects"),
                })
                .collect()
        };
        let field = |fields: &[(String, serde_json::Value)], key: &str| -> String {
            match &fields
                .iter()
                .find(|(k, _)| k == key)
                .expect("field present")
                .1
            {
                serde_json::Value::Str(s) => s.clone(),
                serde_json::Value::F64(f) => f.to_string(),
                other => panic!("unexpected {other:?}"),
            }
        };
        let direction = |better: Better| match better {
            Lower => "lower",
            Higher => "higher",
        };

        let end_to_end = section("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, ours) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(listed, "name"), ours.name);
            assert_eq!(field(listed, "unit"), ours.unit);
            assert_eq!(field(listed, "better"), direction(ours.better));
            assert_eq!(field(listed, "bound"), ours.bound.to_string());
        }
        let per_layer = section("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (listed, ours) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(listed, "name"), ours.name);
            assert_eq!(field(listed, "unit"), ours.unit);
            assert_eq!(field(listed, "better"), direction(ours.better));
        }
        let workloads = section("workloads");
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
