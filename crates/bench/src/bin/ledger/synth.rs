//! The three synthesis workloads — `frontier-cold`, `table4-probes` and
//! `hier-compose` — and the layer-isolating replays of their traced runs.
//!
//! Each uses the solver a different way: warm assumption sweeps with
//! canonical-decode probes (`Engine::synthesize`), one fresh formula per
//! query with SAT and UNSAT side by side (`encoding::synthesize`), and
//! many-node single-chunk stage solves (`synthesize_hier`). All solver
//! budgets are conflict counts, so verdicts and counts repeat exactly.

use crate::checker;
use crate::gen::{ScheduleHash, SplitMix64};
use crate::golden::{self, Frontier, ProbeRow, RECORDED};
use crate::metrics::{geometric_mean, median, percentile, Values};
use crate::procfs;
use crate::trace::Recorder;
use crate::{Args, Outcome};
use sccl_baselines::{nccl_allgather_dgx1, nccl_allreduce_dgx1};
use sccl_collectives::Collective;
use sccl_core::bounds::{bandwidth_lower_bound, latency_lower_bound};
use sccl_core::encoding::{self, EncodingOptions, SynCollInstance, SynthesisOutcome};
use sccl_core::incremental::IncrementalEncoder;
use sccl_core::pareto::{base_problem, SynthesisConfig};
use sccl_core::{Algorithm, CostModel};
use sccl_hier::{GroupSpec, HierEngineExt, HierRequest, Partition, StageLevel};
use sccl_program::{generate_cuda, lower, to_msccl_xml, LoweringOptions};
use sccl_runtime::simulate_time;
use sccl_sched::{Engine, SolveMode, SynthesisRequest};
use sccl_solver::{Limits, Solver, SolverConfig};
use sccl_topology::{builders, Topology};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-instance budget of the sweeps and the stage solves.
const SWEEP_CONFLICTS: u64 = 2_000_000;
/// Per-probe budget of `table4-probes`: tight enough that the hard rows
/// stay undecided, so `decided_share` carries the headroom.
const PROBE_CONFLICTS: u64 = 20_000;
/// Budget of the solver replays in traced runs: they measure solver speed
/// on the workload's own formulas, not verdicts.
const REPLAY_CONFLICTS: u64 = 2_000;
/// Set-ups timed per batch.
const SETUP_REPEATS: usize = 9;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn conflicts(n: u64) -> SynthesisConfig {
    SynthesisConfig {
        per_instance_limits: Limits::conflicts(n),
        ..Default::default()
    }
}

fn topology(spec: &str) -> Topology {
    builders::parse_spec(spec).unwrap_or_else(|| panic!("ledger topology spec `{spec}` parses"))
}

// ---------------------------------------------------------------------
// What one operation produced
// ---------------------------------------------------------------------

/// The result of one front-door call, after the replay checker and the
/// golden comparison have seen it.
struct Op {
    latency: Duration,
    /// A complete, replay-verified answer within budget.
    decided: bool,
    /// The front door gave up on the request (a degraded answer). Running
    /// out of conflict budget is not a failure: the call did what it was
    /// asked and said so; it counts against `decided_share` only.
    failed: bool,
    /// What the traced run's replays work from.
    detail: Detail,
}

enum Detail {
    Frontier {
        /// Entries of the returned frontier with their `(C, S, R)`.
        entries: Vec<((usize, usize, u64), Algorithm)>,
        stats: sccl_core::incremental::IncrementalStats,
        /// Engine span minus the lookup, solve and store it reported.
        overhead: Duration,
    },
    Probe {
        verdict: &'static str,
        encode: Duration,
        solve: Duration,
        vars: usize,
        clauses: usize,
    },
    Composed {
        solve: Duration,
        stitch: Duration,
        verify: Duration,
        stage_solves: usize,
        cache_hits: usize,
        /// `(C, S, R)` of the composed schedule.
        point: (usize, usize, u64),
        sends: usize,
        /// `(topology, collective, C, S, R)` of each distinct stage solve.
        stages: Vec<(Topology, Collective, (usize, usize, u64))>,
    },
}

/// One problem list with its front door.
trait Workload {
    fn len(&self) -> usize;
    fn name(&self, index: usize) -> String;
    /// Run problem `index` through the front door, check its answer with
    /// the ledger's replay checker and against the golden file. `Err` is a
    /// wrong answer and stops the run.
    fn run(&self, index: usize, rec: &mut Recorder, notes: &mut Vec<String>) -> Result<Op, String>;
    /// The `quality_gap` factors of one pass: per problem, best `S ÷ a_l`
    /// and best `R/C ÷ b_l` against the golden bounds.
    fn quality(&self, ops: &[Op]) -> Vec<f64>;
    /// Layer-isolating replays of the traced run.
    fn replays(&self, args: &Args, traced: &[Op], rec: &mut Recorder, values: &mut Values);
}

// ---------------------------------------------------------------------
// frontier-cold
// ---------------------------------------------------------------------

struct ColdProblem {
    id: &'static str,
    topology: Topology,
    collective: Collective,
    config: SynthesisConfig,
    golden: Frontier,
}

struct FrontierCold {
    problems: Vec<ColdProblem>,
    topology_build: Duration,
}

impl FrontierCold {
    fn set_up() -> Self {
        let golden = golden::frontiers();
        let caps = |k, max_steps, max_chunks| SynthesisConfig {
            k,
            max_steps,
            max_chunks,
            ..conflicts(SWEEP_CONFLICTS)
        };
        let bc = Collective::Broadcast { root: 0 };
        let list: [(&'static str, &str, Collective, SynthesisConfig); 8] = [
            (
                "cold/dgx1/allgather/k0",
                "dgx1",
                Collective::Allgather,
                caps(0, 5, 8),
            ),
            (
                "cold/dgx1/allgather/k2",
                "dgx1",
                Collective::Allgather,
                caps(2, 3, 8),
            ),
            (
                "cold/dgx1/allreduce/k1",
                "dgx1",
                Collective::Allreduce,
                caps(1, 4, 6),
            ),
            ("cold/dgx1/broadcast/k0", "dgx1", bc, caps(0, 8, 8)),
            (
                "cold/dgx1/alltoall/k0",
                "dgx1",
                Collective::Alltoall,
                caps(0, 8, 8),
            ),
            (
                "cold/amd/allreduce/k0",
                "amd",
                Collective::Allreduce,
                caps(0, 8, 8),
            ),
            (
                "cold/hypercube:3/allgather/k0",
                "hypercube:3",
                Collective::Allgather,
                caps(0, 8, 8),
            ),
            (
                "cold/ring:8/allgather/k1",
                "ring:8",
                Collective::Allgather,
                caps(1, 8, 6),
            ),
        ];
        let build_start = Instant::now();
        let topologies: Vec<Topology> = list.iter().map(|(_, spec, _, _)| topology(spec)).collect();
        let topology_build = build_start.elapsed();
        let problems = list
            .into_iter()
            .zip(topologies)
            .map(|((id, _, collective, config), topology)| ColdProblem {
                id,
                topology,
                collective,
                config,
                golden: golden.get(id).clone(),
            })
            .collect();
        FrontierCold {
            problems,
            topology_build,
        }
    }
}

impl Workload for FrontierCold {
    fn len(&self) -> usize {
        self.problems.len()
    }

    fn name(&self, index: usize) -> String {
        self.problems[index].id.to_string()
    }

    fn run(&self, index: usize, rec: &mut Recorder, notes: &mut Vec<String>) -> Result<Op, String> {
        let problem = &self.problems[index];
        let request = index as u64;
        let start = Instant::now();
        let (response, overhead) = rec.op(problem.id, request, |rec| {
            // A fresh engine without a cache: nothing is warm, nothing is
            // stored, every pass pays the full sweep.
            let engine = Engine::builder()
                .sequential()
                .build()
                .map_err(|e| format!("{}: engine: {e}", problem.id))?;
            let call = Instant::now();
            let response = engine
                .synthesize(
                    SynthesisRequest::new(&problem.topology, problem.collective)
                        .with_config(problem.config.clone())
                        .sequential(),
                )
                .map_err(|e| format!("{}: {e}", problem.id))?;
            let span = call.elapsed();
            let t = &response.timings;
            let cold = response
                .incremental
                .map_or(Duration::ZERO, |s| s.cold_solve_time);
            rec.reported("sched.cache.lookup", request, t.lookup);
            rec.reported("core.incremental.encode", request, t.encode);
            rec.reported("solver.warm_solve", request, t.solve_incremental);
            rec.reported("solver.cold_solve", request, cold);
            rec.reported("sched.cache.store", request, t.store);
            let overhead = span.saturating_sub(t.lookup + t.solve + t.store);
            Ok::<_, String>((response, overhead))
        })?;
        let latency = start.elapsed();

        let report = &response.report;
        for entry in &report.entries {
            let a = &entry.algorithm;
            if (entry.steps, entry.rounds) != (a.num_steps(), a.total_rounds()) {
                return Err(format!(
                    "{}: entry claims S/R its schedule lacks",
                    problem.id
                ));
            }
            checker::check(&problem.topology, problem.collective, a).map_err(|e| {
                format!(
                    "{}: replay checker rejects entry ({},{},{}): {e}",
                    problem.id, entry.chunks, entry.steps, entry.rounds
                )
            })?;
        }
        let entries: Vec<_> = report
            .entries
            .iter()
            .map(|e| ((e.chunks, e.steps, e.rounds), e.algorithm.clone()))
            .collect();
        let decided = !response.degraded && !report.budget_exhausted && !entries.is_empty();
        if decided {
            let points: Vec<_> = entries.iter().map(|(p, _)| *p).collect();
            notes.extend(problem.golden.compare_ends(&points)?);
        }
        Ok(Op {
            latency,
            decided,
            failed: response.degraded,
            detail: Detail::Frontier {
                entries,
                stats: response.incremental.unwrap_or_default(),
                overhead,
            },
        })
    }

    fn quality(&self, ops: &[Op]) -> Vec<f64> {
        let mut factors = Vec::new();
        for (problem, op) in self.problems.iter().zip(ops) {
            let Detail::Frontier { entries, .. } = &op.detail else {
                continue;
            };
            let points: Vec<_> = entries.iter().map(|(p, _)| *p).collect();
            if let Some((latency, bandwidth)) = problem.golden.gaps(&points) {
                factors.extend([latency, bandwidth]);
            }
        }
        factors
    }

    fn replays(&self, args: &Args, traced: &[Op], rec: &mut Recorder, values: &mut Values) {
        let mut stats = sccl_core::incremental::IncrementalStats::default();
        let mut overhead = Duration::ZERO;
        let mut frontier_entries = 0usize;
        let mut solver = SolverReplay::default();
        let (mut lower_t, mut cuda_t, mut xml_t, mut sim_t) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        let mut program_ops = 0usize;
        let mut bounds_t = Duration::ZERO;
        let nvlink = CostModel::nvlink();
        let options = LoweringOptions::default();
        // Best simulated time per (collective, size) over the synthesized
        // DGX-1 entries, for the Figure 4–5 speedups.
        let mut best: [[f64; 2]; 2] = [[f64::INFINITY; 2]; 2];
        const SIZES: [u64; 2] = [1 << 10, 64 << 20];

        for (problem, op) in self.problems.iter().zip(traced) {
            let Detail::Frontier {
                entries,
                stats: s,
                overhead: o,
            } = &op.detail
            else {
                continue;
            };
            stats.absorb(s);
            overhead += *o;
            frontier_entries += entries.len();

            let base = base_problem(&problem.topology, problem.collective);
            let p = problem.topology.num_nodes();
            let chunk_ref = if base.collective == Collective::Alltoall {
                p
            } else {
                1
            };
            let spec = base.collective.spec(p, chunk_ref);
            bounds_t += rec
                .layer("core.bounds", || {
                    black_box(latency_lower_bound(&base.topology, &spec));
                    black_box(bandwidth_lower_bound(&base.topology, &spec, chunk_ref));
                })
                .1;

            for ((c, s, r), algorithm) in entries {
                // Allreduce entries report the composed schedule; the
                // formula behind them is the Allgather at (C/P, S/2, R/2).
                let candidate = match problem.collective {
                    Collective::Allreduce => (c / p, s / 2, r / 2),
                    _ => (*c, *s, *r),
                };
                solver.replay(&base.topology, base.collective, candidate, rec);

                let (program, took) = rec.layer("program.lower", || lower(algorithm, options));
                lower_t += took;
                program_ops += program
                    .ranks
                    .iter()
                    .map(|rank| rank.num_ops())
                    .sum::<usize>();
                cuda_t += rec
                    .layer("program.codegen", || black_box(generate_cuda(&program)))
                    .1;
                xml_t += rec
                    .layer("program.xml", || black_box(to_msccl_xml(&program)))
                    .1;
                let (simulated, took) = rec.layer("runtime.simulate", || {
                    SIZES.map(|bytes| {
                        simulate_time(algorithm, &problem.topology, bytes, &nvlink, &options)
                    })
                });
                sim_t += took;
                let row = match (problem.topology.name(), problem.collective) {
                    ("dgx1", Collective::Allgather) => 0,
                    ("dgx1", Collective::Allreduce) => 1,
                    _ => continue,
                };
                for (slot, time) in best[row].iter_mut().zip(simulated) {
                    *slot = slot.min(time);
                }
            }
        }

        solver.report(values);
        let n = frontier_entries.max(1) as f64;
        values.set(
            "solver.us_per_probe",
            us(stats.warm_solve_time) / stats.solve_calls.max(1) as f64,
        );
        values.set("core.pareto.candidates", stats.warm_candidates as f64);
        values.set("core.pareto.solve_calls", stats.solve_calls as f64);
        values.set(
            "core.pareto.canonical_probes",
            stats.canonical_probes as f64,
        );
        values.set(
            "core.pareto.probes_per_candidate",
            stats.canonical_probes as f64 / stats.warm_candidates.max(1) as f64,
        );
        values.set(
            "core.pareto.useful_solve_share",
            frontier_entries as f64 / stats.solve_calls.max(1) as f64,
        );
        values.set("core.pareto.memo_hits", stats.memo_hits as f64);
        values.set("core.pareto.core_skips", stats.core_skips as f64);
        values.set("core.pareto.cold_fallbacks", stats.cold_fallbacks as f64);
        values.set("core.bounds_ms", ms(bounds_t));
        values.set("sched.engine.overhead_ms", ms(overhead));
        values.set("program.lower_us", us(lower_t) / n);
        values.set("program.codegen_us", us(cuda_t) / n);
        values.set("program.xml_us", us(xml_t) / n);
        values.set("program.ops", program_ops as f64);
        values.set("runtime.simulate_us", us(sim_t) / n);
        values.set("topology.build_ms", ms(self.topology_build));

        // Figures 4–5 as two numbers. The (α, β) link simulator stands in
        // for the GPUs: these are predicted, not measured, speedups.
        let dgx1 = builders::dgx1();
        let baselines = [nccl_allgather_dgx1(), nccl_allreduce_dgx1()];
        for (i, name) in ["runtime.sim_speedup_1k", "runtime.sim_speedup_64m"]
            .into_iter()
            .enumerate()
        {
            let ratios: Vec<f64> = baselines
                .iter()
                .zip(&best)
                .filter(|(_, best)| best[i].is_finite())
                .map(|(nccl, best)| {
                    simulate_time(nccl, &dgx1, SIZES[i], &nvlink, &options) / best[i]
                })
                .collect();
            values.set(name, geometric_mean(&ratios));
        }

        values.set("solver.kernel_php_ms", ms(kernel_pigeonhole(args.seed)));
        values.set("solver.kernel_assume_us", us(kernel_assumptions(args.seed)));
        values.set(
            "sched.parallel.wall_ratio_2t",
            parallel_ratio(&self.problems[0]),
        );
    }
}

/// Sequential wall ÷ parallel wall (2 threads) of one cold sweep.
fn parallel_ratio(problem: &ColdProblem) -> f64 {
    let sweep = |mode: SolveMode| {
        let engine = Engine::builder()
            .threads(2)
            .mode(mode)
            .build()
            .expect("a 2-thread engine builds");
        let start = Instant::now();
        let request = SynthesisRequest::new(&problem.topology, problem.collective)
            .with_config(problem.config.clone())
            .with_mode(mode);
        black_box(
            engine
                .synthesize(request)
                .expect("the sweep ran in the traced pass"),
        );
        start.elapsed()
    };
    sweep(SolveMode::Sequential).as_secs_f64() / sweep(SolveMode::Parallel).as_secs_f64()
}

// ---------------------------------------------------------------------
// Solver replays and kernels
// ---------------------------------------------------------------------

/// Accumulates `IncrementalEncoder` replays of single `(C, S, R)`
/// candidates: the warm encoder's base layer, one candidate solve under
/// [`REPLAY_CONFLICTS`], and the solver-counter deltas around it.
#[derive(Default)]
struct SolverReplay {
    replays: usize,
    base_encode: Duration,
    candidate: Duration,
    solve: Duration,
    conflicts: u64,
    propagations: u64,
    vars: usize,
    clauses: usize,
    pb: usize,
}

impl SolverReplay {
    fn replay(
        &mut self,
        topology: &Topology,
        collective: Collective,
        (c, s, r): (usize, usize, u64),
        rec: &mut Recorder,
    ) {
        let spec = collective.spec(topology.num_nodes(), c);
        let extra = r - s as u64;
        let (mut encoder, took) = rec.layer("core.incremental.base_encode", || {
            IncrementalEncoder::new(
                topology,
                spec,
                c,
                s,
                extra,
                &EncodingOptions::default(),
                SolverConfig::default(),
            )
        });
        self.base_encode += took;
        let before = encoder.solver_stats().clone();
        let (run, took) = rec.layer("core.incremental.candidate", || {
            encoder.solve_candidate(s, r, Limits::conflicts(REPLAY_CONFLICTS))
        });
        self.candidate += took;
        self.solve += run.solve_time;
        let after = encoder.solver_stats();
        self.conflicts += after.conflicts - before.conflicts;
        self.propagations += after.propagations - before.propagations;
        let size = encoder.encoding_stats();
        self.vars += size.num_vars;
        self.clauses += size.num_clauses;
        self.pb += size.num_pb_constraints;
        self.replays += 1;
    }

    fn report(&self, values: &mut Values) {
        let solve_s = self.solve.as_secs_f64().max(1e-9);
        values.set("solver.conflicts", self.conflicts as f64);
        values.set("solver.propagations", self.propagations as f64);
        values.set("solver.conflicts_per_s", self.conflicts as f64 / solve_s);
        values.set("solver.props_per_s", self.propagations as f64 / solve_s);
        values.set("core.incremental.base_encode_ms", ms(self.base_encode));
        values.set("core.incremental.candidate_ms", ms(self.candidate));
        values.set("core.incremental.vars", self.vars as f64);
        values.set("core.incremental.clauses", self.clauses as f64);
        values.set("core.incremental.pb", self.pb as f64);
    }
}

/// Refute "8 pigeons in 7 holes" with the at-most-one-per-hole side stated
/// as pseudo-Boolean constraints, clause order shuffled by the seed. Built
/// through the public `Solver` API only: the SAT core without any encoder.
fn kernel_pigeonhole(seed: u64) -> Duration {
    const HOLES: usize = 7;
    let mut rng = SplitMix64::new(seed ^ 0x0070_6870);
    let start = Instant::now();
    let mut solver = Solver::new();
    let x: Vec<Vec<_>> = (0..=HOLES)
        .map(|_| (0..HOLES).map(|_| solver.new_var().positive()).collect())
        .collect();
    let mut pigeons: Vec<usize> = (0..=HOLES).collect();
    rng.shuffle(&mut pigeons);
    for p in pigeons {
        solver.add_clause(&x[p]);
    }
    let mut holes: Vec<usize> = (0..HOLES).collect();
    rng.shuffle(&mut holes);
    for h in holes {
        let terms: Vec<_> = x.iter().map(|row| (1u64, row[h])).collect();
        solver.add_pb_le(&terms, 1);
    }
    let result = solver.solve();
    assert!(result.is_unsat(), "the pigeonhole principle holds");
    start.elapsed()
}

/// 1 000 three-literal assumption probes against one satisfiable random
/// 3-SAT formula (200 variables, clause ratio 3.0); time per probe.
fn kernel_assumptions(seed: u64) -> Duration {
    const VARS: usize = 200;
    const PROBES: u32 = 1_000;
    let mut rng = SplitMix64::new(seed ^ 0x6173_736d);
    let mut solver = Solver::new();
    let vars = solver.new_vars(VARS);
    let literal = |rng: &mut SplitMix64| {
        let var = vars[rng.below(VARS)];
        if rng.next_u64() & 1 == 0 {
            var.positive()
        } else {
            var.negative()
        }
    };
    // Planted solution (all true): every clause keeps a positive literal.
    for _ in 0..VARS * 3 {
        let mut clause = [literal(&mut rng), literal(&mut rng), literal(&mut rng)];
        clause[0] = vars[rng.below(VARS)].positive();
        solver.add_clause(&clause);
    }
    let probes: Vec<[_; 3]> = (0..PROBES)
        .map(|_| [literal(&mut rng), literal(&mut rng), literal(&mut rng)])
        .collect();
    let start = Instant::now();
    for probe in &probes {
        black_box(solver.solve_under_assumptions(probe, Limits::conflicts(10_000)));
    }
    start.elapsed() / PROBES
}

// ---------------------------------------------------------------------
// table4-probes
// ---------------------------------------------------------------------

struct Table4Probes {
    dgx1: Topology,
    rows: Vec<ProbeRow>,
    /// The paper's `a_l` and `b_l` per probed collective.
    bounds: Vec<Frontier>,
}

impl Table4Probes {
    fn set_up() -> Self {
        let frontiers = golden::frontiers();
        Table4Probes {
            dgx1: builders::dgx1(),
            rows: golden::table4().rows,
            bounds: ["allgather", "broadcast", "gather", "alltoall"]
                .iter()
                .map(|c| frontiers.get(&format!("table4/dgx1/{c}")).clone())
                .collect(),
        }
    }

    fn collective(row: &ProbeRow) -> Collective {
        Collective::parse_spec(&row.collective, 0)
            .unwrap_or_else(|| panic!("golden collective `{}` parses", row.collective))
    }
}

impl Workload for Table4Probes {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn name(&self, index: usize) -> String {
        let row = &self.rows[index];
        format!("table4/{}/({},{},{})", row.collective, row.c, row.s, row.r)
    }

    fn run(&self, index: usize, rec: &mut Recorder, notes: &mut Vec<String>) -> Result<Op, String> {
        let row = &self.rows[index];
        let name = self.name(index);
        let collective = Self::collective(row);
        let request = index as u64;
        let start = Instant::now();
        let run = rec.op(&name, request, |rec| {
            let instance = SynCollInstance {
                spec: collective.spec(self.dgx1.num_nodes(), row.c),
                per_node_chunks: row.c,
                num_steps: row.s,
                num_rounds: row.r,
            };
            let run = encoding::synthesize(
                &self.dgx1,
                &instance,
                &EncodingOptions::default(),
                SolverConfig::default(),
                Limits::conflicts(PROBE_CONFLICTS),
            );
            rec.reported("core.encoding.encode", request, run.encode_time);
            rec.reported("solver.solve", request, run.solve_time);
            run
        });
        let latency = start.elapsed();

        let verdict = match &run.outcome {
            SynthesisOutcome::Satisfiable(algorithm) => {
                if (
                    algorithm.per_node_chunks,
                    algorithm.num_steps(),
                    algorithm.total_rounds(),
                ) != (row.c, row.s, row.r)
                {
                    return Err(format!("{name}: schedule is not the (C,S,R) asked for"));
                }
                checker::check(&self.dgx1, collective, algorithm)
                    .map_err(|e| format!("{name}: replay checker rejects the schedule: {e}"))?;
                "sat"
            }
            SynthesisOutcome::Unsatisfiable => "unsat",
            SynthesisOutcome::Unknown => "undecided",
        };
        if verdict != "undecided" && verdict != row.verdict {
            let message = format!(
                "{name}: verdict {verdict}, golden says {} ({})",
                row.verdict, row.source
            );
            if row.source == RECORDED {
                notes.push(message);
            } else {
                return Err(message);
            }
        }
        Ok(Op {
            latency,
            decided: verdict != "undecided",
            failed: false,
            detail: Detail::Probe {
                verdict,
                encode: run.encode_time,
                solve: run.solve_time,
                vars: run.encoding.num_vars,
                clauses: run.encoding.num_clauses,
            },
        })
    }

    /// Per collective, how close the rows decided satisfiable get to the
    /// paper's `a_l` and `b_l`: the undecided bandwidth-optimal rows show
    /// here as well as in `decided_share`.
    fn quality(&self, ops: &[Op]) -> Vec<f64> {
        let mut factors = Vec::new();
        for golden in &self.bounds {
            let collective = golden.id.rsplit('/').next().expect("an id has segments");
            let points: Vec<_> = self
                .rows
                .iter()
                .zip(ops)
                .filter(|(row, op)| {
                    row.collective == collective
                        && matches!(op.detail, Detail::Probe { verdict: "sat", .. })
                })
                .map(|(row, _)| (row.c, row.s, row.r))
                .collect();
            if let Some((latency, bandwidth)) = golden.gaps(&points) {
                factors.extend([latency, bandwidth]);
            }
        }
        factors
    }

    fn replays(&self, args: &Args, traced: &[Op], rec: &mut Recorder, values: &mut Values) {
        let (mut encode, mut solve) = (Duration::ZERO, Duration::ZERO);
        let (mut vars, mut clauses) = (0usize, 0usize);
        let mut by_verdict = [Duration::ZERO; 3];
        for op in traced {
            let Detail::Probe {
                verdict,
                encode: e,
                solve: s,
                vars: v,
                clauses: c,
            } = &op.detail
            else {
                continue;
            };
            encode += *e;
            solve += *s;
            vars += v;
            clauses += c;
            let class = ["sat", "unsat", "undecided"]
                .iter()
                .position(|k| k == verdict);
            by_verdict[class.expect("a known verdict")] += *e + *s;
        }
        values.set("core.encoding.encode_ms", ms(encode));
        values.set("core.encoding.solve_ms", ms(solve));
        values.set("core.encoding.vars", vars as f64);
        values.set("core.encoding.clauses", clauses as f64);
        values.set("core.encoding.sat_ms", ms(by_verdict[0]));
        values.set("core.encoding.unsat_ms", ms(by_verdict[1]));
        values.set("core.encoding.undecided_ms", ms(by_verdict[2]));

        let mut solver = SolverReplay::default();
        for row in &self.rows {
            if (row.r as usize) >= row.s {
                solver.replay(
                    &self.dgx1,
                    Self::collective(row),
                    (row.c, row.s, row.r),
                    rec,
                );
            }
        }
        solver.report(values);
        values.set(
            "solver.us_per_probe",
            us(solver.solve) / solver.replays.max(1) as f64,
        );
        values.set("solver.kernel_php_ms", ms(kernel_pigeonhole(args.seed)));
        values.set("solver.kernel_assume_us", us(kernel_assumptions(args.seed)));
    }
}

// ---------------------------------------------------------------------
// hier-compose
// ---------------------------------------------------------------------

struct HierProblem {
    id: String,
    topology: Topology,
    collective: Collective,
    golden: Frontier,
}

struct HierCompose {
    problems: Vec<HierProblem>,
}

impl HierCompose {
    fn set_up() -> Self {
        let golden = golden::frontiers();
        let list: [(&str, Collective); 9] = [
            ("rings:8x8", Collective::Allgather),
            ("dgx-rack:8", Collective::Allgather),
            ("rings:12x12", Collective::Allgather),
            ("dgx-rack:16", Collective::Allgather),
            ("rings:16x16", Collective::Allgather),
            ("rings:12x12", Collective::Broadcast { root: 0 }),
            ("dgx-rack:16", Collective::Broadcast { root: 0 }),
            ("rings:8x8", Collective::Gather { root: 0 }),
            ("rings:8x8", Collective::Scatter { root: 0 }),
        ];
        let problems = list
            .into_iter()
            .map(|(spec, collective)| {
                let id = format!("hier/{spec}/{}", collective.spec_name());
                HierProblem {
                    golden: golden.get(&id).clone(),
                    id,
                    topology: topology(spec),
                    collective,
                }
            })
            .collect();
        HierCompose { problems }
    }
}

impl Workload for HierCompose {
    fn len(&self) -> usize {
        self.problems.len()
    }

    fn name(&self, index: usize) -> String {
        self.problems[index].id.clone()
    }

    fn run(&self, index: usize, rec: &mut Recorder, notes: &mut Vec<String>) -> Result<Op, String> {
        let problem = &self.problems[index];
        let request = index as u64;
        let start = Instant::now();
        let response = rec.op(&problem.id, request, |rec| {
            let engine = Engine::builder()
                .sequential()
                .build()
                .map_err(|e| format!("{}: engine: {e}", problem.id))?;
            let response = engine
                .synthesize_hier(
                    HierRequest::new(&problem.topology, problem.collective)
                        .with_config(conflicts(SWEEP_CONFLICTS))
                        .with_mode(SolveMode::Sequential),
                )
                .map_err(|e| format!("{}: {e}", problem.id))?;
            let t = &response.timings;
            rec.reported("hier.partition", request, t.partition);
            rec.reported("hier.stage_solve", request, t.solve);
            rec.reported("hier.stitch", request, t.stitch);
            rec.reported("hier.verify", request, t.verify);
            Ok::<_, String>(response)
        })?;
        let latency = start.elapsed();

        let composed = &response.algorithm.composed;
        checker::check(&problem.topology, problem.collective, composed).map_err(|e| {
            format!(
                "{}: replay checker rejects the composition: {e}",
                problem.id
            )
        })?;
        let point = (
            composed.per_node_chunks,
            composed.num_steps(),
            composed.total_rounds(),
        );
        notes.extend(problem.golden.compare_ends(&[point])?);

        // One replayable stage problem per distinct stage solve.
        let partition = Partition::new(&problem.topology, &GroupSpec::Auto)
            .map_err(|e| format!("{}: partition: {e}", problem.id))?;
        let stages = response
            .algorithm
            .stages
            .iter()
            .map(|stage| {
                let topology = match stage.level {
                    StageLevel::Intra => partition.groups[0].topology.clone(),
                    StageLevel::Leaders => partition.leader_topology.clone(),
                };
                let cost = stage.stage_cost;
                (
                    topology,
                    stage.collective,
                    (cost.chunks as usize, cost.steps as usize, cost.rounds),
                )
            })
            .collect();
        Ok(Op {
            latency,
            decided: !response.degraded,
            failed: response.degraded,
            detail: Detail::Composed {
                solve: response.timings.solve,
                stitch: response.timings.stitch,
                verify: response.timings.verify,
                stage_solves: response.stats.stage_solves,
                cache_hits: response.stats.cache_hits,
                point,
                sends: composed.sends.len(),
                stages,
            },
        })
    }

    fn quality(&self, ops: &[Op]) -> Vec<f64> {
        let mut factors = Vec::new();
        for (problem, op) in self.problems.iter().zip(ops) {
            let Detail::Composed { point, .. } = &op.detail else {
                continue;
            };
            if let Some((latency, bandwidth)) = problem.golden.gaps(&[*point]) {
                factors.extend([latency, bandwidth]);
            }
        }
        factors
    }

    fn replays(&self, _args: &Args, traced: &[Op], rec: &mut Recorder, values: &mut Values) {
        let mut totals = [Duration::ZERO; 3];
        let (mut stage_solves, mut cache_hits, mut rounds, mut sends) =
            (0usize, 0usize, 0u64, 0usize);
        let mut solver = SolverReplay::default();
        let mut partition_t = Duration::ZERO;
        for (problem, op) in self.problems.iter().zip(traced) {
            let Detail::Composed {
                solve,
                stitch,
                verify,
                stage_solves: n,
                cache_hits: h,
                point,
                sends: s,
                stages,
                ..
            } = &op.detail
            else {
                continue;
            };
            for (total, part) in totals.iter_mut().zip([solve, stitch, verify]) {
                *total += *part;
            }
            stage_solves += n;
            cache_hits += h;
            rounds += point.2;
            sends += s;
            let (partition, took) = rec.layer("hier.partition", || {
                Partition::new(&problem.topology, &GroupSpec::Auto)
            });
            black_box(partition).expect("the partition succeeded in the traced pass");
            partition_t += took;
            for (topology, collective, candidate) in stages {
                solver.replay(topology, *collective, *candidate, rec);
            }
        }
        solver.report(values);
        values.set(
            "solver.us_per_probe",
            us(solver.solve) / solver.replays.max(1) as f64,
        );
        values.set("hier.partition_ms", ms(partition_t));
        values.set("hier.stage_solve_ms", ms(totals[0]));
        values.set("hier.stitch_ms", ms(totals[1]));
        values.set("hier.verify_ms", ms(totals[2]));
        values.set("hier.stage_solves", stage_solves as f64);
        values.set("hier.cache_hits", cache_hits as f64);
        values.set("hier.composed_rounds", rounds as f64);
        values.set("hier.total_sends", sends as f64);
        values.set("hier.flat_round_ratio", flat_round_ratio());
    }
}

/// Composed rounds ÷ flat-optimal rounds for Allgather on `rings:2x4` at
/// one chunk per node — the one machine small enough to solve both ways.
fn flat_round_ratio() -> f64 {
    let machine = topology("rings:2x4");
    let engine = Engine::builder()
        .sequential()
        .build()
        .expect("engine builds");
    let config = SynthesisConfig {
        max_chunks: 1,
        ..conflicts(SWEEP_CONFLICTS)
    };
    let flat = engine
        .synthesize(
            SynthesisRequest::new(&machine, Collective::Allgather).with_config(config.clone()),
        )
        .expect("flat rings:2x4 synthesizes");
    let flat_rounds = flat
        .report
        .entries
        .iter()
        .map(|e| e.rounds)
        .min()
        .expect("a flat frontier");
    let hier = engine
        .synthesize_hier(HierRequest::new(&machine, Collective::Allgather).with_config(config))
        .expect("rings:2x4 composes");
    hier.algorithm.composed.total_rounds() as f64 / flat_rounds as f64
}

// ---------------------------------------------------------------------
// The shared pass loop
// ---------------------------------------------------------------------

/// One pass over the problem list in `order`; `Err` is a wrong answer.
fn pass(
    workload: &dyn Workload,
    order: &[usize],
    rec: &mut Recorder,
    notes: &mut Vec<String>,
) -> Result<Vec<Op>, String> {
    let mut ops: Vec<Option<Op>> = (0..workload.len()).map(|_| None).collect();
    for &index in order {
        ops[index] = Some(workload.run(index, rec, notes)?);
    }
    Ok(ops
        .into_iter()
        .map(|op| op.expect("every problem ran"))
        .collect())
}

pub fn run(name: &str, args: &Args) -> Result<Outcome, String> {
    // Set-up is cheap here (golden files, topologies, the problem list), so
    // it is timed many times over and the median reported: a batch now and
    // one after every pass.
    let mut setups = Vec::new();
    let set_up_batch = |setups: &mut Vec<f64>| {
        let mut workload = None;
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            workload = Some(match name {
                "frontier-cold" => Box::new(FrontierCold::set_up()) as Box<dyn Workload>,
                "table4-probes" => Box::new(Table4Probes::set_up()),
                "hier-compose" => Box::new(HierCompose::set_up()),
                other => unreachable!("{other} is not a synthesis workload"),
            });
            setups.push(start.elapsed().as_secs_f64());
        }
        workload.expect("SETUP_REPEATS is positive")
    };
    let workload = set_up_batch(&mut setups);
    let n = workload.len();

    // The seed decides the order problems run in, pass by pass.
    let mut rng = SplitMix64::new(args.seed);
    let mut hash = ScheduleHash::new();
    let mut next_order = |hash: &mut ScheduleHash| {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for &index in &order {
            hash.feed(workload.name(index).as_bytes());
        }
        order
    };

    let mut outcome = Outcome::default();
    let mut off = Recorder::new(false);

    if args.trace {
        let order = next_order(&mut hash);
        let start = Instant::now();
        let untraced = pass(workload.as_ref(), &order, &mut off, &mut outcome.notes)?;
        let untraced_wall = start.elapsed();
        let mut rec = Recorder::new(true);
        let start = Instant::now();
        let traced = pass(workload.as_ref(), &order, &mut rec, &mut Vec::new())?;
        let traced_wall = start.elapsed();
        outcome
            .values
            .set("trace.unattributed_share", rec.unattributed_share());
        outcome.values.set(
            "trace.overhead_share",
            traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
        );
        workload.replays(args, &traced, &mut rec, &mut outcome.values);
        let path = args.out_dir.join(format!("{name}.trace.json"));
        rec.write(&path, name, args.seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome
            .notes
            .push(format!("trace written to {}", path.display()));
        outcome.attempted = 2 * n as u64;
        outcome.failed = untraced
            .iter()
            .chain(&traced)
            .filter(|op| op.failed)
            .count() as u64;
        outcome.schedule_hash = hash.finish();
        return Ok(outcome);
    }

    // A fixed number of passes: how many depends on the arguments alone, so
    // the same seed and `--seconds` always generate the same orders.
    let passes = passes(name, args.seconds);
    let timed = Instant::now();
    let cpu_before = procfs::cpu_micros(None).ok_or("cannot read /proc/self/stat")?;
    let mut pass_walls = Vec::with_capacity(passes);
    let mut per_problem: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut last: Vec<Op> = Vec::new();
    let (mut decided, mut failed) = (0u64, 0u64);
    let mut checked = Duration::ZERO;
    for _ in 0..passes {
        let order = next_order(&mut hash);
        let start = Instant::now();
        last = pass(workload.as_ref(), &order, &mut off, &mut outcome.notes)?;
        checked += start.elapsed();
        decided += last.iter().filter(|op| op.decided).count() as u64;
        failed += last.iter().filter(|op| op.failed).count() as u64;
        pass_walls.push(last.iter().map(|op| op.latency.as_secs_f64()).sum());
        for (samples, op) in per_problem.iter_mut().zip(&last) {
            samples.push(op.latency.as_secs_f64());
        }
        set_up_batch(&mut setups);
    }
    let cpu = procfs::cpu_micros(None).ok_or("cannot read /proc/self/stat")? - cpu_before;
    let attempted = (passes * n) as u64;
    let latencies: Vec<f64> = per_problem.iter().map(|s| median(s)).collect();

    let gaps = workload.quality(&last);
    let v = &mut outcome.values;
    v.set("setup_s", median(&setups));
    // A pass costs the sum of its front-door calls; the ledger's own
    // checking of the answers is not in it.
    v.set("wall_s", median(&pass_walls));
    v.set("decided_share", decided as f64 / attempted as f64);
    v.set("quality_gap", geometric_mean(&gaps));
    v.set(
        "peak_rss_mb",
        procfs::peak_rss_mb(None).ok_or("cannot read VmHWM")?,
    );
    // The serving metrics have no tiers or daemon to read here. Their
    // stand-ins are measured on their own, none computed from another:
    // operations per second of the passes with the ledger's checking in,
    // the quick and the slow quartile of the problems' latencies, and the
    // CPU time of this process — the one doing the work — per operation
    // (README, "What each metric reads where").
    v.set("req_per_s", attempted as f64 / checked.as_secs_f64());
    v.set("hit_p50_us", percentile(&latencies, 0.25) * 1e6);
    v.set("miss_p50_ms", percentile(&latencies, 0.75) * 1e3);
    v.set("daemon_cpu_us_per_req", cpu as f64 / attempted as f64);
    outcome.attempted = attempted;
    outcome.failed = failed;
    outcome.schedule_hash = hash.finish();
    outcome.notes.push(format!(
        "{passes} passes of {n} operations in {:.1} s; {} operations not decided within budget",
        timed.elapsed().as_secs_f64(),
        attempted - decided
    ));
    Ok(outcome)
}

/// Passes over the fixed list in one untraced run: ISSUE 11's 4, 2 and 4 at
/// the `run_seconds` of `BENCHMARK.json`, in proportion for any other
/// `--seconds`. Passes shrink, never the problem lists.
fn passes(name: &str, seconds: f64) -> usize {
    let at_default = if name == "table4-probes" { 2.0 } else { 4.0 };
    ((at_default * seconds / crate::DEFAULT_SECONDS).round() as usize).max(1)
}
