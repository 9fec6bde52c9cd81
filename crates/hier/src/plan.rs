//! The composition planner: map a collective onto per-level stages, solve
//! each stage through the existing engine, and stitch the stage schedules
//! into one verified schedule over the full machine.
//!
//! A 64-node Allgather over 8 groups of 8 becomes three stages:
//!
//! 1. **intra-allgather** — every group runs an Allgather on its own
//!    subtopology (one solve per structural group class; identical groups
//!    replay the same schedule under a node remap),
//! 2. **leader-allgather** — the group leaders exchange whole group
//!    buffers over the leader graph (the per-group schedule is replicated
//!    across *chunk lanes*, one lane per group member, with the stage's
//!    round counts scaled by the lane count), and
//! 3. **intra-broadcast** — each leader broadcasts the remote chunks into
//!    its group.
//!
//! The solver never sees more than one group: an 8×8 machine costs three
//! 8-node solves instead of one infeasible 64-node solve, and every stage
//! solve goes through [`Engine::synthesize`], so the engine's memo of
//! decided candidates, the on-disk cache and any serving tier in front of
//! the engine apply per group. The
//! stitched result is a plain [`Algorithm`] over the full topology whose
//! cost is the sum of the stage (α, β) costs, and it is re-checked by the
//! [composition verifier](crate::verify) before being returned.

use crate::partition::{GroupSpec, Partition, PartitionError};
use crate::verify::{verify_composition, CompositionError};
use sccl_collectives::Collective;
use sccl_core::failpoint;
use sccl_core::pareto::{SynthesisConfig, TerminationReason};
use sccl_core::{Algorithm, AlgorithmCost, Send};
use sccl_sched::{Engine, Error as EngineError, SolveMode, SynthesisRequest};
use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Which frontier entry each stage uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryPick {
    /// The fewest-steps entry (first on the frontier): minimizes the
    /// composed latency cost. The default.
    #[default]
    Latency,
    /// The cheapest-bandwidth entry (last on the frontier).
    Bandwidth,
}

impl EntryPick {
    /// Parse a CLI/wire value.
    pub fn parse(s: &str) -> Option<EntryPick> {
        match s {
            "latency" => Some(EntryPick::Latency),
            "bandwidth" => Some(EntryPick::Bandwidth),
            _ => None,
        }
    }
}

/// One hierarchical synthesis problem.
#[derive(Clone, Debug)]
pub struct HierRequest {
    /// The full machine.
    pub topology: Topology,
    /// The collective to compose.
    pub collective: Collective,
    /// How to carve the machine into process groups.
    pub groups: GroupSpec,
    /// Per-stage search configuration; `None` uses the engine's defaults.
    /// The chunk cap is always forced to 1: stages are synthesized at one
    /// chunk per node and widened by lane replication instead.
    pub config: Option<SynthesisConfig>,
    /// Which frontier entry each stage uses.
    pub pick: EntryPick,
    /// The instant the whole composition must finish by. Every stage
    /// solve gets the same instant; once it passes the planner degrades to
    /// partial stage frontiers where a stage produced anything usable
    /// ([`HierResponse::degraded`]) and returns [`HierError::Deadline`]
    /// only when no composition is achievable at all.
    pub deadline: Option<Instant>,
}

impl HierRequest {
    /// A request with auto-detected groups and engine defaults.
    pub fn new(topology: &Topology, collective: Collective) -> Self {
        HierRequest {
            topology: topology.clone(),
            collective,
            groups: GroupSpec::Auto,
            config: None,
            pick: EntryPick::default(),
            deadline: None,
        }
    }

    /// Override the group spec.
    pub fn with_groups(mut self, groups: GroupSpec) -> Self {
        self.groups = groups;
        self
    }

    /// Override the per-stage search configuration.
    pub fn with_config(mut self, config: SynthesisConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Accepted and ignored: every stage miss is solved one candidate at
    /// a time. Kept only for the benchmark ledger; its re-cut deletes it.
    pub fn with_mode(self, _mode: SolveMode) -> Self {
        self
    }

    /// Use the cheapest-bandwidth frontier entry per stage.
    pub fn pick_bandwidth(mut self) -> Self {
        self.pick = EntryPick::Bandwidth;
        self
    }

    /// Bound the whole composition to finish by `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Everything that can go wrong composing hierarchically.
#[derive(Debug)]
pub enum HierError {
    /// The topology could not be carved into groups.
    Partition(PartitionError),
    /// A stage solve failed inside the engine.
    Engine(EngineError),
    /// The collective has no hierarchical composition rule.
    Unsupported {
        collective: Collective,
        reason: &'static str,
    },
    /// A stage's frontier came back empty: the stage problem is infeasible
    /// under the per-stage search caps.
    StageInfeasible {
        stage: &'static str,
        topology: String,
        collective: Collective,
        termination: TerminationReason,
    },
    /// The stitched schedule failed the composition verifier. This is a
    /// planner bug surfaced as a typed error rather than a wrong answer.
    Composition(CompositionError),
    /// The request's deadline expired before every stage could produce a
    /// usable frontier — not even a degraded composition is achievable.
    Deadline { deadline_ms: u64 },
    /// A stage solve panicked. The panic was contained here; the solve it
    /// unwound through stored nothing in the engine.
    StagePanic {
        stage: &'static str,
        message: String,
    },
}

impl fmt::Display for HierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierError::Partition(e) => write!(f, "partition: {e}"),
            HierError::Engine(e) => write!(f, "stage solve: {e}"),
            HierError::Unsupported { collective, reason } => {
                write!(f, "no hierarchical rule for {collective}: {reason}")
            }
            HierError::StageInfeasible {
                stage,
                topology,
                collective,
                termination,
            } => write!(
                f,
                "stage {stage} ({collective} on {topology}) has an empty frontier: {}",
                termination.describe()
            ),
            HierError::Composition(e) => write!(f, "composition rejected: {e}"),
            HierError::Deadline { deadline_ms } => write!(
                f,
                "deadline of {deadline_ms}ms expired before any composition was achievable"
            ),
            HierError::StagePanic { stage, message } => {
                write!(
                    f,
                    "stage {stage} solve panicked (worker contained): {message}"
                )
            }
        }
    }
}

impl std::error::Error for HierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HierError::Partition(e) => Some(e),
            HierError::Engine(e) => Some(e),
            HierError::Composition(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PartitionError> for HierError {
    fn from(e: PartitionError) -> Self {
        HierError::Partition(e)
    }
}

impl From<CompositionError> for HierError {
    fn from(e: CompositionError) -> Self {
        HierError::Composition(e)
    }
}

/// Which level of the hierarchy a stage runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageLevel {
    /// Inside the process groups (replicated per group).
    Intra,
    /// On the leader graph.
    Leaders,
}

impl fmt::Display for StageLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageLevel::Intra => write!(f, "intra"),
            StageLevel::Leaders => write!(f, "leaders"),
        }
    }
}

/// One stitched stage of a [`HierarchicalAlgorithm`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ComposedStage {
    /// Stage name, e.g. `intra-allgather`.
    pub name: String,
    /// Which hierarchy level it runs on.
    pub level: StageLevel,
    /// The stage-local collective that was synthesized.
    pub collective: Collective,
    /// How many group instances replay the stage schedule.
    pub instances: usize,
    /// The largest chunk-lane replication factor of any instance (round
    /// counts are scaled by each instance's own factor).
    pub lanes: u64,
    /// First step of this stage in the stitched schedule.
    pub step_offset: usize,
    /// Steps this stage contributes.
    pub steps: usize,
    /// Stitched rounds this stage contributes (lane-scaled).
    pub rounds: u64,
    /// The per-instance `(C, S, R)` cost of the synthesized stage
    /// algorithm, before replication.
    pub stage_cost: AlgorithmCost,
    /// Placements this stage guarantees once its last step completes
    /// (checked by the composition verifier as a boundary invariant).
    pub post: Vec<(usize, usize)>,
}

/// A verified hierarchical schedule: the stitched stage list plus the
/// composed flat [`Algorithm`] over the full topology.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalAlgorithm {
    /// The collective the composition implements.
    pub collective: Collective,
    /// Name of the full topology.
    pub topology_name: String,
    /// Nodes of the full topology.
    pub num_nodes: usize,
    /// Number of process groups.
    pub num_groups: usize,
    /// The stitched stages, in execution order.
    pub stages: Vec<ComposedStage>,
    /// The stitched schedule as a plain flat algorithm over the full
    /// topology: lowering, simulation and validation machinery all apply.
    pub composed: Algorithm,
}

impl HierarchicalAlgorithm {
    /// The composed `(S, R, C)` cost: stage steps and lane-scaled rounds
    /// summed across stages.
    pub fn cost(&self) -> AlgorithmCost {
        self.composed.cost()
    }
}

/// Partition shape, for reporting.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionSummary {
    /// Number of groups.
    pub num_groups: usize,
    /// Member count per group.
    pub group_sizes: Vec<usize>,
    /// Distinct structural group classes (solves needed per stage
    /// collective).
    pub classes: usize,
    /// Global leader indices.
    pub leaders: Vec<usize>,
}

/// Stage-solve accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierStats {
    /// Engine solves issued (distinct stage problems; identical groups
    /// share one).
    pub stage_solves: usize,
    /// How many of those were served from the engine's persistent cache.
    pub cache_hits: usize,
    /// Stage solves whose deadline expired mid-search and whose entry was
    /// picked from the partial frontier found before the cut.
    pub degraded_stages: usize,
}

/// Wall-clock breakdown of one hierarchical request, phase by phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierTimings {
    /// Carving the topology into groups.
    pub partition: Duration,
    /// Summed end-to-end time of the stage solves (lookup + encode +
    /// solve + store inside the engine).
    pub solve: Duration,
    /// Offsetting, lane-scaling and remapping the stage schedules into
    /// one flat algorithm.
    pub stitch: Duration,
    /// The composition verifier's replay of the stitched schedule.
    pub verify: Duration,
    /// End-to-end time of the request.
    pub total: Duration,
}

/// The planner's answer to a [`HierRequest`]: a verified composition.
#[derive(Clone, Debug)]
pub struct HierResponse {
    /// The verified hierarchical schedule.
    pub algorithm: HierarchicalAlgorithm,
    /// How the machine was carved.
    pub partition: PartitionSummary,
    /// Stage-solve accounting.
    pub stats: HierStats,
    /// Per-phase wall-clock breakdown.
    pub timings: HierTimings,
    /// `true` when at least one stage used a partial frontier because the
    /// request's deadline expired mid-search. The composition is still
    /// verified — degraded means possibly suboptimal, never unsound.
    pub degraded: bool,
    /// End-to-end planning time (partition + stage solves + stitch +
    /// verify).
    pub elapsed: Duration,
}

/// Compact, serializable view of a response for CLI/wire reporting (no
/// sends, no placements).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HierSummary {
    pub collective: Collective,
    pub topology: String,
    pub num_nodes: usize,
    pub num_groups: usize,
    pub group_sizes: Vec<usize>,
    pub classes: usize,
    pub stages: Vec<StageSummary>,
    pub composed_cost: AlgorithmCost,
    pub total_sends: usize,
    pub stage_solves: usize,
    pub cache_hits: usize,
    pub degraded_stages: usize,
    pub elapsed_micros: u64,
}

/// One stage row of a [`HierSummary`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    pub name: String,
    pub level: StageLevel,
    pub collective: Collective,
    pub instances: usize,
    pub lanes: u64,
    pub steps: usize,
    pub rounds: u64,
    pub stage_cost: AlgorithmCost,
}

impl HierResponse {
    /// The compact reporting view.
    pub fn summary(&self) -> HierSummary {
        HierSummary {
            collective: self.algorithm.collective,
            topology: self.algorithm.topology_name.clone(),
            num_nodes: self.algorithm.num_nodes,
            num_groups: self.algorithm.num_groups,
            group_sizes: self.partition.group_sizes.clone(),
            classes: self.partition.classes,
            stages: self
                .algorithm
                .stages
                .iter()
                .map(|s| StageSummary {
                    name: s.name.clone(),
                    level: s.level,
                    collective: s.collective,
                    instances: s.instances,
                    lanes: s.lanes,
                    steps: s.steps,
                    rounds: s.rounds,
                    stage_cost: s.stage_cost,
                })
                .collect(),
            composed_cost: self.algorithm.cost(),
            total_sends: self.algorithm.composed.sends.len(),
            stage_solves: self.stats.stage_solves,
            cache_hits: self.stats.cache_hits,
            degraded_stages: self.stats.degraded_stages,
            elapsed_micros: saturating_micros(self.elapsed),
        }
    }
}

/// A `Duration` in microseconds, saturating instead of truncating.
fn saturating_micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Hierarchical synthesis as a method on the existing [`Engine`].
pub trait HierEngineExt {
    /// Partition, plan, solve per stage, stitch, verify.
    fn synthesize_hier(&self, request: HierRequest) -> Result<HierResponse, HierError>;
}

impl HierEngineExt for Engine {
    fn synthesize_hier(&self, request: HierRequest) -> Result<HierResponse, HierError> {
        synthesize_hier(self, request)
    }
}

// ---------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------

/// One replay of a stage schedule: a node remap plus, per stage-local
/// chunk, the list of global chunks riding that chunk's schedule (the
/// *lanes*).
struct Instance {
    algorithm: Algorithm,
    node_map: Vec<usize>,
    chunk_lanes: Vec<Vec<usize>>,
}

impl Instance {
    /// The round-scaling factor: the widest lane of any chunk.
    fn lane_scale(&self) -> u64 {
        self.chunk_lanes
            .iter()
            .map(|l| l.len() as u64)
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

/// A planned (not yet stitched) stage.
struct PlannedStage {
    name: &'static str,
    level: StageLevel,
    collective: Collective,
    instances: Vec<Instance>,
}

/// Memoizing stage solver: one engine solve per distinct
/// `(topology name, collective)` stage problem.
struct StageSolver<'a> {
    engine: &'a Engine,
    config: SynthesisConfig,
    pick: EntryPick,
    memo: Vec<(String, Collective, Algorithm)>,
    stats: HierStats,
    /// The request's deadline, handed unchanged to every stage solve.
    deadline: Option<Instant>,
    /// The budget `deadline` gave the composition, for
    /// [`HierError::Deadline`].
    deadline_ms: u64,
    /// Summed end-to-end time of the stage solves.
    solve_time: Duration,
}

impl StageSolver<'_> {
    fn solve(
        &mut self,
        topology: &Topology,
        collective: Collective,
        stage: &'static str,
    ) -> Result<Algorithm, HierError> {
        if let Some((_, _, algorithm)) = self
            .memo
            .iter()
            .find(|(name, c, _)| name == topology.name() && *c == collective)
        {
            return Ok(algorithm.clone());
        }
        let mut request =
            SynthesisRequest::new(topology, collective).with_config(self.config.clone());
        if let Some(deadline) = self.deadline {
            request = request.with_deadline(deadline);
        }
        // The stage solve is isolated: a panic anywhere under it (the
        // `hier.stage` chaos site included) is contained as a typed
        // error, and the solve it unwound through stores nothing in the
        // engine's memo. The failpoint fires *before* the deadline is
        // checked so a Sleep action faithfully eats it.
        let (engine, deadline_ms) = (self.engine, self.deadline_ms);
        let outcome = catch_unwind(AssertUnwindSafe(move || -> Result<_, HierError> {
            if failpoint::fire("hier.stage") {
                panic!("failpoint hier.stage triggered");
            }
            if request.deadline.is_some_and(|at| Instant::now() >= at) {
                return Err(HierError::Deadline { deadline_ms });
            }
            engine.synthesize(request).map_err(HierError::Engine)
        }));
        let response = match outcome {
            Ok(result) => result?,
            Err(panic) => {
                return Err(HierError::StagePanic {
                    stage,
                    message: panic_message(panic),
                })
            }
        };
        self.stats.stage_solves += 1;
        if response.from_cache() {
            self.stats.cache_hits += 1;
        }
        self.solve_time += response.timings.total;
        if response.degraded {
            if response.report.entries.is_empty() {
                // The cut arrived before this stage found anything: no
                // composition is achievable, degraded or otherwise.
                return Err(HierError::Deadline {
                    deadline_ms: self.deadline_ms,
                });
            }
            self.stats.degraded_stages += 1;
        }
        let entry = match self.pick {
            EntryPick::Latency => response.report.entries.first(),
            EntryPick::Bandwidth => response.report.entries.last(),
        };
        let entry = entry.ok_or_else(|| HierError::StageInfeasible {
            stage,
            topology: topology.name().to_string(),
            collective,
            termination: response.report.termination,
        })?;
        let algorithm = entry.algorithm.clone();
        self.memo
            .push((topology.name().to_string(), collective, algorithm.clone()));
        Ok(algorithm)
    }
}

/// Best-effort text of a contained panic payload.
fn panic_message(panic: Box<dyn std::any::Any + std::marker::Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Plan, solve, stitch and verify one hierarchical request against the
/// engine: [`HierEngineExt::synthesize_hier`].
fn synthesize_hier(engine: &Engine, request: HierRequest) -> Result<HierResponse, HierError> {
    let start = Instant::now();
    let partition = Partition::new(&request.topology, &request.groups)?;
    let partition_time = start.elapsed();
    // Stages are synthesized at one chunk per node; chunk-lane replication
    // widens them during stitching. A larger per-stage chunk cap would
    // split global chunks into sub-chunks the composition does not model.
    let mut config = request
        .config
        .clone()
        .unwrap_or_else(|| engine.defaults().clone());
    config.max_chunks = 1;
    let mut solver = StageSolver {
        engine,
        config,
        pick: request.pick,
        memo: Vec::new(),
        stats: HierStats::default(),
        deadline: request.deadline,
        // Rounded up: a budget fixed just before this call (the CLI's
        // `--deadline-ms 50`) reads back as 50ms, not 49.
        deadline_ms: request.deadline.map_or(0, |at| {
            let budget = at
                .saturating_duration_since(start)
                .as_nanos()
                .div_ceil(1_000_000);
            budget.min(u64::MAX as u128) as u64
        }),
        solve_time: Duration::ZERO,
    };

    let planned = plan_stages(request.collective, &partition, &mut solver)?;

    // Stitch: offset each stage's steps past the previous stage, scale its
    // round counts by the lane factor, and remap sends to global indices.
    let stitch_start = Instant::now();
    let num_nodes = request.topology.num_nodes();
    let num_chunks = request.collective.global_chunks(num_nodes, 1);
    let mut stages = Vec::new();
    let mut rounds_per_step: Vec<u64> = Vec::new();
    let mut sends: Vec<Send> = Vec::new();
    let mut step_offset = 0usize;
    for stage in planned {
        if stage.instances.is_empty() {
            continue;
        }
        let steps = stage
            .instances
            .iter()
            .map(|i| i.algorithm.num_steps())
            .max()
            .unwrap_or(0);
        let mut stage_rounds = vec![0u64; steps];
        let mut post = Vec::new();
        let mut lanes = 1u64;
        for instance in &stage.instances {
            let scale = instance.lane_scale();
            lanes = lanes.max(scale);
            for (s, &r) in instance.algorithm.rounds_per_step.iter().enumerate() {
                stage_rounds[s] = stage_rounds[s].max(r * scale);
            }
            for send in &instance.algorithm.sends {
                for &chunk in &instance.chunk_lanes[send.chunk] {
                    sends.push(Send {
                        chunk,
                        src: instance.node_map[send.src],
                        dst: instance.node_map[send.dst],
                        step: step_offset + send.step,
                        op: send.op,
                    });
                }
            }
            // The stage's post relation, lane by lane, is what it hands on.
            let local = &instance.algorithm;
            let (_, post_local) = local
                .collective
                .relations()
                .expect("stages are non-combining");
            for (c, n) in post_local.pairs(local.num_chunks, local.num_nodes) {
                for &chunk in &instance.chunk_lanes[c] {
                    post.push((chunk, instance.node_map[n]));
                }
            }
        }
        let rounds: u64 = stage_rounds.iter().sum();
        stages.push(ComposedStage {
            name: stage.name.to_string(),
            level: stage.level,
            collective: stage.collective,
            instances: stage.instances.len(),
            lanes,
            step_offset,
            steps,
            rounds,
            stage_cost: stage.instances[0].algorithm.cost(),
            post,
        });
        step_offset += steps;
        rounds_per_step.extend(stage_rounds);
    }

    let mut composed = Algorithm {
        collective: request.collective,
        topology_name: request.topology.name().to_string(),
        num_nodes,
        per_node_chunks: 1,
        num_chunks,
        rounds_per_step,
        sends,
    };
    // Chaos site: a triggered `hier.stitch` corrupts the stitched
    // schedule (drops its last send) so the composition verifier below
    // must catch the damage; Panic/Sleep actions fire here too.
    if failpoint::fire("hier.stitch") {
        composed.sends.pop();
    }
    let algorithm = HierarchicalAlgorithm {
        collective: request.collective,
        topology_name: request.topology.name().to_string(),
        num_nodes,
        num_groups: partition.num_groups(),
        stages,
        composed,
    };
    let stitch_time = stitch_start.elapsed();

    let verify_start = Instant::now();
    verify_composition(&algorithm, &request.topology)?;
    let verify_time = verify_start.elapsed();

    let degraded = solver.stats.degraded_stages > 0;
    Ok(HierResponse {
        algorithm,
        partition: PartitionSummary {
            num_groups: partition.num_groups(),
            group_sizes: partition.groups.iter().map(|g| g.len()).collect(),
            classes: partition.num_classes(),
            leaders: partition.leaders(),
        },
        stats: solver.stats,
        timings: HierTimings {
            partition: partition_time,
            solve: solver.solve_time,
            stitch: stitch_time,
            verify: verify_time,
            total: start.elapsed(),
        },
        degraded,
        elapsed: start.elapsed(),
    })
}

/// The per-collective composition rules.
fn plan_stages(
    collective: Collective,
    partition: &Partition,
    solver: &mut StageSolver<'_>,
) -> Result<Vec<PlannedStage>, HierError> {
    check_composable(collective)?;
    let groups = &partition.groups;
    let leaders = partition.leaders();
    let num_groups = partition.num_groups();
    let total_nodes: usize = groups.iter().map(|g| g.len()).sum();
    let all_chunks: Vec<usize> = (0..total_nodes).collect();

    match collective {
        Collective::Allgather => {
            let mut intra_ag = Vec::with_capacity(num_groups);
            for group in groups {
                let algorithm =
                    solver.solve(&group.topology, Collective::Allgather, "intra-allgather")?;
                intra_ag.push(Instance {
                    algorithm,
                    node_map: group.members.clone(),
                    chunk_lanes: group.members.iter().map(|&m| vec![m]).collect(),
                });
            }
            let leader_alg = solver.solve(
                &partition.leader_topology,
                Collective::Allgather,
                "leader-allgather",
            )?;
            let leader_stage = Instance {
                algorithm: leader_alg,
                node_map: leaders.clone(),
                chunk_lanes: groups.iter().map(|g| g.members.clone()).collect(),
            };
            let mut intra_bcast = Vec::with_capacity(num_groups);
            for (gi, group) in groups.iter().enumerate() {
                let root = group.leader_local();
                let algorithm = solver.solve(
                    &group.topology,
                    Collective::Broadcast { root },
                    "intra-broadcast",
                )?;
                let remote: Vec<usize> = (0..total_nodes)
                    .filter(|&c| partition.node_group[c] != gi)
                    .collect();
                intra_bcast.push(Instance {
                    algorithm,
                    node_map: group.members.clone(),
                    chunk_lanes: vec![remote],
                });
            }
            Ok(vec![
                PlannedStage {
                    name: "intra-allgather",
                    level: StageLevel::Intra,
                    collective: Collective::Allgather,
                    instances: intra_ag,
                },
                PlannedStage {
                    name: "leader-allgather",
                    level: StageLevel::Leaders,
                    collective: Collective::Allgather,
                    instances: vec![leader_stage],
                },
                PlannedStage {
                    name: "intra-broadcast",
                    level: StageLevel::Intra,
                    collective: Collective::Broadcast { root: 0 },
                    instances: intra_bcast,
                },
            ])
        }

        Collective::Broadcast { root } => {
            let rg = partition.node_group[root];
            let root_group = &groups[rg];
            let root_local = root_group
                .local_of(root)
                .expect("node_group maps the root into its group");
            let seed_alg = solver.solve(
                &root_group.topology,
                Collective::Broadcast { root: root_local },
                "root-group-broadcast",
            )?;
            let seed = Instance {
                algorithm: seed_alg,
                node_map: root_group.members.clone(),
                chunk_lanes: vec![vec![0]],
            };
            let leader_alg = solver.solve(
                &partition.leader_topology,
                Collective::Broadcast { root: rg },
                "leader-broadcast",
            )?;
            let leader_stage = Instance {
                algorithm: leader_alg,
                node_map: leaders.clone(),
                chunk_lanes: vec![vec![0]],
            };
            let mut fanout = Vec::new();
            for (gi, group) in groups.iter().enumerate() {
                if gi == rg {
                    continue;
                }
                let gr = group.leader_local();
                let algorithm = solver.solve(
                    &group.topology,
                    Collective::Broadcast { root: gr },
                    "intra-broadcast",
                )?;
                fanout.push(Instance {
                    algorithm,
                    node_map: group.members.clone(),
                    chunk_lanes: vec![vec![0]],
                });
            }
            Ok(vec![
                PlannedStage {
                    name: "root-group-broadcast",
                    level: StageLevel::Intra,
                    collective: Collective::Broadcast { root: root_local },
                    instances: vec![seed],
                },
                PlannedStage {
                    name: "leader-broadcast",
                    level: StageLevel::Leaders,
                    collective: Collective::Broadcast { root: rg },
                    instances: vec![leader_stage],
                },
                PlannedStage {
                    name: "intra-broadcast",
                    level: StageLevel::Intra,
                    collective: Collective::Broadcast { root: 0 },
                    instances: fanout,
                },
            ])
        }

        Collective::Gather { root } => {
            let rg = partition.node_group[root];
            let mut intra = Vec::with_capacity(num_groups);
            for group in groups {
                let gr = group.leader_local();
                let algorithm = solver.solve(
                    &group.topology,
                    Collective::Gather { root: gr },
                    "intra-gather",
                )?;
                intra.push(Instance {
                    algorithm,
                    node_map: group.members.clone(),
                    chunk_lanes: group.members.iter().map(|&m| vec![m]).collect(),
                });
            }
            let leader_alg = solver.solve(
                &partition.leader_topology,
                Collective::Gather { root: rg },
                "leader-gather",
            )?;
            let leader_stage = Instance {
                algorithm: leader_alg,
                node_map: leaders.clone(),
                chunk_lanes: groups.iter().map(|g| g.members.clone()).collect(),
            };
            let mut delivery = Vec::new();
            if leaders[rg] != root {
                // The gathered buffer sits on the root group's leader; move
                // it to the root with an intra broadcast (over-delivery to
                // the rest of the group is allowed by the post relation).
                let group = &groups[rg];
                let gr = group.leader_local();
                let algorithm = solver.solve(
                    &group.topology,
                    Collective::Broadcast { root: gr },
                    "root-delivery",
                )?;
                delivery.push(Instance {
                    algorithm,
                    node_map: group.members.clone(),
                    chunk_lanes: vec![all_chunks.clone()],
                });
            }
            Ok(vec![
                PlannedStage {
                    name: "intra-gather",
                    level: StageLevel::Intra,
                    collective: Collective::Gather { root: 0 },
                    instances: intra,
                },
                PlannedStage {
                    name: "leader-gather",
                    level: StageLevel::Leaders,
                    collective: Collective::Gather { root: rg },
                    instances: vec![leader_stage],
                },
                PlannedStage {
                    name: "root-delivery",
                    level: StageLevel::Intra,
                    collective: Collective::Broadcast { root: 0 },
                    instances: delivery,
                },
            ])
        }

        Collective::Scatter { root } => {
            let rg = partition.node_group[root];
            let root_group = &groups[rg];
            let mut spread = Vec::new();
            if leaders[rg] != root {
                // Chunks start on the root; flood the root group so the
                // leader holds them before the leader scatter (over-delivery
                // inside the root group is allowed by the post relation).
                let root_local = root_group
                    .local_of(root)
                    .expect("node_group maps the root into its group");
                let algorithm = solver.solve(
                    &root_group.topology,
                    Collective::Broadcast { root: root_local },
                    "root-group-spread",
                )?;
                spread.push(Instance {
                    algorithm,
                    node_map: root_group.members.clone(),
                    chunk_lanes: vec![all_chunks.clone()],
                });
            }
            let leader_alg = solver.solve(
                &partition.leader_topology,
                Collective::Scatter { root: rg },
                "leader-scatter",
            )?;
            let leader_stage = Instance {
                algorithm: leader_alg,
                node_map: leaders.clone(),
                chunk_lanes: groups.iter().map(|g| g.members.clone()).collect(),
            };
            let mut intra = Vec::with_capacity(num_groups);
            for group in groups {
                let gr = group.leader_local();
                let algorithm = solver.solve(
                    &group.topology,
                    Collective::Scatter { root: gr },
                    "intra-scatter",
                )?;
                intra.push(Instance {
                    algorithm,
                    node_map: group.members.clone(),
                    chunk_lanes: group.members.iter().map(|&m| vec![m]).collect(),
                });
            }
            Ok(vec![
                PlannedStage {
                    name: "root-group-spread",
                    level: StageLevel::Intra,
                    collective: Collective::Broadcast { root: 0 },
                    instances: spread,
                },
                PlannedStage {
                    name: "leader-scatter",
                    level: StageLevel::Leaders,
                    collective: Collective::Scatter { root: rg },
                    instances: vec![leader_stage],
                },
                PlannedStage {
                    name: "intra-scatter",
                    level: StageLevel::Intra,
                    collective: Collective::Scatter { root: 0 },
                    instances: intra,
                },
            ])
        }

        _ => unreachable!("check_composable admits only the collectives planned above"),
    }
}

/// `Ok` when `collective` has a hierarchical composition rule, else the
/// [`HierError::Unsupported`] a request for it fails with. The one list of
/// composable collectives: the planner checks it before planning, and a
/// serving layer can refuse the rest before it queues them.
pub fn check_composable(collective: Collective) -> Result<(), HierError> {
    let reason = match collective {
        Collective::Allgather
        | Collective::Broadcast { .. }
        | Collective::Gather { .. }
        | Collective::Scatter { .. } => return Ok(()),
        Collective::Alltoall => {
            "Alltoall needs cross-group chunk re-indexing; composition is a roadmap follow-on"
        }
        Collective::Reduce { .. } | Collective::ReduceScatter | Collective::Allreduce => {
            "combining collectives compose through their non-combining duals; \
             hierarchical reduction is a roadmap follow-on"
        }
    };
    Err(HierError::Unsupported { collective, reason })
}
