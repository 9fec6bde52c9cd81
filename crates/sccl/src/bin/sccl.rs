//! The `sccl` command-line tool, built on [`sccl::Engine`]: synthesize
//! collective algorithms for a topology, print Pareto frontiers, probe
//! individual `(C, S, R)` points, compute structural lower bounds, emit
//! generated code, and drive batch synthesis through the engine and its
//! persistent algorithm cache.
//!
//! ```bash
//! cargo run --release --bin sccl -- bounds --topology dgx1 --collective allgather
//! cargo run --release --bin sccl -- probe --topology dgx1 --collective allgather --chunks 2 --steps 2 --rounds 3
//! cargo run --release --bin sccl -- pareto --topology ring:4 --collective allreduce --max-steps 6 --json
//! cargo run --release --bin sccl -- pareto --topology ring:4 --collective allgather --cache .sccl-cache
//! cargo run --release --bin sccl -- codegen --topology ring:4 --collective allgather --chunks 1 --steps 3 --rounds 3
//! cargo run --release --bin sccl -- batch --manifest jobs.txt --cache .sccl-cache
//! cargo run --release --bin sccl -- warmup --manifest jobs.txt
//! cargo run --release --bin sccl -- serve --socket /tmp/sccl.sock --cache .sccl-cache --journal .sccl-journal
//! cargo run --release --bin sccl -- client --socket /tmp/sccl.sock --verb health
//! ```
//!
//! Each subcommand's flags are described by a declarative spec table
//! ([`COMMANDS`]); parsing, validation, unknown-flag rejection and the
//! usage text are all derived from it.

use sccl::prelude::*;
use sccl::serve::{RetryPolicy, WireResponse, WireSynthesize};
use sccl::{Daemon, ServeClient, ServeConfig, Server};
use sccl_core::bounds::{bandwidth_lower_bound, latency_lower_bound};
use sccl_core::encoding::{synthesize, EncodingOptions, SynCollInstance, SynthesisOutcome};
use sccl_core::pareto::TerminationReason;
use sccl_sched::{parse_manifest, BatchReport};
use sccl_solver::{Limits, SolverConfig};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The declarative flag-spec table
// ---------------------------------------------------------------------

/// One flag a subcommand accepts.
struct FlagSpec {
    /// Flag name without the leading `--`.
    name: &'static str,
    /// Value placeholder for the usage text; `None` marks a boolean switch.
    value: Option<&'static str>,
    /// One-line description for the usage text.
    help: &'static str,
}

const fn val(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: Some(value),
        help,
    }
}

const fn switch(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: None,
        help,
    }
}

/// The topology/collective selection every synthesis command needs.
const PROBLEM_FLAGS: &[FlagSpec] = &[
    val(
        "topology",
        "T",
        "topology spec (dgx1, ring:N, mesh:RxC, ...)",
    ),
    val(
        "collective",
        "C",
        "collective name (allgather, allreduce, ...)",
    ),
    val("root", "N", "root node for rooted collectives (default 0)"),
];

/// The `(C, S, R)` point of a single SynColl query.
const POINT_FLAGS: &[FlagSpec] = &[
    val("chunks", "N", "per-node chunk count C (default 1)"),
    val("steps", "S", "step count S (default 1)"),
    val("rounds", "R", "round count R (default S)"),
    val(
        "timeout",
        "SECS",
        "solver budget, 0 = unlimited (default 300)",
    ),
];

/// The Pareto search caps and per-instance budgets.
const SEARCH_FLAGS: &[FlagSpec] = &[
    val("k", "K", "k-synchronous bound (default 0)"),
    val("max-steps", "N", "step cap of the search (default 8)"),
    val("max-chunks", "N", "chunk cap of the search (default 8)"),
    val(
        "timeout",
        "SECS",
        "per-instance wall-clock budget, 0 = unlimited (default 120)",
    ),
    val(
        "max-conflicts",
        "N",
        "per-instance conflict budget (deterministic, machine-independent)",
    ),
];

/// Engine construction: the persistent cache. `--sequential` is accepted
/// and ignored (every sweep runs one candidate at a time); the benchmark
/// ledger still starts its daemon with it, and its re-cut deletes it.
const ENGINE_FLAGS: &[FlagSpec] = &[
    val("cache", "DIR", "persistent algorithm cache directory"),
    switch(
        "sequential",
        "accepted and ignored: every solve is sequential",
    ),
];

/// Group selection and stage picking for hierarchical composition.
const HIER_FLAGS: &[FlagSpec] = &[
    val(
        "groups",
        "SPEC",
        "process groups: auto | uniform:M | `0,1;2,3` (default auto)",
    ),
    val(
        "pick",
        "P",
        "frontier entry per stage: latency | bandwidth (default latency)",
    ),
];

/// Daemon admission control and socket placement (`sccl serve`).
const SERVE_FLAGS: &[FlagSpec] = &[
    val(
        "socket",
        "PATH",
        "Unix socket to listen on (default .sccl-serve.sock)",
    ),
    val("queue", "N", "bounded request queue capacity (default 64)"),
    val(
        "per-client",
        "N",
        "per-client in-flight request quota (default 4)",
    ),
    val(
        "memory-budget",
        "CELLS",
        "cap on estimated solver memory of admitted jobs, encoder cells",
    ),
    val(
        "hot",
        "N",
        "hot-tier capacity in cached frontiers, 0 disables (default 256)",
    ),
    val(
        "workers",
        "N",
        "serving worker threads, 0 = one per core (default 0)",
    ),
    val(
        "journal",
        "DIR",
        "crash-recovery journal: checkpoint sweeps, replay killed requests",
    ),
    val(
        "rate-limit",
        "RPS",
        "per-client token-bucket refill rate, 0 disables (default 0)",
    ),
    val(
        "rate-burst",
        "N",
        "token-bucket burst allowance per client (default 8)",
    ),
    val(
        "brownout-deadline-ms",
        "MS",
        "effective deadline under brownout, 0 = report only (default 2000)",
    ),
];

/// Daemon client flags (`sccl client`): which daemon, which verb, and the
/// reconnect policy (flags override the `SCCL_RETRY` env var, which
/// overrides the built-in default).
const CLIENT_FLAGS: &[FlagSpec] = &[
    val(
        "socket",
        "PATH",
        "daemon socket to talk to (default .sccl-serve.sock)",
    ),
    val(
        "verb",
        "V",
        "synthesize | metrics | health | drain | shutdown (default health)",
    ),
    val("topology", "T", "topology spec for --verb synthesize"),
    val("collective", "C", "collective name for --verb synthesize"),
    val(
        "retry-attempts",
        "N",
        "reconnect attempts on transient errors (SCCL_RETRY, default 3)",
    ),
    val(
        "retry-base-ms",
        "MS",
        "backoff before the first reconnect (SCCL_RETRY, default 10)",
    ),
    val(
        "retry-max-ms",
        "MS",
        "ceiling on the pre-jitter backoff (SCCL_RETRY, default 500)",
    ),
];

/// One subcommand: its flag groups and usage line.
struct CommandSpec {
    name: &'static str,
    summary: &'static str,
    flags: &'static [&'static [FlagSpec]],
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "bounds",
        summary: "structural lower bounds (latency steps, bandwidth rounds/chunk)",
        flags: &[PROBLEM_FLAGS],
    },
    CommandSpec {
        name: "probe",
        summary: "solve one (C, S, R) SynColl instance and print the schedule",
        flags: &[PROBLEM_FLAGS, POINT_FLAGS],
    },
    CommandSpec {
        name: "codegen",
        summary: "probe one instance and emit CUDA-flavoured code",
        flags: &[
            PROBLEM_FLAGS,
            POINT_FLAGS,
            &[switch(
                "dma",
                "lower with cudaMemcpy per step instead of a fused kernel",
            )],
        ],
    },
    CommandSpec {
        name: "pareto",
        summary: "synthesize the Pareto frontier through the engine",
        flags: &[
            PROBLEM_FLAGS,
            SEARCH_FLAGS,
            ENGINE_FLAGS,
            &[
                switch("json", "print the report as JSON"),
                val(
                    "deadline-ms",
                    "MS",
                    "whole-request deadline; on expiry print the partial frontier",
                ),
            ],
        ],
    },
    CommandSpec {
        name: "hier",
        summary: "compose a large-topology schedule from per-group stage syntheses",
        flags: &[
            PROBLEM_FLAGS,
            HIER_FLAGS,
            SEARCH_FLAGS,
            ENGINE_FLAGS,
            &[
                switch("json", "print the composition summary as JSON"),
                val(
                    "deadline-ms",
                    "MS",
                    "whole-composition deadline; every stage solve runs against it",
                ),
            ],
        ],
    },
    CommandSpec {
        name: "batch",
        summary: "run a manifest of jobs through the engine",
        flags: &[
            &[val(
                "manifest",
                "FILE",
                "manifest of `topology collective [root=N]` jobs",
            )],
            SEARCH_FLAGS,
            ENGINE_FLAGS,
        ],
    },
    CommandSpec {
        name: "warmup",
        summary: "prime the cache from a manifest (cache defaults to .sccl-cache)",
        flags: &[
            &[val(
                "manifest",
                "FILE",
                "manifest of `topology collective [root=N]` jobs",
            )],
            SEARCH_FLAGS,
            ENGINE_FLAGS,
        ],
    },
    CommandSpec {
        name: "serve",
        summary: "serve synthesis requests over a Unix socket (NDJSON protocol)",
        flags: &[SERVE_FLAGS, SEARCH_FLAGS, ENGINE_FLAGS],
    },
    CommandSpec {
        name: "client",
        summary: "send one verb to a running daemon and print the response",
        flags: &[CLIENT_FLAGS],
    },
];

fn usage() -> ExitCode {
    eprintln!("usage: sccl <command> [--key value ...]\n\ncommands:");
    for command in COMMANDS {
        eprintln!("  {:<8} {}", command.name, command.summary);
        for group in command.flags {
            for flag in *group {
                match flag.value {
                    Some(value) => {
                        eprintln!(
                            "      --{:<22} {}",
                            format!("{} {value}", flag.name),
                            flag.help
                        )
                    }
                    None => eprintln!("      --{:<22} {}", flag.name, flag.help),
                }
            }
        }
    }
    eprintln!(
        "\ntopologies: dgx1 | dgx1-single | amd | ring:N | uniring:N | chain:N |\n\
         \x20           star:N | fc:N | hypercube:D | mesh:RxC | nvswitch:N |\n\
         \x20           rings:GxM | dgx-rack:N\n\
         collectives: allgather | broadcast | gather | scatter | alltoall |\n\
         \x20            reduce | reducescatter | allreduce (root defaults to 0)\n\
         \n\
         batch manifests hold one `<topology> <collective> [root=N]` job per\n\
         line (`#` comments), or a JSON array of {{\"topology\", \"collective\",\n\
         \x20\"root\"}} objects. With --cache, solved frontiers persist and later\n\
         runs (or `warmup`) reuse them without solving."
    );
    ExitCode::FAILURE
}

// ---------------------------------------------------------------------
// Spec-driven flag parsing
// ---------------------------------------------------------------------

fn find_flag(command: &CommandSpec, name: &str) -> Option<&'static FlagSpec> {
    command
        .flags
        .iter()
        .flat_map(|group| group.iter())
        .find(|flag| flag.name == name)
}

/// Parse `args` against the command's spec: `--key value` and `--key=value`
/// for value flags, bare `--key` for switches; anything not in the spec is
/// an error rather than silently ignored.
fn parse_flags(command: &CommandSpec, args: &[String]) -> Result<HashMap<String, String>, Error> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(Error::Flag {
                flag: args[i].clone(),
                message: format!("expected a --flag, found positional argument `{}`", args[i]),
            });
        };
        let (key, inline_value) = match key.split_once('=') {
            Some((key, value)) => (key, Some(value.to_string())),
            None => (key, None),
        };
        let Some(spec) = find_flag(command, key) else {
            return Err(Error::Flag {
                flag: key.to_string(),
                message: format!("unknown flag for `{}`", command.name),
            });
        };
        let value = match (spec.value, inline_value) {
            (None, None) => "true".to_string(),
            (None, Some(value)) => {
                return Err(Error::Flag {
                    flag: key.to_string(),
                    message: format!("switch takes no value, found `{value}`"),
                })
            }
            (Some(_), Some(value)) => value,
            (Some(placeholder), None) => {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    i += 1;
                    args[i].clone()
                } else {
                    return Err(Error::Flag {
                        flag: key.to_string(),
                        message: format!("expected a value ({placeholder})"),
                    });
                }
            }
        };
        flags.insert(key.to_string(), value);
        i += 1;
    }
    Ok(flags)
}

/// Numeric flag value, or `default` when absent. A present-but-unparseable
/// value is an error, not a silent fallback: running with a different
/// configuration than the user asked for is worse than stopping.
fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, Error> {
    match flags.get(key) {
        None => Ok(default),
        Some(value) => value.parse().map_err(|_| Error::Flag {
            flag: key.to_string(),
            message: format!("invalid value `{value}` (expected a number)"),
        }),
    }
}

/// Like [`get_usize`] for fractional flag values (the rate-limit refill
/// rate can legitimately be below one request per second).
fn get_f64(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, Error> {
    match flags.get(key) {
        None => Ok(default),
        Some(value) => match value.parse::<f64>() {
            Ok(parsed) if parsed.is_finite() && parsed >= 0.0 => Ok(parsed),
            _ => Err(Error::Flag {
                flag: key.to_string(),
                message: format!("invalid value `{value}` (expected a non-negative number)"),
            }),
        },
    }
}

/// The topology + collective pair most commands require.
fn require_problem(flags: &HashMap<String, String>) -> Result<(Topology, Collective), Error> {
    let topology = match flags.get("topology") {
        Some(spec) => builders::parse_spec(spec).ok_or_else(|| Error::Flag {
            flag: "topology".to_string(),
            message: format!("unknown topology `{spec}`"),
        })?,
        None => {
            return Err(Error::Flag {
                flag: "topology".to_string(),
                message: "required".to_string(),
            })
        }
    };
    let root = get_usize(flags, "root", 0)?;
    if root >= topology.num_nodes() {
        return Err(Error::Flag {
            flag: "root".to_string(),
            message: format!(
                "{root} out of range for {} ({} nodes)",
                topology.name(),
                topology.num_nodes()
            ),
        });
    }
    let collective = match flags.get("collective") {
        Some(spec) => Collective::parse_spec(spec, root).ok_or_else(|| Error::Flag {
            flag: "collective".to_string(),
            message: format!("unknown collective `{spec}`"),
        })?,
        None => {
            return Err(Error::Flag {
                flag: "collective".to_string(),
                message: "required".to_string(),
            })
        }
    };
    Ok((topology, collective))
}

/// Synthesis search configuration from the common flags.
///
/// The per-instance budget is `--timeout SECS` wall-clock (0 = unlimited)
/// and/or `--max-conflicts N`. Conflict budgets are machine-independent,
/// so two runs report the same frontier; wall-clock budgets near the limit
/// can differ run-to-run.
fn synthesis_config(
    flags: &HashMap<String, String>,
    default_timeout: usize,
) -> Result<SynthesisConfig, Error> {
    let timeout = get_usize(flags, "timeout", default_timeout)?;
    let mut limits = if timeout == 0 {
        Limits::none()
    } else {
        Limits::time(Duration::from_secs(timeout as u64))
    };
    let max_conflicts = get_usize(flags, "max-conflicts", 0)?;
    if max_conflicts > 0 {
        limits.max_conflicts = Some(max_conflicts as u64);
    }
    Ok(SynthesisConfig {
        k: get_usize(flags, "k", 0)? as u64,
        max_steps: get_usize(flags, "max-steps", 8)?,
        max_chunks: get_usize(flags, "max-chunks", 8)?,
        per_instance_limits: limits,
        ..Default::default()
    })
}

/// Build the engine a command's flags describe: search defaults and an
/// optional persistent cache.
fn build_engine(
    flags: &HashMap<String, String>,
    default_cache: Option<&str>,
    defaults: Option<SynthesisConfig>,
) -> Result<Engine, Error> {
    let mut builder = Engine::builder();
    if let Some(config) = defaults {
        builder = builder.synthesis_defaults(config);
    }
    if let Some(dir) = flags.get("cache").map(String::as_str).or(default_cache) {
        builder = builder.cache_dir(dir);
    }
    // Only `serve` declares --journal, so the spec-driven parser keeps it
    // away from every other command.
    if let Some(dir) = flags.get("journal") {
        builder = builder.journal_dir(dir);
    }
    builder.build()
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command_name) = args.first() else {
        return usage();
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == *command_name) else {
        return usage();
    };
    match run_command(command, &args[1..]) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            match e {
                Error::Flag { .. } => usage(),
                _ => ExitCode::FAILURE,
            }
        }
    }
}

fn run_command(command: &CommandSpec, args: &[String]) -> Result<ExitCode, Error> {
    let flags = parse_flags(command, args)?;
    match command.name {
        "bounds" => {
            let (topology, collective) = require_problem(&flags)?;
            cmd_bounds(&topology, collective)
        }
        "probe" | "codegen" => {
            let (topology, collective) = require_problem(&flags)?;
            cmd_probe(&topology, collective, &flags, command.name == "codegen")
        }
        "pareto" => {
            let (topology, collective) = require_problem(&flags)?;
            cmd_pareto(&topology, collective, &flags)
        }
        "hier" => {
            let (topology, collective) = require_problem(&flags)?;
            cmd_hier(&topology, collective, &flags)
        }
        "batch" => cmd_batch(&flags, false),
        "warmup" => cmd_batch(&flags, true),
        "serve" => cmd_serve(&flags),
        "client" => cmd_client(&flags),
        _ => unreachable!("dispatch covers every entry of COMMANDS"),
    }
}

fn cmd_bounds(topology: &Topology, collective: Collective) -> Result<ExitCode, Error> {
    let reference_chunks = match collective {
        Collective::Alltoall => topology.num_nodes(),
        _ => 1,
    };
    // Combining collectives are bounded through their non-combining base
    // problem (the inversion dual runs on the *reversed* topology, §3.5).
    let base = sccl_core::pareto::base_problem(topology, collective);
    let spec = base
        .collective
        .spec(base.topology.num_nodes(), reference_chunks);
    match (
        latency_lower_bound(&base.topology, &spec),
        bandwidth_lower_bound(&base.topology, &spec, reference_chunks),
    ) {
        (Some(al), Some(bl)) => {
            println!(
                "topology: {} ({} nodes)",
                topology.name(),
                topology.num_nodes()
            );
            println!("collective: {collective}");
            if collective == Collective::Allreduce {
                println!(
                    "latency lower bound: {} steps (2x the Allgather bound)",
                    2 * al
                );
            } else {
                println!("latency lower bound: {al} steps");
            }
            println!("bandwidth lower bound (dual): {bl} rounds/chunk");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(Error::Synthesis(
            sccl_core::pareto::SynthesisError::Disconnected,
        )),
    }
}

fn cmd_probe(
    topology: &Topology,
    collective: Collective,
    flags: &HashMap<String, String>,
    codegen: bool,
) -> Result<ExitCode, Error> {
    let chunks = get_usize(flags, "chunks", 1)?;
    let steps = get_usize(flags, "steps", 1)?;
    let rounds = get_usize(flags, "rounds", steps)? as u64;
    let timeout = get_usize(flags, "timeout", 300)? as u64;
    let limits = if timeout == 0 {
        Limits::none()
    } else {
        Limits::time(Duration::from_secs(timeout))
    };
    // Combining collectives probe their non-combining base problem: the
    // inversion dual on the *reversed* topology (so the inverted schedule
    // runs forward on the requested one, §3.5), or Allgather for Allreduce.
    let base = sccl_core::pareto::base_problem(topology, collective);
    if collective.class() == sccl_collectives::CollectiveClass::Combining {
        eprintln!(
            "note: {collective} is combining; probing {} and deriving",
            base.collective
        );
    }
    let instance = SynCollInstance {
        spec: base.collective.spec(base.topology.num_nodes(), chunks),
        per_node_chunks: chunks,
        num_steps: steps,
        num_rounds: rounds,
    };
    let run = synthesize(
        &base.topology,
        &instance,
        &EncodingOptions::default(),
        SolverConfig::default(),
        limits,
    );
    println!(
        "encoded {} vars, {} clauses, {} PB constraints in {:.2?}",
        run.encoding.num_vars,
        run.encoding.num_clauses,
        run.encoding.num_pb_constraints,
        run.encode_time
    );
    match run.outcome {
        SynthesisOutcome::Satisfiable(mut algorithm) => {
            println!("SAT in {:.2?}", run.solve_time);
            if collective.class() == sccl_collectives::CollectiveClass::Combining {
                algorithm = match collective {
                    Collective::Allreduce => sccl_core::combining::compose_allreduce(&algorithm),
                    other => sccl_core::combining::invert(&algorithm, other),
                };
                // The dual ran on the reversed topology; the derived
                // schedule runs forward on the requested one.
                algorithm.topology_name = topology.name().to_string();
            }
            println!("{algorithm}");
            if codegen {
                let lowering = if flags.contains_key("dma") {
                    LoweringOptions::dma_per_step()
                } else {
                    LoweringOptions::default()
                };
                let program = lower(&algorithm, lowering);
                println!("{}", generate_cuda(&program));
            }
            Ok(ExitCode::SUCCESS)
        }
        SynthesisOutcome::Unsatisfiable => {
            println!(
                "UNSAT in {:.2?}: no such k-synchronous algorithm exists",
                run.solve_time
            );
            Ok(ExitCode::SUCCESS)
        }
        SynthesisOutcome::Unknown => {
            println!("unknown: solver budget of {timeout}s exhausted");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// The instant `--deadline-ms` names, fixed once, when the command reads
/// it. `0` (the default) and a budget past the clock's range are no
/// deadline.
fn deadline_after(deadline_ms: usize) -> Option<Instant> {
    (deadline_ms > 0)
        .then(|| Instant::now().checked_add(Duration::from_millis(deadline_ms as u64)))
        .flatten()
}

fn cmd_pareto(
    topology: &Topology,
    collective: Collective,
    flags: &HashMap<String, String>,
) -> Result<ExitCode, Error> {
    let config = synthesis_config(flags, 120)?;
    let engine = build_engine(flags, None, None)?;
    let mut request = SynthesisRequest::new(topology, collective).with_config(config);
    let deadline_ms = get_usize(flags, "deadline-ms", 0)?;
    if let Some(at) = deadline_after(deadline_ms) {
        request = request.with_deadline(at);
    }
    let response = engine.synthesize(request)?;
    if response.degraded {
        // Keep stdout clean for --json consumers; the degradation notice
        // is diagnostic, not part of the report.
        eprintln!("deadline of {deadline_ms}ms expired: partial frontier (degraded)");
    }
    if flags.contains_key("json") {
        // An in-memory report always serializes (the cache round-trips the
        // same type); a failure here is a bug, not a user error.
        let json = serde_json::to_string_pretty(response.report.as_ref())
            .expect("synthesis reports serialize");
        println!("{json}");
        return Ok(ExitCode::SUCCESS);
    }
    let report = &response.report;
    println!(
        "Pareto frontier of {} on {} (a_l = {}, b_l = {}):",
        report.collective,
        report.topology_name,
        report.latency_lower_bound,
        report.bandwidth_lower_bound
    );
    for entry in &report.entries {
        println!(
            "  C={:<3} S={:<3} R={:<3} {:<10} {:.2?}",
            entry.chunks,
            entry.steps,
            entry.rounds,
            entry.optimality.label(),
            entry.synthesis_time
        );
    }
    match report.termination {
        TerminationReason::BandwidthOptimal => {}
        reason => println!("  ({})", reason.describe()),
    }
    if report.budget_exhausted {
        println!("  (some probes hit the per-instance timeout)");
    }
    match response.provenance {
        Provenance::CacheHit => println!(
            "served from cache in {:.2?} (lookup {:.2?})",
            response.timings.total, response.timings.lookup
        ),
        Provenance::Solved => println!("solved in {:.2?}", response.timings.total),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_hier(
    topology: &Topology,
    collective: Collective,
    flags: &HashMap<String, String>,
) -> Result<ExitCode, Error> {
    let groups = match flags.get("groups") {
        None => GroupSpec::Auto,
        Some(spec) => GroupSpec::parse(spec).map_err(|e| Error::Flag {
            flag: "groups".to_string(),
            message: e.to_string(),
        })?,
    };
    let pick = match flags.get("pick") {
        None => sccl::hier::EntryPick::Latency,
        Some(value) => sccl::hier::EntryPick::parse(value).ok_or_else(|| Error::Flag {
            flag: "pick".to_string(),
            message: format!("invalid pick `{value}` (latency | bandwidth)"),
        })?,
    };
    let config = synthesis_config(flags, 120)?;
    let engine = build_engine(flags, None, None)?;
    let mut request = HierRequest::new(topology, collective)
        .with_groups(groups)
        .with_config(config);
    if pick == sccl::hier::EntryPick::Bandwidth {
        request = request.pick_bandwidth();
    }
    let deadline_ms = get_usize(flags, "deadline-ms", 0)?;
    if let Some(at) = deadline_after(deadline_ms) {
        request = request.with_deadline(at);
    }
    let response = match engine.synthesize_hier(request) {
        Ok(response) => response,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if response.degraded {
        // Keep stdout clean for --json consumers; the degradation notice
        // is diagnostic, not part of the summary (and the composition is
        // still verified — degraded means possibly suboptimal stages).
        eprintln!(
            "deadline of {deadline_ms}ms expired: {} stage(s) picked from partial frontiers (degraded)",
            response.stats.degraded_stages
        );
    }
    if flags.contains_key("json") {
        let json = serde_json::to_string_pretty(&response.summary()).expect("summaries serialize");
        println!("{json}");
        return Ok(ExitCode::SUCCESS);
    }
    let alg = &response.algorithm;
    println!(
        "{} on {} ({} nodes): {} groups of {:?} ({} structural class{})",
        alg.collective,
        alg.topology_name,
        alg.num_nodes,
        response.partition.num_groups,
        response.partition.group_sizes,
        response.partition.classes,
        if response.partition.classes == 1 {
            ""
        } else {
            "es"
        },
    );
    for stage in &alg.stages {
        println!(
            "  {:<20} {:<7} {:<12} x{:<3} lanes={:<4} steps {:>2}..{:<3} rounds {}",
            stage.name,
            stage.level.to_string(),
            stage.collective.to_string(),
            stage.instances,
            stage.lanes,
            stage.step_offset,
            stage.step_offset + stage.steps,
            stage.rounds,
        );
    }
    let cost = alg.cost();
    println!(
        "composed: S={} R={} C={} over {} sends; verified against the {} pre/post relation",
        cost.steps,
        cost.rounds,
        cost.chunks,
        alg.composed.sends.len(),
        alg.collective,
    );
    println!(
        "{} stage solves ({} from cache) in {:.2?}",
        response.stats.stage_solves, response.stats.cache_hits, response.elapsed,
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_batch(flags: &HashMap<String, String>, warmup: bool) -> Result<ExitCode, Error> {
    let Some(manifest_path) = flags.get("manifest") else {
        return Err(Error::Flag {
            flag: "manifest".to_string(),
            message: "required".to_string(),
        });
    };
    let text = std::fs::read_to_string(manifest_path).map_err(|e| {
        Error::Manifest(sccl_sched::ManifestError {
            line: 0,
            message: format!("cannot read {manifest_path}: {e}"),
        })
    })?;
    let jobs = parse_manifest(&text)?;
    if jobs.is_empty() {
        return Err(Error::Manifest(sccl_sched::ManifestError {
            line: 0,
            message: "manifest contains no jobs".to_string(),
        }));
    }

    let config = synthesis_config(flags, 120)?;
    // `warmup` is batch whose whole point is the cache: default the
    // directory rather than requiring the flag.
    let default_cache = warmup.then_some(".sccl-cache");
    let engine = build_engine(flags, default_cache, None)?;
    let report = engine.run_batch(&jobs, Some(&config));
    print_batch_report(&report, &engine, warmup);
    if report.failures() > 0 {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<ExitCode, Error> {
    // The search flags become the daemon's synthesis defaults; each wire
    // request may override max-steps/max-chunks/k per call.
    let config = synthesis_config(flags, 120)?;
    let engine = build_engine(flags, None, Some(config))?;
    let defaults = ServeConfig::default();
    let serve_config = ServeConfig {
        queue_capacity: get_usize(flags, "queue", defaults.queue_capacity)?,
        workers: get_usize(flags, "workers", defaults.workers)?,
        per_client_inflight: get_usize(flags, "per-client", defaults.per_client_inflight)?,
        memory_budget_cells: get_usize(flags, "memory-budget", defaults.memory_budget_cells)?,
        hot_capacity: get_usize(flags, "hot", defaults.hot_capacity)?,
        rate_limit_per_sec: get_f64(flags, "rate-limit", defaults.rate_limit_per_sec)?,
        rate_limit_burst: get_usize(flags, "rate-burst", defaults.rate_limit_burst as usize)?
            as u32,
        brownout_deadline_ms: get_usize(
            flags,
            "brownout-deadline-ms",
            defaults.brownout_deadline_ms as usize,
        )? as u64,
    };
    let socket = flags
        .get("socket")
        .map(String::as_str)
        .unwrap_or(".sccl-serve.sock");
    let server = Server::start(engine, serve_config)?;
    let daemon = Daemon::bind(socket, server)?;
    println!("sccl-serve: listening on {socket}");
    // Blocks until a `shutdown`/`drain` wire verb or SIGTERM arrives;
    // drains admitted jobs and removes the socket file before returning.
    daemon.wait();
    println!("sccl-serve: stopped");
    Ok(ExitCode::SUCCESS)
}

fn cmd_client(flags: &HashMap<String, String>) -> Result<ExitCode, Error> {
    let socket = flags
        .get("socket")
        .map(String::as_str)
        .unwrap_or(".sccl-serve.sock");
    // Layered retry policy: built-in default, then SCCL_RETRY
    // (`attempts,base_ms,max_ms`), then individual flags.
    let env = RetryPolicy::from_env();
    let retry = RetryPolicy {
        attempts: get_usize(flags, "retry-attempts", env.attempts as usize)? as u32,
        base_delay: Duration::from_millis(get_usize(
            flags,
            "retry-base-ms",
            env.base_delay.as_millis() as usize,
        )? as u64),
        max_delay: Duration::from_millis(get_usize(
            flags,
            "retry-max-ms",
            env.max_delay.as_millis() as usize,
        )? as u64),
    };
    let mut client = ServeClient::connect(socket)
        .map_err(Error::Cache)?
        .with_retry(retry);
    let verb = flags.get("verb").map(String::as_str).unwrap_or("health");
    let response = match verb {
        "health" => client.health(),
        "metrics" => client.metrics(),
        "drain" => client.drain(),
        "shutdown" => client.shutdown(),
        "synthesize" => {
            let (Some(topology), Some(collective)) =
                (flags.get("topology"), flags.get("collective"))
            else {
                return Err(Error::Flag {
                    flag: "topology".to_string(),
                    message: "--verb synthesize requires --topology and --collective".to_string(),
                });
            };
            client.synthesize(WireSynthesize::new(topology, collective).with_client("sccl-cli"))
        }
        other => {
            return Err(Error::Flag {
                flag: "verb".to_string(),
                message: format!(
                    "unknown verb `{other}` (synthesize | metrics | health | drain | shutdown)"
                ),
            })
        }
    }
    .map_err(Error::Cache)?;
    let failed = matches!(response, WireResponse::Error { .. });
    println!(
        "{}",
        serde_json::to_string_pretty(&response).expect("wire responses serialize")
    );
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn print_batch_report(report: &BatchReport, engine: &Engine, warmup: bool) {
    for result in &report.results {
        let source = if result.from_cache { "cache" } else { "solved" };
        match &result.outcome {
            Ok(synthesis) => println!(
                "  {:<12} {:<22} {:>2} entries  {:<7} {:>10.2?}  {}",
                result.job.topology_spec,
                synthesis.collective.to_string(),
                synthesis.entries.len(),
                source,
                result.elapsed,
                match synthesis.termination {
                    TerminationReason::BandwidthOptimal => "complete",
                    other => other.describe(),
                },
            ),
            Err(e) => println!(
                "  {:<12} {:<22} FAILED: {e}",
                result.job.topology_spec,
                result.job.collective.to_string(),
            ),
        }
    }
    println!(
        "{}: {} jobs in {:.2?} ({:.2} jobs/s): {} solved, {} from cache, {} failed, {} frontier entries",
        if warmup { "warmup" } else { "batch" },
        report.results.len(),
        report.wall_time,
        report.throughput(),
        report.solved(),
        report.cache_hits(),
        report.failures(),
        report.total_entries(),
    );
    if let Some(cache) = engine.cache() {
        let stats = cache.stats();
        println!(
            "cache: {} entries at {} ({} hits, {} misses, {} stores this run)",
            cache.len(),
            cache.root().display(),
            stats.hits,
            stats.misses,
            stats.stores,
        );
    }
}
