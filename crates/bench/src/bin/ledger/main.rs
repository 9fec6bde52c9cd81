//! `ledger`: one benchmark that prices synthesis, serving and composition
//! end to end and layer by layer. See `README.md` beside this file for the
//! metric definitions, the workloads and how to read the output.
//!
//! ```bash
//! cargo build --release -p sccl --bin sccl
//! cargo run --release -p sccl-bench --bin ledger -- run --workload serve-hot --seed 1
//! cargo run --release -p sccl-bench --bin ledger -- run --workload serve-hot --seed 1 --trace
//! cargo run --release -p sccl-bench --bin ledger -- all --seed 1
//! cargo run --release -p sccl-bench --bin ledger -- check --seed 1
//! ```

mod checker;
mod gen;
mod golden;
mod metrics;
mod procfs;
mod serve;
mod synth;
mod trace;

use metrics::{Better, Values, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Child, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 5] = [
    "frontier-cold",
    "table4-probes",
    "serve-hot",
    "serve-mixed",
    "hier-compose",
];

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which the runs are
/// sized as ISSUE 11 lays out (`serve-hot` timed for 12 s, 40 000 requests
/// of `serve-mixed`, 4, 2 and 4 synthesis passes). Other values scale them.
pub const DEFAULT_SECONDS: f64 = 12.0;
/// No run of one workload may hang the harness: past this the children are
/// killed, the scratch directory removed and the process exits non-zero.
const HARD_TIMEOUT: Duration = Duration::from_secs(150);

#[derive(Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `sccl` binary beside this one.
    pub sccl: PathBuf,
    /// `<target>/ledger/<pid>/`: daemon sockets, caches, journals. On the
    /// real filesystem (never tmpfs: the journal's fsyncs are the point)
    /// and removed on every exit path.
    pub scratch: PathBuf,
    /// `<target>/ledger/`: where trace files are left.
    pub out_dir: PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted, and those the program gave up on: an error, a
    /// refusal or a degraded answer. A probe or sweep that ran out of its
    /// conflict budget did what it was asked; it lowers `decided_share`
    /// and is not counted here.
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub notes: Vec<String>,
    /// Hash of everything generated from the seed.
    pub schedule_hash: u64,
}

// ---------------------------------------------------------------------
// Children and scratch: gone on every exit path
// ---------------------------------------------------------------------

static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());
static SCRATCH: Mutex<Option<PathBuf>> = Mutex::new(None);
/// When the workload now running must have finished; `None` between runs.
static DEADLINE: Mutex<Option<Instant>> = Mutex::new(None);

/// Every daemon the ledger spawns is registered here, so whichever way the
/// process ends — return, error, panic, hard timeout — `clean_up` finds it.
pub fn children() -> MutexGuard<'static, Vec<Child>> {
    CHILDREN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Wait for child `pid` to exit on its own; kill it if it does not.
pub fn reap(pid: u32) {
    let mut children = children();
    let Some(at) = children.iter().position(|c| c.id() == pid) else {
        return;
    };
    let mut child = children.swap_remove(at);
    drop(children);
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if matches!(child.try_wait(), Ok(Some(_))) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();
}

fn clean_up() {
    for mut child in children().drain(..) {
        let _ = child.kill();
        let _ = child.wait();
    }
    let scratch = SCRATCH
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .take();
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(&dir);
        // Removing tens of thousands of journal and cache files leaves the
        // filesystem work to do. Commit it now, on this run's time: left
        // pending, it lands in the next run's measurements.
        if let Some(parent) = dir.parent() {
            if let Ok(handle) = std::fs::File::open(parent) {
                let _ = handle.sync_all();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Running and printing
// ---------------------------------------------------------------------

fn set_deadline(deadline: Option<Instant>) {
    *DEADLINE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = deadline;
}

/// Enforces [`HARD_TIMEOUT`] from a thread of its own.
fn watchdog() {
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let deadline = *DEADLINE
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if deadline.is_some_and(|deadline| Instant::now() > deadline) {
            eprintln!("ledger: run exceeded {HARD_TIMEOUT:?}; killing children and giving up");
            clean_up();
            std::process::exit(3);
        }
    }
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    // `all` and `check` run several workloads in one process: each gets a
    // scratch directory of its own (a disk cache left by the last run would
    // turn this run's misses into hits) and a peak-memory reading of its
    // own (writing 5 to clear_refs resets this process's VmHWM).
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let args = Args {
        scratch: args.scratch.join(format!("run-{run}")),
        ..args.clone()
    };
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("creating {}: {e}", args.scratch.display()))?;
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    set_deadline(Some(Instant::now() + HARD_TIMEOUT));
    let outcome = match name {
        "frontier-cold" | "table4-probes" | "hier-compose" => synth::run(name, &args),
        "serve-hot" | "serve-mixed" => serve::run(name, &args),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    };
    set_deadline(None);
    outcome
}

fn environment(args: &Args) -> String {
    format!(
        "nproc {} | /proc clock tick assumed {} Hz | scratch {} on {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        procfs::CLOCK_TICK_HZ,
        args.scratch.display(),
        procfs::filesystem_type(&args.scratch)
    )
}

/// Print every metric of the run by name with its unit, then the one JSON
/// line the contract asks for.
fn print(name: &str, args: &Args, outcome: &Outcome) -> Result<(), String> {
    println!(
        "workload {name} | seed {} | trace {}",
        args.seed, args.trace
    );
    println!("{}", environment(args));
    println!("schedule_hash {:016x}", outcome.schedule_hash);
    println!(
        "ops_attempted {} | ops_failed {}",
        outcome.attempted, outcome.failed
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let mut json = Vec::new();
    let mut not_finite = Vec::new();
    let mut row = |metric: &str, unit: &str, better: Better, in_scope: bool, value: f64| {
        if !value.is_finite() {
            not_finite.push(metric.to_string());
        }
        let better = match better {
            Better::Lower => "lower is better",
            Better::Higher => "higher is better",
        };
        // ISSUE 11 defines some metrics on some workloads only; the
        // harness wants a number everywhere, so the rest carry a stand-in.
        let scope = if in_scope {
            ""
        } else {
            " | n/a on this workload: a stand-in (see README)"
        };
        println!("{metric:<36} {value:>18.6} {unit:<6} {better}{scope}");
        json.push(format!(
            "\"{metric}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    };
    if args.trace {
        // A layer that did no work in this workload reads 0.
        for m in PER_LAYER {
            row(
                m.name,
                m.unit,
                m.better,
                true,
                outcome.values.get(m.name).unwrap_or(0.0),
            );
        }
        let unattributed = outcome
            .values
            .get("trace.unattributed_share")
            .unwrap_or(0.0);
        if unattributed > 0.10 {
            println!(
                "warning: {:.1}% of front-door wall time is not under any layer span",
                unattributed * 100.0
            );
        }
    } else {
        for m in END_TO_END {
            let value = outcome
                .values
                .get(m.name)
                .ok_or_else(|| format!("{name} did not measure {}", m.name))?;
            row(m.name, m.unit, m.better, m.in_scope(name), value);
        }
    }
    if !not_finite.is_empty() {
        return Err(format!("{name}: no finite value for {not_finite:?}"));
    }
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(",")
    );
    Ok(())
}

/// The self-agreement test: every workload twice on one seed. End-to-end
/// metrics must agree within their bounds; exact metrics and counts must
/// repeat exactly. Prints each spread, so the bounds are measured.
fn check(args: &mut Args) -> Result<(), String> {
    const EXACT_COUNTS: [&str; 3] = [
        "solver.conflicts",
        "core.pareto.solve_calls",
        "serve.solved",
    ];
    let mut disagreements = Vec::new();
    for name in WORKLOADS {
        let mut runs = Vec::new();
        for trace in [false, false, true, true] {
            args.trace = trace;
            runs.push(run_workload(name, args)?);
        }
        println!("check {name}: seed {}", args.seed);
        if runs[0].schedule_hash != runs[1].schedule_hash {
            disagreements.push(format!("{name}: schedule hash differs between runs"));
        }
        for m in END_TO_END {
            let (a, b) = (runs[0].values.get(m.name), runs[1].values.get(m.name));
            let (Some(a), Some(b)) = (a, b) else {
                return Err(format!("{name} did not measure {}", m.name));
            };
            let worse = match m.better {
                Better::Lower => a.max(b) / a.min(b) - 1.0,
                Better::Higher => 1.0 - a.min(b) / a.max(b),
            };
            println!(
                "  {:<24} {a:>16.6} {b:>16.6} {:<6} spread {:>8.4} bound {}",
                m.name, m.unit, worse, m.bound
            );
            // setup_s is bounded between medians of many runs, not between
            // two; its spread is printed and not held to the bound here.
            if worse > m.bound && m.name != "setup_s" {
                disagreements.push(format!(
                    "{name}: {} differs by {worse:.4}, bound {}",
                    m.name, m.bound
                ));
            }
        }
        for count in EXACT_COUNTS {
            let (a, b) = (runs[2].values.get(count), runs[3].values.get(count));
            println!(
                "  {count:<24} {:>16} {:>16} count",
                a.unwrap_or(0.0),
                b.unwrap_or(0.0)
            );
            if a != b {
                disagreements.push(format!("{name}: {count} is {a:?} then {b:?}"));
            }
        }
    }
    if disagreements.is_empty() {
        println!("check: every workload agrees with itself");
        Ok(())
    } else {
        Err(format!("check failed:\n  {}", disagreements.join("\n  ")))
    }
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

const USAGE: &str = "usage: ledger run --workload <name> [--seed N] [--seconds N] [--trace [0|1]]
       ledger all [--seed N] [--seconds N] [--trace [0|1]]
       ledger check [--seed N] [--seconds N]";

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().ok_or("no command")?,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut rest = args[1..].iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| rest.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            // `--trace` alone switches tracing on; `--trace 0|1` says which.
            "--trace" => {
                cli.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if cfg!(debug_assertions) {
        return Err("ledger measures optimized builds only: rebuild with --release".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("the ledger binary has no parent directory")?;
    let sccl = bin_dir.join("sccl");
    if !sccl.is_file() {
        return Err(format!(
            "{} is missing: build the program under test first with \
             `cargo build --release -p sccl --bin sccl`",
            sccl.display()
        ));
    }
    let out_dir = bin_dir.parent().unwrap_or(bin_dir).join("ledger");
    let scratch = out_dir.join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    *SCRATCH.lock().expect("nothing has panicked yet") = Some(scratch.clone());
    let mut args = Args {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        sccl,
        scratch,
        out_dir,
    };

    std::thread::spawn(watchdog);

    match cli.command.as_str() {
        "run" => {
            let name = cli
                .workload
                .ok_or(format!("run needs --workload\n{USAGE}"))?;
            let outcome = run_workload(&name, &args)?;
            print(&name, &args, &outcome)
        }
        "all" => {
            for name in WORKLOADS {
                let outcome = run_workload(name, &args)?;
                print(name, &args, &outcome)?;
            }
            Ok(())
        }
        "check" => check(&mut args),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        clean_up();
    }));
    let result = real_main();
    clean_up();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::FAILURE
        }
    }
}
