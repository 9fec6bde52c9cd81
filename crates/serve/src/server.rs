//! The serving core: a bounded request queue drained by a std-thread
//! worker pool, fronted by admission control and the lock-free
//! [`HotTier`]. The daemon's socket layer is a thin shell over this —
//! everything testable lives here, in-process.
//!
//! # Admission
//!
//! A `synthesize` submission is either *served inline* (hot-tier hit),
//! *admitted* (queued, returning a [`Ticket`] the caller blocks on) or
//! *rejected immediately* with a typed [`ServeError`] — the queue never
//! grows past its bound and a rejected caller is never left hanging:
//!
//! * **queue capacity** — at most `queue_capacity` jobs waiting;
//! * **per-client quota** — at most `per_client_inflight` admitted jobs
//!   per client identity (queued or solving), so one greedy load
//!   generator cannot starve the fleet;
//! * **global memory budget** — every admitted job reserves an estimate
//!   of its solver footprint (in encoder cells: variables + clauses)
//!   against `memory_budget_cells`;
//!   jobs that would push the reservation past the budget are rejected.
//!   A job whose own estimate exceeds the whole budget is still admitted
//!   when nothing else is running — the budget caps *concurrent* memory,
//!   it must not make any single problem permanently unserveable.
//!
//! Workers drain the queue in FIFO order, solve through the shared
//! [`Engine`] (one memo of decided candidates and one on-disk cache
//! across all workers), publish results into the hot tier and complete tickets.

use crate::hot::{HotEntry, HotTier, KeyMemo};
use crate::metrics::{EngineMetrics, FaultGauges, HotTierGauges, MetricsSnapshot, RegistryGauges};
use crate::wire::WireTimings;
use sccl_collectives::Collective;
use sccl_core::incremental::IncrementalStats;
use sccl_core::pareto::{SynthesisConfig, SynthesisReport};
use sccl_hier::{HierError, HierRequest, HierSummary, Partition};
use sccl_sched::{CacheKey, Engine, Error, Provenance, SolveMode, SynthesisRequest};
use sccl_topology::Topology;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Knobs of the serving core (and daemon).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Most jobs allowed to wait in the queue (admitted-but-unstarted).
    pub queue_capacity: usize,
    /// Worker threads draining the queue; `0` means one per available
    /// core.
    pub workers: usize,
    /// Most admitted (queued or solving) jobs per client identity.
    pub per_client_inflight: usize,
    /// Global cap on the estimated solver memory (encoder cells) of all
    /// admitted jobs together.
    pub memory_budget_cells: usize,
    /// Entries retained by the in-memory hot tier (`0` disables it).
    pub hot_capacity: usize,
    /// Per-client token-bucket refill rate, in requests per second.
    /// `0.0` (the default) disables rate limiting entirely — a clean-path
    /// daemon serves every request and reports `rate_limited == 0`.
    pub rate_limit_per_sec: f64,
    /// Token-bucket burst capacity: how many requests a client may fire
    /// back-to-back before the refill rate governs. Ignored while rate
    /// limiting is disabled.
    pub rate_limit_burst: u32,
    /// Effective wall-clock deadline (milliseconds) the brownout
    /// controller imposes on admitted jobs while active — under sustained
    /// overload the daemon degrades to partial-frontier answers before it
    /// starts rejecting. `0` disables the tightening (brownout then only
    /// reports through `health`/metrics).
    pub brownout_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            workers: 0,
            per_client_inflight: 4,
            memory_budget_cells: 64 << 20,
            hot_capacity: 256,
            rate_limit_per_sec: 0.0,
            rate_limit_burst: 8,
            brownout_deadline_ms: 2_000,
        }
    }
}

impl ServeConfig {
    /// Reject nonsense knob values with [`Error::Config`], mirroring
    /// [`sccl_sched::EngineBuilder::build`]: a zero-slot queue or a
    /// zero-job quota would reject every request, and a zero-cell budget
    /// could never admit a solve.
    fn validate(&self) -> Result<(), Error> {
        if self.queue_capacity == 0 {
            return Err(Error::Config {
                field: "queue_capacity",
                message: "a 0-slot queue rejects every request".to_string(),
            });
        }
        if self.per_client_inflight == 0 {
            return Err(Error::Config {
                field: "per_client_inflight",
                message: "a 0-job quota rejects every client".to_string(),
            });
        }
        if self.memory_budget_cells == 0 {
            return Err(Error::Config {
                field: "memory_budget_cells",
                message: "a 0-cell budget cannot admit any solve".to_string(),
            });
        }
        if !self.rate_limit_per_sec.is_finite() || self.rate_limit_per_sec < 0.0 {
            return Err(Error::Config {
                field: "rate_limit_per_sec",
                message: "the refill rate must be a finite, non-negative number \
                          (0 disables rate limiting)"
                    .to_string(),
            });
        }
        if self.rate_limit_per_sec > 0.0 && self.rate_limit_burst == 0 {
            return Err(Error::Config {
                field: "rate_limit_burst",
                message: "a 0-token burst rejects every request; set burst >= 1 \
                          or disable rate limiting"
                    .to_string(),
            });
        }
        Ok(())
    }
}

/// Why a submission was turned away or failed. Every variant carries
/// enough to tell the client what limit it hit and where it stood.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue is full.
    QueueFull { depth: usize, capacity: usize },
    /// The client has too many admitted jobs already.
    ClientQuota {
        client: String,
        inflight: usize,
        limit: usize,
    },
    /// Admitting the job would exceed the global solver-memory budget.
    MemoryBudget {
        requested_cells: usize,
        reserved_cells: usize,
        budget_cells: usize,
    },
    /// The client's token bucket ran dry; retry after the hinted delay.
    RateLimited {
        client: String,
        /// Milliseconds until the bucket refills enough for one request.
        retry_after_ms: u64,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// The request's deadline expired before *anything* was solved. (A
    /// deadline that cuts a partially solved frontier is not an error:
    /// the partial report is served with [`Served::degraded`] set.)
    Deadline { deadline_ms: u64 },
    /// The job's solve panicked; the worker caught the panic (the solve
    /// had stored nothing) and kept serving. Nothing about the
    /// request itself is known to be wrong — a retry may succeed.
    WorkerLost,
    /// The engine failed to synthesize (the underlying
    /// [`sccl_sched::Error`], stringified — admission errors are the
    /// typed variants above).
    Synthesis { message: String },
    /// A frontier entry failed decode-time verification against the
    /// collective's pre/post relation. The offending cache entry (if the
    /// report came from disk) has been quarantined.
    VerifyFailed { message: String },
    /// The request itself is malformed — a partition that doesn't cover
    /// the topology, a collective with no composition rule. A client
    /// error (`bad_request` on the wire), not a serving failure; a retry
    /// of the same request can never succeed.
    BadRequest { message: String },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth, capacity } => {
                write!(f, "request queue full ({depth} of {capacity} slots)")
            }
            ServeError::ClientQuota {
                client,
                inflight,
                limit,
            } => write!(
                f,
                "client `{client}` has {inflight} jobs in flight (limit {limit})"
            ),
            ServeError::MemoryBudget {
                requested_cells,
                reserved_cells,
                budget_cells,
            } => write!(
                f,
                "solve needs ~{requested_cells} encoder cells but {reserved_cells} of \
                 {budget_cells} are already reserved"
            ),
            ServeError::RateLimited {
                client,
                retry_after_ms,
            } => write!(
                f,
                "client `{client}` is rate limited; retry after {retry_after_ms}ms"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Deadline { deadline_ms } => {
                write!(
                    f,
                    "deadline of {deadline_ms}ms expired before anything was solved"
                )
            }
            ServeError::WorkerLost => {
                write!(
                    f,
                    "the worker solving this job panicked; the job was abandoned"
                )
            }
            ServeError::Synthesis { message } => write!(f, "{message}"),
            ServeError::VerifyFailed { message } => {
                write!(f, "decode-time verification failed: {message}")
            }
            ServeError::BadRequest { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Rough solver-memory footprint of one synthesis problem, in encoder
/// cells (variables + clauses). The SMT
/// encoding is dominated by per-(chunk, node, step) send variables and
/// their link constraints, so the estimate scales as
/// `nodes² × max_chunks × max_steps`; the constant is calibrated so a
/// 4-ring at chunks 4 / steps 6 lands in the tens of thousands, matching
/// observed encoder sizes within an order of magnitude — all admission
/// needs.
/// The product saturates at `usize::MAX` instead of silently wrapping on
/// huge (e.g. hierarchical) topologies: a wrapped estimate could admit an
/// enormous solve as nearly free. A saturated estimate is over budget next
/// to anything else but still admissible alone, per the lone-job rule.
pub fn solve_estimate_cells(topology: &Topology, config: &SynthesisConfig) -> usize {
    let n = topology.num_nodes().max(2);
    n.checked_mul(n)
        .and_then(|cells| cells.checked_mul(config.max_chunks.max(1)))
        .and_then(|cells| cells.checked_mul(config.max_steps.max(1)))
        .and_then(|cells| cells.checked_mul(64))
        .unwrap_or(usize::MAX)
}

/// Where a served report came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedFrom {
    /// The in-memory hot tier (served inline, never queued).
    HotTier,
    /// The on-disk algorithm cache.
    DiskCache,
    /// Freshly solved in the given mode.
    Solved(SolveMode),
}

/// A successfully served `synthesize` submission.
#[derive(Clone, Debug)]
pub struct Served {
    /// The frontier (shared with the hot tier).
    pub report: Arc<SynthesisReport>,
    /// Which tier answered.
    pub from: ServedFrom,
    /// Per-stage wall-clock, queue wait included.
    pub timings: WireTimings,
    /// Warm-sweep accounting (`None` for cache and hot-tier answers).
    pub incremental: Option<IncrementalStats>,
    /// `true` when the request's deadline expired mid-solve and `report`
    /// is the partial frontier found before the cut. Degraded reports are
    /// never persisted or hot-tier cached — a later request re-solves.
    pub degraded: bool,
    /// `report` with its once-rendered wire payload: the hot tier's own
    /// slot unless the answer is degraded, so whichever response renders
    /// the payload first renders it for every later hot hit.
    entry: Arc<HotEntry>,
}

impl Served {
    /// `report` as the wire carries it (`serde_json::to_string(report)`),
    /// rendered at most once for the life of the hot-tier entry.
    pub fn payload(&self) -> Arc<str> {
        self.entry.payload()
    }
}

/// The outcome a [`Ticket`] resolves to.
pub type Outcome = Result<Served, ServeError>;

/// A successfully served hierarchical submission. The composition is
/// carried as its compact [`HierSummary`] — exactly what the wire
/// serializes — rather than the full stitched algorithm.
#[derive(Clone, Debug)]
pub struct HierServed {
    /// The verified composition's reporting view.
    pub summary: HierSummary,
    /// Per-stage wall-clock, queue wait included.
    pub timings: WireTimings,
    /// At least one stage used a partial frontier because the request's
    /// deadline expired mid-search. The composition is still verified —
    /// degraded means possibly suboptimal, never unsound.
    pub degraded: bool,
}

/// The outcome a [`HierTicket`] resolves to.
pub type HierOutcome = Result<HierServed, ServeError>;

/// Completion slot shared by a ticket and the worker resolving it.
struct Slot<T> {
    outcome: Mutex<Option<T>>,
    done: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Arc<Slot<T>> {
        Arc::new(Slot {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn complete(&self, outcome: T) {
        *self.outcome.lock().expect("ticket lock") = Some(outcome);
        self.done.notify_all();
    }

    fn is_resolved(&self) -> bool {
        self.outcome
            .lock()
            .map(|slot| slot.is_some())
            .unwrap_or(false)
    }

    fn wait(&self) -> T {
        let mut slot = self.outcome.lock().expect("ticket lock");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.done.wait(slot).expect("ticket wait");
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.outcome.lock().expect("ticket lock");
        loop {
            if let Some(outcome) = slot.take() {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            slot = self
                .done
                .wait_timeout(slot, deadline - now)
                .expect("ticket wait")
                .0;
        }
    }
}

type TicketState = Slot<Outcome>;
type HierTicketState = Slot<HierOutcome>;

/// A completion handle for one admitted job. [`Ticket::wait`] blocks
/// until a worker resolves it.
pub struct Ticket {
    state: Arc<TicketState>,
    wants_journal_record: bool,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("resolved", &self.state.is_resolved())
            .field("wants_journal_record", &self.wants_journal_record)
            .finish()
    }
}

impl Ticket {
    fn pair(wants_journal_record: bool) -> (Ticket, Arc<TicketState>) {
        let state = Slot::new();
        let ticket = Ticket {
            state: Arc::clone(&state),
            wants_journal_record,
        };
        (ticket, state)
    }

    fn resolved(outcome: Outcome) -> Ticket {
        let (ticket, state) = Ticket::pair(false);
        state.complete(outcome);
        ticket
    }

    /// `true` when a crash before this ticket resolves could lose work a
    /// journal record would recover: the engine carries a journal, and the
    /// job may run a solve — it missed the hot tier and the disk cache
    /// does not index its key. A ticket a cache tier will answer says
    /// `false`; replaying its record would be a lookup whose result is
    /// thrown away (see the daemon's module docs for what that gives up).
    pub fn wants_journal_record(&self) -> bool {
        self.wants_journal_record
    }

    /// Block until the job completes and take its outcome.
    pub fn wait(self) -> Outcome {
        self.state.wait()
    }

    /// Block until the job completes or `timeout` elapses. Returns `None`
    /// on timeout, leaving the ticket usable — call again or [`Ticket::wait`]
    /// to keep waiting. A belt-and-braces bound for callers that cannot
    /// afford to trust worker liveness (workers already complete tickets
    /// with [`ServeError::WorkerLost`] when a solve panics).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        self.state.wait_timeout(timeout)
    }
}

/// A completion handle for one admitted hierarchical job — the same
/// contract as [`Ticket`], resolving to a [`HierServed`] composition.
/// There is no cache tier for whole compositions, so every admitted one
/// may solve and is worth a journal record.
pub struct HierTicket(Arc<HierTicketState>);

impl std::fmt::Debug for HierTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierTicket")
            .field("resolved", &self.0.is_resolved())
            .finish()
    }
}

impl HierTicket {
    fn pair() -> (HierTicket, Arc<HierTicketState>) {
        let state = Slot::new();
        (HierTicket(Arc::clone(&state)), state)
    }

    /// Block until the composition completes and take its outcome.
    pub fn wait(self) -> HierOutcome {
        self.0.wait()
    }

    /// Block until the composition completes or `timeout` elapses
    /// (`None` on timeout, ticket still usable — see
    /// [`Ticket::wait_timeout`]).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<HierOutcome> {
        self.0.wait_timeout(timeout)
    }
}

/// What [`Server::front_gates`] made of a flat submission.
pub(crate) enum Front {
    /// The hot tier answered; nothing was queued.
    Hot(Served),
    /// Every gate passed and the tier does not hold the key.
    Miss(PastGates),
}

/// Proof that a flat submission passed [`Server::front_gates`] — counted,
/// not draining, a token spent — and missed the hot tier: the only way
/// into [`Server::enqueue_flat`], so no job reaches the queue around the
/// gates or through them twice.
pub(crate) struct PastGates {
    key_hash: String,
    submitted: Instant,
}

/// What an admitted job actually solves: a flat synthesis problem or a
/// hierarchical composition. Both kinds share one queue, one worker
/// pool and one reservation ledger — drain, quotas and the memory
/// budget cannot tell them apart, which is the point.
enum JobWork {
    Flat {
        request: SynthesisRequest,
        key_hash: String,
        ticket: Arc<TicketState>,
    },
    Hier {
        request: HierRequest,
        ticket: Arc<HierTicketState>,
    },
}

/// One admitted job, queued for a worker.
struct Job {
    work: JobWork,
    client: String,
    reserved_cells: usize,
    submitted: Instant,
    /// Wall-clock budget measured from `submitted` — queue wait counts
    /// against it. `None` means unbounded.
    deadline: Option<Duration>,
}

/// State behind the queue lock.
struct QueueState {
    queue: VecDeque<Job>,
    /// Admitted (queued or solving) jobs per client identity.
    inflight: HashMap<String, usize>,
    /// Estimated cells of all admitted jobs.
    reserved_cells: usize,
}

/// One client's token bucket: `tokens` refills continuously at the
/// configured rate up to the burst capacity; each admission spends one.
struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

/// The server's liveness as reported by the `health` wire verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Health {
    /// Admission has stopped (a drain or shutdown is in progress);
    /// in-flight jobs are still being finished.
    pub draining: bool,
    /// The brownout controller is active: queue depth or memory
    /// reservations crossed 3/4 of their bound and have not yet fallen
    /// back below 1/2.
    pub browned_out: bool,
}

impl Health {
    /// The single-word state the wire reports: draining wins over
    /// browned-out (a draining server stops admitting regardless of
    /// load), and a healthy idle server is simply ready.
    pub fn state(&self) -> &'static str {
        if self.draining {
            "draining"
        } else if self.browned_out {
            "browned-out"
        } else {
            "ready"
        }
    }
}

/// The in-process serving core. Construct with [`Server::start`]; share
/// via the returned `Arc` (worker threads hold clones).
pub struct Server {
    engine: Arc<Engine>,
    hot: HotTier,
    key_memo: KeyMemo,
    metrics: EngineMetrics,
    config: ServeConfig,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    shutting_down: AtomicBool,
    /// Admission stopped by a graceful drain: in-flight jobs finish and
    /// are answered, new submissions bounce. Orthogonal to
    /// `shutting_down` so `health` can report "draining" while workers
    /// are still alive.
    draining: AtomicBool,
    /// The brownout controller's gauge (see [`Server::update_brownout`]).
    browned_out: AtomicBool,
    /// Per-client token buckets; lazily created, only touched when rate
    /// limiting is enabled.
    buckets: Mutex<HashMap<String, TokenBucket>>,
    /// Journaled queue records replayed at startup (set once by the
    /// daemon after recovery).
    journal_replayed: std::sync::atomic::AtomicU64,
    started: Instant,
    started_unix_ms: u64,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Validate the config, spawn the worker pool and return the shared
    /// serving handle.
    pub fn start(engine: Engine, config: ServeConfig) -> Result<Arc<Server>, Error> {
        config.validate()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        } else {
            config.workers
        };
        let server = Arc::new(Server {
            engine: Arc::new(engine),
            hot: HotTier::new(config.hot_capacity),
            key_memo: KeyMemo::new(config.hot_capacity),
            metrics: EngineMetrics::new(),
            config,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                reserved_cells: 0,
            }),
            work_ready: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            browned_out: AtomicBool::new(false),
            buckets: Mutex::new(HashMap::new()),
            journal_replayed: std::sync::atomic::AtomicU64::new(0),
            started: Instant::now(),
            started_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            handles.push(Self::spawn_worker(&server, i));
        }
        *server.workers.lock().expect("workers lock") = handles;
        Ok(server)
    }

    /// Spawn one worker thread. The thread holds a [`RespawnGuard`]: if it
    /// ever dies by panic (solver panics are caught *inside*
    /// [`Server::run`], so this is the backstop for panics outside that
    /// window — a poisoned lock, a metrics bug), the guard spawns a
    /// replacement so the pool never shrinks silently.
    fn spawn_worker(server: &Arc<Server>, index: usize) -> std::thread::JoinHandle<()> {
        let worker = Arc::clone(server);
        std::thread::Builder::new()
            .name(format!("sccl-serve-{index}"))
            .spawn(move || {
                let _guard = RespawnGuard {
                    server: Arc::clone(&worker),
                    index,
                };
                worker.worker_loop();
            })
            .expect("spawn worker")
    }

    /// The shared engine behind the server.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The serving-layer metrics registry.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The daemon's request → content-hash memo.
    pub(crate) fn key_memo(&self) -> &KeyMemo {
        &self.key_memo
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Snapshot every metric, folding in the hot tier's and the candidate
    /// memo's current occupancy plus the engine's quarantine gauge.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let journal = self.engine.journal();
        self.metrics.snapshot(
            HotTierGauges {
                len: self.hot.len() as u64,
                capacity: self.hot.capacity() as u64,
                resident_bytes: self.hot.resident_bytes() as u64,
                key_memo_hits: self.key_memo.hits(),
            },
            RegistryGauges {
                len: self.engine.memo_len() as u64,
                weight: self.engine.memo_weight() as u64,
            },
            FaultGauges {
                cache_quarantined: self.engine.cache_stats().map_or(0, |s| s.quarantined),
            },
            crate::metrics::DaemonGauges {
                uptime_ms: self.started.elapsed().as_millis() as u64,
                started_unix_ms: self.started_unix_ms,
                journal_replayed: self.journal_replayed.load(Ordering::Relaxed),
                checkpoints_written: journal.map_or(0, |j| j.checkpoints_written()),
                journal_records_written: journal.map_or(0, |j| j.records_written()),
                journal_write_errors: journal.map_or(0, |j| j.write_errors()),
                brownout_active: self.browned_out.load(Ordering::Relaxed),
                draining: self.health().draining,
            },
        )
    }

    /// `true` once [`Server::shutdown`] has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Current liveness, as the `health` wire verb reports it.
    pub fn health(&self) -> Health {
        Health {
            draining: self.draining.load(Ordering::SeqCst) || self.is_shutting_down(),
            browned_out: self.browned_out.load(Ordering::Relaxed),
        }
    }

    /// Stop admitting without stopping the workers: every in-flight job
    /// (queued or solving) still finishes and answers its ticket, new
    /// submissions are rejected with [`ServeError::ShuttingDown`].
    /// The first stage of a graceful drain — callers follow with
    /// [`Server::shutdown`] once waiters have collected their answers.
    pub fn begin_drain(&self) {
        // Chaos hook: a Sleep action stretches the drain window (so kill
        // tests can race it), a Panic simulates dying mid-drain.
        let _ = sccl_core::failpoint::fire("drain");
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Record how many journaled queue records the daemon replayed at
    /// startup (shown in the metrics snapshot).
    pub fn note_journal_replayed(&self, count: u64) {
        self.journal_replayed.store(count, Ordering::Relaxed);
    }

    /// Spend one token from `client`'s bucket, refilling it first. An
    /// empty bucket rejects with a retry-after hint derived from the
    /// refill rate. No-op while rate limiting is disabled.
    fn check_rate_limit(&self, client: &str) -> Result<(), ServeError> {
        let rate = self.config.rate_limit_per_sec;
        if rate <= 0.0 {
            return Ok(());
        }
        let burst = f64::from(self.config.rate_limit_burst);
        let now = Instant::now();
        let mut buckets = self.buckets.lock().expect("bucket lock");
        let bucket = buckets.entry(client.to_string()).or_insert(TokenBucket {
            tokens: burst,
            last_refill: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last_refill);
        bucket.tokens = (bucket.tokens + elapsed.as_secs_f64() * rate).min(burst);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Ok(());
        }
        let deficit = 1.0 - bucket.tokens;
        let retry_after_ms = ((deficit / rate) * 1000.0).ceil() as u64;
        self.metrics.rejected_rate_limited();
        Err(ServeError::RateLimited {
            client: client.to_string(),
            retry_after_ms: retry_after_ms.max(1),
        })
    }

    /// The brownout controller: flips active when queue depth or memory
    /// reservations cross 3/4 of their bound, and only releases once both
    /// fall back below 1/2 — hysteresis so a load hovering at the
    /// threshold doesn't flap the gauge. Called under the queue lock's
    /// results (depth and reservation are a consistent pair).
    fn update_brownout(&self, queue_depth: usize, reserved_cells: usize) {
        let above = |value: usize, bound: usize, num: u128, den: u128| {
            (value as u128) * den >= (bound as u128) * num
        };
        let queue_high = above(queue_depth, self.config.queue_capacity, 3, 4);
        let memory_high = above(reserved_cells, self.config.memory_budget_cells, 3, 4);
        let queue_low = !above(queue_depth, self.config.queue_capacity, 1, 2);
        let memory_low = !above(reserved_cells, self.config.memory_budget_cells, 1, 2);
        if queue_high || memory_high {
            if !self.browned_out.swap(true, Ordering::Relaxed) {
                self.metrics.brownout_entered();
            }
        } else if queue_low && memory_low {
            self.browned_out.store(false, Ordering::Relaxed);
        }
    }

    /// Submit one synthesize job. `config` must already have the
    /// engine's defaults folded in (it is used verbatim for the cache
    /// key, the hot-tier key and the solve). Hot-tier hits are served
    /// inline on the calling thread — the returned ticket is already
    /// resolved; everything else is admitted or rejected per the module
    /// docs.
    pub fn submit(
        &self,
        topology: Topology,
        collective: Collective,
        config: SynthesisConfig,
        mode: Option<SolveMode>,
        client: &str,
    ) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(topology, collective, config, mode, client, None)
    }

    /// [`Server::submit`] with a wall-clock deadline measured from this
    /// call — queue wait counts against it. On expiry the job degrades
    /// gracefully: whatever part of the frontier was solved in time is
    /// served with [`Served::degraded`] set; only a deadline that expires
    /// with *nothing* solved resolves the ticket to
    /// [`ServeError::Deadline`]. Hot-tier and disk-cache hits always
    /// serve complete reports, deadline notwithstanding.
    pub fn submit_with_deadline(
        &self,
        topology: Topology,
        collective: Collective,
        config: SynthesisConfig,
        mode: Option<SolveMode>,
        client: &str,
        deadline: Option<std::time::Duration>,
    ) -> Result<Ticket, ServeError> {
        let key_hash = CacheKey::new(&topology, collective, &config).content_hash();
        match self.front_gates(key_hash, client)? {
            Front::Hot(served) => Ok(Ticket::resolved(Ok(served))),
            Front::Miss(past) => {
                let mut request = SynthesisRequest::new(&topology, collective).with_config(config);
                request.mode = mode;
                self.enqueue_flat(past, request, client, deadline)
            }
        }
    }

    /// The gates every flat submission passes before anything is queued,
    /// in their one order — drain/shutdown, then the client's token bucket,
    /// then the hot tier — with the counters each of them owns. All the
    /// content hash's owner needs to get here is the hash, which is what
    /// lets the daemon answer a memoized request without building its
    /// topology; [`Server::submit_with_deadline`] comes through here too.
    pub(crate) fn front_gates(&self, key_hash: String, client: &str) -> Result<Front, ServeError> {
        self.metrics.synthesize_request();
        if self.is_shutting_down() || self.draining.load(Ordering::SeqCst) {
            self.metrics.rejected_shutdown();
            return Err(ServeError::ShuttingDown);
        }
        // Rate limiting precedes every tier: the token bucket bounds the
        // *request* rate, so hot-tier hits spend tokens too.
        self.check_rate_limit(client)?;
        let submitted = Instant::now();
        let Some(entry) = self.hot.lookup_entry(&key_hash) else {
            return Ok(Front::Miss(PastGates {
                key_hash,
                submitted,
            }));
        };
        self.metrics.hot_hit();
        let total = submitted.elapsed();
        self.metrics.served(total);
        Ok(Front::Hot(Served {
            report: Arc::clone(entry.report()),
            from: ServedFrom::HotTier,
            timings: WireTimings {
                lookup_micros: micros(total),
                total_micros: micros(total),
                ..WireTimings::default()
            },
            incremental: None,
            degraded: false,
            entry,
        }))
    }

    /// Queue a flat job that passed [`Server::front_gates`] and missed the
    /// hot tier: the under-lock admission checks, then a worker's turn.
    /// `request.config` must be the config `past`'s key was hashed from;
    /// `deadline` is measured from the gates, `request.deadline` unused.
    pub(crate) fn enqueue_flat(
        &self,
        past: PastGates,
        request: SynthesisRequest,
        client: &str,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let PastGates {
            key_hash,
            submitted,
        } = past;
        // Only a journaling daemon has use for the answer, so only it
        // pays the index probe.
        let wants_journal_record = self.engine.journal().is_some()
            && !self
                .engine
                .cache()
                .is_some_and(|cache| cache.contains(&key_hash));
        let reserve = solve_estimate_cells(
            &request.topology,
            request.config.as_ref().unwrap_or(self.engine.defaults()),
        );
        let (ticket, ticket_state) = Ticket::pair(wants_journal_record);
        {
            let mut state = self.state.lock().expect("queue lock");
            let deadline = self.admit(&mut state, client, reserve, deadline)?;
            state.queue.push_back(Job {
                work: JobWork::Flat {
                    request,
                    key_hash,
                    ticket: ticket_state,
                },
                client: client.to_string(),
                reserved_cells: reserve,
                submitted,
                deadline,
            });
            self.metrics.queue_depth(state.queue.len());
            self.work_ready.notify_one();
        }
        Ok(ticket)
    }

    /// Submit one hierarchical composition job. The same admission chain
    /// as [`Server::submit`] applies — drain/shutdown, rate limiting,
    /// queue bound, per-client quota, memory budget, brownout deadline
    /// tightening — with the memory reservation sized by the *largest
    /// stage subproblem* (the biggest group or the leader graph at the
    /// stage chunk cap of 1): stages solve serially on one worker, so
    /// that is the job's peak concurrent footprint. `deadline` bounds
    /// the whole composition from this call; queue wait counts against
    /// it. There is no hot-tier lane — compositions are not cached whole;
    /// their stage solves hit the engine's disk cache per group instead.
    pub fn submit_hier(
        &self,
        request: HierRequest,
        client: &str,
        deadline: Option<Duration>,
    ) -> Result<HierTicket, ServeError> {
        self.metrics.synthesize_request();
        self.metrics.hier_request();
        if self.is_shutting_down() || self.draining.load(Ordering::SeqCst) {
            self.metrics.rejected_shutdown();
            return Err(ServeError::ShuttingDown);
        }
        self.check_rate_limit(client)?;
        let submitted = Instant::now();
        // Admission-time partition: sizes the reservation and bounces a
        // malformed carve before it occupies a queue slot. The planner
        // re-partitions when the job runs: one pass over the links each
        // time, ~1 ms at 256 nodes against stage solves of tens of ms.
        let reserve = self.hier_estimate_cells(&request)?;
        let (ticket, ticket_state) = HierTicket::pair();
        {
            let mut state = self.state.lock().expect("queue lock");
            let deadline = self.admit(&mut state, client, reserve, deadline)?;
            state.queue.push_back(Job {
                work: JobWork::Hier {
                    request,
                    ticket: ticket_state,
                },
                client: client.to_string(),
                reserved_cells: reserve,
                submitted,
                deadline,
            });
            self.metrics.queue_depth(state.queue.len());
            self.work_ready.notify_one();
        }
        Ok(ticket)
    }

    /// The under-lock half of admission, shared by flat and hierarchical
    /// submissions: bound the queue, enforce the per-client quota and the
    /// memory budget, record the reservation, and tighten the deadline
    /// while the brownout controller is active. Returns the effective
    /// deadline for the admitted job.
    fn admit(
        &self,
        state: &mut QueueState,
        client: &str,
        reserve: usize,
        deadline: Option<Duration>,
    ) -> Result<Option<Duration>, ServeError> {
        if state.queue.len() >= self.config.queue_capacity {
            self.metrics.rejected_queue_full();
            return Err(ServeError::QueueFull {
                depth: state.queue.len(),
                capacity: self.config.queue_capacity,
            });
        }
        let inflight = state.inflight.get(client).copied().unwrap_or(0);
        if inflight >= self.config.per_client_inflight {
            self.metrics.rejected_client_quota();
            return Err(ServeError::ClientQuota {
                client: client.to_string(),
                inflight,
                limit: self.config.per_client_inflight,
            });
        }
        // The budget caps *concurrent* reservations; a lone job may
        // exceed it so no problem is permanently unserveable.
        if state.reserved_cells > 0
            && state.reserved_cells.saturating_add(reserve) > self.config.memory_budget_cells
        {
            self.metrics.rejected_memory_budget();
            return Err(ServeError::MemoryBudget {
                requested_cells: reserve,
                reserved_cells: state.reserved_cells,
                budget_cells: self.config.memory_budget_cells,
            });
        }
        // Saturating: a lone saturated estimate (huge topology) must
        // not wrap the global reservation around zero.
        state.reserved_cells = state.reserved_cells.saturating_add(reserve);
        *state.inflight.entry(client.to_string()).or_insert(0) += 1;
        self.update_brownout(state.queue.len() + 1, state.reserved_cells);
        // Brownout tightens the effective deadline: under sustained
        // overload admitted jobs degrade to partial-frontier answers
        // (freeing workers sooner) before admission starts rejecting.
        if self.browned_out.load(Ordering::Relaxed) && self.config.brownout_deadline_ms > 0 {
            let cap = Duration::from_millis(self.config.brownout_deadline_ms);
            Ok(Some(deadline.map_or(cap, |d| d.min(cap))))
        } else {
            Ok(deadline)
        }
    }

    /// The memory reservation of one hierarchical job: the largest
    /// [`solve_estimate_cells`] over its group subtopologies and its
    /// leader graph, at the planner's forced per-stage chunk cap of 1.
    /// A partition failure here is a [`ServeError::BadRequest`] — the
    /// carve can never succeed, no queue slot should be spent on it.
    fn hier_estimate_cells(&self, request: &HierRequest) -> Result<usize, ServeError> {
        let partition = Partition::new(&request.topology, &request.groups).map_err(|error| {
            ServeError::BadRequest {
                message: format!("partition: {error}"),
            }
        })?;
        let mut config = request
            .config
            .clone()
            .unwrap_or_else(|| self.engine.defaults().clone());
        config.max_chunks = 1;
        let mut cells = solve_estimate_cells(&partition.leader_topology, &config);
        for group in &partition.groups {
            cells = cells.max(solve_estimate_cells(&group.topology, &config));
        }
        Ok(cells)
    }

    /// Stop admitting, drain the queue (pending jobs are still served),
    /// and join the workers. Idempotent.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.work_ready.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut state = self.state.lock().expect("queue lock");
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        self.metrics.queue_depth(state.queue.len());
                        break job;
                    }
                    if self.is_shutting_down() {
                        return;
                    }
                    state = self.work_ready.wait(state).expect("queue wait");
                }
            };
            self.run(job);
        }
    }

    /// Forward disk-cache evictions (capacity prunes, encoder-version
    /// sweeps) to the hot tier: every hash the engine reports as pruned
    /// is invalidated so the tier never replays a frontier the durable
    /// store no longer backs.
    pub fn drain_pruned(&self) -> usize {
        let mut invalidated = 0;
        for hash in self.engine.take_pruned_hashes() {
            if self.hot.invalidate(&hash) {
                invalidated += 1;
            }
        }
        invalidated
    }

    /// Evict disk-cache entries written by a different encoder version
    /// and invalidate the hot tier's copies. Call after a deploy that
    /// bumped [`sccl_core::encoding::ENCODER_VERSION`] while the daemon
    /// kept running; returns how many stale entries the disk cache
    /// dropped.
    pub fn sweep_stale(&self) -> usize {
        let swept = self.engine.sweep_stale_cache().len();
        self.drain_pruned();
        swept
    }

    /// Solve one admitted job, publish the report, release its admission
    /// reservations and resolve its ticket.
    ///
    /// The solve-and-publish stage runs inside `catch_unwind`: a panicking
    /// solver (which stores nothing in the engine's memo) must not take the reservation accounting or the waiter's ticket down
    /// with it. On a caught panic the ticket resolves to
    /// [`ServeError::WorkerLost`] and the worker keeps draining the queue.
    fn run(&self, job: Job) {
        let Job {
            work,
            client,
            reserved_cells,
            submitted,
            deadline,
        } = job;
        match work {
            JobWork::Flat {
                request,
                key_hash,
                ticket,
            } => {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.execute(request, &key_hash, submitted, deadline)
                }))
                .unwrap_or_else(|_panic| {
                    self.metrics.panic_caught();
                    Err(ServeError::WorkerLost)
                });
                self.finish(&client, reserved_cells, submitted);
                ticket.complete(outcome);
            }
            JobWork::Hier { request, ticket } => {
                // The planner contains stage-solve panics itself (typed
                // `StagePanic`); this outer boundary is the backstop for
                // panics in the stitch/verify machinery around them.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.execute_hier(request, submitted, deadline)
                }))
                .unwrap_or_else(|_panic| {
                    self.metrics.panic_caught();
                    Err(ServeError::WorkerLost)
                });
                self.finish(&client, reserved_cells, submitted);
                ticket.complete(outcome);
            }
        }
    }

    /// Post-execution bookkeeping shared by both job kinds: record the
    /// end-to-end latency and release the admission reservations.
    fn finish(&self, client: &str, reserved_cells: usize, submitted: Instant) {
        self.metrics.served(submitted.elapsed());
        let mut state = self.state.lock().expect("queue lock");
        state.reserved_cells = state.reserved_cells.saturating_sub(reserved_cells);
        if let Some(count) = state.inflight.get_mut(client) {
            *count -= 1;
            if *count == 0 {
                state.inflight.remove(client);
            }
        }
        // Released reservations may clear the brownout (hysteresis:
        // both gauges must fall below 1/2 of their bound).
        self.update_brownout(state.queue.len(), state.reserved_cells);
    }

    /// The panic-isolated stage of [`Server::run`]: deadline bookkeeping,
    /// the engine solve, decode-time verification and hot-tier publish.
    fn execute(
        &self,
        mut request: SynthesisRequest,
        key_hash: &str,
        submitted: Instant,
        deadline: Option<std::time::Duration>,
    ) -> Outcome {
        let queue_wait = submitted.elapsed();
        if let Some(deadline) = deadline {
            // The deadline is measured from submission; hand the engine
            // only what the queue left over. Expiry while queued degrades
            // to a typed error — nothing was solved, nothing to serve.
            match deadline.checked_sub(queue_wait) {
                Some(remaining) => request = request.with_deadline(remaining),
                None => {
                    self.metrics.deadline_expired();
                    return Err(ServeError::Deadline {
                        deadline_ms: deadline.as_millis() as u64,
                    });
                }
            }
        }
        let topology = request.topology.clone();
        let collective = request.collective;
        // Kept for the one-shot re-solve after a verification quarantine:
        // the retry must pose the *same* problem (same cache key).
        let retry_template = SynthesisRequest {
            topology: topology.clone(),
            collective,
            config: request.config.clone(),
            mode: request.mode,
            deadline: None,
        };
        let mut response = match self.engine.synthesize(request) {
            Ok(response) => response,
            Err(error) => {
                self.metrics.synthesis_error();
                return Err(ServeError::Synthesis {
                    message: error.to_string(),
                });
            }
        };
        // Decode-time verification: replay every frontier algorithm
        // against the collective's pre/post relation before it can enter
        // the hot tier. A disk-backed report that fails is quarantined and
        // re-solved once, transparently; a freshly solved failure is a
        // solver bug surfaced as a typed error (and quarantined too — the
        // engine just persisted it).
        if let Err(message) = crate::verify::verify_report(&topology, collective, &response.report)
        {
            self.metrics.verify_failure();
            self.engine
                .quarantine_cached(key_hash, &format!("decode-time verification: {message}"));
            self.drain_pruned();
            let was_cache_hit = response.provenance == Provenance::CacheHit;
            let retry = was_cache_hit
                .then(|| self.engine.synthesize(retry_template).ok())
                .flatten();
            match retry {
                Some(resolved)
                    if crate::verify::verify_report(&topology, collective, &resolved.report)
                        .is_ok() =>
                {
                    response = resolved;
                }
                _ => {
                    return Err(ServeError::VerifyFailed { message });
                }
            }
        }
        let from = match response.provenance {
            Provenance::CacheHit => {
                self.metrics.disk_hit();
                ServedFrom::DiskCache
            }
            Provenance::Solved(mode) => {
                self.metrics.solved(response.timings.solve);
                ServedFrom::Solved(mode)
            }
        };
        if let Some(stats) = &response.incremental {
            self.metrics.incremental(stats);
        }
        if response.degraded {
            if response.report.entries.is_empty() {
                // The deadline cut before any candidate was decided:
                // nothing to degrade to. Counted as an expiry, not a
                // degradation — exactly one deadline outcome per request.
                self.metrics.deadline_expired();
                return Err(ServeError::Deadline {
                    deadline_ms: deadline.map(|d| d.as_millis() as u64).unwrap_or_default(),
                });
            }
            self.metrics.deadline_degraded();
        }
        let entry = HotEntry::new(Arc::new(response.report));
        if !response.degraded {
            // Only complete reports enter the hot tier: a degraded
            // frontier is timing-dependent and must not be replayed
            // forever (the engine refuses to persist it for the same
            // reason).
            self.hot
                .insert_entry(key_hash.to_string(), Arc::clone(&entry));
        }
        // The store above may have pushed the disk cache over capacity and
        // pruned entries this tier still holds; drain the engine's
        // pruned-hash mailbox so a hash the durable store evicted can't
        // keep being replayed hot.
        self.drain_pruned();
        let total = submitted.elapsed();
        Ok(Served {
            report: Arc::clone(entry.report()),
            from,
            timings: WireTimings {
                queue_micros: micros(queue_wait),
                lookup_micros: micros(response.timings.lookup),
                encode_micros: micros(response.timings.encode),
                solve_micros: micros(response.timings.solve),
                store_micros: micros(response.timings.store),
                total_micros: micros(total),
                ..WireTimings::default()
            },
            incremental: response.incremental,
            degraded: response.degraded,
            entry,
        })
    }

    /// The panic-isolated stage of a hierarchical [`Server::run`]:
    /// deadline bookkeeping, the full partition → stage solves → stitch →
    /// verify pipeline, and the metrics fold.
    fn execute_hier(
        &self,
        mut request: HierRequest,
        submitted: Instant,
        deadline: Option<Duration>,
    ) -> HierOutcome {
        let queue_wait = submitted.elapsed();
        if let Some(deadline) = deadline {
            // The deadline is measured from submission; hand the planner
            // only what the queue left over (a request-level deadline set
            // by a direct library caller still applies if tighter).
            match deadline.checked_sub(queue_wait) {
                Some(remaining) => {
                    request.deadline =
                        Some(request.deadline.map_or(remaining, |d| d.min(remaining)))
                }
                None => {
                    self.metrics.deadline_expired();
                    return Err(ServeError::Deadline {
                        deadline_ms: deadline.as_millis() as u64,
                    });
                }
            }
        }
        let response = match sccl_hier::synthesize_hier(&self.engine, &request) {
            Ok(response) => response,
            Err(error) => return Err(self.hier_error(error)),
        };
        self.metrics.hier_stage_solves(
            response.stats.stage_solves as u64,
            response.stats.cache_hits as u64,
        );
        if response.degraded {
            // Exactly one deadline outcome per request, mirroring the
            // flat path: degraded-and-served or expired-and-typed-error.
            self.metrics.deadline_degraded();
            self.metrics.hier_degraded();
        }
        let total = submitted.elapsed();
        Ok(HierServed {
            summary: response.summary(),
            timings: WireTimings {
                queue_micros: micros(queue_wait),
                solve_micros: micros(response.timings.solve),
                stitch_micros: micros(response.timings.stitch),
                verify_micros: micros(response.timings.verify),
                total_micros: micros(total),
                ..WireTimings::default()
            },
            degraded: response.degraded,
        })
    }

    /// Map a planner failure onto the serving error ladder, recording
    /// the fault counters as a side effect: composition-verifier
    /// rejections count as (hier) verify failures, contained stage
    /// panics as caught panics, unachievable deadlines as expiries.
    fn hier_error(&self, error: HierError) -> ServeError {
        match error {
            HierError::Deadline { deadline_ms } => {
                self.metrics.deadline_expired();
                ServeError::Deadline { deadline_ms }
            }
            HierError::Composition(_) => {
                self.metrics.verify_failure();
                self.metrics.hier_verify_failure();
                ServeError::VerifyFailed {
                    message: error.to_string(),
                }
            }
            HierError::StagePanic { .. } => {
                self.metrics.panic_caught();
                ServeError::Synthesis {
                    message: error.to_string(),
                }
            }
            HierError::Partition(_) | HierError::Unsupported { .. } => ServeError::BadRequest {
                message: error.to_string(),
            },
            other => {
                self.metrics.synthesis_error();
                ServeError::Synthesis {
                    message: other.to_string(),
                }
            }
        }
    }
}

/// A `Duration` in microseconds, saturating instead of truncating (a
/// `as u64` cast of `as_micros` silently wraps past ~584k years of
/// microseconds — never reachable in practice, but the timings are part
/// of the wire contract and must not depend on "in practice").
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Dropped by a worker thread on its way out. If the thread is unwinding
/// (a panic escaped [`Server::run`]'s isolation window) and the server is
/// not shutting down, a replacement worker is spawned and its handle is
/// parked in the workers list for [`Server::shutdown`] to join. A
/// replacement spawned in the narrow race after shutdown's handle-take is
/// never joined, but it observes `shutting_down` and exits immediately.
struct RespawnGuard {
    server: Arc<Server>,
    index: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.server.is_shutting_down() {
            self.server.metrics.worker_respawned();
            let handle = Server::spawn_worker(&self.server, self.index);
            self.server
                .workers
                .lock()
                .expect("workers lock")
                .push(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_topology::builders;

    fn quick_config() -> SynthesisConfig {
        SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        }
    }

    fn server(config: ServeConfig) -> Arc<Server> {
        let engine = Engine::builder()
            .sequential()
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        Server::start(engine, config).expect("server")
    }

    #[test]
    fn solve_estimate_saturates_instead_of_wrapping() {
        // A sane problem produces a sane estimate…
        let ring = builders::ring(4, 1);
        let small = solve_estimate_cells(&ring, &quick_config());
        assert!(small > 0 && small < 1 << 30, "was: {small}");

        // …while a huge (hierarchical-scale) topology overflows the
        // nodes² × chunks × steps product. Wrapping would make the job
        // look nearly free and admit it alongside everything else;
        // saturation makes it over budget next to anything but still
        // admissible alone under the lone-job rule.
        let huge = Topology::new("huge", 1 << 20);
        let mut config = quick_config();
        config.max_chunks = 1 << 12;
        config.max_steps = 1 << 12;
        assert_eq!(solve_estimate_cells(&huge, &config), usize::MAX);

        // The estimate is monotone at the saturation boundary: more nodes
        // never shrinks it.
        let big = Topology::new("big", 1 << 10);
        assert!(solve_estimate_cells(&big, &config) <= solve_estimate_cells(&huge, &config));
    }

    #[test]
    fn nonsense_serve_knobs_are_config_errors() {
        let cases = [
            (
                ServeConfig {
                    queue_capacity: 0,
                    ..Default::default()
                },
                "queue_capacity",
            ),
            (
                ServeConfig {
                    per_client_inflight: 0,
                    ..Default::default()
                },
                "per_client_inflight",
            ),
            (
                ServeConfig {
                    memory_budget_cells: 0,
                    ..Default::default()
                },
                "memory_budget_cells",
            ),
        ];
        for (config, expected) in cases {
            let engine = Engine::builder().build().expect("engine");
            match Server::start(engine, config) {
                Err(Error::Config { field, .. }) => assert_eq!(field, expected),
                Err(other) => panic!("expected a config error, got {other}"),
                Ok(_) => panic!("nonsense knob {expected} must be rejected"),
            }
        }
    }

    #[test]
    fn a_submission_solves_then_the_hot_tier_serves_it() {
        let server = server(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let ring = builders::ring(4, 1);
        let first = server
            .submit(
                ring.clone(),
                Collective::Allgather,
                quick_config(),
                None,
                "t",
            )
            .expect("admitted")
            .wait()
            .expect("served");
        assert!(matches!(first.from, ServedFrom::Solved(_)));
        assert!(first.incremental.is_some());

        let second = server
            .submit(ring, Collective::Allgather, quick_config(), None, "t")
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(second.from, ServedFrom::HotTier);
        assert!(second.incremental.is_none());
        assert_eq!(second.report, first.report, "tiers must agree");

        let snap = server.snapshot();
        assert_eq!(snap.cache.hot_hits, 1);
        assert_eq!(snap.cache.solved, 1);
        assert!(snap.cache.hit_rate > 0.0);
        assert_eq!(snap.latency_micros.solve.count, 1);
        assert_eq!(snap.latency_micros.total.count, 2);
    }

    #[test]
    fn disk_cache_prunes_invalidate_the_hot_tier() {
        let dir =
            std::env::temp_dir().join(format!("sccl-serve-prune-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::builder()
            .sequential()
            .cache_dir(&dir)
            .cache_capacity(1)
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        let server = Server::start(
            engine,
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .expect("server");
        let ring = builders::ring(4, 1);
        // What a memoized request holds of the problem about to be pruned:
        // its content hash.
        let pruned_hash =
            CacheKey::new(&ring, Collective::Allgather, &quick_config()).content_hash();
        // Three distinct problems through a capacity-1 store: the third
        // store trips the slack bound and prunes the two oldest entries,
        // whose hashes the worker drains into hot-tier invalidations.
        for collective in [
            Collective::Allgather,
            Collective::Broadcast { root: 0 },
            Collective::Gather { root: 0 },
        ] {
            server
                .submit(ring.clone(), collective, quick_config(), None, "t")
                .expect("admitted")
                .wait()
                .expect("served");
        }
        // The pruned problem must be re-solved — its hot copy was
        // invalidated alongside the disk eviction, so the tier cannot
        // replay a frontier the durable store no longer backs. Going to
        // the gates with the hash alone (a key-memo hit) finds no entry
        // and no payload either: they left the tier in one slot.
        assert!(matches!(
            server.front_gates(pruned_hash.clone(), "t"),
            Ok(Front::Miss(_))
        ));
        let evicted = server
            .submit(
                ring.clone(),
                Collective::Allgather,
                quick_config(),
                None,
                "t",
            )
            .expect("admitted")
            .wait()
            .expect("served");
        assert!(
            matches!(evicted.from, ServedFrom::Solved(_)),
            "pruned entry replayed from {:?}",
            evicted.from
        );
        // The hash now names the new entry, whose payload is the re-solved
        // report's — rendered by whichever answer asks first, once.
        let Ok(Front::Hot(rehit)) = server.front_gates(pruned_hash, "t") else {
            panic!("the re-solved entry must serve hot");
        };
        assert!(Arc::ptr_eq(&rehit.report, &evicted.report));
        assert!(Arc::ptr_eq(&rehit.payload(), &evicted.payload()));
        assert_eq!(
            &*rehit.payload(),
            serde_json::to_string(evicted.report.as_ref()).expect("json")
        );
        // The surviving (most recent) entry still serves hot.
        let kept = server
            .submit(
                ring,
                Collective::Gather { root: 0 },
                quick_config(),
                None,
                "t",
            )
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(kept.from, ServedFrom::HotTier);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_client_quota_rejects_the_overflowing_submission() {
        // One worker, quota 1: while the worker is busy with the first
        // submission, a second from the same client must bounce and a
        // second from a different client must queue.
        let server = server(ServeConfig {
            workers: 1,
            per_client_inflight: 1,
            ..Default::default()
        });
        let ring = builders::ring(4, 1);
        let big = SynthesisConfig {
            max_steps: 8,
            max_chunks: 8,
            ..Default::default()
        };
        // The first job is deliberately slow (a DGX-1 frontier, a couple
        // of hundred milliseconds in a debug build against a few for the
        // ring) so it is still in flight when the second submission
        // arrives — a quick first job can finish within the scheduling
        // gap between the two submits on a loaded box.
        let first = server
            .submit(
                builders::dgx1(),
                Collective::Allgather,
                big.clone(),
                None,
                "a",
            )
            .expect("first admitted");
        let err = server
            .submit(
                ring.clone(),
                Collective::Broadcast { root: 0 },
                big.clone(),
                None,
                "a",
            )
            .expect_err("quota must reject");
        assert_eq!(
            err,
            ServeError::ClientQuota {
                client: "a".to_string(),
                inflight: 1,
                limit: 1,
            }
        );
        let other = server
            .submit(ring, Collective::Broadcast { root: 0 }, big, None, "b")
            .expect("other client admitted");
        assert!(first.wait().is_ok());
        assert!(other.wait().is_ok());
        assert_eq!(server.snapshot().rejections.client_quota, 1);
    }

    #[test]
    fn memory_budget_rejects_concurrent_over_admission() {
        let ring = builders::ring(4, 1);
        let config = quick_config();
        // The first job is deliberately slow (a bigger problem at higher
        // caps) so its reservation is still held when the second
        // submission arrives — a quick first job can finish within the
        // scheduling gap between the two submits on a loaded box.
        let slow_ring = builders::ring(6, 1);
        let slow_config = SynthesisConfig {
            max_steps: 8,
            max_chunks: 8,
            ..Default::default()
        };
        let estimate = solve_estimate_cells(&ring, &config);
        let slow_estimate = solve_estimate_cells(&slow_ring, &slow_config);
        // Budget fits the slow reservation but not a second one.
        let server = server(ServeConfig {
            workers: 1,
            memory_budget_cells: slow_estimate + estimate / 2,
            ..Default::default()
        });
        let first = server
            .submit(slow_ring, Collective::Allgather, slow_config, None, "a")
            .expect("first admitted");
        let err = server
            .submit(
                ring.clone(),
                Collective::Broadcast { root: 0 },
                config.clone(),
                None,
                "b",
            )
            .expect_err("budget must reject the second");
        assert!(
            matches!(err, ServeError::MemoryBudget { .. }),
            "was: {err:?}"
        );
        assert!(first.wait().is_ok());
        // Once the reservation is released, the same submission admits.
        let retry = server
            .submit(ring, Collective::Broadcast { root: 0 }, config, None, "b")
            .expect("admits after release");
        assert!(retry.wait().is_ok());
        assert_eq!(server.snapshot().rejections.memory_budget, 1);
    }

    #[test]
    fn queue_capacity_rejects_rather_than_queueing_unboundedly() {
        // No workers draining (workers: 1 but stalled behind a first big
        // job) — fill the queue to its bound and overflow it.
        let server = server(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            per_client_inflight: 64,
            ..Default::default()
        });
        let ring = builders::ring(4, 1);
        let big = SynthesisConfig {
            max_steps: 8,
            max_chunks: 8,
            ..Default::default()
        };
        // Worker picks this one up...
        let mut tickets = vec![server
            .submit(ring.clone(), Collective::Allgather, big.clone(), None, "a")
            .expect("running job admitted")];
        // ...eventually; give it a moment so the queue state is the two
        // remaining slots. Robust either way: at most 3 admissions total
        // can precede a rejection with capacity 2.
        let mut rejected = None;
        for collective in [
            Collective::Broadcast { root: 0 },
            Collective::ReduceScatter,
            Collective::Gather { root: 0 },
            Collective::Scatter { root: 0 },
        ] {
            match server.submit(ring.clone(), collective, big.clone(), None, "a") {
                Ok(ticket) => tickets.push(ticket),
                Err(err) => {
                    rejected = Some(err);
                    break;
                }
            }
        }
        let err = rejected.expect("the queue bound must reject an overflow");
        assert!(
            matches!(err, ServeError::QueueFull { capacity: 2, .. }),
            "was: {err:?}"
        );
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "admitted jobs must still be served");
        }
        assert!(server.snapshot().rejections.queue_full >= 1);
    }

    #[test]
    fn shutdown_serves_admitted_jobs_and_rejects_new_ones() {
        let server = server(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let ring = builders::ring(4, 1);
        let admitted = server
            .submit(
                ring.clone(),
                Collective::Allgather,
                quick_config(),
                None,
                "a",
            )
            .expect("admitted before shutdown");
        server.shutdown();
        assert!(
            admitted.wait().is_ok(),
            "jobs admitted before shutdown must be drained"
        );
        let err = server
            .submit(ring, Collective::Allgather, quick_config(), None, "a")
            .expect_err("no admission after shutdown");
        assert_eq!(err, ServeError::ShuttingDown);
    }

    /// Serialize a report with its per-entry wall-clock zeroed: the one
    /// field that legitimately differs between two solves of the same
    /// problem (the repo-wide `same_frontier` equivalence excludes it
    /// too). Everything else must survive the serving layer untouched.
    fn timeless_json(report: &SynthesisReport) -> String {
        let mut report = report.clone();
        for entry in &mut report.entries {
            entry.synthesis_time = std::time::Duration::ZERO;
        }
        serde_json::to_string(&report).expect("report serializes")
    }

    #[test]
    fn served_reports_match_the_direct_engine_byte_for_byte() {
        let server = server(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let ring = builders::ring(4, 1);
        let served = server
            .submit(
                ring.clone(),
                Collective::Allgather,
                quick_config(),
                None,
                "t",
            )
            .expect("admitted")
            .wait()
            .expect("served");
        let direct = Engine::builder()
            .sequential()
            .build()
            .expect("engine")
            .synthesize(
                SynthesisRequest::new(&ring, Collective::Allgather).with_config(quick_config()),
            )
            .expect("direct");
        assert_eq!(
            timeless_json(served.report.as_ref()),
            timeless_json(&direct.report),
            "daemon-served report must serialize identically to the in-process engine"
        );
        // And a hot-tier answer serves the *same* bytes again.
        let hot = server
            .submit(ring, Collective::Allgather, quick_config(), None, "t")
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(hot.from, ServedFrom::HotTier);
        assert_eq!(
            serde_json::to_string(hot.report.as_ref()).expect("hot json"),
            serde_json::to_string(served.report.as_ref()).expect("served json"),
        );
    }

    #[test]
    fn rate_limiting_rejects_the_burst_overflow_with_a_retry_hint() {
        // A near-zero refill rate so the burst allowance is the whole
        // story: two requests pass, the third bounces with a hint.
        let server = server(ServeConfig {
            workers: 1,
            rate_limit_per_sec: 0.001,
            rate_limit_burst: 2,
            ..Default::default()
        });
        let ring = builders::ring(4, 1);
        let first = server
            .submit(
                ring.clone(),
                Collective::Allgather,
                quick_config(),
                None,
                "bursty",
            )
            .expect("first spends a token");
        assert!(first.wait().is_ok());
        let second = server
            .submit(
                ring.clone(),
                Collective::Allgather,
                quick_config(),
                None,
                "bursty",
            )
            .expect("second spends the last token");
        assert!(second.wait().is_ok());
        let err = server
            .submit(
                ring.clone(),
                Collective::Allgather,
                quick_config(),
                None,
                "bursty",
            )
            .expect_err("empty bucket must reject");
        match &err {
            ServeError::RateLimited {
                client,
                retry_after_ms,
            } => {
                assert_eq!(client, "bursty");
                assert!(*retry_after_ms >= 1, "hint was {retry_after_ms}ms");
            }
            other => panic!("expected a rate-limit rejection, got {other:?}"),
        }
        // A different client has its own bucket.
        let other = server
            .submit(ring, Collective::Allgather, quick_config(), None, "calm")
            .expect("separate bucket admits");
        assert!(other.wait().is_ok());
        let snap = server.snapshot();
        assert_eq!(snap.rejections.rate_limited, 1);
        assert_eq!(snap.daemon.rate_limited, 1);
    }

    #[test]
    fn a_clean_path_reports_no_rate_limits_and_no_brownout() {
        // The default config disables rate limiting entirely; a healthy
        // daemon must report zeros, not incidental throttling.
        let server = server(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let ring = builders::ring(4, 1);
        for _ in 0..4 {
            let served = server
                .submit(
                    ring.clone(),
                    Collective::Allgather,
                    quick_config(),
                    None,
                    "steady",
                )
                .expect("admitted")
                .wait();
            assert!(served.is_ok());
        }
        let snap = server.snapshot();
        assert_eq!(snap.rejections.rate_limited, 0);
        assert_eq!(snap.daemon.rate_limited, 0);
        assert!(!snap.daemon.brownout_active);
        assert_eq!(snap.daemon.brownout_entered, 0);
        assert!(!snap.daemon.draining);
        assert_eq!(server.health().state(), "ready");
    }

    #[test]
    fn brownout_engages_with_hysteresis_and_is_observable() {
        let server = server(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        });
        // Between the release (1/2) and engage (3/4) thresholds nothing
        // changes from a cold start...
        server.update_brownout(5, 0);
        assert!(!server.health().browned_out);
        // ...crossing 3/4 engages and counts the transition once...
        server.update_brownout(6, 0);
        assert!(server.health().browned_out);
        assert_eq!(server.health().state(), "browned-out");
        server.update_brownout(7, 0);
        let snap = server.snapshot();
        assert!(snap.daemon.brownout_active);
        assert_eq!(snap.daemon.brownout_entered, 1);
        // ...the hysteresis band holds it engaged...
        server.update_brownout(5, 0);
        assert!(server.health().browned_out, "hysteresis must not flap");
        // ...and only falling below 1/2 releases it.
        server.update_brownout(3, 0);
        assert!(!server.health().browned_out);
        assert!(!server.snapshot().daemon.brownout_active);
    }

    #[test]
    fn drain_finishes_in_flight_jobs_and_rejects_new_admissions() {
        let server = server(ServeConfig {
            workers: 1,
            per_client_inflight: 8,
            ..Default::default()
        });
        let ring = builders::ring(4, 1);
        let big = SynthesisConfig {
            max_steps: 8,
            max_chunks: 8,
            ..Default::default()
        };
        // Admit work that is still in flight when the drain begins.
        let in_flight: Vec<Ticket> = [
            Collective::Allgather,
            Collective::Broadcast { root: 0 },
            Collective::Gather { root: 0 },
        ]
        .into_iter()
        .map(|collective| {
            server
                .submit(ring.clone(), collective, big.clone(), None, "a")
                .expect("admitted before drain")
        })
        .collect();
        assert_eq!(server.health().state(), "ready");
        server.begin_drain();
        assert!(server.health().draining);
        assert_eq!(server.health().state(), "draining");
        let err = server
            .submit(
                ring.clone(),
                Collective::Scatter { root: 0 },
                big,
                None,
                "a",
            )
            .expect_err("no admission while draining");
        assert_eq!(err, ServeError::ShuttingDown);
        // Zero dropped: every job admitted before the drain still answers.
        for ticket in in_flight {
            assert!(ticket.wait().is_ok(), "drained jobs must still be served");
        }
        server.shutdown();
        assert!(server.snapshot().daemon.draining);
    }
}
