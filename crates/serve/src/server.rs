//! The serving core: a bounded request queue drained by a std-thread
//! worker pool, fronted by admission control and the [`HotTier`]. The
//! daemon's socket layer is a thin shell over this — everything testable
//! lives here, in-process.
//!
//! # One job path
//!
//! A flat submission and a hierarchical (`groups`) one are the same job to
//! everything but the solve. Both pass the same gates (drain, then the
//! client's token bucket), both are admitted under the queue lock by the
//! same rules, and both run as one [`Job`]: a worker isolates the solve
//! from panics, hands it the job's deadline, releases the job's
//! reservation and resolves its [`Ticket`]. Only
//! [`Work::solve`] tells them apart — a flat job solves one problem
//! through the engine, a composition plans, solves and stitches its
//! stages — which is PCCL's framing of a flat collective as a one-group
//! process-group collective.
//!
//! # Admission
//!
//! A submission is either *served inline* (a flat request whose verified
//! report is already in memory), *admitted* (queued, returning a
//! [`Ticket`] the caller blocks on) or *rejected immediately* with a typed
//! [`ServeError`] — the queue never grows past its bound and a rejected
//! caller is never left hanging.
//!
//! A flat request is served inline from one of two memory tiers, asked in
//! this order by [`Server::front_gates`] with nothing but the request's
//! content hash: the [`HotTier`] (provenance `hot`), then the disk cache's
//! resident entries (provenance `cache`, counted in `cache.disk_hits`),
//! which answer only a report a worker has already verified. Neither
//! answers an entry the disk cache has retired — pruned, quarantined or
//! replaced by a later store ([`sccl_sched::CachedReport::is_retired`]):
//! the two tiers share the one entry, so the cache need tell no one which
//! hashes left. Either answer
//! writes the entry's once-rendered payload; neither takes a queue slot,
//! builds a topology, hashes a key or replays the report. Everything else
//! — a first read from disk, a solve — is admitted:
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
//! A deadline is measured from the gates, so queue wait counts against
//! it: the job carries it as one instant, fixed there, which the solver
//! compares with the clock at its budget checks. On expiry a job degrades
//! gracefully: whatever part of the frontier was solved in time is served
//! with its `degraded` flag set; only a deadline that expires with
//! *nothing* solved resolves the ticket to [`ServeError::Deadline`].
//! Hot-tier and disk-cache hits always serve complete reports, deadline
//! notwithstanding.
//!
//! Workers drain the queue in FIFO order, solve through the shared
//! [`Engine`] (one memo of decided candidates and one on-disk cache
//! across all workers), verify each report against its collective before
//! anything serves it (marking the cache's resident entry verified), publish
//! results into the hot tier and complete tickets.

use crate::hot::{HotEntry, HotTier, KeyMemo};
use crate::metrics::{
    CacheCounters, Counter, DaemonCounters, EngineMetrics, FaultCounters, HierCounters,
    HotCounters, MetricsSnapshot, PoolCounters, QueueGauges, RejectionCounters, RequestCounters,
};
use crate::wire::WireTimings;
use sccl_collectives::Collective;
use sccl_core::incremental::IncrementalStats;
use sccl_core::pareto::{SynthesisConfig, SynthesisReport};
use sccl_hier::{HierEngineExt, HierError, HierRequest, HierSummary, Partition};
use sccl_sched::{
    CacheKey, Engine, Error, Provenance, SolveMode, SynthesisRequest, SynthesisResponse,
};
use sccl_topology::Topology;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// The on-disk algorithm cache: a worker's first read of the entry,
    /// or — inline, never queued — its verified report already resident
    /// in memory.
    DiskCache,
    /// Freshly solved. The payload is always [`SolveMode::Sequential`]:
    /// it stays only because `tests/resident_gate.rs` matches `Solved(_)`,
    /// and goes with `SolveMode` in the ledger re-cut.
    Solved(SolveMode),
}

impl ServedFrom {
    /// The provenance a `synthesize` success line names this tier by.
    pub(crate) fn tag(self) -> &'static str {
        match self {
            ServedFrom::HotTier => "hot",
            ServedFrom::DiskCache => "cache",
            ServedFrom::Solved(_) => "solved:sequential",
        }
    }
}

/// A successfully served flat submission.
#[derive(Clone, Debug)]
pub struct Served {
    /// The frontier (shared with the hot tier and the disk cache's
    /// resident entry).
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
    /// `report` with its once-rendered wire payload: the entry the hot
    /// tier and the disk cache's memo hold, unless the answer is
    /// degraded, so whichever response renders the payload first renders
    /// it for every later answer from either.
    entry: Arc<HotEntry>,
}

impl Served {
    /// `report` as the wire carries it (`serde_json::to_string(report)`),
    /// rendered at most once for the life of the shared entry.
    pub fn payload(&self) -> Arc<str> {
        self.entry.payload()
    }
}

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

/// Completion slot shared by a ticket and the worker resolving it.
struct Slot<T> {
    outcome: Mutex<Option<Result<T, ServeError>>>,
    done: Condvar,
}

impl<T> Slot<T> {
    fn complete(&self, outcome: Result<T, ServeError>) {
        *self.outcome.lock().expect("ticket lock") = Some(outcome);
        self.done.notify_all();
    }
}

/// A completion handle for one submission: [`Ticket::wait`] blocks until
/// a worker resolves it to what the job serves — a [`Served`] frontier, or
/// a [`HierServed`] composition.
pub struct Ticket<T = Served> {
    slot: Arc<Slot<T>>,
    wants_journal_record: bool,
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = self.slot.outcome.lock().is_ok_and(|slot| slot.is_some());
        f.debug_struct("Ticket")
            .field("resolved", &resolved)
            .field("wants_journal_record", &self.wants_journal_record)
            .finish()
    }
}

impl<T> Ticket<T> {
    fn pair(wants_journal_record: bool) -> (Ticket<T>, Arc<Slot<T>>) {
        let slot = Arc::new(Slot {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        });
        let ticket = Ticket {
            slot: Arc::clone(&slot),
            wants_journal_record,
        };
        (ticket, slot)
    }

    /// `true` when a crash before this ticket resolves could lose work a
    /// journal record would recover: the engine carries a journal, and the
    /// job may run a solve — a composition, or a flat job that missed the
    /// hot tier and whose key the disk cache does not index. A ticket a
    /// cache tier will answer says `false`; replaying its record would be
    /// a lookup whose result is thrown away (see the daemon's module docs
    /// for what that gives up).
    pub fn wants_journal_record(&self) -> bool {
        self.wants_journal_record
    }

    /// Block until the job completes and take its outcome.
    pub fn wait(self) -> Result<T, ServeError> {
        let slot = self.slot.outcome.lock().expect("ticket lock");
        let mut slot = self
            .slot
            .done
            .wait_while(slot, |outcome| outcome.is_none())
            .expect("ticket wait");
        slot.take().expect("a resolved ticket")
    }

    /// Block until the job completes or `timeout` elapses. Returns `None`
    /// on timeout, leaving the ticket usable — call again or [`Ticket::wait`]
    /// to keep waiting. A belt-and-braces bound for callers that cannot
    /// afford to trust worker liveness (workers already complete tickets
    /// with [`ServeError::WorkerLost`] when a solve panics).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, ServeError>> {
        let slot = self.slot.outcome.lock().expect("ticket lock");
        let (mut slot, _) = self
            .slot
            .done
            .wait_timeout_while(slot, timeout, |outcome| outcome.is_none())
            .expect("ticket wait");
        slot.take()
    }
}

/// What [`Server::front_gates`] made of a flat submission.
pub(crate) enum Front {
    /// A memory tier answered (hot, or a verified resident cache entry);
    /// nothing was queued.
    Answered(Served),
    /// Every gate passed and no memory tier holds a verified report for
    /// the key.
    Miss(PastGates),
}

/// Proof that a flat submission passed [`Server::front_gates`] — counted,
/// not draining, a token spent — and missed the memory tiers: the only
/// way into [`Server::enqueue_flat`], so no job reaches the queue around
/// the gates or through them twice.
pub(crate) struct PastGates {
    key_hash: String,
    submitted: Instant,
}

/// What an admitted job solves and serves. Everything else about a job —
/// admission, the queue, panic isolation, the deadline, the reservation,
/// the ticket — is [`Job`]'s, the same for every kind.
trait Work: Send + 'static {
    type Served: Send + 'static;

    /// Solve by the job's deadline ([`Started::deadline`]).
    fn solve(self, server: &Server, started: &Started) -> Result<Self::Served, ServeError>;
}

/// A flat job: one synthesis problem and its cache key's content hash.
struct FlatWork {
    request: SynthesisRequest,
    key_hash: String,
}

/// One admitted job, queued for a worker.
struct Job<W: Work> {
    work: W,
    slot: Arc<Slot<W::Served>>,
    client: String,
    reserved_cells: usize,
    submitted: Instant,
    /// When the job must be answered by: its budget added to `submitted`,
    /// so queue wait counts against it. `None` means unbounded.
    deadline: Option<Instant>,
}

/// A job of any kind, as the queue holds it.
type Queued = Box<dyn FnOnce(&Server) + Send>;

/// A job as its worker picks it up.
struct Started {
    submitted: Instant,
    queue_wait: Duration,
    /// The job's deadline, as [`Job::deadline`].
    deadline: Option<Instant>,
}

impl Started {
    /// The queue wait and the time since submission, as wire timings.
    fn timings(&self) -> WireTimings {
        WireTimings {
            queue_micros: micros(self.queue_wait),
            total_micros: micros(self.submitted.elapsed()),
            ..WireTimings::default()
        }
    }
}

/// State behind the queue lock.
struct QueueState {
    queue: VecDeque<Queued>,
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

impl TokenBucket {
    /// The tokens the bucket holds at `now`.
    fn refilled(&self, now: Instant, rate: f64, burst: f64) -> f64 {
        let elapsed = now.saturating_duration_since(self.last_refill);
        (self.tokens + elapsed.as_secs_f64() * rate).min(burst)
    }
}

/// The token buckets of the clients that have spent tokens lately. A
/// bucket that has refilled to the burst behaves exactly like a missing
/// one, so full buckets are swept out whenever the map has doubled since
/// the last sweep: the map stays proportional to the clients still
/// drawing it down, whatever number of identities the wire has sent,
/// at an amortized O(1) per request.
#[derive(Default)]
struct Buckets {
    map: HashMap<String, TokenBucket>,
    /// `map.len()` after the last sweep.
    swept_len: usize,
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
    buckets: Mutex<Buckets>,
    /// Journaled queue records replayed at startup (set once by the
    /// daemon after recovery).
    journal_replayed: AtomicU64,
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
            buckets: Mutex::new(Buckets::default()),
            journal_replayed: AtomicU64::new(0),
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
    /// [`Job::run`], so this is the backstop for panics outside that
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

    /// Snapshot every metric: the registry's counters and histograms, and
    /// the gauges the hot tier, the key memo, the engine (its memo, cache
    /// and journal) and the server's own lifecycle flags hold right now.
    pub fn snapshot(&self) -> MetricsSnapshot {
        use Counter::*;
        let count = |counter| self.metrics.get(counter);
        let ratio = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let journal = self.engine.journal();
        let (hot_hits, disk_hits, solved) = (count(HotHits), count(DiskHits), count(Solved));
        let (memo_hits, warm_candidates) = (count(MemoHits), count(WarmCandidates));
        MetricsSnapshot {
            requests: RequestCounters {
                total: count(Requests),
                synthesize: count(SynthesizeRequests),
                metrics: count(MetricsRequests),
                bad: count(BadRequests),
                synthesis_errors: count(SynthesisErrors),
            },
            rejections: RejectionCounters {
                queue_full: count(RejectedQueueFull),
                client_quota: count(RejectedClientQuota),
                memory_budget: count(RejectedMemoryBudget),
                rate_limited: count(RejectedRateLimited),
                shutdown: count(RejectedShutdown),
            },
            cache: CacheCounters {
                hot_hits,
                disk_hits,
                solved,
                hit_rate: ratio(hot_hits + disk_hits, hot_hits + disk_hits + solved),
                hot_len: self.hot.len() as u64,
                hot_capacity: self.hot.capacity() as u64,
            },
            hot: HotCounters {
                resident_bytes: self.hot.resident_bytes() as u64,
                key_memo_hits: self.key_memo.hits(),
            },
            queue: QueueGauges {
                depth: count(QueueDepth),
                peak_depth: count(QueuePeakDepth),
            },
            pool: PoolCounters {
                memo_hits,
                warm_candidates,
                pool_checkins: count(PoolCheckins),
                memo_hit_rate: ratio(memo_hits, memo_hits + warm_candidates),
                registry_len: self.engine.memo_len() as u64,
                registry_weight: self.engine.memo_weight() as u64,
            },
            faults: FaultCounters {
                panics_caught: count(PanicsCaught),
                worker_respawns: count(WorkerRespawns),
                deadline_expired: count(DeadlineExpired),
                deadline_degraded: count(DeadlineDegraded),
                verify_failures: count(VerifyFailures),
                cache_quarantined: self.engine.cache_stats().map_or(0, |s| s.quarantined),
            },
            hier: HierCounters {
                requests: count(HierRequests),
                stage_solves: count(HierStageSolves),
                cache_hits: count(HierCacheHits),
                degraded: count(HierDegraded),
                verify_failures: count(HierVerifyFailures),
            },
            daemon: DaemonCounters {
                uptime_ms: self.started.elapsed().as_millis() as u64,
                started_unix_ms: self.started_unix_ms,
                journal_replayed: self.journal_replayed.load(Ordering::Relaxed),
                checkpoints_written: journal.map_or(0, |j| j.checkpoints_written()),
                journal_records_written: journal.map_or(0, |j| j.records_written()),
                journal_write_errors: journal.map_or(0, |j| j.write_errors()),
                rate_limited: count(RejectedRateLimited),
                brownout_active: self.browned_out.load(Ordering::Relaxed),
                brownout_entered: count(BrownoutEntered),
                draining: self.health().draining,
            },
            latency_micros: self.metrics.latency(),
        }
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
        if buckets.map.len() > 2 * buckets.swept_len {
            buckets
                .map
                .retain(|_, bucket| bucket.refilled(now, rate, burst) < burst);
            buckets.swept_len = buckets.map.len();
        }
        let bucket = buckets
            .map
            .entry(client.to_string())
            .or_insert(TokenBucket {
                tokens: burst,
                last_refill: now,
            });
        bucket.tokens = bucket.refilled(now, rate, burst);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Ok(());
        }
        let deficit = 1.0 - bucket.tokens;
        let retry_after_ms = ((deficit / rate) * 1000.0).ceil() as u64;
        self.metrics.add(Counter::RejectedRateLimited, 1);
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
                self.metrics.add(Counter::BrownoutEntered, 1);
            }
        } else if queue_low && memory_low {
            self.browned_out.store(false, Ordering::Relaxed);
        }
    }

    /// Submit one synthesize job. `config` must already have the
    /// engine's defaults folded in (it is used verbatim for the cache
    /// key, the hot-tier key and the solve). Memory-tier answers are
    /// served inline on the calling thread — the returned ticket is
    /// already resolved; everything else is admitted or rejected per the
    /// module docs. `_mode` is accepted and ignored (every miss is solved
    /// one candidate at a time); it stays only because `tests/chaos.rs` and
    /// `tests/resident_gate.rs` pass it, and goes with `SolveMode` in the
    /// ledger re-cut.
    pub fn submit(
        &self,
        topology: Topology,
        collective: Collective,
        config: SynthesisConfig,
        _mode: Option<SolveMode>,
        client: &str,
    ) -> Result<Ticket, ServeError> {
        let key_hash = CacheKey::new(&topology, collective, &config).content_hash();
        match self.front_gates(key_hash, client)? {
            Front::Answered(served) => {
                let (ticket, slot) = Ticket::pair(false);
                slot.complete(Ok(served));
                Ok(ticket)
            }
            Front::Miss(past) => {
                let request = SynthesisRequest::new(&topology, collective).with_config(config);
                self.enqueue_flat(past, request, client, None)
            }
        }
    }

    /// Submit one hierarchical composition job through the same gates and
    /// admission as a flat one, with the memory reservation sized by the
    /// *largest stage subproblem* (stages solve serially on one worker, so
    /// that is the job's peak footprint). `deadline` bounds the whole
    /// composition from this call. There is no hot-tier lane —
    /// compositions are not cached whole, so every admitted one may solve
    /// and is worth a journal record; their stage solves hit the engine's
    /// disk cache per group instead.
    pub fn submit_hier(
        &self,
        request: HierRequest,
        client: &str,
        deadline: Option<Duration>,
    ) -> Result<Ticket<HierServed>, ServeError> {
        self.metrics.add(Counter::HierRequests, 1);
        let submitted = self.gates(client)?;
        let reserve = self.hier_estimate_cells(&request)?;
        let wants_journal_record = self.engine.journal().is_some();
        self.enqueue(
            request,
            client,
            reserve,
            submitted,
            deadline,
            wants_journal_record,
        )
    }

    /// The gates every submission passes first, in their one order —
    /// drain/shutdown, then the client's token bucket (so hot-tier hits
    /// spend tokens too: the bucket bounds the *request* rate) — with the
    /// counters each of them owns. Returns when the submission's clock
    /// starts.
    fn gates(&self, client: &str) -> Result<Instant, ServeError> {
        self.metrics.add(Counter::SynthesizeRequests, 1);
        if self.health().draining {
            self.metrics.add(Counter::RejectedShutdown, 1);
            return Err(ServeError::ShuttingDown);
        }
        self.check_rate_limit(client)?;
        Ok(Instant::now())
    }

    /// The gates, then the memory tiers, for a flat submission: the hot
    /// tier, then the disk cache's resident entry if a worker has verified
    /// it (which the hot tier then publishes, as it would a worker's disk
    /// hit). All the content hash's owner needs to get here is the hash,
    /// which is what lets the daemon answer a memoized request without
    /// building its topology.
    pub(crate) fn front_gates(&self, key_hash: String, client: &str) -> Result<Front, ServeError> {
        let submitted = self.gates(client)?;
        let (entry, from) = if let Some(entry) = self.hot.lookup_entry(&key_hash) {
            self.metrics.add(Counter::HotHits, 1);
            (entry, ServedFrom::HotTier)
        } else if let Some(entry) = self
            .engine
            .cache()
            .and_then(|cache| cache.verified(&key_hash))
        {
            self.metrics.add(Counter::DiskHits, 1);
            self.hot.insert_entry(key_hash, Arc::clone(&entry));
            (entry, ServedFrom::DiskCache)
        } else {
            return Ok(Front::Miss(PastGates {
                key_hash,
                submitted,
            }));
        };
        let total = submitted.elapsed();
        self.metrics.served(total);
        Ok(Front::Answered(Served {
            report: Arc::clone(entry.report()),
            from,
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
    /// memory tiers. `request.config` must be the config `past`'s key was
    /// hashed from; `deadline` is measured from the gates, `request.deadline`
    /// unused.
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
        let work = FlatWork { request, key_hash };
        self.enqueue(
            work,
            client,
            reserve,
            submitted,
            deadline,
            wants_journal_record,
        )
    }

    /// Admit a job past the gates and queue it: bound the queue, enforce
    /// the per-client quota and the memory budget, record the reservation,
    /// and tighten the deadline while the brownout controller is active.
    fn enqueue<W: Work>(
        &self,
        work: W,
        client: &str,
        reserve: usize,
        submitted: Instant,
        deadline: Option<Duration>,
        wants_journal_record: bool,
    ) -> Result<Ticket<W::Served>, ServeError> {
        let mut state = self.state.lock().expect("queue lock");
        if state.queue.len() >= self.config.queue_capacity {
            self.metrics.add(Counter::RejectedQueueFull, 1);
            return Err(ServeError::QueueFull {
                depth: state.queue.len(),
                capacity: self.config.queue_capacity,
            });
        }
        let inflight = state.inflight.get(client).copied().unwrap_or(0);
        if inflight >= self.config.per_client_inflight {
            self.metrics.add(Counter::RejectedClientQuota, 1);
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
            self.metrics.add(Counter::RejectedMemoryBudget, 1);
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
        // The deadline is fixed here, from the gates. Brownout tightens
        // it: under sustained overload admitted jobs degrade to
        // partial-frontier answers (freeing workers sooner) before
        // admission starts rejecting. A budget past the clock's range is
        // no deadline.
        let mut deadline = deadline.and_then(|d| submitted.checked_add(d));
        if self.browned_out.load(Ordering::Relaxed) && self.config.brownout_deadline_ms > 0 {
            let cap =
                submitted.checked_add(Duration::from_millis(self.config.brownout_deadline_ms));
            // The earlier of the two.
            deadline = deadline.into_iter().chain(cap).min();
        }
        let (ticket, slot) = Ticket::pair(wants_journal_record);
        let job = Job {
            work,
            slot,
            client: client.to_string(),
            reserved_cells: reserve,
            submitted,
            deadline,
        };
        state
            .queue
            .push_back(Box::new(move |server: &Server| job.run(server)));
        self.metrics.queue_depth(state.queue.len());
        self.work_ready.notify_one();
        Ok(ticket)
    }

    /// The memory reservation of one hierarchical job: the largest
    /// [`solve_estimate_cells`] over its group subtopologies and its
    /// leader graph, at the planner's forced per-stage chunk cap of 1.
    /// A carve that fails, or a collective with no composition rule, is a
    /// [`ServeError::BadRequest`] here: the job can never succeed, so it
    /// gets no queue slot, no reservation and no journal record.
    fn hier_estimate_cells(&self, request: &HierRequest) -> Result<usize, ServeError> {
        let bad_request = |error: HierError| ServeError::BadRequest {
            message: error.to_string(),
        };
        let partition = Partition::new(&request.topology, &request.groups)
            .map_err(|error| bad_request(HierError::Partition(error)))?;
        sccl_hier::check_composable(request.collective).map_err(bad_request)?;
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
            job(self);
        }
    }

    /// A worker's start on a job submitted at `submitted`. A deadline the
    /// queue wait used up expires here — nothing was solved, nothing to
    /// serve.
    fn started(
        &self,
        submitted: Instant,
        deadline: Option<Instant>,
    ) -> Result<Started, ServeError> {
        let started = Started {
            submitted,
            queue_wait: submitted.elapsed(),
            deadline,
        };
        if deadline.is_some_and(|at| Instant::now() >= at) {
            return Err(self.expired(&started));
        }
        Ok(started)
    }

    /// Count a deadline that expired with nothing solved, as its error,
    /// which names the job's budget.
    fn expired(&self, started: &Started) -> ServeError {
        self.metrics.add(Counter::DeadlineExpired, 1);
        let budget = started
            .deadline
            .map_or(Duration::ZERO, |at| at.duration_since(started.submitted));
        ServeError::Deadline {
            deadline_ms: budget.as_millis() as u64,
        }
    }

    /// Post-execution bookkeeping shared by every job: record the
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

    /// Map a planner failure onto the serving error ladder, recording
    /// the fault counters as a side effect: composition-verifier
    /// rejections count as (hier) verify failures, contained stage
    /// panics as caught panics, unachievable deadlines as expiries.
    fn hier_error(&self, error: HierError) -> ServeError {
        match error {
            HierError::Deadline { deadline_ms } => {
                self.metrics.add(Counter::DeadlineExpired, 1);
                ServeError::Deadline { deadline_ms }
            }
            HierError::Composition(_) => {
                self.metrics.add(Counter::VerifyFailures, 1);
                self.metrics.add(Counter::HierVerifyFailures, 1);
                ServeError::VerifyFailed {
                    message: error.to_string(),
                }
            }
            HierError::StagePanic { .. } => {
                self.metrics.add(Counter::PanicsCaught, 1);
                ServeError::Synthesis {
                    message: error.to_string(),
                }
            }
            HierError::Partition(_) | HierError::Unsupported { .. } => ServeError::BadRequest {
                message: error.to_string(),
            },
            other => {
                self.metrics.add(Counter::SynthesisErrors, 1);
                ServeError::Synthesis {
                    message: other.to_string(),
                }
            }
        }
    }
}

impl<W: Work> Job<W> {
    /// Solve the job, release its admission reservations and resolve its
    /// ticket.
    ///
    /// The solve runs inside the server's one unwind boundary: a
    /// panicking solve (which stores nothing in the engine's memo; the
    /// hierarchical planner contains its stage-solve panics itself, so
    /// for a composition this is the backstop for the stitch and verify
    /// around them) must not take the reservation accounting or the
    /// waiter's ticket down with it. On a caught panic the ticket resolves
    /// to [`ServeError::WorkerLost`] and the worker keeps draining the
    /// queue.
    fn run(self, server: &Server) {
        let Job {
            work,
            slot,
            client,
            reserved_cells,
            submitted,
            deadline,
        } = self;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            work.solve(server, &server.started(submitted, deadline)?)
        }))
        .unwrap_or_else(|_panic| {
            server.metrics.add(Counter::PanicsCaught, 1);
            Err(ServeError::WorkerLost)
        });
        server.finish(&client, reserved_cells, submitted);
        slot.complete(outcome);
    }
}

impl Work for FlatWork {
    type Served = Served;

    /// The engine solve, decode-time verification and hot-tier publish.
    fn solve(self, server: &Server, started: &Started) -> Result<Served, ServeError> {
        let FlatWork {
            mut request,
            key_hash,
        } = self;
        request.deadline = started.deadline;
        let collective = request.collective;
        // Kept for the one-shot re-solve after a verification quarantine:
        // the retry must pose the *same* problem (same cache key). Its
        // topology is the one clone this job makes; verification borrows
        // it.
        let retry = SynthesisRequest {
            topology: request.topology.clone(),
            collective,
            config: request.config.clone(),
            deadline: None,
        };
        let metrics = &server.metrics;
        let mut response = server.engine.synthesize(request).map_err(|error| {
            metrics.add(Counter::SynthesisErrors, 1);
            ServeError::Synthesis {
                message: error.to_string(),
            }
        })?;
        let verify = |response: &SynthesisResponse| {
            crate::verify::verify_report(&retry.topology, collective, &response.report)
        };
        // Decode-time verification: replay every frontier algorithm
        // against the collective's pre/post relation before anything can
        // serve it. A disk-backed report that fails is quarantined and
        // re-solved once, transparently; a freshly solved failure is a
        // solver bug surfaced as a typed error (and quarantined too — the
        // engine just persisted it). The quarantine retires the resident
        // entry, which a hot slot may share.
        if let Err(message) = verify(&response) {
            metrics.add(Counter::VerifyFailures, 1);
            if let Some(cache) = server.engine.cache() {
                cache.quarantine(&key_hash, &format!("decode-time verification: {message}"));
            }
            let was_cache_hit = response.provenance == Provenance::CacheHit;
            let resolved = was_cache_hit
                .then(|| server.engine.synthesize(retry.clone()).ok())
                .flatten();
            match resolved {
                Some(resolved) if verify(&resolved).is_ok() => response = resolved,
                _ => return Err(ServeError::VerifyFailed { message }),
            }
        }
        // The report passed: from now on the gates answer its resident
        // cache entry without a worker.
        if let Some(resident) = response.resident() {
            resident.mark_verified();
        }
        let from = match response.provenance {
            Provenance::CacheHit => {
                metrics.add(Counter::DiskHits, 1);
                ServedFrom::DiskCache
            }
            Provenance::Solved => {
                metrics.solved(response.timings.solve);
                ServedFrom::Solved(SolveMode::Sequential)
            }
        };
        if let Some(stats) = &response.incremental {
            metrics.add(Counter::MemoHits, stats.memo_hits);
            metrics.add(Counter::WarmCandidates, stats.warm_candidates);
            metrics.add(Counter::PoolCheckins, stats.pool_checkins);
        }
        if response.degraded {
            if response.report.entries.is_empty() {
                // The deadline cut before any candidate was decided:
                // nothing to degrade to. Counted as an expiry, not a
                // degradation — exactly one deadline outcome per request.
                return Err(server.expired(started));
            }
            metrics.add(Counter::DeadlineDegraded, 1);
        }
        // The cache's resident entry when there is one, so the hot tier
        // shares its report and payload.
        let entry = match response.resident() {
            Some(resident) => Arc::clone(resident),
            None => HotEntry::new(Arc::clone(&response.report)),
        };
        if !response.degraded {
            // Only complete reports enter the hot tier: a degraded
            // frontier is timing-dependent and must not be replayed
            // forever (the engine refuses to persist it for the same
            // reason).
            server.hot.insert_entry(key_hash, Arc::clone(&entry));
        }
        Ok(Served {
            report: Arc::clone(entry.report()),
            from,
            timings: WireTimings {
                lookup_micros: micros(response.timings.lookup),
                encode_micros: micros(response.timings.encode),
                solve_micros: micros(response.timings.solve),
                store_micros: micros(response.timings.store),
                ..started.timings()
            },
            incremental: response.incremental,
            degraded: response.degraded,
            entry,
        })
    }
}

impl Work for HierRequest {
    type Served = HierServed;

    /// The partition → stage solves → stitch → verify pipeline, and the
    /// metrics fold.
    fn solve(mut self, server: &Server, started: &Started) -> Result<HierServed, ServeError> {
        // A request-level deadline set by a direct library caller still
        // applies if earlier.
        self.deadline = self.deadline.into_iter().chain(started.deadline).min();
        let response = server
            .engine
            .synthesize_hier(self)
            .map_err(|e| server.hier_error(e))?;
        let metrics = &server.metrics;
        metrics.add(Counter::HierStageSolves, response.stats.stage_solves as u64);
        metrics.add(Counter::HierCacheHits, response.stats.cache_hits as u64);
        if response.degraded {
            // Exactly one deadline outcome per request, as on the flat
            // path: degraded-and-served or expired-and-typed-error.
            metrics.add(Counter::DeadlineDegraded, 1);
            metrics.add(Counter::HierDegraded, 1);
        }
        Ok(HierServed {
            summary: response.summary(),
            timings: WireTimings {
                solve_micros: micros(response.timings.solve),
                stitch_micros: micros(response.timings.stitch),
                verify_micros: micros(response.timings.verify),
                ..started.timings()
            },
            degraded: response.degraded,
        })
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
/// (a panic escaped [`Job::run`]'s isolation window) and the server is
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
            self.server.metrics.add(Counter::WorkerRespawns, 1);
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
        // retiring their shared entries, which the hot tier holds too.
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
        let Ok(Front::Answered(rehit)) = server.front_gates(pruned_hash, "t") else {
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
    fn full_token_buckets_are_swept_so_client_names_cannot_grow_the_map() {
        // A refill rate at which every bucket is full again by the next
        // request: each client's bucket is as good as missing, so however
        // many identities arrive, the map holds O(1) of them.
        let server = server(ServeConfig {
            workers: 1,
            rate_limit_per_sec: 1e12,
            rate_limit_burst: 1,
            ..Default::default()
        });
        for i in 0..10_000 {
            assert!(server.check_rate_limit(&format!("client-{i}")).is_ok());
        }
        let held = server.buckets.lock().expect("bucket lock").map.len();
        assert!(held <= 4, "{held} buckets held for 10000 one-shot clients");
        assert_eq!(server.snapshot().rejections.rate_limited, 0);
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
