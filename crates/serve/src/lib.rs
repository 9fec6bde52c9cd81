//! `sccl-serve`: the daemon serving layer over [`sccl_sched::Engine`].
//!
//! The engine answers one request at a time from whoever holds it; this
//! crate turns it into a long-lived, multi-client service:
//!
//! * [`Server`] — the in-process core: a **bounded request queue** drained
//!   by a std-thread worker pool, with one job path for flat and
//!   hierarchical requests alike (one gate, one admission, one panic
//!   boundary, one [`Ticket`] type), **admission control** (per-client
//!   in-flight quotas plus a global cap on the estimated solver memory of
//!   everything admitted) and the [`HotTier`], an in-memory cache of
//!   recently served frontiers in front of the engine's on-disk store,
//!   behind one `RwLock`; each slot ([`HotEntry`]) keeps the report's
//!   once-rendered wire payload, so a hot hit is answered with a copy of
//!   bytes.
//! * [`EngineMetrics`] — one table of atomic counters plus two latency
//!   histograms (cache hit rates, p50/p99 solve latency, queue depth,
//!   candidate-memo hit rate, rejection counts), snapshottable as JSON
//!   through [`Server::snapshot`].
//! * [`Daemon`] — the socket shell: newline-delimited JSON over a Unix
//!   domain socket, verbs `synthesize` / `metrics` / `health` / `drain`
//!   / `shutdown` (see [`wire`] for the exact protocol), one handler
//!   thread per connection. With a journal attached it journals the
//!   admitted requests that may solve (a cache-answerable request writes
//!   nothing) and replays survivors after a crash;
//!   `drain` (or SIGTERM) stops admission and exits with zero dropped
//!   in-flight jobs.
//! * [`ServeClient`] — a minimal blocking client for that protocol.
//!
//! The `sccl serve` CLI subcommand is a thin flag-parser over
//! [`Daemon::bind`]; the ledger's serve workloads drive the daemon
//! through [`ServeClient`].
//!
//! The one `unsafe` call is the SIGTERM handler's installation.

#![deny(unsafe_code)]

mod client;
mod daemon;
mod hot;
mod metrics;
mod server;
pub mod verify;
pub mod wire;

pub use client::{RetryPolicy, ServeClient};
pub use daemon::Daemon;
pub use hot::{HotEntry, HotTier};
pub use metrics::{
    CacheCounters, DaemonCounters, EngineMetrics, FaultCounters, HierCounters, HotCounters,
    LatencyCounters, LatencySnapshot, MetricsSnapshot, PoolCounters, QueueGauges,
    RejectionCounters, RequestCounters,
};
pub use server::{
    solve_estimate_cells, Health, HierServed, ServeConfig, ServeError, Served, ServedFrom, Server,
    Ticket,
};
pub use wire::{WireErrorKind, WireRequest, WireResponse, WireSynthesize, WireTimings};
