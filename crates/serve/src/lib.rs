//! `sccl-serve`: the daemon serving layer over [`sccl_sched::Engine`].
//!
//! The engine answers one request at a time from whoever holds it; this
//! crate turns it into a long-lived, multi-client service:
//!
//! * [`Server`] — the in-process core: a **bounded request queue** with
//!   completion-handle [`Ticket`]s drained by a std-thread worker pool,
//!   **admission control** (per-client in-flight quotas plus a global
//!   cap on the estimated solver memory of everything admitted) and the
//!   [`HotTier`], an in-memory cache of recently served frontiers in
//!   front of the engine's on-disk store with a **lock-free read path**;
//!   each slot ([`HotEntry`]) keeps the report's once-rendered wire
//!   payload, so a hot hit is answered with a copy of bytes.
//! * [`EngineMetrics`] — a lock-free metrics registry (cache hit rates,
//!   p50/p99 solve latency, queue depth, candidate-memo hit rate,
//!   rejection counts) snapshottable as JSON.
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
//! [`Daemon::bind`]; the many-client load bench in `crates/bench` drives
//! the daemon through [`ServeClient`] and records throughput next to the
//! solver benches.

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
    CacheCounters, DaemonCounters, DaemonGauges, EngineMetrics, FaultCounters, FaultGauges,
    HierCounters, Histogram, HotCounters, HotTierGauges, LatencyCounters, LatencySnapshot,
    MetricsSnapshot, PoolCounters, QueueGauges, RegistryGauges, RejectionCounters, RequestCounters,
};
pub use server::{
    solve_estimate_cells, Health, HierOutcome, HierServed, HierTicket, Outcome, ServeConfig,
    ServeError, Served, ServedFrom, Server, Ticket,
};
pub use wire::{WireErrorKind, WireRequest, WireResponse, WireSynthesize, WireTimings};
