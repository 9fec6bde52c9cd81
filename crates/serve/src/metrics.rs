//! The serving layer's metrics registry: one table of relaxed atomic
//! counters and two log-scale latency histograms that every daemon thread
//! records into, plus the [`MetricsSnapshot`] the wire's `metrics` verb
//! serializes (built by [`Server::snapshot`](crate::Server::snapshot),
//! which folds in the gauges other parts of the server own).
//!
//! Recording is a relaxed `fetch_add`, never a lock. Snapshots read the
//! same atomics; they are not a single linearization point across all
//! counters (a request racing the snapshot may appear in `requests` but
//! not yet in a histogram), which is the standard metrics trade and
//! irrelevant at reporting granularity.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` counts samples with
/// `floor(log2(micros)) == i` (sub-microsecond samples land in bucket 0),
/// so 40 buckets span 1 µs to ~12 days.
const BUCKETS: usize = 40;

/// A lock-free, log-scale latency histogram (microsecond samples).
pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one latency sample.
    fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (63 - (micros | 1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// The quantile `q` (in `[0, 1]`), estimated as the upper edge of the
    /// bucket containing the `ceil(q * count)`-th sample — an upper bound
    /// within a factor of two of the true quantile, which is what a
    /// log-scale histogram buys. Zero with no samples.
    fn quantile_micros(&self, q: f64, count: u64) -> u64 {
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                // Upper edge of bucket i, capped by the observed maximum so
                // a single-sample histogram reports that sample, not 2×.
                let edge = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return edge.min(self.max_micros.load(Ordering::Relaxed));
            }
        }
        self.max_micros.load(Ordering::Relaxed)
    }

    /// Snapshot the histogram's summary statistics.
    fn snapshot(&self) -> LatencySnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum_micros.load(Ordering::Relaxed);
        LatencySnapshot {
            count,
            p50_micros: self.quantile_micros(0.50, count),
            p99_micros: self.quantile_micros(0.99, count),
            max_micros: self.max_micros.load(Ordering::Relaxed),
            mean_micros: sum.checked_div(count).unwrap_or(0),
        }
    }
}

/// Summary statistics of one latency histogram.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Median latency (µs, log-bucket upper bound).
    pub p50_micros: u64,
    /// 99th-percentile latency (µs, log-bucket upper bound).
    pub p99_micros: u64,
    /// Largest sample (µs, exact).
    pub max_micros: u64,
    /// Arithmetic mean (µs, exact sum / count).
    pub mean_micros: u64,
}

/// The registry's counters, each one slot of [`EngineMetrics`]' table. The
/// wire name of each is the [`MetricsSnapshot`] field it is read into.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Counter {
    Requests,
    SynthesizeRequests,
    MetricsRequests,
    BadRequests,
    SynthesisErrors,
    RejectedQueueFull,
    RejectedClientQuota,
    RejectedMemoryBudget,
    RejectedRateLimited,
    RejectedShutdown,
    BrownoutEntered,
    HotHits,
    DiskHits,
    Solved,
    /// A gauge: the depth after the last push or pop (see
    /// [`EngineMetrics::queue_depth`]).
    QueueDepth,
    QueuePeakDepth,
    MemoHits,
    WarmCandidates,
    PoolCheckins,
    PanicsCaught,
    WorkerRespawns,
    DeadlineExpired,
    DeadlineDegraded,
    VerifyFailures,
    HierRequests,
    HierStageSolves,
    HierCacheHits,
    HierDegraded,
    HierVerifyFailures,
}

const COUNTERS: usize = Counter::HierVerifyFailures as usize + 1;

/// The daemon-wide metrics registry. One instance lives as long as the
/// server; every connection and worker thread records into it.
pub struct EngineMetrics {
    counters: [AtomicU64; COUNTERS],
    /// Solver wall-clock of freshly solved requests.
    solve_latency: Histogram,
    /// End-to-end latency of every served `synthesize` submission.
    total_latency: Histogram,
}

impl EngineMetrics {
    pub(crate) fn new() -> Self {
        EngineMetrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            solve_latency: Histogram::default(),
            total_latency: Histogram::default(),
        }
    }

    /// Add `n` to `counter`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Count one fresh solve and its solver wall-clock.
    pub(crate) fn solved(&self, solve_latency: Duration) {
        self.add(Counter::Solved, 1);
        self.solve_latency.record(solve_latency);
    }

    /// Record the end-to-end latency of a served synthesize request
    /// (admission to response, hot hits included).
    pub(crate) fn served(&self, total_latency: Duration) {
        self.total_latency.record(total_latency);
    }

    /// Track the queue depth gauge (called with the depth after a
    /// push/pop).
    pub(crate) fn queue_depth(&self, depth: usize) {
        let depth = depth as u64;
        self.counters[Counter::QueueDepth as usize].store(depth, Ordering::Relaxed);
        self.counters[Counter::QueuePeakDepth as usize].fetch_max(depth, Ordering::Relaxed);
    }

    /// The two latency histograms' summaries.
    pub(crate) fn latency(&self) -> LatencyCounters {
        LatencyCounters {
            solve: self.solve_latency.snapshot(),
            total: self.total_latency.snapshot(),
        }
    }
}

/// One consistent-enough view of every metric, serializable to JSON.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MetricsSnapshot {
    pub requests: RequestCounters,
    pub rejections: RejectionCounters,
    pub cache: CacheCounters,
    pub hot: HotCounters,
    pub queue: QueueGauges,
    pub pool: PoolCounters,
    pub faults: FaultCounters,
    pub hier: HierCounters,
    pub daemon: DaemonCounters,
    pub latency_micros: LatencyCounters,
}

/// Hierarchical-composition accounting: how many `groups` requests came
/// in, how their stage solves fared against the cache, and whether any
/// composition degraded or failed its verifier. A healthy daemon shows
/// `verify_failures == 0`; `degraded` counts deadline outcomes, not
/// faults.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct HierCounters {
    /// Hierarchical (`groups`) submissions, admitted or rejected.
    pub requests: u64,
    /// Engine solves issued by stage planners, summed over compositions.
    pub stage_solves: u64,
    /// Stage solves the engine's persistent cache answered.
    pub cache_hits: u64,
    /// Compositions served degraded (a stage picked from a partial
    /// frontier after the deadline cut).
    pub degraded: u64,
    /// Stitched schedules the composition verifier rejected.
    pub verify_failures: u64,
}

#[derive(Clone, Copy, Debug, Serialize)]
pub struct RequestCounters {
    /// Wire requests of any verb.
    pub total: u64,
    /// `synthesize` requests (admitted or rejected).
    pub synthesize: u64,
    /// `metrics` requests.
    pub metrics: u64,
    /// Unparseable or malformed request lines.
    pub bad: u64,
    /// Admitted requests whose synthesis failed.
    pub synthesis_errors: u64,
}

#[derive(Clone, Copy, Debug, Serialize)]
pub struct RejectionCounters {
    /// Rejected because the bounded queue was full.
    pub queue_full: u64,
    /// Rejected because the client exceeded its in-flight quota.
    pub client_quota: u64,
    /// Rejected because admitting the solve would exceed the global
    /// solver-memory budget.
    pub memory_budget: u64,
    /// Rejected because the client's token bucket ran dry.
    pub rate_limited: u64,
    /// Rejected because the daemon was draining or shutting down.
    pub shutdown: u64,
}

/// Daemon lifecycle, crash-recovery and overload-control accounting: a
/// healthy, freshly started daemon shows `journal_replayed == 0`,
/// `rate_limited == 0` and `brownout_active == false`.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct DaemonCounters {
    /// Milliseconds since the serving core started.
    pub uptime_ms: u64,
    /// Unix timestamp (ms) of the start.
    pub started_unix_ms: u64,
    /// Journaled queue records replayed at startup (crash recovery).
    pub journal_replayed: u64,
    /// Sweep checkpoints durably written by the engine's journal.
    pub checkpoints_written: u64,
    /// Queue records durably written: one per admitted request that may
    /// solve (a cache-answerable or refused request writes none).
    pub journal_records_written: u64,
    /// Journal writes (checkpoints and queue records) that failed. The
    /// daemon serves on without the record, so a non-zero value means
    /// crash recovery is partly or wholly off — a full or read-only
    /// journal disk shows here and nowhere else.
    pub journal_write_errors: u64,
    /// Submissions rejected by the per-client token bucket.
    pub rate_limited: u64,
    /// Whether the brownout controller is active right now.
    pub brownout_active: bool,
    /// Ready → browned-out transitions since start.
    pub brownout_entered: u64,
    /// Whether admission has stopped (drain or shutdown).
    pub draining: bool,
}

#[derive(Clone, Copy, Debug, Serialize)]
pub struct CacheCounters {
    /// Served from the in-memory hot tier (no queue, no disk).
    pub hot_hits: u64,
    /// Served from the on-disk [`AlgorithmCache`](sccl_sched::AlgorithmCache).
    pub disk_hits: u64,
    /// Freshly solved.
    pub solved: u64,
    /// `(hot_hits + disk_hits) / answered`.
    pub hit_rate: f64,
    /// Entries currently in the hot tier.
    pub hot_len: u64,
    /// The hot tier's entry bound.
    pub hot_capacity: u64,
}

/// What the hot tier spends beyond its entry count (`cache.hot_len`):
/// memory on rendered payloads, and a second lookup in front of the first.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct HotCounters {
    /// Rendered wire-payload bytes the tier's entries hold right now.
    pub resident_bytes: u64,
    /// `synthesize` requests whose content hash came from the key memo
    /// instead of a topology build and a key hash.
    pub key_memo_hits: u64,
}

#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct QueueGauges {
    /// Jobs queued right now.
    pub depth: u64,
    /// High-water mark of the queue depth.
    pub peak_depth: u64,
}

#[derive(Clone, Copy, Debug, Serialize)]
pub struct PoolCounters {
    /// Candidates answered from the engine's memo, summed over responses.
    pub memo_hits: u64,
    /// Candidates decided by a solver, summed.
    pub warm_candidates: u64,
    /// Candidates the engine answered (memo or solver), summed.
    pub pool_checkins: u64,
    /// `memo_hits / (memo_hits + warm_candidates)`.
    pub memo_hit_rate: f64,
    /// Base problems currently retained by the engine's memo.
    pub registry_len: u64,
    /// Memo cells currently retained.
    pub registry_weight: u64,
}

/// Fault-containment accounting: panics caught, quarantines, deadline
/// outcomes and verification failures. All zero on a healthy daemon
/// except possibly the deadline counters.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct FaultCounters {
    /// Worker panics contained by the unwind boundary.
    pub panics_caught: u64,
    /// Worker threads respawned after dying to a panic.
    pub worker_respawns: u64,
    /// Requests whose deadline expired with nothing solved.
    pub deadline_expired: u64,
    /// Requests answered with a degraded partial frontier.
    pub deadline_degraded: u64,
    /// Reports that failed decode-time verification.
    pub verify_failures: u64,
    /// Cache entries moved to `quarantine/` (gauge, from the engine's
    /// cache stats).
    pub cache_quarantined: u64,
}

#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencyCounters {
    /// Solver wall-clock of freshly solved requests.
    pub solve: LatencySnapshot,
    /// End-to-end request latency (hot hits included).
    pub total: LatencySnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let h = Histogram::default();
        for micros in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 10_000] {
            h.record(Duration::from_micros(micros));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.max_micros, 10_000);
        // p50 falls in the bucket of the 5th sample (50 µs → bucket [32, 64)),
        // reported as the bucket's upper edge.
        assert!(snap.p50_micros >= 50 && snap.p50_micros <= 63, "{snap:?}");
        // p99 lands on the outlier.
        assert_eq!(snap.p99_micros, 10_000, "{snap:?}");
        assert!(snap.mean_micros > 0);
    }

    #[test]
    fn empty_histogram_snapshots_to_zeroes() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50_micros, 0);
        assert_eq!(snap.p99_micros, 0);
        assert_eq!(snap.max_micros, 0);
    }

    #[test]
    fn single_sample_quantiles_report_that_sample() {
        let h = Histogram::default();
        h.record(Duration::from_micros(777));
        let snap = h.snapshot();
        assert_eq!(snap.p50_micros, 777);
        assert_eq!(snap.p99_micros, 777);
    }

    /// A server with nothing served yet, for its registry and snapshot.
    fn idle_server() -> std::sync::Arc<crate::Server> {
        let engine = sccl_sched::Engine::builder().build().expect("engine");
        let config = crate::ServeConfig {
            workers: 1,
            ..Default::default()
        };
        crate::Server::start(engine, config).expect("server")
    }

    #[test]
    fn hit_rate_counts_both_tiers() {
        let server = idle_server();
        let m = server.metrics();
        m.add(Counter::HotHits, 2);
        m.add(Counter::DiskHits, 1);
        m.solved(Duration::from_micros(100));
        let snap = server.snapshot();
        assert_eq!(snap.cache.hot_hits, 2);
        assert_eq!(snap.cache.disk_hits, 1);
        assert_eq!(snap.cache.solved, 1);
        assert!((snap.cache.hit_rate - 0.75).abs() < 1e-9);
        assert_eq!(snap.latency_micros.solve.count, 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let server = idle_server();
        let m = server.metrics();
        m.add(Counter::Requests, 1);
        m.add(Counter::SynthesizeRequests, 1);
        m.queue_depth(3);
        m.queue_depth(1);
        server.note_journal_replayed(2);
        let snap = server.snapshot();
        assert_eq!(snap.requests.total, 1);
        assert_eq!(snap.requests.synthesize, 1);
        assert_eq!(snap.queue.depth, 1);
        assert_eq!(snap.queue.peak_depth, 3);
        assert_eq!(snap.cache.hot_capacity, 256);
        assert_eq!(snap.daemon.journal_replayed, 2);
        assert_eq!(snap.daemon.journal_records_written, 0);
        assert_eq!(snap.daemon.rate_limited, 0);
        assert!(!snap.daemon.brownout_active);
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        for field in [
            "\"hit_rate\"",
            "\"p50_micros\"",
            "\"p99_micros\"",
            "\"queue_full\"",
            "\"registry_weight\"",
            "\"hot_capacity\"",
            "\"resident_bytes\"",
            "\"key_memo_hits\"",
            "\"panics_caught\"",
            "\"verify_failures\"",
            "\"deadline_degraded\"",
            "\"cache_quarantined\"",
            "\"uptime_ms\"",
            "\"started_unix_ms\"",
            "\"journal_replayed\"",
            "\"checkpoints_written\"",
            "\"journal_records_written\"",
            "\"journal_write_errors\"",
            "\"rate_limited\"",
            "\"brownout_active\"",
            "\"brownout_entered\"",
            "\"hier\"",
            "\"stage_solves\"",
        ] {
            assert!(
                json.contains(field),
                "snapshot JSON missing {field}: {json}"
            );
        }
    }
}
