//! The serving layer's metrics registry: lock-free counters and
//! log-scale latency histograms every daemon thread records into, plus a
//! consistent-enough [`MetricsSnapshot`] that serializes to JSON for the
//! wire's `metrics` verb.
//!
//! Everything on the hot path is a relaxed atomic — recording a request
//! costs a handful of uncontended `fetch_add`s, never a lock. Snapshots
//! read the same atomics; they are not a single linearization point
//! across all counters (a request racing the snapshot may appear in
//! `requests` but not yet in a histogram), which is the standard metrics
//! trade and irrelevant at reporting granularity.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` counts samples with
/// `floor(log2(micros)) == i` (sub-microsecond samples land in bucket 0),
/// so 40 buckets span 1 µs to ~12 days.
const BUCKETS: usize = 40;

/// A lock-free, log-scale latency histogram (microsecond samples).
pub struct Histogram {
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
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (63 - (micros | 1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The quantile `q` (in `[0, 1]`), estimated as the upper edge of the
    /// bucket containing the `ceil(q * count)`-th sample — an upper bound
    /// within a factor of two of the true quantile, which is what a
    /// log-scale histogram buys. Zero with no samples.
    fn quantile_micros(&self, q: f64) -> u64 {
        let count = self.count();
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
    pub fn snapshot(&self) -> LatencySnapshot {
        let count = self.count();
        let sum = self.sum_micros.load(Ordering::Relaxed);
        LatencySnapshot {
            count,
            p50_micros: self.quantile_micros(0.50),
            p99_micros: self.quantile_micros(0.99),
            max_micros: self.max_micros.load(Ordering::Relaxed),
            mean_micros: sum.checked_div(count).unwrap_or(0),
        }
    }
}

/// Summary statistics of one [`Histogram`].
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

/// The daemon-wide metrics registry. One instance lives as long as the
/// daemon; every connection and worker thread records into it.
#[derive(Default)]
pub struct EngineMetrics {
    // Request accounting.
    requests_total: AtomicU64,
    synthesize_requests: AtomicU64,
    metrics_requests: AtomicU64,
    bad_requests: AtomicU64,
    synthesis_errors: AtomicU64,
    // Admission rejections, by cause.
    rejected_queue_full: AtomicU64,
    rejected_client_quota: AtomicU64,
    rejected_memory_budget: AtomicU64,
    rejected_rate_limited: AtomicU64,
    rejected_shutdown: AtomicU64,
    // Overload control.
    brownout_entered: AtomicU64,
    // Where answers came from.
    hot_hits: AtomicU64,
    disk_hits: AtomicU64,
    solved: AtomicU64,
    // Queue gauges.
    queue_depth: AtomicU64,
    queue_peak_depth: AtomicU64,
    // Sweep efficiency (summed from per-response IncrementalStats).
    memo_hits: AtomicU64,
    warm_candidates: AtomicU64,
    pool_checkins: AtomicU64,
    // Fault containment.
    panics_caught: AtomicU64,
    worker_respawns: AtomicU64,
    deadline_expired: AtomicU64,
    deadline_degraded: AtomicU64,
    verify_failures: AtomicU64,
    // Hierarchical composition accounting.
    hier_requests: AtomicU64,
    hier_stage_solves: AtomicU64,
    hier_cache_hits: AtomicU64,
    hier_degraded: AtomicU64,
    hier_verify_failures: AtomicU64,
    // Latency histograms.
    solve_latency: Histogram,
    total_latency: Histogram,
}

impl EngineMetrics {
    pub fn new() -> Self {
        EngineMetrics::default()
    }

    /// Count one wire request of any verb.
    pub fn request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn synthesize_request(&self) {
        self.synthesize_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn metrics_request(&self) {
        self.metrics_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn bad_request(&self) {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn synthesis_error(&self) {
        self.synthesis_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn rejected_queue_full(&self) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    pub fn rejected_client_quota(&self) {
        self.rejected_client_quota.fetch_add(1, Ordering::Relaxed);
    }

    pub fn rejected_memory_budget(&self) {
        self.rejected_memory_budget.fetch_add(1, Ordering::Relaxed);
    }

    pub fn rejected_rate_limited(&self) {
        self.rejected_rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    pub fn rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one ready → browned-out transition of the overload
    /// controller (the gauge itself is supplied at snapshot time).
    pub fn brownout_entered(&self) {
        self.brownout_entered.fetch_add(1, Ordering::Relaxed);
    }

    pub fn hot_hit(&self) {
        self.hot_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn solved(&self, solve_latency: Duration) {
        self.solved.fetch_add(1, Ordering::Relaxed);
        self.solve_latency.record(solve_latency);
    }

    /// Record the end-to-end latency of a served synthesize request
    /// (admission to response, hot hits included).
    pub fn served(&self, total_latency: Duration) {
        self.total_latency.record(total_latency);
    }

    /// Fold one response's sweep accounting into the efficiency counters.
    pub fn incremental(&self, stats: &sccl_core::incremental::IncrementalStats) {
        self.memo_hits.fetch_add(stats.memo_hits, Ordering::Relaxed);
        self.warm_candidates
            .fetch_add(stats.warm_candidates, Ordering::Relaxed);
        self.pool_checkins
            .fetch_add(stats.pool_checkins, Ordering::Relaxed);
    }

    /// Count one worker panic contained by the serving layer's unwind
    /// boundary (the request got a typed error, the daemon kept running).
    pub fn panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one worker thread respawned after dying to a panic.
    pub fn worker_respawned(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request whose deadline expired with nothing solved.
    pub fn deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request answered with a degraded (partial) frontier
    /// because its deadline cut synthesis short.
    pub fn deadline_degraded(&self) {
        self.deadline_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one report that failed decode-time verification.
    pub fn verify_failure(&self) {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one hierarchical (`groups`) submission, admitted or not.
    pub fn hier_request(&self) {
        self.hier_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold one served composition's stage-solve accounting in: engine
    /// solves issued and how many of those the persistent cache answered.
    pub fn hier_stage_solves(&self, stage_solves: u64, cache_hits: u64) {
        self.hier_stage_solves
            .fetch_add(stage_solves, Ordering::Relaxed);
        self.hier_cache_hits
            .fetch_add(cache_hits, Ordering::Relaxed);
    }

    /// Count one composition served degraded (some stage picked from a
    /// partial frontier after its deadline cut).
    pub fn hier_degraded(&self) {
        self.hier_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one stitched schedule the composition verifier rejected.
    pub fn hier_verify_failure(&self) {
        self.hier_verify_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Track the queue depth gauge (called with the depth after a
    /// push/pop).
    pub fn queue_depth(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_peak_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Snapshot every counter into a serializable report. `hot`,
    /// `registry` and `faults` describe current hot-tier, candidate-memo
    /// and quarantine state (the metrics registry itself holds no
    /// references to any of them).
    pub fn snapshot(
        &self,
        hot: HotTierGauges,
        registry: RegistryGauges,
        faults: FaultGauges,
        daemon: DaemonGauges,
    ) -> MetricsSnapshot {
        let hot_hits = self.hot_hits.load(Ordering::Relaxed);
        let disk_hits = self.disk_hits.load(Ordering::Relaxed);
        let solved = self.solved.load(Ordering::Relaxed);
        let answered = hot_hits + disk_hits + solved;
        let memo_hits = self.memo_hits.load(Ordering::Relaxed);
        let warm_candidates = self.warm_candidates.load(Ordering::Relaxed);
        let probes = memo_hits + warm_candidates;
        MetricsSnapshot {
            requests: RequestCounters {
                total: self.requests_total.load(Ordering::Relaxed),
                synthesize: self.synthesize_requests.load(Ordering::Relaxed),
                metrics: self.metrics_requests.load(Ordering::Relaxed),
                bad: self.bad_requests.load(Ordering::Relaxed),
                synthesis_errors: self.synthesis_errors.load(Ordering::Relaxed),
            },
            rejections: RejectionCounters {
                queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
                client_quota: self.rejected_client_quota.load(Ordering::Relaxed),
                memory_budget: self.rejected_memory_budget.load(Ordering::Relaxed),
                rate_limited: self.rejected_rate_limited.load(Ordering::Relaxed),
                shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            },
            cache: CacheCounters {
                hot_hits,
                disk_hits,
                solved,
                hit_rate: if answered == 0 {
                    0.0
                } else {
                    (hot_hits + disk_hits) as f64 / answered as f64
                },
                hot_len: hot.len,
                hot_capacity: hot.capacity,
            },
            hot: HotCounters {
                resident_bytes: hot.resident_bytes,
                key_memo_hits: hot.key_memo_hits,
            },
            queue: QueueGauges {
                depth: self.queue_depth.load(Ordering::Relaxed),
                peak_depth: self.queue_peak_depth.load(Ordering::Relaxed),
            },
            pool: PoolCounters {
                memo_hits,
                warm_candidates,
                pool_checkins: self.pool_checkins.load(Ordering::Relaxed),
                memo_hit_rate: if probes == 0 {
                    0.0
                } else {
                    memo_hits as f64 / probes as f64
                },
                registry_len: registry.len,
                registry_weight: registry.weight,
            },
            faults: FaultCounters {
                panics_caught: self.panics_caught.load(Ordering::Relaxed),
                worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
                deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
                deadline_degraded: self.deadline_degraded.load(Ordering::Relaxed),
                verify_failures: self.verify_failures.load(Ordering::Relaxed),
                cache_quarantined: faults.cache_quarantined,
            },
            hier: HierCounters {
                requests: self.hier_requests.load(Ordering::Relaxed),
                stage_solves: self.hier_stage_solves.load(Ordering::Relaxed),
                cache_hits: self.hier_cache_hits.load(Ordering::Relaxed),
                degraded: self.hier_degraded.load(Ordering::Relaxed),
                verify_failures: self.hier_verify_failures.load(Ordering::Relaxed),
            },
            daemon: DaemonCounters {
                uptime_ms: daemon.uptime_ms,
                started_unix_ms: daemon.started_unix_ms,
                journal_replayed: daemon.journal_replayed,
                checkpoints_written: daemon.checkpoints_written,
                journal_records_written: daemon.journal_records_written,
                journal_write_errors: daemon.journal_write_errors,
                rate_limited: self.rejected_rate_limited.load(Ordering::Relaxed),
                brownout_active: daemon.brownout_active,
                brownout_entered: self.brownout_entered.load(Ordering::Relaxed),
                draining: daemon.draining,
            },
            latency_micros: LatencyCounters {
                solve: self.solve_latency.snapshot(),
                total: self.total_latency.snapshot(),
            },
        }
    }
}

/// Current hot-tier occupancy, supplied by the caller at snapshot time.
#[derive(Clone, Copy, Debug, Default)]
pub struct HotTierGauges {
    pub len: u64,
    pub capacity: u64,
    /// Rendered payload bytes the tier's entries hold.
    pub resident_bytes: u64,
    /// Requests whose content hash the key memo supplied.
    pub key_memo_hits: u64,
}

/// Current occupancy of the engine's memo of decided candidates, supplied
/// at snapshot time (the wire names are from when it was a pool registry).
#[derive(Clone, Copy, Debug, Default)]
pub struct RegistryGauges {
    pub len: u64,
    pub weight: u64,
}

/// Quarantine gauges owned by the engine (its on-disk cache), supplied at
/// snapshot time.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultGauges {
    pub cache_quarantined: u64,
}

/// Daemon lifecycle and crash-recovery gauges owned by the server and
/// its journal, supplied at snapshot time.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonGauges {
    /// Milliseconds since the serving core started.
    pub uptime_ms: u64,
    /// Unix timestamp (ms) of the start, for correlating restarts.
    pub started_unix_ms: u64,
    /// Journaled queue records replayed at startup.
    pub journal_replayed: u64,
    /// Sweep checkpoints durably written by the engine's journal.
    pub checkpoints_written: u64,
    /// Queue records durably written by the engine's journal.
    pub journal_records_written: u64,
    /// Journal writes (checkpoints and queue records) that failed.
    pub journal_write_errors: u64,
    /// Whether the brownout controller is currently active.
    pub brownout_active: bool,
    /// Whether the server has stopped admitting (drain or shutdown).
    pub draining: bool,
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

    #[test]
    fn hit_rate_counts_both_tiers() {
        let m = EngineMetrics::new();
        m.hot_hit();
        m.hot_hit();
        m.disk_hit();
        m.solved(Duration::from_micros(100));
        let snap = m.snapshot(
            HotTierGauges::default(),
            RegistryGauges::default(),
            FaultGauges::default(),
            DaemonGauges::default(),
        );
        assert_eq!(snap.cache.hot_hits, 2);
        assert_eq!(snap.cache.disk_hits, 1);
        assert_eq!(snap.cache.solved, 1);
        assert!((snap.cache.hit_rate - 0.75).abs() < 1e-9);
        assert_eq!(snap.latency_micros.solve.count, 1);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = EngineMetrics::new();
        m.request();
        m.synthesize_request();
        m.queue_depth(3);
        m.queue_depth(1);
        let snap = m.snapshot(
            HotTierGauges {
                len: 2,
                capacity: 64,
                resident_bytes: 4096,
                key_memo_hits: 7,
            },
            RegistryGauges {
                len: 1,
                weight: 12345,
            },
            FaultGauges {
                cache_quarantined: 2,
            },
            DaemonGauges {
                uptime_ms: 1234,
                started_unix_ms: 1_700_000_000_000,
                journal_replayed: 2,
                checkpoints_written: 5,
                journal_records_written: 3,
                journal_write_errors: 1,
                brownout_active: false,
                draining: false,
            },
        );
        assert_eq!(snap.queue.depth, 1);
        assert_eq!(snap.queue.peak_depth, 3);
        assert_eq!(snap.faults.cache_quarantined, 2);
        assert_eq!(snap.daemon.uptime_ms, 1234);
        assert_eq!(snap.daemon.journal_replayed, 2);
        assert_eq!(snap.daemon.checkpoints_written, 5);
        assert_eq!(snap.daemon.journal_records_written, 3);
        assert_eq!(snap.daemon.journal_write_errors, 1);
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
            "\"resident_bytes\":4096",
            "\"key_memo_hits\":7",
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
