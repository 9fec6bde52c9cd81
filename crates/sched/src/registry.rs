//! The engine-owned pool registry: shared, sharded, bounded.
//!
//! What a long-lived engine keeps between requests is, per `(base problem,
//! chunk count)`, a [`ChunkPool`]: the memo of the candidates it has
//! decided, in front of one fresh solve per candidate. The unit of sharing
//! is the pool and the sharing protocol is *check-out / check-in*:
//!
//! * a worker (or the sequential driver) checks out the pool for exactly
//!   the chunk count its candidate needs, solves **outside** any lock, and
//!   checks the pool back in;
//! * concurrent workers on different chunk counts map to different shards
//!   (the shard index mixes the base-problem hash with the chunk count),
//!   so they never contend on one mutex;
//! * two workers racing on the *same* chunk count simply materialize a
//!   second pool — both are checked in afterwards and both keep serving
//!   future requests, so the race costs a duplicate memo, never
//!   correctness;
//! * the registry is bounded **by what the pools retain, not by pool
//!   count**: every check-in weighs its pool by its memoized runs (one
//!   cell per decided candidate plus one per send of a memoized schedule;
//!   see [`ChunkPool::memo_weight`]), and once the stored total runs past
//!   [`EngineBuilder::warm_pool_capacity`](crate::EngineBuilder::warm_pool_capacity)
//!   cells (plus 10% slack so the bound is amortized, not a per-check-in
//!   scan), the least-recently-used pools (by check-in tick) are evicted
//!   back down to capacity. The most recently checked-in pool always
//!   survives, so a capacity below one pool's size degrades to
//!   keep-newest rather than thrashing to empty.
//!
//! Per-request accounting goes through a [`PoolSession`]: every check-in
//! folds the pool's stat delta into the session, which is what the engine
//! reports as the response's [`IncrementalStats`] (including the
//! `pool_checkins` counter).

use parking_lot::Mutex;
use sccl_core::encoding::SynthesisRun;
use sccl_core::incremental::IncrementalStats;
use sccl_core::pareto::{BaseProblem, CandidateJob, ChunkPool, SynthesisConfig};
use sccl_solver::Limits;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of independently locked shards. A power of two comfortably above
/// any realistic worker count, so check-out/check-in stay uncontended.
const NUM_SHARDS: usize = 16;

/// One stored pool: its check-in recency tick, its weight in memo cells at
/// check-in time (weights are re-measured on every check-in, so a pool
/// that grew while checked out is re-weighed when it returns), and the pool
/// itself.
struct Stored {
    tick: u64,
    weight: usize,
    pool: ChunkPool,
}

/// One slot per `(base-problem hash, chunk count)`; several pools can
/// coexist in a slot when parallel workers raced on the chunk count. The
/// key string is shared (`Arc<str>`), so the per-candidate check-out /
/// check-in hot path never allocates.
type Key = (Arc<str>, usize);
type Slot = Vec<Stored>;

#[derive(Default)]
struct Shard {
    slots: HashMap<Key, Slot>,
}

/// The shared store of [`ChunkPool`]s, keyed by base-problem content hash
/// and sharded by chunk count under `parking_lot` mutexes.
pub struct WarmPoolRegistry {
    shards: Box<[Mutex<Shard>]>,
    /// Most memo cells (summed over stored pools) retained across
    /// requests; LRU eviction beyond it.
    capacity: usize,
    /// Pools currently *stored* (checked-out pools are not counted; they
    /// return through `check_in`).
    len: AtomicUsize,
    /// Memo cells currently stored (same accounting as `len`).
    weight: AtomicUsize,
    /// Monotonic recency tick, stamped on every check-in.
    tick: AtomicU64,
    /// Pools dropped instead of checked in because their solve panicked.
    quarantined: AtomicU64,
}

impl WarmPoolRegistry {
    /// An empty registry bounded to `capacity` memo cells, summed over
    /// every stored pool.
    pub fn new(capacity: usize) -> Self {
        WarmPoolRegistry {
            shards: (0..NUM_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity: capacity.max(1),
            len: AtomicUsize::new(0),
            weight: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Pools quarantined (dropped on a panicking solve) since the registry
    /// was built.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Pools currently stored (approximate under concurrent check-outs).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Memo cells currently stored across all pools (approximate under
    /// concurrent check-outs) — the quantity the capacity bounds.
    pub fn weight(&self) -> usize {
        self.weight.load(Ordering::Relaxed)
    }

    /// `true` when no pool is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_index(key: &str, chunks: usize) -> usize {
        // FNV-1a over the key, mixed with the chunk count: requests for
        // different chunk counts of one base problem land on different
        // shards, which is where parallel workers actually contend.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash.wrapping_add(chunks as u64) % NUM_SHARDS as u64) as usize
    }

    /// Take a pool for `(key, chunks)` out of the registry, preferring the
    /// one with the most decided candidates when a race left several.
    /// Returns `None` when no pool is stored (the caller materializes a
    /// fresh one).
    fn check_out(&self, key: &Arc<str>, chunks: usize) -> Option<ChunkPool> {
        let mut shard = self.shards[Self::shard_index(key, chunks)].lock();
        let slot = shard.slots.get_mut(&(Arc::clone(key), chunks))?;
        let best = slot
            .iter()
            .enumerate()
            .max_by_key(|(_, stored)| stored.pool.decided())
            .map(|(i, _)| i)?;
        let stored = slot.swap_remove(best);
        if slot.is_empty() {
            shard.slots.remove(&(Arc::clone(key), chunks));
        }
        // Still under the shard lock: a removal outside it could race a
        // concurrent check-in's increment and wrap the counters below zero.
        self.len.fetch_sub(1, Ordering::Relaxed);
        self.weight.fetch_sub(stored.weight, Ordering::Relaxed);
        drop(shard);
        Some(stored.pool)
    }

    /// Return a pool to the registry, weighing it by what it now
    /// memoizes. Eviction is amortized with 10% slack (like the on-disk cache's
    /// prune): only once the stored weight runs past `capacity + slack`
    /// cells does one pass evict the oldest pools back down to `capacity`,
    /// so a registry sitting at capacity does not pay a full scan on every
    /// check-in of the hot path.
    fn check_in(&self, key: Arc<str>, chunks: usize, pool: ChunkPool) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        // Weigh the pool as it returns: its memo grows while checked out,
        // so check-in is the one moment its size is both current and
        // observable without a lock on the pool. The +1 keeps a pool that
        // decided nothing from being free.
        let weight = 1 + pool.memo_weight();
        let new_weight = {
            let mut shard = self.shards[Self::shard_index(&key, chunks)].lock();
            shard
                .slots
                .entry((key, chunks))
                .or_default()
                .push(Stored { tick, weight, pool });
            // Counted under the shard lock, symmetric with `check_out`'s
            // decrement, so the counters can never transiently underflow.
            self.len.fetch_add(1, Ordering::Relaxed);
            self.weight.fetch_add(weight, Ordering::Relaxed) + weight
        };
        let slack = (self.capacity / 10).max(1);
        if new_weight > self.capacity + slack {
            self.evict_down_to(self.capacity);
        }
    }

    /// Best-effort LRU eviction: snapshot every stored pool's recency tick
    /// and weight (scanning shards one lock at a time), then remove the
    /// oldest pools until the stored weight is at most `target` cells. The
    /// most recent pool is never evicted (a capacity below one pool's size
    /// keeps the newest instead of thrashing to empty), and a pool checked
    /// out between the scan and the removal simply survives — the capacity
    /// is a bound on retained memory, not an exact invariant.
    fn evict_down_to(&self, target: usize) {
        let mut stored: Vec<(usize, Key, u64, usize)> = Vec::new();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock();
            for ((key, chunks), slot) in &shard.slots {
                for entry in slot {
                    stored.push((
                        shard_idx,
                        (Arc::clone(key), *chunks),
                        entry.tick,
                        entry.weight,
                    ));
                }
            }
        }
        stored.sort_by_key(|&(_, _, tick, _)| tick);
        let mut total: usize = stored.iter().map(|&(_, _, _, weight)| weight).sum();
        let mut victims = stored.into_iter();
        while total > target {
            let Some((shard_idx, key, tick, weight)) = victims.next() else {
                break;
            };
            // Keep the newest pool even when it alone exceeds the target.
            if victims.len() == 0 {
                break;
            }
            let mut shard = self.shards[shard_idx].lock();
            if let Some(slot) = shard.slots.get_mut(&key) {
                if let Some(pos) = slot.iter().position(|entry| entry.tick == tick) {
                    slot.swap_remove(pos);
                    if slot.is_empty() {
                        shard.slots.remove(&key);
                    }
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    self.weight.fetch_sub(weight, Ordering::Relaxed);
                    total -= weight;
                }
            }
        }
    }

    /// Open a per-request session against this registry for one base
    /// problem. The session carries what a worker needs to materialize
    /// missing pools and accumulates the request's incremental accounting.
    pub fn session(
        &self,
        key: String,
        base: BaseProblem,
        config: SynthesisConfig,
    ) -> PoolSession<'_> {
        PoolSession {
            registry: self,
            key: Arc::from(key),
            base,
            config,
            stats: Mutex::new(IncrementalStats::default()),
        }
    }
}

/// A per-request view of the registry: the check-out/check-in protocol for
/// one base problem, plus the request's accumulated [`IncrementalStats`].
/// Shared by reference across the parallel driver's worker threads.
pub struct PoolSession<'a> {
    registry: &'a WarmPoolRegistry,
    key: Arc<str>,
    base: BaseProblem,
    config: SynthesisConfig,
    stats: Mutex<IncrementalStats>,
}

impl PoolSession<'_> {
    /// Decide one candidate through a checked-out chunk pool. The pool is
    /// taken from the registry (or freshly built on a registry miss),
    /// solved on outside any lock, and checked back in afterwards; its
    /// stat delta is folded into the session. If the solve panics, the
    /// pool is **quarantined**: dropped rather than checked in — a pool
    /// that may be half-updated must not serve later candidates — counted in
    /// [`WarmPoolRegistry::quarantined`], and the panic is re-raised for
    /// the serving layer's isolation wrapper to catch.
    pub fn solve(&self, job: &CandidateJob, limits: Limits) -> SynthesisRun {
        let mut pool = self
            .registry
            .check_out(&self.key, job.chunks)
            .unwrap_or_else(|| ChunkPool::new(&self.base, &self.config, job.chunks));
        let before = pool.stats();
        let run = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sccl_core::failpoint::fire("pool.solve");
            pool.solve(job, limits)
        })) {
            Ok(run) => run,
            Err(payload) => {
                // `pool` stays owned here and is dropped by the unwind:
                // the quarantine is the *absence* of the check-in below.
                self.registry.quarantined.fetch_add(1, Ordering::Relaxed);
                std::panic::resume_unwind(payload);
            }
        };
        let mut delta = pool.stats().delta_since(&before);
        delta.pool_checkins = 1;
        self.registry
            .check_in(Arc::clone(&self.key), job.chunks, pool);
        self.stats.lock().absorb(&delta);
        run
    }

    /// The request's accumulated incremental accounting so far.
    pub fn stats(&self) -> IncrementalStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_collectives::Collective;
    use sccl_core::pareto::base_problem;
    use sccl_topology::builders;

    fn session_for<'a>(registry: &'a WarmPoolRegistry, key: &str, nodes: usize) -> PoolSession<'a> {
        let topo = builders::ring(nodes, 1);
        let base = base_problem(&topo, Collective::Allgather);
        let config = SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        };
        registry.session(key.to_string(), base, config)
    }

    fn job(steps: usize, rounds: u64, chunks: usize) -> CandidateJob {
        CandidateJob {
            index: 0,
            steps,
            rounds,
            chunks,
        }
    }

    /// A capacity comfortably above any pool this suite builds, so tests
    /// about sharing/memoization never trip eviction.
    const ROOMY: usize = 64 << 20;

    #[test]
    fn pools_survive_across_sessions_and_memoize() {
        let registry = WarmPoolRegistry::new(ROOMY);
        let first = session_for(&registry, "ring4", 4);
        assert!(first.solve(&job(2, 2, 1), Limits::none()).outcome.is_sat());
        assert_eq!(first.stats().memo_hits, 0);
        assert_eq!(first.stats().pool_checkins, 1);
        assert_eq!(registry.len(), 1);

        // A second session over the same key is served from the memo of
        // the checked-in pool.
        let second = session_for(&registry, "ring4", 4);
        assert!(second.solve(&job(2, 2, 1), Limits::none()).outcome.is_sat());
        assert_eq!(second.stats().memo_hits, 1);
        assert_eq!(second.stats().solve_calls, 0);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn capacity_bounds_the_stored_weight() {
        // A capacity of 1 cell is below any pool with a decided candidate,
        // so every check-in evicts everything but the newest pool.
        let registry = WarmPoolRegistry::new(1);
        let session = session_for(&registry, "ring4", 4);
        for chunks in 1..=4 {
            session.solve(&job(2, 2, chunks), Limits::none());
        }
        assert_eq!(
            registry.len(),
            1,
            "weighted LRU eviction must keep only the newest pool under a tiny capacity"
        );
        // The most recent chunk count survived (keep-newest, not thrash).
        let warm = session_for(&registry, "ring4", 4);
        warm.solve(&job(2, 2, 4), Limits::none());
        assert_eq!(warm.stats().memo_hits, 1);
    }

    #[test]
    fn distinct_keys_do_not_share_pools() {
        let registry = WarmPoolRegistry::new(ROOMY);
        let a = session_for(&registry, "a", 4);
        a.solve(&job(2, 2, 1), Limits::none());
        let b = session_for(&registry, "b", 4);
        b.solve(&job(2, 2, 1), Limits::none());
        assert_eq!(b.stats().memo_hits, 0, "keys must isolate warm state");
        assert_eq!(registry.len(), 2);
    }

    /// Eviction order is pinned: oldest check-in first, and the *weights*
    /// (memo cells, not pool count) decide how many go. Three pools of
    /// known sizes are checked in; a capacity that holds the two newest but
    /// not all three must evict exactly the oldest.
    #[test]
    fn eviction_is_lru_and_weighted_by_encoder_size() {
        let topo = builders::ring(4, 1);
        let base = base_problem(&topo, Collective::Allgather);
        let config = SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        };
        // Build three pools that each memoize one schedule (the 2-step
        // Allgather at 2 rounds per chunk); more chunks, more sends.
        let weigh = |chunks: usize| {
            let mut pool = ChunkPool::new(&base, &config, chunks);
            assert!(pool
                .solve(&job(2, 2 * chunks as u64, chunks), Limits::none())
                .outcome
                .is_sat());
            (1 + pool.memo_weight(), pool)
        };
        let (w1, p1) = weigh(1);
        let (w2, p2) = weigh(2);
        let (w3, p3) = weigh(3);
        assert!(w2 > w1 && w3 > w2, "a memo grows with its schedules");

        // Capacity fits the two newest pools, not all three; slack (10%,
        // min 1) is small against these weights.
        let registry = WarmPoolRegistry::new(w2 + w3);
        let key: Arc<str> = Arc::from("ring4");
        registry.check_in(Arc::clone(&key), 1, p1);
        registry.check_in(Arc::clone(&key), 2, p2);
        assert_eq!(registry.len(), 2, "two pools fit within capacity");
        registry.check_in(Arc::clone(&key), 3, p3);
        assert_eq!(
            registry.len(),
            2,
            "the third check-in must evict exactly one pool"
        );
        assert!(
            registry.check_out(&key, 1).is_none(),
            "the oldest pool (chunks=1) is the LRU victim"
        );
        assert!(registry.check_out(&key, 2).is_some());
        assert!(registry.check_out(&key, 3).is_some());
        assert_eq!(registry.weight(), 0, "all stored weight checked out");
    }

    /// A second check-in re-weighs the pool: a memo that grew while
    /// checked out must grow the stored weight, not reuse the stale one.
    #[test]
    fn check_in_reweighs_grown_pools() {
        let topo = builders::ring(4, 1);
        let base = base_problem(&topo, Collective::Allgather);
        let config = SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        };
        let registry = WarmPoolRegistry::new(ROOMY);
        let key: Arc<str> = Arc::from("ring4");
        registry.check_in(Arc::clone(&key), 1, ChunkPool::new(&base, &config, 1));
        let light = registry.weight();
        assert_eq!(light, 1, "an empty pool weighs the minimum");
        let mut pool = registry.check_out(&key, 1).expect("stored");
        pool.solve(&job(2, 2, 1), Limits::none());
        registry.check_in(Arc::clone(&key), 1, pool);
        assert!(
            registry.weight() > light,
            "deciding a candidate while checked out must raise the stored weight"
        );
    }
}
