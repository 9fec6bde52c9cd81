//! The persistent algorithm cache: a content-addressed, on-disk store of
//! [`SynthesisReport`]s keyed by a canonical hash of the full synthesis
//! input `(encoder version, topology, collective, SynthesisConfig)`.
//!
//! Synthesis is expensive (seconds to minutes per frontier) while its
//! inputs are tiny and perfectly reproducible, so the cache never
//! invalidates entries individually: identical inputs produce identical
//! frontiers, and any change to the topology, the collective, the search
//! caps or the solver configuration changes the key hash. The one
//! codebase-level input — the SMT encoding itself — is covered by the
//! `encoder_version` key field: bumping
//! [`sccl_core::encoding::ENCODER_VERSION`] re-addresses every key, so
//! entries written by older encoders are simply never looked up again
//! (pruning them is [`AlgorithmCache::prune`]'s job). Entries are JSON
//! blobs holding the key alongside the report, so a lookup can verify it
//! did not collide and a human can inspect the store with standard tools.
//! An in-memory index (and report memo) makes repeat lookups run in
//! microseconds without touching the filesystem.
//!
//! # On-disk layout
//!
//! Entries are sharded by the first two hex digits of their content hash —
//! `<root>/ab/cdef….json` — so a store shared by thousands of serving
//! processes never funnels every create/rename/readdir through one
//! directory (and stays friendly to NFS-style backends with per-directory
//! lock contention). Stores written by older versions used a flat
//! `<root>/<sha256>.json` layout; those entries are still indexed and
//! served transparently, and every new write lands in the sharded layout,
//! so a legacy store migrates incrementally as it is used.

use crate::sha256;
use sccl_collectives::Collective;
use sccl_core::pareto::{SynthesisConfig, SynthesisReport};
use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The canonical identity of one synthesis problem. Every field that can
/// change the resulting frontier is included; the cooperative stop flag
/// (which only affects *whether* a run completes, not its result) is not.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CacheKey {
    /// [`sccl_core::encoding::ENCODER_VERSION`] at key-construction time:
    /// encoding changes bump the version, which changes every key hash, so
    /// entries synthesized by older encoders (including any written before
    /// this field existed) live at addresses no current key ever resolves
    /// to — stale results are never served.
    pub encoder_version: u32,
    pub topology: Topology,
    pub collective: Collective,
    pub k: u64,
    pub max_steps: usize,
    pub max_chunks: usize,
    /// Per-instance conflict budget, if any.
    pub max_conflicts: Option<u64>,
    /// Per-instance wall-clock budget in nanoseconds, if any. (Timeouts make
    /// outcomes machine-dependent; they still belong in the key so a
    /// budget-limited frontier is never mistaken for an unlimited one.)
    pub max_time_nanos: Option<u64>,
    pub distance_pruning: bool,
    // Solver search parameters (all of them: the synthesized algorithms may
    // legitimately differ between solver configurations).
    pub var_decay: f64,
    pub clause_decay: f64,
    pub restart_base: u64,
    pub learnt_limit_start: usize,
    pub learnt_limit_growth: f64,
    pub phase_saving: bool,
    pub default_polarity: bool,
    pub clause_learning: bool,
    pub vsids: bool,
}

impl CacheKey {
    /// Build the canonical key for a synthesis request.
    pub fn new(topology: &Topology, collective: Collective, config: &SynthesisConfig) -> Self {
        CacheKey {
            encoder_version: sccl_core::encoding::ENCODER_VERSION,
            topology: topology.clone(),
            collective,
            k: config.k,
            max_steps: config.max_steps,
            max_chunks: config.max_chunks,
            max_conflicts: config.per_instance_limits.max_conflicts,
            max_time_nanos: config
                .per_instance_limits
                .max_time
                .map(|d| d.as_nanos().min(u64::MAX as u128) as u64),
            distance_pruning: config.encoding.distance_pruning,
            var_decay: config.solver.var_decay,
            clause_decay: config.solver.clause_decay,
            restart_base: config.solver.restart_base,
            learnt_limit_start: config.solver.learnt_limit_start,
            learnt_limit_growth: config.solver.learnt_limit_growth,
            phase_saving: config.solver.phase_saving,
            default_polarity: config.solver.default_polarity,
            clause_learning: config.solver.clause_learning,
            vsids: config.solver.vsids,
        }
    }

    /// Canonical JSON form of the key (field order is fixed by the struct,
    /// map contents by the topology's BTree ordering).
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("cache key serializes")
    }

    /// The content address: SHA-256 of the canonical JSON.
    pub fn content_hash(&self) -> String {
        sha256::hex_digest(self.canonical_json().as_bytes())
    }
}

/// One on-disk blob: the key (for collision verification and debugging)
/// plus the cached report.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CacheEntry {
    key: CacheKey,
    report: SynthesisReport,
}

/// Hit/miss counters of one cache handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
    /// Entries found corrupt (unparseable JSON or a stored key that does
    /// not match its content address) and moved to the `quarantine/`
    /// subdirectory instead of being served.
    pub quarantined: u64,
}

/// What a disk read of an indexed entry produced.
enum ReadOutcome {
    /// A well-formed entry whose stored key matches the lookup key.
    Report(SynthesisReport),
    /// The file is gone or unreadable (e.g. pruned by a concurrent
    /// process): drop it from the index, nothing to quarantine.
    Missing,
    /// The file exists but is not a valid entry for this address:
    /// truncated/garbled JSON, or a stored key that does not hash to the
    /// file's address (bit rot, a misplaced file, or a collision).
    Corrupt(&'static str),
}

#[derive(Default)]
struct CacheState {
    /// hash → entry file path, for every entry present on disk.
    index: HashMap<String, PathBuf>,
    /// hash → parsed report, for entries touched by this handle.
    memo: HashMap<String, SynthesisReport>,
    /// hash → logical access time for entries touched by this handle.
    /// Monotonic per handle; the primary LRU signal for pruning, since
    /// filesystem mtimes can be quantized coarsely enough that entries
    /// written in quick succession tie.
    recency: HashMap<String, u64>,
    /// Logical clock feeding `recency`.
    clock: u64,
    /// Content hashes quarantined since the last [`AlgorithmCache::take_quarantined`]
    /// drain — the mailbox a hot tier layered over this store polls so it
    /// stops replaying entries the disk no longer backs.
    quarantined: Vec<String>,
    stats: CacheStats,
}

impl CacheState {
    /// Record an access to `hash` at the next logical tick.
    fn touch(&mut self, hash: &str) {
        self.clock += 1;
        self.recency.insert(hash.to_string(), self.clock);
    }
}

/// A persistent, content-addressed store of synthesis reports.
pub struct AlgorithmCache {
    root: PathBuf,
    state: Mutex<CacheState>,
}

impl AlgorithmCache {
    /// Open (creating if necessary) a cache directory and build the
    /// in-memory index from the entries already on disk — both the sharded
    /// `ab/cdef….json` layout and legacy flat `<sha256>.json` files.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let mut index = HashMap::new();
        for entry in std::fs::read_dir(&root)? {
            let path = entry?.path();
            if path.is_dir() {
                let Some(shard) = path.file_name().and_then(|s| s.to_str()) else {
                    continue;
                };
                if shard.len() != 2 || !shard.bytes().all(|b| b.is_ascii_hexdigit()) {
                    continue;
                }
                let shard = shard.to_string();
                for entry in std::fs::read_dir(&path)? {
                    Self::index_file(&mut index, entry?.path(), Some(&shard));
                }
            } else {
                // Legacy flat-layout entry (pre-sharding stores).
                Self::index_file(&mut index, path, None);
            }
        }
        Ok(AlgorithmCache {
            root,
            state: Mutex::new(CacheState {
                index,
                ..CacheState::default()
            }),
        })
    }

    /// Record `path` in the index if it looks like a cache entry: inside a
    /// shard directory the file stem is the hash remainder (62 hex digits),
    /// in the legacy flat layout it is the full 64-digit hash. When both
    /// layouts hold the same hash, whichever is indexed last wins — they
    /// decode to the same report, so the choice is immaterial.
    fn index_file(index: &mut HashMap<String, PathBuf>, path: PathBuf, shard: Option<&str>) {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            return;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            return;
        };
        if !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
            return;
        }
        let hash = match shard {
            Some(prefix) if stem.len() == 62 => format!("{prefix}{stem}"),
            _ if stem.len() == 64 => stem.to_string(),
            _ => return,
        };
        index.insert(hash, path);
    }

    /// The sharded on-disk location for a content hash.
    fn sharded_path(&self, hash: &str) -> PathBuf {
        self.root
            .join(&hash[..2])
            .join(format!("{}.json", &hash[2..]))
    }

    /// The directory backing this cache.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock").index.len()
    }

    /// `true` if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the index holds an entry for `hash`: one map probe, no
    /// filesystem access and no hit/miss accounting. The index tracks the
    /// store — entries leave it when they are pruned, quarantined or found
    /// missing by a lookup — but an indexed file is only *verified* when
    /// [`AlgorithmCache::lookup`] reads it, so `true` means "a lookup will
    /// find a file to read", not "a lookup will hit".
    pub fn contains(&self, hash: &str) -> bool {
        self.state
            .lock()
            .expect("cache lock")
            .index
            .contains_key(hash)
    }

    /// Hit/miss counters of this handle.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().expect("cache lock").stats
    }

    /// Look up the report for a synthesis problem. Returns `None` (and
    /// counts a miss) if absent; hits are memoized in memory so repeated
    /// lookups skip the filesystem entirely.
    pub fn lookup(&self, key: &CacheKey) -> Option<SynthesisReport> {
        let hash = key.content_hash();
        let mut state = self.state.lock().expect("cache lock");
        if let Some(report) = state.memo.get(&hash).cloned() {
            state.stats.hits += 1;
            state.touch(&hash);
            return Some(report);
        }
        let Some(path) = state.index.get(&hash).cloned() else {
            state.stats.misses += 1;
            return None;
        };
        match self.read_entry(&path, key) {
            ReadOutcome::Report(report) => {
                state.stats.hits += 1;
                state.touch(&hash);
                state.memo.insert(hash, report.clone());
                // Refresh the entry's mtime (best effort, outside the
                // lock) so LRU pruning sees reads, not just writes, as
                // recency. Only the first read per handle pays this —
                // later hits come from the memo — so the signal is
                // approximate but keeps a steadily-read entry from being
                // evicted as "oldest".
                drop(state);
                if let Ok(file) = std::fs::File::options().append(true).open(&path) {
                    let _ = file.set_modified(std::time::SystemTime::now());
                }
                Some(report)
            }
            ReadOutcome::Missing => {
                // The file vanished (e.g. pruned by a concurrent process)
                // or a transient read error: treat as a miss; a subsequent
                // store re-creates it.
                state.stats.misses += 1;
                state.index.remove(&hash);
                None
            }
            ReadOutcome::Corrupt(reason) => {
                // A torn, garbled or misaddressed entry must never be
                // served — and must not be silently deleted either, so an
                // operator can inspect what went wrong. Move it aside and
                // report the address so layered tiers drop their copies;
                // the caller re-solves transparently.
                state.stats.misses += 1;
                state.stats.quarantined += 1;
                state.index.remove(&hash);
                state.memo.remove(&hash);
                state.recency.remove(&hash);
                state.quarantined.push(hash.clone());
                drop(state);
                self.quarantine_file(&hash, &path, reason);
                None
            }
        }
    }

    /// Move a condemned entry file into `<root>/quarantine/<hash>.json`
    /// with a `<hash>.reason` sidecar naming what failed (best effort — if
    /// the rename fails the file is unlinked instead, so a corrupt blob can
    /// never be re-indexed by a fresh handle). The quarantine directory is
    /// never indexed by [`AlgorithmCache::open`], which only descends into
    /// two-hex-digit shard directories.
    fn quarantine_file(&self, hash: &str, path: &Path, reason: &str) {
        let dir = self.root.join("quarantine");
        let moved = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::rename(path, dir.join(format!("{hash}.json"))));
        if moved.is_err() {
            let _ = std::fs::remove_file(path);
        } else {
            let _ = std::fs::write(dir.join(format!("{hash}.reason")), reason);
        }
    }

    /// Drain the content hashes quarantined since the last call. The
    /// serving layer folds these into its pruned-hash feed so the hot tier
    /// drops any copy it still holds.
    pub fn take_quarantined(&self) -> Vec<String> {
        std::mem::take(&mut self.state.lock().expect("cache lock").quarantined)
    }

    /// Forcibly quarantine the indexed entry at `hash` — the escalation a
    /// caller uses when an entry *parsed* fine but failed a deeper check
    /// (decode-time verification). Same mechanics as the corrupt-read
    /// path: the file moves to `quarantine/` with a reason sidecar, the
    /// entry leaves the index and memo, and the hash is reported via
    /// [`AlgorithmCache::take_quarantined`]. Returns `true` if an entry
    /// was present.
    pub fn quarantine(&self, hash: &str, reason: &str) -> bool {
        let path = {
            let mut state = self.state.lock().expect("cache lock");
            let Some(path) = state.index.remove(hash) else {
                return false;
            };
            state.memo.remove(hash);
            state.recency.remove(hash);
            state.stats.quarantined += 1;
            state.quarantined.push(hash.to_string());
            path
        };
        self.quarantine_file(hash, &path, reason);
        true
    }

    /// Read and validate one indexed entry: the JSON must parse as a
    /// [`CacheEntry`] and the stored key must equal the lookup key — which
    /// is exactly the statement that the content hashes to the file's
    /// address (the index maps `key.content_hash()` to this path), so key
    /// equality doubles as the content-hash integrity check.
    fn read_entry(&self, path: &Path, key: &CacheKey) -> ReadOutcome {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return ReadOutcome::Missing,
            Err(_) => return ReadOutcome::Missing,
        };
        if sccl_core::failpoint::fire("cache.read") {
            return ReadOutcome::Corrupt("failpoint cache.read");
        }
        let Ok(entry) = serde_json::from_str::<CacheEntry>(&text) else {
            return ReadOutcome::Corrupt("malformed entry JSON");
        };
        if entry.key != *key {
            return ReadOutcome::Corrupt("stored key does not match content address");
        }
        ReadOutcome::Report(entry.report)
    }

    /// Persist a report (always into the sharded layout). The write is
    /// atomic (temp file + rename) so a concurrent reader never observes a
    /// torn entry, and durable (the temp file is fsynced before the rename
    /// and the shard directory after it) so an entry the store reported
    /// written survives power loss. A legacy flat-layout file for the same
    /// hash, if any, is removed so the store converges on the sharded
    /// layout as it is used.
    pub fn store(&self, key: &CacheKey, report: &SynthesisReport) -> io::Result<()> {
        let hash = key.content_hash();
        let entry = CacheEntry {
            key: key.clone(),
            report: report.clone(),
        };
        let json = serde_json::to_string_pretty(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = self.sharded_path(&hash);
        std::fs::create_dir_all(path.parent().expect("sharded paths have a parent"))?;
        // Unique per write (pid + counter) so two threads storing the same
        // key cannot clobber each other's temp file mid-rename.
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .root
            .join(format!(".{hash}.tmp-{}-{seq}", std::process::id()));
        {
            use std::io::Write as _;
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(json.as_bytes())?;
            // The bytes must be on stable storage *before* the rename
            // publishes the path: a rename of an unsynced file can survive
            // a crash while its contents do not, leaving a published entry
            // of garbage.
            file.sync_all()?;
        }
        // Chaos hook: simulate the process dying between the temp write and
        // the rename. The temp file is deliberately left behind, exactly as
        // a crash would leave it — `open` never indexes dot-prefixed files
        // in the root, so a reopened cache must agree with the pre-store
        // index (the crash-consistency test asserts this).
        if sccl_core::failpoint::fire("cache.store") {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "failpoint cache.store: simulated crash between write and rename",
            ));
        }
        std::fs::rename(&tmp, &path)?;
        // The rename itself lives in the shard directory's contents; fsync
        // it so the publication survives power loss too.
        std::fs::File::open(path.parent().expect("sharded paths have a parent"))
            .and_then(|dir| dir.sync_all())?;
        let mut state = self.state.lock().expect("cache lock");
        if let Some(old) = state.index.get(&hash) {
            if old != &path {
                let _ = std::fs::remove_file(old);
            }
        }
        state.touch(&hash);
        state.index.insert(hash.clone(), path);
        state.memo.insert(hash, report.clone());
        state.stats.stores += 1;
        Ok(())
    }

    /// Evict least-recently-used entries (by file modification time, the
    /// best cross-process recency signal a shared store has) until at most
    /// `max_entries` remain. Eviction is advisory: an entry whose file has
    /// already vanished (e.g. pruned by a concurrent process) just drops
    /// out of the index. Returns the content hashes of the removed
    /// entries, so a hot tier layered over this store can drop its copies
    /// instead of replaying frontiers the disk no longer backs.
    ///
    /// The O(entries) metadata scan and the unlinks run *outside* the
    /// cache's state lock, so concurrent lookups and stores are only
    /// blocked for the two brief index passes.
    pub fn prune(&self, max_entries: usize) -> io::Result<Vec<String>> {
        // Pass 1 (locked): snapshot the index with each entry's logical
        // access time. Entries this handle never touched (discovered on
        // disk, or written by another process) carry tick 0 and are
        // ordered among themselves by mtime below.
        let snapshot: Vec<(u64, String, PathBuf)> = {
            let state = self.state.lock().expect("cache lock");
            if state.index.len() <= max_entries {
                return Ok(Vec::new());
            }
            state
                .index
                .iter()
                .map(|(hash, path)| {
                    let tick = state.recency.get(hash).copied().unwrap_or(0);
                    (tick, hash.clone(), path.clone())
                })
                .collect()
        };
        // Unlocked: stat everything and pick the oldest entries. The
        // in-process tick is the primary signal (mtimes can be quantized
        // coarsely enough that entries written in quick succession tie);
        // mtime orders entries from other handles, and hash is the final
        // tiebreak for a deterministic order.
        let mut aged: Vec<(u64, std::time::SystemTime, String, PathBuf)> = snapshot
            .into_iter()
            .map(|(tick, hash, path)| {
                let mtime = std::fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                (tick, mtime, hash, path)
            })
            .collect();
        aged.sort();
        let excess = aged.len().saturating_sub(max_entries);
        // Pass 2 (locked): drop victims from the index — but only if they
        // still point at the snapshotted file, so an entry re-stored by a
        // concurrent writer mid-prune survives.
        let mut evicted: Vec<(String, PathBuf)> = Vec::with_capacity(excess);
        {
            let mut state = self.state.lock().expect("cache lock");
            for (_, _, hash, path) in aged.into_iter().take(excess) {
                if state.index.get(&hash) == Some(&path) {
                    state.index.remove(&hash);
                    state.memo.remove(&hash);
                    state.recency.remove(&hash);
                    evicted.push((hash, path));
                }
            }
        }
        // Unlocked: unlink the evicted files.
        let mut removed = Vec::with_capacity(evicted.len());
        for (hash, path) in evicted {
            let _ = std::fs::remove_file(&path);
            removed.push(hash);
        }
        Ok(removed)
    }

    /// Evict every entry written by a different encoder version. Stale
    /// entries can never be looked up again — the current encoder version
    /// is part of every [`CacheKey`], so their hashes are unreachable —
    /// but they linger on disk occupying capacity, and a hot tier that
    /// was populated before the bump may still hold copies keyed by the
    /// old hashes. Returns the evicted content hashes so such tiers can
    /// be notified.
    pub fn sweep_stale(&self) -> io::Result<Vec<String>> {
        let snapshot: Vec<(String, PathBuf)> = {
            let state = self.state.lock().expect("cache lock");
            state
                .index
                .iter()
                .map(|(hash, path)| (hash.clone(), path.clone()))
                .collect()
        };
        // Unlocked: read each entry's stored key. Unreadable entries count
        // as stale — they can't serve a hit either.
        let stale: Vec<(String, PathBuf)> = snapshot
            .into_iter()
            .filter(|(_, path)| {
                let version = std::fs::read_to_string(path)
                    .ok()
                    .and_then(|text| serde_json::from_str::<CacheEntry>(&text).ok())
                    .map(|entry| entry.key.encoder_version);
                version != Some(sccl_core::encoding::ENCODER_VERSION)
            })
            .collect();
        let mut evicted: Vec<(String, PathBuf)> = Vec::with_capacity(stale.len());
        {
            let mut state = self.state.lock().expect("cache lock");
            for (hash, path) in stale {
                if state.index.get(&hash) == Some(&path) {
                    state.index.remove(&hash);
                    state.memo.remove(&hash);
                    state.recency.remove(&hash);
                    evicted.push((hash, path));
                }
            }
        }
        let mut removed = Vec::with_capacity(evicted.len());
        for (hash, path) in evicted {
            let _ = std::fs::remove_file(&path);
            removed.push(hash);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_topology::builders;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sccl-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_hash_is_stable_and_input_sensitive() {
        let ring = builders::ring(4, 1);
        let config = SynthesisConfig::default();
        let a = CacheKey::new(&ring, Collective::Allgather, &config);
        let b = CacheKey::new(&ring, Collective::Allgather, &config);
        assert_eq!(a.content_hash(), b.content_hash());

        // Any semantic change to the problem changes the address.
        let other_collective = CacheKey::new(&ring, Collective::Alltoall, &config);
        assert_ne!(a.content_hash(), other_collective.content_hash());
        let other_topology = CacheKey::new(&builders::ring(5, 1), Collective::Allgather, &config);
        assert_ne!(a.content_hash(), other_topology.content_hash());
        let mut capped = config.clone();
        capped.max_chunks = 2;
        let other_config = CacheKey::new(&ring, Collective::Allgather, &capped);
        assert_ne!(a.content_hash(), other_config.content_hash());
    }

    #[test]
    fn bumping_the_encoder_version_misses_the_cache() {
        use sccl_core::pareto::pareto_synthesize;

        let cache = AlgorithmCache::open(tmp_dir("encver")).expect("open");
        let ring = builders::ring(4, 1);
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: 2,
            ..Default::default()
        };
        let report = pareto_synthesize(&ring, Collective::Allgather, &config).expect("synthesis");
        let key = CacheKey::new(&ring, Collective::Allgather, &config);
        cache.store(&key, &report).expect("store");
        assert!(cache.lookup(&key).is_some(), "same-version key must hit");

        // An encoding change bumps the version; entries written by the old
        // encoder must not be served.
        let mut newer = key.clone();
        newer.encoder_version += 1;
        assert_ne!(key.content_hash(), newer.content_hash());
        assert!(
            cache.lookup(&newer).is_none(),
            "stale-encoder entry served after a version bump"
        );
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn sweep_stale_evicts_only_old_encoder_entries() {
        use sccl_core::pareto::pareto_synthesize;

        let cache = AlgorithmCache::open(tmp_dir("sweep")).expect("open");
        let ring = builders::ring(4, 1);
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: 2,
            ..Default::default()
        };
        let report = pareto_synthesize(&ring, Collective::Allgather, &config).expect("synthesis");
        let current = CacheKey::new(&ring, Collective::Allgather, &config);
        // An entry left behind by an older encoder: same problem, previous
        // version. Unreachable through lookups, but it occupies capacity
        // and a hot tier populated before the bump may still replay it.
        let mut stale = current.clone();
        stale.encoder_version -= 1;
        cache.store(&current, &report).expect("store current");
        cache.store(&stale, &report).expect("store stale");
        assert_eq!(cache.len(), 2);

        let evicted = cache.sweep_stale().expect("sweep");
        assert_eq!(evicted, vec![stale.content_hash()]);
        assert_eq!(cache.len(), 1);
        assert!(
            cache.lookup(&current).is_some(),
            "current-version entry must survive the sweep"
        );
        // A second sweep finds nothing left to evict.
        assert!(cache.sweep_stale().expect("re-sweep").is_empty());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    fn tiny_report(chunks: usize) -> (CacheKey, SynthesisReport) {
        use sccl_core::pareto::pareto_synthesize;
        let ring = builders::ring(4, 1);
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: chunks,
            ..Default::default()
        };
        let report = pareto_synthesize(&ring, Collective::Allgather, &config).expect("synthesis");
        (CacheKey::new(&ring, Collective::Allgather, &config), report)
    }

    #[test]
    fn stores_land_in_the_sharded_layout() {
        let cache = AlgorithmCache::open(tmp_dir("shard")).expect("open");
        let (key, report) = tiny_report(2);
        cache.store(&key, &report).expect("store");
        let hash = key.content_hash();
        let sharded = cache
            .root()
            .join(&hash[..2])
            .join(format!("{}.json", &hash[2..]));
        assert!(sharded.is_file(), "entry must live at {sharded:?}");
        // A fresh handle re-indexes the sharded entry.
        let reopened = AlgorithmCache::open(cache.root()).expect("reopen");
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.lookup(&key), Some(report));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn legacy_flat_entries_are_served_and_migrated() {
        let dir = tmp_dir("legacy");
        let (key, report) = tiny_report(2);
        let hash = key.content_hash();
        // Simulate a pre-sharding store: write the blob flat into the root.
        {
            let cache = AlgorithmCache::open(&dir).expect("open");
            cache.store(&key, &report).expect("store");
            let sharded = cache
                .root()
                .join(&hash[..2])
                .join(format!("{}.json", &hash[2..]));
            let flat = dir.join(format!("{hash}.json"));
            std::fs::rename(&sharded, &flat).expect("flatten");
            let _ = std::fs::remove_dir(dir.join(&hash[..2]));
        }
        // A fresh handle reads the legacy layout transparently…
        let cache = AlgorithmCache::open(&dir).expect("reopen");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&key), Some(report.clone()));
        // …and re-storing migrates the entry into the sharded layout.
        cache.store(&key, &report).expect("restore");
        assert!(!dir.join(format!("{hash}.json")).exists());
        assert!(cache
            .root()
            .join(&hash[..2])
            .join(format!("{}.json", &hash[2..]))
            .is_file());
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_evicts_oldest_entries_first() {
        let cache = AlgorithmCache::open(tmp_dir("prune")).expect("open");
        let (old_key, old_report) = tiny_report(1);
        let (mid_key, mid_report) = tiny_report(2);
        let (new_key, new_report) = tiny_report(3);
        cache.store(&old_key, &old_report).expect("store old");
        // Make the recency order unambiguous even on coarse-mtime
        // filesystems.
        std::thread::sleep(std::time::Duration::from_millis(200));
        cache.store(&mid_key, &mid_report).expect("store mid");
        std::thread::sleep(std::time::Duration::from_millis(200));
        cache.store(&new_key, &new_report).expect("store new");
        assert_eq!(cache.len(), 3);

        assert!(cache.prune(5).expect("no-op prune").is_empty());
        let evicted = cache.prune(1).expect("prune");
        assert_eq!(evicted.len(), 2);
        assert!(evicted.contains(&old_key.content_hash()));
        assert!(evicted.contains(&mid_key.content_hash()));
        assert_eq!(cache.len(), 1);
        // Only the most recent entry survives, on disk and in memory.
        assert_eq!(cache.lookup(&new_key), Some(new_report));
        assert!(cache.lookup(&old_key).is_none());
        assert!(cache.lookup(&mid_key).is_none());
        // A fresh handle agrees with the post-prune state.
        let reopened = AlgorithmCache::open(cache.root()).expect("reopen");
        assert_eq!(reopened.len(), 1);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_restorable() {
        let dir = tmp_dir("quarantine");
        let (key, report) = tiny_report(2);
        let hash = key.content_hash();
        let path = {
            let cache = AlgorithmCache::open(&dir).expect("open");
            cache.store(&key, &report).expect("store");
            cache
                .root()
                .join(&hash[..2])
                .join(format!("{}.json", &hash[2..]))
        };
        std::fs::write(&path, "{\"key\": {\"truncated").expect("corrupt the entry");
        // A fresh handle (no memo) must refuse to serve the torn blob…
        let cache = AlgorithmCache::open(&dir).expect("reopen");
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.stats().misses, 1);
        // …move it aside for inspection…
        assert!(!path.exists());
        assert!(dir
            .join("quarantine")
            .join(format!("{hash}.json"))
            .is_file());
        // …and report the address exactly once so layered tiers drop it.
        assert_eq!(cache.take_quarantined(), vec![hash.clone()]);
        assert!(cache.take_quarantined().is_empty());
        // A re-store (the transparent re-solve's write) serves again.
        cache.store(&key, &report).expect("restore");
        assert_eq!(cache.lookup(&key), Some(report));
        // The quarantine directory is never indexed as entries.
        let reopened = AlgorithmCache::open(&dir).expect("reindex");
        assert_eq!(reopened.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn misaddressed_entry_is_quarantined() {
        let dir = tmp_dir("misaddr");
        let (key_a, report_a) = tiny_report(1);
        let (key_b, _) = tiny_report(2);
        let hash_b = key_b.content_hash();
        {
            let cache = AlgorithmCache::open(&dir).expect("open");
            cache.store(&key_a, &report_a).expect("store");
            // Plant a *valid* entry for key A at key B's address: the JSON
            // shape check passes, the content-hash (key equality) check
            // must not.
            let hash_a = key_a.content_hash();
            let from = dir
                .join(&hash_a[..2])
                .join(format!("{}.json", &hash_a[2..]));
            let to_dir = dir.join(&hash_b[..2]);
            std::fs::create_dir_all(&to_dir).expect("shard dir");
            std::fs::copy(&from, to_dir.join(format!("{}.json", &hash_b[2..]))).expect("misplace");
        }
        let cache = AlgorithmCache::open(&dir).expect("reopen");
        assert!(cache.lookup(&key_b).is_none());
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.take_quarantined(), vec![hash_b]);
        // The correctly addressed entry still serves.
        assert_eq!(cache.lookup(&key_a), Some(report_a));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contains_follows_entries_out_of_the_index() {
        // The daemon skips the journal for a key `contains` vouches for,
        // so each way an entry leaves the store must leave the index too.
        let dir = tmp_dir("contains");
        let cache = AlgorithmCache::open(&dir).expect("open");
        let stored: Vec<(CacheKey, SynthesisReport)> = (1..=3).map(tiny_report).collect();
        let hashes: Vec<String> = stored.iter().map(|(key, _)| key.content_hash()).collect();
        assert!(!cache.contains(&hashes[0]), "nothing stored yet");
        for (key, report) in &stored {
            cache.store(key, report).expect("store");
        }
        assert!(hashes.iter().all(|hash| cache.contains(hash)));
        let stats = cache.stats();

        // 1. Pruned: the least recently used entry goes.
        assert_eq!(cache.prune(2).expect("prune"), vec![hashes[0].clone()]);
        assert!(!cache.contains(&hashes[0]));
        // 2. Quarantined (here by the caller; a corrupt read takes the
        //    same exit).
        assert!(cache.quarantine(&hashes[1], "test"));
        assert!(!cache.contains(&hashes[1]));
        // 3. Vanished: a fresh handle indexes the file, another process
        //    unlinks it, and the lookup that finds it gone drops it.
        let reopened = AlgorithmCache::open(&dir).expect("reopen");
        assert!(reopened.contains(&hashes[2]));
        assert!(!reopened.contains(&hashes[0]) && !reopened.contains(&hashes[1]));
        std::fs::remove_file(reopened.sharded_path(&hashes[2])).expect("unlink");
        assert!(reopened.contains(&hashes[2]), "the index cannot know yet");
        assert!(reopened.lookup(&stored[2].0).is_none());
        assert!(!reopened.contains(&hashes[2]));

        // A probe is not a lookup: it counts as neither hit nor miss.
        assert_eq!(cache.stats().hits, stats.hits);
        assert_eq!(cache.stats().misses, stats.misses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let cache = AlgorithmCache::open(tmp_dir("miss")).expect("open");
        let key = CacheKey::new(
            &builders::ring(4, 1),
            Collective::Allgather,
            &SynthesisConfig::default(),
        );
        assert!(cache.lookup(&key).is_none());
        assert_eq!(cache.stats().misses, 1);
        let _ = std::fs::remove_dir_all(cache.root());
    }
}
