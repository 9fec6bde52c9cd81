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
//!
//! # Resident entries
//!
//! An in-memory index maps every content hash on disk to its file, and a
//! memo holds the reports this handle has read or written, so a repeat
//! lookup runs in microseconds without touching the filesystem. A memo
//! slot is one shared [`CachedReport`]: the `Arc`'d report, its JSON
//! rendering (made at most once, by the first caller that asks for it) and
//! a *verified* mark. A memo hit hands out a clone of the `Arc`, never a
//! copy of the report, and a serving tier layered over the store (the
//! daemon's hot tier) holds clones of the same `Arc`s, so each resident
//! report is in memory once.
//!
//! The cache itself checks only that an entry parses and sits at its
//! key's address. Whether a report is *correct* — every frontier
//! algorithm replays to the collective's post-condition — is the caller's
//! check: the serving layer replays each report it reads or solves once,
//! sets the mark with [`CachedReport::mark_verified`] when the replay
//! passes, and from then on answers the hash straight from
//! [`AlgorithmCache::verified`] without a queue slot, a key hash or a
//! replay. A report that fails is [quarantined](AlgorithmCache::quarantine)
//! and leaves the memo with its file.
//!
//! An entry that leaves the memo is *retired*
//! ([`CachedReport::is_retired`]): a prune, a quarantine or a corrupt read
//! takes it out with its file, and a store replaces it with a new entry
//! for the same hash. Only this module sets the mark, and it is never
//! cleared, so a tier holding a clone of the entry's `Arc` stops answering
//! it without being told which hashes left: the disk no longer backs that
//! report.
//!
//! # On-disk layout
//!
//! Entries are sharded by the first two hex digits of their content hash —
//! `<root>/ab/cdef….json` — so a store shared by thousands of serving
//! processes never funnels every create/rename/readdir through one
//! directory (and stays friendly to NFS-style backends with per-directory
//! lock contention).

use crate::sha256;
use sccl_collectives::Collective;
use sccl_core::pareto::{SynthesisConfig, SynthesisReport};
use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// One resident report, shared by the cache's memo and every tier layered
/// over it (see the module docs): the report, its JSON rendering once
/// someone has asked for it, and whether its caller's correctness check
/// has passed on it.
///
/// The memo keeps an entry, and so its rendered payload, for as long as
/// the cache indexes the key (until a prune, a quarantine or a re-store
/// retires it), whatever the bound of a tier layered over it: a daemon's
/// `--hot` bounds only the hot tier's slots, and `hot.resident_bytes`
/// counts only theirs.
#[derive(Debug)]
pub struct CachedReport {
    report: Arc<SynthesisReport>,
    payload: OnceLock<Arc<str>>,
    /// Set with `Release` by [`CachedReport::mark_verified`], read with
    /// `Acquire` by [`CachedReport::is_verified`]: a reader that sees the
    /// mark sees everything the verifying thread did before setting it.
    verified: AtomicBool,
    /// Set with `Release` when the entry leaves the cache's memo, read
    /// with `Acquire` by [`CachedReport::is_retired`] (see the module
    /// docs).
    retired: AtomicBool,
}

impl CachedReport {
    /// Wrap a report: nothing rendered, not verified.
    pub fn new(report: Arc<SynthesisReport>) -> Arc<CachedReport> {
        Arc::new(CachedReport {
            report,
            payload: OnceLock::new(),
            verified: AtomicBool::new(false),
            retired: AtomicBool::new(false),
        })
    }

    /// The report.
    pub fn report(&self) -> &Arc<SynthesisReport> {
        &self.report
    }

    /// `serde_json::to_string(report)` — the text a daemon's `synthesize`
    /// answer carries — rendered by the first caller and shared by every
    /// later one.
    pub fn payload(&self) -> Arc<str> {
        Arc::clone(self.payload.get_or_init(|| {
            serde_json::to_string(self.report.as_ref())
                .expect("a report holds no float, the one value JSON rendering can refuse")
                .into()
        }))
    }

    /// Payload bytes this entry holds (0 until first rendered).
    pub fn payload_bytes(&self) -> usize {
        self.payload.get().map_or(0, |payload| payload.len())
    }

    /// Record that the caller's correctness check passed on this report.
    /// Set once and never cleared: an entry that fails a later check is
    /// quarantined, which retires it instead.
    pub fn mark_verified(&self) {
        self.verified.store(true, Ordering::Release);
    }

    /// Whether [`CachedReport::mark_verified`] has been called.
    pub fn is_verified(&self) -> bool {
        self.verified.load(Ordering::Acquire)
    }

    /// Whether the cache has dropped this entry — pruned, quarantined or
    /// replaced by a later store — so the disk no longer backs it. A tier
    /// holding the entry must not answer it any more.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }
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
    /// hash → resident report, for entries read or stored through this
    /// handle (and still indexed).
    memo: HashMap<String, Arc<CachedReport>>,
    /// hash → logical access time for entries touched by this handle.
    /// Monotonic per handle; the primary LRU signal for pruning, since
    /// filesystem mtimes can be quantized coarsely enough that entries
    /// written in quick succession tie.
    recency: HashMap<String, u64>,
    /// Logical clock feeding `recency`.
    clock: u64,
    stats: CacheStats,
}

impl CacheState {
    /// Record an access to `hash` at the next logical tick.
    fn touch(&mut self, hash: &str) {
        self.clock += 1;
        match self.recency.get_mut(hash) {
            Some(tick) => *tick = self.clock,
            None => {
                self.recency.insert(hash.to_string(), self.clock);
            }
        }
    }

    /// Forget `hash` everywhere but the index, retiring its resident
    /// entry.
    fn forget(&mut self, hash: &str) {
        if let Some(entry) = self.memo.remove(hash) {
            entry.retire();
        }
        self.recency.remove(hash);
    }
}

/// A persistent, content-addressed store of synthesis reports.
pub struct AlgorithmCache {
    root: PathBuf,
    state: Mutex<CacheState>,
}

impl AlgorithmCache {
    /// Open (creating if necessary) a cache directory and build the
    /// in-memory index from the `ab/cdef….json` entries already on disk.
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
                    Self::index_file(&mut index, entry?.path(), &shard);
                }
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

    /// Record `path`, found in the `shard` directory, in the index if it
    /// looks like a cache entry: its file stem is the hash remainder (62
    /// hex digits).
    fn index_file(index: &mut HashMap<String, PathBuf>, path: PathBuf, shard: &str) {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            return;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            return;
        };
        if stem.len() != 62 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
            return;
        }
        index.insert(format!("{shard}{stem}"), path);
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
    /// lookups skip the filesystem entirely. Returns a copy of the report,
    /// made outside the cache's lock; [`AlgorithmCache::lookup_shared`]
    /// returns the resident entry itself.
    pub fn lookup(&self, key: &CacheKey) -> Option<SynthesisReport> {
        self.lookup_shared(&key.content_hash(), key)
            .map(|entry| SynthesisReport::clone(entry.report()))
    }

    /// [`AlgorithmCache::lookup`] for a caller that already holds the key's
    /// content hash (`hash` must be `key.content_hash()`), returning the
    /// shared resident entry: a memo hit is a refcount bump.
    pub fn lookup_shared(&self, hash: &str, key: &CacheKey) -> Option<Arc<CachedReport>> {
        let mut state = self.state.lock().expect("cache lock");
        if let Some(entry) = state.memo.get(hash).cloned() {
            state.stats.hits += 1;
            state.touch(hash);
            return Some(entry);
        }
        let Some(path) = state.index.get(hash).cloned() else {
            state.stats.misses += 1;
            return None;
        };
        match self.read_entry(&path, key) {
            ReadOutcome::Report(report) => {
                state.stats.hits += 1;
                state.touch(hash);
                let entry = CachedReport::new(Arc::new(report));
                state.memo.insert(hash.to_string(), Arc::clone(&entry));
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
                Some(entry)
            }
            ReadOutcome::Missing => {
                // The file vanished (e.g. pruned by a concurrent process)
                // or a transient read error: treat as a miss; a subsequent
                // store re-creates it.
                state.stats.misses += 1;
                state.index.remove(hash);
                None
            }
            ReadOutcome::Corrupt(reason) => {
                // A torn, garbled or misaddressed entry must never be
                // served — and must not be silently deleted either, so an
                // operator can inspect what went wrong. Move it aside; the
                // caller re-solves transparently.
                state.stats.misses += 1;
                state.stats.quarantined += 1;
                state.index.remove(hash);
                state.forget(hash);
                drop(state);
                self.quarantine_file(hash, &path, reason);
                None
            }
        }
    }

    /// The resident entry for `hash` if the caller's correctness check has
    /// passed on it ([`CachedReport::mark_verified`]): one map probe under
    /// the lock, counted as a hit. `None` — no access counted — for a hash
    /// that is not resident or not yet verified; the caller then takes
    /// [`AlgorithmCache::lookup_shared`]'s path.
    pub fn verified(&self, hash: &str) -> Option<Arc<CachedReport>> {
        let mut state = self.state.lock().expect("cache lock");
        let entry = state.memo.get(hash).filter(|entry| entry.is_verified())?;
        let entry = Arc::clone(entry);
        state.stats.hits += 1;
        state.touch(hash);
        Some(entry)
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

    /// Forcibly quarantine the indexed entry at `hash` — the escalation a
    /// caller uses when an entry *parsed* fine but failed a deeper check
    /// (decode-time verification). Same mechanics as the corrupt-read
    /// path: the file moves to `quarantine/` with a reason sidecar and the
    /// entry leaves the index and memo, retired. Returns `true` if an entry
    /// was present.
    pub fn quarantine(&self, hash: &str, reason: &str) -> bool {
        let path = {
            let mut state = self.state.lock().expect("cache lock");
            let Some(path) = state.index.remove(hash) else {
                return false;
            };
            state.forget(hash);
            state.stats.quarantined += 1;
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

    /// Persist a report. The write is atomic (temp file + rename) so a
    /// concurrent reader never observes a torn entry, and durable (the temp
    /// file is fsynced before the rename and the shard directory after it)
    /// so an entry the store reported written survives power loss.
    pub fn store(&self, key: &CacheKey, report: &SynthesisReport) -> io::Result<()> {
        self.store_shared(&key.content_hash(), key, Arc::new(report.clone()))
            .map(drop)
    }

    /// [`AlgorithmCache::store`] for a caller that already holds the key's
    /// content hash (`hash` must be `key.content_hash()`) and shares the
    /// report: the report becomes the key's resident entry, which is
    /// returned (not yet verified). The entry it replaces, if any, is
    /// retired.
    pub fn store_shared(
        &self,
        hash: &str,
        key: &CacheKey,
        report: Arc<SynthesisReport>,
    ) -> io::Result<Arc<CachedReport>> {
        let entry = CacheEntry {
            key: key.clone(),
            report: SynthesisReport::clone(&report),
        };
        let json = serde_json::to_string_pretty(&entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let path = self.sharded_path(hash);
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
        // a crash would leave it — `open` never indexes files in the root,
        // so a reopened cache must agree with the pre-store index (the
        // crash-consistency test asserts this).
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
        let entry = CachedReport::new(report);
        let mut state = self.state.lock().expect("cache lock");
        state.touch(hash);
        if let Some(replaced) = state.memo.insert(hash.to_string(), Arc::clone(&entry)) {
            replaced.retire();
        }
        state.index.insert(hash.to_string(), path);
        state.stats.stores += 1;
        Ok(entry)
    }

    /// Evict least-recently-used entries (by file modification time, the
    /// best cross-process recency signal a shared store has) until at most
    /// `max_entries` remain. Eviction is advisory: an entry whose file has
    /// already vanished (e.g. pruned by a concurrent process) just drops
    /// out of the index. Returns the content hashes of the removed
    /// entries; their resident entries are retired.
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
                    state.forget(&hash);
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
        // …and move it aside for inspection.
        assert!(!path.exists());
        assert!(dir
            .join("quarantine")
            .join(format!("{hash}.json"))
            .is_file());
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
        assert!(!cache.contains(&hash_b));
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
    fn a_resident_report_is_shared_and_answered_only_once_verified() {
        let dir = tmp_dir("resident");
        let cache = AlgorithmCache::open(&dir).expect("open");
        let (key, report) = tiny_report(2);
        let hash = key.content_hash();
        let report = Arc::new(report);
        let stored = cache
            .store_shared(&hash, &key, Arc::clone(&report))
            .expect("store");
        assert!(Arc::ptr_eq(stored.report(), &report), "stored, not copied");
        // Every hit hands out the one entry.
        let hit = cache.lookup_shared(&hash, &key).expect("hit");
        assert!(Arc::ptr_eq(&hit, &stored));
        assert_eq!(cache.lookup(&key).as_ref(), Some(report.as_ref()));
        // Not verified yet: no answer, and no access counted.
        let stats = cache.stats();
        assert!(cache.verified(&hash).is_none());
        assert_eq!(cache.stats(), stats);
        hit.mark_verified();
        let verified = cache.verified(&hash).expect("verified entry");
        assert!(Arc::ptr_eq(&verified, &stored));
        assert_eq!(cache.stats().hits, stats.hits + 1);
        // The rendering is made once, whoever asks.
        assert!(Arc::ptr_eq(&verified.payload(), &stored.payload()));

        // A store replaces the file and the resident entry with a new,
        // unverified one, and retires the entry it replaced.
        assert!(!stored.is_retired());
        cache.store(&key, &report).expect("store");
        assert!(stored.is_retired());
        assert!(cache.verified(&hash).is_none());
        let reread = cache.lookup_shared(&hash, &key).expect("stored entry");
        assert!(!Arc::ptr_eq(&reread, &stored));
        assert!(!reread.is_verified() && !reread.is_retired());
        assert_eq!(reread.report().as_ref(), report.as_ref());

        // Quarantine and prune take the resident entry with the file and
        // retire it.
        reread.mark_verified();
        assert!(cache.quarantine(&hash, "test"));
        assert!(reread.is_retired());
        assert!(cache.verified(&hash).is_none());
        assert!(cache.lookup_shared(&hash, &key).is_none());
        let again = cache
            .store_shared(&hash, &key, Arc::clone(&report))
            .expect("store");
        again.mark_verified();
        let (other_key, other_report) = tiny_report(3);
        cache.store(&other_key, &other_report).expect("store");
        assert_eq!(cache.prune(1).expect("prune"), vec![hash.clone()]);
        assert!(again.is_retired());
        assert!(cache.verified(&hash).is_none());
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
