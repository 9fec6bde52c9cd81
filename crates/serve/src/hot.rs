//! The in-memory hot tier in front of the on-disk
//! [`AlgorithmCache`](sccl_sched::AlgorithmCache): recently served
//! frontiers kept under their cache-key content hash, with a **lock-free
//! read path** — a connection thread serving a hot hit touches three
//! atomics and a `HashMap` probe, never a mutex, so hot hits cannot convoy
//! behind a solver storing a multi-megabyte report.
//!
//! # What a slot holds
//!
//! A slot is one [`HotEntry`]: the verified `Arc<SynthesisReport>` and the
//! report's rendered wire payload — the JSON text a `synthesize` response
//! carries under `"report"`. The payload is rendered at most once per
//! entry, by the first response that needs it (an in-process
//! [`Server::submit`](crate::Server::submit) caller that never asks never
//! pays), and every later hot hit writes those bytes as they are. Report
//! and bytes share the slot, so whatever drops the entry — capacity
//! eviction, a disk-cache prune, a quarantine's [`HotTier::invalidate`] —
//! drops both: a payload cannot outlive its report.
//!
//! Beside the tier sits the [`KeyMemo`]: the daemon's bounded memory of
//! which content hash a request's `(topology, collective, root, caps)`
//! spells, so a repeated request can ask the tier before it builds the
//! topology and hashes the key again.
//!
//! # Design: RCU over an immutable map
//!
//! The current map lives behind an [`AtomicPtr`]; readers snapshot the
//! pointer and probe the (immutable) map it addresses. Writers are
//! serialized by a mutex, build a *new* map (clone + mutate), publish it
//! with a pointer swap, and retire the old map into a graveyard that is
//! freed only at a observed quiescent point.
//!
//! Reclamation is the whole trick, and it needs no epochs or hazard
//! pointers here because readers bracket their pointer access with a
//! `SeqCst` active-reader count:
//!
//! * A reader increments `readers`, **then** loads the map pointer, uses
//!   it, and decrements.
//! * A writer swaps the pointer, **then** checks `readers == 0`. Under
//!   `SeqCst`'s single total order, any reader still holding the *old*
//!   pointer incremented `readers` before its load, i.e. before the
//!   writer's check read zero — so it has already decremented and let go.
//!   Any reader that increments after the check loads the pointer after
//!   the swap and can only see the *new* map.
//!
//! A writer that observes a nonzero count simply leaves the retired map
//! in the graveyard; a later write (or drop) frees it. Readers are thus
//! wait-free; writers pay the map clone, which is the right trade for a
//! tier whose hit path is orders of magnitude hotter than its fill path.

use crate::wire::WireSynthesize;
use sccl_core::pareto::SynthesisReport;
use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One verified report and, once a response has needed it, the report's
/// rendered wire payload (see the module docs).
#[derive(Debug)]
pub struct HotEntry {
    report: Arc<SynthesisReport>,
    payload: OnceLock<Arc<str>>,
}

impl HotEntry {
    /// Wrap a report that passed decode-time verification. Nothing is
    /// rendered yet.
    pub fn new(report: Arc<SynthesisReport>) -> Arc<HotEntry> {
        Arc::new(HotEntry {
            report,
            payload: OnceLock::new(),
        })
    }

    /// The report.
    pub fn report(&self) -> &Arc<SynthesisReport> {
        &self.report
    }

    /// The report as the wire carries it: `serde_json::to_string(report)`,
    /// rendered by the first caller and shared by every later one.
    pub fn payload(&self) -> Arc<str> {
        Arc::clone(self.payload.get_or_init(|| {
            serde_json::to_string(self.report.as_ref())
                .expect("a report holds no float, the one value JSON rendering can refuse")
                .into()
        }))
    }

    /// Payload bytes this entry currently holds (0 until first rendered).
    fn resident_bytes(&self) -> usize {
        self.payload.get().map_or(0, |payload| payload.len())
    }
}

type Map = HashMap<String, Arc<HotEntry>>;

/// State only writers touch, behind the writer mutex.
struct WriterState {
    /// Insertion order of the keys currently in the published map, oldest
    /// first — the eviction queue.
    order: Vec<String>,
    /// Retired map generations not yet proven quiescent.
    graveyard: Vec<*mut Map>,
}

/// A bounded, lock-free-read hot cache of synthesis reports.
pub struct HotTier {
    /// The published map. Always a valid `Box<Map>` leaked into the
    /// pointer; never null.
    map: AtomicPtr<Map>,
    /// Readers currently between their increment and decrement.
    readers: AtomicUsize,
    writer: Mutex<WriterState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

// SAFETY: the raw pointers in `map` and `graveyard` address heap maps of
// `String → Arc<HotEntry>`, both `Send + Sync`; all mutation is
// funneled through the writer mutex and the documented publish/retire
// protocol, and readers only ever take shared references.
unsafe impl Send for HotTier {}
unsafe impl Sync for HotTier {}

impl HotTier {
    /// An empty tier retaining at most `capacity` reports (insertion
    /// order out; a capacity of 0 disables the tier — every lookup
    /// misses and every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        HotTier {
            map: AtomicPtr::new(Box::into_raw(Box::new(Map::new()))),
            readers: AtomicUsize::new(0),
            writer: Mutex::new(WriterState {
                order: Vec::new(),
                graveyard: Vec::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a report by cache-key content hash. Lock-free: two
    /// `SeqCst` counter updates and one pointer load, no mutex.
    pub fn lookup(&self, hash: &str) -> Option<Arc<SynthesisReport>> {
        self.lookup_entry(hash)
            .map(|entry| Arc::clone(entry.report()))
    }

    /// [`HotTier::lookup`], returning the whole slot: the report and its
    /// once-rendered payload.
    pub fn lookup_entry(&self, hash: &str) -> Option<Arc<HotEntry>> {
        // Increment BEFORE the pointer load: a writer that later observes
        // readers == 0 is thereby guaranteed this load saw its new map.
        self.readers.fetch_add(1, Ordering::SeqCst);
        let map = self.map.load(Ordering::SeqCst);
        // SAFETY: `map` was published by a writer and cannot be freed
        // while this reader is counted (see the module docs' quiescence
        // argument).
        let found = unsafe { &*map }.get(hash).cloned();
        self.readers.fetch_sub(1, Ordering::SeqCst);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Publish a report under its content hash, evicting the oldest
    /// entries if the tier is over capacity. Writers serialize on a
    /// mutex; readers are never blocked.
    pub fn insert(&self, hash: String, report: Arc<SynthesisReport>) {
        self.insert_entry(hash, HotEntry::new(report));
    }

    /// [`HotTier::insert`] for an entry the caller keeps a handle to, so
    /// the payload its response renders is the one the tier then holds.
    pub fn insert_entry(&self, hash: String, entry: Arc<HotEntry>) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.writer.lock().expect("hot-tier writer lock");
        // Clone-and-mutate: the published map is immutable by contract.
        let current = self.map.load(Ordering::SeqCst);
        // SAFETY: only writers retire maps, and this thread holds the
        // writer lock, so `current` stays valid for the clone.
        let mut next = unsafe { &*current }.clone();
        if next.insert(hash.clone(), entry).is_none() {
            state.order.push(hash);
        }
        while next.len() > self.capacity {
            // `order` tracks exactly the published keys, so it cannot run
            // dry while the map is over capacity.
            let victim = state.order.remove(0);
            next.remove(&victim);
        }
        self.publish(Box::into_raw(Box::new(next)), &mut state);
    }

    /// Drop the entry published under `hash`, if any. Returns whether an
    /// entry was removed.
    ///
    /// This is the invalidation hook for the disk cache underneath: when
    /// the engine prunes an entry (capacity eviction or encoder-version
    /// sweep), the server forwards the pruned hashes here so the tier
    /// cannot keep replaying a frontier the durable store no longer
    /// backs. Same clone-and-publish discipline as [`HotTier::insert`];
    /// readers are never blocked.
    pub fn invalidate(&self, hash: &str) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut state = self.writer.lock().expect("hot-tier writer lock");
        let current = self.map.load(Ordering::SeqCst);
        // SAFETY: only writers retire maps, and this thread holds the
        // writer lock, so `current` stays valid for the clone.
        let mut next = unsafe { &*current }.clone();
        if next.remove(hash).is_none() {
            return false;
        }
        state.order.retain(|key| key != hash);
        self.publish(Box::into_raw(Box::new(next)), &mut state);
        true
    }

    /// Entries currently published.
    pub fn len(&self) -> usize {
        self.readers.fetch_add(1, Ordering::SeqCst);
        let map = self.map.load(Ordering::SeqCst);
        // SAFETY: as in `lookup`.
        let len = unsafe { &*map }.len();
        self.readers.fetch_sub(1, Ordering::SeqCst);
        len
    }

    /// Rendered payload bytes the published entries hold right now.
    pub fn resident_bytes(&self) -> usize {
        self.readers.fetch_add(1, Ordering::SeqCst);
        let map = self.map.load(Ordering::SeqCst);
        // SAFETY: as in `lookup`.
        let bytes = unsafe { &*map }
            .values()
            .map(|entry| entry.resident_bytes())
            .sum();
        self.readers.fetch_sub(1, Ordering::SeqCst);
        bytes
    }

    /// `true` if no report is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters of this tier.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Swap `next` in as the published map and retire the old one,
    /// freeing the graveyard if a quiescent point is observed. Callers
    /// hold the writer lock (witnessed by `state`).
    fn publish(&self, next: *mut Map, state: &mut WriterState) {
        let old = self.map.swap(next, Ordering::SeqCst);
        state.graveyard.push(old);
        // The swap is SeqCst and so is this load: if it reads 0, every
        // reader that could have seen any graveyard pointer has already
        // decremented, so the retired maps are unreachable.
        if self.readers.load(Ordering::SeqCst) == 0 {
            for retired in state.graveyard.drain(..) {
                // SAFETY: unreachable per the quiescence argument; each
                // pointer came from `Box::into_raw` and is freed once
                // (drain removes it from the graveyard).
                drop(unsafe { Box::from_raw(retired) });
            }
        }
    }
}

impl Drop for HotTier {
    fn drop(&mut self) {
        // Exclusive access: no readers or writers can exist during drop.
        let state = self.writer.get_mut().expect("hot-tier writer lock");
        for retired in state.graveyard.drain(..) {
            // SAFETY: exclusively owned leaked boxes, freed exactly once.
            drop(unsafe { Box::from_raw(retired) });
        }
        let current = *self.map.get_mut();
        // SAFETY: the published map is a leaked box owned by `self`.
        drop(unsafe { Box::from_raw(current) });
    }
}

/// A memo key longer than this is not remembered: a spec can be padded
/// (`ring:000…04`) to any length the request-line cap allows, and the memo
/// must stay small whatever clients send.
const MEMO_KEY_MAX_BYTES: usize = 256;

/// The memo is emptied when it would outgrow this many entries per hot-tier
/// slot: several spellings may name one hash (`k` absent or spelled out),
/// and a key the tier no longer holds is worth nothing here.
const MEMO_ENTRIES_PER_HOT_SLOT: usize = 4;

/// Everything a flat request's content hash depends on that the wire can
/// vary. The rest of the hash's input — the engine's search defaults and
/// `ENCODER_VERSION` — is fixed for a daemon's life.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    topology: String,
    collective: String,
    root: usize,
    max_steps: Option<usize>,
    max_chunks: Option<usize>,
    k: Option<u64>,
}

impl MemoKey {
    /// The memo key of `request`; `None` for a `groups` request (a
    /// composition has no single content hash) and for an oversized spec.
    pub(crate) fn of(request: &WireSynthesize) -> Option<MemoKey> {
        if request.groups.is_some()
            || request.topology.len() + request.collective.len() > MEMO_KEY_MAX_BYTES
        {
            return None;
        }
        Some(MemoKey {
            topology: request.topology.clone(),
            collective: request.collective.clone(),
            root: request.root,
            max_steps: request.max_steps,
            max_chunks: request.max_chunks,
            k: request.k,
        })
    }
}

/// Request → content hash, remembered so a repeated request reaches the
/// hot tier without rebuilding its topology and re-hashing its key. The
/// mapping is a pure function, so an entry is never wrong, only useless
/// once the tier has dropped the hash — hence no invalidation, just a
/// bound: the memo is cleared wholesale when full and refills from the
/// requests that still arrive.
pub(crate) struct KeyMemo {
    map: RwLock<HashMap<MemoKey, String>>,
    bound: usize,
    hits: AtomicU64,
}

impl KeyMemo {
    /// A memo sized for a hot tier of `hot_capacity` slots (none: a memo
    /// that remembers nothing, since no hit could use it).
    pub(crate) fn new(hot_capacity: usize) -> KeyMemo {
        KeyMemo {
            map: RwLock::new(HashMap::new()),
            bound: hot_capacity.saturating_mul(MEMO_ENTRIES_PER_HOT_SLOT),
            hits: AtomicU64::new(0),
        }
    }

    /// The remembered content hash of `key`, if any.
    pub(crate) fn get(&self, key: &MemoKey) -> Option<String> {
        let hash = self.map.read().expect("key-memo lock").get(key).cloned();
        if hash.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hash
    }

    /// Remember that `key` hashes to `hash`.
    pub(crate) fn put(&self, key: MemoKey, hash: &str) {
        if self.bound == 0 {
            return;
        }
        let mut map = self.map.write().expect("key-memo lock");
        if map.len() >= self.bound {
            map.clear();
        }
        map.insert(key, hash.to_string());
    }

    /// Lookups answered from the memo so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_collectives::Collective;
    use sccl_core::pareto::{pareto_synthesize, SynthesisConfig};
    use sccl_topology::builders;

    fn report(chunks: usize) -> Arc<SynthesisReport> {
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: chunks,
            ..Default::default()
        };
        Arc::new(
            pareto_synthesize(&builders::ring(4, 1), Collective::Allgather, &config)
                .expect("tiny synthesis"),
        )
    }

    #[test]
    fn lookup_returns_what_insert_published() {
        let tier = HotTier::new(8);
        assert!(tier.lookup("absent").is_none());
        let r = report(1);
        tier.insert("k1".to_string(), Arc::clone(&r));
        let hit = tier.lookup("k1").expect("published entry");
        assert!(Arc::ptr_eq(&hit, &r), "the tier must share, not clone");
        assert_eq!(tier.stats(), (1, 1));
    }

    #[test]
    fn capacity_evicts_in_insertion_order() {
        let tier = HotTier::new(2);
        let r = report(1);
        for key in ["a", "b", "c"] {
            tier.insert(key.to_string(), Arc::clone(&r));
        }
        assert_eq!(tier.len(), 2);
        assert!(tier.lookup("a").is_none(), "oldest entry must be evicted");
        assert!(tier.lookup("b").is_some());
        assert!(tier.lookup("c").is_some());
    }

    #[test]
    fn reinserting_a_key_does_not_duplicate_it() {
        let tier = HotTier::new(2);
        let r = report(1);
        tier.insert("a".to_string(), Arc::clone(&r));
        tier.insert("a".to_string(), Arc::clone(&r));
        tier.insert("b".to_string(), Arc::clone(&r));
        assert_eq!(tier.len(), 2);
        // "a" was inserted once as far as the eviction queue is concerned;
        // a third key evicts it, not a phantom duplicate.
        tier.insert("c".to_string(), Arc::clone(&r));
        assert!(tier.lookup("a").is_none());
        assert_eq!(tier.len(), 2);
    }

    #[test]
    fn invalidate_removes_the_entry_and_its_eviction_slot() {
        let tier = HotTier::new(2);
        let r = report(1);
        tier.insert("a".to_string(), Arc::clone(&r));
        tier.insert("b".to_string(), Arc::clone(&r));
        assert!(tier.invalidate("a"));
        assert!(!tier.invalidate("a"), "already gone");
        assert!(tier.lookup("a").is_none());
        assert_eq!(tier.len(), 1);
        // "a" must also have left the eviction queue: two more inserts
        // evict "b" (now the oldest), not a phantom "a".
        tier.insert("c".to_string(), Arc::clone(&r));
        tier.insert("d".to_string(), Arc::clone(&r));
        assert!(tier.lookup("b").is_none());
        assert!(tier.lookup("c").is_some());
        assert!(tier.lookup("d").is_some());
    }

    #[test]
    fn a_payload_is_rendered_once_and_leaves_with_its_entry() {
        let tier = HotTier::new(2);
        let entry = HotEntry::new(report(1));
        tier.insert_entry("a".to_string(), Arc::clone(&entry));
        tier.insert("b".to_string(), report(2));
        assert_eq!(tier.resident_bytes(), 0, "nothing rendered yet");
        // The response that renders first renders for the tier's slot…
        let payload = entry.payload();
        assert_eq!(
            &*payload,
            serde_json::to_string(entry.report().as_ref()).expect("json")
        );
        let hit = tier.lookup_entry("a").expect("published entry");
        assert!(Arc::ptr_eq(&hit.payload(), &payload), "one render, shared");
        assert_eq!(tier.resident_bytes(), payload.len());
        // …and the bytes go when the entry goes, by invalidation or eviction.
        let other = tier.lookup_entry("b").expect("published entry").payload();
        assert_eq!(tier.resident_bytes(), payload.len() + other.len());
        assert!(tier.invalidate("a"));
        assert_eq!(tier.resident_bytes(), other.len());
        tier.insert("c".to_string(), report(1));
        tier.insert("d".to_string(), report(1));
        assert!(tier.lookup("b").is_none(), "evicted");
        assert_eq!(tier.resident_bytes(), 0);
    }

    #[test]
    fn the_key_memo_keeps_spellings_apart_and_stays_bounded() {
        let base = WireSynthesize::new("ring:4", "broadcast");
        let key = |request: &WireSynthesize| MemoKey::of(request).expect("a flat request");
        let mut rooted = base.clone();
        rooted.root = 1;
        let mut with_k = base.clone();
        with_k.k = Some(0);
        let spellings = [
            base.clone(),
            rooted,
            with_k,
            base.clone().with_caps(6, 4),
            base.clone().with_caps(6, 3),
            base.clone().with_caps(5, 4),
            WireSynthesize::new("ring:4", "gather"),
            WireSynthesize::new("ring:5", "broadcast"),
        ];
        for (i, a) in spellings.iter().enumerate() {
            for b in &spellings[i + 1..] {
                assert_ne!(key(a), key(b), "{a:?} vs {b:?}");
            }
        }
        // What the hash does not depend on is not in the key.
        assert_eq!(
            key(&base),
            key(&base.clone().with_client("x").with_deadline_ms(5))
        );
        // A composition has no single hash; a padded spec is not worth a slot.
        assert!(MemoKey::of(&base.clone().with_groups("auto")).is_none());
        let padded = format!("ring:{}4", "0".repeat(MEMO_KEY_MAX_BYTES));
        assert!(MemoKey::of(&WireSynthesize::new(padded, "broadcast")).is_none());

        // Capacity 1 → at most 4 entries: the fifth put empties the memo.
        let memo = KeyMemo::new(1);
        for (i, request) in spellings.iter().take(4).enumerate() {
            memo.put(key(request), &format!("hash-{i}"));
        }
        assert_eq!(memo.get(&key(&spellings[2])).as_deref(), Some("hash-2"));
        memo.put(key(&spellings[4]), "hash-4");
        assert_eq!(memo.get(&key(&spellings[2])), None, "cleared wholesale");
        assert_eq!(memo.get(&key(&spellings[4])).as_deref(), Some("hash-4"));
        assert_eq!(memo.hits(), 2);
        // No tier, no memo.
        let disabled = KeyMemo::new(0);
        disabled.put(key(&base), "hash");
        assert_eq!(disabled.get(&key(&base)), None);
    }

    #[test]
    fn zero_capacity_disables_the_tier() {
        let tier = HotTier::new(0);
        tier.insert("a".to_string(), report(1));
        assert!(tier.lookup("a").is_none());
        assert!(tier.is_empty());
    }

    /// Readers race writers across every interleaving the scheduler finds:
    /// no crash, no torn read — every lookup returns either a miss or a
    /// fully formed report.
    #[test]
    fn concurrent_readers_and_writers_are_memory_safe() {
        let tier = Arc::new(HotTier::new(4));
        let r = report(1);
        let entries = r.entries.len();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let tier = Arc::clone(&tier);
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        tier.insert(format!("w{w}-{}", i % 8), Arc::clone(&r));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let tier = Arc::clone(&tier);
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    for i in 0..2000 {
                        for w in 0..2 {
                            if let Some(report) = tier.lookup(&format!("w{w}-{}", i % 8)) {
                                assert_eq!(report.entries.len(), entries);
                                hits += 1;
                            }
                        }
                    }
                    hits
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        let total_hits: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        assert!(total_hits > 0, "readers must observe published entries");
        assert!(tier.len() <= 4);
    }

    /// Invalidation racing concurrent readers: a reader overlapping the
    /// retirement of the map it is probing must still see either a miss
    /// or the *full* retired report — never a freed map or a torn entry.
    /// This is the quarantine path's contract: when a corrupt disk entry
    /// is quarantined, the server invalidates the hot tier while hot
    /// lookups for the same hash are in flight.
    #[test]
    fn invalidation_racing_readers_never_serves_a_freed_report() {
        let tier = Arc::new(HotTier::new(4));
        let r = report(1);
        let entries = r.entries.len();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let observed = Arc::new(AtomicU64::new(0));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let tier = Arc::clone(&tier);
                let stop = Arc::clone(&stop);
                let observed = Arc::clone(&observed);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if let Some(report) = tier.lookup("contested") {
                            // Walk the whole report: a use-after-free here
                            // would read freed entry vectors.
                            assert_eq!(report.entries.len(), entries);
                            for entry in &report.entries {
                                assert!(!entry.algorithm.sends.is_empty());
                            }
                            observed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();

        // The writer flips the contested key between published and
        // invalidated, retiring a map generation per flip, until the
        // readers have provably raced live hits against invalidations
        // (bounded so a pathological scheduler cannot hang the test).
        let mut flips = 0u64;
        while observed.load(Ordering::Relaxed) < 100 && flips < 2_000_000 {
            tier.insert("contested".to_string(), Arc::clone(&r));
            tier.invalidate("contested");
            flips += 1;
        }
        // Leave it invalidated; a lookup that starts after this point
        // must miss (readers may still be draining earlier hits).
        assert!(tier.lookup("contested").is_none());
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader");
        }
        assert!(
            observed.load(Ordering::Relaxed) >= 100,
            "the race must actually interleave hits with invalidations \
             ({flips} flips)"
        );
        assert_eq!(tier.len(), 0);
    }
}
