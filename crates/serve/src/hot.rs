//! The in-memory hot tier in front of the on-disk
//! [`AlgorithmCache`](sccl_sched::AlgorithmCache): recently served
//! frontiers kept under their cache-key content hash, behind one
//! `RwLock`. A hot hit takes the read lock for one `HashMap` probe and an
//! `Arc` clone; an insert takes the write lock for one insert and at most
//! one eviction, never for a render or a solve, so hits do not convoy
//! behind a worker storing a multi-megabyte report.
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

use crate::wire::WireSynthesize;
use sccl_core::pareto::SynthesisReport;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

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

/// The tier's entries and their eviction queue, mutated in place.
#[derive(Default)]
struct Slots {
    map: HashMap<String, Arc<HotEntry>>,
    /// The keys of `map` in insertion order, oldest first.
    order: VecDeque<String>,
}

/// A bounded hot cache of synthesis reports (see the module docs).
pub struct HotTier {
    slots: RwLock<Slots>,
    capacity: usize,
}

impl HotTier {
    /// An empty tier retaining at most `capacity` reports (insertion
    /// order out; a capacity of 0 disables the tier — every lookup
    /// misses and every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        HotTier {
            slots: RwLock::new(Slots::default()),
            capacity,
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a report by cache-key content hash.
    pub fn lookup(&self, hash: &str) -> Option<Arc<SynthesisReport>> {
        self.lookup_entry(hash)
            .map(|entry| Arc::clone(entry.report()))
    }

    /// [`HotTier::lookup`], returning the whole slot: the report and its
    /// once-rendered payload.
    pub fn lookup_entry(&self, hash: &str) -> Option<Arc<HotEntry>> {
        self.read().map.get(hash).cloned()
    }

    /// Publish a report under its content hash, evicting the oldest entry
    /// if the tier is over capacity.
    pub fn insert(&self, hash: String, report: Arc<SynthesisReport>) {
        self.insert_entry(hash, HotEntry::new(report));
    }

    /// [`HotTier::insert`] for an entry the caller keeps a handle to, so
    /// the payload its response renders is the one the tier then holds.
    pub fn insert_entry(&self, hash: String, entry: Arc<HotEntry>) {
        if self.capacity == 0 {
            return;
        }
        let mut slots = self.slots.write().expect("hot-tier lock");
        if slots.map.insert(hash.clone(), entry).is_none() {
            slots.order.push_back(hash);
        }
        while slots.map.len() > self.capacity {
            // `order` holds exactly the keys of `map`, so it cannot run
            // dry while the map is over capacity.
            let victim = slots.order.pop_front().expect("a key per entry");
            slots.map.remove(&victim);
        }
    }

    /// Drop the entry published under `hash`, if any. Returns whether an
    /// entry was removed.
    ///
    /// This is the invalidation hook for the disk cache underneath: when
    /// the engine prunes an entry (capacity eviction or encoder-version
    /// sweep), the server forwards the pruned hashes here so the tier
    /// cannot keep replaying a frontier the durable store no longer
    /// backs.
    pub fn invalidate(&self, hash: &str) -> bool {
        let mut slots = self.slots.write().expect("hot-tier lock");
        if slots.map.remove(hash).is_none() {
            return false;
        }
        slots.order.retain(|key| key != hash);
        true
    }

    /// Entries currently published.
    pub fn len(&self) -> usize {
        self.read().map.len()
    }

    /// Rendered payload bytes the published entries hold right now.
    pub fn resident_bytes(&self) -> usize {
        self.read()
            .map
            .values()
            .map(|entry| entry.resident_bytes())
            .sum()
    }

    /// `true` if no report is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Slots> {
        self.slots.read().expect("hot-tier lock")
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
    /// invalidation of the entry it is probing must see either a miss or
    /// the *full* report — its `Arc` keeps the report whole after the slot
    /// is gone.
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
                            // Walk the whole report, which may have left
                            // the tier since the lookup.
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
        // invalidated until the readers have provably raced live hits
        // against invalidations (bounded so a pathological scheduler
        // cannot hang the test).
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
