//! The gates' second memory tier: after a hot-tier miss, a report the disk
//! cache holds in memory is answered at the gate — provenance `cache`, no
//! queue slot, no worker — but only once a worker has replayed it through
//! `verify_report` in this daemon. Everything else takes the worker path,
//! quarantine and re-solve included. A report the disk cache has dropped
//! (quarantined, pruned or replaced by a later store) is answered by
//! neither memory tier.

use sccl_collectives::Collective;
use sccl_core::failpoint::{self, FailAction};
use sccl_core::pareto::{pareto_synthesize, SynthesisConfig};
use sccl_sched::{CacheKey, Engine};
use sccl_serve::{verify, ServeConfig, Served, ServedFrom, Server};
use sccl_topology::builders;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The failpoint registry is process-global: every test here holds this
/// lock for its whole body, so one test's armed site never fires in
/// another's solve.
static FAILPOINTS: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    let guard = FAILPOINTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::reset();
    guard
}

fn config() -> SynthesisConfig {
    SynthesisConfig {
        max_steps: 6,
        max_chunks: 2,
        ..Default::default()
    }
}

/// A server over an engine with a fresh disk cache at `dir`.
fn server(dir: &PathBuf, workers: usize, hot_capacity: usize) -> Arc<Server> {
    let _ = std::fs::remove_dir_all(dir);
    let engine = Engine::builder()
        .sequential()
        .synthesis_defaults(config())
        .cache_dir(dir)
        .build()
        .expect("engine");
    Server::start(
        engine,
        ServeConfig {
            workers,
            hot_capacity,
            ..Default::default()
        },
    )
    .expect("server")
}

fn cache_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sccl-resident-gate-{tag}-{}", std::process::id()))
}

fn serve(server: &Server, collective: Collective) -> Served {
    server
        .submit(builders::ring(4, 1), collective, config(), None, "t")
        .expect("admitted")
        .wait()
        .expect("served")
}

#[test]
fn a_verified_resident_report_is_answered_while_the_only_worker_is_busy() {
    let _serial = serialize();
    let dir = cache_dir("busy");
    let server = server(&dir, 1, 0);
    let resident = Collective::Allgather;
    let first = serve(&server, resident);
    assert!(
        matches!(first.from, ServedFrom::Solved(_)),
        "{:?}",
        first.from
    );

    // Hold the one worker: its next solve sleeps.
    failpoint::arm_times("pool.solve", FailAction::Sleep(Duration::from_secs(2)), 1);
    let busy = server
        .submit(
            builders::ring(4, 1),
            Collective::Broadcast { root: 0 },
            config(),
            None,
            "other",
        )
        .expect("admitted");
    while server.snapshot().queue.depth > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = server.snapshot();

    // The resident key is answered on the calling thread: the ticket is
    // resolved before it is returned, and nothing was queued behind the
    // worker.
    let ticket = server
        .submit(builders::ring(4, 1), resident, config(), None, "t")
        .expect("admitted");
    assert!(!ticket.wants_journal_record());
    let answered = ticket
        .wait_timeout(Duration::ZERO)
        .expect("answered at the gate, not queued behind the busy worker")
        .expect("served");
    let after = server.snapshot();
    assert_eq!(answered.from, ServedFrom::DiskCache);
    assert!(answered.incremental.is_none());
    assert_eq!(after.cache.disk_hits, before.cache.disk_hits + 1);
    assert_eq!(after.cache.hot_hits, before.cache.hot_hits);
    assert_eq!(after.cache.solved, before.cache.solved);
    assert_eq!(after.queue.depth, 0, "the answer took no queue slot");
    // `--hot 0` still holds nothing: the gate's answer is not published
    // into a tier that has no room.
    assert_eq!(after.cache.hot_len, 0);

    // One report in memory, rendered once: the gate hands out the entry
    // the worker verified, not a copy.
    assert!(Arc::ptr_eq(&answered.report, &first.report));
    assert!(Arc::ptr_eq(&answered.payload(), &first.payload()));

    assert!(busy.wait().is_ok(), "the held job still completes");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stored_report_that_fails_verification_is_never_answered_at_the_gate() {
    let _serial = serialize();
    let dir = cache_dir("unverified");
    let server = server(&dir, 1, 0);
    let ring = builders::ring(4, 1);
    let collective = Collective::Allgather;
    // A frontier of another collective filed under this key: it parses and
    // sits at the right address, so only decode-time verification can
    // tell.
    let bad = pareto_synthesize(&ring, Collective::Broadcast { root: 0 }, &config())
        .expect("broadcast frontier");
    assert!(verify::verify_report(&ring, collective, &bad).is_err());
    let cache = server.engine().cache().expect("a disk cache");
    cache
        .store(&CacheKey::new(&ring, collective, &config()), &bad)
        .expect("store");

    // The first request goes to the worker, which reads the entry, fails
    // it, quarantines it and solves the key afresh.
    let healed = serve(&server, collective);
    assert!(
        matches!(healed.from, ServedFrom::Solved(_)),
        "{:?}",
        healed.from
    );
    assert!(verify::verify_report(&ring, collective, &healed.report).is_ok());
    let snapshot = server.snapshot();
    assert_eq!(snapshot.faults.verify_failures, 1);
    assert_eq!(snapshot.faults.cache_quarantined, 1);
    assert_eq!(
        snapshot.cache.disk_hits, 0,
        "the bad entry was never served"
    );

    // The re-solved report was verified on its way out: the next request
    // is a resident hit of it.
    let resident = serve(&server, collective);
    assert_eq!(resident.from, ServedFrom::DiskCache);
    assert!(Arc::ptr_eq(&resident.report, &healed.report));
    let snapshot = server.snapshot();
    assert_eq!(snapshot.cache.disk_hits, 1);
    assert_eq!(snapshot.faults.verify_failures, 1);

    // Filing the bad report again replaces the resident entry with an
    // unverified one: the gate does not answer it, and the worker catches
    // the bad report once more.
    cache
        .store(&CacheKey::new(&ring, collective, &config()), &bad)
        .expect("store");
    let again = serve(&server, collective);
    assert!(
        matches!(again.from, ServedFrom::Solved(_)),
        "{:?}",
        again.from
    );
    assert_eq!(server.snapshot().faults.verify_failures, 2);
    assert_eq!(server.snapshot().cache.disk_hits, 1);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resident_answers_publish_into_a_hot_tier_that_stays_bounded() {
    let _serial = serialize();
    let dir = cache_dir("bounded");
    let server = server(&dir, 1, 1);
    let collectives = [
        Collective::Allgather,
        Collective::Broadcast { root: 0 },
        Collective::Gather { root: 0 },
    ];
    let solved: Vec<Served> = collectives.iter().map(|&c| serve(&server, c)).collect();
    assert_eq!(server.snapshot().cache.hot_len, 1);
    // Only the last solve is hot; the other two are resident, and each
    // resident answer takes the tier's one slot.
    for (collective, first) in collectives.iter().zip(&solved).take(2) {
        let resident = serve(&server, *collective);
        assert_eq!(resident.from, ServedFrom::DiskCache);
        let hot = serve(&server, *collective);
        assert_eq!(hot.from, ServedFrom::HotTier);
        // Both tiers hold the one report and its one rendering.
        assert!(Arc::ptr_eq(&hot.report, &first.report));
        assert!(Arc::ptr_eq(&resident.report, &first.report));
        assert!(Arc::ptr_eq(&hot.payload(), &resident.payload()));
        let snapshot = server.snapshot();
        assert_eq!(snapshot.cache.hot_len, 1, "--hot bounds the tier");
        assert_eq!(snapshot.cache.hot_capacity, 1);
    }
    let snapshot = server.snapshot();
    assert_eq!(snapshot.cache.disk_hits, 2);
    assert_eq!(snapshot.cache.hot_hits, 2);
    assert_eq!(snapshot.cache.solved, 3);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hot_report_the_disk_cache_drops_is_never_answered_hot_again() {
    let _serial = serialize();
    let dir = cache_dir("retired");
    let server = server(&dir, 1, 4);
    let ring = builders::ring(4, 1);
    let collective = Collective::Allgather;
    let key = CacheKey::new(&ring, collective, &config());
    let hash = key.content_hash();
    let cache = server.engine().cache().expect("a disk cache");
    let first = serve(&server, collective);
    assert!(
        matches!(first.from, ServedFrom::Solved(_)),
        "{:?}",
        first.from
    );
    assert_eq!(serve(&server, collective).from, ServedFrom::HotTier);

    // (a) A quarantine made on the cache itself, with no worker job in
    // between: the hot slot shares the entry the quarantine retires, so
    // the next request misses both memory tiers and is solved afresh.
    assert!(cache.quarantine(&hash, "test"));
    let before = server.snapshot();
    assert_eq!(
        before.cache.hot_len, 0,
        "a retired slot is not a live entry"
    );
    let resolved = serve(&server, collective);
    assert!(
        matches!(resolved.from, ServedFrom::Solved(_)),
        "a quarantined report answered from {:?}",
        resolved.from
    );
    assert!(!Arc::ptr_eq(&resolved.report, &first.report));
    let after = server.snapshot();
    assert_eq!(after.cache.hot_hits, before.cache.hot_hits);
    assert_eq!(after.cache.disk_hits, before.cache.disk_hits);
    let hot = serve(&server, collective);
    assert_eq!(hot.from, ServedFrom::HotTier);
    assert!(Arc::ptr_eq(&hot.report, &resolved.report));

    // (b) A report that fails verification, re-filed under the key: the
    // store retires the verified entry the hot tier holds, so the next
    // request goes to the worker, which catches the bad report.
    let bad = pareto_synthesize(&ring, Collective::Broadcast { root: 0 }, &config())
        .expect("broadcast frontier");
    assert!(verify::verify_report(&ring, collective, &bad).is_err());
    cache.store(&key, &bad).expect("store");
    let before = server.snapshot();
    let healed = serve(&server, collective);
    assert!(
        matches!(healed.from, ServedFrom::Solved(_)),
        "a replaced report answered from {:?}",
        healed.from
    );
    assert!(verify::verify_report(&ring, collective, &healed.report).is_ok());
    let after = server.snapshot();
    assert_eq!(
        after.faults.verify_failures,
        before.faults.verify_failures + 1
    );
    assert_eq!(after.cache.hot_hits, before.cache.hot_hits);
    assert_eq!(after.cache.disk_hits, before.cache.disk_hits);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
