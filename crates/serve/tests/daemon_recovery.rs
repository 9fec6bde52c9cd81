//! Crash-recovery and graceful-drain tests over a real Unix socket: a
//! journaled request left behind by a "crashed" daemon is replayed at
//! startup, the `health` verb reports liveness, and the `drain` verb
//! stops admission and exits with every in-flight job answered.

use sccl_serve::{
    Daemon, ServeClient, ServeConfig, Server, WireRequest, WireResponse, WireSynthesize,
};
use serde::Content;
use std::path::PathBuf;

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sccl-serve-recovery-{tag}-{}.sock",
        std::process::id()
    ))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccl-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_defaults() -> sccl_core::pareto::SynthesisConfig {
    sccl_core::pareto::SynthesisConfig {
        max_steps: 6,
        max_chunks: 4,
        ..Default::default()
    }
}

fn metrics_field(snapshot: &Content, path: &[&str]) -> f64 {
    let mut current = snapshot;
    for key in path {
        let Content::Map(fields) = current else {
            panic!("expected a map at {key}, got {current:?}");
        };
        current = &fields
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("metrics missing field {key}"))
            .1;
    }
    match current {
        Content::U64(v) => *v as f64,
        Content::I64(v) => *v as f64,
        Content::F64(v) => *v,
        other => panic!("expected a number at {path:?}, got {other:?}"),
    }
}

#[test]
fn a_journaled_request_is_replayed_before_the_daemon_takes_new_work() {
    let journal_dir = tmp_dir("journal");
    let cache_dir = tmp_dir("cache");

    // A "crashed" daemon left one admitted request in its journal: the
    // write-ahead record survived, the response never happened.
    {
        let journal = sccl_sched::Journal::open(&journal_dir).expect("journal");
        let line = serde_json::to_string(&WireRequest::Synthesize(
            WireSynthesize::new("ring:4", "allgather").with_client("lost"),
        ))
        .expect("request line");
        journal.append_queue_record(&line).expect("append");
        assert_eq!(journal.queue_len(), 1);
    }

    let engine = sccl_sched::Engine::builder()
        .sequential()
        .synthesis_defaults(quick_defaults())
        .journal_dir(&journal_dir)
        .cache_dir(&cache_dir)
        .build()
        .expect("engine");
    let server = Server::start(
        engine,
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("replay"), server).expect("bind");

    // The accept thread replays before accepting, so this roundtrip is
    // ordered after the recovery solve: the "retrying client" hits the
    // hot tier instead of waiting through a second cold solve.
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    let response = client
        .synthesize(WireSynthesize::new("ring:4", "allgather").with_client("retry"))
        .expect("roundtrip");
    match &response {
        WireResponse::Report { provenance, .. } => assert_eq!(
            provenance, "hot",
            "the replayed solve must already be in the hot tier"
        ),
        other => panic!("expected a report, got {other:?}"),
    }

    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb must answer with a snapshot");
    };
    assert_eq!(
        metrics_field(&snapshot, &["daemon", "journal_replayed"]),
        1.0
    );
    assert!(
        metrics_field(&snapshot, &["daemon", "checkpoints_written"]) > 0.0,
        "the sequential sweep must persist checkpoints through the journal"
    );
    assert!(metrics_field(&snapshot, &["daemon", "uptime_ms"]) >= 0.0);
    daemon.shutdown();

    // The replayed record was consumed: nothing left to replay twice.
    let journal = sccl_sched::Journal::open(&journal_dir).expect("reopen");
    assert_eq!(journal.queue_len(), 0);
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A journaling daemon over `cache_dir`, one worker, sequential sweeps.
fn journaling_daemon(
    tag: &str,
    journal_dir: &std::path::Path,
    cache_dir: &std::path::Path,
    config: ServeConfig,
) -> Daemon {
    let engine = sccl_sched::Engine::builder()
        .sequential()
        .synthesis_defaults(quick_defaults())
        .journal_dir(journal_dir)
        .cache_dir(cache_dir)
        .build()
        .expect("engine");
    let server = Server::start(
        engine,
        ServeConfig {
            workers: 1,
            ..config
        },
    )
    .expect("server");
    Daemon::bind(socket_path(tag), server).expect("bind")
}

/// One field of the `daemon` map of a fresh metrics snapshot.
fn daemon_metric(client: &mut ServeClient, field: &str) -> f64 {
    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb must answer with a snapshot");
    };
    metrics_field(&snapshot, &["daemon", field])
}

/// `(daemon.journal_records_written, records still in the queue directory)`.
fn journal_state(daemon: &Daemon, client: &mut ServeClient) -> (f64, usize) {
    let journal = daemon.server().engine().journal().expect("journal");
    (
        daemon_metric(client, "journal_records_written"),
        journal.queue_len(),
    )
}

/// Send one request; return its provenance, or the wire kind it was
/// refused with.
fn provenance_of(client: &mut ServeClient, request: WireSynthesize) -> String {
    match client.synthesize(request).expect("roundtrip") {
        WireResponse::Report { provenance, .. } => provenance,
        WireResponse::Error { kind, .. } => format!("refused:{kind:?}"),
        other => panic!("expected a report or an error, got {other:?}"),
    }
}

#[test]
fn only_a_request_that_may_solve_writes_a_journal_record() {
    let journal_dir = tmp_dir("records-journal");
    let cache_dir = tmp_dir("records-cache");
    let ring = || WireSynthesize::new("ring:4", "allgather").with_client("c");

    let daemon = journaling_daemon("records", &journal_dir, &cache_dir, ServeConfig::default());
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    assert_eq!(journal_state(&daemon, &mut client), (0.0, 0));

    // A miss is journaled exactly once, and the record is gone by the
    // time the response is.
    assert!(provenance_of(&mut client, ring()).starts_with("solved"));
    assert_eq!(journal_state(&daemon, &mut client), (1.0, 0));

    // A hot hit has nothing a crash could lose.
    assert_eq!(provenance_of(&mut client, ring()), "hot");
    assert_eq!(journal_state(&daemon, &mut client), (1.0, 0));

    // A composition is never cached whole: one record each.
    let hier = WireSynthesize::new("rings:2x4", "allgather")
        .with_groups("auto")
        .with_client("c");
    assert_eq!(provenance_of(&mut client, hier), "hier");
    assert_eq!(journal_state(&daemon, &mut client), (2.0, 0));

    // A refused admission is turned away before anything is written.
    daemon.server().begin_drain();
    let refused = WireSynthesize::new("ring:4", "broadcast").with_client("c");
    assert_eq!(provenance_of(&mut client, refused), "refused:Shutdown");
    assert_eq!(journal_state(&daemon, &mut client), (2.0, 0));
    drop(client);
    daemon.shutdown();

    // A second daemon on the same disk cache starts with an empty hot
    // tier: the same key is now a disk hit, answered by a read.
    let daemon = journaling_daemon(
        "records-disk",
        &journal_dir,
        &cache_dir,
        ServeConfig::default(),
    );
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    assert_eq!(provenance_of(&mut client, ring()), "cache");
    assert_eq!(journal_state(&daemon, &mut client), (0.0, 0));
    drop(client);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_rate_limited_request_writes_no_journal_record() {
    let journal_dir = tmp_dir("limited-journal");
    let cache_dir = tmp_dir("limited-cache");
    // One token and next to no refill: the first request spends it.
    let daemon = journaling_daemon(
        "limited",
        &journal_dir,
        &cache_dir,
        ServeConfig {
            rate_limit_per_sec: 0.001,
            rate_limit_burst: 1,
            ..Default::default()
        },
    );
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    let first = WireSynthesize::new("ring:4", "allgather").with_client("c");
    assert!(provenance_of(&mut client, first).starts_with("solved"));
    assert_eq!(journal_state(&daemon, &mut client), (1.0, 0));
    let second = WireSynthesize::new("ring:4", "broadcast").with_client("c");
    assert_eq!(provenance_of(&mut client, second), "refused:RateLimited");
    assert_eq!(journal_state(&daemon, &mut client), (1.0, 0));
    drop(client);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_failed_journal_write_is_counted_and_the_request_still_served() {
    let journal_dir = tmp_dir("errors-journal");
    let cache_dir = tmp_dir("errors-cache");
    let daemon = journaling_daemon("errors", &journal_dir, &cache_dir, ServeConfig::default());
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    // Take the queue directory away from under the running daemon: every
    // record write now fails, as on a full or read-only disk.
    std::fs::remove_dir_all(journal_dir.join("queue")).expect("remove queue dir");
    let request = WireSynthesize::new("ring:4", "allgather").with_client("c");
    assert!(provenance_of(&mut client, request).starts_with("solved"));
    assert_eq!(daemon_metric(&mut client, "journal_records_written"), 0.0);
    assert_eq!(
        daemon_metric(&mut client, "journal_write_errors"),
        1.0,
        "the dropped record must show in the snapshot"
    );
    drop(client);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn the_drain_verb_reports_health_then_exits_cleanly() {
    let engine = sccl_sched::Engine::builder()
        .sequential()
        .synthesis_defaults(quick_defaults())
        .build()
        .expect("engine");
    let server = Server::start(engine, ServeConfig::default()).expect("server");
    let daemon = Daemon::bind(socket_path("drain"), server).expect("bind");
    let path = daemon.socket_path().to_path_buf();
    let mut client = ServeClient::connect(&path).expect("connect");

    // Before the drain: ready.
    let health = client.health().expect("health");
    match &health {
        WireResponse::Health {
            state,
            draining,
            browned_out,
        } => {
            assert_eq!(state, "ready");
            assert!(!draining && !browned_out);
        }
        other => panic!("expected health, got {other:?}"),
    }

    // Serve one request so there is real state to drain behind.
    let served = client
        .synthesize(WireSynthesize::new("ring:4", "allgather").with_client("d"))
        .expect("roundtrip");
    assert!(matches!(served, WireResponse::Report { .. }));

    // Drain is acknowledged before the daemon stops accepting...
    let ack = client.drain().expect("drain");
    assert!(matches!(ack, WireResponse::Drain), "was: {ack:?}");

    // ...and the daemon then exits cleanly, removing its socket.
    daemon.wait();
    assert!(!path.exists(), "socket file must be removed after drain");
}
