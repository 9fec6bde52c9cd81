//! A `groups` request that can never be composed is refused at admission:
//! it is answered `bad_request`, counted as a bad request, and takes no
//! queue slot, no memory reservation and no journal record.

use sccl_serve::{Daemon, ServeClient, ServeConfig, Server, WireErrorKind, WireResponse};
use sccl_serve::{MetricsSnapshot, WireSynthesize};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sccl-hier-admission-{tag}-{}", std::process::id()))
}

#[test]
fn a_collective_with_no_composition_rule_is_a_counted_bad_request() {
    let journal = scratch("journal");
    let _ = std::fs::remove_dir_all(&journal);
    let engine = sccl_sched::Engine::builder()
        .sequential()
        .journal_dir(&journal)
        .build()
        .expect("engine");
    let server = Server::start(engine, ServeConfig::default()).expect("server");
    let daemon = Daemon::bind(scratch("sock"), server.clone()).expect("bind");
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");

    let response = client
        .synthesize(WireSynthesize::new("rings:4x4", "alltoall").with_groups("auto"))
        .expect("roundtrip");
    match response {
        WireResponse::Error { kind, error, .. } => {
            assert_eq!(kind, WireErrorKind::BadRequest);
            assert!(
                error.starts_with("no hierarchical rule for "),
                "the planner's reason: {error}"
            );
        }
        other => panic!("expected bad_request, got {other:?}"),
    }

    let snapshot: MetricsSnapshot = server.snapshot();
    assert_eq!(snapshot.requests.bad, 1);
    assert_eq!(snapshot.hier.requests, 1);
    assert_eq!(snapshot.queue.peak_depth, 0, "it never took a queue slot");
    assert_eq!(
        snapshot.daemon.journal_records_written, 0,
        "nor a journal record"
    );
    drop(client);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&journal);
}
