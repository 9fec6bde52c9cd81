//! The daemon's request → content-hash memo, through the wire: it may
//! only ever save work. A memoized request meets the same gates in the
//! same order, never borrows another key's answer, and never outlives an
//! invalidation.

use sccl_serve::{
    Daemon, ServeClient, ServeConfig, Server, WireErrorKind, WireResponse, WireSynthesize,
};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sccl-key-memo-{tag}-{}", std::process::id()))
}

fn engine() -> sccl_sched::EngineBuilder {
    sccl_sched::Engine::builder()
        .sequential()
        .synthesis_defaults(sccl_core::pareto::SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        })
}

fn daemon(tag: &str, engine: sccl_sched::Engine, config: ServeConfig) -> (Arc<Server>, Daemon) {
    let server = Server::start(engine, config).expect("server");
    let daemon = Daemon::bind(scratch(tag), server.clone()).expect("bind");
    (server, daemon)
}

/// `(provenance, report payload)` of a served request.
fn served(client: &mut ServeClient, request: &WireSynthesize) -> (String, String) {
    let response = client.synthesize(request.clone()).expect("roundtrip");
    match (response.report_json(), response) {
        (Some(payload), WireResponse::Report { provenance, .. }) => (provenance, payload),
        (_, other) => panic!("expected a report, got {other:?}"),
    }
}

#[test]
fn requests_differing_in_a_cap_or_k_never_share_a_memo_entry() {
    let (server, daemon) = daemon(
        "caps.sock",
        engine().build().expect("engine"),
        ServeConfig::default(),
    );
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    let base = WireSynthesize::new("ring:4", "allgather");
    let mut with_k = base.clone();
    with_k.k = Some(1);
    let requests = [
        base.clone(),
        base.clone().with_caps(6, 2),
        base.clone().with_caps(6, 3),
        with_k,
    ];
    // Each spelling is its own problem: solved once, then served hot with
    // the bytes of its own first answer.
    let firsts: Vec<String> = requests
        .iter()
        .map(|request| {
            let (provenance, payload) = served(&mut client, request);
            assert_eq!(provenance, "solved:sequential", "{request:?}");
            payload
        })
        .collect();
    for (request, first) in requests.iter().zip(&firsts) {
        let (provenance, payload) = served(&mut client, request);
        assert_eq!(provenance, "hot", "{request:?}");
        assert_eq!(
            &payload, first,
            "{request:?} was answered with another key's report"
        );
    }
    assert_ne!(firsts[1], firsts[2], "the chunk cap shapes the frontier");
    // The defaults spelled out are the base request's hash under another
    // memo key: no memo hit, and still the base request's hot entry.
    let (provenance, payload) = served(&mut client, &base.clone().with_caps(6, 4));
    assert_eq!(provenance, "hot");
    assert_eq!(payload, firsts[0]);

    let snapshot = server.snapshot();
    assert_eq!(snapshot.cache.solved, 4);
    assert_eq!(snapshot.cache.hot_hits, 5);
    assert_eq!(snapshot.hot.key_memo_hits, 4);
    let rendered: usize = firsts.iter().map(String::len).sum();
    assert_eq!(snapshot.hot.resident_bytes, rendered as u64);
    daemon.shutdown();
}

#[test]
fn a_memoized_key_whose_entry_was_pruned_re_solves_and_serves_the_new_payload() {
    let cache = scratch("prune-cache");
    let _ = std::fs::remove_dir_all(&cache);
    let (server, daemon) = daemon(
        "prune.sock",
        engine()
            .cache_dir(&cache)
            .cache_capacity(1)
            .build()
            .expect("engine"),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    let pruned = WireSynthesize::new("ring:4", "allgather");
    assert_eq!(served(&mut client, &pruned).0, "solved:sequential");
    let (provenance, old_payload) = served(&mut client, &pruned);
    assert_eq!(provenance, "hot");
    // Two more problems through a capacity-1 store: the third store prunes
    // the two oldest entries and the worker invalidates their hot copies.
    for collective in ["broadcast", "gather"] {
        let other = WireSynthesize::new("ring:4", collective);
        assert_eq!(served(&mut client, &other).0, "solved:sequential");
    }
    // The memo still names the pruned key's hash; the tier no longer holds
    // it, so the request is solved again — not answered from stale bytes —
    let memo_hits = server.snapshot().hot.key_memo_hits;
    let (provenance, new_payload) = served(&mut client, &pruned);
    assert_eq!(provenance, "solved:sequential");
    assert_eq!(server.snapshot().hot.key_memo_hits, memo_hits + 1);
    // — and the entry that replaces it serves the new solve's payload.
    let (provenance, hot_payload) = served(&mut client, &pruned);
    assert_eq!(provenance, "hot");
    assert_eq!(hot_payload, new_payload);
    let timeless = |payload: &str| {
        let mut report: sccl_core::pareto::SynthesisReport =
            serde_json::from_str(payload).expect("report");
        for entry in &mut report.entries {
            entry.synthesis_time = std::time::Duration::ZERO;
        }
        report
    };
    assert_eq!(timeless(&new_payload), timeless(&old_payload));
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

/// `(kind, error text)` of a refused request.
fn refusal(client: &mut ServeClient, request: &WireSynthesize) -> (WireErrorKind, String) {
    match client.synthesize(request.clone()).expect("roundtrip") {
        WireResponse::Error { kind, error, .. } => (kind, error),
        other => panic!("expected a refusal, got {other:?}"),
    }
}

#[test]
fn the_gates_refuse_a_memoized_request_as_they_refuse_any_other() {
    let (server, daemon) = daemon(
        "gates.sock",
        engine().build().expect("engine"),
        ServeConfig {
            // Two requests a client, then the bucket stays dry.
            rate_limit_per_sec: 0.001,
            rate_limit_burst: 2,
            ..Default::default()
        },
    );
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    let memoized = |client: &str| WireSynthesize::new("ring:4", "allgather").with_client(client);
    // Every request that parses is remembered, refused or not, so each
    // "unseen" request names a problem of its own.
    let unseen = |collective: &str, client: &str| {
        WireSynthesize::new("ring:4", collective).with_client(client)
    };

    assert_eq!(
        served(&mut client, &memoized("bursty")).0,
        "solved:sequential"
    );
    assert_eq!(served(&mut client, &memoized("bursty")).0, "hot");
    // Out of tokens: the hot, memoized key is refused like the unseen one —
    // the bucket is asked before the tier.
    let (kind, error) = refusal(&mut client, &memoized("bursty"));
    assert_eq!(kind, WireErrorKind::RateLimited);
    assert_eq!(refusal(&mut client, &unseen("broadcast", "bursty")).0, kind);
    assert!(error.contains("bursty"), "{error}");
    let snapshot = server.snapshot();
    assert_eq!(snapshot.rejections.rate_limited, 2);
    assert_eq!(snapshot.requests.synthesize, 4);
    assert_eq!(snapshot.cache.hot_hits, 1);

    // Draining: a client with a full bucket is refused the hot, memoized
    // key in the words it is refused the unseen one, and keeps its tokens.
    server.begin_drain();
    let hot = refusal(&mut client, &memoized("calm"));
    assert_eq!(hot.0, WireErrorKind::Shutdown);
    assert_eq!(refusal(&mut client, &unseen("gather", "calm")), hot);
    let snapshot = server.snapshot();
    assert_eq!(snapshot.rejections.shutdown, 2);
    assert_eq!(snapshot.rejections.rate_limited, 2);
    assert_eq!(snapshot.requests.synthesize, 6);
    assert_eq!(snapshot.cache.hot_hits, 1);
    assert_eq!(snapshot.hot.key_memo_hits, 3);
    daemon.shutdown();
}
