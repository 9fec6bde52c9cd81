//! Wire goldens for every verb but a `synthesize` success (those are
//! `report_lines.ndjson`'s, see `wire_golden.rs`).
//!
//! `golden/verb_lines.ndjson` pins, byte for byte and in this order:
//!
//! | line | response                                   | produced by    |
//! |------|--------------------------------------------|----------------|
//! | 0–2  | `health`: ready, browned-out, draining     | a live daemon  |
//! | 3–4  | `drain`, `shutdown` acknowledgements       | a live daemon  |
//! | 5–20 | one error per [`WireErrorKind`], without   | see [`ERRORS`] |
//! |      | then with `retry_after_ms`                 |                |
//!
//! `golden/metrics_keys.txt` holds the sorted key paths of a live
//! `metrics` snapshot: clients and the ledger read counters by name.

use sccl_core::failpoint::{self, FailAction};
use sccl_serve::wire::{WireErrorKind, WireRequest, WireResponse, WireSynthesize};
use sccl_serve::{Daemon, ServeConfig, ServeError, Server};
use serde::Content;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const GOLDEN: &str = include_str!("golden/verb_lines.ndjson");
const METRICS_KEYS: &str = include_str!("golden/metrics_keys.txt");

/// The error lines in golden order, each kind once without and once with a
/// retry hint. `Live` lines come off the daemon's socket in
/// [`a_live_daemon_writes_the_golden_lines`]; the rest are rendered from
/// the [`ServeError`] the server raises for that kind.
const ERRORS: [(WireErrorKind, Source); 8] = [
    (WireErrorKind::QueueFull, Source::Rendered),
    (WireErrorKind::ClientQuota, Source::Rendered),
    (WireErrorKind::MemoryBudget, Source::Rendered),
    (WireErrorKind::RateLimited, Source::LiveWithRetry),
    (WireErrorKind::Shutdown, Source::Live),
    (WireErrorKind::BadRequest, Source::Live),
    (WireErrorKind::Synthesis, Source::Rendered),
    (WireErrorKind::Deadline, Source::Live),
];

#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// Both lines rendered from a [`ServeError`].
    Rendered,
    /// The line without a hint is the daemon's.
    Live,
    /// The line with a hint is the daemon's.
    LiveWithRetry,
}

fn golden(index: usize) -> &'static str {
    GOLDEN.lines().nth(index).expect("golden line")
}

/// The golden index of `kind`'s error line, with or without a hint.
fn error_index(kind: WireErrorKind, with_retry: bool) -> usize {
    let position = ERRORS
        .iter()
        .position(|(k, _)| *k == kind)
        .expect("every kind is listed");
    5 + 2 * position + usize::from(with_retry)
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sccl-verb-golden-{tag}-{}", std::process::id()))
}

/// One connection to the daemon, spoken to in raw lines.
struct Conn(BufReader<UnixStream>);

impl Conn {
    fn open(daemon: &Daemon) -> Conn {
        Conn(BufReader::new(
            UnixStream::connect(daemon.socket_path()).expect("connect to the daemon"),
        ))
    }

    fn send(&mut self, line: &str) -> String {
        let stream = self.0.get_mut();
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut response = String::new();
        self.0.read_line(&mut response).expect("read");
        assert!(response.ends_with('\n'), "one line per request");
        response.pop();
        response
    }

    fn request(&mut self, request: WireRequest) -> String {
        self.send(&serde_json::to_string(&request).expect("encodes"))
    }

    fn synthesize(&mut self, request: WireSynthesize) -> String {
        self.request(WireRequest::Synthesize(request))
    }
}

/// A rendered error line: what the daemon writes for `error`, carrying
/// `retry_after_ms` when given.
fn rendered(kind: WireErrorKind, error: &ServeError, retry_after_ms: Option<u64>) -> String {
    let response = WireResponse::Error {
        kind,
        error: error.to_string(),
        retry_after_ms,
    };
    serde_json::to_string(&response).expect("encodes")
}

/// A representative [`ServeError`] of `kind` for a rendered line.
fn representative(kind: WireErrorKind) -> ServeError {
    match kind {
        WireErrorKind::QueueFull => ServeError::QueueFull {
            depth: 64,
            capacity: 64,
        },
        WireErrorKind::ClientQuota => ServeError::ClientQuota {
            client: "loadgen-3".to_string(),
            inflight: 4,
            limit: 4,
        },
        WireErrorKind::MemoryBudget => ServeError::MemoryBudget {
            requested_cells: 4_096,
            reserved_cells: 65_536,
            budget_cells: 67_108_864,
        },
        WireErrorKind::RateLimited => ServeError::RateLimited {
            client: "bursty".to_string(),
            retry_after_ms: 125,
        },
        WireErrorKind::Shutdown => ServeError::ShuttingDown,
        WireErrorKind::BadRequest => ServeError::BadRequest {
            message: "partition: group 1 is empty".to_string(),
        },
        WireErrorKind::Synthesis => ServeError::WorkerLost,
        WireErrorKind::Deadline => ServeError::Deadline { deadline_ms: 5 },
    }
}

#[test]
fn every_golden_line_is_what_the_serializer_writes() {
    assert_eq!(GOLDEN.lines().count(), 5 + 2 * ERRORS.len());
    for line in GOLDEN.lines() {
        let decoded: WireResponse = serde_json::from_str(line).expect("golden line decodes");
        assert_eq!(serde_json::to_string(&decoded).expect("encodes"), line);
    }
    for (kind, source) in ERRORS {
        let error = representative(kind);
        let retry = Some(125);
        if source == Source::Rendered || source == Source::LiveWithRetry {
            assert_eq!(
                rendered(kind, &error, None),
                golden(error_index(kind, false))
            );
        }
        if source == Source::Rendered || source == Source::Live {
            assert_eq!(
                rendered(kind, &error, retry),
                golden(error_index(kind, true))
            );
        }
        // Every line of a kind names that kind, and only the hinted one
        // carries the hint.
        for with_retry in [false, true] {
            match serde_json::from_str(golden(error_index(kind, with_retry))).expect("decodes") {
                WireResponse::Error {
                    kind: decoded,
                    retry_after_ms,
                    ..
                } => {
                    assert_eq!(decoded, kind);
                    assert_eq!(retry_after_ms.is_some(), with_retry);
                }
                other => panic!("not an error line: {other:?}"),
            }
        }
    }
}

/// Health in all three states, drain, shutdown and the errors a daemon can
/// be made to raise on demand, off the socket.
#[test]
fn a_live_daemon_writes_the_golden_lines() {
    let engine = sccl_sched::Engine::builder()
        .sequential()
        .synthesis_defaults(sccl_core::pareto::SynthesisConfig {
            max_steps: 6,
            max_chunks: 3,
            ..Default::default()
        })
        .build()
        .expect("engine");
    let server = Server::start(
        engine,
        ServeConfig {
            workers: 1,
            // Any admitted job reserves more than 3/4 of one cell: the
            // brownout controller engages while it is in flight.
            memory_budget_cells: 1,
            // One token a client, refilled so slowly that the retry hint
            // saturates whatever the gap between two requests.
            rate_limit_per_sec: 1e-300,
            rate_limit_burst: 1,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(scratch("live.sock"), server).expect("bind");
    let mut probe = Conn::open(&daemon);

    assert_eq!(probe.request(WireRequest::Health), golden(0), "ready");

    // Hold a lone job in its first candidate solve: its reservation keeps
    // the controller engaged until the solve returns.
    failpoint::arm_times(
        "pool.solve",
        FailAction::Sleep(Duration::from_millis(1_000)),
        1,
    );
    let mut held = Conn::open(&daemon);
    let held = std::thread::spawn(move || {
        held.synthesize(WireSynthesize::new("ring:4", "allgather").with_client("held"))
    });
    let give_up = Instant::now() + Duration::from_secs(5);
    let browned_out = loop {
        let line = probe.request(WireRequest::Health);
        if line != golden(0) || Instant::now() > give_up {
            break line;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(browned_out, golden(1), "browned-out");
    let held = held.join().expect("held request");
    assert!(
        held.contains(r#""provenance":"solved:sequential""#),
        "{held}"
    );
    failpoint::reset();

    let bursty = WireSynthesize::new("ring:4", "allgather").with_client("bursty");
    let hot = probe.synthesize(bursty.clone());
    assert!(hot.contains(r#""provenance":"hot""#), "{hot}");
    assert_eq!(
        probe.synthesize(bursty),
        golden(error_index(WireErrorKind::RateLimited, true))
    );
    assert_eq!(
        probe.send(r#"{"verb":"frobnicate"}"#),
        golden(error_index(WireErrorKind::BadRequest, false))
    );
    // A zero deadline on a cold key expires in the queue.
    assert_eq!(
        probe.synthesize(
            WireSynthesize::new("ring:5", "allgather")
                .with_client("late")
                .with_deadline_ms(0)
        ),
        golden(error_index(WireErrorKind::Deadline, false))
    );

    assert_eq!(Conn::open(&daemon).request(WireRequest::Drain), golden(3));
    assert_eq!(probe.request(WireRequest::Health), golden(2), "draining");
    assert_eq!(
        probe.synthesize(WireSynthesize::new("ring:4", "allgather")),
        golden(error_index(WireErrorKind::Shutdown, false))
    );
    assert_eq!(probe.request(WireRequest::Shutdown), golden(4));
    daemon.wait();
}

/// Every key path of `content`, dotted, into `paths`.
fn key_paths(prefix: &str, content: &Content, paths: &mut Vec<String>) {
    if let Content::Map(fields) = content {
        for (key, value) in fields {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            key_paths(&path, value, paths);
            paths.push(path);
        }
    }
}

#[test]
fn a_live_metrics_snapshot_has_the_golden_key_paths() {
    let engine = sccl_sched::Engine::builder()
        .sequential()
        .build()
        .expect("engine");
    let server = Server::start(engine, ServeConfig::default()).expect("server");
    let daemon = Daemon::bind(scratch("metrics.sock"), server).expect("bind");
    let line = Conn::open(&daemon).request(WireRequest::Metrics);
    let Ok(WireResponse::Metrics(snapshot)) = serde_json::from_str(&line) else {
        panic!("not a metrics line: {line}");
    };
    let mut paths = Vec::new();
    key_paths("", &snapshot, &mut paths);
    paths.sort();
    assert_eq!(paths, METRICS_KEYS.lines().collect::<Vec<_>>());
    daemon.shutdown();
}
