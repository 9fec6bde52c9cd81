//! Wire goldens for `synthesize` successes.
//!
//! `golden/report_lines.ndjson` holds response lines captured off the
//! socket of the daemon as it was before report lines became a splice
//! around a once-rendered payload (`wire::report_line`): every provenance
//! — solved, hot, cache, `:degraded`, `hier` — over five different reports.
//! The tests hold the splice, the `Serialize for WireResponse` route and
//! the client's decode to those bytes, so a later refactor of the serve
//! pipeline inherits the same contract: report lines do not change.

use sccl_serve::wire::{self, WireRequest, WireResponse, WireSynthesize};
use sccl_serve::{Daemon, HotEntry, ServeClient, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/report_lines.ndjson");

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sccl-wire-golden-{tag}-{}", std::process::id()))
}

fn provenance(response: &WireResponse) -> &str {
    match response {
        WireResponse::Report { provenance, .. } => provenance,
        other => panic!("not a report response: {other:?}"),
    }
}

/// Render a decoded report response the way the daemon does: the typed
/// payload to JSON once (through the hot-tier entry for a frontier report),
/// then the splice.
fn spliced(response: &WireResponse) -> String {
    let WireResponse::Report {
        provenance,
        timings,
        ..
    } = response
    else {
        panic!("not a report response: {response:?}");
    };
    if provenance.starts_with("hier") {
        let summary = response.hier_summary().expect("composition summary");
        let payload = serde_json::to_string(&summary).expect("summary renders");
        wire::report_line(provenance, timings, &payload)
    } else {
        let report = response.report().expect("frontier report");
        let entry = HotEntry::new(Arc::new(report));
        wire::report_line(provenance, timings, &entry.payload())
    }
}

#[test]
fn golden_lines_are_what_both_encoders_write() {
    let mut provenances = std::collections::BTreeSet::new();
    let mut payloads = std::collections::BTreeSet::new();
    for line in GOLDEN.lines() {
        let decoded: WireResponse = serde_json::from_str(line).expect("golden line decodes");
        assert_eq!(
            serde_json::to_string(&decoded).expect("encodes"),
            line,
            "`Serialize for WireResponse` no longer writes the golden line"
        );
        assert_eq!(
            spliced(&decoded),
            line,
            "the splice no longer writes the golden line"
        );
        provenances.insert(provenance(&decoded).to_string());
        payloads.insert(decoded.report_json().expect("payload"));
    }
    for expected in [
        "hot",
        "cache",
        "solved:sequential",
        "solved:sequential:degraded",
        "hier",
    ] {
        assert!(
            provenances.contains(expected),
            "no golden line for `{expected}`"
        );
    }
    assert!(payloads.len() >= 3, "goldens must span several reports");
}

/// A socket that answers request `i` with golden line `i`: what the
/// client decodes from the daemon's bytes is the response the line spells.
#[test]
fn golden_lines_decode_through_the_client() {
    let socket = scratch("fake.sock");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).expect("bind");
    let answering = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut writer = stream.try_clone().expect("clone");
        let mut requests = BufReader::new(stream).lines();
        for line in GOLDEN.lines() {
            let request = requests.next().expect("a request").expect("read");
            serde_json::from_str::<WireRequest>(&request).expect("a well-formed request");
            writer.write_all(line.as_bytes()).expect("write");
            writer.write_all(b"\n").expect("write");
        }
    });
    let mut client = ServeClient::connect(&socket).expect("connect");
    for line in GOLDEN.lines() {
        let received = client
            .synthesize(WireSynthesize::new("ring:4", "allgather"))
            .expect("roundtrip");
        let expected: WireResponse = serde_json::from_str(line).expect("decodes");
        assert_eq!(received, expected);
        assert_eq!(serde_json::to_string(&received).expect("encodes"), line);
    }
    answering.join().expect("fake daemon");
    let _ = std::fs::remove_file(&socket);
}

fn raw_roundtrip(stream: &mut BufReader<UnixStream>, request: WireSynthesize) -> String {
    let mut line = serde_json::to_string(&WireRequest::Synthesize(request)).expect("encodes");
    line.push('\n');
    stream.get_mut().write_all(line.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_line(&mut response).expect("read");
    assert!(response.ends_with('\n'), "one line per request");
    response.pop();
    response
}

/// The running daemon's lines, whatever the provenance, are the lines
/// `Serialize for WireResponse` writes for the responses they decode to.
#[test]
fn live_report_lines_equal_the_serialized_response() {
    let cache = scratch("cache");
    let _ = std::fs::remove_dir_all(&cache);
    let start = |tag: &str| {
        let engine = sccl_sched::Engine::builder()
            .sequential()
            .cache_dir(&cache)
            .synthesis_defaults(sccl_core::pareto::SynthesisConfig {
                max_steps: 6,
                max_chunks: 3,
                ..Default::default()
            })
            .build()
            .expect("engine");
        let server = Server::start(engine, ServeConfig::default()).expect("server");
        Daemon::bind(scratch(tag), server).expect("bind")
    };
    let check = |line: &str, expected: &str| -> WireResponse {
        let decoded: WireResponse = serde_json::from_str(line).expect("daemon line decodes");
        assert_eq!(provenance(&decoded), expected);
        assert_eq!(serde_json::to_string(&decoded).expect("encodes"), line);
        assert_eq!(spliced(&decoded), line);
        decoded
    };
    let flat = [
        WireSynthesize::new("ring:4", "allgather"),
        WireSynthesize::new("ring:4", "allreduce"),
        WireSynthesize::new("fc:3", "broadcast"),
    ];

    let first = start("first.sock");
    let mut stream =
        BufReader::new(UnixStream::connect(first.socket_path()).expect("connect to the daemon"));
    let mut solved_payloads = Vec::new();
    for request in &flat {
        let solved = check(
            &raw_roundtrip(&mut stream, request.clone()),
            "solved:sequential",
        );
        let hot = check(&raw_roundtrip(&mut stream, request.clone()), "hot");
        assert_eq!(
            hot.report_json(),
            solved.report_json(),
            "the hot tier serves the bytes the solve's response carried"
        );
        solved_payloads.push(solved.report_json());
    }
    check(
        &raw_roundtrip(
            &mut stream,
            WireSynthesize::new("rings:2x4", "allgather").with_groups("auto"),
        ),
        "hier",
    );
    // A 1 ms deadline on a larger problem: a typed error or a degraded
    // report, by the clock. A report must still be the serialized line.
    let hurried = raw_roundtrip(
        &mut stream,
        WireSynthesize::new("hypercube:3", "allgather")
            .with_caps(8, 6)
            .with_deadline_ms(1),
    );
    if let Ok(decoded @ WireResponse::Report { .. }) = serde_json::from_str(&hurried) {
        assert!(provenance(&decoded).ends_with(":degraded"), "{hurried}");
        assert_eq!(serde_json::to_string(&decoded).expect("encodes"), hurried);
    }
    drop(stream);
    first.shutdown();

    // A second daemon over the same store answers from disk, with the
    // payload the first one solved.
    let second = start("second.sock");
    let mut stream =
        BufReader::new(UnixStream::connect(second.socket_path()).expect("connect to the daemon"));
    for (request, solved_payload) in flat.iter().zip(solved_payloads) {
        let cached = check(&raw_roundtrip(&mut stream, request.clone()), "cache");
        assert_eq!(cached.report_json(), solved_payload);
    }
    drop(stream);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}
