//! Chaos suite: inject faults into a live daemon through
//! `sccl_core::failpoint` and assert the containment contract — every
//! injected failure yields a *typed* wire error (or a degraded report),
//! the daemon keeps serving subsequent requests byte-identically, and
//! quarantined state heals by re-solving.
//!
//! The failpoint registry is process-global, so every test that arms a
//! site holds [`CHAOS`] for its whole body (and resets the registry on
//! drop, panic included) — the tests serialize instead of tripping each
//! other's faults.

use sccl_core::failpoint::{self, FailAction};
use sccl_serve::{
    Daemon, RetryPolicy, ServeClient, ServeConfig, ServeError, Served, Server, WireErrorKind,
    WireResponse, WireSynthesize,
};
use serde::Content;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static CHAOS: Mutex<()> = Mutex::new(());

/// Hold the chaos lock and guarantee a clean failpoint registry on both
/// entry and exit (even when the test body panics).
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ChaosGuard {
    fn lock() -> ChaosGuard {
        let guard = CHAOS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        failpoint::reset();
        ChaosGuard(guard)
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        failpoint::reset();
    }
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sccl-chaos-{tag}-{}.sock", std::process::id()))
}

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccl-chaos-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_defaults() -> sccl_core::pareto::SynthesisConfig {
    sccl_core::pareto::SynthesisConfig {
        max_steps: 6,
        max_chunks: 2,
        ..Default::default()
    }
}

fn engine_with_cache(dir: &PathBuf) -> sccl_sched::Engine {
    sccl_sched::Engine::builder()
        .sequential()
        .synthesis_defaults(quick_defaults())
        .cache_dir(dir)
        .build()
        .expect("engine")
}

fn report_json(response: &WireResponse) -> String {
    match response {
        WireResponse::Report { .. } => response.report_json().expect("report json"),
        other => panic!("expected a report, got {other:?}"),
    }
}

fn provenance(response: &WireResponse) -> &str {
    match response {
        WireResponse::Report { provenance, .. } => provenance,
        other => panic!("expected a report, got {other:?}"),
    }
}

fn section_field(snapshot: &Content, section: &str, field: &str) -> u64 {
    let Content::Map(top) = snapshot else {
        panic!("metrics snapshot is not a map");
    };
    let fields = &top
        .iter()
        .find(|(k, _)| k == section)
        .unwrap_or_else(|| panic!("snapshot has a {section} section"))
        .1;
    let Content::Map(fields) = fields else {
        panic!("{section} is not a map");
    };
    match fields.iter().find(|(k, _)| k == field) {
        Some((_, Content::U64(v))) => *v,
        Some((_, Content::I64(v))) => *v as u64,
        other => panic!("{section}.{field} missing or non-numeric: {other:?}"),
    }
}

fn fault_field(snapshot: &Content, field: &str) -> u64 {
    section_field(snapshot, "faults", field)
}

/// The canonical hierarchical chaos problem: 2 groups of 4 over a
/// bridged outer link, composed with auto-detected groups.
fn hier_synthesize() -> WireSynthesize {
    WireSynthesize::new("rings:2x4", "allgather").with_groups("auto")
}

#[test]
fn a_solver_panic_is_contained_and_the_daemon_keeps_serving() {
    let _chaos = ChaosGuard::lock();
    let dir = cache_dir("panic");
    let server = Server::start(
        engine_with_cache(&dir),
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("panic"), server).expect("bind");
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");

    // A clean solve first, as the byte-identity baseline.
    let baseline = client
        .synthesize(WireSynthesize::new("ring:4", "allgather"))
        .expect("baseline roundtrip");
    let baseline_json = report_json(&baseline);

    // Inject one panic into the next solver run (a different problem, so
    // it cannot be answered from a tier).
    failpoint::arm_times("pool.solve", FailAction::Panic, 1);
    let response = client
        .synthesize(WireSynthesize::new("ring:5", "allgather"))
        .expect("the connection survives the worker panic");
    match &response {
        WireResponse::Error { kind, error, .. } => {
            assert_eq!(*kind, WireErrorKind::Synthesis, "was: {response:?}");
            assert!(error.contains("worker"), "names the lost worker: {error}");
        }
        other => panic!("a panicked solve must surface a typed error, got {other:?}"),
    }
    // The panicked attempt stored nothing: the engine's memo still holds
    // the baseline's base problem and no other (the failpoint fires before
    // the first ring:5 solve).
    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb");
    };
    assert_eq!(section_field(&snapshot, "pool", "registry_len"), 1);

    // The same problem solves cleanly now that the failpoint is spent —
    // the panicked attempt poisoned nothing.
    let healed = client
        .synthesize(WireSynthesize::new("ring:5", "allgather"))
        .expect("roundtrip");
    assert!(provenance(&healed).starts_with("solved"), "was: {healed:?}");

    // And the baseline problem is still served byte-identically.
    let repeat = client
        .synthesize(WireSynthesize::new("ring:4", "allgather"))
        .expect("roundtrip");
    assert_eq!(report_json(&repeat), baseline_json);

    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb");
    };
    assert_eq!(fault_field(&snapshot, "panics_caught"), 1);
    assert_eq!(fault_field(&snapshot, "verify_failures"), 0);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_cache_read_quarantines_resolves_and_recovers() {
    let _chaos = ChaosGuard::lock();
    let dir = cache_dir("corrupt");
    let request = || WireSynthesize::new("ring:4", "allgather");

    // Populate the on-disk cache through a first daemon, then retire it.
    let clean = {
        let server =
            Server::start(engine_with_cache(&dir), ServeConfig::default()).expect("server");
        let daemon = Daemon::bind(socket_path("corrupt-seed"), server).expect("bind");
        let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
        let first = client.synthesize(request()).expect("solve roundtrip");
        assert!(provenance(&first).starts_with("solved"), "was: {first:?}");
        let report = first.report().expect("typed report");
        daemon.shutdown();
        report
    };

    // A fresh daemon on the same cache dir: its first lookup is a real
    // disk read (no hot tier, no warm memo), which the failpoint turns
    // into a corrupt entry.
    let server = Server::start(
        engine_with_cache(&dir),
        ServeConfig {
            workers: 1,
            hot_capacity: 0,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("corrupt"), server).expect("bind");
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");

    failpoint::arm_times("cache.read", FailAction::Trigger, 1);
    let healed = client.synthesize(request()).expect("roundtrip");
    assert!(
        provenance(&healed).starts_with("solved"),
        "a corrupt hit must fall through to a re-solve, was: {healed:?}"
    );
    // The re-solved frontier matches the original algorithm-for-algorithm
    // (per-entry solver wall-clock differs between independent runs, so
    // byte identity is checked on the schedules, not the whole report).
    let healed_report = healed.report().expect("typed report");
    assert_eq!(healed_report.entries.len(), clean.entries.len());
    for (fresh, original) in healed_report.entries.iter().zip(&clean.entries) {
        assert_eq!(fresh.chunks, original.chunks);
        assert_eq!(fresh.steps, original.steps);
        assert_eq!(fresh.rounds, original.rounds);
        assert_eq!(fresh.algorithm, original.algorithm);
    }

    // The poisoned entry moved to quarantine/ with a reason sidecar...
    let quarantine = dir.join("quarantine");
    let quarantined: Vec<_> = std::fs::read_dir(&quarantine)
        .expect("quarantine dir exists")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(quarantined.len(), 2, "entry + reason: {quarantined:?}");
    assert!(quarantined
        .iter()
        .any(|p| p.extension() == Some("json".as_ref())));
    assert!(quarantined
        .iter()
        .any(|p| p.extension() == Some("reason".as_ref())));

    // ...and the re-solve re-stored a clean entry: hits resume.
    let recovered = client.synthesize(request()).expect("roundtrip");
    assert_eq!(provenance(&recovered), "cache", "hit rate must recover");

    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb");
    };
    assert_eq!(fault_field(&snapshot, "cache_quarantined"), 1);
    assert_eq!(fault_field(&snapshot, "verify_failures"), 0);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_deadline_yields_a_typed_or_degraded_answer() {
    let _chaos = ChaosGuard::lock();
    let dir = cache_dir("deadline");
    let server = Server::start(
        engine_with_cache(&dir),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("deadline"), server).expect("bind");
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");

    // The first solver run stalls well past the deadline; by the time it
    // wakes the watchdog has raised the cooperative flag, so the sweep
    // winds down with whatever it had (here: nothing).
    failpoint::arm_times(
        "pool.solve",
        FailAction::Sleep(Duration::from_millis(400)),
        1,
    );
    let response = client
        .synthesize(WireSynthesize::new("ring:4", "allgather").with_deadline_ms(60))
        .expect("the connection survives the expiry");
    match &response {
        WireResponse::Error { kind, .. } => {
            assert_eq!(*kind, WireErrorKind::Deadline, "was: {response:?}");
        }
        WireResponse::Report { provenance, .. } => {
            // A partial frontier beat the cut: acceptable, but it must be
            // marked degraded.
            assert!(
                provenance.ends_with(":degraded"),
                "an expired deadline cannot serve an unmarked report: {response:?}"
            );
        }
        other => panic!("unexpected response {other:?}"),
    }

    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb");
    };
    assert_eq!(
        fault_field(&snapshot, "deadline_expired") + fault_field(&snapshot, "deadline_degraded"),
        1,
        "exactly one deadline outcome is recorded: {snapshot:?}"
    );

    // Degraded results are never cached: the same request without a
    // deadline now solves fully and is served cleanly.
    let clean = client
        .synthesize(WireSynthesize::new("ring:4", "allgather"))
        .expect("roundtrip");
    assert!(
        provenance(&clean).starts_with("solved"),
        "nothing usable may have been cached by the degraded run: {clean:?}"
    );
    // A generous deadline is simply met.
    let met = client
        .synthesize(WireSynthesize::new("ring:4", "allgather").with_deadline_ms(60_000))
        .expect("roundtrip");
    assert_eq!(provenance(&met), "hot");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_process_tickets_surface_worker_loss_and_bound_their_wait() {
    let _chaos = ChaosGuard::lock();
    let engine = sccl_sched::Engine::builder()
        .sequential()
        .synthesis_defaults(quick_defaults())
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

    // A ticket whose worker panics resolves to WorkerLost instead of
    // hanging its waiter forever.
    failpoint::arm_times("pool.solve", FailAction::Panic, 1);
    let ticket = server
        .submit(
            sccl_topology::builders::ring(4, 1),
            sccl_collectives::Collective::Allgather,
            quick_defaults(),
            None,
            "chaos",
        )
        .expect("admitted");
    match ticket.wait() {
        Err(ServeError::WorkerLost) => {}
        other => panic!("expected WorkerLost, got {other:?}"),
    }

    // wait_timeout bounds the wait while the solve stalls, then the same
    // ticket still delivers the (clean) outcome.
    failpoint::arm_times(
        "pool.solve",
        FailAction::Sleep(Duration::from_millis(300)),
        1,
    );
    let ticket = server
        .submit(
            sccl_topology::builders::ring(5, 1),
            sccl_collectives::Collective::Allgather,
            quick_defaults(),
            None,
            "chaos",
        )
        .expect("admitted");
    assert!(
        ticket.wait_timeout(Duration::from_millis(20)).is_none(),
        "a stalled solve must time the bounded wait out"
    );
    let outcome: Served = ticket.wait().expect("eventually served");
    assert!(!outcome.degraded);
    server.shutdown();
}

#[test]
fn a_dropped_connection_is_survived_by_reconnect_and_replay() {
    let _chaos = ChaosGuard::lock();
    let server = Server::start(
        sccl_sched::Engine::builder()
            .sequential()
            .synthesis_defaults(quick_defaults())
            .build()
            .expect("engine"),
        ServeConfig::default(),
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("drop"), server).expect("bind");

    // Without retries the injected drop surfaces as an I/O error.
    failpoint::arm_times("conn.write", FailAction::Trigger, 1);
    let mut brittle = ServeClient::connect(daemon.socket_path())
        .expect("connect")
        .with_retry(RetryPolicy::none());
    brittle
        .metrics()
        .expect_err("the daemon dropped the connection mid-response");

    // With the default policy the client reconnects under backoff and
    // replays; the daemon (whose failpoint fires once more) answers the
    // replay on the fresh connection.
    failpoint::arm_times("conn.write", FailAction::Trigger, 1);
    let mut resilient = ServeClient::connect(daemon.socket_path()).expect("connect");
    let response = resilient.metrics().expect("reconnect and replay");
    assert!(
        matches!(response, WireResponse::Metrics(_)),
        "was: {response:?}"
    );
    daemon.shutdown();
}

#[test]
fn malformed_request_lines_get_typed_errors_without_killing_the_connection() {
    // No failpoints armed here: this is the daemon's own input hardening.
    // The guard is still needed — the well-formed request below runs a real
    // `synthesize`, which would eat a neighbour's one-shot `pool.solve`
    // failpoint out of the process-global registry.
    let _chaos = ChaosGuard::lock();
    let server = Server::start(
        sccl_sched::Engine::builder()
            .sequential()
            .synthesis_defaults(quick_defaults())
            .build()
            .expect("engine"),
        ServeConfig::default(),
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("malformed"), server.clone()).expect("bind");

    let stream = std::os::unix::net::UnixStream::connect(daemon.socket_path()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| -> String {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        assert!(!response.is_empty(), "connection died after `{line}`");
        response
    };

    for garbage in [
        "this is not json",
        "{\"verb\":\"frobnicate\"}",
        "{\"verb\":\"synthesize\"}",
        "{\"verb\":\"synthesize\",\"topology\":\"ring:4\",\"collective\":\"allgather\",\"bogus\":1}",
        "[1,2,3]",
    ] {
        let response = roundtrip(garbage);
        assert!(
            response.contains("\"kind\":\"bad_request\""),
            "`{garbage}` must get a typed bad_request, got: {response}"
        );
    }

    // The same connection still serves a well-formed request afterwards.
    let response =
        roundtrip("{\"verb\":\"synthesize\",\"topology\":\"ring:4\",\"collective\":\"allgather\"}");
    assert!(
        response.contains("\"ok\":true"),
        "the connection must still serve real work: {response}"
    );
    assert_eq!(server.snapshot().requests.bad, 5);

    // A line that does not end within 1 MiB is refused typed as well — the
    // daemon will not buffer a client's endless line — and, since the rest
    // of the stream is the rest of that line, the connection is closed.
    writer.write_all(&vec![b'x'; 1 << 20]).expect("write");
    writer.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    assert!(
        response.contains("\"kind\":\"bad_request\"") && response.contains("exceeds 1048576 bytes"),
        "an oversized line must get a typed bad_request, got: {response}"
    );
    response.clear();
    assert_eq!(
        reader.read_line(&mut response).unwrap_or(0),
        0,
        "the connection must be closed after an oversized line"
    );
    assert_eq!(server.snapshot().requests.bad, 6);
    // Only that connection: the daemon still serves the next one.
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");
    assert!(matches!(
        client.health().expect("health"),
        WireResponse::Health { .. }
    ));
    daemon.shutdown();
}

#[test]
fn a_hier_stage_panic_is_contained_and_the_daemon_keeps_composing() {
    let _chaos = ChaosGuard::lock();
    let dir = cache_dir("hier-panic");
    let server = Server::start(
        engine_with_cache(&dir),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("hier-panic"), server).expect("bind");
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");

    // One panic inside a stage solve: the composition fails typed, the
    // connection and the daemon survive.
    failpoint::arm_times("hier.stage", FailAction::Panic, 1);
    let response = client
        .synthesize(hier_synthesize())
        .expect("the connection survives the stage panic");
    match &response {
        WireResponse::Error { kind, error, .. } => {
            assert_eq!(*kind, WireErrorKind::Synthesis, "was: {response:?}");
            assert!(
                error.contains("contained"),
                "names the containment: {error}"
            );
        }
        other => panic!("a panicked stage solve must surface a typed error, got {other:?}"),
    }

    // The failpoint is spent: the same composition now succeeds, fully
    // verified, with nothing poisoned by the unwound stage.
    let healed = client.synthesize(hier_synthesize()).expect("roundtrip");
    assert_eq!(provenance(&healed), "hier");
    let summary = healed.hier_summary().expect("typed summary");
    assert_eq!(summary.num_nodes, 8);
    assert_eq!(summary.degraded_stages, 0);

    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb");
    };
    assert_eq!(fault_field(&snapshot, "panics_caught"), 1);
    assert_eq!(section_field(&snapshot, "hier", "requests"), 2);
    assert_eq!(section_field(&snapshot, "hier", "verify_failures"), 0);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sabotaged_stitch_is_rejected_by_the_composition_verifier() {
    let _chaos = ChaosGuard::lock();
    let dir = cache_dir("hier-stitch");
    let server = Server::start(
        engine_with_cache(&dir),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("hier-stitch"), server).expect("bind");
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");

    // The stitch failpoint drops one send from the composed schedule; the
    // end-to-end verifier must refuse to serve the unsound algorithm.
    failpoint::arm_times("hier.stitch", FailAction::Trigger, 1);
    let response = client
        .synthesize(hier_synthesize())
        .expect("the connection survives the bad stitch");
    match &response {
        WireResponse::Error { kind, error, .. } => {
            assert_eq!(*kind, WireErrorKind::Synthesis, "was: {response:?}");
            assert!(
                error.contains("composition"),
                "names the rejected composition: {error}"
            );
        }
        other => panic!("an unsound stitch must never be served, got {other:?}"),
    }

    // The stage solves that fed the sabotaged stitch are themselves sound
    // and cached; a retry re-stitches cleanly.
    let healed = client.synthesize(hier_synthesize()).expect("roundtrip");
    assert_eq!(provenance(&healed), "hier");

    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb");
    };
    assert_eq!(fault_field(&snapshot, "verify_failures"), 1);
    assert_eq!(section_field(&snapshot, "hier", "verify_failures"), 1);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_hier_deadline_yields_a_typed_or_degraded_composition() {
    let _chaos = ChaosGuard::lock();
    let dir = cache_dir("hier-deadline");
    let server = Server::start(
        engine_with_cache(&dir),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("hier-deadline"), server).expect("bind");
    let mut client = ServeClient::connect(daemon.socket_path()).expect("connect");

    // The first stage solve stalls well past the whole-composition
    // deadline; the planner's remaining-budget ladder must answer typed.
    failpoint::arm_times(
        "hier.stage",
        FailAction::Sleep(Duration::from_millis(400)),
        1,
    );
    let response = client
        .synthesize(hier_synthesize().with_deadline_ms(60))
        .expect("the connection survives the expiry");
    match &response {
        WireResponse::Error { kind, .. } => {
            assert_eq!(*kind, WireErrorKind::Deadline, "was: {response:?}");
        }
        WireResponse::Report { provenance, .. } => {
            // Partial stage frontiers beat the cut: acceptable, but the
            // composition must carry the degraded mark.
            assert!(
                provenance == "hier:degraded",
                "an expired deadline cannot serve an unmarked composition: {response:?}"
            );
        }
        other => panic!("unexpected response {other:?}"),
    }

    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb");
    };
    assert_eq!(
        fault_field(&snapshot, "deadline_expired") + fault_field(&snapshot, "deadline_degraded"),
        1,
        "exactly one deadline outcome is recorded: {snapshot:?}"
    );

    // A generous deadline simply composes, undegraded.
    let met = client
        .synthesize(hier_synthesize().with_deadline_ms(60_000))
        .expect("roundtrip");
    assert_eq!(provenance(&met), "hier");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_dropped_connection_mid_hier_response_is_survived_by_reconnect_and_replay() {
    let _chaos = ChaosGuard::lock();
    let dir = cache_dir("hier-drop");
    let server = Server::start(
        engine_with_cache(&dir),
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("server");
    let daemon = Daemon::bind(socket_path("hier-drop"), server).expect("bind");

    let baseline = ServeClient::connect(daemon.socket_path())
        .expect("connect")
        .synthesize(hier_synthesize())
        .expect("baseline roundtrip");
    assert_eq!(provenance(&baseline), "hier");
    let baseline_summary = baseline.hier_summary().expect("typed summary");

    // The daemon drops the connection mid-response; the client reconnects
    // under backoff and replays the request on the fresh connection.
    failpoint::arm_times("conn.write", FailAction::Trigger, 1);
    let mut resilient = ServeClient::connect(daemon.socket_path()).expect("connect");
    let replayed = resilient
        .synthesize(hier_synthesize())
        .expect("reconnect and replay");
    assert_eq!(provenance(&replayed), "hier");
    let replay_summary = replayed.hier_summary().expect("typed summary");
    // Wall-clock differs between independent runs, so identity is checked
    // on the composition itself: stage for stage, cost for cost.
    assert_eq!(replay_summary.stages, baseline_summary.stages);
    assert_eq!(replay_summary.composed_cost, baseline_summary.composed_cost);
    assert_eq!(replay_summary.total_sends, baseline_summary.total_sends);
    assert_eq!(replay_summary.degraded_stages, 0);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hier_requests_share_the_admission_envelope() {
    let _chaos = ChaosGuard::lock();
    let server = Server::start(
        sccl_sched::Engine::builder()
            .sequential()
            .synthesis_defaults(quick_defaults())
            .build()
            .expect("engine"),
        ServeConfig {
            workers: 1,
            per_client_inflight: 1,
            ..Default::default()
        },
    )
    .expect("server");
    let hier_request = || {
        sccl_hier::HierRequest::new(
            &sccl_topology::builders::ring_of_rings(2, 4, 2, 1),
            sccl_collectives::Collective::Allgather,
        )
        .with_config(quick_defaults())
    };

    // Hold the lone worker in a stalled flat solve; the same client's
    // hierarchical request must bounce off its in-flight quota exactly
    // like a second flat request would.
    failpoint::arm_times(
        "pool.solve",
        FailAction::Sleep(Duration::from_millis(300)),
        1,
    );
    let held = server
        .submit(
            sccl_topology::builders::ring(5, 1),
            sccl_collectives::Collective::Allgather,
            quick_defaults(),
            None,
            "greedy",
        )
        .expect("admitted");
    match server.submit_hier(hier_request(), "greedy", None) {
        Err(ServeError::ClientQuota { .. }) => {}
        other => panic!("expected ClientQuota, got {other:?}"),
    }
    held.wait().expect("the held flat job still completes");

    // Draining rejects new hierarchical work but never drops an already
    // admitted composition: its ticket still resolves to a verified
    // answer.
    let ticket = server
        .submit_hier(hier_request(), "drainer", None)
        .expect("admitted before the drain");
    server.begin_drain();
    match server.submit_hier(hier_request(), "drainer", None) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("a draining daemon must reject new hier work, got {other:?}"),
    }
    let served = ticket
        .wait()
        .expect("the drained daemon finishes in-flight compositions");
    assert!(!served.degraded);
    assert_eq!(served.summary.degraded_stages, 0);
    server.shutdown();
}
