//! Smoke test of the real `sccl serve` binary: launch the daemon on a
//! Unix socket, drive it with concurrent clients through the NDJSON
//! protocol, check the metrics verb reports a nonzero cache hit rate,
//! and stop it with the shutdown verb. CI runs this as its serving
//! integration job.

use sccl::serve::{ServeClient, WireResponse, WireSynthesize};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn socket_path() -> PathBuf {
    std::env::temp_dir().join(format!("sccl-smoke-{}.sock", std::process::id()))
}

/// The cached entry files under a cache root, excluding the quarantine
/// subdirectory (entries live at `<root>/<2-hex shard>/<hash>.json`).
fn cached_entries(root: &Path) -> Vec<PathBuf> {
    let mut entries = Vec::new();
    let Ok(shards) = std::fs::read_dir(root) else {
        return entries;
    };
    for shard in shards.flatten() {
        let path = shard.path();
        if !path.is_dir() || path.file_name().is_some_and(|n| n == "quarantine") {
            continue;
        }
        for file in std::fs::read_dir(&path).expect("read shard").flatten() {
            let file = file.path();
            if file.extension().is_some_and(|e| e == "json") {
                entries.push(file);
            }
        }
    }
    entries
}

/// The daemon prints its listening line after binding; readiness is the
/// socket accepting a connection, not just the file existing.
fn await_ready(path: &Path) -> ServeClient {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(client) = ServeClient::connect(path) {
            return client;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not open {} within 30s",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn metrics_field(snapshot: &serde::Content, path: &[&str]) -> f64 {
    let mut current = snapshot;
    for key in path {
        let serde::Content::Map(fields) = current else {
            panic!("expected a map at {key}, got {current:?}");
        };
        current = &fields
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("metrics missing field {key}"))
            .1;
    }
    match current {
        serde::Content::U64(v) => *v as f64,
        serde::Content::I64(v) => *v as f64,
        serde::Content::F64(v) => *v,
        other => panic!("expected a number at {path:?}, got {other:?}"),
    }
}

/// Everything in a test body must release its daemon even on assertion
/// failure; a wrapper thread would hide the panic message, so kill on drop.
struct KillOnDrop<'a>(&'a mut std::process::Child);
impl Drop for KillOnDrop<'_> {
    fn drop(&mut self) {
        let _ = self.0.kill();
    }
}

#[test]
fn serve_subcommand_serves_concurrent_clients() {
    let socket = socket_path();
    let _ = std::fs::remove_file(&socket);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sccl"))
        .args([
            "serve",
            "--socket",
            socket.to_str().expect("utf-8 temp path"),
            "--sequential",
            "--max-steps",
            "6",
            "--max-chunks",
            "4",
            "--workers",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn sccl serve");

    let guard = KillOnDrop(&mut daemon);

    // Warm the problem once so the burst below is deterministically hot.
    let mut client = await_ready(&socket);
    let warmup = client
        .synthesize(WireSynthesize::new("ring:4", "allgather").with_client("warmup"))
        .expect("warmup roundtrip");
    assert!(
        matches!(&warmup, WireResponse::Report { provenance, .. } if provenance.starts_with("solved")),
        "was: {warmup:?}"
    );

    // 8 concurrent clients, each its own connection, same problem: every
    // answer must be a report served from the hot tier.
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&socket).expect("connect");
                let response = client
                    .synthesize(
                        WireSynthesize::new("ring:4", "allgather")
                            .with_client(format!("smoke-{i}")),
                    )
                    .expect("roundtrip");
                match response {
                    WireResponse::Report { provenance, .. } => {
                        assert_eq!(provenance, "hot", "client {i} missed the hot tier")
                    }
                    other => panic!("client {i} got {other:?}"),
                }
            })
        })
        .collect();
    for handle in clients {
        handle.join().expect("client thread");
    }

    // One hierarchical composition through the same daemon: the clean
    // path must serve a verified composition, not a degraded one.
    let composed = client
        .synthesize(
            WireSynthesize::new("rings:2x4", "allgather")
                .with_groups("auto")
                .with_client("hier"),
        )
        .expect("hier roundtrip");
    assert!(
        matches!(&composed, WireResponse::Report { provenance, .. } if provenance == "hier"),
        "was: {composed:?}"
    );

    // The metrics verb must agree: one solve, eight hot hits, a nonzero
    // cache hit rate.
    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb must answer with a snapshot");
    };
    assert_eq!(metrics_field(&snapshot, &["cache", "solved"]), 1.0);
    assert_eq!(metrics_field(&snapshot, &["cache", "hot_hits"]), 8.0);
    assert!(metrics_field(&snapshot, &["cache", "hit_rate"]) > 0.8);
    // The eight hot hits named their key through the memo the warm-up
    // filled, and were written from the one payload it left in the tier.
    assert_eq!(metrics_field(&snapshot, &["hot", "key_memo_hits"]), 8.0);
    assert!(metrics_field(&snapshot, &["hot", "resident_bytes"]) > 0.0);
    // Every served answer went through the decode-time verifier; a clean
    // run must not flag any of them.
    assert_eq!(
        metrics_field(&snapshot, &["faults", "verify_failures"]),
        0.0
    );
    assert_eq!(metrics_field(&snapshot, &["faults", "panics_caught"]), 0.0);
    // The composition above went through the end-to-end verifier too; a
    // clean daemon reports zero hier verification failures.
    assert_eq!(metrics_field(&snapshot, &["hier", "requests"]), 1.0);
    assert_eq!(metrics_field(&snapshot, &["hier", "verify_failures"]), 0.0);

    // Shutdown verb: acknowledged, then the process exits cleanly and
    // removes its socket file.
    let WireResponse::Shutdown = client.shutdown().expect("shutdown") else {
        panic!("shutdown must be acknowledged");
    };
    std::mem::forget(guard);
    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited with {status}");
    assert!(!socket.exists(), "socket file must be removed on shutdown");
}

/// A truncated on-disk cache entry must not be replayed: the daemon
/// quarantines it, transparently re-solves, and subsequent requests
/// recover the hit rate — all through the real `sccl serve` binary.
#[test]
fn serve_subcommand_quarantines_corrupt_cache_and_recovers() {
    let socket =
        std::env::temp_dir().join(format!("sccl-smoke-corrupt-{}.sock", std::process::id()));
    let cache_dir =
        std::env::temp_dir().join(format!("sccl-smoke-corrupt-cache-{}", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let serve_args = |socket: &Path, cache: &Path| {
        vec![
            "serve".to_string(),
            "--socket".to_string(),
            socket.to_str().expect("utf-8 temp path").to_string(),
            "--cache".to_string(),
            cache.to_str().expect("utf-8 temp path").to_string(),
            "--sequential".to_string(),
            "--max-steps".to_string(),
            "6".to_string(),
            "--max-chunks".to_string(),
            "2".to_string(),
            "--workers".to_string(),
            "1".to_string(),
        ]
    };

    // Run 1: populate the on-disk cache with one solved frontier.
    let mut seed = Command::new(env!("CARGO_BIN_EXE_sccl"))
        .args(serve_args(&socket, &cache_dir))
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn seed daemon");
    {
        let guard = KillOnDrop(&mut seed);
        let mut client = await_ready(&socket);
        let seeded = client
            .synthesize(WireSynthesize::new("ring:4", "allgather").with_client("seed"))
            .expect("seed roundtrip");
        assert!(
            matches!(&seeded, WireResponse::Report { provenance, .. } if provenance.starts_with("solved")),
            "was: {seeded:?}"
        );
        client.shutdown().expect("seed shutdown");
        std::mem::forget(guard);
    }
    assert!(seed.wait().expect("seed exit").success());

    // Truncate the stored entry: half its bytes survive, so the read
    // fails content verification instead of parsing.
    let entries = cached_entries(&cache_dir);
    assert_eq!(
        entries.len(),
        1,
        "expected one cached entry, got {entries:?}"
    );
    let victim = &entries[0];
    let bytes = std::fs::read(victim).expect("read cached entry");
    std::fs::write(victim, &bytes[..bytes.len() / 2]).expect("truncate cached entry");

    // Run 2: a fresh daemon (fresh in-memory index) on the same cache
    // directory must detect the corruption on first read.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_sccl"))
        .args(serve_args(&socket, &cache_dir))
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn daemon");
    let guard = KillOnDrop(&mut daemon);
    let mut client = await_ready(&socket);

    // First request: corrupt read → quarantine → transparent re-solve.
    let resolved = client
        .synthesize(WireSynthesize::new("ring:4", "allgather").with_client("victim"))
        .expect("re-solve roundtrip");
    assert!(
        matches!(&resolved, WireResponse::Report { provenance, .. } if provenance.starts_with("solved")),
        "corrupt entry must be re-solved, was: {resolved:?}"
    );

    // The condemned file moved to quarantine/ with its reason sidecar,
    // and a fresh entry took its place in the live shards.
    let quarantine = cache_dir.join("quarantine");
    let mut quarantined: Vec<_> = std::fs::read_dir(&quarantine)
        .expect("quarantine dir exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    quarantined.sort();
    assert_eq!(
        quarantined.len(),
        2,
        "expected entry + reason sidecar, got {quarantined:?}"
    );
    assert!(quarantined
        .iter()
        .any(|p| p.extension().is_some_and(|e| e == "json")));
    assert!(quarantined
        .iter()
        .any(|p| p.extension().is_some_and(|e| e == "reason")));
    assert_eq!(
        cached_entries(&cache_dir).len(),
        1,
        "re-solve must repopulate the cache"
    );

    // Hit-rate recovery: the same request is now served from a cache tier.
    let recovered = client
        .synthesize(WireSynthesize::new("ring:4", "allgather").with_client("recovered"))
        .expect("recovered roundtrip");
    assert!(
        matches!(&recovered, WireResponse::Report { provenance, .. }
            if provenance == "hot" || provenance.starts_with("cache")),
        "was: {recovered:?}"
    );

    let WireResponse::Metrics(snapshot) = client.metrics().expect("metrics") else {
        panic!("metrics verb must answer with a snapshot");
    };
    assert_eq!(
        metrics_field(&snapshot, &["faults", "cache_quarantined"]),
        1.0
    );
    assert_eq!(
        metrics_field(&snapshot, &["faults", "verify_failures"]),
        0.0
    );
    assert_eq!(metrics_field(&snapshot, &["cache", "solved"]), 1.0);
    assert!(metrics_field(&snapshot, &["cache", "hit_rate"]) > 0.0);

    client.shutdown().expect("shutdown");
    std::mem::forget(guard);
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = std::fs::remove_dir_all(&cache_dir);
}
