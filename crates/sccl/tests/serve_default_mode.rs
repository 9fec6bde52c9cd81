//! `sccl serve` solves with the sequential loop unless `--parallel` opts
//! in: the daemon's request workers are already its parallelism.

use sccl::serve::{ServeClient, WireResponse, WireSynthesize};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A daemon process, killed on drop so a failed assertion cannot leak it.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn(socket: &Path, extra: &[&str]) -> Daemon {
    let _ = std::fs::remove_file(socket);
    let socket = socket.to_str().expect("utf-8 temp path");
    let args = [
        "serve",
        "--socket",
        socket,
        "--max-steps",
        "4",
        "--max-chunks",
        "2",
    ];
    Daemon(
        Command::new(env!("CARGO_BIN_EXE_sccl"))
            .args(args.iter().chain(extra))
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn sccl serve"),
    )
}

fn connect(socket: &Path) -> ServeClient {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(client) = ServeClient::connect(socket) {
            return client;
        }
        assert!(Instant::now() < deadline, "the daemon never listened");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The provenance a fresh daemon started with `extra` answers a cold key with.
fn cold_provenance(tag: &str, extra: &[&str]) -> String {
    let socket = std::env::temp_dir().join(format!(
        "sccl-default-mode-{tag}-{}.sock",
        std::process::id()
    ));
    let _daemon = spawn(&socket, extra);
    let mut client = connect(&socket);
    let response = client
        .synthesize(WireSynthesize::new("ring:4", "allgather"))
        .expect("roundtrip");
    client.shutdown().expect("shutdown");
    match response {
        WireResponse::Report { provenance, .. } => provenance,
        other => panic!("expected a report, got {other:?}"),
    }
}

#[test]
fn serve_solves_sequentially_unless_parallel_opts_in() {
    assert_eq!(cold_provenance("none", &[]), "solved:sequential");
    assert_eq!(
        cold_provenance("sequential", &["--sequential"]),
        "solved:sequential"
    );
    assert_eq!(
        cold_provenance("parallel", &["--parallel"]),
        "solved:parallel"
    );
}
