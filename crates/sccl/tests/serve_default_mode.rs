//! `sccl serve` has one way to solve: a cold key is answered
//! `solved:sequential` whether the daemon was started with `--sequential`
//! or with no mode flag, a wire request's `mode` is accepted and ignored
//! (it is not part of the key), and `--parallel` is an unknown flag.

use sccl::serve::{ServeClient, WireResponse, WireSynthesize};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
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

fn socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sccl-default-mode-{tag}-{}.sock",
        std::process::id()
    ))
}

fn serve(socket: &Path, extra: &[&str], stderr: Stdio) -> Daemon {
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
            .stderr(stderr)
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

fn provenance(response: WireResponse) -> String {
    match response {
        WireResponse::Report { provenance, .. } => provenance,
        other => panic!("expected a report, got {other:?}"),
    }
}

/// The provenance a fresh daemon started with `extra` answers a cold key with.
fn cold_provenance(tag: &str, extra: &[&str]) -> String {
    let socket = socket(tag);
    let _daemon = serve(&socket, extra, Stdio::inherit());
    let mut client = connect(&socket);
    let response = client
        .synthesize(WireSynthesize::new("ring:4", "allgather"))
        .expect("roundtrip");
    client.shutdown().expect("shutdown");
    provenance(response)
}

#[test]
fn serve_solves_sequentially_whatever_the_mode_flag() {
    assert_eq!(cold_provenance("none", &[]), "solved:sequential");
    assert_eq!(
        cold_provenance("sequential", &["--sequential"]),
        "solved:sequential"
    );
}

#[test]
fn a_wire_mode_is_accepted_and_ignored() {
    let socket = socket("wire");
    let _daemon = serve(&socket, &[], Stdio::inherit());
    let mut client = connect(&socket);
    // The line as a client that still names the retired mode writes it.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .write_all(
            b"{\"verb\":\"synthesize\",\"topology\":\"ring:4\",\
              \"collective\":\"allgather\",\"mode\":\"parallel\"}\n",
        )
        .expect("write the request line");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("read the response line");
    let response: WireResponse = serde_json::from_str(&line).expect("a response line");
    assert_eq!(provenance(response), "solved:sequential");
    // The mode is not part of the key: the same problem without it is the
    // hot tier's answer to the first request.
    let again = client
        .synthesize(WireSynthesize::new("ring:4", "allgather"))
        .expect("roundtrip");
    assert_eq!(provenance(again), "hot");
    client.shutdown().expect("shutdown");
}

#[test]
fn serve_rejects_parallel_as_an_unknown_flag() {
    let socket = socket("parallel");
    let mut daemon = serve(&socket, &["--parallel"], Stdio::piped());
    // A daemon that accepted the flag would listen until killed; give the
    // flag parser a generous bound, then fail rather than hang.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll the daemon") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "`serve --parallel` was not rejected"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success());
    let mut stderr = String::new();
    std::io::Read::read_to_string(daemon.0.stderr.as_mut().expect("piped stderr"), &mut stderr)
        .expect("read stderr");
    assert!(
        stderr.contains("--parallel") && stderr.contains("unknown flag"),
        "was: {stderr}"
    );
}
