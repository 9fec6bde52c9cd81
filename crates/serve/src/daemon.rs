//! The Unix-domain-socket shell around the [`Server`]: an accept loop,
//! one handler thread per connection, newline-delimited JSON both ways
//! (see [`crate::wire`] for the protocol).
//!
//! The listener runs nonblocking with a short poll so the `shutdown`
//! verb (or a programmatic [`Daemon::shutdown`]) can stop the accept
//! loop without a self-connect trick; handler threads notice the same
//! flag through rejected admissions and client disconnects.
//!
//! # Crash recovery and graceful drain
//!
//! When the server's engine carries a journal
//! ([`sccl_sched::EngineBuilder::journal_dir`]), the daemon writes a
//! durable record of a `synthesize` line only where a crash could lose
//! work: for an admitted job that may run a solve — every `groups`
//! composition, and a flat request that missed the hot tier and whose key
//! the disk cache does not index
//! ([`crate::server::Ticket::wants_journal_record`]). The
//! record is written by the connection thread *after* admission, while a
//! worker is already on the job and the connection would otherwise only
//! block waiting for it, so a miss costs the longer of the two rather than
//! their sum; it is removed once the outcome exists. A request a cache
//! tier answers, and a request admission refuses (queue full, quota, rate
//! limit, drain), writes nothing. On startup the accept thread first
//! *replays* surviving records through the normal serve path — requests
//! that were in flight when a previous process was `kill -9`ed are solved
//! (resuming from their sweep checkpoints where possible) and land in the
//! cache, so the retrying client hits instead of waiting through a second
//! solve.
//!
//! The invariant: the append returns before the connection starts
//! waiting, so the response to a request that solved is only ever written
//! after that request's record was durable — whatever a client has seen,
//! a crash finds a finished solve in the cache or a record to replay. Two
//! things are given up against journaling every line before serving it,
//! neither observable from outside. The record becomes durable one write
//! after admission instead of one write before it: a crash inside that
//! window drops a solve that began a moment ago, which the retrying
//! client begins again. And a request whose key the disk cache indexes
//! but whose entry turns out torn (or fails decode-time verification) is
//! re-solved without a record: a crash during that re-solve loses its
//! head start, never an answer. A record whose write fails is counted
//! (`daemon.journal_write_errors`) and the request served regardless.
//!
//! The `drain` verb (and `SIGTERM`) stops admission, finishes every
//! in-flight job, and exits cleanly; `health` reports
//! `ready`/`draining`/`browned-out` without touching the queue.
//!
//! # What a `synthesize` answer costs
//!
//! A report is rendered to JSON once — the payload lives in its hot-tier
//! entry ([`crate::HotEntry`]) — and every `synthesize` success, whatever
//! its provenance, is written as a splice around those bytes
//! ([`crate::wire::report_line`]); no `Content` tree of a report is built
//! here. On the request side the daemon remembers which content hash a
//! flat request's `(topology, collective, root, caps)` spells (the
//! server's key memo, filled by every request that takes the ordinary
//! path) and on a memo hit goes to [`Server::front_gates`] with the hash
//! alone: a hot hit is then a line parse, two map probes and a copy of
//! bytes, with no topology built and no key hashed. A memoized request the
//! tier no longer holds carries on down the ordinary path from past the
//! gates, its hash in hand. `groups` requests bypass the memo.
//!
//! A request line is read into one buffer reused for the connection's
//! life and may not run past [`MAX_REQUEST_LINE_BYTES`]: a longer one gets
//! a typed `bad_request` and the connection is closed, since what follows
//! on it is the rest of that line.

use crate::hot::MemoKey;
use crate::server::{Front, HierServed, PastGates, ServeError, Served, Server};
use crate::wire::{report_line, WireErrorKind, WireRequest, WireResponse};
use sccl_core::pareto::SynthesisConfig;
use sccl_sched::{CacheKey, Error, SynthesisRequest};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::ops::ControlFlow;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The longest request line the daemon reads, newline included. The
/// largest well-formed request is a `groups` partition spelled out node by
/// node — a few bytes a node — so 1 MiB is far above any real line and
/// far below what a client streaming bytes with no newline could
/// otherwise make the daemon buffer.
const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Raised by the process-wide SIGTERM handler; every accept loop polls
/// it and begins a graceful drain when it flips.
static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    // Only an atomic store: the one async-signal-safe thing a handler
    // may do. The accept loop notices within its 10ms poll.
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Install the SIGTERM → graceful-drain handler, once per process.
/// Best-effort: a failed registration leaves the default disposition
/// (immediate termination), which the journal already survives.
fn install_sigterm_handler() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_SIGNUM: i32 = 15;
    unsafe {
        signal(SIGTERM_SIGNUM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// A running daemon: the serving core plus its socket front end.
pub struct Daemon {
    server: Arc<Server>,
    socket_path: PathBuf,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind `socket_path` (replacing a stale socket file if one is left
    /// from a crashed daemon) and start accepting connections against
    /// `server`.
    pub fn bind(socket_path: impl Into<PathBuf>, server: Arc<Server>) -> Result<Daemon, Error> {
        let socket_path = socket_path.into();
        install_sigterm_handler();
        if socket_path.exists() {
            std::fs::remove_file(&socket_path).map_err(Error::Cache)?;
        }
        let listener = UnixListener::bind(&socket_path).map_err(Error::Cache)?;
        listener.set_nonblocking(true).map_err(Error::Cache)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("sccl-serve-accept".to_string())
                .spawn(move || accept_loop(listener, server, stop))
                .map_err(Error::Cache)?
        };
        Ok(Daemon {
            server,
            socket_path,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The socket the daemon listens on.
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// The serving core (for in-process metrics snapshots).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Block until the daemon stops — either a `shutdown` wire verb or a
    /// concurrent [`Daemon::shutdown`]. Drains admitted jobs before
    /// returning.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.socket_path);
    }

    /// Stop accepting, drain admitted jobs and remove the socket file.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.server.shutdown();
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

fn accept_loop(listener: UnixListener, server: Arc<Server>, stop: Arc<AtomicBool>) {
    // Replay journaled requests from a crashed predecessor before taking
    // new work. The socket is already bound, so clients connecting during
    // replay simply wait in the listen backlog.
    replay_journal(&server);
    while !stop.load(Ordering::SeqCst) {
        if SIGTERM.load(Ordering::SeqCst) {
            // Graceful drain: stop admission, let Daemon::wait drain the
            // in-flight queue through Server::shutdown.
            server.begin_drain();
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                // The listener polls nonblocking; its connections must
                // not (handlers do blocking line reads).
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                // Handler threads are detached: they exit when their
                // client disconnects (or asked for shutdown), and the
                // server core they talk to outlives them via the Arc.
                let _ = std::thread::Builder::new()
                    .name("sccl-serve-conn".to_string())
                    .spawn(move || {
                        let _ = handle_connection(stream, &server, &stop);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

/// Replay every surviving queue record through the normal serve path.
/// Responses are discarded — the payoff is that each solve lands in the
/// cache (and consumes its sweep checkpoint), so the retrying client
/// hits instead of waiting through a second cold solve. Records are
/// removed as they are replayed; a crash mid-replay just replays the
/// remainder next time, which is safe because results land in the cache.
fn replay_journal(server: &Arc<Server>) {
    let Some(journal) = server.engine().journal().cloned() else {
        return;
    };
    let records = journal.replay_queue();
    if records.is_empty() {
        return;
    }
    let mut replayed = 0u64;
    for record in records {
        if let Ok(WireRequest::Synthesize(synthesize)) =
            serde_json::from_str::<WireRequest>(&record.line)
        {
            // No line to journal: the record being replayed stands for
            // this request until the removal below.
            let _ = serve_synthesize(server, synthesize, None);
        }
        journal.remove_queue_record(record.seq);
        replayed += 1;
    }
    server.note_journal_replayed(replayed);
}

/// What one request is answered with. A served report is kept as it is
/// until the line is wanted, so a journal replay — which throws its
/// answers away — renders nothing.
enum Reply {
    Response(WireResponse),
    Report(Served),
    Composition(HierServed),
}

impl Reply {
    fn bad_request(server: &Server, error: String) -> Reply {
        server.metrics().bad_request();
        Reply::Response(WireResponse::Error {
            kind: WireErrorKind::BadRequest,
            error,
            retry_after_ms: None,
        })
    }

    /// Build the wire error for a [`ServeError`], attaching the
    /// retry-after hint when the rejection is a rate limit.
    fn error(error: &ServeError) -> Reply {
        let retry_after_ms = match error {
            ServeError::RateLimited { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        };
        Reply::Response(WireResponse::Error {
            kind: error_kind(error),
            error: error.to_string(),
            retry_after_ms,
        })
    }

    /// The response line, without its newline.
    fn into_line(self) -> io::Result<String> {
        let invalid =
            |e: serde_json::Error| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        match self {
            Reply::Response(response) => serde_json::to_string(&response).map_err(invalid),
            Reply::Report(served) => {
                let mut provenance = match served.from {
                    crate::server::ServedFrom::HotTier => "hot".to_string(),
                    crate::server::ServedFrom::DiskCache => "cache".to_string(),
                    crate::server::ServedFrom::Solved(mode) => match mode {
                        sccl_sched::SolveMode::Sequential => "solved:sequential".to_string(),
                        sccl_sched::SolveMode::Parallel => "solved:parallel".to_string(),
                    },
                };
                if served.degraded {
                    provenance.push_str(":degraded");
                }
                Ok(report_line(&provenance, &served.timings, &served.payload()))
            }
            // Provenance `"hier"` (suffixed `:degraded` when a deadline cut
            // a stage's frontier short), the real per-stage timing
            // breakdown and the composition summary as the report payload.
            Reply::Composition(served) => {
                let provenance = if served.degraded {
                    "hier:degraded"
                } else {
                    "hier"
                };
                let payload = serde_json::to_string(&served.summary).map_err(invalid)?;
                Ok(report_line(provenance, &served.timings, &payload))
            }
        }
    }
}

/// Serve one connection: read request lines, write response lines, in
/// order, until EOF or a `shutdown` verb.
fn handle_connection(
    stream: UnixStream,
    server: &Arc<Server>,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buffer = Vec::new();
    loop {
        buffer.clear();
        let read = (&mut reader)
            .take(MAX_REQUEST_LINE_BYTES as u64)
            .read_until(b'\n', &mut buffer)?;
        if read == 0 {
            return Ok(());
        }
        if read == MAX_REQUEST_LINE_BYTES && buffer.last() != Some(&b'\n') {
            server.metrics().request();
            let error = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
            write_line(&mut writer, Reply::bad_request(server, error))?;
            return Ok(());
        }
        let line = std::str::from_utf8(&buffer)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let line = line.strip_suffix('\n').unwrap_or(line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        server.metrics().request();
        let reply = match serde_json::from_str::<WireRequest>(line) {
            Err(e) => Reply::bad_request(server, e.to_string()),
            Ok(WireRequest::Metrics) => {
                server.metrics().metrics_request();
                Reply::Response(WireResponse::Metrics(serde::to_content(&server.snapshot())))
            }
            Ok(WireRequest::Health) => {
                let health = server.health();
                Reply::Response(WireResponse::Health {
                    state: health.state().to_string(),
                    draining: health.draining,
                    browned_out: health.browned_out,
                })
            }
            Ok(WireRequest::Drain) => {
                server.begin_drain();
                stop.store(true, Ordering::SeqCst);
                write_line(&mut writer, Reply::Response(WireResponse::Drain))?;
                return Ok(());
            }
            Ok(WireRequest::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                write_line(&mut writer, Reply::Response(WireResponse::Shutdown))?;
                return Ok(());
            }
            Ok(WireRequest::Synthesize(synthesize)) => {
                serve_synthesize(server, synthesize, Some(line))
            }
        };
        write_line(&mut writer, reply)?;
    }
}

/// Wait for an admitted job with `line` journaled: append the record now
/// — the job is already queued or running, so the two fsyncs overlap the
/// solve instead of preceding it — and remove it once the outcome exists.
/// If the process dies in between, the restarted daemon replays the
/// record. `None` (no journal attached, a job a cache tier answers, a
/// replay) just waits. A failed append is counted by the journal and the
/// job served without its record.
fn wait_journaled<T>(server: &Server, line: Option<&str>, wait: impl FnOnce() -> T) -> T {
    let journaled = line.and_then(|line| {
        let journal = server.engine().journal()?;
        let seq = journal.append_queue_record(line).ok()?;
        Some((journal, seq))
    });
    let outcome = wait();
    if let Some((journal, seq)) = journaled {
        journal.remove_queue_record(seq);
    }
    outcome
}

/// Serve one `synthesize` request; `line` is its verbatim wire line, to be
/// journaled if the admitted job may solve (absent on a replay, whose
/// record already exists).
fn serve_synthesize(
    server: &Arc<Server>,
    request: crate::wire::WireSynthesize,
    line: Option<&str>,
) -> Reply {
    // A request seen before names its content hash without a topology
    // built or a key hashed: go to the gates with that.
    let memo_key = MemoKey::of(&request);
    let memoized = memo_key.as_ref().and_then(|key| server.key_memo().get(key));
    let past = match memoized.map(|hash| past_gates(server, hash, &request.client)) {
        Some(ControlFlow::Break(reply)) => return reply,
        Some(ControlFlow::Continue(past)) => Some(past),
        None => None,
    };
    let topology = match request.parse_topology() {
        Ok(t) => t,
        Err(error) => return Reply::bad_request(server, error),
    };
    let collective = match request.parse_collective() {
        Ok(c) => c,
        Err(error) => return Reply::bad_request(server, error),
    };
    // Fold the wire's overrides onto the engine's defaults; the result is
    // the exact config the cache key and solve use, so a daemon answer is
    // interchangeable with an in-process `Engine::synthesize` using the
    // same folded config.
    let mut config: SynthesisConfig = server.engine().defaults().clone();
    if let Some(max_steps) = request.max_steps {
        config.max_steps = max_steps;
    }
    if let Some(max_chunks) = request.max_chunks {
        config.max_chunks = max_chunks;
    }
    if let Some(k) = request.k {
        config.k = k;
    }
    if request.groups.is_some() {
        return serve_hier(server, &request, topology, collective, config, line);
    }
    let past = match past {
        Some(past) => past,
        None => {
            let key_hash = CacheKey::new(&topology, collective, &config).content_hash();
            if let Some(key) = memo_key {
                server.key_memo().put(key, &key_hash);
            }
            match past_gates(server, key_hash, &request.client) {
                ControlFlow::Continue(past) => past,
                ControlFlow::Break(reply) => return reply,
            }
        }
    };
    let mut job = SynthesisRequest::new(&topology, collective).with_config(config);
    job.mode = request.mode;
    let deadline = request.deadline_ms.map(Duration::from_millis);
    match server.enqueue_flat(past, job, &request.client, deadline) {
        Err(reject) => Reply::error(&reject),
        Ok(ticket) => {
            let line = line.filter(|_| ticket.wants_journal_record());
            match wait_journaled(server, line, || ticket.wait()) {
                Ok(served) => Reply::Report(served),
                Err(error) => Reply::error(&error),
            }
        }
    }
}

/// Take a flat request's content hash through [`Server::front_gates`]:
/// past them with a job still to queue, or the reply that ends the request
/// here — a refusal, or the hot tier's answer.
fn past_gates(server: &Server, key_hash: String, client: &str) -> ControlFlow<Reply, PastGates> {
    match server.front_gates(key_hash, client) {
        Err(reject) => ControlFlow::Break(Reply::error(&reject)),
        Ok(Front::Hot(served)) => ControlFlow::Break(Reply::Report(served)),
        Ok(Front::Miss(past)) => ControlFlow::Continue(past),
    }
}

/// Serve a hierarchical request through the same admission path as flat
/// ones: queue, quotas, the memory budget (sized by the largest stage
/// subproblem), rate limits and brownout deadline tightening all apply,
/// and a drain or SIGTERM sees the in-flight composition like any other
/// job. The expensive parts — the per-group stage solves — run through
/// the daemon's engine, so its hot tier and disk cache apply per group
/// exactly as they do for flat requests.
fn serve_hier(
    server: &Arc<Server>,
    request: &crate::wire::WireSynthesize,
    topology: sccl_topology::Topology,
    collective: sccl_collectives::Collective,
    config: SynthesisConfig,
    line: Option<&str>,
) -> Reply {
    let spec = request.groups.as_deref().expect("caller checked presence");
    let groups = match sccl_hier::GroupSpec::parse(spec) {
        Ok(groups) => groups,
        Err(error) => return Reply::bad_request(server, error.to_string()),
    };
    let pick = match request.pick.as_deref() {
        None => sccl_hier::EntryPick::Latency,
        Some(value) => match sccl_hier::EntryPick::parse(value) {
            Some(pick) => pick,
            None => {
                let error = format!("invalid pick `{value}` (latency | bandwidth)");
                return Reply::bad_request(server, error);
            }
        },
    };
    let mut hier_request = sccl_hier::HierRequest::new(&topology, collective)
        .with_groups(groups)
        .with_config(config);
    if let Some(mode) = request.mode {
        hier_request = hier_request.with_mode(mode);
    }
    if pick == sccl_hier::EntryPick::Bandwidth {
        hier_request = hier_request.pick_bandwidth();
    }
    let deadline = request.deadline_ms.map(Duration::from_millis);
    match server.submit_hier(hier_request, &request.client, deadline) {
        Err(reject) => {
            if matches!(reject, ServeError::BadRequest { .. }) {
                server.metrics().bad_request();
            }
            Reply::error(&reject)
        }
        // Compositions are not cached whole: every admitted one may solve.
        Ok(ticket) => match wait_journaled(server, line, || ticket.wait()) {
            Ok(served) => Reply::Composition(served),
            Err(error) => Reply::error(&error),
        },
    }
}

/// Map any [`ServeError`] — admission reject or serving failure — to its
/// machine-matchable wire kind.
fn error_kind(error: &ServeError) -> WireErrorKind {
    match error {
        ServeError::QueueFull { .. } => WireErrorKind::QueueFull,
        ServeError::ClientQuota { .. } => WireErrorKind::ClientQuota,
        ServeError::MemoryBudget { .. } => WireErrorKind::MemoryBudget,
        ServeError::RateLimited { .. } => WireErrorKind::RateLimited,
        ServeError::ShuttingDown => WireErrorKind::Shutdown,
        ServeError::Deadline { .. } => WireErrorKind::Deadline,
        ServeError::BadRequest { .. } => WireErrorKind::BadRequest,
        ServeError::WorkerLost | ServeError::Synthesis { .. } | ServeError::VerifyFailed { .. } => {
            WireErrorKind::Synthesis
        }
    }
}

fn write_line(writer: &mut UnixStream, reply: Reply) -> io::Result<()> {
    // Chaos hook: simulate the peer vanishing mid-response. The handler
    // treats the error like any broken pipe — it gives up on this
    // connection without touching daemon-wide state.
    if sccl_core::failpoint::fire("conn.write") {
        let _ = writer.shutdown(std::net::Shutdown::Both);
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "failpoint conn.write: injected connection drop",
        ));
    }
    let mut line = reply.into_line()?;
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both composition provenances — `hier:degraded` cannot be had from a
    /// live daemon on demand — render the line `Serialize for WireResponse`
    /// writes for the same summary.
    #[test]
    fn composition_replies_render_the_serialized_response_line() {
        let golden = include_str!("../tests/golden/report_lines.ndjson");
        let mut compositions = 0;
        for line in golden.lines() {
            let decoded: WireResponse = serde_json::from_str(line).expect("golden line decodes");
            let WireResponse::Report {
                provenance,
                timings,
                ..
            } = &decoded
            else {
                panic!("golden lines are reports");
            };
            if provenance != "hier" {
                continue;
            }
            compositions += 1;
            let summary = decoded.hier_summary().expect("composition summary");
            for (degraded, provenance) in [(false, "hier"), (true, "hier:degraded")] {
                let reply = Reply::Composition(HierServed {
                    summary: summary.clone(),
                    timings: *timings,
                    degraded,
                });
                let expected = WireResponse::Report {
                    provenance: provenance.to_string(),
                    timings: *timings,
                    report: serde::to_content(&summary),
                };
                assert_eq!(
                    reply.into_line().expect("renders"),
                    serde_json::to_string(&expected).expect("encodes")
                );
            }
        }
        assert!(compositions > 0, "the goldens hold composition lines");
    }
}
