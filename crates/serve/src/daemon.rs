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
//! A report is rendered to JSON once — the payload lives in its shared
//! resident entry ([`crate::HotEntry`], which the hot tier and the disk
//! cache's memo hold alike) — and every `synthesize` success, whatever
//! its provenance, is written as a splice around those bytes
//! ([`crate::wire::report_line`]); no `Content` tree of a report is built
//! here. On the request side the daemon remembers which content hash a
//! flat request's `(topology, collective, root, caps)` spells (the
//! server's key memo, filled by every request that takes the ordinary
//! path) and on a memo hit goes to [`Server::front_gates`] with the hash
//! alone: a hot hit, or a hit of a verified report resident in the disk
//! cache, is then a line parse, a few map probes and a copy of bytes, with
//! no topology built, no key hashed and no worker involved. A memoized
//! request neither tier answers carries on down the ordinary path from
//! past the gates, its hash in hand. `groups` requests bypass the memo.
//!
//! A request line is read into one buffer reused for the connection's
//! life and may not run past [`MAX_REQUEST_LINE_BYTES`]: a longer one gets
//! a typed `bad_request` and the connection is closed, since what follows
//! on it is the rest of that line.

use crate::hot::MemoKey;
use crate::metrics::Counter;
use crate::server::{Front, HierServed, ServeError, Served, Server, Ticket};
use crate::wire::{report_line, WireErrorKind, WireRequest, WireResponse, WireSynthesize};
use sccl_hier::{EntryPick, GroupSpec, HierRequest};
use sccl_sched::{CacheKey, Error, SynthesisRequest};
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Read, Write};
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
#[allow(unsafe_code)]
fn install_sigterm_handler() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_SIGNUM: i32 = 15;
    // SAFETY: `signal` is libc's, declared with its C signature (a handler
    // is a pointer-sized value); the handler is an `extern "C" fn(i32)`
    // that lives for the whole process and only does an atomic store.
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

/// What one request is answered with. A served answer is kept as it is
/// until the line is wanted, so a journal replay — which throws its
/// answers away — renders nothing.
enum Reply {
    Response(WireResponse),
    Served(Box<dyn Answer>),
}

impl Reply {
    /// The response line, without its newline.
    fn into_line(self) -> io::Result<String> {
        match self {
            Reply::Response(response) => serde_json::to_string(&response)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Reply::Served(answer) => Ok(answer.line()),
        }
    }
}

/// A served answer, rendering its own `synthesize` success line: its
/// provenance, its timings and its payload, spliced by [`report_line`].
trait Answer {
    fn line(&self) -> String;
}

impl Answer for Served {
    fn line(&self) -> String {
        let provenance = provenance(self.from.tag(), self.degraded);
        report_line(&provenance, &self.timings, &self.payload())
    }
}

/// Provenance `"hier"`, the real per-stage timing breakdown and the
/// composition summary as the report payload.
impl Answer for HierServed {
    fn line(&self) -> String {
        let payload = serde_json::to_string(&self.summary)
            .expect("a composition summary holds no float, the one value JSON can refuse");
        report_line(&provenance("hier", self.degraded), &self.timings, &payload)
    }
}

/// `tag`, suffixed `:degraded` when a deadline cut the answer short.
fn provenance(tag: &str, degraded: bool) -> Cow<'_, str> {
    if degraded {
        Cow::Owned(format!("{tag}:degraded"))
    } else {
        Cow::Borrowed(tag)
    }
}

fn bad_request(message: String) -> ServeError {
    ServeError::BadRequest { message }
}

/// The one place a [`ServeError`] — a line that did not parse, an
/// admission refusal or a failed job — becomes a wire error: its kind,
/// the rate limit's retry hint, and for a bad request the `requests.bad`
/// count.
fn error_reply(server: &Server, error: ServeError) -> Reply {
    let (kind, retry_after_ms) = match &error {
        ServeError::QueueFull { .. } => (WireErrorKind::QueueFull, None),
        ServeError::ClientQuota { .. } => (WireErrorKind::ClientQuota, None),
        ServeError::MemoryBudget { .. } => (WireErrorKind::MemoryBudget, None),
        ServeError::RateLimited { retry_after_ms, .. } => {
            (WireErrorKind::RateLimited, Some(*retry_after_ms))
        }
        ServeError::ShuttingDown => (WireErrorKind::Shutdown, None),
        ServeError::Deadline { .. } => (WireErrorKind::Deadline, None),
        ServeError::BadRequest { .. } => {
            server.metrics().add(Counter::BadRequests, 1);
            (WireErrorKind::BadRequest, None)
        }
        ServeError::WorkerLost | ServeError::Synthesis { .. } | ServeError::VerifyFailed { .. } => {
            (WireErrorKind::Synthesis, None)
        }
    };
    Reply::Response(WireResponse::Error {
        kind,
        error: error.to_string(),
        retry_after_ms,
    })
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
            server.metrics().add(Counter::Requests, 1);
            let error = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
            write_line(&mut writer, error_reply(server, bad_request(error)))?;
            return Ok(());
        }
        let line = std::str::from_utf8(&buffer)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let line = line.strip_suffix('\n').unwrap_or(line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        server.metrics().add(Counter::Requests, 1);
        let reply = match serde_json::from_str::<WireRequest>(line) {
            Err(e) => error_reply(server, bad_request(e.to_string())),
            Ok(WireRequest::Metrics) => {
                server.metrics().add(Counter::MetricsRequests, 1);
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

/// Wait for an admitted job, with `line` journaled if the ticket wants a
/// record: append the record now — the job is already queued or running,
/// so the two fsyncs overlap the solve instead of preceding it — and
/// remove it once the outcome exists. If the process dies in between, the
/// restarted daemon replays the record. A failed append is counted by the
/// journal and the job served without its record.
fn wait_journaled<T>(
    server: &Server,
    line: Option<&str>,
    ticket: Ticket<T>,
) -> Result<T, ServeError> {
    let journaled = line
        .filter(|_| ticket.wants_journal_record())
        .and_then(|line| {
            let journal = server.engine().journal()?;
            let seq = journal.append_queue_record(line).ok()?;
            Some((journal, seq))
        });
    let outcome = ticket.wait();
    if let Some((journal, seq)) = journaled {
        journal.remove_queue_record(seq);
    }
    outcome
}

/// Serve one `synthesize` request; `line` is its verbatim wire line, to be
/// journaled if the admitted job may solve (absent on a replay, whose
/// record already exists).
fn serve_synthesize(server: &Server, request: WireSynthesize, line: Option<&str>) -> Reply {
    match synthesize(server, &request, line) {
        Ok(answer) => Reply::Served(answer),
        Err(error) => error_reply(server, error),
    }
}

/// A flat request goes to the gates with its content hash — memoized, or
/// hashed from the topology it builds — and from there to a memory tier
/// or the queue. A `groups` request goes to [`Server::submit_hier`], through
/// the same gates and admission; its stage solves run through the
/// daemon's engine, so the disk cache applies per group.
fn synthesize(
    server: &Server,
    request: &WireSynthesize,
    line: Option<&str>,
) -> Result<Box<dyn Answer>, ServeError> {
    // A request seen before names its content hash without a topology
    // built or a key hashed: go to the gates with that.
    let memo_key = MemoKey::of(request);
    let memoized = memo_key.as_ref().and_then(|key| server.key_memo().get(key));
    let past = match memoized
        .map(|hash| server.front_gates(hash, &request.client))
        .transpose()?
    {
        Some(Front::Answered(served)) => return Ok(Box::new(served)),
        Some(Front::Miss(past)) => Some(past),
        None => None,
    };
    let topology = request.parse_topology().map_err(bad_request)?;
    let collective = request.parse_collective().map_err(bad_request)?;
    // Fold the wire's overrides onto the engine's defaults; the result is
    // the exact config the cache key and solve use, so a daemon answer is
    // interchangeable with an in-process `Engine::synthesize` using the
    // same folded config.
    let mut config = server.engine().defaults().clone();
    if let Some(max_steps) = request.max_steps {
        config.max_steps = max_steps;
    }
    if let Some(max_chunks) = request.max_chunks {
        config.max_chunks = max_chunks;
    }
    if let Some(k) = request.k {
        config.k = k;
    }
    let deadline = request.deadline_ms.map(Duration::from_millis);
    if let Some(spec) = &request.groups {
        let groups = GroupSpec::parse(spec).map_err(|e| bad_request(e.to_string()))?;
        let mut hier = HierRequest::new(&topology, collective)
            .with_groups(groups)
            .with_config(config);
        if let Some(value) = request.pick.as_deref() {
            hier.pick = EntryPick::parse(value).ok_or_else(|| {
                bad_request(format!("invalid pick `{value}` (latency | bandwidth)"))
            })?;
        }
        let ticket = server.submit_hier(hier, &request.client, deadline)?;
        return Ok(Box::new(wait_journaled(server, line, ticket)?));
    }
    let past = match past {
        Some(past) => past,
        None => {
            let key_hash = CacheKey::new(&topology, collective, &config).content_hash();
            if let Some(key) = memo_key {
                server.key_memo().put(key, &key_hash);
            }
            match server.front_gates(key_hash, &request.client)? {
                Front::Answered(served) => return Ok(Box::new(served)),
                Front::Miss(past) => past,
            }
        }
    };
    let job = SynthesisRequest::new(&topology, collective).with_config(config);
    let ticket = server.enqueue_flat(past, job, &request.client, deadline)?;
    Ok(Box::new(wait_journaled(server, line, ticket)?))
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
                let reply = Reply::Served(Box::new(HierServed {
                    summary: summary.clone(),
                    timings: *timings,
                    degraded,
                }));
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
