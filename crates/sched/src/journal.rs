//! The durable journal behind crash recovery: synthesis checkpoints for
//! long-running solves and records of the daemon's admitted requests that
//! may solve, both surviving `kill -9` and power loss.
//!
//! Two record families share one directory (and one write discipline —
//! temp file + rename + fsync of both the file and its parent directory,
//! exactly like [`crate::AlgorithmCache::store`]):
//!
//! * **Checkpoints** (`checkpoints/<hash>.json`) — a serialized
//!   [`SweepCheckpoint`], content-
//!   addressed by the same cache-key hash the engine uses for the solve's
//!   report, written periodically by the engine's sequential sweep and
//!   removed when the solve completes. A restarted solve for the same key
//!   resumes the sweep instead of starting over.
//! * **Queue records** (`queue/<seq>.json`) — the raw request line of
//!   every admitted daemon job *that may run a solve*, written right
//!   after admission — while the worker is already on the job, and
//!   before the caller starts waiting for the outcome, so nothing depends
//!   on a graceful exit and no response can precede its record — and
//!   removed when the job's outcome exists. On startup the daemon replays
//!   surviving records in admission order, so requests in flight at the
//!   moment of a `kill -9` are solved and cached as if the crash never
//!   happened. A request a cache tier answers gets no record: replaying
//!   one would be a lookup whose result is thrown away.
//!
//! The rule for both families is *a durable write only where a crash can
//! lose work*. Two things are given up for it, neither observable by a
//! client: a record becomes durable one write after admission instead of
//! one write before it (a crash in that window loses a solve that had
//! just begun and that nobody was yet told about), and a request whose
//! key the disk cache indexes but whose entry turns out torn is re-solved
//! without a record (a crash during that re-solve loses its head start,
//! never an answer). Likewise the sweep's last candidate writes no
//! checkpoint: the finished frontier goes to the durable cache in the next
//! statement.
//!
//! Records are self-contained single files, so crash atomicity needs no
//! log compaction: a record either fully exists or does not. Unreadable
//! records are skipped at replay (recovery must never wedge startup on a
//! torn file) and the `journal.write` / `checkpoint.restore` failpoints
//! inject those faults for the chaos suite. The temp file a writer dies
//! holding is removed by the next [`Journal::open`].

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sccl_core::pareto::SweepCheckpoint;

/// A durable record store rooted at one directory. Cheap to share behind
/// an `Arc`; all methods take `&self`.
pub struct Journal {
    root: PathBuf,
    /// Monotonic queue-record sequence, seeded past any surviving records
    /// so replayed and fresh admissions never collide.
    next_seq: AtomicU64,
    /// Checkpoints durably written since this handle opened.
    checkpoints_written: AtomicU64,
    /// Queue records durably written since this handle opened.
    records_written: AtomicU64,
    /// Durable writes (of either family) that failed since this handle
    /// opened: each one is a request or a sweep running unprotected.
    write_errors: AtomicU64,
}

/// One surviving queue record, in admission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueRecord {
    /// The record's sequence number (pass back to
    /// [`Journal::remove_queue_record`] once served).
    pub seq: u64,
    /// The journaled payload — for the daemon, the verbatim request line.
    pub line: String,
}

impl Journal {
    /// Open (creating if needed) the journal rooted at `root`. Scans the
    /// queue directory once to seed the sequence counter past any records
    /// a previous process left behind, and removes the temp files of
    /// writers that died between their write and their rename.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Journal> {
        let root = root.into();
        std::fs::create_dir_all(root.join("checkpoints"))?;
        std::fs::create_dir_all(root.join("queue"))?;
        let mut max_seq = 0u64;
        for entry in std::fs::read_dir(root.join("queue"))? {
            let entry = entry?;
            if let Some(seq) = parse_seq(&entry.file_name().to_string_lossy()) {
                max_seq = max_seq.max(seq);
            }
        }
        remove_stale_temp_files(&root.join("checkpoints"))?;
        remove_stale_temp_files(&root.join("queue"))?;
        Ok(Journal {
            root,
            next_seq: AtomicU64::new(max_seq + 1),
            checkpoints_written: AtomicU64::new(0),
            records_written: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// The directory this journal persists into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Checkpoints durably written through this handle.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written.load(Ordering::Relaxed)
    }

    /// Queue records durably written through this handle.
    pub fn records_written(&self) -> u64 {
        self.records_written.load(Ordering::Relaxed)
    }

    /// Durable writes through this handle that failed — checkpoints and
    /// queue records alike. Callers carry on without the record (serving
    /// beats refusing), so this counter is the only place a full or
    /// read-only journal disk shows.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    fn checkpoint_path(&self, hash: &str) -> PathBuf {
        self.root.join("checkpoints").join(format!("{hash}.json"))
    }

    fn queue_path(&self, seq: u64) -> PathBuf {
        self.root.join("queue").join(format!("{seq:020}.json"))
    }

    /// Atomically and durably write `bytes` to `path`: temp file in the
    /// same directory, fsync, rename, fsync the directory. The
    /// `journal.write` failpoint simulates dying between the temp write
    /// and the rename (the temp file stays behind, as a crash would leave
    /// it; replay ignores it and the next [`Journal::open`] removes it).
    /// Failures are counted in [`Journal::write_errors`].
    fn write_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.try_write_durable(path, bytes).inspect_err(|_| {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        })
    }

    fn try_write_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().expect("journal paths have a parent");
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{}.tmp-{}-{seq}",
            path.file_name()
                .expect("journal paths have a file name")
                .to_string_lossy(),
            std::process::id()
        ));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        if sccl_core::failpoint::fire("journal.write") {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "failpoint journal.write: simulated crash between write and rename",
            ));
        }
        std::fs::rename(&tmp, path)?;
        std::fs::File::open(dir).and_then(|dir| dir.sync_all())
    }

    /// Durably persist the checkpoint of an in-flight solve, addressed by
    /// its cache-key hash. Overwrites any previous checkpoint for the same
    /// hash (the sweep only ever moves forward).
    pub fn store_checkpoint(&self, hash: &str, checkpoint: &SweepCheckpoint) -> io::Result<()> {
        let json = serde_json::to_string(checkpoint)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.write_durable(&self.checkpoint_path(hash), json.as_bytes())?;
        self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Load the checkpoint for `hash`, if a readable one survives. A
    /// missing, torn or version-skewed checkpoint returns `None` — resume
    /// must degrade to a cold sweep, never refuse to solve. The
    /// `checkpoint.restore` failpoint injects the torn-file case.
    pub fn load_checkpoint(&self, hash: &str) -> Option<SweepCheckpoint> {
        let text = std::fs::read_to_string(self.checkpoint_path(hash)).ok()?;
        if sccl_core::failpoint::fire("checkpoint.restore") {
            return None;
        }
        serde_json::from_str(&text).ok()
    }

    /// Remove the checkpoint for `hash` (the solve completed; its report
    /// is now in the cache). Missing files are fine — removal is
    /// idempotent and a checkpoint may never have been written.
    pub fn remove_checkpoint(&self, hash: &str) {
        let _ = std::fs::remove_file(self.checkpoint_path(hash));
    }

    /// Durably journal one admitted request line. Returns the record's
    /// sequence number; pass it to [`Journal::remove_queue_record`] once
    /// the request has been answered.
    pub fn append_queue_record(&self, line: &str) -> io::Result<u64> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.write_durable(&self.queue_path(seq), line.as_bytes())?;
        self.records_written.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Remove a served queue record. Idempotent.
    pub fn remove_queue_record(&self, seq: u64) {
        let _ = std::fs::remove_file(self.queue_path(seq));
    }

    /// Every surviving queue record in admission (sequence) order.
    /// Unreadable files are skipped: replay recovers what it can and must
    /// never wedge startup.
    pub fn replay_queue(&self) -> Vec<QueueRecord> {
        let Ok(entries) = std::fs::read_dir(self.root.join("queue")) else {
            return Vec::new();
        };
        let mut records: Vec<QueueRecord> = entries
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let seq = parse_seq(&entry.file_name().to_string_lossy())?;
                let line = std::fs::read_to_string(entry.path()).ok()?;
                Some(QueueRecord { seq, line })
            })
            .collect();
        records.sort_by_key(|record| record.seq);
        records
    }

    /// Queue records currently journaled (pending or in flight).
    pub fn queue_len(&self) -> usize {
        std::fs::read_dir(self.root.join("queue"))
            .map(|entries| {
                entries
                    .filter_map(|entry| parse_seq(&entry.ok()?.file_name().to_string_lossy()))
                    .count()
            })
            .unwrap_or(0)
    }
}

/// Parse `<seq>.json` file names; temp files (dot-prefixed) and anything
/// else fail the parse and are ignored.
fn parse_seq(name: &str) -> Option<u64> {
    name.strip_suffix(".json")?.parse().ok()
}

/// Remove from `dir` every temp file whose writer is no longer running:
/// what a `kill -9` between the write and the rename (or the
/// `journal.write` failpoint) leaves behind, which nothing else ever
/// deletes.
fn remove_stale_temp_files(dir: &Path) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let writer = temp_file_writer(&entry.file_name().to_string_lossy());
        if writer.is_some_and(|pid| !process_alive(pid)) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// The pid in a `.<file>.tmp-<pid>-<n>` name, as
/// [`Journal::write_durable`] builds it; `None` for any other name.
fn temp_file_writer(name: &str) -> Option<u32> {
    let (_, writer) = name.strip_prefix('.')?.rsplit_once(".tmp-")?;
    let (pid, n) = writer.split_once('-')?;
    n.parse::<u64>().ok()?;
    pid.parse().ok()
}

/// Whether `pid` names a running process, asked of `/proc`. A temp file
/// is stale only once its writer is gone: this process and any other live
/// one (the kill-9 suite polls a running daemon's journal by opening it
/// from the test process) may be between their write and their rename.
/// Without a `/proc` every pid counts as alive, so the cleanup degrades to
/// never removing anything rather than to removing a live writer's file.
fn process_alive(pid: u32) -> bool {
    !Path::new("/proc/self").exists() || Path::new("/proc").join(pid.to_string()).exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_core::pareto::SWEEP_CHECKPOINT_VERSION;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sccl-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every dot-prefixed file under the journal's two directories.
    fn temp_files(root: &Path) -> Vec<PathBuf> {
        let mut found = Vec::new();
        for family in ["checkpoints", "queue"] {
            for entry in std::fs::read_dir(root.join(family)).expect("read_dir") {
                let path = entry.expect("entry").path();
                if path
                    .file_name()
                    .is_some_and(|name| name.to_string_lossy().starts_with('.'))
                {
                    found.push(path);
                }
            }
        }
        found
    }

    fn checkpoint(cursor: usize) -> SweepCheckpoint {
        SweepCheckpoint {
            version: SWEEP_CHECKPOINT_VERSION,
            plan_len: 10,
            cursor,
            best_bw: None,
            settled_step: Some(3),
            entries: Vec::new(),
            budget_exhausted: false,
        }
    }

    #[test]
    fn checkpoints_round_trip_and_removal_is_idempotent() {
        let dir = scratch("ckpt");
        let journal = Journal::open(&dir).expect("open");
        assert!(journal.load_checkpoint("abc").is_none());
        journal
            .store_checkpoint("abc", &checkpoint(4))
            .expect("store");
        assert_eq!(journal.checkpoints_written(), 1);
        assert_eq!(journal.load_checkpoint("abc"), Some(checkpoint(4)));
        // Overwrites move forward.
        journal
            .store_checkpoint("abc", &checkpoint(7))
            .expect("store");
        assert_eq!(journal.load_checkpoint("abc"), Some(checkpoint(7)));
        journal.remove_checkpoint("abc");
        journal.remove_checkpoint("abc");
        assert!(journal.load_checkpoint("abc").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_records_replay_in_admission_order_across_reopen() {
        let dir = scratch("queue");
        let journal = Journal::open(&dir).expect("open");
        let a = journal.append_queue_record("first").expect("append");
        let b = journal.append_queue_record("second").expect("append");
        journal.append_queue_record("third").expect("append");
        assert_eq!(journal.queue_len(), 3);
        journal.remove_queue_record(b);
        // A fresh handle (a restarted process) sees the survivors, in
        // order, and continues the sequence past them.
        let reopened = Journal::open(&dir).expect("reopen");
        let lines: Vec<String> = reopened
            .replay_queue()
            .into_iter()
            .map(|record| record.line)
            .collect();
        assert_eq!(lines, ["first", "third"]);
        let d = reopened.append_queue_record("fourth").expect("append");
        assert!(d > a, "reopened sequence must continue past survivors");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_writes_leave_no_record_and_replay_skips_temp_files() {
        let dir = scratch("torn");
        let journal = Journal::open(&dir).expect("open");
        sccl_core::failpoint::arm("journal.write", sccl_core::failpoint::FailAction::Trigger);
        let err = journal
            .append_queue_record("never-published")
            .expect_err("failpoint must abort the write");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let err = journal
            .store_checkpoint("abc", &checkpoint(1))
            .expect_err("failpoint must abort the write");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        sccl_core::failpoint::disarm("journal.write");
        // The simulated crash left temp files behind; neither replay nor
        // checkpoint load may surface them.
        assert_eq!(journal.replay_queue(), Vec::new());
        assert_eq!(journal.queue_len(), 0);
        assert!(journal.load_checkpoint("abc").is_none());
        assert_eq!(journal.checkpoints_written(), 0);
        // The two failures are the only trace the caller-ignored errors
        // leave.
        assert_eq!(journal.write_errors(), 2);
        assert_eq!(journal.records_written(), 0);
        // And the journal still works afterwards.
        journal.append_queue_record("published").expect("append");
        assert_eq!(journal.replay_queue().len(), 1);
        assert_eq!(journal.records_written(), 1);

        // A reopen while the writer (this process) is alive must leave
        // its temp files alone: it may be between write and rename.
        assert_eq!(temp_files(&dir).len(), 2, "one torn write per family");
        Journal::open(&dir).expect("reopen beside a live writer");
        assert_eq!(temp_files(&dir).len(), 2);
        // Once the writer is dead — the same files under a pid no process
        // has — the next open leaves both directories clean and the
        // published record alone.
        let own = format!(".tmp-{}-", std::process::id());
        for path in temp_files(&dir) {
            let name = path.file_name().expect("name").to_string_lossy();
            let dead = name.replace(&own, &format!(".tmp-{}-", u32::MAX));
            std::fs::rename(&path, path.with_file_name(dead)).expect("rename");
        }
        let reopened = Journal::open(&dir).expect("reopen after the crash");
        assert_eq!(temp_files(&dir), Vec::<PathBuf>::new());
        assert_eq!(reopened.queue_len(), 1);
        assert!(reopened.load_checkpoint("abc").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_write_durable_temp_names_are_recognised() {
        assert_eq!(
            temp_file_writer(".00000000000000000007.json.tmp-4242-13"),
            Some(4242)
        );
        assert_eq!(temp_file_writer(".abc.json.tmp-1-0"), Some(1));
        for other in [
            "00000000000000000007.json",
            "abc.json.tmp-1-0",
            ".abc.json.tmp-1",
            ".abc.json.tmp-x-0",
            ".abc.json.tmp-1-x",
            ".hidden",
        ] {
            assert_eq!(temp_file_writer(other), None, "{other}");
        }
    }

    #[test]
    fn corrupt_checkpoints_degrade_to_none() {
        let dir = scratch("corrupt");
        let journal = Journal::open(&dir).expect("open");
        journal
            .store_checkpoint("abc", &checkpoint(2))
            .expect("store");
        sccl_core::failpoint::arm(
            "checkpoint.restore",
            sccl_core::failpoint::FailAction::Trigger,
        );
        assert!(
            journal.load_checkpoint("abc").is_none(),
            "a torn checkpoint must read as absent, not wedge the resume"
        );
        sccl_core::failpoint::disarm("checkpoint.restore");
        assert_eq!(journal.load_checkpoint("abc"), Some(checkpoint(2)));
        // Truly corrupt bytes behave the same way.
        std::fs::write(journal.root().join("checkpoints").join("abc.json"), "{").expect("corrupt");
        assert!(journal.load_checkpoint("abc").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
