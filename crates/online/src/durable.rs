//! Durable online sessions: write-ahead logging, snapshotting, recovery.
//!
//! ```text
//!            ingest                       flush (+every N: checkpoint)
//!  producer ───────▶ wal.log ──▶ store ──▶ live reports
//!                      │           │
//!                      │      snapshot.bin (atomic tmp+rename;
//!                      │◀──── truncates the log behind it)
//!                      ▼
//!    recover = load snapshot ▸ stream log tail ▸ one full flush
//!                              (whole frames, REPLAY_CHUNK events
//!                               at a time, decoded into reused slots)
//! ```
//!
//! A session built by [`OnlineSession::open`] carries a [`WalWriter`]:
//! every event batch is framed to disk *before* it is applied
//! (write-ahead; a batch that arrived as a frame, [`crate::FramedBatch`],
//! as those very bytes), and a checkpoint — taken automatically every
//! `snapshot_every_flushes` flushes or explicitly via
//! [`OnlineSession::checkpoint`] — serializes the builder state and
//! finished-run set, then truncates the log. [`OnlineSession::recover`]
//! inverts the process: load the latest valid snapshot, stream the log
//! tail through the ordinary [`OnlineSession::ingest_batch`] path in
//! batches of [`REPLAY_CHUNK`] events, rounded up to whole frames — each
//! frame decoded in place into the slots of one reused chunk, so replay
//! allocates next to nothing per event once the chunk is warm — and run
//! one full flush, after which the live reports are **bit-identical** to
//! what an uninterrupted session over the same events would show (the
//! durable shapes of the workspace's `tests/shapes.rs` are killed at a
//! random event and held to this).
//!
//! A torn or corrupt log tail is recovered up to the last consistent
//! frame and reported as a typed [`WalCorruption`]; a corrupt snapshot is
//! a hard [`RecoveryError`] (its history is not reconstructible from a
//! truncated log). Neither ever panics.
//!
//! Every disk step of the session — the recovery reads, the log's open
//! (which also creates the session directory), each checkpoint step —
//! runs through the session's fault seam, and every failure surfaces
//! carrying the seam's [`IoFailure`]: the [`faults::Op`] that failed and
//! the original error, so an injected fault stays recognisable
//! ([`faults::is_injected`]) at the public API.

use crate::error::FlushError;
use crate::event::TraceEvent;
use crate::session::{OnlineSession, SessionConfig};
use crate::snapshot::{encode_snapshot, read_snapshot_with, write_snapshot_bytes, SnapshotError};
use crate::wal::{read_image, FsyncPolicy, WalCorruption, WalFrames, WalMetrics, WalWriter};
use faults::{Faults, IoFailure, Op};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// File name of the write-ahead log inside a session directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a session directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Events recovery decodes and applies per batch, in whole frames: it
/// applies a chunk once it holds this many, so it holds fewer than this
/// many plus one frame's decoded events at a time, never the whole log,
/// and decodes each chunk into the slots of the previous one. A frame the
/// log encodes itself holds at most this many events
/// ([`WalWriter::append_batch`]).
pub const REPLAY_CHUNK: usize = 256;

/// Configuration of a durable session.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// The analysis configuration.
    pub session: SessionConfig,
    /// When WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Write a snapshot (and truncate the log) every this many successful
    /// [`OnlineSession::flush`]es; `0` disables automatic checkpoints
    /// (use [`OnlineSession::checkpoint`]).
    pub snapshot_every_flushes: u32,
    /// Fault seam every file operation of this session (WAL and
    /// snapshot, recovery included) is gated through. The default is
    /// inert; chaos tests pass a seeded [`faults::FaultPlan`] handle.
    pub faults: Faults,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            session: SessionConfig::default(),
            fsync: FsyncPolicy::default(),
            snapshot_every_flushes: 32,
            faults: Faults::none(),
        }
    }
}

/// Why a session directory could not be recovered.
#[derive(Debug)]
pub enum RecoveryError {
    /// A disk step failed: reading the snapshot or the log, or opening
    /// the log for appending.
    Io(IoFailure),
    /// The snapshot file exists but cannot be trusted. Unlike a torn WAL
    /// tail this is fatal: the log was truncated when the snapshot was
    /// written, so the snapshot's history exists nowhere else.
    CorruptSnapshot {
        /// The snapshot file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The durable state was written by an incompatible (newer or
    /// foreign) build, or its snapshot/log epochs disagree in a way that
    /// means history is missing — e.g. checksum-valid WAL frames from a
    /// newer wire format after a binary downgrade, or a log whose epoch
    /// says a snapshot once existed but the snapshot file is gone.
    /// Recovery refuses rather than silently truncating data another
    /// build could still read.
    Incompatible {
        /// The offending file.
        path: PathBuf,
        /// What is incompatible.
        detail: String,
    },
    /// The recovery flush failed (property evaluation error).
    Analysis(FlushError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery I/O: {e}"),
            RecoveryError::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {}: {detail}", path.display())
            }
            RecoveryError::Incompatible { path, detail } => {
                write!(f, "incompatible durable state {}: {detail}", path.display())
            }
            RecoveryError::Analysis(e) => write!(f, "recovery flush failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            RecoveryError::Analysis(e) => Some(e),
            _ => None,
        }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Was a snapshot loaded?
    pub used_snapshot: bool,
    /// Lifetime applied-event count restored from the snapshot (0 without
    /// one).
    pub snapshot_events: u64,
    /// WAL-tail events replayed through the ingestion path.
    pub wal_events_replayed: u64,
    /// WAL-tail events the replay rejected (deterministically the same
    /// rejections the original session counted).
    pub wal_events_rejected: u64,
    /// Byte length of the consistent WAL prefix (where appending resumes;
    /// 0 when the log must be restarted on the snapshot's epoch).
    pub wal_valid_len: u64,
    /// The checkpoint epoch appends continue under.
    pub epoch: u64,
    /// True when the log predates the snapshot (the crash hit the window
    /// between the snapshot rename and the log truncation): its events
    /// are already covered by the snapshot and were skipped, and the log
    /// is restarted on the snapshot's epoch.
    pub wal_stale: bool,
    /// The skip report for a torn/corrupt WAL tail, if one was found.
    pub wal_corruption: Option<WalCorruption>,
    /// Runs with a live report after the recovery flush.
    pub runs_recovered: usize,
}

impl OnlineSession {
    /// Recover a session from the durable state in `dir` (missing files
    /// mean a fresh, empty session): load the snapshot, replay the WAL
    /// tail, flush once. The returned session's live reports are
    /// bit-identical to an uninterrupted session over the same recovered
    /// event history.
    pub fn recover(
        dir: &Path,
        config: SessionConfig,
    ) -> Result<(OnlineSession, RecoveryStats), RecoveryError> {
        OnlineSession::recover_with(dir, config, &Faults::none())
    }

    /// [`OnlineSession::recover`] through a fault seam: the snapshot and
    /// WAL reads are gated on `faults` (chaos tests inject read errors
    /// into recovery itself).
    pub fn recover_with(
        dir: &Path,
        config: SessionConfig,
        faults: &Faults,
    ) -> Result<(OnlineSession, RecoveryStats), RecoveryError> {
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);
        let mut stats = RecoveryStats::default();
        let snapshot = match read_snapshot_with(&snapshot_path, faults) {
            Ok(data) => data,
            Err(SnapshotError::Io(e)) => return Err(RecoveryError::Io(e)),
            Err(SnapshotError::Corrupt(detail)) => {
                return Err(RecoveryError::CorruptSnapshot {
                    path: snapshot_path,
                    detail,
                })
            }
        };
        let image = read_image(&wal_path, faults).map_err(RecoveryError::Io)?;
        let mut frames = WalFrames::new(&image);

        // Reconcile the checkpoint epochs — settled off the header, before
        // any frame is applied. The log's epoch can lag the snapshot's by
        // exactly one crash window (snapshot renamed, log not yet
        // truncated): those frames are already covered by the snapshot and
        // replaying them would double-count history.
        let wal_epoch = frames.epoch();
        let snapshot_epoch = snapshot.as_ref().map(|s| s.wal_epoch).unwrap_or(0);
        let epoch_error = match &snapshot {
            Some(_) if wal_epoch > snapshot_epoch => Some(RecoveryError::Incompatible {
                path: snapshot_path,
                detail: format!(
                    "snapshot epoch {snapshot_epoch} older than log epoch {wal_epoch} — \
                     the snapshot covering the truncated history is missing"
                ),
            }),
            None if wal_epoch > 0 => Some(RecoveryError::Incompatible {
                path: snapshot_path,
                detail: format!(
                    "log epoch {wal_epoch} says a snapshot truncated it, but no snapshot exists"
                ),
            }),
            _ => None,
        };
        stats.wal_stale = snapshot.is_some() && wal_epoch < snapshot_epoch;
        stats.epoch = snapshot_epoch.max(wal_epoch);

        let session = match snapshot {
            Some(data) => {
                stats.used_snapshot = true;
                stats.snapshot_events = data.events_applied;
                OnlineSession::from_recovered(
                    config,
                    data.builder,
                    data.finished,
                    data.events_rejected,
                )
            }
            None => OnlineSession::new(config),
        };

        // Stream the tail through the ordinary ingestion path, a chunk of
        // whole frames at a time, each frame decoded in place into the
        // slots of the same reused chunk — no allocation per event once
        // the slots are warm. A log that is not to be applied (stale, or
        // refused by its epoch) is still scanned to its end, so a
        // newer-format frame anywhere refuses recovery below.
        let apply = epoch_error.is_none() && !stats.wal_stale;
        let rejected_before = session.stats().events_rejected;
        let mut chunk: Vec<TraceEvent> = Vec::new();
        let mut len = 0;
        loop {
            let decoded = frames.next_into(&mut chunk, len);
            len += decoded.unwrap_or(0);
            if len >= REPLAY_CHUNK || (decoded.is_none() && len > 0) {
                if apply {
                    stats.wal_events_replayed += len as u64;
                    // Rejected events are counted and skipped exactly as
                    // they were live; the first error is not fatal to the
                    // rest.
                    let _ = session.ingest_batch(&chunk[..len]);
                }
                len = 0;
            }
            if decoded.is_none() {
                break;
            }
        }
        // An unreadable-by-design log (foreign header, frames from a newer
        // wire format) must not be "recovered" by truncating it away; the
        // session that replayed its prefix is dropped, nothing on disk
        // was touched.
        if let Some(c) = frames.corruption() {
            if c.kind.is_incompatibility() {
                return Err(RecoveryError::Incompatible {
                    path: wal_path,
                    detail: c.to_string(),
                });
            }
        }
        if let Some(e) = epoch_error {
            return Err(e);
        }
        stats.wal_valid_len = if stats.wal_stale {
            0
        } else {
            frames.valid_len()
        };
        stats.wal_corruption = frames.corruption().cloned();
        stats.wal_events_rejected = session.stats().events_rejected - rejected_before;
        session.note_replayed(stats.snapshot_events + stats.wal_events_replayed);
        // A fresh analyzer: every report it holds, this flush made.
        stats.runs_recovered = session.flush().map_err(RecoveryError::Analysis)?.len();
        Ok((session, stats))
    }
}

/// What the durable part's lock guards: the log writer and the
/// checkpoint bookkeeping.
pub(crate) struct Log {
    pub(crate) wal: WalWriter,
    flushes_since_snapshot: u32,
    /// Current checkpoint epoch (== the WAL header's epoch; the next
    /// snapshot records `epoch + 1` and the log restarts under it).
    epoch: u64,
}

/// The durable part of an [`OnlineSession`]: the write-ahead invariant
/// (no event reaches the store unless its frame is on disk first) holds
/// because the session takes [`Durability::lock`] around every append +
/// apply, and offers no other way in.
pub(crate) struct Durability {
    log: Mutex<Log>,
    pub(crate) dir: PathBuf,
    snapshot_every_flushes: u32,
    pub(crate) faults: Faults,
    /// What recovery found when the session was opened.
    pub(crate) recovery: RecoveryStats,
    snapshot_write_ns: Arc<obs::Histogram>,
    snapshot_writes: Arc<obs::Counter>,
}

impl Durability {
    /// Open the log of the session `recovery` describes for appending.
    pub(crate) fn open(
        dir: PathBuf,
        fsync: FsyncPolicy,
        snapshot_every_flushes: u32,
        faults: Faults,
        recovery: RecoveryStats,
        registry: &obs::MetricsRegistry,
    ) -> Result<Self, RecoveryError> {
        // A stale log (crash between snapshot rename and truncation) has
        // wal_valid_len == 0: opening at that length completes the
        // interrupted checkpoint by restarting the log on the snapshot's
        // epoch.
        let mut wal = WalWriter::open_with(
            &dir.join(WAL_FILE),
            recovery.wal_valid_len,
            recovery.epoch,
            fsync,
            &faults,
        )
        .map_err(RecoveryError::Io)?;
        // The WAL records into the session's registry, so one snapshot
        // covers the whole durable stack.
        wal.set_metrics(WalMetrics {
            append_ns: Some(registry.histogram("kojak_wal_append_ns")),
            fsync_ns: Some(registry.histogram("kojak_wal_fsync_ns")),
            events: Some(registry.counter("kojak_wal_appended_events_total")),
            bytes: Some(registry.counter("kojak_wal_appended_bytes_total")),
            fsyncs: Some(registry.counter("kojak_wal_fsyncs_total")),
        });
        Ok(Durability {
            log: Mutex::new(Log {
                wal,
                flushes_since_snapshot: 0,
                epoch: recovery.epoch,
            }),
            dir,
            snapshot_every_flushes,
            faults,
            recovery,
            snapshot_write_ns: registry.histogram("kojak_snapshot_write_ns"),
            snapshot_writes: registry.counter("kojak_snapshot_writes_total"),
        })
    }

    /// The writer lock (see the field docs on [`OnlineSession`]).
    pub(crate) fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Count one successful flush; true when the cadence asks for a
    /// checkpoint now.
    pub(crate) fn checkpoint_due(&self, log: &mut Log) -> bool {
        log.flushes_since_snapshot += 1;
        self.snapshot_every_flushes > 0 && log.flushes_since_snapshot >= self.snapshot_every_flushes
    }

    /// Write a snapshot of `session` and truncate the log behind it.
    pub(crate) fn checkpoint(
        &self,
        log: &mut Log,
        session: &OnlineSession,
    ) -> Result<(), FlushError> {
        let path = self.dir.join(SNAPSHOT_FILE);
        let next_epoch = log.epoch + 1;
        // Encode under the session lock (consistent read), but do the
        // file write + fsyncs after releasing it so concurrent report()
        // readers never wait on the disk. The writer lock (held by our
        // caller) still serializes writers.
        let bytes = session.snapshot_state(|builder, finished, rejected| {
            encode_snapshot(builder, finished, rejected, next_epoch)
        });
        let write_result = {
            let _stage = self.snapshot_write_ns.start_timer();
            write_snapshot_bytes(&path, &bytes, &self.faults)
        };
        if let Err(failure) = write_result {
            // Every step up to the rename leaves the previous snapshot
            // and the log authoritative — bail with the epoch untouched.
            // The directory sync is *after* the commit point: the new
            // snapshot IS live, so the log must still move onto the new
            // epoch, or every future append would land in a file
            // recovery skips as stale (silent loss of acknowledged
            // events). Only the rename's machine-crash durability is in
            // doubt; the caller still sees the typed failure.
            if failure.op == Op::SnapshotDirSync {
                self.snapshot_writes.inc();
                // A failed reset schedules its own pending repair
                // (re-driven before the next append); the dir-sync
                // failure outranks it as the reported error either way.
                let _ = log.wal.reset(next_epoch);
                log.epoch = next_epoch;
                log.flushes_since_snapshot = 0;
            }
            return Err(FlushError::Checkpoint {
                path,
                failure,
                updated: Vec::new(),
            });
        }
        self.snapshot_writes.inc();
        // The snapshot is committed: advance the epoch bookkeeping even
        // when the truncation fails, so the *next* checkpoint's snapshot
        // epoch stays strictly ahead of a log the pending repair has
        // meanwhile reset onto `next_epoch` — an equal-epoch snapshot
        // would make recovery double-apply that log's tail.
        let reset = log.wal.reset(next_epoch);
        log.epoch = next_epoch;
        log.flushes_since_snapshot = 0;
        reset.map_err(|failure| FlushError::Checkpoint {
            path: log.wal.path().to_path_buf(),
            failure,
            updated: Vec::new(),
        })
    }
}
