//! The write-ahead event log.
//!
//! Every event a durable [`crate::OnlineSession`] accepts is appended here
//! *before* it touches the live store, as one self-checking frame:
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────────────────────┐
//! │ len: u32 LE│ crc32: u32  │ payload (wire-encoded event, │
//! │ of payload │ of payload  │ leading WIRE_VERSION byte)   │
//! └────────────┴─────────────┴──────────────────────────────┘
//! ```
//!
//! The file opens with a 13-byte header — magic, format version, and the
//! **checkpoint epoch** — and a truncation (after a snapshot superseded
//! the log) writes a fresh header with the epoch advanced. The snapshot
//! records the epoch it truncated to, which lets recovery tell a log tail
//! that *follows* the snapshot (same epoch: replay it) from a stale log
//! the snapshot already covers (older epoch: a crash hit the window
//! between the snapshot rename and the truncation — skip it, or counters
//! would double-count the whole log).
//!
//! Appends go straight to the file descriptor (no userspace buffering), so
//! an abandoned session — our crash model — loses nothing that `append`
//! returned `Ok` for, up to the configured [`FsyncPolicy`]. The reader
//! walks frames until the first torn or corrupt one and reports it as a
//! typed [`WalCorruption`] instead of trusting anything beyond it: a frame
//! after a bad checksum has an untrustworthy length prefix, so the log is
//! only ever recovered as a consistent prefix. Frames from a *newer wire
//! format* (or a foreign/damaged header) are classified separately from
//! torn-tail corruption, so the recovery layer can refuse them instead of
//! destructively truncating data a newer binary could still read.
//!
//! Every file operation whose failure surfaces runs through the fault seam
//! ([`faults::Faults`]), which returns a [`faults::IoFailure`] tagged with
//! the step's [`faults::Op`] (`WalOpen`, `WalAppend`, `WalSync`,
//! `WalTruncate`, `WalRead`): each I/O result of the log is attributed to
//! exactly one op by the seam's return type, never by a mapping written
//! here.

use crate::event::TraceEvent;
use crate::wire::{self, WireError};
use faults::{Faults, IoFailure, Op};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of a WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"KJWL";
/// WAL container-format version (frame payloads carry their own
/// [`crate::event::WIRE_VERSION`] byte).
pub const WAL_FORMAT_VERSION: u8 = 1;
/// Byte length of the file header (magic + format version + epoch).
pub const WAL_HEADER_LEN: u64 = 13;

/// Render a WAL file header for `epoch` (also used by benches/tests that
/// build log images in memory).
pub fn wal_header(epoch: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(WAL_HEADER_LEN as usize);
    buf.extend_from_slice(WAL_MAGIC);
    wire::put_u8(&mut buf, WAL_FORMAT_VERSION);
    wire::put_u64(&mut buf, epoch);
    buf
}

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync; durability up to the OS page cache only (a machine
    /// crash may lose the tail, a process crash loses nothing).
    Never,
    /// Fsync once every `n` appended events (and on explicit [`WalWriter::sync`]).
    EveryN(u32),
    /// Fsync after every append batch — full durability, highest latency.
    Always,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        // One sync per 256 appended events (the net layer's default
        // producer batch): bounded loss window without paying a disk
        // round-trip per event.
        FsyncPolicy::EveryN(256)
    }
}

/// Why reading the log stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalCorruptionKind {
    /// The file header is missing, foreign, or of an unknown container
    /// version — the whole log is untrusted. Recovery refuses to proceed
    /// (and, crucially, to truncate) on this kind.
    BadHeader,
    /// The file ended inside a frame header.
    TruncatedHeader,
    /// The file ended inside a frame payload (torn final write).
    TruncatedFrame {
        /// Bytes the header promised.
        expected: u32,
        /// Bytes actually present.
        present: u32,
    },
    /// The payload does not match its checksum (bit rot or a torn
    /// overwrite).
    ChecksumMismatch,
    /// A checksum-valid frame written by a **newer wire format**. Not
    /// damage: a newer binary can read it, so recovery must refuse rather
    /// than truncate it away (binary-downgrade protection).
    UnsupportedFrameVersion(u8),
    /// The payload checksummed correctly but did not decode.
    Malformed(WireError),
}

impl std::fmt::Display for WalCorruptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalCorruptionKind::BadHeader => write!(f, "missing or foreign file header"),
            WalCorruptionKind::TruncatedHeader => write!(f, "truncated frame header"),
            WalCorruptionKind::TruncatedFrame { expected, present } => {
                write!(f, "truncated frame payload ({present}/{expected} bytes)")
            }
            WalCorruptionKind::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WalCorruptionKind::UnsupportedFrameVersion(v) => {
                write!(f, "frame written by newer wire format v{v}")
            }
            WalCorruptionKind::Malformed(e) => write!(f, "frame payload malformed: {e}"),
        }
    }
}

impl WalCorruptionKind {
    /// True for the kinds that mean "this build cannot read data a newer
    /// (or different) build wrote" rather than "the tail was torn" —
    /// recovery must hard-stop instead of recovering a prefix.
    pub fn is_incompatibility(&self) -> bool {
        matches!(
            self,
            WalCorruptionKind::BadHeader | WalCorruptionKind::UnsupportedFrameVersion(_)
        )
    }
}

/// A typed skip report: where the readable prefix of the log ends and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalCorruption {
    /// Index of the first unreadable frame.
    pub frame: usize,
    /// Byte offset of that frame's header.
    pub offset: u64,
    /// What was wrong with it.
    pub kind: WalCorruptionKind,
}

impl std::fmt::Display for WalCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wal frame {} at byte {}: {}",
            self.frame, self.offset, self.kind
        )
    }
}

/// Result of reading a log: the checkpoint epoch, the consistent event
/// prefix, the byte length of that prefix, and the corruption (if any)
/// that ended it.
#[derive(Debug, Default)]
pub struct WalContents {
    /// Checkpoint epoch from the file header (0 for a missing/empty log).
    pub epoch: u64,
    /// Events of the consistent prefix, in append order.
    pub events: Vec<TraceEvent>,
    /// Byte length of the consistent prefix (header included) — the
    /// truncation point for a writer that wants to resume appending after
    /// recovery.
    pub valid_len: u64,
    /// Why reading stopped early, if it did.
    pub corruption: Option<WalCorruption>,
}

/// The one frame scanner: the events of a log image (header + frames), in
/// append order, up to the first torn, corrupt or newer-format frame.
/// [`parse_frames`] collects it; recovery decodes it in place, frame by
/// frame into a reused chunk of events ([`WalFrames::next_into`]) — so
/// every reader of the log cuts it at the same frame. The header is read
/// on construction: [`WalFrames::epoch`] is known before the first frame
/// is.
pub(crate) struct WalFrames<'a> {
    bytes: &'a [u8],
    /// Start of the next frame; also the byte length of the consistent
    /// prefix read so far (0 for an empty image or a bad header).
    pos: usize,
    frame: usize,
    epoch: u64,
    corruption: Option<WalCorruption>,
}

impl<'a> WalFrames<'a> {
    /// Scan `bytes`. An empty image is a fresh epoch-0 log.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        let mut frames = WalFrames {
            bytes,
            pos: 0,
            frame: 0,
            epoch: 0,
            corruption: None,
        };
        if bytes.is_empty() {
            return frames;
        }
        if bytes.len() < WAL_HEADER_LEN as usize
            || &bytes[..4] != WAL_MAGIC
            || bytes[4] != WAL_FORMAT_VERSION
        {
            frames.corruption = Some(WalCorruption {
                frame: 0,
                offset: 0,
                kind: WalCorruptionKind::BadHeader,
            });
            return frames;
        }
        frames.epoch = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
        frames.pos = WAL_HEADER_LEN as usize;
        frames
    }

    /// Checkpoint epoch from the file header (0 for an empty log).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Byte length of the consistent prefix scanned so far (header
    /// included).
    pub(crate) fn valid_len(&self) -> u64 {
        self.pos as u64
    }

    /// Why scanning stopped early, once it has.
    pub(crate) fn corruption(&self) -> Option<&WalCorruption> {
        self.corruption.as_ref()
    }

    /// The checksum-verified payload of the frame at `pos`.
    fn payload(&self) -> Result<&'a [u8], WalCorruptionKind> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < 8 {
            return Err(WalCorruptionKind::TruncatedHeader);
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let Some(payload) = rest[8..].get(..len as usize) else {
            return Err(WalCorruptionKind::TruncatedFrame {
                expected: len,
                present: (rest.len() - 8) as u32,
            });
        };
        if wire::crc32(payload) != crc {
            return Err(WalCorruptionKind::ChecksumMismatch);
        }
        Ok(payload)
    }

    /// Decode the next frame into `slot` (see
    /// [`TraceEvent::decode_wire_into`]: a warm slot is overwritten
    /// without allocating) and step past it. False at the end of the
    /// consistent prefix — the end of the image, or a frame that failed,
    /// recorded in [`WalFrames::corruption`]; the slot is then
    /// meaningless.
    pub(crate) fn next_into(&mut self, slot: &mut TraceEvent) -> bool {
        if self.corruption.is_some() || self.pos == self.bytes.len() {
            return false;
        }
        let kind = match self.payload() {
            Ok(payload) => match TraceEvent::decode_wire_into(payload, slot) {
                Ok(()) => {
                    self.pos += 8 + payload.len();
                    self.frame += 1;
                    return true;
                }
                Err(WireError::UnsupportedVersion(v)) => {
                    WalCorruptionKind::UnsupportedFrameVersion(v)
                }
                Err(e) => WalCorruptionKind::Malformed(e),
            },
            Err(kind) => kind,
        };
        self.corruption = Some(WalCorruption {
            frame: self.frame,
            offset: self.pos as u64,
            kind,
        });
        false
    }
}

impl Iterator for WalFrames<'_> {
    type Item = TraceEvent;

    /// [`WalFrames::next_into`] over a fresh slot.
    fn next(&mut self) -> Option<TraceEvent> {
        let mut event = TraceEvent::default();
        self.next_into(&mut event).then_some(event)
    }
}

/// Parse a log image (header + frames) into the longest consistent frame
/// prefix. An empty image is a fresh epoch-0 log.
pub fn parse_frames(bytes: &[u8]) -> WalContents {
    let mut frames = WalFrames::new(bytes);
    let events = frames.by_ref().collect();
    WalContents {
        epoch: frames.epoch,
        events,
        valid_len: frames.valid_len(),
        corruption: frames.corruption,
    }
}

/// The bytes of the log at `path`, read through the fault seam. A missing
/// file is an empty image (a fresh session), not an error; any other I/O
/// failure is.
pub(crate) fn read_image(path: &Path, faults: &Faults) -> Result<Vec<u8>, IoFailure> {
    faults.step(Op::WalRead, || match std::fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    })
}

/// Read a whole log file. A missing file is an empty log (fresh session),
/// not an error; any other I/O failure is.
pub fn read_wal(path: &Path) -> Result<WalContents, IoFailure> {
    Ok(parse_frames(&read_image(path, &Faults::none())?))
}

/// Append one framed event to `buf` (shared by the WAL writer and tests).
///
/// The payload is wire-encoded **in place** ([`wire::put_frame`]), so
/// framing a whole batch into one scratch buffer performs
/// zero per-event allocations — the group-commit append's cost is one
/// buffer fill, one `write`, at most one fsync.
pub fn frame_event(buf: &mut Vec<u8>, event: &TraceEvent) {
    wire::put_frame(buf, |buf| event.encode_wire(buf));
}

/// Metric handles a [`WalWriter`] records into when its owner wires them
/// up (see [`WalWriter::set_metrics`]); all-`None` by default, so the
/// writer stays usable without any observability plumbing.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Wall time of each batch append: encoding and checksumming its
    /// frames plus the `write` call, not the policy fsync (that is
    /// `fsync_ns`).
    pub append_ns: Option<std::sync::Arc<obs::Histogram>>,
    /// Wall time of each fsync (policy-driven or explicit).
    pub fsync_ns: Option<std::sync::Arc<obs::Histogram>>,
    /// Frames appended (one per logged event).
    pub frames: Option<std::sync::Arc<obs::Counter>>,
    /// Fsyncs performed.
    pub fsyncs: Option<std::sync::Arc<obs::Counter>>,
}

/// The repair an earlier failed mutation left behind; completed (or
/// re-failed, typed) before the next mutation touches the file.
#[derive(Debug, Clone, Copy)]
enum PendingRepair {
    /// A torn append: truncate the file back to this offset.
    Truncate(u64),
    /// A failed restart: redo the whole reset onto this epoch.
    Reset(u64),
}

/// An append-only frame writer over one log file.
///
/// Failed mutations never leave the writer silently inconsistent with
/// the file: a torn append is truncated away (immediately, or — if even
/// that fails — before the next mutation), so on `Ok` the log is always
/// exactly the frames of every `Ok`-returned append. That invariant is
/// what lets recovery replay the log as ground truth.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    epoch: u64,
    len: u64,
    appended_since_sync: u64,
    scratch: Vec<u8>,
    metrics: WalMetrics,
    faults: Faults,
    repair: Option<PendingRepair>,
}

impl WalWriter {
    /// Open (creating if missing) the log at `path` and resume appending
    /// at `valid_len` — bytes beyond it (a torn tail found by recovery)
    /// are truncated away so new frames start on a frame boundary. When
    /// `valid_len` leaves no header (fresh file, or a stale log a
    /// snapshot already covers), the file restarts with a header carrying
    /// `epoch`.
    pub fn open(
        path: &Path,
        valid_len: u64,
        epoch: u64,
        policy: FsyncPolicy,
    ) -> Result<WalWriter, IoFailure> {
        WalWriter::open_with(path, valid_len, epoch, policy, &Faults::none())
    }

    /// [`WalWriter::open`] through a fault seam: every subsequent file
    /// operation of this writer is gated on `faults`. The log's directory
    /// is created if missing, as part of the open.
    pub fn open_with(
        path: &Path,
        valid_len: u64,
        epoch: u64,
        policy: FsyncPolicy,
        faults: &Faults,
    ) -> Result<WalWriter, IoFailure> {
        let fresh = valid_len < WAL_HEADER_LEN;
        let resume_at = if fresh { 0 } else { valid_len };
        let mut file = faults.step(Op::WalOpen, || {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut file = OpenOptions::new()
                .create(true)
                .read(true)
                .write(true)
                .truncate(false)
                .open(path)?;
            file.set_len(resume_at)?;
            file.seek(io::SeekFrom::Start(resume_at))?;
            Ok(file)
        })?;
        if fresh {
            faults.write_all(Op::WalOpen, &mut file, &wal_header(epoch))?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            epoch,
            len: if fresh { WAL_HEADER_LEN } else { valid_len },
            appended_since_sync: 0,
            scratch: Vec::new(),
            metrics: WalMetrics::default(),
            faults: faults.clone(),
            repair: None,
        })
    }

    /// Complete whatever repair an earlier failed mutation deferred.
    fn complete_repair(&mut self) -> Result<(), IoFailure> {
        match self.repair {
            None => Ok(()),
            Some(PendingRepair::Truncate(off)) => {
                let faults = self.faults.clone();
                faults.step(Op::WalTruncate, || self.truncate_to(off))?;
                self.repair = None;
                Ok(())
            }
            Some(PendingRepair::Reset(epoch)) => self.reset(epoch),
        }
    }

    /// Truncate the file to `off` and reposition the cursor there.
    fn truncate_to(&mut self, off: u64) -> io::Result<()> {
        self.file.set_len(off)?;
        self.file.seek(io::SeekFrom::Start(off))?;
        self.len = off;
        Ok(())
    }

    /// An append tore the file (an error after a possibly-partial
    /// write): truncate the torn bytes away now, or — if the repair
    /// itself fails — remember to before the next mutation.
    fn mark_torn(&mut self, valid: u64) {
        if self.truncate_to(valid).is_err() {
            self.repair = Some(PendingRepair::Truncate(valid));
        }
        self.len = valid;
    }

    /// Record append/fsync timings and frame counts into the given metric
    /// handles from now on (typically a durable session's registry).
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = metrics;
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The checkpoint epoch the log is currently on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    /// Append a batch of events as consecutive frames with one `write`
    /// call, then apply the fsync policy. On `Ok`, every event is at least
    /// in the OS page cache (crash-of-this-process durable). On `Err`,
    /// *no* frame of the batch remains in the log (a torn prefix is
    /// truncated away), so the caller can safely not apply the events and
    /// later retry the whole batch without double-logging.
    pub fn append_batch(&mut self, events: &[TraceEvent]) -> Result<(), IoFailure> {
        if events.is_empty() {
            return Ok(());
        }
        self.complete_repair()?;
        let before = self.len;
        let written = {
            let _stage = obs::StageTimer::maybe(self.metrics.append_ns.as_deref());
            self.scratch.clear();
            for event in events {
                frame_event(&mut self.scratch, event);
            }
            self.faults
                .write_all(Op::WalAppend, &mut self.file, &self.scratch)
        };
        if let Err(failure) = written {
            self.mark_torn(before);
            return Err(failure);
        }
        self.len += self.scratch.len() as u64;
        self.appended_since_sync += events.len() as u64;
        let due = match self.policy {
            FsyncPolicy::Never => false,
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appended_since_sync >= n.max(1) as u64,
        };
        if due {
            if let Err(e) = self.sync() {
                // The frames are intact on disk but the caller treats an
                // erroring append as not-applied; truncate them away so
                // the log stays exactly the applied history.
                self.mark_torn(before);
                return Err(e);
            }
        }
        // Counted only now: a frame that was appended but torn away by a
        // failed policy-fsync never happened as far as the ledger
        // (`kojak_wal_appended_frames_total == events applied`) goes.
        if let Some(frames) = &self.metrics.frames {
            frames.add(events.len() as u64);
        }
        Ok(())
    }

    /// Force the log to stable storage.
    pub fn sync(&mut self) -> Result<(), IoFailure> {
        {
            let _stage = obs::StageTimer::maybe(self.metrics.fsync_ns.as_deref());
            self.faults.step(Op::WalSync, || self.file.sync_data())?;
        }
        if let Some(fsyncs) = &self.metrics.fsyncs {
            fsyncs.inc();
        }
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Drop every frame and advance to `epoch`: the snapshot that was
    /// just written (recording the same epoch) now covers them. Syncs, so
    /// the truncation cannot be reordered after a crash into "snapshot
    /// missing *and* log empty".
    ///
    /// A failed reset leaves the file in a state recovery already
    /// handles (either the old epoch-covered content or an empty
    /// epoch-0 stub — both read as stale next to the newer snapshot)
    /// and is re-driven to completion before the next append, so events
    /// accepted after the failure can never land in a log a snapshot
    /// already covers.
    pub fn reset(&mut self, epoch: u64) -> Result<(), IoFailure> {
        // Two steps, as two draws: empty the file, then write and sync
        // the new header (its menu has no torn write to model).
        let file = &mut self.file;
        let result = self
            .faults
            .step(Op::WalTruncate, || {
                file.set_len(0)?;
                file.seek(io::SeekFrom::Start(0))
            })
            .and_then(|_| {
                self.faults.step(Op::WalTruncate, || {
                    file.write_all(&wal_header(epoch))?;
                    file.sync_data()
                })
            });
        if let Err(failure) = result {
            self.repair = Some(PendingRepair::Reset(epoch));
            return Err(failure);
        }
        self.repair = None;
        self.epoch = epoch;
        self.len = WAL_HEADER_LEN;
        self.appended_since_sync = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RunKey, TraceEvent};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kojak-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn finished(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent::RunFinished { run: RunKey(i) })
            .collect()
    }

    #[test]
    fn append_read_roundtrip_and_resume() {
        let path = tmp("roundtrip");
        let events = finished(5);
        {
            let mut w = WalWriter::open(&path, 0, 7, FsyncPolicy::Always).unwrap();
            w.append_batch(&events[..3]).unwrap();
            w.append_batch(&events[3..]).unwrap();
        }
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.events, events);
        assert_eq!(contents.epoch, 7);
        assert!(contents.corruption.is_none());
        // Resume appending at the valid length (header + epoch preserved).
        {
            let mut w = WalWriter::open(
                &path,
                contents.valid_len,
                contents.epoch,
                FsyncPolicy::Never,
            )
            .unwrap();
            w.append_batch(&finished(1)).unwrap();
        }
        let resumed = read_wal(&path).unwrap();
        assert_eq!(resumed.events.len(), 6);
        assert_eq!(resumed.epoch, 7);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_file_is_an_empty_log() {
        let path = tmp("missing");
        let contents = read_wal(&path.with_file_name("nope.log")).unwrap();
        assert!(contents.events.is_empty());
        assert!(contents.corruption.is_none());
        assert_eq!(contents.valid_len, 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_reported_and_prefix_kept() {
        let mut bytes = wal_header(0);
        for e in finished(3) {
            frame_event(&mut bytes, &e);
        }
        let header = WAL_HEADER_LEN as usize;
        let frame_len = (bytes.len() - header) / 3;
        bytes.truncate(bytes.len() - 3);
        let contents = parse_frames(&bytes);
        assert_eq!(contents.events.len(), 2);
        let c = contents.corruption.expect("tail reported");
        assert!(matches!(c.kind, WalCorruptionKind::TruncatedFrame { .. }));
        assert_eq!(c.frame, 2);
        assert_eq!(contents.valid_len as usize, header + frame_len * 2);
    }

    #[test]
    fn flipped_byte_stops_at_checksum() {
        let mut bytes = wal_header(0);
        for e in finished(3) {
            frame_event(&mut bytes, &e);
        }
        // Flip one payload byte of the middle frame.
        let header = WAL_HEADER_LEN as usize;
        let frame_len = (bytes.len() - header) / 3;
        bytes[header + frame_len + 10] ^= 0xff;
        let contents = parse_frames(&bytes);
        assert_eq!(contents.events.len(), 1);
        let c = contents.corruption.expect("corruption reported");
        assert_eq!(c.kind, WalCorruptionKind::ChecksumMismatch);
        assert_eq!(c.frame, 1);
        assert_eq!(contents.valid_len as usize, header + frame_len);
    }

    #[test]
    fn bad_header_and_newer_frames_are_incompatibilities_not_torn_tails() {
        // Foreign header: whole log untrusted.
        let contents = parse_frames(b"NOPE_not_a_wal_file");
        let c = contents.corruption.expect("bad header reported");
        assert_eq!(c.kind, WalCorruptionKind::BadHeader);
        assert!(c.kind.is_incompatibility());
        assert_eq!(contents.valid_len, 0);

        // A checksum-valid frame from a future wire version.
        let mut bytes = wal_header(0);
        frame_event(&mut bytes, &TraceEvent::RunFinished { run: RunKey(1) });
        let mut payload = Vec::new();
        TraceEvent::RunFinished { run: RunKey(2) }.encode_wire(&mut payload);
        payload[0] = 9; // future WIRE_VERSION, re-checksummed below
        wire::put_u32(&mut bytes, payload.len() as u32);
        wire::put_u32(&mut bytes, wire::crc32(&payload));
        bytes.extend_from_slice(&payload);
        let contents = parse_frames(&bytes);
        assert_eq!(contents.events.len(), 1);
        let c = contents.corruption.expect("newer frame reported");
        assert_eq!(c.kind, WalCorruptionKind::UnsupportedFrameVersion(9));
        assert!(c.kind.is_incompatibility());
        // Torn tails, by contrast, are recoverable.
        assert!(!WalCorruptionKind::TruncatedHeader.is_incompatibility());
        assert!(!WalCorruptionKind::ChecksumMismatch.is_incompatibility());
    }

    #[test]
    fn reset_empties_the_log_and_advances_the_epoch() {
        let path = tmp("reset");
        let mut w = WalWriter::open(&path, 0, 0, FsyncPolicy::Never).unwrap();
        w.append_batch(&finished(4)).unwrap();
        assert!(!w.is_empty());
        w.reset(1).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.epoch(), 1);
        let contents = read_wal(&path).unwrap();
        assert!(contents.events.is_empty());
        assert_eq!(contents.epoch, 1);
        // Appending after a reset works.
        w.append_batch(&finished(2)).unwrap();
        assert_eq!(read_wal(&path).unwrap().events.len(), 2);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
