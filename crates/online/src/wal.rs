//! The write-ahead event log.
//!
//! Every batch a durable [`crate::OnlineSession`] accepts is appended here
//! *before* it touches the live store, as self-checking frames:
//!
//! ```text
//! ┌────────────┬─────────────┬────────────────────────────────────────┐
//! │ len: u32 LE│ crc32: u32  │ payload: a batch frame's               │
//! │ of payload │ of payload  │ tag 6 │ version │ … (see crate::batch) │
//! └────────────┴─────────────┴────────────────────────────────────────┘
//! ```
//!
//! A batch frame ([`crate::batch`]) names each run key and string of its
//! events once, and is byte for byte the `kojak-net` event batch that
//! carried them: a durable shard fed a whole producer batch appends the
//! received frame as it is ([`WalWriter::append_frame`]), and only a batch
//! it must split or trim is encoded here ([`WalWriter::append_batch`]).
//! Logs written before batch frames hold one event per frame, the payload
//! its [`TraceEvent::encode_wire`] bytes (leading
//! [`crate::event::WIRE_VERSION`]); they are still read, in any mix with
//! batch frames, and no longer written.
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
//! only ever recovered as a consistent prefix of whole frames. Frames from
//! a *newer format* (or a foreign/damaged header) are classified
//! separately from torn-tail corruption, so the recovery layer can refuse
//! them instead of destructively truncating data a newer binary could
//! still read.
//!
//! Every file operation whose failure surfaces runs through the fault seam
//! ([`faults::Faults`]), which returns a [`faults::IoFailure`] tagged with
//! the step's [`faults::Op`] (`WalOpen`, `WalAppend`, `WalSync`,
//! `WalTruncate`, `WalRead`): each I/O result of the log is attributed to
//! exactly one op by the seam's return type, never by a mapping written
//! here.

use crate::batch::{BatchDecoder, BatchEncoder, BATCH_TAG};
use crate::event::TraceEvent;
use crate::wire::{self, WireError, FRAME_HEADER_LEN};
use faults::{Faults, IoFailure, Op};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of a WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"KJWL";
/// WAL container-format version (a frame's payload says its own format
/// in its first bytes: a batch frame's tag and version, or an event
/// frame's [`crate::event::WIRE_VERSION`]).
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
    /// A checksum-valid frame written by a **newer format** (the version
    /// byte of a batch frame, or the first byte of any other). Not
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

/// Result of reading a log: the checkpoint epoch, the events of the
/// consistent frame prefix, the byte length of that prefix, and the
/// corruption (if any) that ended it.
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
/// append order, frame by frame, up to the first torn, corrupt or
/// newer-format frame. [`parse_frames`] collects it; recovery decodes it
/// in place into the reused slots of one chunk of events
/// ([`WalFrames::next_into`]) — so every reader of the log cuts it at the
/// same frame. A frame's events are yielded whole or not at all. The
/// header is read on construction: [`WalFrames::epoch`] is known before
/// the first frame is.
pub(crate) struct WalFrames<'a> {
    bytes: &'a [u8],
    /// Start of the next frame; also the byte length of the consistent
    /// prefix read so far (0 for an empty image or a bad header).
    pos: usize,
    frame: usize,
    epoch: u64,
    corruption: Option<WalCorruption>,
    decoder: BatchDecoder,
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
            decoder: BatchDecoder::new(),
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
        if rest.len() < FRAME_HEADER_LEN {
            return Err(WalCorruptionKind::TruncatedHeader);
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let Some(payload) = rest[FRAME_HEADER_LEN..].get(..len as usize) else {
            return Err(WalCorruptionKind::TruncatedFrame {
                expected: len,
                present: (rest.len() - FRAME_HEADER_LEN) as u32,
            });
        };
        if wire::crc32(payload) != crc {
            return Err(WalCorruptionKind::ChecksumMismatch);
        }
        Ok(payload)
    }

    /// Decode a verified payload into `events[at..]`: a batch frame's
    /// events, or the one event of a frame written before batch frames.
    fn decode(
        &mut self,
        payload: &[u8],
        events: &mut Vec<TraceEvent>,
        at: usize,
    ) -> Result<usize, WireError> {
        if payload.first() == Some(&BATCH_TAG) {
            let header = self.decoder.decode_into(payload, events, at)?;
            return Ok(header.count as usize);
        }
        if at == events.len() {
            events.push(TraceEvent::default());
        }
        TraceEvent::decode_wire_into(payload, &mut events[at]).map(|()| 1)
    }

    /// Decode the next frame into `events[at..]` (see
    /// [`BatchDecoder::decode_into`]: warm slots are overwritten without
    /// allocating, and slots are pushed past the end as needed) and step
    /// past it, returning how many events it held. `None` at the end of
    /// the consistent prefix — the end of the image, or a frame that
    /// failed, recorded in [`WalFrames::corruption`]; the slots from `at`
    /// on are then meaningless.
    pub(crate) fn next_into(&mut self, events: &mut Vec<TraceEvent>, at: usize) -> Option<usize> {
        if self.corruption.is_some() || self.pos == self.bytes.len() {
            return None;
        }
        let kind = match self.payload() {
            Ok(payload) => match self.decode(payload, events, at) {
                Ok(n) => {
                    self.pos += FRAME_HEADER_LEN + payload.len();
                    self.frame += 1;
                    return Some(n);
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
        None
    }
}

/// Parse a log image (header + frames) into the longest consistent frame
/// prefix. An empty image is a fresh epoch-0 log.
pub fn parse_frames(bytes: &[u8]) -> WalContents {
    let mut frames = WalFrames::new(bytes);
    let mut events = Vec::new();
    let mut len = 0;
    while let Some(n) = frames.next_into(&mut events, len) {
        len += n;
    }
    events.truncate(len);
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

/// Metric handles a [`WalWriter`] records into when its owner wires them
/// up (see [`WalWriter::set_metrics`]); all-`None` by default, so the
/// writer stays usable without any observability plumbing.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Wall time of each batch append: encoding and checksumming its
    /// frames (none for a frame appended as received) plus the `write`
    /// call, not the policy fsync (that is `fsync_ns`).
    pub append_ns: Option<std::sync::Arc<obs::Histogram>>,
    /// Wall time of each fsync (policy-driven or explicit).
    pub fsync_ns: Option<std::sync::Arc<obs::Histogram>>,
    /// Events logged.
    pub events: Option<std::sync::Arc<obs::Counter>>,
    /// Bytes of frames appended, headers included: the log's growth.
    pub bytes: Option<std::sync::Arc<obs::Counter>>,
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
    encoder: BatchEncoder,
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
            encoder: BatchEncoder::new(),
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

    /// Append a batch of events as batch frames ([`crate::batch`]) of at
    /// most [`crate::durable::REPLAY_CHUNK`] events each, with one
    /// `write` call, then apply the fsync policy. On `Ok`, every event is
    /// at least in the OS page cache (crash-of-this-process durable). On
    /// `Err`, *no* frame of the batch remains in the log (a torn prefix is
    /// truncated away), so the caller can safely not apply the events and
    /// later retry the whole batch without double-logging.
    pub fn append_batch(&mut self, events: &[TraceEvent]) -> Result<(), IoFailure> {
        if events.is_empty() {
            return Ok(());
        }
        let histogram = self.metrics.append_ns.clone();
        let timer = obs::StageTimer::maybe(histogram.as_deref());
        let mut frames = std::mem::take(&mut self.scratch);
        frames.clear();
        for chunk in events.chunks(crate::durable::REPLAY_CHUNK) {
            self.encoder.encode(&mut frames, 0, chunk);
        }
        let appended = self.append(&frames, events.len(), timer);
        self.scratch = frames;
        appended
    }

    /// Append one batch frame as received — `frame` is its bytes,
    /// `len | crc32 | payload`, as [`crate::FramedBatch::frame`] holds
    /// them, and `events` how many events it carries — with one `write`
    /// call, then apply the fsync policy: the producer's encoding and
    /// checksum are the log's. Failure semantics are
    /// [`WalWriter::append_batch`]'s.
    pub fn append_frame(&mut self, frame: &[u8], events: usize) -> Result<(), IoFailure> {
        let histogram = self.metrics.append_ns.clone();
        self.append(frame, events, obs::StageTimer::maybe(histogram.as_deref()))
    }

    /// Write `bytes` (whole frames holding `events` events), then apply
    /// the fsync policy; `timer` times the append up to the `write`.
    fn append(
        &mut self,
        bytes: &[u8],
        events: usize,
        timer: obs::StageTimer<'_>,
    ) -> Result<(), IoFailure> {
        if events == 0 {
            return Ok(());
        }
        self.complete_repair()?;
        let before = self.len;
        let written = self.faults.write_all(Op::WalAppend, &mut self.file, bytes);
        drop(timer);
        if let Err(failure) = written {
            self.mark_torn(before);
            return Err(failure);
        }
        self.len += bytes.len() as u64;
        self.appended_since_sync += events as u64;
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
        // (`kojak_wal_appended_events_total == events applied`) goes.
        if let Some(counter) = &self.metrics.events {
            counter.add(events as u64);
        }
        if let Some(counter) = &self.metrics.bytes {
            counter.add(bytes.len() as u64);
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

    /// A log image of `frames` batch frames of `per` events each.
    fn image(frames: u64, per: u64) -> Vec<u8> {
        let mut bytes = wal_header(0);
        let mut encoder = BatchEncoder::new();
        for _ in 0..frames {
            encoder.encode(&mut bytes, 0, &finished(per));
        }
        bytes
    }

    /// A frame as logs held them before batch frames: one event's
    /// `encode_wire` bytes.
    fn event_frame(buf: &mut Vec<u8>, event: &TraceEvent) {
        wire::put_frame(buf, |buf| event.encode_wire(buf));
    }

    #[test]
    fn torn_tail_is_reported_and_whole_frames_kept() {
        let mut bytes = image(3, 4);
        let header = WAL_HEADER_LEN as usize;
        let frame_len = (bytes.len() - header) / 3;
        bytes.truncate(bytes.len() - 3);
        let contents = parse_frames(&bytes);
        assert_eq!(contents.events.len(), 8, "two whole frames of four");
        let c = contents.corruption.expect("tail reported");
        assert!(matches!(c.kind, WalCorruptionKind::TruncatedFrame { .. }));
        assert_eq!(c.frame, 2);
        assert_eq!(contents.valid_len as usize, header + frame_len * 2);
    }

    #[test]
    fn flipped_byte_stops_at_checksum() {
        let mut bytes = image(3, 4);
        // Flip one payload byte of the middle frame.
        let header = WAL_HEADER_LEN as usize;
        let frame_len = (bytes.len() - header) / 3;
        bytes[header + frame_len + 10] ^= 0xff;
        let contents = parse_frames(&bytes);
        assert_eq!(contents.events.len(), 4);
        let c = contents.corruption.expect("corruption reported");
        assert_eq!(c.kind, WalCorruptionKind::ChecksumMismatch);
        assert_eq!(c.frame, 1);
        assert_eq!(contents.valid_len as usize, header + frame_len);
    }

    #[test]
    fn event_frames_and_batch_frames_read_in_any_mix() {
        let events = crate::test_events::every_variant();
        let mut bytes = wal_header(3);
        event_frame(&mut bytes, &events[0]);
        BatchEncoder::new().encode(&mut bytes, 0, &events[1..5]);
        for event in &events[5..7] {
            event_frame(&mut bytes, event);
        }
        BatchEncoder::new().encode(&mut bytes, 9, &events[7..]);
        let contents = parse_frames(&bytes);
        assert!(contents.corruption.is_none());
        assert_eq!(contents.events, events);
        assert_eq!(contents.epoch, 3);
        assert_eq!(contents.valid_len as usize, bytes.len());
    }

    #[test]
    fn bad_header_and_newer_frames_are_incompatibilities_not_torn_tails() {
        // Foreign header: whole log untrusted.
        let contents = parse_frames(b"NOPE_not_a_wal_file");
        let c = contents.corruption.expect("bad header reported");
        assert_eq!(c.kind, WalCorruptionKind::BadHeader);
        assert!(c.kind.is_incompatibility());
        assert_eq!(contents.valid_len, 0);

        // A checksum-valid frame from a future wire version, and a
        // checksum-valid batch frame of a future layout.
        let mut payload = Vec::new();
        TraceEvent::RunFinished { run: RunKey(2) }.encode_wire(&mut payload);
        payload[0] = 9; // future WIRE_VERSION
        let mut batch = Vec::new();
        BatchEncoder::new().encode(&mut batch, 0, &finished(2));
        let mut newer_batch = batch[FRAME_HEADER_LEN..].to_vec();
        newer_batch[1] = 2; // future batch version
        for (newer, version) in [(payload, 9), (newer_batch, 2)] {
            let mut bytes = wal_header(0);
            bytes.extend_from_slice(&batch);
            wire::put_frame(&mut bytes, |buf| buf.extend_from_slice(&newer));
            let contents = parse_frames(&bytes);
            assert_eq!(contents.events.len(), 2);
            let c = contents.corruption.expect("newer frame reported");
            assert_eq!(c.kind, WalCorruptionKind::UnsupportedFrameVersion(version));
            assert_eq!(c.frame, 1);
            assert!(c.kind.is_incompatibility());
        }
        // Torn tails, by contrast, are recoverable.
        assert!(!WalCorruptionKind::TruncatedHeader.is_incompatibility());
        assert!(!WalCorruptionKind::ChecksumMismatch.is_incompatibility());
    }

    #[test]
    fn a_received_frame_is_appended_as_it_is() {
        let path = tmp("verbatim");
        let events = crate::test_events::every_variant();
        let mut frame = Vec::new();
        BatchEncoder::new().encode(&mut frame, 77, &events);
        let mut w = WalWriter::open(&path, 0, 0, FsyncPolicy::Never).unwrap();
        w.append_frame(&frame, events.len()).unwrap();
        w.append_batch(&events).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let header = WAL_HEADER_LEN as usize;
        assert_eq!(&bytes[header..header + frame.len()], &frame[..]);
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.events.len(), 2 * events.len());
        assert_eq!(&contents.events[..events.len()], &events[..]);
        assert_eq!(&contents.events[events.len()..], &events[..]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
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
