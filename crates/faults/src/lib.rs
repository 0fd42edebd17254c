//! # `kojak-faults` — deterministic fault injection
//!
//! The stack's failure behavior must be *tested by construction*, not
//! discovered in production: long-running jobs lose disks, drop
//! connections, and kill processes mid-write. This crate provides the
//! one seam every I/O path in the workspace goes through when it wants
//! to be testable under faults:
//!
//! * A [`FaultPlan`] — a splitmix64-seeded, reproducible schedule of
//!   fault events (short writes, fsync errors, ENOSPC, torn renames,
//!   read errors, connection resets, delayed/partial socket writes).
//! * A [`Faults`] handle — the injectable seam. The WAL, snapshot and
//!   durable-session write paths call [`Faults::check`] /
//!   [`Faults::write_all`] / [`Faults::rename`] at every file
//!   operation; the network layer wraps its sockets in a
//!   [`FaultStream`]. A handle built from a plan injects; the default
//!   handle is inert.
//! * The `inject` cargo feature. Without it (the default) the seam
//!   compiles to an inlined passthrough — `Faults` is a zero-sized
//!   type and every call site reduces to the underlying I/O operation,
//!   so release builds pay nothing for carrying the fault layer.
//!
//! ## Determinism
//!
//! The k-th draw at a given operation site is a pure function of
//! `(seed, site, k)`: every site keeps its own draw counter, so a
//! single-threaded driver replays the exact same fault schedule from
//! the same seed, and a multi-threaded one still injects the same
//! faults per site in the same site-local order. Chaos suites log the
//! seed; a failure reproduces from it.
//!
//! Injected errors carry a typed payload — [`is_injected`] tells a
//! test (or a suspicious operator) whether an [`io::Error`] came from
//! the plan or from the real world.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The draw/menu machinery only runs under `inject`; the passthrough
// build carries the types (they appear in public signatures) but not
// the code paths that exercise their helpers.
#![cfg_attr(not(feature = "inject"), allow(dead_code))]

use std::io::{self, Write};
use std::path::Path;
#[cfg(feature = "inject")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "inject")]
use std::sync::Arc;

/// SplitMix64 finalizer — the same mixer the ingest router and the
/// simulator's noise model use; re-exported so dependents (e.g. the
/// net client's jittered backoff) need no second copy.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// True when this build actually injects faults (`inject` feature).
/// Chaos suites assert this so a mis-resolved feature graph fails
/// loudly instead of silently testing nothing.
pub const fn injection_compiled() -> bool {
    cfg!(feature = "inject")
}

/// What kind of fault was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A file write persisted only a prefix of the buffer, then failed
    /// — the torn-write crash model (the prefix IS on disk).
    ShortWrite,
    /// A file write failed wholesale.
    WriteError,
    /// An fsync failed (data may or may not have reached stable
    /// storage — the caller must assume not).
    FsyncError,
    /// The disk is full ([`io::ErrorKind::StorageFull`]).
    Enospc,
    /// An atomic-rename commit failed, leaving the temp file in place
    /// and the destination untouched — the crash window between
    /// tmp-write and rename.
    TornRename,
    /// A file read failed.
    ReadError,
    /// The connection was reset by the (simulated) peer.
    ConnReset,
    /// A socket write delivered a prefix of the buffer to the peer,
    /// then the connection died.
    PartialWrite,
    /// The operation was delayed (slow peer / contended disk), then
    /// proceeded normally. Not an error — a latency fault.
    Delay,
}

impl FaultKind {
    /// All kinds, for iteration in tests/reports.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::ShortWrite,
        FaultKind::WriteError,
        FaultKind::FsyncError,
        FaultKind::Enospc,
        FaultKind::TornRename,
        FaultKind::ReadError,
        FaultKind::ConnReset,
        FaultKind::PartialWrite,
        FaultKind::Delay,
    ];

    fn index(self) -> usize {
        FaultKind::ALL.iter().position(|k| *k == self).unwrap()
    }

    fn error_kind(self) -> io::ErrorKind {
        match self {
            FaultKind::ShortWrite => io::ErrorKind::WriteZero,
            FaultKind::Enospc => io::ErrorKind::StorageFull,
            FaultKind::ConnReset | FaultKind::PartialWrite => io::ErrorKind::ConnectionReset,
            FaultKind::ReadError => io::ErrorKind::UnexpectedEof,
            FaultKind::WriteError | FaultKind::FsyncError | FaultKind::TornRename => {
                io::ErrorKind::Other
            }
            FaultKind::Delay => unreachable!("a delay is not an error"),
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FaultKind::ShortWrite => "short-write",
            FaultKind::WriteError => "write-error",
            FaultKind::FsyncError => "fsync-error",
            FaultKind::Enospc => "enospc",
            FaultKind::TornRename => "torn-rename",
            FaultKind::ReadError => "read-error",
            FaultKind::ConnReset => "conn-reset",
            FaultKind::PartialWrite => "partial-write",
            FaultKind::Delay => "delay",
        };
        f.write_str(name)
    }
}

/// An I/O seam an operation is gated through — the "site" of the
/// determinism contract (each site draws from its own counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant names are the documentation
pub enum Op {
    WalOpen,
    WalAppend,
    WalSync,
    WalTruncate,
    WalRead,
    SnapshotCreate,
    SnapshotWrite,
    SnapshotSync,
    SnapshotRename,
    SnapshotDirSync,
    SnapshotRead,
    NetRead,
    NetWrite,
}

impl Op {
    const COUNT: usize = 13;

    fn index(self) -> usize {
        self as usize
    }

    fn is_net(self) -> bool {
        matches!(self, Op::NetRead | Op::NetWrite)
    }

    /// The fault kinds that can fire at this site.
    fn menu(self) -> &'static [FaultKind] {
        match self {
            Op::WalOpen | Op::WalTruncate => &[FaultKind::WriteError],
            Op::WalAppend => &[
                FaultKind::ShortWrite,
                FaultKind::WriteError,
                FaultKind::Enospc,
            ],
            Op::WalSync | Op::SnapshotSync | Op::SnapshotDirSync => &[FaultKind::FsyncError],
            Op::WalRead | Op::SnapshotRead => &[FaultKind::ReadError],
            Op::SnapshotCreate => &[FaultKind::WriteError, FaultKind::Enospc],
            Op::SnapshotWrite => &[
                FaultKind::ShortWrite,
                FaultKind::WriteError,
                FaultKind::Enospc,
            ],
            Op::SnapshotRename => &[FaultKind::TornRename],
            Op::NetRead => &[FaultKind::ConnReset, FaultKind::Delay],
            Op::NetWrite => &[
                FaultKind::ConnReset,
                FaultKind::PartialWrite,
                FaultKind::Delay,
            ],
        }
    }
}

/// The typed payload of every injected [`io::Error`] — proof of
/// provenance ([`is_injected`]) plus the site and kind for assertions.
#[derive(Debug)]
pub struct InjectedFault {
    /// The seam the fault fired at.
    pub op: Op,
    /// What was injected.
    pub kind: FaultKind,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected {} at {:?}", self.kind, self.op)
    }
}

impl std::error::Error for InjectedFault {}

/// True when `e` was injected by a [`FaultPlan`] rather than produced
/// by the real world. Always false in builds without `inject`.
pub fn is_injected(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<InjectedFault>())
}

/// The injected [`InjectedFault`] payload of `e`, if any.
pub fn injected_fault(e: &io::Error) -> Option<&InjectedFault> {
    e.get_ref().and_then(|inner| inner.downcast_ref())
}

fn injected_error(op: Op, kind: FaultKind) -> io::Error {
    io::Error::new(kind.error_kind(), InjectedFault { op, kind })
}

/// A seeded, reproducible schedule of fault events. Build one, turn it
/// into a live [`Faults`] handle with [`FaultPlan::build`], and hand
/// clones of the handle to every layer under test.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed every draw derives from. Log it; failures reproduce
    /// from it.
    pub seed: u64,
    /// Probability (per mille) that a gated *disk* operation faults.
    pub disk_per_mille: u32,
    /// Probability (per mille) that a gated *network* operation faults.
    pub net_per_mille: u32,
    /// Stop injecting after this many faults (`0` = unlimited). Chaos
    /// soaks use this to guarantee the system eventually converges.
    pub max_faults: u64,
}

impl FaultPlan {
    /// A plan with moderate default rates (2% disk, 3% net, unlimited).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            disk_per_mille: 20,
            net_per_mille: 30,
            max_faults: 0,
        }
    }

    /// Build the live injection handle for this plan.
    ///
    /// In a build without the `inject` feature the returned handle is
    /// inert (see [`injection_compiled`]).
    pub fn build(self) -> Faults {
        #[cfg(feature = "inject")]
        {
            Faults {
                inner: Some(Arc::new(Injector::new(self))),
            }
        }
        #[cfg(not(feature = "inject"))]
        {
            Faults::default()
        }
    }
}

#[cfg(feature = "inject")]
#[derive(Debug)]
struct Injector {
    plan: FaultPlan,
    active: AtomicBool,
    /// Per-site draw counters — the site-local `k` of the determinism
    /// contract.
    draws: [AtomicU64; Op::COUNT],
    /// Total faults injected (all kinds).
    injected: AtomicU64,
    /// Faults injected by kind (indexed by [`FaultKind::index`]).
    by_kind: [AtomicU64; 9],
}

#[cfg(feature = "inject")]
impl Injector {
    fn new(plan: FaultPlan) -> Injector {
        Injector {
            plan,
            active: AtomicBool::new(true),
            draws: Default::default(),
            injected: Default::default(),
            by_kind: Default::default(),
        }
    }

    /// One deterministic draw at `op`: `None` (no fault) or the kind
    /// to inject, with the fault budget and counters already applied.
    fn draw(&self, op: Op) -> Option<(FaultKind, u64)> {
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        let k = self.draws[op.index()].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(
            self.plan
                .seed
                .wrapping_add((op.index() as u64).wrapping_mul(0xD134_2543_DE82_EF95))
                .wrapping_add(k.wrapping_mul(0x2545_F491_4F6C_DD1D)),
        );
        let rate = if op.is_net() {
            self.plan.net_per_mille
        } else {
            self.plan.disk_per_mille
        };
        if h % 1000 >= u64::from(rate) {
            return None;
        }
        // Respect the budget *before* counting, so max_faults is exact.
        if self.plan.max_faults > 0 && self.injected.load(Ordering::Relaxed) >= self.plan.max_faults
        {
            return None;
        }
        let menu = op.menu();
        let kind = menu[((h / 1000) as usize) % menu.len()];
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        Some((kind, h))
    }
}

/// The injectable I/O seam: an inert handle by default, a live
/// injector when built from a [`FaultPlan`] in an `inject` build.
///
/// Cloning shares the underlying injector (and its counters): hand one
/// plan's clones to the WAL, the snapshot writer and both ends of the
/// socket and [`Faults::injected_total`] counts across all of them.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    #[cfg(feature = "inject")]
    inner: Option<Arc<Injector>>,
}

impl Faults {
    /// The inert handle (same as `Faults::default()`): every seam call
    /// is a passthrough.
    pub fn none() -> Faults {
        Faults::default()
    }

    /// True when this handle can currently inject (a live injector
    /// that has not been paused).
    pub fn is_active(&self) -> bool {
        #[cfg(feature = "inject")]
        {
            self.inner
                .as_deref()
                .is_some_and(|i| i.active.load(Ordering::Relaxed))
        }
        #[cfg(not(feature = "inject"))]
        false
    }

    /// Pause (`false`) or resume (`true`) injection. Chaos soaks call
    /// `set_active(false)` to let the system converge, then assert
    /// recovery invariants. No-op on an inert handle.
    pub fn set_active(&self, on: bool) {
        #[cfg(feature = "inject")]
        if let Some(i) = self.inner.as_deref() {
            i.active.store(on, Ordering::Relaxed);
        }
        #[cfg(not(feature = "inject"))]
        let _ = on;
    }

    /// Total faults injected through this handle (and its clones).
    pub fn injected_total(&self) -> u64 {
        #[cfg(feature = "inject")]
        {
            self.inner
                .as_deref()
                .map_or(0, |i| i.injected.load(Ordering::Relaxed))
        }
        #[cfg(not(feature = "inject"))]
        0
    }

    /// Faults injected of one kind.
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        #[cfg(feature = "inject")]
        {
            self.inner
                .as_deref()
                .map_or(0, |i| i.by_kind[kind.index()].load(Ordering::Relaxed))
        }
        #[cfg(not(feature = "inject"))]
        {
            let _ = kind;
            0
        }
    }

    /// Gate a simple operation (read, fsync, connect): `Ok(())` to
    /// proceed, an injected error to fail. A [`FaultKind::Delay`] draw
    /// sleeps briefly and proceeds.
    #[inline]
    pub fn check(&self, op: Op) -> io::Result<()> {
        #[cfg(feature = "inject")]
        if let Some(inj) = self.inner.as_deref() {
            if let Some((kind, h)) = inj.draw(op) {
                if kind == FaultKind::Delay {
                    std::thread::sleep(std::time::Duration::from_micros(50 + (h >> 10) % 1500));
                    return Ok(());
                }
                return Err(injected_error(op, kind));
            }
        }
        let _ = op;
        Ok(())
    }

    /// Gate a buffered write: passthrough `w.write_all(buf)` normally;
    /// under a [`FaultKind::ShortWrite`] / [`FaultKind::PartialWrite`]
    /// draw, a *prefix* of `buf` is actually written before the error
    /// — the torn-write crash model.
    #[inline]
    pub fn write_all<W: Write>(&self, op: Op, w: &mut W, buf: &[u8]) -> io::Result<()> {
        #[cfg(feature = "inject")]
        if let Some(inj) = self.inner.as_deref() {
            if let Some((kind, h)) = inj.draw(op) {
                match kind {
                    FaultKind::Delay => {
                        std::thread::sleep(std::time::Duration::from_micros(50 + (h >> 10) % 1500));
                    }
                    FaultKind::ShortWrite | FaultKind::PartialWrite => {
                        if !buf.is_empty() {
                            let cut = ((h >> 10) as usize) % buf.len();
                            // Best-effort: the torn prefix may itself fail.
                            let _ = w.write_all(&buf[..cut]);
                            let _ = w.flush();
                        }
                        return Err(injected_error(op, kind));
                    }
                    _ => return Err(injected_error(op, kind)),
                }
            }
        }
        let _ = op;
        w.write_all(buf)
    }

    /// Gate an atomic-rename commit: performs `std::fs::rename(from,
    /// to)` normally; under a [`FaultKind::TornRename`] draw the
    /// rename is *not* performed (temp file left, destination
    /// untouched) and the injected error returns — the crash window
    /// between tmp-write and rename, without killing the process.
    #[inline]
    pub fn rename(&self, op: Op, from: &Path, to: &Path) -> io::Result<()> {
        #[cfg(feature = "inject")]
        if let Some(inj) = self.inner.as_deref() {
            if let Some((kind, _)) = inj.draw(op) {
                if kind != FaultKind::Delay {
                    return Err(injected_error(op, kind));
                }
            }
        }
        let _ = op;
        std::fs::rename(from, to)
    }
}

impl obs::MetricsSource for Faults {
    /// Report the injection counters under the `kojak_faults_*`
    /// namespace. An inert handle contributes nothing (no zero-valued
    /// series from production builds).
    fn collect_into(&self, out: &mut obs::MetricsSnapshot) {
        #[cfg(feature = "inject")]
        if self.inner.is_some() {
            out.push_counter("kojak_faults_injected_total", self.injected_total());
            out.push_gauge("kojak_faults_active", u64::from(self.is_active()));
        }
        #[cfg(not(feature = "inject"))]
        let _ = out;
    }
}

/// A fault-wrapped byte stream: delegates to the inner `Read`/`Write`
/// with the handle's [`Op::NetRead`]/[`Op::NetWrite`] gates applied.
/// With an inert handle (or without `inject`) it is a transparent
/// newtype.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    faults: Faults,
}

impl<S> FaultStream<S> {
    /// Wrap `inner` under `faults`' network gates.
    pub fn new(inner: S, faults: &Faults) -> FaultStream<S> {
        FaultStream {
            inner,
            faults: faults.clone(),
        }
    }

    /// The wrapped stream (for socket-level calls: timeouts, shutdown).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped stream.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: io::Read> io::Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.faults.check(Op::NetRead)?;
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // write_all applies the partial-write semantics (prefix hits
        // the wire, then the connection dies); a clean pass writes the
        // whole buffer, which is a legal `write` return.
        self.faults.write_all(Op::NetWrite, &mut self.inner, buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_handle_is_a_passthrough() {
        let faults = Faults::none();
        assert!(!faults.is_active());
        assert_eq!(faults.injected_total(), 0);
        for op in [Op::WalAppend, Op::NetRead, Op::SnapshotSync] {
            assert!(faults.check(op).is_ok());
        }
        let mut sink = Vec::new();
        faults
            .write_all(Op::WalAppend, &mut sink, b"payload")
            .unwrap();
        assert_eq!(sink, b"payload");
    }

    #[test]
    fn fault_stream_over_inert_handle_is_transparent() {
        use std::io::{Read, Write};
        let mut stream = FaultStream::new(io::Cursor::new(Vec::new()), &Faults::none());
        stream.write_all(b"abc").unwrap();
        stream.get_mut().set_position(0);
        let mut back = String::new();
        stream.read_to_string(&mut back).unwrap();
        assert_eq!(back, "abc");
    }

    #[cfg(feature = "inject")]
    #[test]
    fn draws_are_deterministic_per_seed_and_site() {
        let run = |seed: u64| {
            let faults = FaultPlan {
                seed,
                disk_per_mille: 200,
                net_per_mille: 0,
                max_faults: 0,
            }
            .build();
            let mut schedule = Vec::new();
            for k in 0..200 {
                let mut sink = io::sink();
                if let Err(e) = faults.write_all(Op::WalAppend, &mut sink, b"x") {
                    schedule.push((k, injected_fault(&e).unwrap().kind));
                }
            }
            schedule
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds diverge");
        assert!(!run(7).is_empty(), "a 20% rate fires within 200 draws");
    }

    #[cfg(feature = "inject")]
    #[test]
    fn budget_pause_and_counters() {
        let faults = FaultPlan {
            seed: 3,
            disk_per_mille: 1000, // every draw faults
            net_per_mille: 1000,
            max_faults: 4,
        }
        .build();
        assert!(faults.is_active());
        let mut injected = 0;
        for _ in 0..100 {
            if faults.check(Op::WalSync).is_err() {
                injected += 1;
            }
        }
        assert_eq!(injected, 4, "the budget caps injection");
        assert_eq!(faults.injected_total(), 4);
        assert_eq!(faults.injected_of(FaultKind::FsyncError), 4);
        faults.set_active(false);
        assert!(faults.check(Op::WalSync).is_ok(), "paused handles pass");
        let mut out = obs::MetricsSnapshot::default();
        obs::MetricsSource::collect_into(&faults, &mut out);
        assert_eq!(out.counter("kojak_faults_injected_total"), 4);
    }

    #[cfg(feature = "inject")]
    #[test]
    fn short_write_leaves_a_prefix_and_torn_rename_leaves_the_tmp() {
        let faults = FaultPlan {
            seed: 11,
            disk_per_mille: 1000,
            net_per_mille: 0,
            max_faults: 0,
        }
        .build();
        // Draw until a ShortWrite comes up (the menu rotates by hash).
        let payload = vec![0xAB; 64];
        let mut saw_short = false;
        for _ in 0..64 {
            let mut sink: Vec<u8> = Vec::new();
            match faults.write_all(Op::WalAppend, &mut sink, &payload) {
                Err(e) if injected_fault(&e).unwrap().kind == FaultKind::ShortWrite => {
                    assert!(sink.len() < payload.len(), "a strict prefix");
                    assert_eq!(sink[..], payload[..sink.len()]);
                    saw_short = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(saw_short, "ShortWrite is reachable at WalAppend");

        let dir = std::env::temp_dir().join(format!("kojak-faults-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let from = dir.join("snapshot.tmp");
        let to = dir.join("snapshot.bin");
        std::fs::write(&from, b"image").unwrap();
        let err = faults
            .rename(Op::SnapshotRename, &from, &to)
            .expect_err("rate 1000 always fires");
        assert!(is_injected(&err));
        assert!(from.exists(), "temp file left in place");
        assert!(!to.exists(), "destination untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
