//! Seam regression tests: every fault the plan injects into the WAL /
//! snapshot / recovery paths must surface as a **typed** error at the
//! public API (never a panic, never a swallowed `io::Result`), and the
//! durability contract — nothing half-applied, recovery bit-identical
//! to the accepted prefix — must hold across every injection.
//!
//! These tests compile only against an `inject` build; the dev-dep
//! feature graph of `kojak-faults` guarantees that for `cargo test -p
//! kojak-faults`, and the canary below fails loudly if it ever stops
//! being true.

use apprentice_sim::{simulate_program, MachineModel, ProgramGenerator};
use faults::{FaultPlan, Faults};
use online::replay::replay_store;
use online::{
    DurableConfig, FlushError, FsyncPolicy, IngestError, OnlineSession, SessionConfig, TraceEvent,
};
use perfdata::Store;
use std::path::PathBuf;

/// A fresh scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("kojak-seam-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sim_events(seed: u64) -> Vec<TraceEvent> {
    let gen = ProgramGenerator {
        seed,
        functions: 2,
        max_depth: 3,
        max_fanout: 3,
        base_work: 0.01,
        comm_probability: 0.6,
    };
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &gen.generate(),
        &MachineModel::t3e_900(),
        &[1, 8],
    );
    replay_store(&store)
}

fn control_session(events: &[TraceEvent]) -> OnlineSession {
    let session = OnlineSession::new(SessionConfig::default());
    session.ingest_batch(events).expect("control ingest");
    session.flush().expect("control flush");
    session
}

fn config(faults: &Faults, snapshot_every_flushes: u32) -> DurableConfig {
    DurableConfig {
        session: SessionConfig::default(),
        fsync: FsyncPolicy::Never,
        snapshot_every_flushes,
        faults: faults.clone(),
    }
}

/// The feature-graph canary: these suites are worthless if the `inject`
/// feature silently fell off the build.
#[test]
fn injection_is_compiled_into_this_test_build() {
    assert!(
        faults::injection_compiled(),
        "kojak-faults test builds must enable the `inject` feature"
    );
}

/// Satellite (WAL audit): an injected append failure must surface as
/// the typed `IngestError::Wal` — carrying the failing op and the
/// injected provenance — and must leave *nothing* behind: no frame in
/// the log, no event in the store. Retrying the identical batch cannot
/// double-apply, and recovery equals the accepted prefix bit for bit.
#[test]
fn wal_append_faults_are_typed_and_apply_nothing() {
    let events = sim_events(11);
    let faults = FaultPlan {
        seed: 0xA11CE,
        disk_per_mille: 300,
        net_per_mille: 0,
        max_faults: 0,
    }
    .build();

    let dir = ScratchDir::new("wal-append");
    // No snapshots, no fsync: the only gated disk ops are WAL appends.
    // (Recovery is gated too — pause injection for the fresh open, this
    // test targets the append seam.)
    faults.set_active(false);
    let durable = OnlineSession::open(&dir.0, config(&faults, 0)).expect("open");
    faults.set_active(true);
    let mut rejections = 0u32;
    for batch in events.chunks(13) {
        loop {
            match durable.ingest_batch(batch) {
                Ok(n) => {
                    assert_eq!(n, batch.len());
                    break;
                }
                Err(IngestError::Wal { detail, .. }) => {
                    // Typed, and provably from the plan: the rendered
                    // source carries the injection payload.
                    assert!(
                        detail.contains("injected"),
                        "only injected faults can fire here: {detail}"
                    );
                    rejections += 1;
                    assert!(rejections < 10_000, "retry must converge");
                    // Append atomicity: the failed batch left no frame
                    // behind, so this bare retry cannot double-log.
                }
                Err(other) => panic!("append fault must stay typed, got {other}"),
            }
        }
    }
    assert!(rejections > 0, "a 30% rate must fire on this stream");
    assert_eq!(faults.injected_total(), u64::from(rejections));
    durable.flush().expect("flush (no gated ops)");

    // Satellite (metrics): the injection counters ride the session's
    // metrics snapshot under the kojak_faults_* namespace.
    let metrics = durable.metrics();
    assert_eq!(
        metrics.counter("kojak_faults_injected_total"),
        faults.injected_total()
    );
    assert_eq!(metrics.gauge("kojak_faults_active"), Some(1));

    let control = control_session(&events);
    assert_eq!(durable.reports(), control.reports());
    drop(durable);

    // The log holds exactly the accepted history: recovery replays it
    // to a bit-identical session.
    faults.set_active(false);
    let reopened = OnlineSession::open(&dir.0, config(&faults, 0)).expect("recover");
    assert_eq!(
        reopened.recovery().wal_events_replayed,
        events.len() as u64,
        "every accepted event, no duplicates"
    );
    assert_eq!(reopened.reports(), control.reports());
    assert_eq!(
        reopened.stats().events_applied,
        control.stats().events_applied
    );
}

/// Satellite (snapshot audit): checkpoint faults (temp create/write,
/// fsync, torn rename, log truncation) surface as the typed
/// `FlushError` checkpoint variants, never compromise the WAL, and a
/// torn rename leaves the crash window exactly as recovery expects it
/// (temp file present, committed snapshot untouched).
#[test]
fn checkpoint_faults_never_compromise_durability() {
    let events = sim_events(29);
    let faults = FaultPlan {
        seed: 0xBEEF,
        disk_per_mille: 250,
        net_per_mille: 0,
        max_faults: 0,
    }
    .build();

    let dir = ScratchDir::new("checkpoint");
    faults.set_active(false);
    let durable = OnlineSession::open(&dir.0, config(&faults, 0)).expect("open");
    faults.set_active(true);
    let mut checkpoint_failures = 0u32;
    let mut ingested = 0usize;
    for batch in events.chunks(17) {
        loop {
            match durable.ingest_batch(batch) {
                Ok(_) => break,
                Err(IngestError::Wal { .. }) => continue,
                Err(other) => panic!("unexpected ingest error: {other}"),
            }
        }
        ingested += batch.len();
        durable.flush().expect("flush itself has no gated ops");
        // Explicit checkpoint under fire: each failure must be one of
        // the typed checkpoint variants, after which recovery from disk
        // still reproduces every accepted event.
        if let Err(e) = durable.checkpoint() {
            match e {
                FlushError::Snapshot { .. } | FlushError::WalTruncate { .. } => {
                    checkpoint_failures += 1
                }
                other => panic!("checkpoint fault must stay typed, got {other}"),
            }
            let (recovered, stats) =
                OnlineSession::recover(&dir.0, SessionConfig::default()).expect("recover");
            assert_eq!(
                stats.snapshot_events + stats.wal_events_replayed,
                ingested as u64,
                "snapshot + tail must cover the accepted prefix"
            );
            assert_eq!(
                recovered.stats().events_applied,
                ingested as u64,
                "no event lost or double-applied after checkpoint fault"
            );
        }
    }
    assert!(
        checkpoint_failures > 0,
        "a 25% rate across 5 gated checkpoint ops must fire"
    );

    // Faults off: the next checkpoint commits (over whatever temp-file
    // debris the torn renames left), and recovery uses it.
    faults.set_active(false);
    durable.checkpoint().expect("repaired checkpoint");
    drop(durable);
    let reopened = OnlineSession::open(&dir.0, config(&Faults::none(), 0)).expect("recover");
    assert!(reopened.recovery().used_snapshot);
    let control = control_session(&events);
    assert_eq!(reopened.reports(), control.reports());
}

/// Satellite (recovery audit): injected read failures during recovery
/// surface as the typed `RecoveryError::Io` — not a panic, not a
/// silently empty session — and a fault-free retry of the same
/// directory recovers everything.
#[test]
fn recovery_read_faults_are_typed_and_retryable() {
    let events = sim_events(47);
    let clean = Faults::none();
    let dir = ScratchDir::new("recovery-read");
    {
        let durable = OnlineSession::open(&dir.0, config(&clean, 2)).expect("open");
        for batch in events.chunks(19) {
            durable.ingest_batch(batch).expect("ingest");
            durable.flush().expect("flush");
        }
        // Killed: snapshot + WAL tail on disk.
    }

    let faults = FaultPlan {
        seed: 0x5EED,
        disk_per_mille: 1000, // every recovery read fails
        net_per_mille: 0,
        max_faults: 0,
    }
    .build();
    match OnlineSession::open(&dir.0, config(&faults, 2)) {
        Err(online::RecoveryError::Io(source)) => {
            assert!(faults::is_injected(&source), "typed + provenance");
        }
        Ok(_) => panic!("recovery must fail under a 100% read-fault rate"),
        Err(other) => panic!("recovery fault must stay typed, got {other}"),
    }

    // The failure was injected, not real: a clean retry sees everything.
    faults.set_active(false);
    let reopened = OnlineSession::open(&dir.0, config(&faults, 2)).expect("clean retry");
    let control = control_session(&events);
    assert_eq!(reopened.reports(), control.reports());
    assert_eq!(
        reopened.stats().events_applied,
        control.stats().events_applied
    );
}
