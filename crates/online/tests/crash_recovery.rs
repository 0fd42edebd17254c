//! Crash-recovery edge cases of a durable [`OnlineSession`]: the WAL
//! round-trips the wire encoding exactly, recovered counters report the
//! replayed history, a kill mid-checkpoint falls back to the previous
//! snapshot, and a missing or empty directory is a fresh session.
//!
//! That a session killed at any event and recovered serves the reports of
//! an uninterrupted one is part of the contract every engine shape is
//! held to, in `tests/shapes.rs`.

use online::replay::{events_for_run, replay_store};
use online::{OnlineSession, SessionConfig, TraceEvent};
use perfdata::{Store, TestRunId};
use testkit::{durable_config, uninterrupted, Program, Scenario, ScratchDir};

/// Stream `events` into a fresh durable session in `chunk`-sized batches
/// (flushing after each), then "kill" it by dropping without a close.
fn stream_and_kill(dir: &ScratchDir, events: &[TraceEvent], chunk: usize, snapshot_every: u32) {
    let durable = OnlineSession::open(dir.path(), durable_config(snapshot_every)).expect("open");
    for batch in events.chunks(chunk.max(1)) {
        durable.ingest_batch(batch).expect("durable ingest");
        durable.flush().expect("durable flush");
    }
    // Process killed here: no checkpoint, no graceful shutdown.
}

/// A simulated two-run store with call statistics, normalized through one
/// replay round-trip (the oracle's store is rebuilt from the stream): a
/// replay fixpoint, so the strict WAL ≡ `events_for_run` claim is exact.
fn fixpoint_store() -> Store {
    let scenario = Scenario {
        program: Program::ParticleMc,
        pes: vec![1, 8],
        ..Scenario::new(5)
    };
    testkit::oracle(&scenario.spec(), &scenario.events()).store
}

#[test]
fn recovered_store_reproduces_the_wal_event_sequence() {
    // Satellite: `events_for_run` on a recovered store must reproduce the
    // exact event sequence the WAL holds — a full round-trip of the wire
    // encoding including the RunKey/VersionTag maps.
    let store = fixpoint_store();
    let events = replay_store(&store);

    let dir = ScratchDir::new("wal-replay");
    // No snapshots: the WAL must hold the entire history.
    stream_and_kill(&dir, &events, 64, 0);

    // 1. The log round-trips the wire encoding exactly.
    let wal = online::wal::read_wal(&dir.path().join(online::durable::WAL_FILE)).expect("read wal");
    assert!(wal.corruption.is_none());
    assert_eq!(wal.events, events, "wire round-trip through the WAL");

    // 2. Replaying the recovered store regenerates that exact sequence,
    //    run by run (RunKey/VersionTag maps included).
    let (recovered, _) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("recover");
    let recovered_store = recovered.store_snapshot();
    let mut regenerated = Vec::new();
    for run in 0..recovered_store.runs.len() as u32 {
        regenerated.extend(events_for_run(&recovered_store, TestRunId(run)));
    }
    assert_eq!(
        regenerated, wal.events,
        "events_for_run over recovered store"
    );
}

#[test]
fn recovered_session_stats_report_replayed_counts() {
    // Satellite regression: SessionStats after recovery must report the
    // replayed history, not zeros.
    let events = Scenario {
        pes: vec![1, 8],
        ..Scenario::new(123)
    }
    .events();

    let dir = ScratchDir::new("stats");
    stream_and_kill(&dir, &events, 32, 3); // snapshot mid-stream + WAL tail

    let control = uninterrupted(&events);
    let (recovered, stats) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("recover");

    let s = recovered.stats();
    assert!(stats.used_snapshot, "checkpoint must have fired");
    assert_eq!(s.events_applied, control.stats().events_applied);
    assert_eq!(s.events_replayed, events.len() as u64);
    assert_eq!(s.runs_finished, control.stats().runs_finished);
    assert!(s.flushes > 0, "recovery flush must be counted");
    assert_eq!(stats.runs_recovered, control.reports().len());
}

#[test]
fn kill_mid_snapshot_write_falls_back_to_the_previous_snapshot() {
    // Satellite: a crash *during* a checkpoint leaves a torn
    // `snapshot.tmp` behind — the committed `snapshot.bin` is untouched
    // (writes are tmp+rename-atomic), so recovery must ignore the tmp,
    // load the previous snapshot, and replay the WAL tail bit-identically.
    let events = Scenario {
        functions: 3,
        pes: vec![1, 8],
        ..Scenario::new(4242)
    }
    .events();
    let cut = events.len() * 3 / 4;

    let dir = ScratchDir::new("mid-snapshot");
    // snapshot_every = 2 with chunk 16: snapshots fire mid-stream, and a
    // WAL tail accumulates after the last one.
    stream_and_kill(&dir, &events[..cut], 16, 2);
    let snapshot_path = dir.path().join(online::durable::SNAPSHOT_FILE);
    assert!(snapshot_path.exists(), "a checkpoint must have committed");
    let committed = std::fs::read(&snapshot_path).expect("committed snapshot");

    // The kill hit mid-checkpoint: a torn, garbage tmp sits next to the
    // committed snapshot (the prefix of a never-finished write).
    std::fs::write(dir.path().join("snapshot.tmp"), b"KJSN torn mid-write").expect("torn tmp");

    let (recovered, stats) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("recover");
    assert!(stats.used_snapshot, "previous snapshot must be used");
    assert!(stats.wal_corruption.is_none());
    assert_eq!(
        std::fs::read(&snapshot_path).expect("snapshot after recovery"),
        committed,
        "recovery must not disturb the committed snapshot"
    );
    let control = uninterrupted(&events[..cut]);
    assert_eq!(recovered.reports(), control.reports(), "mid-snapshot kill");
    assert_eq!(
        recovered.stats().events_applied,
        control.stats().events_applied
    );

    // Resuming over the leftover tmp must not trip the next checkpoint:
    // the tmp is overwritten and the rename commits a fresh snapshot.
    let resumed = OnlineSession::open(dir.path(), durable_config(1)).expect("reopen");
    for batch in events[cut..].chunks(16) {
        resumed.ingest_batch(batch).expect("resumed ingest");
        resumed.flush().expect("resumed flush");
    }
    resumed.checkpoint().expect("checkpoint over leftover tmp");
    let full_control = uninterrupted(&events);
    assert_eq!(resumed.reports(), full_control.reports(), "resumed");
    assert_ne!(
        std::fs::read(&snapshot_path).expect("fresh snapshot"),
        committed,
        "the repaired checkpoint must commit a newer snapshot"
    );
}

#[test]
fn recovery_of_empty_or_missing_directory_is_a_fresh_session() {
    let dir = ScratchDir::new("fresh");
    // Missing directory entirely.
    let (session, stats) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("missing dir");
    assert!(!stats.used_snapshot);
    assert_eq!(stats.wal_events_replayed, 0);
    assert_eq!(session.stats().events_applied, 0);
    assert!(session.reports().is_empty());

    // Existing but empty directory.
    std::fs::create_dir_all(dir.path()).unwrap();
    let (session, stats) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("empty dir");
    assert!(!stats.used_snapshot);
    assert_eq!(session.stats().events_replayed, 0);
}
