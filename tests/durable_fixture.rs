//! Durable state written by an earlier build still recovers.
//!
//! `tests/fixtures/durable-pr24/` holds a WAL + snapshot pair written by
//! the PR 24 build — the last one before the checksum kernel became
//! slicing-by-16 and recovery started streaming the log. It was produced
//! from the stream below (`stencil3d(9)` on 1 + 8 PEs, 62 events) by a
//! durable session with `FsyncPolicy::Never` and no automatic
//! checkpoints: the first 31 events, one `checkpoint()` mid-stream, then
//! the remaining 31 events in two batches with a `flush()` between them,
//! then a kill (the session dropped without a final flush). The snapshot
//! therefore covers the first run and the log tail the second.
//!
//! This pins the contract independently of the kernel's own tests: every
//! log and snapshot already on disk must still verify, replay to the same
//! prefix, and recover to the reports of an uninterrupted session.
//! `recover` only reads, so the committed files are opened in place.

use kojak::apprentice_sim::{archetypes, simulate_program, MachineModel};
use kojak::online::replay::replay_store;
use kojak::online::{OnlineSession, SessionConfig};
use kojak::perfdata::Store;
use std::path::Path;

fn stream() -> Vec<kojak::online::TraceEvent> {
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &archetypes::stencil3d(9),
        &MachineModel::t3e_900(),
        &[1, 8],
    );
    replay_store(&store)
}

#[test]
fn state_written_by_the_parent_build_recovers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/durable-pr24");
    let (recovered, stats) =
        OnlineSession::recover(&dir, SessionConfig::default()).expect("parent state recovers");

    // The RecoveryStats the writing build's own recovery reported.
    assert!(stats.used_snapshot);
    assert_eq!(stats.snapshot_events, 31);
    assert_eq!(stats.wal_events_replayed, 31);
    assert_eq!(stats.wal_events_rejected, 0);
    assert_eq!(stats.wal_valid_len, 1964);
    assert_eq!(stats.epoch, 1);
    assert!(!stats.wal_stale);
    assert_eq!(stats.wal_corruption, None);
    assert_eq!(stats.runs_recovered, 2);

    let events = stream();
    assert_eq!(events.len(), 62);
    let control = OnlineSession::new(SessionConfig::default());
    control.ingest_batch(&events).expect("control ingest");
    control.flush().expect("control flush");
    assert_eq!(recovered.reports(), control.reports());
    assert_eq!(
        recovered.stats().events_applied,
        control.stats().events_applied
    );
}
