//! A log written before batch frames keeps working under this build:
//! recovered, appended to, killed and recovered again.
//!
//! `tests/fixtures/durable-pr24/` holds a WAL of one-event frames and a
//! snapshot, written by the PR 24 build from `stencil3d(9)` on 1 + 8 PEs
//! (62 events; see `tests/durable_fixture.rs`, which recovers the files
//! in place). Here a copy is opened for writing: recovery replays its
//! one-event frames, the session appends batch frames behind them, and
//! after a kill the mixed log recovers to the reports of an uninterrupted
//! session over the whole history.

use kojak::apprentice_sim::{archetypes, simulate_program, MachineModel};
use kojak::online::durable::{SNAPSHOT_FILE, WAL_FILE};
use kojak::online::replay::replay_store;
use kojak::online::wal::read_wal;
use kojak::online::{OnlineSession, SessionConfig, TraceEvent};
use kojak::perfdata::Store;
use std::path::Path;
use testkit::{durable_config, uninterrupted, ScratchDir};

fn stream() -> Vec<TraceEvent> {
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &archetypes::stencil3d(9),
        &MachineModel::t3e_900(),
        &[1, 8],
    );
    replay_store(&store)
}

/// The stream's timings re-sent at `share` of their values: late
/// refinements, valid after the stream.
fn refinements(events: &[TraceEvent], share: f64) -> Vec<TraceEvent> {
    events
        .iter()
        .filter_map(|event| match event.clone() {
            TraceEvent::RegionExited {
                run,
                function,
                region,
                excl,
                incl,
                ovhd,
            } => Some(TraceEvent::RegionExited {
                run,
                function,
                region,
                excl: excl * share,
                incl: incl * share,
                ovhd: ovhd * share,
            }),
            TraceEvent::TypedSample {
                run,
                function,
                region,
                ty,
                time,
            } => Some(TraceEvent::TypedSample {
                run,
                function,
                region,
                ty,
                time: time * share,
            }),
            _ => None,
        })
        .collect()
}

#[test]
fn a_log_of_event_frames_takes_batch_frames_and_recovers_after_a_kill() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/durable-pr24");
    let dir = ScratchDir::new("pr24-append");
    std::fs::create_dir_all(dir.path()).unwrap();
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        std::fs::copy(fixture.join(file), dir.path().join(file)).unwrap();
    }
    let old_log = std::fs::read(dir.path().join(WAL_FILE)).unwrap();

    let mut history = stream();
    assert_eq!(history.len(), 62);
    let appended = [refinements(&history, 1.5), refinements(&history, 0.75)];
    {
        let session = OnlineSession::open(dir.path(), durable_config(0)).expect("open the copy");
        assert_eq!(session.recovery().wal_events_replayed, 31);
        for batch in &appended {
            session.ingest_batch(batch).expect("append");
            session.flush().expect("flush");
        }
        // Killed: dropped without a checkpoint.
    }
    for batch in &appended {
        history.extend_from_slice(batch);
    }

    // The old frames are where they were; the new ones follow them.
    let log = std::fs::read(dir.path().join(WAL_FILE)).unwrap();
    assert_eq!(&log[..old_log.len()], &old_log[..]);
    let read = read_wal(&dir.path().join(WAL_FILE)).expect("read the mixed log");
    assert!(read.corruption.is_none());
    assert_eq!(read.events[..], history[31..]);

    let (recovered, stats) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("recover");
    assert_eq!(stats.wal_events_replayed, (history.len() - 31) as u64);
    assert_eq!(stats.wal_corruption, None);
    let control = uninterrupted(&history);
    assert_eq!(recovered.reports(), control.reports());
    assert_eq!(
        recovered.stats().events_applied,
        control.stats().events_applied
    );
}
