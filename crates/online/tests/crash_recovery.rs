//! Crash-recovery correctness: a durable [`OnlineSession`] killed at an
//! arbitrary event index and recovered must produce live reports
//! **bit-identical** — same severities, same error kinds, same rank order,
//! same `ContextDesc` ids — to an uninterrupted session over the same
//! event prefix. The proptest below cuts random event streams at random
//! indices, with and without a mid-stream checkpoint, and compares with
//! plain `assert_eq!` (no tolerances).
//!
//! The shim proptest RNG is deterministic per (test name, case index), so
//! CI runs these cases with a fixed seed by construction.

use apprentice_sim::{simulate_program, MachineModel, ProgramGenerator};
use cosy::AnalysisReport;
use online::replay::{events_for_run, replay_store};
use online::{DurableConfig, FsyncPolicy, OnlineSession, RunKey, SessionConfig, TraceEvent};
use perfdata::{Store, TestRunId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

/// A fresh scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("kojak-crash-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sim_store(seed: u64, functions: usize, pe: &[u32]) -> Store {
    let gen = ProgramGenerator {
        seed,
        functions,
        max_depth: 3,
        max_fanout: 3,
        base_work: 0.01,
        comm_probability: 0.6,
    };
    let mut store = Store::new();
    simulate_program(&mut store, &gen.generate(), &MachineModel::t3e_900(), pe);
    store
}

/// An uninterrupted in-memory session over `events`, flushed once.
fn control_session(events: &[TraceEvent]) -> OnlineSession {
    let session = OnlineSession::new(SessionConfig::default());
    session.ingest_batch(events).expect("control ingest");
    session.flush().expect("control flush");
    session
}

fn durable_config(snapshot_every_flushes: u32) -> DurableConfig {
    DurableConfig {
        session: SessionConfig::default(),
        // Same-machine kill: page-cache durability is what the test can
        // observe, and skipping fsync keeps the proptest fast.
        fsync: FsyncPolicy::Never,
        snapshot_every_flushes,
        faults: Default::default(),
    }
}

/// Stream `events` into a fresh durable session in `chunk`-sized batches
/// (flushing after each), then "kill" it by dropping without a close.
fn stream_and_kill(dir: &ScratchDir, events: &[TraceEvent], chunk: usize, snapshot_every: u32) {
    let durable = OnlineSession::open(&dir.0, durable_config(snapshot_every)).expect("open");
    for batch in events.chunks(chunk.max(1)) {
        durable.ingest_batch(batch).expect("durable ingest");
        durable.flush().expect("durable flush");
    }
    // Process killed here: no checkpoint, no graceful shutdown.
}

fn assert_bit_identical(
    recovered: &HashMap<RunKey, AnalysisReport>,
    control: &HashMap<RunKey, AnalysisReport>,
    what: &str,
) {
    let mut keys: Vec<_> = control.keys().copied().collect();
    keys.sort();
    let mut recovered_keys: Vec<_> = recovered.keys().copied().collect();
    recovered_keys.sort();
    assert_eq!(recovered_keys, keys, "{what}: report key sets differ");
    for key in keys {
        // Plain equality: severities, ranks, context ids, labels, skipped
        // counts — everything, bit for bit.
        assert_eq!(recovered[&key], control[&key], "{what}: report for {key}");
    }
}

/// Default to a handful of cases (each simulates, streams, kills, and
/// recovers — expensive); CI widens the sweep via `PROPTEST_CASES`.
fn configured_cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    ProptestConfig::with_cases(cases)
}

proptest! {
    // The deterministic shim RNG keys each case on (test name, case
    // index), so every run of case k replays the same stream and cut.
    #![proptest_config(configured_cases())]

    #[test]
    fn random_cut_recovers_bit_identical(
        seed in 0u64..10_000,
        functions in 1usize..4,
        pe in prop_oneof![Just(4u32), Just(8), Just(16)],
        cut_permille in 0usize..1000,
        chunk in prop_oneof![Just(3usize), Just(17), Just(128)],
        snapshot_every in prop_oneof![Just(0u32), Just(1), Just(4)],
    ) {
        let store = sim_store(seed, functions, &[1, pe]);
        let events = replay_store(&store);
        let cut = events.len() * cut_permille / 1000;
        let prefix = &events[..cut];

        let dir = ScratchDir::new(&format!("prop-{seed}-{cut_permille}-{snapshot_every}"));
        stream_and_kill(&dir, prefix, chunk, snapshot_every);

        let (recovered, stats) =
            OnlineSession::recover(&dir.0, SessionConfig::default()).expect("recover");
        let control = control_session(prefix);

        // The recovered store is arena-identical, not merely equivalent.
        prop_assert_eq!(recovered.store_snapshot(), control.store_snapshot());
        assert_bit_identical(
            &recovered.reports(),
            &control.reports(),
            &format!("seed={seed} cut={cut}/{} snap={snapshot_every}", events.len()),
        );
        // Nothing of the accepted prefix may be lost: snapshot + tail
        // account for every applied event.
        prop_assert_eq!(
            recovered.stats().events_applied,
            control.stats().events_applied
        );
        prop_assert_eq!(
            stats.snapshot_events + stats.wal_events_replayed,
            prefix.len() as u64
        );
        prop_assert!(stats.wal_corruption.is_none());
    }
}

#[test]
fn kill_resume_continues_to_the_same_end_state() {
    // Kill mid-stream, recover, stream the remainder through a *new*
    // durable session: the end state must match a never-killed session.
    let store = sim_store(77, 3, &[1, 4, 16]);
    let events = replay_store(&store);
    let cut = events.len() / 2;

    let dir = ScratchDir::new("kill-resume");
    stream_and_kill(&dir, &events[..cut], 23, 2);

    let resumed = OnlineSession::open(&dir.0, durable_config(2)).expect("reopen");
    assert!(resumed.recovery().snapshot_events + resumed.recovery().wal_events_replayed > 0);
    for batch in events[cut..].chunks(23) {
        resumed.ingest_batch(batch).expect("resumed ingest");
        resumed.flush().expect("resumed flush");
    }

    let control = control_session(&events);
    assert_eq!(resumed.store_snapshot(), control.store_snapshot());
    assert_bit_identical(&resumed.reports(), &control.reports(), "kill-resume");
    assert_eq!(
        resumed.stats().events_applied,
        control.stats().events_applied
    );
    assert_eq!(resumed.stats().runs_finished, control.stats().runs_finished);
}

/// Hand-built two-run store with call statistics in both runs — a replay
/// fixpoint (`replay_reconstructs_identical_store` shape), so the strict
/// WAL ≡ `events_for_run` claim is exact.
fn fixpoint_store() -> Store {
    use online::StoreBuilder;
    let mut sim = Store::new();
    let machine = MachineModel::t3e_900();
    simulate_program(
        &mut sim,
        &apprentice_sim::archetypes::particle_mc(5),
        &machine,
        &[1, 8],
    );
    // Normalize through one replay round-trip: the result is reconstructed
    // from its own event stream, so a second round-trip is exact.
    let mut builder = StoreBuilder::new();
    let mut delta = online::StoreDelta::new();
    for event in replay_store(&sim) {
        builder.apply(&event, &mut delta).expect("normalize");
    }
    builder.store().clone()
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
    let wal = online::wal::read_wal(&dir.0.join(online::durable::WAL_FILE)).expect("read wal");
    assert!(wal.corruption.is_none());
    assert_eq!(wal.events, events, "wire round-trip through the WAL");

    // 2. Replaying the recovered store regenerates that exact sequence,
    //    run by run (RunKey/VersionTag maps included).
    let (recovered, _) = OnlineSession::recover(&dir.0, SessionConfig::default()).expect("recover");
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
    let store = sim_store(123, 2, &[1, 8]);
    let events = replay_store(&store);

    let dir = ScratchDir::new("stats");
    stream_and_kill(&dir, &events, 32, 3); // snapshot mid-stream + WAL tail

    let control = control_session(&events);
    let (recovered, stats) =
        OnlineSession::recover(&dir.0, SessionConfig::default()).expect("recover");

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
    let store = sim_store(4242, 3, &[1, 8]);
    let events = replay_store(&store);
    let cut = events.len() * 3 / 4;

    let dir = ScratchDir::new("mid-snapshot");
    // snapshot_every = 2 with chunk 16: snapshots fire mid-stream, and a
    // WAL tail accumulates after the last one.
    stream_and_kill(&dir, &events[..cut], 16, 2);
    let snapshot_path = dir.0.join(online::durable::SNAPSHOT_FILE);
    assert!(snapshot_path.exists(), "a checkpoint must have committed");
    let committed = std::fs::read(&snapshot_path).expect("committed snapshot");

    // The kill hit mid-checkpoint: a torn, garbage tmp sits next to the
    // committed snapshot (the prefix of a never-finished write).
    std::fs::write(dir.0.join("snapshot.tmp"), b"KJSN torn mid-write").expect("torn tmp");

    let (recovered, stats) =
        OnlineSession::recover(&dir.0, SessionConfig::default()).expect("recover");
    assert!(stats.used_snapshot, "previous snapshot must be used");
    assert!(stats.wal_corruption.is_none());
    assert_eq!(
        std::fs::read(&snapshot_path).expect("snapshot after recovery"),
        committed,
        "recovery must not disturb the committed snapshot"
    );
    let control = control_session(&events[..cut]);
    assert_bit_identical(
        &recovered.reports(),
        &control.reports(),
        "mid-snapshot kill",
    );
    assert_eq!(
        recovered.stats().events_applied,
        control.stats().events_applied
    );

    // Resuming over the leftover tmp must not trip the next checkpoint:
    // the tmp is overwritten and the rename commits a fresh snapshot.
    let resumed = OnlineSession::open(&dir.0, durable_config(1)).expect("reopen");
    for batch in events[cut..].chunks(16) {
        resumed.ingest_batch(batch).expect("resumed ingest");
        resumed.flush().expect("resumed flush");
    }
    resumed.checkpoint().expect("checkpoint over leftover tmp");
    let full_control = control_session(&events);
    assert_bit_identical(&resumed.reports(), &full_control.reports(), "resumed");
    assert_ne!(
        std::fs::read(&snapshot_path).expect("fresh snapshot"),
        committed,
        "the repaired checkpoint must commit a newer snapshot"
    );
}

/// A suite with a user property (`IoContention`, whose reads the standard
/// suite's dirtiness rules do not cover) survives a kill like the standard
/// one: the session is killed once every run is reported, recovered, and
/// only then sent a correction of the reference run's I/O time — the end
/// state is that of a never-killed session.
#[test]
fn custom_property_kill_resume_matches_an_uninterrupted_session() {
    let src = format!(
        "{}\n{}",
        cosy::standard_suite_source(),
        include_str!("../../../examples/specs/io_contention.asl")
    );
    let session = SessionConfig {
        spec: Some(std::sync::Arc::new(
            asl_core::parse_and_check(&src).unwrap(),
        )),
        ..SessionConfig::default()
    };
    let config = || DurableConfig {
        session: session.clone(),
        ..durable_config(2)
    };
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &apprentice_sim::archetypes::spectral_io(11),
        &MachineModel::t3e_900(),
        &[2, 16, 64],
    );
    let events = replay_store(&store);
    let reference_io = |e: &&TraceEvent| {
        use perfdata::TimingType::{IoRead, IoWrite};
        matches!(
            e,
            TraceEvent::TypedSample {
                run: RunKey(0),
                ty: IoRead | IoWrite,
                ..
            }
        )
    };
    let mut correction = events.iter().rfind(reference_io).unwrap().clone();
    if let TraceEvent::TypedSample { time, .. } = &mut correction {
        *time *= 0.5;
    }

    let dir = ScratchDir::new("custom-property");
    {
        let durable = OnlineSession::open(&dir.0, config()).expect("open");
        for batch in events.chunks(29) {
            durable.ingest_batch(batch).expect("durable ingest");
            durable.flush().expect("durable flush");
        }
        // Killed here.
    }
    let resumed = OnlineSession::open(&dir.0, config()).expect("reopen");
    assert!(resumed.recovery().used_snapshot);
    let before = resumed.reports();
    resumed.ingest(&correction).expect("correction");
    resumed.flush().expect("resumed flush");

    let control = OnlineSession::new(session.clone());
    control.ingest_batch(&events).expect("control ingest");
    control.ingest(&correction).expect("control correction");
    control.flush().expect("control flush");
    assert_eq!(resumed.store_snapshot(), control.store_snapshot());
    assert_bit_identical(&resumed.reports(), &control.reports(), "custom property");
    // The correction was addressed to run 0 and moved run 2's report.
    assert_ne!(before[&RunKey(2)], control.reports()[&RunKey(2)]);
    let held = |e: &cosy::RankedEntry| e.property == "IoContention";
    assert!(control.reports()[&RunKey(2)].entries.iter().any(held));
}

#[test]
fn recovery_of_empty_or_missing_directory_is_a_fresh_session() {
    let dir = ScratchDir::new("fresh");
    // Missing directory entirely.
    let (session, stats) =
        OnlineSession::recover(&dir.0, SessionConfig::default()).expect("missing dir");
    assert!(!stats.used_snapshot);
    assert_eq!(stats.wal_events_replayed, 0);
    assert_eq!(session.stats().events_applied, 0);
    assert!(session.reports().is_empty());

    // Existing but empty directory.
    std::fs::create_dir_all(&dir.0).unwrap();
    let (session, stats) =
        OnlineSession::recover(&dir.0, SessionConfig::default()).expect("empty dir");
    assert!(!stats.used_snapshot);
    assert_eq!(session.stats().events_replayed, 0);
}
