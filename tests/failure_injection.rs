//! Failure injection: the analyzer must degrade gracefully on incomplete
//! or irregular databases (missing timings, runs without data, empty
//! versions) — the situations a real tool meets when instrumentation is
//! partial. The durable-session cases below inject storage failures —
//! torn WAL tails, flipped checksum bytes, stale snapshots, corrupt
//! snapshot payloads — and require recovery to the last consistent point
//! with a typed error/skip report, never a panic.

use kojak::apprentice_sim::{archetypes, simulate_program, MachineModel};
use kojak::cosy::{Analyzer, Backend, ProblemThreshold};
use kojak::online::durable::{RecoveryError, RecoveryStats, REPLAY_CHUNK, SNAPSHOT_FILE, WAL_FILE};
use kojak::online::wal::{read_wal, WalCorruptionKind};
use kojak::online::{BatchEncoder, OnlineSession, SessionConfig, TraceEvent};
use kojak::perfdata::{DateTime, RegionKind, Store};
use testkit::{durable_config, uninterrupted, Program, Scenario, ScratchDir};

#[test]
fn run_without_any_timings_is_all_skipped() {
    let mut store = Store::new();
    let p = store.add_program("sparse");
    let v = store.add_version(p, DateTime::from_secs(0), "");
    let _bare_run = store.add_run(v, DateTime::from_secs(1), 8, 450);
    let f = store.add_function(v, "main");
    store.add_region(f, None, RegionKind::Subprogram, "main", (1, 10));

    let run = store.versions[v.index()].runs[0];
    let report = Analyzer::new(&store, v)
        .unwrap()
        .analyze(run, Backend::Interpreter, ProblemThreshold::default())
        .unwrap();
    assert!(report.entries.is_empty());
    assert!(!report.needs_tuning());
    assert!(report.skipped > 0);
}

#[test]
fn partially_instrumented_version_analyzes() {
    // Simulate two runs, then strip every timing of one region (as if the
    // compiler optimized its instrumentation away).
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    let v = simulate_program(&mut store, &archetypes::particle_mc(5), &machine, &[1, 8]);
    let victim = store.versions[v.index()]
        .functions
        .iter()
        .flat_map(|f| store.functions[f.index()].regions.iter().copied())
        .nth(2)
        .unwrap();
    store.regions[victim.index()].tot_times.clear();
    store.regions[victim.index()].typ_times.clear();

    let run = store.versions[v.index()].runs[1];
    for backend in [Backend::Interpreter, Backend::Sql, Backend::SqlBatched] {
        let report = Analyzer::new(&store, v)
            .unwrap()
            .analyze(run, backend, ProblemThreshold::default())
            .unwrap();
        assert!(
            report
                .entries
                .iter()
                .all(|e| e.context.region != Some(victim.0)),
            "{backend:?}: stripped region must not appear"
        );
        assert!(
            !report.entries.is_empty(),
            "{backend:?}: other regions still analyzed"
        );
    }
}

#[test]
fn zero_duration_basis_is_not_a_crash() {
    // A basis region with zero inclusive time: severity division by zero
    // must surface as an error or a skip, never a panic.
    let mut store = Store::new();
    let p = store.add_program("zero");
    let v = store.add_version(p, DateTime::from_secs(0), "");
    let r1 = store.add_run(v, DateTime::from_secs(1), 1, 450);
    let r2 = store.add_run(v, DateTime::from_secs(2), 4, 450);
    let f = store.add_function(v, "main");
    let root = store.add_region(f, None, RegionKind::Subprogram, "main", (1, 10));
    store.add_total_timing(root, r1, 0.0, 0.0, 0.0);
    store.add_total_timing(root, r2, 0.0, 0.0, 0.1);

    let result = Analyzer::new(&store, v).unwrap().analyze(
        r2,
        Backend::Interpreter,
        ProblemThreshold::default(),
    );
    // MeasuredCost holds (Ovhd > 0) but its severity divides by
    // Duration(Basis) == 0 — the interpreter reports the evaluation error.
    assert!(result.is_err(), "division by zero must be reported");
}

#[test]
fn single_run_version_reports_no_speedup_loss() {
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    let v = simulate_program(&mut store, &archetypes::stencil3d(1), &machine, &[16]);
    let run = store.versions[v.index()].runs[0];
    let report = Analyzer::new(&store, v)
        .unwrap()
        .analyze(run, Backend::Interpreter, ProblemThreshold::default())
        .unwrap();
    // The only run is its own reference: no lost cycles.
    assert_eq!(report.total_cost, 0.0);
    assert!(report
        .entries
        .iter()
        .all(|e| e.property != "SublinearSpeedup"));
}

#[test]
fn duplicate_timing_is_caught_before_analysis() {
    // A corrupted import (duplicate TotalTiming) violates the §4.1
    // uniqueness invariant; validation reports it, and the interpreter's
    // UNIQUE raises Ambiguous rather than silently picking one.
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    let v = simulate_program(&mut store, &archetypes::stencil3d(1), &machine, &[1, 4]);
    let dup = store.total_timings[0].clone();
    let region = dup.region;
    store.total_timings.push(dup);
    let id = kojak::perfdata::TotalTimingId((store.total_timings.len() - 1) as u32);
    store.regions[region.index()].tot_times.push(id);

    let violations = kojak::perfdata::validate(&store);
    assert!(violations.iter().any(|x| x.rule == "unique-total-timing"));

    let run = store.total_timings[0].run;
    let result = Analyzer::new(&store, v).unwrap().analyze(
        run,
        Backend::Interpreter,
        ProblemThreshold::default(),
    );
    assert!(result.is_err(), "ambiguous UNIQUE must surface as an error");
}

// ---------------------------------------------------------------------------
// Durable-session storage failures (WAL + snapshot).
// ---------------------------------------------------------------------------

/// A small simulated event stream (two runs).
fn stream() -> Vec<TraceEvent> {
    Scenario {
        program: Program::Stencil3d,
        pes: vec![1, 8],
        ..Scenario::new(9)
    }
    .events()
}

/// [`stream`] stretched past four [`REPLAY_CHUNK`]s: its measurement
/// events re-sent for many rounds between the structure and the finish,
/// as a live monitor refreshing its counters does. Recovery streams the
/// log in chunks, so only an input this long can see a refusal or a cut
/// *after* whole chunks were already applied.
fn long_stream() -> Vec<TraceEvent> {
    let events = stream();
    let measurement = |e: &&TraceEvent| {
        matches!(
            e,
            TraceEvent::RegionExited { .. }
                | TraceEvent::TypedSample { .. }
                | TraceEvent::CallSiteStat { .. }
        )
    };
    let finish = |e: &&TraceEvent| matches!(e, TraceEvent::RunFinished { .. });
    let rounds: Vec<&TraceEvent> = events.iter().filter(measurement).collect();
    let mut long: Vec<TraceEvent> = events
        .iter()
        .filter(|e| !measurement(e) && !finish(e))
        .cloned()
        .collect();
    while long.len() < 4 * REPLAY_CHUNK + 100 {
        long.extend(rounds.iter().map(|e| (*e).clone()));
    }
    long.extend(events.iter().filter(finish).cloned());
    long
}

/// Both inputs of the WAL-damage cases: one far short of a replay chunk,
/// one longer than four.
fn streams() -> [(&'static str, Vec<TraceEvent>); 2] {
    let long = long_stream();
    assert!(long.len() > 4 * REPLAY_CHUNK);
    [("short", stream()), ("long", long)]
}

/// Recovery replayed exactly the prefix `read_wal` reads off the same
/// damaged file, cut at the same frame for the same reason.
fn assert_replay_matches_read_wal(stats: &RecoveryStats, wal_path: &std::path::Path) {
    let read = read_wal(wal_path).expect("read_wal");
    assert_eq!(stats.wal_events_replayed, read.events.len() as u64);
    assert_eq!(stats.wal_valid_len, read.valid_len);
    assert_eq!(stats.wal_corruption, read.corruption);
}

/// Events per batch the WAL-damage cases ingest: the log holds each
/// batch as one batch frame, and the frames straddle replay chunks.
const FRAME_EVENTS: usize = 100;

/// Events of the log's last frame when `n` events were ingested
/// [`FRAME_EVENTS`] at a time.
fn last_frame(n: usize) -> usize {
    (n - 1) % FRAME_EVENTS + 1
}

/// Ingest `events` durably, [`FRAME_EVENTS`] at a time (one flush at the
/// end), then kill the session.
fn write_session_dir(dir: &ScratchDir, events: &[TraceEvent], snapshot_every: u32) {
    let durable = OnlineSession::open(dir.path(), durable_config(snapshot_every)).expect("open");
    for batch in events.chunks(FRAME_EVENTS) {
        durable.ingest_batch(batch).expect("ingest");
    }
    durable.flush().expect("flush");
}

#[test]
fn truncated_final_wal_frame_recovers_to_last_consistent_event() {
    for (name, events) in streams() {
        let dir = ScratchDir::new(&format!("torn-tail-{name}"));
        write_session_dir(&dir, &events, 0);

        // Tear the final batch frame: a crash mid-`write`.
        let wal_path = dir.path().join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

        let (recovered, stats) =
            OnlineSession::recover(dir.path(), SessionConfig::default()).expect("never a panic");
        let c = stats.wal_corruption.clone().expect("typed skip report");
        assert!(matches!(c.kind, WalCorruptionKind::TruncatedFrame { .. }));
        assert_eq!(c.frame, events.len().div_ceil(FRAME_EVENTS) - 1);
        // The torn frame is lost whole, and nothing before it.
        let kept = events.len() - last_frame(events.len());
        assert_eq!(stats.wal_events_replayed, kept as u64);
        assert_replay_matches_read_wal(&stats, &wal_path);
        // Identical to an uninterrupted session over the surviving prefix.
        let reference = uninterrupted(&events[..kept]);
        assert_eq!(recovered.reports(), reference.reports(), "{name}");

        // Reopening for writing resumes on the frame boundary.
        let resumed = OnlineSession::open(dir.path(), durable_config(0)).expect("reopen");
        resumed.ingest_batch(&events[kept..]).expect("append");
        resumed.flush().expect("flush");
        assert_eq!(
            resumed.reports(),
            uninterrupted(&events).reports(),
            "{name}"
        );
    }
}

#[test]
fn flipped_wal_checksum_byte_recovers_prefix_with_typed_report() {
    for (name, events) in streams() {
        let dir = ScratchDir::new(&format!("bitflip-{name}"));
        write_session_dir(&dir, &events, 0);

        let wal_path = dir.path().join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        // Flip a byte ~2/3 in: everything beyond that frame is untrusted.
        let victim = bytes.len() * 2 / 3;
        bytes[victim] ^= 0x01;
        std::fs::write(&wal_path, &bytes).unwrap();

        let (recovered, stats) =
            OnlineSession::recover(dir.path(), SessionConfig::default()).expect("never a panic");
        let c = stats.wal_corruption.clone().expect("typed skip report");
        assert!(matches!(
            c.kind,
            WalCorruptionKind::ChecksumMismatch | WalCorruptionKind::TruncatedFrame { .. }
        ));
        assert_replay_matches_read_wal(&stats, &wal_path);
        let kept = stats.wal_events_replayed as usize;
        assert!(kept < events.len(), "corrupt frame must not be trusted");
        assert_eq!(kept % FRAME_EVENTS, 0, "the log is cut between frames");
        assert_eq!(
            stats.wal_corruption.as_ref().map(|c| c.frame),
            Some(kept / FRAME_EVENTS)
        );
        assert_eq!(
            recovered.reports(),
            uninterrupted(&events[..kept]).reports(),
            "{name}"
        );
    }
}

#[test]
fn stale_snapshot_plus_longer_log_recovers_the_full_history() {
    let events = stream();
    let cut = events.len() / 3;
    let dir = ScratchDir::new("stale-snap");

    // Checkpoint early (stale snapshot), then keep streaming (long tail).
    let durable = OnlineSession::open(dir.path(), durable_config(0)).expect("open");
    durable.ingest_batch(&events[..cut]).expect("ingest head");
    durable.checkpoint().expect("checkpoint");
    durable.ingest_batch(&events[cut..]).expect("ingest tail");
    durable.flush().expect("flush");
    drop(durable); // killed

    let (recovered, stats) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("recover");
    assert!(stats.used_snapshot);
    assert_eq!(stats.snapshot_events, cut as u64);
    assert_eq!(stats.wal_events_replayed, (events.len() - cut) as u64);
    assert_eq!(recovered.reports(), uninterrupted(&events).reports());
    assert_eq!(
        recovered.stats().events_applied,
        uninterrupted(&events).stats().events_applied
    );
}

#[test]
fn empty_and_missing_durable_files_recover_to_a_fresh_session() {
    let dir = ScratchDir::new("empty-files");
    std::fs::create_dir_all(dir.path()).unwrap();
    // Zero-byte WAL and no snapshot.
    std::fs::write(dir.path().join(WAL_FILE), b"").unwrap();
    let (session, stats) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("empty wal");
    assert!(!stats.used_snapshot);
    assert_eq!(stats.wal_events_replayed, 0);
    assert!(session.reports().is_empty());

    // A durable session over the empty directory starts cleanly too.
    let durable = OnlineSession::open(dir.path(), durable_config(0)).expect("open empty");
    assert_eq!(durable.stats().events_applied, 0);
}

#[test]
fn interrupted_checkpoint_does_not_double_replay_the_log() {
    // Crash window between the snapshot rename and the WAL truncation:
    // the new snapshot already covers every logged event, but the log
    // still holds them under the *old* epoch. Recovery must skip the
    // stale log — replaying it would double-count the lifetime counters
    // (and re-reject every RunStarted as a duplicate).
    let events = stream();
    let dir = ScratchDir::new("interrupted-checkpoint");
    let durable = OnlineSession::open(dir.path(), durable_config(0)).expect("open");
    durable.ingest_batch(&events).expect("ingest");
    durable.flush().expect("flush");
    // Capture the pre-checkpoint WAL, checkpoint, then restore it — the
    // exact on-disk state of a crash after rename, before truncation.
    let wal_path = dir.path().join(WAL_FILE);
    let pre_checkpoint_wal = std::fs::read(&wal_path).unwrap();
    assert!(!pre_checkpoint_wal.is_empty());
    durable.checkpoint().expect("checkpoint");
    drop(durable);
    std::fs::write(&wal_path, &pre_checkpoint_wal).unwrap();

    let (recovered, stats) =
        OnlineSession::recover(dir.path(), SessionConfig::default()).expect("recover");
    assert!(stats.used_snapshot);
    assert!(stats.wal_stale, "old-epoch log must be detected as covered");
    assert_eq!(stats.wal_events_replayed, 0, "no double replay");
    let reference = uninterrupted(&events);
    assert_eq!(
        recovered.stats().events_applied,
        reference.stats().events_applied
    );
    assert_eq!(
        recovered.stats().events_rejected,
        reference.stats().events_rejected
    );
    assert_eq!(recovered.reports(), reference.reports());

    // Reopening for writing completes the interrupted checkpoint (log
    // restarted on the snapshot's epoch) and appends keep working.
    let resumed = OnlineSession::open(dir.path(), durable_config(0)).expect("reopen");
    let extra = TraceEvent::RunStarted {
        run: kojak::online::RunKey(900_000),
        version: kojak::online::VersionTag(900_000),
        program: "late".into(),
        compiled_at: DateTime::from_secs(1),
        source: String::new(),
        start: DateTime::from_secs(2),
        no_pe: 2,
        clockspeed: 450,
    };
    resumed
        .ingest(&extra)
        .expect("append after completed checkpoint");
    resumed.flush().expect("flush");
    assert_eq!(
        resumed.stats().events_applied,
        reference.stats().events_applied + 1
    );
}

#[test]
fn deleted_snapshot_behind_a_truncated_log_is_detected() {
    // After a checkpoint the log's epoch records that a snapshot covers
    // the truncated history; deleting the snapshot must surface as a
    // typed incompatibility, not as a silently empty session.
    let events = stream();
    let dir = ScratchDir::new("deleted-snap");
    let durable = OnlineSession::open(dir.path(), durable_config(0)).expect("open");
    durable.ingest_batch(&events).expect("ingest");
    durable.checkpoint().expect("checkpoint");
    drop(durable);
    std::fs::remove_file(dir.path().join(SNAPSHOT_FILE)).unwrap();

    match OnlineSession::recover(dir.path(), SessionConfig::default()) {
        Err(RecoveryError::Incompatible { .. }) => {}
        Err(other) => panic!("expected Incompatible, got {other:?}"),
        Ok(_) => panic!("expected Incompatible, got a recovered session"),
    }
}

#[test]
fn newer_format_wal_frames_refuse_recovery_instead_of_truncating() {
    // A checksum-valid frame written by a future format (binary
    // downgrade) — an event frame of a future wire version, or a batch
    // frame of a future layout: recovery must hard-stop — truncating it
    // away would destroy data a newer build could still read. On the
    // long input the frame sits behind more than two replay chunks
    // already applied.
    for (name, events) in streams() {
        for (form, version) in [("event", 9), ("batch", 2)] {
            let dir = ScratchDir::new(&format!("newer-{form}-{name}"));
            let cut = events.len() / 2;
            write_session_dir(&dir, &events[..cut], 0);

            let wal_path = dir.path().join(WAL_FILE);
            let mut bytes = std::fs::read(&wal_path).unwrap();
            let mut payload = Vec::new();
            if form == "event" {
                events[cut].encode_wire(&mut payload);
                payload[0] = version; // future WIRE_VERSION
            } else {
                BatchEncoder::new().encode(&mut payload, 0, &events[cut..cut + 3]);
                payload.drain(..8);
                payload[1] = version; // future batch layout
            }
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&kojak::online::wire::crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            bytes.extend_from_slice(&frame);
            std::fs::write(&wal_path, &bytes).unwrap();

            // `read_wal` cuts the log at that frame, after every batch.
            let read = read_wal(&wal_path).expect("read_wal");
            assert_eq!(read.events.len(), cut, "{form}-{name}");
            let c = read.corruption.expect("the newer frame is reported");
            assert_eq!(c.kind, WalCorruptionKind::UnsupportedFrameVersion(version));
            assert_eq!(c.frame, cut.div_ceil(FRAME_EVENTS));

            // Streamed recovery meets it at the same frame and refuses.
            match OnlineSession::recover(dir.path(), SessionConfig::default()) {
                Err(RecoveryError::Incompatible { detail, .. }) => assert!(
                    detail.starts_with(&format!("wal frame {} ", c.frame)),
                    "{form}-{name}: {detail}"
                ),
                Err(other) => panic!("{form}-{name}: expected Incompatible, got {other:?}"),
                Ok(_) => panic!("{form}-{name}: expected Incompatible, got a recovered session"),
            }
            match OnlineSession::open(dir.path(), durable_config(0)) {
                Err(RecoveryError::Incompatible { .. }) => {}
                other => panic!(
                    "{form}-{name}: expected Incompatible, got {:?}",
                    other.map(|_| ())
                ),
            }
            // Nothing was truncated or rewritten: the newer frames are
            // intact for the build that can read them.
            assert!(std::fs::read(&wal_path).unwrap() == bytes, "{form}-{name}");
        }
    }
}

#[test]
fn corrupt_snapshot_is_a_typed_error_not_a_panic() {
    let events = stream();
    let dir = ScratchDir::new("bad-snap");
    let durable = OnlineSession::open(dir.path(), durable_config(0)).expect("open");
    durable.ingest_batch(&events).expect("ingest");
    durable.checkpoint().expect("checkpoint");
    drop(durable);

    let snap_path = dir.path().join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&snap_path, &bytes).unwrap();

    // The WAL was truncated by the checkpoint, so the snapshot's history
    // exists nowhere else: this must be a hard, typed error.
    match OnlineSession::recover(dir.path(), SessionConfig::default()) {
        Err(RecoveryError::CorruptSnapshot { path, .. }) => assert_eq!(path, snap_path),
        Err(other) => panic!("expected CorruptSnapshot, got {other:?}"),
        Ok(_) => panic!("expected CorruptSnapshot, got a recovered session"),
    }
    match OnlineSession::open(dir.path(), durable_config(0)) {
        Err(RecoveryError::CorruptSnapshot { .. }) => {}
        other => panic!("expected CorruptSnapshot, got {:?}", other.map(|_| ())),
    }
}
