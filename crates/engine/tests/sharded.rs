//! Sharded-session properties beyond report agreement (which
//! `tests/shapes.rs` holds every shape to):
//!
//! * **Batched ingest** — the single-pass partitioned ingest is
//!   bit-identical to feeding the same layout one event at a time.
//! * **Partition exactness** — with many program versions spread over the
//!   shards, every shard's state is bit-identical to a plain session fed
//!   exactly that shard's subsequence: sharding is partitioning, nothing
//!   leaks between shards.
//! * **Durable failures** — a torn WAL tail in one shard is that shard's
//!   problem alone; a shard that fails recovery or a checkpoint is
//!   quarantined and reintegrated; a corrupt snapshot and a changed shard
//!   layout are refused.

use engine::sharded::shard_dir;
use engine::{AnalysisEngine, RecoverableState, ShardedConfig, ShardedSession};
use online::{RunKey, SessionConfig, TraceEvent};
use proptest::prelude::*;
use std::collections::HashMap;
use testkit::{durable_config, fingerprint, uninterrupted, Scenario, ScratchDir};

/// Five program versions (so the version hash spreads them over the
/// shards), their runs interleaved by `seed`.
fn stream(seed: u64) -> Vec<TraceEvent> {
    Scenario {
        versions: 5,
        interleave: Some(seed),
        ..Scenario::new(17)
    }
    .events()
}

/// Mirror of the router's hash. Kept as an independent copy on purpose:
/// which shard directory a version's runs live in is part of a durable
/// session's on-disk layout, so the function must not drift.
fn shard_of(key: u64, shards: usize) -> usize {
    let mut h = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (h % shards as u64) as usize
}

/// Mirror of the sharded router: version-affine shard choice per run.
fn expected_partition(events: &[TraceEvent], shards: usize) -> Vec<Vec<TraceEvent>> {
    let mut groups = vec![Vec::new(); shards];
    let mut routes: HashMap<RunKey, usize> = HashMap::new();
    for event in events {
        let run = event.run_key();
        let shard = match routes.get(&run) {
            Some(s) => *s,
            None => match event {
                TraceEvent::RunStarted { version, .. } => {
                    let s = shard_of(version.0, shards);
                    routes.insert(run, s);
                    s
                }
                _ => shard_of(run.0, shards),
            },
        };
        groups[shard].push(event.clone());
    }
    groups
}

proptest! {
    #![proptest_config(testkit::cases(6))]

    /// Batched path ≡ per-event path: for any chunking, the single-pass
    /// partitioned ingest (including its whole-batch-to-one-shard fast
    /// path) is bit-identical — ids included — to feeding the same
    /// sharded layout one event at a time.
    #[test]
    fn batched_ingest_bit_identical_to_per_event(
        seed in 0u64..10_000,
        shards in prop_oneof![Just(1usize), Just(2), Just(4)],
        chunk in prop_oneof![Just(3usize), Just(64), Just(257), Just(4096)],
    ) {
        let events = stream(seed);

        let batched = ShardedSession::in_memory(shards, SessionConfig::default());
        let per_event = ShardedSession::in_memory(shards, SessionConfig::default());
        for batch in events.chunks(chunk) {
            let applied = AnalysisEngine::ingest_batch(&batched, batch).expect("batched ingest");
            prop_assert_eq!(applied, batch.len());
        }
        for event in &events {
            AnalysisEngine::ingest_batch(&per_event, std::slice::from_ref(event))
                .expect("per-event ingest");
        }
        let mut changed_batched = AnalysisEngine::flush(&batched).expect("batched flush");
        let mut changed_per_event = AnalysisEngine::flush(&per_event).expect("per-event flush");
        changed_batched.sort();
        changed_per_event.sort();
        prop_assert_eq!(changed_batched, changed_per_event);

        prop_assert_eq!(
            AnalysisEngine::reports(&batched),
            AnalysisEngine::reports(&per_event),
            "batched reports differ from per-event reports"
        );
        prop_assert_eq!(
            AnalysisEngine::stats(&batched).events_applied,
            AnalysisEngine::stats(&per_event).events_applied
        );
    }
}

/// Sharding is partitioning: with many versions spread over the shards,
/// every shard's session is bit-identical to a plain session fed exactly
/// that shard's subsequence, and the merged reports match an unsharded
/// control modulo arena ids.
#[test]
fn multi_version_shards_partition_exactly() {
    const SHARDS: usize = 4;
    let events = stream(99);

    let sharded = ShardedSession::in_memory(SHARDS, SessionConfig::default());
    for batch in events.chunks(113) {
        AnalysisEngine::ingest_batch(&sharded, batch).expect("ingest");
        AnalysisEngine::flush(&sharded).expect("flush");
    }

    // The version hash must actually spread this workload.
    let used = expected_partition(&events, SHARDS)
        .iter()
        .filter(|g| !g.is_empty())
        .count();
    assert!(
        used >= 2,
        "workload fits one shard — weaken nothing, fix the fixture"
    );

    // Per shard: bit-identical to a plain session over its subsequence.
    for (i, subsequence) in expected_partition(&events, SHARDS).into_iter().enumerate() {
        let control = uninterrupted(&subsequence);
        assert_eq!(
            sharded
                .with_shard(i, |s| s.reports())
                .expect("healthy shard"),
            control.reports(),
            "shard {i} diverged from its own subsequence"
        );
        assert_eq!(
            sharded
                .with_shard(i, |s| s.store_snapshot())
                .expect("healthy shard"),
            control.store_snapshot(),
            "shard {i} store diverged"
        );
    }

    // Merged: canonically identical to the unsharded control (arena ids
    // are shard-local, everything they denote matches by name).
    let control = uninterrupted(&events);
    let merged = AnalysisEngine::reports(&sharded);
    let single = control.reports();
    assert_eq!(merged.len(), single.len());
    for (key, report) in &single {
        let sharded_report = &merged[key];
        assert_eq!(
            fingerprint(sharded_report),
            fingerprint(report),
            "id-free report of {key} differs"
        );
    }
}

fn sharded_config(snapshot_every_flushes: u32) -> ShardedConfig {
    ShardedConfig {
        shards: 3,
        durable: durable_config(snapshot_every_flushes),
    }
}

/// Kill one shard harder than the rest: tear its WAL tail. Only that
/// shard loses (exactly) its torn final frame; every other shard recovers
/// its full history, and the surviving merged state stays exact.
#[test]
fn torn_wal_in_one_shard_is_isolated() {
    const SHARDS: usize = 3;
    let events = stream(13);

    let dir = ScratchDir::new("torn-one");
    // No snapshots: every shard's WAL holds its whole history.
    let config = ShardedConfig {
        shards: SHARDS,
        ..sharded_config(0)
    };
    let (durable, _) = ShardedSession::open(dir.path(), config.clone()).expect("open");
    AnalysisEngine::ingest_batch(&durable, &events).expect("ingest");
    AnalysisEngine::flush(&durable).expect("flush");
    assert!(matches!(
        AnalysisEngine::recoverable_state(&durable),
        RecoverableState::Sharded { ref shard_dirs } if shard_dirs.len() == SHARDS
    ));
    drop(durable); // killed

    // Tear the final frame of the busiest shard's log.
    let partition = expected_partition(&events, SHARDS);
    let victim = (0..SHARDS)
        .max_by_key(|&i| partition[i].len())
        .expect("shards exist");
    let wal_path = shard_dir(dir.path(), victim).join(online::durable::WAL_FILE);
    let bytes = std::fs::read(&wal_path).expect("victim wal");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).expect("tear");

    let (recovered, stats) = ShardedSession::open(dir.path(), config).expect("recover");
    for (i, shard_stats) in stats.iter().enumerate() {
        let expected = if i == victim {
            // The shard logged its part of the one batch as frames of
            // `REPLAY_CHUNK` events; the torn one is the last.
            let logged = partition[i].len();
            (logged - ((logged - 1) % online::durable::REPLAY_CHUNK + 1)) as u64
        } else {
            partition[i].len() as u64
        };
        assert_eq!(
            shard_stats.wal_events_replayed, expected,
            "shard {i} replay count"
        );
        assert_eq!(shard_stats.wal_corruption.is_some(), i == victim);
        // The shard equals a plain session over the subsequence it could
        // still read.
        let survived = &partition[i][..expected as usize];
        let control = uninterrupted(survived);
        assert_eq!(
            recovered
                .with_shard(i, |s| s.reports())
                .expect("healthy shard"),
            control.reports(),
            "shard {i} reports after torn-tail recovery"
        );
    }
}

/// A shard whose recovery fails at open is **quarantined**, not fatal:
/// the session opens degraded, events routed to the quarantined shard
/// park in memory (and count as accepted), partial answers are tagged
/// with a [`engine::DegradedState`], and `reintegrate` replays the
/// parked backlog once the operator repairs the shard — converging to
/// the exact state of a never-degraded session.
#[test]
fn recovery_failure_quarantines_and_reintegrate_converges() {
    use engine::QuarantineReason;
    const SHARDS: usize = 3;
    let events = stream(31);
    let partition = expected_partition(&events, SHARDS);
    let victim = (0..SHARDS)
        .max_by_key(|&i| partition[i].len())
        .expect("shards exist");
    assert!(
        !partition[victim].is_empty(),
        "fixture must load the victim"
    );

    // Create the (empty) layout, then break the victim's WAL: a
    // directory where the log file belongs fails every read with EISDIR.
    let dir = ScratchDir::new("quarantine");
    let config = ShardedConfig {
        shards: SHARDS,
        ..sharded_config(0)
    };
    let (fresh, _) = ShardedSession::open(dir.path(), config.clone()).expect("open fresh");
    drop(fresh);
    let wal_path = shard_dir(dir.path(), victim).join(online::durable::WAL_FILE);
    let _ = std::fs::remove_file(&wal_path);
    std::fs::create_dir(&wal_path).expect("plant bogus wal directory");

    // Open succeeds *degraded* instead of failing wholesale.
    let (degraded, stats) =
        ShardedSession::open(dir.path(), config.clone()).expect("open degraded");
    assert_eq!(stats.len(), SHARDS);
    let state = degraded.degraded_state();
    assert!(state.is_degraded());
    assert_eq!(state.quarantined.len(), 1);
    assert_eq!(state.quarantined[0].shard, victim);
    assert!(
        matches!(state.quarantined[0].reason, QuarantineReason::Recovery(_)),
        "reason must be typed as a recovery failure: {}",
        state.quarantined[0].reason
    );
    assert_eq!(state.parked_events(), 0);
    assert!(degraded.with_shard(victim, |_| ()).is_none());

    // The full stream is accepted: healthy shards apply their share,
    // the victim's share parks (exactly-once — nothing is dropped).
    let accepted = AnalysisEngine::ingest_batch(&degraded, &events).expect("degraded ingest");
    assert_eq!(accepted, events.len(), "parked events count as accepted");
    AnalysisEngine::flush(&degraded).expect("degraded flush");
    assert_eq!(
        degraded.degraded_state().parked_events(),
        partition[victim].len()
    );

    // Partial answers cover exactly the healthy shards, and the metrics
    // stream carries the degradation (satellite: quarantine gauges).
    let partial = AnalysisEngine::reports(&degraded);
    let mut expected_partial = HashMap::new();
    for (i, subsequence) in partition.iter().enumerate() {
        if i != victim {
            expected_partial.extend(uninterrupted(subsequence).reports());
        }
    }
    assert_eq!(partial.len(), expected_partial.len());
    let metrics = AnalysisEngine::metrics(&degraded);
    assert_eq!(metrics.gauge("kojak_engine_shards_quarantined"), Some(1));
    assert_eq!(
        metrics.gauge("kojak_engine_events_parked"),
        Some(partition[victim].len() as u64)
    );

    // Reintegration is retryable: with the fault still present it fails
    // typed, keeps the quarantine, and loses nothing.
    assert!(degraded.reintegrate(victim).is_err());
    assert_eq!(
        degraded.degraded_state().parked_events(),
        partition[victim].len()
    );

    // Repair the shard, reintegrate: the backlog replays and the session
    // converges to a never-degraded sharded session over the same stream.
    std::fs::remove_dir(&wal_path).expect("remove bogus wal directory");
    let replayed = degraded.reintegrate_all().expect("reintegrate");
    assert_eq!(replayed, partition[victim].len());
    assert!(!degraded.degraded_state().is_degraded());
    let metrics = AnalysisEngine::metrics(&degraded);
    assert_eq!(metrics.gauge("kojak_engine_shards_quarantined"), Some(0));
    assert_eq!(metrics.gauge("kojak_engine_events_parked"), Some(0));

    let control_dir = ScratchDir::new("quarantine-control");
    let (control, _) = ShardedSession::open(control_dir.path(), config).expect("open control");
    AnalysisEngine::ingest_batch(&control, &events).expect("control ingest");
    AnalysisEngine::flush(&control).expect("control flush");
    assert_eq!(
        AnalysisEngine::reports(&degraded),
        AnalysisEngine::reports(&control),
        "reintegrated session must match a never-degraded one"
    );
    assert_eq!(
        AnalysisEngine::stats(&degraded).events_applied,
        AnalysisEngine::stats(&control).events_applied
    );

    // Reintegrating a healthy shard is a no-op; out-of-range is typed.
    assert_eq!(degraded.reintegrate(victim).expect("healthy no-op"), 0);
    assert!(degraded.reintegrate(SHARDS + 7).is_err());
}

/// A checkpoint failure quarantines the failing shard (preserving its
/// live engine) instead of poisoning the session; reintegration promotes
/// it back without replaying anything.
#[test]
fn checkpoint_failure_quarantines_with_engine_preserved() {
    use engine::QuarantineReason;
    const SHARDS: usize = 3;
    let events = stream(57);
    let partition = expected_partition(&events, SHARDS);
    let victim = (0..SHARDS)
        .max_by_key(|&i| partition[i].len())
        .expect("shards exist");

    let dir = ScratchDir::new("checkpoint-quarantine");
    let config = ShardedConfig {
        shards: SHARDS,
        ..sharded_config(0)
    };
    let (durable, _) = ShardedSession::open(dir.path(), config).expect("open");
    AnalysisEngine::ingest_batch(&durable, &events).expect("ingest");
    AnalysisEngine::flush(&durable).expect("flush");
    let whole_reports = AnalysisEngine::reports(&durable);

    // A directory squatting on `snapshot.tmp` makes the victim's next
    // checkpoint fail (File::create → EISDIR) — running as any user.
    let tmp_path = shard_dir(dir.path(), victim).join("snapshot.tmp");
    std::fs::create_dir(&tmp_path).expect("plant bogus snapshot.tmp");

    // checkpoint() degrades instead of erroring: healthy shards
    // checkpointed, the victim is quarantined with its engine intact.
    durable
        .checkpoint()
        .expect("checkpoint always degrades, never fails");
    let state = durable.degraded_state();
    assert_eq!(state.quarantined.len(), 1);
    assert_eq!(state.quarantined[0].shard, victim);
    assert!(matches!(
        state.quarantined[0].reason,
        QuarantineReason::Flush(_)
    ));
    assert_eq!(state.parked_events(), 0);

    // Repair and reintegrate: no parked backlog, the preserved engine is
    // promoted in place, and nothing was lost along the way.
    std::fs::remove_dir(&tmp_path).expect("remove bogus snapshot.tmp");
    assert_eq!(durable.reintegrate(victim).expect("reintegrate"), 0);
    assert!(!durable.degraded_state().is_degraded());
    assert_eq!(AnalysisEngine::reports(&durable), whole_reports);
    durable.checkpoint().expect("repaired checkpoint");
    assert!(!durable.degraded_state().is_degraded());
}

/// A corrupt snapshot stays a **hard** open error (the truncated history
/// exists nowhere else — quarantining it would quietly serve wrong
/// answers), exactly like the unsharded session.
#[test]
fn corrupt_snapshot_is_still_a_hard_open_error() {
    const SHARDS: usize = 3;
    let events = stream(83);
    let partition = expected_partition(&events, SHARDS);
    let victim = (0..SHARDS)
        .max_by_key(|&i| partition[i].len())
        .expect("shards exist");

    let dir = ScratchDir::new("corrupt-snapshot");
    // snapshot_every_flushes = 1: the flush below writes snapshots.
    let (durable, _) = ShardedSession::open(dir.path(), sharded_config(1)).expect("open");
    AnalysisEngine::ingest_batch(&durable, &events).expect("ingest");
    AnalysisEngine::flush(&durable).expect("flush");
    drop(durable);

    let snapshot_path = shard_dir(dir.path(), victim).join(online::durable::SNAPSHOT_FILE);
    assert!(snapshot_path.exists(), "checkpoint must have written one");
    std::fs::write(&snapshot_path, b"KJSN garbage, not a snapshot").expect("corrupt");

    match ShardedSession::open(dir.path(), sharded_config(1)) {
        Err(online::RecoveryError::CorruptSnapshot { .. }) => {}
        other => panic!(
            "expected CorruptSnapshot, got {:?}",
            other.map(|_| ()).err()
        ),
    }
}

/// Reopening an existing directory under a different shard layout —
/// another shard count, sharded state opened unsharded, or unsharded
/// state opened sharded — must refuse instead of silently stranding the
/// existing history.
#[test]
fn relayouting_an_existing_directory_is_refused() {
    use engine::{EngineBuilder, EngineError};

    // Shard-count change.
    let dir = ScratchDir::new("reshard");
    let (durable, _) = ShardedSession::open(dir.path(), sharded_config(0)).expect("open");
    drop(durable);
    match ShardedSession::open(
        dir.path(),
        ShardedConfig {
            shards: 5,
            ..sharded_config(0)
        },
    ) {
        Err(online::RecoveryError::Incompatible { .. }) => {}
        other => panic!("expected Incompatible, got {:?}", other.map(|_| ()).err()),
    }

    // Sharded state reopened unsharded: the builder must refuse rather
    // than hand back a fresh session that ignores every shard's history.
    match EngineBuilder::new().durable(dir.path()).build() {
        Err(EngineError::Recovery(online::RecoveryError::Incompatible { .. })) => {}
        other => panic!("expected Incompatible, got {:?}", other.err()),
    }

    // Unsharded state reopened sharded.
    let plain = ScratchDir::new("plain");
    let engine = EngineBuilder::new()
        .durable(plain.path())
        .build()
        .expect("open unsharded");
    drop(engine);
    match ShardedSession::open(plain.path(), sharded_config(0)) {
        Err(online::RecoveryError::Incompatible { .. }) => {}
        other => panic!("expected Incompatible, got {:?}", other.map(|_| ()).err()),
    }
    match EngineBuilder::new().durable(plain.path()).shards(3).build() {
        Err(EngineError::Recovery(online::RecoveryError::Incompatible { .. })) => {}
        other => panic!("expected Incompatible, got {:?}", other.err()),
    }
}
