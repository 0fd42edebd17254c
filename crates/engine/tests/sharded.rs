//! Sharded-session correctness.
//!
//! * **Equivalence proptest** — for any event interleaving, chunking and
//!   shard count, the merged reports of a `ShardedSession` are
//!   **bit-identical** (plain `assert_eq!`, ids included) to a
//!   single-shard session over the same stream.
//! * **Partition exactness** — with many program versions spread over the
//!   shards, every shard's state is bit-identical to a plain session fed
//!   exactly that shard's subsequence: sharding is partitioning, nothing
//!   leaks between shards.
//! * **Kill/recovery** — a sharded durable session killed mid-stream
//!   recovers every shard from its own WAL + snapshot pair (in parallel)
//!   and converges to the same end state as a never-killed session; a
//!   torn WAL tail in one shard is that shard's problem alone (reusing
//!   the crash-harness shape of `crates/online/tests/crash_recovery.rs`).

use apprentice_sim::{archetypes, simulate_program, MachineModel, ProgramGenerator};
use cosy::AnalysisReport;
use engine::sharded::shard_dir;
use engine::{AnalysisEngine, RecoverableState, ShardedConfig, ShardedSession};
use online::replay::events_for_run;
use online::{DurableConfig, FsyncPolicy, OnlineSession, RunKey, SessionConfig, TraceEvent};
use perfdata::{Store, TestRunId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

/// A fresh scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("kojak-sharded-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministically interleave per-run event streams (per-run order is
/// preserved — the only ordering producers guarantee).
fn interleave(mut streams: Vec<Vec<TraceEvent>>, seed: u64) -> Vec<TraceEvent> {
    for s in &mut streams {
        s.reverse(); // pop() from the back == front of the stream
    }
    let mut out = Vec::new();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    loop {
        let live: Vec<usize> = streams
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            return out;
        }
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = live[(state >> 33) as usize % live.len()];
        out.push(streams[pick].pop().unwrap());
    }
}

fn per_run_streams(store: &Store) -> Vec<Vec<TraceEvent>> {
    (0..store.runs.len() as u32)
        .map(|r| events_for_run(store, TestRunId(r)))
        .collect()
}

/// A store with several program versions (so the version hash spreads
/// them over the shards).
fn multi_version_store() -> Store {
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    simulate_program(&mut store, &archetypes::particle_mc(3), &machine, &[1, 4]);
    simulate_program(&mut store, &archetypes::stencil3d(5), &machine, &[1, 8]);
    simulate_program(&mut store, &archetypes::particle_mc(11), &machine, &[1, 2]);
    let gen = ProgramGenerator {
        seed: 17,
        functions: 2,
        max_depth: 3,
        max_fanout: 3,
        base_work: 0.01,
        comm_probability: 0.6,
    };
    simulate_program(&mut store, &gen.generate(), &machine, &[1, 4]);
    simulate_program(&mut store, &archetypes::stencil3d(23), &machine, &[2, 8]);
    store
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

fn control_session(events: &[TraceEvent]) -> OnlineSession {
    let session = OnlineSession::new(SessionConfig::default());
    if !events.is_empty() {
        session.ingest_batch(events).expect("control ingest");
    }
    session.flush().expect("control flush");
    session
}

/// Id-free projection of a report (shard-local stores allocate their own
/// arena ids, so cross-sharding comparisons drop the raw context ids and
/// compare everything the ids stand for by name instead).
fn canonical(report: &AnalysisReport) -> impl PartialEq + std::fmt::Debug {
    (
        report.program.clone(),
        report.no_pe,
        report.reference_pe,
        report.basis_duration.to_bits(),
        report.total_cost.to_bits(),
        report.skipped,
        report
            .entries
            .iter()
            .map(|e| {
                (
                    e.rank,
                    e.property.clone(),
                    e.context.label.clone(),
                    e.severity.to_bits(),
                    e.confidence.to_bits(),
                    e.is_problem,
                )
            })
            .collect::<Vec<_>>(),
    )
}

fn configured_cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(configured_cases())]

    /// Satellite: batch≡sharded equivalence — for any interleaving of a
    /// version's event streams, any chunking and any shard count, the
    /// sharded session's merged reports are bit-identical to a
    /// single-shard session (ids included: one version's runs co-locate,
    /// so shard-local arenas match the unsharded ones exactly).
    #[test]
    fn sharded_reports_bit_identical_to_single_shard(
        seed in 0u64..10_000,
        functions in 1usize..4,
        pe in prop_oneof![Just(4u32), Just(8), Just(16)],
        shards in prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
        chunk in prop_oneof![Just(7usize), Just(64), Just(1024)],
    ) {
        let gen = ProgramGenerator {
            seed,
            functions,
            max_depth: 3,
            max_fanout: 3,
            base_work: 0.01,
            comm_probability: 0.6,
        };
        let mut store = Store::new();
        simulate_program(&mut store, &gen.generate(), &MachineModel::t3e_900(), &[1, pe]);
        let events = interleave(per_run_streams(&store), seed ^ 0xabcd);

        let sharded = ShardedSession::in_memory(shards, SessionConfig::default());
        let control = OnlineSession::new(SessionConfig::default());
        for batch in events.chunks(chunk) {
            let applied = AnalysisEngine::ingest_batch(&sharded, batch).expect("sharded ingest");
            prop_assert_eq!(applied, batch.len());
            control.ingest_batch(batch).expect("control ingest");
            // The changed-run sets of every flush agree, not just the end
            // state.
            let mut changed_control = control.flush().expect("control flush");
            changed_control.sort();
            let changed_sharded = AnalysisEngine::flush(&sharded).expect("sharded flush");
            prop_assert_eq!(changed_sharded, changed_control);
        }

        let merged = AnalysisEngine::reports(&sharded);
        let single = control.reports();
        prop_assert_eq!(&merged, &single, "merged reports differ");
        prop_assert_eq!(
            AnalysisEngine::stats(&sharded).events_applied,
            control.stats().events_applied
        );
        prop_assert_eq!(
            AnalysisEngine::stats(&sharded).runs_finished,
            control.stats().runs_finished
        );
    }

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
        let store = multi_version_store();
        let events = interleave(per_run_streams(&store), seed);

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
    let store = multi_version_store();
    let events = interleave(per_run_streams(&store), 99);

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
        let control = control_session(&subsequence);
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
    let control = control_session(&events);
    let merged = AnalysisEngine::reports(&sharded);
    let single = control.reports();
    assert_eq!(merged.len(), single.len());
    for (key, report) in &single {
        let sharded_report = &merged[key];
        assert_eq!(
            canonical(sharded_report),
            canonical(report),
            "canonical report for {key} differs"
        );
    }
}

/// A suite with a user property is sharded like the standard one: with
/// `IoContention` (whose reads the standard suite's dirtiness rules do not
/// cover) declared, a sharded session stays bit-identical — reports,
/// `skipped` — to an unsharded one and to the interpreter oracle over its
/// store, through a late correction of the reference run's I/O time that
/// moves the property in the runs it was not addressed to.
#[test]
fn custom_property_sharded_matches_the_oracle() {
    use perfdata::TimingType::{IoRead, IoWrite};
    let src = format!(
        "{}\n{}",
        cosy::standard_suite_source(),
        include_str!("../../../examples/specs/io_contention.asl")
    );
    let spec = std::sync::Arc::new(asl_core::parse_and_check(&src).expect("custom suite"));
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &archetypes::spectral_io(11),
        &machine,
        &[2, 16, 64],
    );
    let mut events = interleave(per_run_streams(&store), 21);
    let reference_io = |e: &&TraceEvent| {
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
    events.push(correction);

    // Runs are numbered in the order they start, which the interleaving
    // decides.
    let started: Vec<RunKey> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RunStarted { run, .. } => Some(*run),
            _ => None,
        })
        .collect();
    let oracle = |store: &Store| -> HashMap<RunKey, AnalysisReport> {
        let runs = (0..store.runs.len() as u32).map(TestRunId);
        runs.filter_map(|run| {
            let version = store.runs[run.index()].version;
            let analyzer = cosy::Analyzer::with_spec(store, version, spec.clone()).ok()?;
            let threshold = cosy::ProblemThreshold::default();
            let report = analyzer.analyze(run, cosy::Backend::Interpreter, threshold);
            Some((started[run.index()], report.unwrap()))
        })
        .collect()
    };

    let online = engine::EngineBuilder::new()
        .spec(spec.clone())
        .build_online();
    let sharded = engine::EngineBuilder::new()
        .spec(spec.clone())
        .shards(3)
        .build()
        .expect("sharded engine");
    // Everything but the correction in chunks, then the correction alone:
    // by then every run has been reported.
    let (correction, reported) = events.split_last().unwrap();
    let mut changed = Vec::new();
    for chunk in reported
        .chunks(211)
        .chain([std::slice::from_ref(correction)])
    {
        online.ingest_batch(chunk).expect("online ingest");
        sharded.ingest_batch(chunk).expect("sharded ingest");
        changed = AnalysisEngine::flush(&online).expect("online flush");
        sharded.flush().expect("sharded flush");
        // Ids included: one version's runs co-locate, so its shard's
        // arena is the unsharded session's.
        assert_eq!(sharded.reports(), online.reports());
        assert_eq!(online.reports(), oracle(&online.store_snapshot()));
    }
    // The flush reports what changed: the run the correction was
    // addressed to, and the two it was not.
    assert_eq!(changed, [RunKey(0), RunKey(1), RunKey(2)]);
    let held = |e: &cosy::RankedEntry| e.property == "IoContention";
    assert!(sharded.reports()[&RunKey(2)].entries.iter().any(held));
}

fn sharded_config(snapshot_every_flushes: u32) -> ShardedConfig {
    ShardedConfig {
        shards: 3,
        durable: DurableConfig {
            session: SessionConfig::default(),
            fsync: FsyncPolicy::Never,
            snapshot_every_flushes,
            faults: Default::default(),
        },
    }
}

/// Acceptance: a sharded durable session killed mid-stream recovers each
/// shard from its own WAL + snapshot pair with reports identical to an
/// uninterrupted run, and resumes to the same end state.
#[test]
fn sharded_kill_resume_converges_to_uninterrupted_state() {
    let store = multi_version_store();
    let events = interleave(per_run_streams(&store), 7);
    let cut = events.len() / 2;

    let dir = ScratchDir::new("kill-resume");
    let (durable, _) = ShardedSession::open(&dir.0, sharded_config(2)).expect("open");
    for batch in events[..cut].chunks(97) {
        AnalysisEngine::ingest_batch(&durable, batch).expect("ingest");
        AnalysisEngine::flush(&durable).expect("flush");
    }
    let reports_at_kill = AnalysisEngine::reports(&durable);
    drop(durable); // killed: no checkpoint, no graceful shutdown

    let (recovered, stats) = ShardedSession::open(&dir.0, sharded_config(2)).expect("recover");
    assert_eq!(stats.len(), 3);
    assert!(
        stats.iter().any(|s| s.used_snapshot),
        "checkpoints must have fired somewhere"
    );
    assert_eq!(
        AnalysisEngine::reports(&recovered),
        reports_at_kill,
        "recovery must restore the exact pre-kill reports"
    );
    // Every shard recovered from its own pair; nothing was lost.
    let restored: u64 = stats
        .iter()
        .map(|s| s.snapshot_events + s.wal_events_replayed)
        .sum();
    assert_eq!(restored, cut as u64);

    // Resume the stream: the end state equals a never-killed sharded
    // session over the full stream.
    for batch in events[cut..].chunks(97) {
        AnalysisEngine::ingest_batch(&recovered, batch).expect("resume ingest");
        AnalysisEngine::flush(&recovered).expect("resume flush");
    }
    let never_killed_dir = ScratchDir::new("never-killed");
    let (never_killed, _) =
        ShardedSession::open(&never_killed_dir.0, sharded_config(2)).expect("open control");
    for batch in events.chunks(97) {
        AnalysisEngine::ingest_batch(&never_killed, batch).expect("control ingest");
        AnalysisEngine::flush(&never_killed).expect("control flush");
    }
    assert_eq!(
        AnalysisEngine::reports(&recovered),
        AnalysisEngine::reports(&never_killed)
    );
    assert_eq!(
        AnalysisEngine::stats(&recovered).events_applied,
        AnalysisEngine::stats(&never_killed).events_applied
    );
}

/// Kill one shard harder than the rest: tear its WAL tail. Only that
/// shard loses (exactly) its torn suffix; every other shard recovers its
/// full history, and the surviving merged state stays exact.
#[test]
fn torn_wal_in_one_shard_is_isolated() {
    const SHARDS: usize = 3;
    let store = multi_version_store();
    let events = interleave(per_run_streams(&store), 13);

    let dir = ScratchDir::new("torn-one");
    // No snapshots: every shard's WAL holds its whole history.
    let config = ShardedConfig {
        shards: SHARDS,
        ..sharded_config(0)
    };
    let (durable, _) = ShardedSession::open(&dir.0, config.clone()).expect("open");
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
    let wal_path = shard_dir(&dir.0, victim).join(online::durable::WAL_FILE);
    let bytes = std::fs::read(&wal_path).expect("victim wal");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).expect("tear");

    let (recovered, stats) = ShardedSession::open(&dir.0, config).expect("recover");
    for (i, shard_stats) in stats.iter().enumerate() {
        let expected = if i == victim {
            partition[i].len() as u64 - 1
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
        let control = control_session(survived);
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
    let store = multi_version_store();
    let events = interleave(per_run_streams(&store), 31);
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
    let (fresh, _) = ShardedSession::open(&dir.0, config.clone()).expect("open fresh");
    drop(fresh);
    let wal_path = shard_dir(&dir.0, victim).join(online::durable::WAL_FILE);
    let _ = std::fs::remove_file(&wal_path);
    std::fs::create_dir(&wal_path).expect("plant bogus wal directory");

    // Open succeeds *degraded* instead of failing wholesale.
    let (degraded, stats) = ShardedSession::open(&dir.0, config.clone()).expect("open degraded");
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
            expected_partial.extend(control_session(subsequence).reports());
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
    let (control, _) = ShardedSession::open(&control_dir.0, config).expect("open control");
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
    let store = multi_version_store();
    let events = interleave(per_run_streams(&store), 57);
    let partition = expected_partition(&events, SHARDS);
    let victim = (0..SHARDS)
        .max_by_key(|&i| partition[i].len())
        .expect("shards exist");

    let dir = ScratchDir::new("checkpoint-quarantine");
    let config = ShardedConfig {
        shards: SHARDS,
        ..sharded_config(0)
    };
    let (durable, _) = ShardedSession::open(&dir.0, config).expect("open");
    AnalysisEngine::ingest_batch(&durable, &events).expect("ingest");
    AnalysisEngine::flush(&durable).expect("flush");
    let whole_reports = AnalysisEngine::reports(&durable);

    // A directory squatting on `snapshot.tmp` makes the victim's next
    // checkpoint fail (File::create → EISDIR) — running as any user.
    let tmp_path = shard_dir(&dir.0, victim).join("snapshot.tmp");
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
    let store = multi_version_store();
    let events = interleave(per_run_streams(&store), 83);
    let partition = expected_partition(&events, SHARDS);
    let victim = (0..SHARDS)
        .max_by_key(|&i| partition[i].len())
        .expect("shards exist");

    let dir = ScratchDir::new("corrupt-snapshot");
    // snapshot_every_flushes = 1: the flush below writes snapshots.
    let (durable, _) = ShardedSession::open(&dir.0, sharded_config(1)).expect("open");
    AnalysisEngine::ingest_batch(&durable, &events).expect("ingest");
    AnalysisEngine::flush(&durable).expect("flush");
    drop(durable);

    let snapshot_path = shard_dir(&dir.0, victim).join(online::durable::SNAPSHOT_FILE);
    assert!(snapshot_path.exists(), "checkpoint must have written one");
    std::fs::write(&snapshot_path, b"KJSN garbage, not a snapshot").expect("corrupt");

    match ShardedSession::open(&dir.0, sharded_config(1)) {
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
    let (durable, _) = ShardedSession::open(&dir.0, sharded_config(0)).expect("open");
    drop(durable);
    match ShardedSession::open(
        &dir.0,
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
    match EngineBuilder::new().durable(&dir.0).build() {
        Err(EngineError::Recovery(online::RecoveryError::Incompatible { .. })) => {}
        other => panic!("expected Incompatible, got {:?}", other.err()),
    }

    // Unsharded state reopened sharded.
    let plain = ScratchDir::new("plain");
    let engine = EngineBuilder::new()
        .durable(&plain.0)
        .build()
        .expect("open unsharded");
    drop(engine);
    match ShardedSession::open(&plain.0, sharded_config(0)) {
        Err(online::RecoveryError::Incompatible { .. }) => {}
        other => panic!("expected Incompatible, got {:?}", other.map(|_| ()).err()),
    }
    match EngineBuilder::new().durable(&plain.0).shards(3).build() {
        Err(EngineError::Recovery(online::RecoveryError::Incompatible { .. })) => {}
        other => panic!("expected Incompatible, got {:?}", other.err()),
    }
}
