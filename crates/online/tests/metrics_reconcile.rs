//! Metric/ground-truth reconciliation: the live registry counters a
//! session exposes through [`OnlineSession::metrics`] must close
//! **exactly** against the session's own [`SessionStats`] and against
//! the durability ledger — across a kill and recovery, every applied
//! event is accounted for as either a WAL frame appended *by this
//! process* or an event replayed *into* it:
//!
//! ```text
//! kojak_online_events_applied_total
//!   == kojak_online_events_replayed_total + kojak_wal_appended_frames_total
//! ```
//!
//! (valid-only streams; a rejected event is WAL-framed but not applied,
//! which is why the suite pins the zero-rejection case exactly).

use apprentice_sim::{simulate_program, MachineModel, ProgramGenerator};
use online::replay::replay_store;
use online::{DurableConfig, FsyncPolicy, OnlineSession, SessionConfig, TraceEvent};
use perfdata::Store;
use std::path::PathBuf;

/// A fresh scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("kojak-obsrec-{}-{name}", std::process::id()));
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
        &[1, 4, 16],
    );
    replay_store(&store)
}

fn config() -> DurableConfig {
    DurableConfig {
        session: SessionConfig::default(),
        fsync: FsyncPolicy::Never,
        snapshot_every_flushes: 0,
        faults: Default::default(),
    }
}

/// Every metric counter mirrors its [`SessionStats`] field exactly, and
/// the WAL-frame counter closes against the applied count.
#[test]
fn registry_counters_close_against_ground_truth() {
    let events = sim_events(41);
    let dir = ScratchDir::new("ledger");
    let durable = OnlineSession::open(&dir.0, config()).expect("open");
    let chunks: Vec<&[TraceEvent]> = events.chunks(64).collect();
    for chunk in &chunks {
        durable.ingest_batch(chunk).expect("ingest");
    }
    durable.flush().expect("flush");

    let snapshot = durable.metrics();
    let stats = durable.stats();
    assert_eq!(stats.events_rejected, 0, "valid-only stream");
    assert_eq!(stats.events_applied, events.len() as u64);
    assert_eq!(
        snapshot.counter("kojak_online_events_applied_total"),
        stats.events_applied
    );
    assert_eq!(
        snapshot.counter("kojak_online_events_replayed_total"),
        0,
        "a session born empty replays nothing"
    );
    assert_eq!(
        snapshot.counter("kojak_wal_appended_frames_total"),
        events.len() as u64,
        "every applied event was WAL-framed first"
    );
    assert_eq!(
        snapshot
            .histogram("kojak_wal_append_ns")
            .expect("append-stage histogram")
            .count,
        chunks.len() as u64,
        "one timed append per ingested batch"
    );
    assert_eq!(
        snapshot.counter("kojak_online_flushes_total"),
        stats.flushes
    );
}

/// The acceptance identity across a kill: in the recovered process,
/// applied == replayed (restored at startup) + frames appended by *this*
/// process — the per-process registry and the cross-process ledger agree.
#[test]
fn applied_equals_replayed_plus_frames_across_kill_and_recover() {
    let events = sim_events(42);
    let dir = ScratchDir::new("recover");
    let cut = events.len() / 2;

    // Process 1: stream the first half, flush, die without checkpoint.
    {
        let durable = OnlineSession::open(&dir.0, config()).expect("open");
        durable.ingest_batch(&events[..cut]).expect("ingest");
        durable.flush().expect("flush");
        let snapshot = durable.metrics();
        assert_eq!(
            snapshot.counter("kojak_wal_appended_frames_total"),
            cut as u64
        );
        // Killed here: drop without checkpoint — the WAL is the survivor.
    }

    // Process 2: recover, stream the rest, reconcile.
    let recovered = OnlineSession::open(&dir.0, config()).expect("recover");
    recovered.ingest_batch(&events[cut..]).expect("ingest tail");
    recovered.flush().expect("flush");

    let snapshot = recovered.metrics();
    let stats = recovered.stats();
    assert_eq!(stats.events_rejected, 0);
    assert_eq!(stats.events_applied, events.len() as u64, "no loss");
    assert_eq!(
        snapshot.counter("kojak_online_events_replayed_total"),
        cut as u64,
        "the whole un-checkpointed WAL was replayed"
    );
    assert_eq!(
        snapshot.counter("kojak_wal_appended_frames_total"),
        (events.len() - cut) as u64,
        "the registry is per-process: only this process's appends"
    );
    assert_eq!(
        snapshot.counter("kojak_online_events_applied_total"),
        snapshot.counter("kojak_online_events_replayed_total")
            + snapshot.counter("kojak_wal_appended_frames_total"),
        "every applied event is either replayed in or framed by us"
    );

    // A checkpoint exercises (and counts) the snapshot-write stage.
    recovered.checkpoint().expect("checkpoint");
    let snapshot = recovered.metrics();
    assert_eq!(snapshot.counter("kojak_snapshot_writes_total"), 1);
    assert_eq!(
        snapshot
            .histogram("kojak_snapshot_write_ns")
            .expect("snapshot-stage histogram")
            .count,
        1
    );
}

/// The flush anatomy closes against the flush: per version and flush the
/// analyzer records one sample each of enumerate / evaluate / assemble,
/// all taken inside the span `kojak_online_flush_ns` times — so the three
/// sums together never exceed the flush histogram's, and account for most
/// of it.
#[test]
fn flush_phases_sum_to_no_more_than_the_flush() {
    let events = sim_events(43);
    let session = OnlineSession::new(SessionConfig::default());
    let mut flushes = 0;
    for chunk in events.chunks(events.len().div_ceil(4)) {
        session.ingest_batch(chunk).expect("ingest");
        session.flush().expect("flush");
        flushes += 1;
    }
    let snapshot = session.metrics();
    let flush = snapshot
        .histogram("kojak_online_flush_ns")
        .expect("flush histogram");
    assert_eq!(flush.count, flushes);
    let phases = [
        "kojak_eval_enumerate_ns",
        "kojak_eval_evaluate_ns",
        "kojak_eval_assemble_ns",
    ]
    .map(|name| snapshot.histogram(name).unwrap_or_else(|| panic!("{name}")));
    for phase in &phases {
        // One simulated version: one sample per phase per flush that had
        // analyzable structure.
        assert_eq!(phase.count, phases[0].count);
        assert!((1..=flushes).contains(&phase.count));
    }
    let inside: u64 = phases.iter().map(|phase| phase.sum).sum();
    assert!(inside > 0);
    assert!(
        inside <= flush.sum,
        "phases {inside} ns, flush {} ns",
        flush.sum
    );
}

/// The per-property evaluation counters are sized and labelled from the
/// spec, not from the standard suite's manifest: a thirteenth property has
/// a counter of its own, and the labelled counters still sum to the
/// engine's instance count.
#[test]
fn property_counters_follow_the_spec() {
    let src = format!(
        "{}\n{}",
        cosy::standard_suite_source(),
        include_str!("../../../examples/specs/io_contention.asl")
    );
    let spec = std::sync::Arc::new(asl_core::parse_and_check(&src).expect("custom suite"));
    for spec in [None, Some(spec)] {
        let custom = spec.is_some();
        let session = OnlineSession::new(SessionConfig {
            spec,
            ..SessionConfig::default()
        });
        for chunk in sim_events(44).chunks(97) {
            session.ingest_batch(chunk).expect("ingest");
            session.flush().expect("flush");
        }
        let snapshot = session.metrics();
        let labelled = |(name, n): (&str, u64)| {
            name.starts_with("kojak_eval_property_evaluations_total{")
                .then_some(n)
        };
        let per_property: Vec<u64> = snapshot.counters().filter_map(labelled).collect();
        assert_eq!(per_property.len(), if custom { 13 } else { 12 });
        assert_eq!(
            per_property.iter().sum::<u64>(),
            snapshot.counter("kojak_eval_instances_evaluated_total")
        );
        let io_contention =
            snapshot.counter("kojak_eval_property_evaluations_total{property=\"IoContention\"}");
        assert_eq!(io_contention > 0, custom);
        // As often as the standard property with the same signature.
        let sync_cost =
            snapshot.counter("kojak_eval_property_evaluations_total{property=\"SyncCost\"}");
        assert!(!custom || io_contention == sync_cost);
    }
}
