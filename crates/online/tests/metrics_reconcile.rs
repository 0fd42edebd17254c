//! Metric/ground-truth reconciliation: the live registry counters a
//! session exposes through [`OnlineSession::metrics`] must close
//! **exactly** against the session's own [`SessionStats`] and against
//! the durability ledger — across a kill and recovery, every applied
//! event is accounted for as either an event logged *by this process* or
//! an event replayed *into* it:
//!
//! ```text
//! kojak_online_events_applied_total
//!   == kojak_online_events_replayed_total + kojak_wal_appended_events_total
//! ```
//!
//! (valid-only streams; a rejected event is logged but not applied, which
//! is why the suite pins the zero-rejection case exactly). The bytes the
//! log grew by close against its frames: `kojak_wal_appended_bytes_total`
//! is the sum of the lengths of the frames this process appended, read
//! back off the file.

use online::durable::WAL_FILE;
use online::wal::WAL_HEADER_LEN;
use online::{OnlineSession, SessionConfig, TraceEvent};
use std::path::Path;
use testkit::{durable_config, Scenario, ScratchDir, Suite};

/// The lengths of the frames of the log in `dir`, headers included,
/// walked by their length prefixes from the file header on.
fn frame_lengths(dir: &Path) -> Vec<u64> {
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("read the log");
    let mut at = WAL_HEADER_LEN as usize;
    let mut lengths = Vec::new();
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize + 8;
        lengths.push(len as u64);
        at += len;
    }
    assert_eq!(at, bytes.len(), "the log ends on a frame boundary");
    lengths
}

fn sim_events(seed: u64) -> Vec<TraceEvent> {
    Scenario {
        pes: vec![1, 4, 16],
        ..Scenario::new(seed)
    }
    .events()
}

/// Every metric counter mirrors its [`SessionStats`] field exactly, and
/// the WAL-frame counter closes against the applied count.
#[test]
fn registry_counters_close_against_ground_truth() {
    let events = sim_events(41);
    let dir = ScratchDir::new("ledger");
    let durable = OnlineSession::open(dir.path(), durable_config(0)).expect("open");
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
        snapshot.counter("kojak_wal_appended_events_total"),
        events.len() as u64,
        "every applied event was logged first"
    );
    let frames = frame_lengths(dir.path());
    assert_eq!(
        frames.len(),
        chunks.len(),
        "one batch frame per ingested batch"
    );
    assert_eq!(
        snapshot.counter("kojak_wal_appended_bytes_total"),
        frames.iter().sum::<u64>(),
        "the appended bytes are the frames' lengths"
    );
    assert_eq!(
        snapshot.counter("kojak_wal_appended_bytes_total"),
        durable.wal_len() - WAL_HEADER_LEN
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
    let first_frames = {
        let durable = OnlineSession::open(dir.path(), durable_config(0)).expect("open");
        durable.ingest_batch(&events[..cut]).expect("ingest");
        durable.flush().expect("flush");
        let snapshot = durable.metrics();
        assert_eq!(
            snapshot.counter("kojak_wal_appended_events_total"),
            cut as u64
        );
        let frames = frame_lengths(dir.path());
        assert_eq!(
            snapshot.counter("kojak_wal_appended_bytes_total"),
            frames.iter().sum::<u64>()
        );
        frames.len()
        // Killed here: drop without checkpoint — the WAL is the survivor.
    };

    // Process 2: recover, stream the rest, reconcile.
    let recovered = OnlineSession::open(dir.path(), durable_config(0)).expect("recover");
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
        snapshot.counter("kojak_wal_appended_events_total"),
        (events.len() - cut) as u64,
        "the registry is per-process: only this process's appends"
    );
    assert_eq!(
        snapshot.counter("kojak_online_events_applied_total"),
        snapshot.counter("kojak_online_events_replayed_total")
            + snapshot.counter("kojak_wal_appended_events_total"),
        "every applied event is either replayed in or logged by us"
    );
    // This process's bytes are the frames past the recovered prefix.
    let frames = frame_lengths(dir.path());
    assert_eq!(
        snapshot.counter("kojak_wal_appended_bytes_total"),
        frames[first_frames..].iter().sum::<u64>(),
        "the frames after the first process's"
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
    for spec in [None, Some(Suite::WithIoContention.spec())] {
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
        // At least as often as `SyncCost`, a standard property with the
        // same signature: it reads everything `SyncCost` reads (typed
        // timings of its region, the basis total) and more (the min-PE
        // total, and the typed timings of its run), so every fact that
        // re-evaluates one re-evaluates the other.
        let sync_cost =
            snapshot.counter("kojak_eval_property_evaluations_total{property=\"SyncCost\"}");
        assert!(!custom || io_contention >= sync_cost);
    }
}
