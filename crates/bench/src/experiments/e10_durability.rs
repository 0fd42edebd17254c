//! E10 — durability: write-ahead-log append overhead and recovery time.
//!
//! Two questions a durable always-on analysis service must answer:
//!
//! * **What does the WAL cost on the hot path?** The same refinement-heavy
//!   event stream is ingested into a memory-only [`OnlineSession`] and
//!   into durable [`OnlineSession`]s (no fsync / batched fsync); the report is
//!   ns/event and the durable/memory overhead ratio.
//! * **What does a snapshot buy at restart?** The same session directory
//!   is recovered twice — once from the full WAL (replaying every
//!   historical event, refinements included, through `StoreBuilder::apply`)
//!   and once from a checkpoint snapshot (direct arena reconstruction,
//!   empty log tail). The PR-level claim: snapshot recovery is measurably
//!   faster than full replay, with bit-identical recovered reports.
//!
//! The stream is deliberately refinement-heavy (each run's timing events
//! are re-sent several times with drifting values, as a live monitor
//! refining running totals would): the WAL holds every refinement, the
//! snapshot only the final state — exactly the compaction a long-running
//! session accumulates.

use crate::table::Table;
use online::{DurableConfig, FsyncPolicy, OnlineSession, SessionConfig, TraceEvent};
use perfdata::{Store, TestRunId};
use std::path::PathBuf;
use std::time::Instant;

/// Runs in the store (PE sweep 1..=RUNS).
const RUNS: u32 = 12;
/// Extra refinement passes of each run's timing events. A live monitor
/// refreshes running totals continuously, so the log of a long-lived run
/// holds many overwrites per final record — the state a snapshot compacts.
const REFINEMENTS: usize = 24;
/// Ingestion batch size (the pipeline's default unit of work).
const BATCH: usize = 256;
/// Timing iterations for the recovery measurements.
const RECOVER_ITERS: usize = 5;
/// Timing iterations for the ingestion measurements.
const INGEST_ITERS: usize = 3;

/// Measured outcome of the durability experiment.
#[derive(Debug, Clone)]
pub struct E10Result {
    /// Events in the stream (refinements included).
    pub events: u64,
    /// Best ns/event, memory-only ingestion.
    pub memory_ns_per_event: u64,
    /// Best ns/event, durable ingestion without fsync.
    pub wal_ns_per_event: u64,
    /// Best ns/event, durable ingestion with batched fsync (every 256).
    pub wal_fsync_ns_per_event: u64,
    /// `wal_ns_per_event / memory_ns_per_event`.
    pub append_overhead: f64,
    /// WAL size after the full stream (bytes).
    pub wal_bytes: u64,
    /// Snapshot size after a checkpoint (bytes).
    pub snapshot_bytes: u64,
    /// Best wall-clock of recovery from the full WAL (no snapshot).
    pub replay_recovery_ns: u64,
    /// Best wall-clock of recovery from the snapshot (empty log tail).
    pub snapshot_recovery_ns: u64,
    /// `replay_recovery_ns / snapshot_recovery_ns`.
    pub recovery_speedup: f64,
    /// Are the live, WAL-recovered, and snapshot-recovered reports all
    /// bit-identical?
    pub reports_identical: bool,
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kojak-e10-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The refinement-heavy stream: per run, the full event sequence plus
/// `REFINEMENTS` re-sends of its measurement events with drifting values.
pub fn refinement_stream(store: &Store) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for r in 0..store.runs.len() as u32 {
        let run_events = online::replay::events_for_run(store, TestRunId(r));
        let measurements: Vec<TraceEvent> = run_events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::RegionExited { .. }
                        | TraceEvent::TypedSample { .. }
                        | TraceEvent::CallSiteStat { .. }
                )
            })
            .cloned()
            .collect();
        // Structure + first measurements, then refinements drifting toward
        // the final values, with the authoritative pass last (so the end
        // state equals the source store's timings).
        let finished = run_events.last().cloned();
        events.extend(
            run_events
                .iter()
                .filter(|e| !matches!(e, TraceEvent::RunFinished { .. }))
                .cloned(),
        );
        for pass in 0..REFINEMENTS {
            let scale = 0.9 + 0.1 * (pass as f64 / REFINEMENTS as f64);
            for m in &measurements {
                events.push(scale_measurement(m, scale));
            }
        }
        events.extend(measurements);
        events.extend(finished);
    }
    events
}

fn scale_measurement(event: &TraceEvent, scale: f64) -> TraceEvent {
    let mut e = event.clone();
    match &mut e {
        TraceEvent::RegionExited {
            excl, incl, ovhd, ..
        } => {
            *excl *= scale;
            *incl *= scale;
            *ovhd *= scale;
        }
        TraceEvent::TypedSample { time, .. } => *time *= scale,
        TraceEvent::CallSiteStat { stats, .. } => {
            stats.mean_time *= scale;
            stats.max_time *= scale;
        }
        _ => {}
    }
    e
}

/// Time one full ingestion (batched, flush at the end untimed for the
/// memory/durable comparison — the evaluation cost is identical on both
/// sides; the WAL is the only difference in the timed window).
fn ingest_ns(events: &[TraceEvent], durable: Option<FsyncPolicy>) -> u64 {
    let mut best = u64::MAX;
    for iter in 0..INGEST_ITERS {
        match durable {
            None => {
                let session = OnlineSession::new(SessionConfig::default());
                let t = Instant::now();
                for batch in events.chunks(BATCH) {
                    session.ingest_batch(batch).expect("ingest");
                }
                best = best.min(t.elapsed().as_nanos() as u64);
                session.flush().expect("flush");
            }
            Some(fsync) => {
                let dir = scratch(&format!("ingest-{iter}"));
                let session = OnlineSession::open(
                    &dir,
                    DurableConfig {
                        session: SessionConfig::default(),
                        fsync,
                        snapshot_every_flushes: 0,
                        faults: Default::default(),
                    },
                )
                .expect("open");
                let t = Instant::now();
                for batch in events.chunks(BATCH) {
                    session.ingest_batch(batch).expect("ingest");
                }
                best = best.min(t.elapsed().as_nanos() as u64);
                session.flush().expect("flush");
                drop(session);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    best / events.len() as u64
}

/// Run the experiment.
pub fn run() -> E10Result {
    let (store, _version) = crate::data::particle_store(&(1..=RUNS).collect::<Vec<_>>());
    let events = refinement_stream(&store);

    // --- WAL append overhead -------------------------------------------
    let memory_ns_per_event = ingest_ns(&events, None);
    let wal_ns_per_event = ingest_ns(&events, Some(FsyncPolicy::Never));
    let wal_fsync_ns_per_event = ingest_ns(&events, Some(FsyncPolicy::EveryN(256)));

    // --- recovery: full WAL replay vs snapshot + empty tail -------------
    // One directory per variant, identical history.
    let wal_dir = scratch("recover-wal");
    let snap_dir = scratch("recover-snap");
    let config = |snapshot_every| DurableConfig {
        session: SessionConfig::default(),
        fsync: FsyncPolicy::Never,
        snapshot_every_flushes: snapshot_every,
        faults: Default::default(),
    };
    let live = OnlineSession::open(&wal_dir, config(0)).expect("open wal dir");
    for batch in events.chunks(BATCH) {
        live.ingest_batch(batch).expect("ingest");
    }
    live.flush().expect("flush");
    let live_reports = live.reports();
    let wal_bytes = live.wal_len();
    drop(live); // killed: WAL holds the full history, no snapshot

    let snap = OnlineSession::open(&snap_dir, config(0)).expect("open snap dir");
    for batch in events.chunks(BATCH) {
        snap.ingest_batch(batch).expect("ingest");
    }
    snap.checkpoint().expect("checkpoint");
    drop(snap); // killed right after a checkpoint: snapshot only
    let snapshot_bytes = std::fs::metadata(snap_dir.join(online::durable::SNAPSHOT_FILE))
        .map(|m| m.len())
        .unwrap_or(0);

    let time_recover = |dir: &PathBuf| -> (u64, std::collections::HashMap<_, _>) {
        let mut best = u64::MAX;
        let mut reports = None;
        for _ in 0..RECOVER_ITERS {
            let t = Instant::now();
            let (session, _stats) =
                OnlineSession::recover(dir, SessionConfig::default()).expect("recover");
            best = best.min(t.elapsed().as_nanos() as u64);
            reports = Some(session.reports());
        }
        (best, reports.expect("iters > 0"))
    };
    let (replay_recovery_ns, wal_reports) = time_recover(&wal_dir);
    let (snapshot_recovery_ns, snap_reports) = time_recover(&snap_dir);

    let reports_identical = wal_reports == live_reports && snap_reports == live_reports;
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&snap_dir);

    E10Result {
        events: events.len() as u64,
        memory_ns_per_event,
        wal_ns_per_event,
        wal_fsync_ns_per_event,
        append_overhead: wal_ns_per_event as f64 / memory_ns_per_event.max(1) as f64,
        wal_bytes,
        snapshot_bytes,
        replay_recovery_ns,
        snapshot_recovery_ns,
        recovery_speedup: replay_recovery_ns as f64 / snapshot_recovery_ns.max(1) as f64,
        reports_identical,
    }
}

/// Render the E10 tables.
pub fn render(r: &E10Result) -> String {
    let ms = |ns: u64| format!("{:.2} ms", ns as f64 / 1e6);
    let kib = |b: u64| format!("{:.1} KiB", b as f64 / 1024.0);
    let mut ingest = Table::new(&["ingestion mode", "ns/event", "overhead vs memory"]);
    ingest.row(vec![
        "memory-only session".into(),
        r.memory_ns_per_event.to_string(),
        "1.0x".into(),
    ]);
    ingest.row(vec![
        "durable (no fsync)".into(),
        r.wal_ns_per_event.to_string(),
        format!("{:.2}x", r.append_overhead),
    ]);
    ingest.row(vec![
        "durable (fsync/256)".into(),
        r.wal_fsync_ns_per_event.to_string(),
        format!(
            "{:.2}x",
            r.wal_fsync_ns_per_event as f64 / r.memory_ns_per_event.max(1) as f64
        ),
    ]);
    let mut recover = Table::new(&["recovery path", "state on disk", "time"]);
    recover.row(vec![
        "full WAL replay".into(),
        kib(r.wal_bytes),
        ms(r.replay_recovery_ns),
    ]);
    recover.row(vec![
        "snapshot + empty tail".into(),
        kib(r.snapshot_bytes),
        ms(r.snapshot_recovery_ns),
    ]);
    format!(
        "{}\n{}\nsnapshot-accelerated recovery: {:.1}x faster  ({} events, reports identical: {})\n",
        ingest.render(),
        recover.render(),
        r.recovery_speedup,
        r.events,
        if r.reports_identical { "yes" } else { "NO" }
    )
}

/// Machine-readable JSON for `BENCH_e10.json`.
pub fn to_json(r: &E10Result) -> String {
    format!(
        "{{\n  \"experiment\": \"e10_durability\",\n  \
         \"events\": {},\n  \
         \"append\": {{ \"memory_ns_per_event\": {}, \"wal_ns_per_event\": {}, \"wal_fsync_ns_per_event\": {}, \"overhead\": {:.3} }},\n  \
         \"recovery\": {{ \"replay_ns_best\": {}, \"snapshot_ns_best\": {}, \"speedup\": {:.3}, \"wal_bytes\": {}, \"snapshot_bytes\": {} }},\n  \
         \"reports_identical\": {},\n  \
         \"regenerate\": \"cargo run --release -p kojak-bench --bin harness -- --e10\"\n}}\n",
        r.events,
        r.memory_ns_per_event,
        r.wal_ns_per_event,
        r.wal_fsync_ns_per_event,
        r.append_overhead,
        r.replay_recovery_ns,
        r.snapshot_recovery_ns,
        r.recovery_speedup,
        r.wal_bytes,
        r.snapshot_bytes,
        r.reports_identical
    )
}

/// The PR-level claims: identical reports on every recovery path, and a
/// snapshot restart measurably (≥ 1.5x) faster than a full WAL replay.
pub fn check_claims(r: &E10Result) -> Result<(), String> {
    if !r.reports_identical {
        return Err("recovered reports differ from the live session".into());
    }
    if r.recovery_speedup < 1.5 {
        return Err(format!(
            "snapshot recovery only {:.2}x faster than WAL replay ({} ns vs {} ns)",
            r.recovery_speedup, r.snapshot_recovery_ns, r.replay_recovery_ns
        ));
    }
    // The WAL must not dominate the hot path: guard the no-fsync overhead
    // (fsync cost is the operator's explicit durability/latency trade).
    if r.append_overhead > 10.0 {
        return Err(format!(
            "WAL append overhead {:.1}x vs memory-only ingestion",
            r.append_overhead
        ));
    }
    Ok(())
}
