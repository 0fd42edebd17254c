//! Concurrent fan-in without a router in front: producer threads call
//! `ingest_batch` directly on one shared engine — a single
//! [`OnlineSession`] and a 2-shard [`ShardedSession`] — and the live
//! reports must come out as a sequential analysis would produce them.
//! Concurrent apply order legitimately permutes arena ids, so every
//! assertion here is id-free.

use apprentice_sim::{archetypes, simulate_program, MachineModel};
use cosy::{Analyzer, Backend, ProblemThreshold};
use engine::{AnalysisEngine, ShardedSession};
use online::replay::{events_for_run, replay_run_key};
use online::{OnlineSession, SessionConfig};
use perfdata::{Store, TestRunId};
use std::sync::{Arc, Barrier};

fn simulated_store(pe_counts: &[u32]) -> Store {
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &archetypes::particle_mc(42),
        &MachineModel::t3e_900(),
        pe_counts,
    );
    store
}

/// Both shapes of the one session core.
fn engines() -> Vec<(&'static str, Arc<dyn AnalysisEngine>)> {
    vec![
        (
            "online",
            Arc::new(OnlineSession::new(SessionConfig::default())),
        ),
        (
            "2-shard",
            Arc::new(ShardedSession::in_memory(2, SessionConfig::default())),
        ),
    ]
}

#[test]
fn concurrent_producers_into_one_engine() {
    // One producer thread per run, all released together and streaming
    // small batches so their applies interleave.
    let store = simulated_store(&[1, 4, 16]);
    for (name, engine) in engines() {
        let start = Barrier::new(store.runs.len());
        std::thread::scope(|scope| {
            for r in 0..store.runs.len() as u32 {
                let events = events_for_run(&store, TestRunId(r));
                let (engine, start) = (Arc::clone(&engine), &start);
                scope.spawn(move || {
                    start.wait();
                    for batch in events.chunks(8) {
                        engine.ingest_batch(batch).unwrap();
                    }
                });
            }
        });
        engine.flush().unwrap();
        assert_eq!(engine.stats().events_rejected, 0, "{name}");

        // Every run has a live report with the analysis invariants intact.
        let reports = engine.reports();
        assert_eq!(reports.len(), store.runs.len(), "{name}");
        for (key, report) in &reports {
            for w in report.entries.windows(2) {
                assert!(
                    w[0].severity >= w[1].severity,
                    "{name} {key}: ranking order"
                );
            }
            for (i, e) in report.entries.iter().enumerate() {
                assert_eq!(e.rank, i + 1, "{name} {key}: rank numbering");
            }
        }
        // The 16-PE run must show problems for this archetype.
        let run16 = reports
            .values()
            .find(|r| r.no_pe == 16)
            .expect("16-PE report");
        assert!(run16.needs_tuning(), "{name}");

        // And each report is the batch analyzer's, by name and severity.
        for run in (0..store.runs.len() as u32).map(TestRunId) {
            let batch = Analyzer::new(&store, store.runs[run.index()].version)
                .unwrap()
                .analyze(run, Backend::Interpreter, ProblemThreshold::default())
                .unwrap();
            let online = &reports[&replay_run_key(run)];
            assert_eq!(batch.entries.len(), online.entries.len(), "{name} {run}");
            for (b, o) in batch.entries.iter().zip(&online.entries) {
                assert_eq!(b.property, o.property, "{name} {run}");
                assert_eq!(b.context.label, o.context.label, "{name} {run}");
                assert!(
                    (b.severity - o.severity).abs() <= 1e-9 * b.severity.abs().max(1.0),
                    "{name} {run} {}: {} vs {}",
                    b.property,
                    b.severity,
                    o.severity
                );
            }
        }
    }
}

#[test]
fn mid_stream_flush_serves_partial_reports() {
    let store = simulated_store(&[1, 8]);
    let events = events_for_run(&store, TestRunId(1));
    let key = replay_run_key(TestRunId(1));
    for (name, engine) in engines() {
        engine
            .ingest_batch(&events_for_run(&store, TestRunId(0)))
            .unwrap();
        // Stream only half of run 1, then flush: a live (partial) report
        // must be available already.
        let half = events.len() / 2;
        engine.ingest_batch(&events[..half]).unwrap();
        let updated = engine.flush().unwrap();
        assert!(!updated.is_empty(), "{name}");
        let partial = engine
            .report(key)
            .unwrap_or_else(|| panic!("{name}: partial report must exist mid-stream"));

        engine.ingest_batch(&events[half..]).unwrap();
        engine.flush().unwrap();
        let full = engine.report(key).unwrap();
        assert!(full.entries.len() >= partial.entries.len(), "{name}");
    }
}
