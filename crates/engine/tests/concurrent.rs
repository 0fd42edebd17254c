//! Concurrent fan-in without a router in front: producer threads call
//! `ingest_batch` directly on one shared engine — a single
//! [`OnlineSession`] and a 2-shard [`ShardedSession`] — and the live
//! reports must come out as a sequential analysis would produce them.
//! Concurrent apply order legitimately permutes arena ids, so every
//! assertion here is id-free.

use engine::{AnalysisEngine, ShardedSession};
use online::{OnlineSession, RunKey, SessionConfig, TraceEvent};
use std::sync::{Arc, Barrier};
use testkit::{Program, Scenario};

fn scenario(pes: &[u32]) -> Scenario {
    Scenario {
        program: Program::ParticleMc,
        pes: pes.to_vec(),
        ..Scenario::new(42)
    }
}

/// The event streams of one version's runs on `pes`, run by run.
fn runs(pes: &[u32]) -> Vec<Vec<TraceEvent>> {
    let events = scenario(pes).events();
    let mut runs: Vec<Vec<TraceEvent>> = vec![Vec::new(); pes.len()];
    for event in events {
        runs[event.run_key().0 as usize].push(event);
    }
    runs
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
    let runs = runs(&[1, 4, 16]);
    let simulated = scenario(&[1, 4, 16]).reports();
    for (name, engine) in engines() {
        let start = Barrier::new(runs.len());
        std::thread::scope(|scope| {
            for events in &runs {
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
        assert_eq!(reports.len(), runs.len(), "{name}");
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
        // And each report is the interpreter's over the simulated store,
        // bit for bit but for the arena ids.
        testkit::assert_reports_agree(name, false, &simulated, &reports);
    }
}

#[test]
fn mid_stream_flush_serves_partial_reports() {
    let runs = runs(&[1, 8]);
    let events = &runs[1];
    let key = RunKey(1);
    for (name, engine) in engines() {
        engine.ingest_batch(&runs[0]).unwrap();
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
