//! Online streaming: feed trace events from concurrently executing test
//! runs into one engine and watch the live, incrementally maintained
//! analysis reports.
//!
//! ```sh
//! cargo run --release --example online_stream
//! cargo run --release --example online_stream -- --shards 4
//! cargo run --release --example online_stream -- --kill-resume
//! cargo run --release --example online_stream -- --kill-resume --shards 4
//! ```
//!
//! `--shards N` builds the engine as N independent shards — with
//! durability, one WAL + snapshot pair per shard. The `--kill-resume`
//! mode demonstrates the durable engine: half the stream goes into a
//! durable engine that is then dropped without any shutdown (a process
//! kill), recovered from its write-ahead log(s) + snapshot(s), and fed
//! the remaining half — ending with the same reports an uninterrupted
//! session would show.

use kojak::apprentice_sim::{archetypes, simulate_program, MachineModel};
use kojak::cosy::report::render_text;
use kojak::engine::{AnalysisEngine, Engine, EngineBuilder};
use kojak::online::replay::{events_for_run, replay_run_key, replay_store};
use kojak::online::FsyncPolicy;
use kojak::perfdata::{Store, TestRunId};
use std::sync::Arc;

fn shards_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse().ok())
        .unwrap_or(1)
}

fn main() {
    if std::env::args().any(|a| a == "--kill-resume") {
        kill_resume_demo(shards_arg());
        return;
    }
    streaming_demo(shards_arg());
}

fn kill_resume_demo(shards: usize) {
    let model = archetypes::particle_mc(42);
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    simulate_program(&mut store, &model, &machine, &[1, 4, 16, 64]);
    let events = replay_store(&store);
    let cut = events.len() / 2;

    let dir = std::env::temp_dir().join(format!("kojak-online-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = || -> Engine {
        EngineBuilder::new()
            .durable(&dir)
            .shards(shards)
            .fsync(FsyncPolicy::EveryN(256))
            .snapshot_every_flushes(4)
            .build()
            .expect("open durable engine")
    };

    // Phase 1: stream half the events durably, then "kill" the process.
    let session = engine();
    for batch in events[..cut].chunks(64) {
        session.ingest_batch(batch).expect("ingest");
        session.flush().expect("flush");
    }
    println!(
        "phase 1: {} events ingested durably across {} shard(s), then the process dies\n",
        session.stats().events_applied,
        shards.max(1),
    );
    drop(session); // no checkpoint, no graceful shutdown: this is the kill

    // Phase 2: recover and resume.
    let session = engine();
    for r in session.recovery().expect("durable engines report recovery") {
        println!(
            "phase 2: recovered {} snapshot events + {} WAL-tail events{}",
            r.snapshot_events,
            r.wal_events_replayed,
            match &r.wal_corruption {
                Some(c) => format!("  (skipped torn tail: {c})"),
                None => String::new(),
            }
        );
    }
    for batch in events[cut..].chunks(64) {
        session.ingest_batch(batch).expect("ingest");
        session.flush().expect("flush");
    }
    let stats = session.stats();
    println!(
        "resumed to {} applied events ({} replayed at recovery); {} runs finished\n",
        stats.events_applied, stats.events_replayed, stats.runs_finished,
    );

    // The resumed engine ends exactly where an uninterrupted one would.
    let uninterrupted = EngineBuilder::new().build_online();
    uninterrupted.ingest_batch(&events).expect("ingest");
    uninterrupted.flush().expect("flush");
    let run64 = TestRunId(store.runs.len() as u32 - 1);
    let resumed_report = session
        .report(replay_run_key(run64))
        .expect("live report for the 64-PE run");
    assert_eq!(
        Some(&resumed_report),
        uninterrupted.report(replay_run_key(run64)).as_ref(),
        "kill-and-resume must converge to the uninterrupted reports"
    );
    println!("{}", render_text(&resumed_report));
    let _ = std::fs::remove_dir_all(&dir);
}

fn streaming_demo(shards: usize) {
    // A simulated PE sweep stands in for live producers: its runs are
    // decomposed into the event streams the instrumented runs would emit.
    let model = archetypes::particle_mc(42);
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    simulate_program(&mut store, &model, &machine, &[1, 4, 16, 64]);

    // One producer thread per run, all streaming concurrently into the
    // engine's own ingest_batch: one session at `--shards 1`, N
    // independent shards behind the same AnalysisEngine surface above.
    let engine = Arc::new(
        EngineBuilder::new()
            .shards(shards)
            .build()
            .expect("in-memory engine"),
    );
    std::thread::scope(|scope| {
        for r in 0..store.runs.len() as u32 {
            let events = events_for_run(&store, TestRunId(r));
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for batch in events.chunks(32) {
                    engine.ingest_batch(batch).expect("ingest");
                }
            });
        }
    });
    engine.flush().expect("flush");
    println!("engine: {} shard(s)", shards.max(1));
    report_outcome(engine.as_ref(), &store);
}

fn report_outcome(engine: &dyn AnalysisEngine, store: &Store) {
    let stats = engine.stats();
    println!(
        "ingested {} events ({} rejected); incremental engine: {} flushes, {} run \
         re-evaluations, {} property instances\n",
        stats.events_applied,
        stats.events_rejected,
        stats.incremental.flushes,
        stats.incremental.runs_reevaluated,
        stats.incremental.instances_evaluated,
    );

    // The live report of the largest configuration.
    let run64 = TestRunId(store.runs.len() as u32 - 1);
    let report = engine
        .report(replay_run_key(run64))
        .expect("live report for the 64-PE run");
    println!("{}", render_text(&report));
}
