//! Allocation pin of recovery — an exact count a noisy host can check,
//! where a stopwatch cannot.
//!
//! A durable session ingests a fixed refinement stream (every run's
//! measurements re-sent as running totals, round after round), is
//! checkpointed after the first round and killed after the last, and is
//! recovered: snapshot load, WAL-tail replay, one full flush. The session
//! evaluates a suite of no properties first, so the flush costs next to
//! nothing: the ledger is the ingest side's. Replay decodes every batch
//! frame in place, into the slots of one reused chunk of 256 events and
//! more (whole frames), each name once per frame, and resolves a repeat
//! run or function from the builder's memo, so the events themselves
//! allocate next to nothing once the chunk is warm (a slot's string grows
//! to the longest it is handed, and one dropped by a change of variant is
//! made again): what is left is the snapshot's store, the log image, the
//! chunk and the replay's delta sets. The same stream is then recovered
//! under the standard suite, whose flush evaluates every run on the
//! recovering thread, so that count is as exact. A change that moves
//! either count must restate it here, on purpose.
//!
//! Own test binary, one test function: the counter is the process's
//! global allocator.

use online::{DurableConfig, OnlineSession, SessionConfig, TraceEvent};
use std::sync::Arc;
use testkit::{allocations, durable_config, uninterrupted, Scenario, ScratchDir};

#[global_allocator]
static GLOBAL: testkit::Counting = testkit::Counting;

/// Times every run's measurements are sent.
const ROUNDS: u32 = 24;

/// Two versions of a generated program, three runs each, then its
/// measurement events re-sent `ROUNDS - 1` more times, each round's
/// timings a larger share of the final ones; and the length of the first
/// round.
fn refinement_stream() -> (Vec<TraceEvent>, usize) {
    let structure = Scenario {
        versions: 2,
        functions: 6,
        pes: vec![1, 2, 4],
        ..Scenario::new(11)
    }
    .events();
    let mut events = structure.clone();
    for round in 2..=ROUNDS {
        let share = f64::from(round) / f64::from(ROUNDS);
        events.extend(structure.iter().filter_map(|event| match event.clone() {
            TraceEvent::RegionExited {
                run,
                function,
                region,
                excl,
                incl,
                ovhd,
            } => Some(TraceEvent::RegionExited {
                run,
                function,
                region,
                excl: excl * share,
                incl: incl * share,
                ovhd: ovhd * share,
            }),
            TraceEvent::TypedSample {
                run,
                function,
                region,
                ty,
                time,
            } => Some(TraceEvent::TypedSample {
                run,
                function,
                region,
                ty,
                time: time * share,
            }),
            refined @ TraceEvent::CallSiteStat { .. } => Some(refined),
            _ => None,
        }));
    }
    (events, structure.len())
}

/// Open a durable session under `config` in `dir`, ingest `events`,
/// checkpointing after the first round, and kill it: dropped without a
/// checkpoint.
fn killed_session(dir: &ScratchDir, config: &SessionConfig, events: &[TraceEvent], first: usize) {
    let durable = DurableConfig {
        session: config.clone(),
        ..durable_config(0)
    };
    let session = OnlineSession::open(dir.path(), durable).unwrap();
    session.ingest_batch(&events[..first]).unwrap();
    session.flush().unwrap();
    session.checkpoint().unwrap();
    for batch in events[first..].chunks(256) {
        session.ingest_batch(batch).unwrap();
    }
}

#[test]
fn recovery_allocations_are_pinned() {
    let (events, first_round) = refinement_stream();
    let no_properties = asl_core::check::check(&asl_core::parser::parse("").unwrap()).unwrap();
    let config = SessionConfig {
        spec: Some(Arc::new(no_properties)),
        ..SessionConfig::default()
    };
    let dir = ScratchDir::new("recover-budget");
    killed_session(&dir, &config, &events, first_round);

    let (count, recovered) = allocations(|| OnlineSession::recover(dir.path(), config));
    let (session, stats) = recovered.unwrap();
    let tail = (events.len() - first_round) as u64;
    assert_eq!(
        (stats.wal_events_replayed, stats.wal_events_rejected),
        (tail, 0)
    );
    assert!(tail > 4096, "the tail must span more than one replay chunk");
    assert_eq!(session.stats().events_applied, events.len() as u64);
    assert_eq!(
        session.store_snapshot(),
        uninterrupted(&events).store_snapshot()
    );
    println!(
        "recovery: {count} allocations for a {tail}-event log tail over a snapshot of {first_round} events"
    );
    // Decoding each frame into a fresh event, as replay did before,
    // allocated 46 556 times here: one per string of every replayed event.
    // The flush derives each version's context once and keeps it, and
    // builds no label for a spec under which nothing holds: 15 504 → 15 503.
    // Every run now gets its header-only report (six program names, the
    // report map, the changed-run lists); the flush no longer keeps a
    // basis map or a set of owed runs, collects no subject list no family
    // reads, and recovery counts its runs off the flush instead of
    // cloning every report: 15 503 → 15 500.
    assert_eq!(count, 3_298, "allocations of one recovery");

    // The same stream under the standard suite: the flush evaluates every
    // run on the recovering thread, so this count does not depend on the
    // host's cores either.
    let suite = SessionConfig::default();
    let dir = ScratchDir::new("recover-budget-suite");
    killed_session(&dir, &suite, &events, first_round);
    let (count, recovered) = allocations(|| OnlineSession::recover(dir.path(), suite));
    let (session, _) = recovered.unwrap();
    println!("recovery under the standard suite: {count} allocations");
    assert_eq!(session.reports().len(), 6);
    // 19 997 before the evaluator kept cells per subject and context:
    // its plan now keys shared subtrees structurally when the spec is
    // first bound (+84 allocations, once), each binding that reaches a
    // site keeps a row table, a ranked run sorts packed keys beside its
    // entries, and a batch no longer reserves room for frames it does not
    // open: 19 997 → 20 079. Report names are interned, not shared
    // strings made per version (an entry copies a reference), while a
    // scratch reserves four lane stacks and an error table and an
    // evaluator the rows of its recent subject lists: 20 079 → 19 982.
    // The evaluator keeps a subject list per subject a batch starts with,
    // made as batches arrive, where it reserved four at once, and a row
    // per subject for the list its batches start: 19 982 → 19 999.
    // Batch frames and a replay chunk of 256 (see above): 19 999 → 7 797.
    // The parser moves each token's text into the tree instead of cloning
    // it (twice per identifier): 7 797 → 6 757.
    assert_eq!(count, 6_757, "allocations of one recovery under the suite");
}
