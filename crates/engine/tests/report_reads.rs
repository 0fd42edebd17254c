//! Allocation pin of report reads — an exact count a noisy host can
//! check, where a stopwatch cannot.
//!
//! A report's entries are one shared, immutable slice: reading a report
//! clones its header and shares the entries. So `report(run)` allocates
//! the header's `program` string and nothing else, and `reports()`
//! allocates what the same read of reports holding no entry at all does —
//! its count depends on the number of runs, not on the number of entries.
//! Reports holding none come from a spec of one property that never
//! holds.
//! Both hold for one engine and for a sharded one, whose merge of the
//! shards' maps moves reports and copies no entry.
//!
//! Own test binary, one test function: the counter is the process's
//! global allocator.

use engine::{AnalysisEngine, Engine, EngineBuilder};
use online::TraceEvent;
use std::collections::BTreeSet;
use std::sync::Arc;
use testkit::{allocations, Scenario};

#[global_allocator]
static GLOBAL: testkit::Counting = testkit::Counting;

/// An engine of `shards` shards under `spec`, fed `events` and flushed.
fn flushed(
    spec: Arc<asl_core::check::CheckedSpec>,
    shards: usize,
    events: &[TraceEvent],
) -> Engine {
    let engine = EngineBuilder::new()
        .spec(spec)
        .shards(shards)
        .build()
        .unwrap();
    engine.ingest_batch(events).unwrap();
    engine.flush().unwrap();
    engine
}

#[test]
fn report_reads_copy_no_entry() {
    let scenario = Scenario {
        pes: vec![1, 4, 16],
        versions: 2,
        ..Scenario::new(7)
    };
    let events = scenario.events();
    let never = format!(
        "{}\nProperty Never(Region r, TestRun t, Region Basis) {{ \
         CONDITION: t.NoPe < 0; CONFIDENCE: 1; SEVERITY: 1; }}",
        asl_eval::COSY_DATA_MODEL
    );
    let never = Arc::new(asl_core::parse_and_check(&never).unwrap());
    for shards in [1, 3] {
        let full = flushed(scenario.spec(), shards, &events);
        let bare = flushed(Arc::clone(&never), shards, &events);
        let (reports, empty) = (full.reports(), bare.reports());
        let runs: BTreeSet<_> = reports.keys().copied().collect();
        let empty_runs: BTreeSet<_> = empty.keys().copied().collect();
        assert_eq!(runs, empty_runs);
        let entries: usize = reports.values().map(|r| r.entries.len()).sum();
        assert!(entries > 100, "{entries} entries");
        assert!(empty.values().all(|r| r.entries.is_empty()));

        for &run in &runs {
            let (count, report) = allocations(|| full.report(run));
            let report = report.unwrap();
            assert!(!report.program.is_empty() && !report.entries.is_empty());
            assert_eq!(count, 1, "{shards} shard(s): a read of run {run:?}");
        }
        let (count, all) = allocations(|| full.reports());
        let (without_entries, _) = allocations(|| bare.reports());
        println!(
            "{shards} shard(s): reports() of {} runs, {entries} entries: {count} allocations",
            all.len()
        );
        assert_eq!(count, without_entries, "{shards} shard(s)");
    }
}
