//! E11 — sharding: ingest throughput of the shard-per-WAL engine.
//!
//! The ROADMAP's multi-node sharding item, measured through the new
//! engine API: the same multi-version event stream is ingested into a
//! durable `ShardedSession` (one WAL + snapshot pair per shard)
//! at 1/2/4/8 shards, timing ingestion + the final analysis flush.
//! Version-affine routing spreads the stream's program versions over the
//! shards, so WAL appends, store building and property evaluation all
//! proceed in parallel across shards.
//!
//! Claims checked:
//! * the merged reports are canonically identical at every shard count
//!   (sharding never changes an analysis result);
//! * on a multicore host (≥ 4), the best multi-shard configuration is at
//!   least as fast as a single shard; on smaller hosts the claim degrades
//!   to a bounded overhead (parallelism cannot help a single core, but
//!   sharding must not wreck throughput either).

use crate::table::Table;
use cosy::AnalysisReport;
use engine::{AnalysisEngine, ShardedConfig, ShardedSession};
use online::replay::events_for_run;
use online::{DurableConfig, FsyncPolicy, RunKey, SessionConfig, TraceEvent};
use perfdata::{Store, TestRunId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Shard counts swept.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Ingestion batch size (the pipeline's default unit of work).
const BATCH: usize = 256;
/// Timing iterations (best-of).
const ITERS: usize = 3;

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct E11Row {
    /// Shard count.
    pub shards: usize,
    /// Best ns/event for ingest + final flush.
    pub ns_per_event: u64,
    /// Derived events/second.
    pub events_per_sec: u64,
    /// Throughput relative to the 1-shard row.
    pub speedup: f64,
}

/// Measured outcome of the sharding experiment.
#[derive(Debug, Clone)]
pub struct E11Result {
    /// Events in the stream.
    pub events: u64,
    /// Program versions in the stream (the units the router spreads).
    pub versions: usize,
    /// Host parallelism the measurement ran under.
    pub cores: usize,
    /// One row per shard count.
    pub rows: Vec<E11Row>,
    /// Best multi-shard speedup vs the single shard.
    pub best_multi_speedup: f64,
    /// Are the merged reports canonically identical at every shard count?
    pub reports_identical: bool,
    /// The multi-shard speedup gate is skipped (annotated, not silently
    /// passed) when the host cannot run two shards in parallel.
    pub speedup_gate_skipped: bool,
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kojak-e11-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A multi-version workload: several simulated programs, interleaved into
/// one stream the router can spread over shards.
pub fn multi_version_stream() -> (Store, Vec<TraceEvent>) {
    use apprentice_sim::{archetypes, simulate_program, MachineModel, ProgramGenerator};
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    for seed in 0..4u64 {
        let gen = ProgramGenerator {
            seed: 100 + seed,
            functions: 2,
            max_depth: 3,
            max_fanout: 3,
            base_work: 0.01,
            comm_probability: 0.6,
        };
        simulate_program(&mut store, &gen.generate(), &machine, &[1, 4, 8]);
    }
    simulate_program(&mut store, &archetypes::particle_mc(7), &machine, &[1, 8]);
    simulate_program(&mut store, &archetypes::stencil3d(9), &machine, &[1, 8]);

    // Round-robin interleave of the per-run streams: every shard sees
    // work throughout the stream, as concurrent producers would deliver.
    let mut streams: Vec<std::vec::IntoIter<TraceEvent>> = (0..store.runs.len() as u32)
        .map(|r| events_for_run(&store, TestRunId(r)).into_iter())
        .collect();
    let mut events = Vec::new();
    loop {
        let mut drained = true;
        for s in &mut streams {
            if let Some(e) = s.next() {
                events.push(e);
                drained = false;
            }
        }
        if drained {
            break;
        }
    }
    (store, events)
}

/// Id-free report projection (shard-local stores allocate their own arena
/// ids). Shared with E12, which compares across producer interleavings.
pub(crate) fn canonical(reports: &HashMap<RunKey, AnalysisReport>) -> Vec<String> {
    let mut out: Vec<String> = reports
        .iter()
        .map(|(key, r)| {
            let entries: Vec<String> = r
                .entries
                .iter()
                .map(|e| {
                    format!(
                        "{}:{}@{}={:x}",
                        e.rank,
                        e.property,
                        e.context.label,
                        e.severity.to_bits()
                    )
                })
                .collect();
            format!(
                "{key} {} pe{} ref{} cost{:x} skip{} [{}]",
                r.program,
                r.no_pe,
                r.reference_pe,
                r.total_cost.to_bits(),
                r.skipped,
                entries.join(";")
            )
        })
        .collect();
    out.sort();
    out
}

fn ingest_once(events: &[TraceEvent], shards: usize, iter: usize) -> (u64, Vec<String>) {
    let dir = scratch(&format!("s{shards}-i{iter}"));
    let config = ShardedConfig {
        shards,
        durable: DurableConfig {
            session: SessionConfig::default(),
            fsync: FsyncPolicy::Never,
            snapshot_every_flushes: 0,
            faults: Default::default(),
        },
    };
    let (engine, _) = ShardedSession::open(&dir, config).expect("open sharded engine");
    let t = Instant::now();
    for batch in events.chunks(BATCH) {
        engine.ingest_batch(batch).expect("ingest");
    }
    engine.flush().expect("flush");
    let elapsed = t.elapsed().as_nanos() as u64;
    let reports = canonical(&engine.reports());
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    (elapsed, reports)
}

/// Run the experiment.
pub fn run() -> E11Result {
    let (store, events) = multi_version_stream();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut rows = Vec::new();
    let mut baseline_reports: Option<Vec<String>> = None;
    let mut reports_identical = true;
    let mut single_ns = 0u64;
    for &shards in &SHARD_COUNTS {
        let mut best = u64::MAX;
        let mut reports = Vec::new();
        for iter in 0..ITERS {
            let (elapsed, r) = ingest_once(&events, shards, iter);
            best = best.min(elapsed);
            reports = r;
        }
        match &baseline_reports {
            None => baseline_reports = Some(reports),
            Some(base) => reports_identical &= &reports == base,
        }
        let ns_per_event = best / events.len() as u64;
        if shards == 1 {
            single_ns = ns_per_event;
        }
        rows.push(E11Row {
            shards,
            ns_per_event,
            events_per_sec: 1_000_000_000 / ns_per_event.max(1),
            speedup: single_ns as f64 / ns_per_event.max(1) as f64,
        });
    }
    let best_multi_speedup = rows
        .iter()
        .filter(|r| r.shards > 1)
        .map(|r| r.speedup)
        .fold(0.0, f64::max);

    E11Result {
        events: events.len() as u64,
        versions: store.versions.len(),
        cores,
        rows,
        best_multi_speedup,
        reports_identical,
        speedup_gate_skipped: cores < 2,
    }
}

/// Render the E11 table.
pub fn render(r: &E11Result) -> String {
    let mut table = Table::new(&["shards", "ns/event", "events/s", "speedup vs 1 shard"]);
    for row in &r.rows {
        table.row(vec![
            row.shards.to_string(),
            row.ns_per_event.to_string(),
            row.events_per_sec.to_string(),
            format!("{:.2}x", row.speedup),
        ]);
    }
    format!(
        "{}\n{} events over {} program versions, {} host core(s); merged reports identical \
         at every shard count: {}{}\n",
        table.render(),
        r.events,
        r.versions,
        r.cores,
        if r.reports_identical { "yes" } else { "NO" },
        if r.speedup_gate_skipped {
            "\nspeedup gate SKIPPED: single-core host, parallel shards cannot win by construction"
        } else {
            ""
        }
    )
}

/// Machine-readable JSON for `BENCH_e11.json`.
pub fn to_json(r: &E11Result) -> String {
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            format!(
                "{{ \"shards\": {}, \"ns_per_event\": {}, \"events_per_sec\": {}, \"speedup\": {:.3} }}",
                row.shards, row.ns_per_event, row.events_per_sec, row.speedup
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"e11_sharding\",\n  \
         \"events\": {},\n  \
         \"versions\": {},\n  \
         \"cores\": {},\n  \
         \"sweep\": [ {} ],\n  \
         \"best_multi_speedup\": {:.3},\n  \
         \"reports_identical\": {},\n  \
         \"speedup_gate\": \"{}\",\n  \
         \"regenerate\": \"cargo run --release -p kojak-bench --bin harness -- --e11\"\n}}\n",
        r.events,
        r.versions,
        r.cores,
        rows.join(", "),
        r.best_multi_speedup,
        r.reports_identical,
        if r.speedup_gate_skipped {
            "skipped: single-core host, parallel shards cannot win by construction"
        } else {
            "enforced"
        }
    )
}

/// The PR-level claims: sharding never changes an analysis result, and it
/// pays its way — linear-ish on multicore hosts, bounded overhead on a
/// single core (where parallel shards cannot win by construction).
pub fn check_claims(r: &E11Result) -> Result<(), String> {
    if !r.reports_identical {
        return Err("merged reports differ across shard counts".into());
    }
    // A single hardware thread cannot run two shards in parallel: the
    // speedup gate degrades to an annotated skip (recorded in the JSON),
    // never to a silently lowered bar.
    if r.speedup_gate_skipped {
        return Ok(());
    }
    let floor = if r.cores >= 4 { 1.0 } else { 0.35 };
    if r.best_multi_speedup < floor {
        return Err(format!(
            "best multi-shard throughput only {:.2}x of single-shard (floor {:.2}x on {} core(s))",
            r.best_multi_speedup, floor, r.cores
        ));
    }
    Ok(())
}
