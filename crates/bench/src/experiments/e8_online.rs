//! E8 — online ingestion: incremental re-analysis of a single-run append
//! vs full batch re-analysis of the whole store.
//!
//! The scenario the `cosy-online` subsystem exists for: a store already
//! holds many analyzed test runs and a new run streams in. Batch COSY
//! re-evaluates every (property × context × run) instance; the incremental
//! engine evaluates only the new run's contexts (plus whatever the delta
//! invalidated). The claim checked here is the ROADMAP-facing one:
//! **≥ 10× faster** for a single-run append on a 50-run store.

use crate::table::Table;
use cosy::{Analyzer, Backend, ProblemThreshold};
use online::replay::events_for_run;
use online::{OnlineSession, SessionConfig};
use perfdata::TestRunId;
use std::sync::Arc;
use std::time::Instant;

/// Measured outcome of the append-one-run comparison.
#[derive(Debug, Clone)]
pub struct E8Result {
    /// Runs in the store before the append.
    pub base_runs: usize,
    /// Trace events the appended run comprises.
    pub events: usize,
    /// Wall-clock of the incremental path (ingest + flush), milliseconds.
    pub incremental_ms: f64,
    /// Property instances the incremental flush evaluated.
    pub incremental_instances: u64,
    /// Wall-clock of full batch re-analysis of all runs, milliseconds.
    pub full_ms: f64,
    /// Property instances the batch pass evaluated.
    pub full_instances: u64,
    /// `full_ms / incremental_ms`.
    pub speedup: f64,
}

/// Append one 64-PE run to a `base_runs`-run particle-MC store, measuring
/// the incremental path against full batch re-analysis.
pub fn run(base_runs: usize) -> E8Result {
    let threshold = ProblemThreshold::default();
    // Store with base_runs runs at 1..=base_runs PEs plus the appended
    // 64-PE run (so the batch side sees the identical final store).
    let mut pe_counts: Vec<u32> = (1..=base_runs as u32).collect();
    pe_counts.push(64);
    let (store, version) = crate::data::particle_store(&pe_counts);
    let appended = TestRunId(base_runs as u32);

    // --- incremental: session pre-loaded with the base runs ------------
    let session = OnlineSession::new(SessionConfig {
        threshold,
        ..SessionConfig::default()
    });
    for r in 0..base_runs as u32 {
        session
            .ingest_batch(&events_for_run(&store, TestRunId(r)))
            .expect("base ingest");
    }
    session.flush().expect("base flush");
    let events = events_for_run(&store, appended);
    let instances_before = session.stats().incremental.instances_evaluated;

    let t = Instant::now();
    session.ingest_batch(&events).expect("append ingest");
    session.flush().expect("append flush");
    let incremental_ms = t.elapsed().as_secs_f64() * 1e3;
    let incremental_instances = session.stats().incremental.instances_evaluated - instances_before;

    // --- batch: re-analyze every run of the final store -----------------
    let spec = Arc::new(cosy::suite::standard_suite());
    let t = Instant::now();
    let analyzer = Analyzer::with_spec(&store, version, Arc::clone(&spec)).expect("analyzer");
    let mut full_instances = 0u64;
    for r in 0..store.runs.len() as u32 {
        let run = TestRunId(r);
        full_instances += analyzer.instance_universe() as u64;
        analyzer
            .analyze(run, Backend::Compiled, threshold)
            .expect("batch analysis");
    }
    let full_ms = t.elapsed().as_secs_f64() * 1e3;

    E8Result {
        base_runs,
        events: events.len(),
        incremental_ms,
        incremental_instances,
        full_ms,
        full_instances,
        speedup: full_ms / incremental_ms.max(1e-9),
    }
}

/// Render the E8 table.
pub fn render(r: &E8Result) -> String {
    let mut t = Table::new(&[
        "path",
        "work after 1-run append",
        "instances evaluated",
        "wall clock",
    ]);
    t.row(vec![
        "batch re-analysis".into(),
        format!("all {} runs", r.base_runs + 1),
        r.full_instances.to_string(),
        format!("{:.2} ms", r.full_ms),
    ]);
    t.row(vec![
        "incremental (online)".into(),
        format!("1 run ({} events)", r.events),
        r.incremental_instances.to_string(),
        format!("{:.2} ms", r.incremental_ms),
    ]);
    format!("{}\nspeedup: {:.1}x\n", t.render(), r.speedup)
}

/// The claim: a single-run append on a 50-run store is at least 10x faster
/// incrementally than by full re-analysis.
pub fn check_claims(r: &E8Result) -> Result<(), String> {
    if r.speedup < 10.0 {
        return Err(format!(
            "incremental append only {:.1}x faster than batch ({}ms vs {}ms)",
            r.speedup, r.incremental_ms, r.full_ms
        ));
    }
    if r.incremental_instances * 10 > r.full_instances {
        return Err(format!(
            "incremental evaluated {} of {} instances — dirty tracking too coarse",
            r.incremental_instances, r.full_instances
        ));
    }
    Ok(())
}
