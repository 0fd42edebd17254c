//! E13 — observability: stage-latency breakdown + instrumentation cost.
//!
//! PR 6's self-instrumentation layer (`kojak-obs`) times every pipeline
//! stage of the event lifecycle with lock-free histograms. This
//! experiment (a) reports the per-stage latency breakdown (p50/p99/max)
//! for a multi-version ingest workload on a durable sharded engine
//! at 1 and 4 shards — the first measured answer to the ROADMAP's "where
//! does an ingested event's time go?" question — and (b) gates the cost
//! of the always-on instrumentation itself: ingest throughput with the
//! registry live vs. disabled through the runtime kill switch
//! ([`obs::set_enabled`]) must differ by at most a few percent.
//!
//! Claims checked:
//! * every hot stage histogram (apply, flush, WAL append, WAL fsync) is
//!   live at both shard counts — the breakdown cannot silently go dark
//!   (the breakdown leg fsyncs every 256 events for exactly this reason);
//! * instrumentation overhead ≤ 3% (median of per-pair ratios over
//!   alternating enabled/disabled pairs).

use engine::{AnalysisEngine, ShardedConfig, ShardedSession};
use obs::MetricsSnapshot;
use online::replay::events_for_run;
use online::{DurableConfig, FsyncPolicy, RunKey, SessionConfig, TraceEvent};
use perfdata::{Store, TestRunId};
use std::path::PathBuf;
use std::time::Instant;

/// Shard counts for the stage breakdown.
pub const SHARD_COUNTS: [usize; 2] = [1, 4];
/// Ingestion batch size.
const BATCH: usize = 256;
/// Enabled/disabled pairs for the overhead gate. The two passes of a
/// pair run back to back, so slow host drift cancels inside the pair's
/// ratio, and the arm that goes first swaps every pair so neither owns
/// the warmer slot. What is left is per-pass jitter: with the *same* code
/// in both arms the per-pair ratio has an interquartile range of
/// 0.91–1.10 on the shared CI host (three samples of 200–400 pairs). The
/// median of 10 such pairs crosses the 3 % gate in 20–28 % of runs and
/// catches a real 6 % regression in only 70–76 % — no better than the
/// best-of-5 it replaces. At 150 pairs the median's standard deviation is
/// 0.9–1.4 %: a false failure in 0.1–2 % of runs, a 6 % regression caught
/// in ≥ 98 % (bootstrap over the same samples).
const PAIRS: usize = 150;
/// The overhead gate: enabled vs. disabled throughput within this.
pub const MAX_OVERHEAD_PCT: f64 = 3.0;

/// The stage histograms reported in the breakdown, in lifecycle order.
const STAGES: [&str; 5] = [
    "kojak_online_apply_ns",
    "kojak_online_flush_ns",
    "kojak_wal_append_ns",
    "kojak_wal_fsync_ns",
    "kojak_snapshot_write_ns",
];

/// One stage of the breakdown at one shard count.
#[derive(Debug, Clone)]
pub struct E13Stage {
    /// Shard count this row was measured at.
    pub shards: usize,
    /// Histogram name (`kojak_<layer>_<stage>_ns`).
    pub stage: &'static str,
    /// Recorded samples (merged over shards).
    pub count: u64,
    /// Median latency, ns (log-bucket upper bound, capped at the max).
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Largest recorded sample, ns.
    pub max_ns: u64,
}

/// Measured outcome of the observability experiment.
#[derive(Debug, Clone)]
pub struct E13Result {
    /// Events in the stream.
    pub events: u64,
    /// Host parallelism the measurement ran under.
    pub cores: usize,
    /// Per-stage breakdown rows (both shard counts).
    pub stages: Vec<E13Stage>,
    /// Median ns/event over the pairs with the registry live.
    pub enabled_ns_per_event: u64,
    /// Median ns/event with recording disabled via the kill switch.
    pub disabled_ns_per_event: u64,
    /// Throughput cost of instrumentation, percent: the median of the
    /// per-pair enabled/disabled ratios (floored at 0 — measurement
    /// noise can make the enabled arm *faster*).
    pub overhead_pct: f64,
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kojak-e13-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A multi-version workload: several simulated programs, interleaved into
/// one stream the router can spread over shards.
fn multi_version_stream() -> Vec<TraceEvent> {
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
    events
}

/// That workload replicated `reps` times under remapped run keys
/// *and* version tags (each replica is a distinct program version —
/// reusing a version would put several runs at the same PE count into
/// one version and break the suite's unique-reference-run assumption):
/// long enough that per-pass fixed costs (engine open, final snapshot)
/// do not drown the per-event signal the overhead gate measures.
fn amplified_stream(reps: u64) -> Vec<TraceEvent> {
    use online::{TraceEvent as E, VersionTag};
    let events = multi_version_stream();
    let mut out = Vec::with_capacity(events.len() * reps as usize);
    for rep in 0..reps {
        for event in &events {
            let mut event = event
                .clone()
                .with_run(RunKey(rep * 1_000_000 + event.run_key().0));
            if let E::RunStarted { version, .. } = &mut event {
                *version = VersionTag(rep * 1_000_000 + version.0);
            }
            out.push(event);
        }
    }
    out
}

/// One durable sharded ingest pass; returns (elapsed ns, merged metrics).
/// The timer covers ingest + flush; the checkpoint that exercises the
/// snapshot-write stage for the breakdown runs *outside* it (a multi-ms
/// snapshot write would swamp a per-event overhead measurement).
fn ingest_once(
    events: &[TraceEvent],
    shards: usize,
    tag: &str,
    fsync: FsyncPolicy,
) -> (u64, MetricsSnapshot) {
    let dir = scratch(&format!("s{shards}-{tag}"));
    let config = ShardedConfig {
        shards,
        durable: DurableConfig {
            session: SessionConfig::default(),
            fsync,
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
    engine.checkpoint().expect("checkpoint");
    let metrics = engine.metrics();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    (elapsed, metrics)
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Run the experiment.
pub fn run() -> E13Result {
    let events = amplified_stream(8);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // (a) Stage breakdown at each shard count. The breakdown leg runs
    // under the durable-deployment fsync policy (every 256 events) so the
    // fsync stage is exercised, not a dead row; the overhead arms below
    // stay at `Never` — a per-pass fsync cost would swamp the few-percent
    // instrumentation signal they gate.
    let mut stages = Vec::new();
    for &shards in &SHARD_COUNTS {
        let (_, metrics) = ingest_once(&events, shards, "breakdown", FsyncPolicy::EveryN(256));
        for stage in STAGES {
            let Some(h) = metrics.histogram(stage) else {
                continue;
            };
            stages.push(E13Stage {
                shards,
                stage,
                count: h.count,
                p50_ns: h.p50(),
                p99_ns: h.p99(),
                max_ns: h.max,
            });
        }
    }

    // (b) Instrumentation overhead, compared per pair. The kill switch
    // mutes every primitive at runtime — same binary, same engine, only
    // recording differs.
    let timed = |on: bool| {
        obs::set_enabled(on);
        let tag = if on { "on" } else { "off" };
        ingest_once(&events, 1, tag, FsyncPolicy::Never).0 as f64
    };
    let (mut on_ns, mut off_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let (on, off) = if pair % 2 == 0 {
            let on = timed(true);
            (on, timed(false))
        } else {
            let off = timed(false);
            (timed(true), off)
        };
        on_ns.push(on);
        off_ns.push(off);
        ratios.push(on / off);
    }
    obs::set_enabled(true);
    let enabled_ns_per_event = (median(on_ns) / events.len() as f64) as u64;
    let disabled_ns_per_event = (median(off_ns) / events.len() as f64) as u64;
    let overhead_pct = ((median(ratios) - 1.0) * 100.0).max(0.0);

    E13Result {
        events: events.len() as u64,
        cores,
        stages,
        enabled_ns_per_event,
        disabled_ns_per_event,
        overhead_pct,
    }
}

/// Render the E13 tables.
pub fn render(r: &E13Result) -> String {
    let mut table =
        crate::table::Table::new(&["shards", "stage", "samples", "p50 ns", "p99 ns", "max ns"]);
    for s in &r.stages {
        table.row(vec![
            s.shards.to_string(),
            s.stage.to_string(),
            s.count.to_string(),
            s.p50_ns.to_string(),
            s.p99_ns.to_string(),
            s.max_ns.to_string(),
        ]);
    }
    format!(
        "{}\n{} events, {} host core(s); ingest {} ns/event instrumented vs {} ns/event \
         with the kill switch off — overhead {:.2}% (gate: ≤ {:.1}%)\n",
        table.render(),
        r.events,
        r.cores,
        r.enabled_ns_per_event,
        r.disabled_ns_per_event,
        r.overhead_pct,
        MAX_OVERHEAD_PCT
    )
}

/// Machine-readable JSON for `BENCH_e13.json`.
pub fn to_json(r: &E13Result) -> String {
    let stages: Vec<String> = r
        .stages
        .iter()
        .map(|s| {
            format!(
                "{{ \"shards\": {}, \"stage\": \"{}\", \"count\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"max_ns\": {} }}",
                s.shards, s.stage, s.count, s.p50_ns, s.p99_ns, s.max_ns
            )
        })
        .collect();
    format!(
        "{{\n  \"experiment\": \"e13_obs\",\n  \
         \"events\": {},\n  \
         \"cores\": {},\n  \
         \"stages\": [\n    {}\n  ],\n  \
         \"enabled_ns_per_event\": {},\n  \
         \"disabled_ns_per_event\": {},\n  \
         \"overhead_pct\": {:.3},\n  \
         \"max_overhead_pct\": {:.1},\n  \
         \"regenerate\": \"cargo run --release -p kojak-bench --bin harness -- --e13\"\n}}\n",
        r.events,
        r.cores,
        stages.join(",\n    "),
        r.enabled_ns_per_event,
        r.disabled_ns_per_event,
        r.overhead_pct,
        MAX_OVERHEAD_PCT
    )
}

/// The PR-level claims: the breakdown is live, and always-on
/// instrumentation costs at most [`MAX_OVERHEAD_PCT`] percent.
pub fn check_claims(r: &E13Result) -> Result<(), String> {
    for &shards in &SHARD_COUNTS {
        for hot in [
            "kojak_online_apply_ns",
            "kojak_online_flush_ns",
            "kojak_wal_append_ns",
            "kojak_wal_fsync_ns",
        ] {
            let live = r
                .stages
                .iter()
                .any(|s| s.shards == shards && s.stage == hot && s.count > 0);
            if !live {
                return Err(format!("stage {hot} recorded nothing at {shards} shard(s)"));
            }
        }
    }
    if r.overhead_pct > MAX_OVERHEAD_PCT {
        return Err(format!(
            "instrumentation overhead {:.2}% exceeds the {:.1}% gate",
            r.overhead_pct, MAX_OVERHEAD_PCT
        ));
    }
    Ok(())
}
