//! Per-layer probes: each layer timed from outside, through its public
//! functions, on one seeded probe set — the `tcp_durable_ingest` store
//! (16 versions × 6 runs), its refinement stream, and the spec corpus.
//! The set does not depend on the workload being traced, so a layer
//! metric means the same thing in every trace file. Timings are medians
//! of in-process repeats; counts must repeat exactly.

use crate::corpus;
use crate::gen::{self, Phase, RefinementStream, RefreshPlan, UnitKind};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{tcp_durable_ingest, ScratchDir, BATCH};
use kojak::cosy::backend::PreparedBackend;
use kojak::cosy::suite::{standard_suite, standard_suite_source};
use kojak::cosy::{AnalysisReport, Analyzer, ProblemThreshold};
use kojak::engine::{AnalysisEngine, Engine, EngineBuilder, EngineError, RecoverableState};
use kojak::online::durable::{SNAPSHOT_FILE, WAL_FILE};
use kojak::online::replay::replay_store;
use kojak::online::snapshot::read_snapshot;
use kojak::online::wal::{read_wal, WalWriter};
use kojak::online::{
    DurableConfig, DurableSession, FsyncPolicy, RunKey, SessionStats, StoreBuilder, StoreDelta,
    TraceEvent,
};
use kojak::perfdata::{Store, VersionId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One measured layer metric.
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The probe set and the metrics measured on it so far.
struct Probes {
    seed: u64,
    store: Store,
    /// The store replayed in store order: an insert-only stream.
    events: Vec<TraceEvent>,
    stream: RefinementStream,
    /// The measurement rounds of `stream`: an upsert-only stream.
    refinements: Vec<TraceEvent>,
    out: Vec<Probe>,
}

impl Probes {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push(Probe { name, value, unit });
    }
}

fn per_event(ms: f64, events: usize) -> f64 {
    ms * 1e6 / events as f64
}

/// Rounds of the refinement stream the upsert-heavy probes play.
const PROBE_ROUNDS: u32 = 4;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median milliseconds of `reps` runs of `f`.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms(t)
        })
        .collect();
    median(&samples)
}

/// An engine that accepts and discards everything: what is left of a
/// TCP ingest when the engine costs nothing.
struct NullEngine {
    events: AtomicU64,
}

impl AnalysisEngine for NullEngine {
    fn ingest_batch(&self, events: &[TraceEvent]) -> Result<usize, EngineError> {
        self.events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        Ok(events.len())
    }
    fn flush(&self) -> Result<Vec<RunKey>, EngineError> {
        Ok(Vec::new())
    }
    fn report(&self, _run: RunKey) -> Option<AnalysisReport> {
        None
    }
    fn reports(&self) -> HashMap<RunKey, AnalysisReport> {
        HashMap::new()
    }
    fn stats(&self) -> SessionStats {
        SessionStats {
            events_applied: self.events.load(Ordering::Relaxed),
            ..SessionStats::default()
        }
    }
    fn recoverable_state(&self) -> RecoverableState {
        RecoverableState::Ephemeral
    }
    fn checkpoint(&self) -> Result<(), EngineError> {
        Ok(())
    }
}

/// Run every probe. `seed` generates the probe set.
pub fn run(seed: u64) -> Result<Vec<Probe>, String> {
    let store = gen::ingest_store(seed);
    let stream = RefinementStream::new(&store, PROBE_ROUNDS);
    let mut refinements: Vec<TraceEvent> = Vec::new();
    let played: Result<(), std::convert::Infallible> =
        stream.play(&mut stream.scratch(), |phase, events| {
            if phase == Phase::Round {
                refinements.extend_from_slice(events);
            }
            Ok(())
        });
    let Ok(()) = played;
    let mut p = Probes {
        seed,
        events: replay_store(&store),
        store,
        stream,
        refinements,
        out: Vec::new(),
    };
    p.put(
        "apprentice-sim.generate_ms",
        median_ms(5, || gen::ingest_store(seed)),
        "ms",
    );
    p.put("apprentice-sim.events", p.events.len() as f64, "count");
    front_end(&mut p)?;
    batch_flush(&mut p)?;
    store_build(&mut p);
    wire(&mut p)?;
    let scratch = ScratchDir::new("probes")?;
    wal(&mut p, &scratch)?;
    durable(&mut p, &scratch)?;
    incremental(&mut p)?;
    engine(&mut p)?;
    net(&mut p)?;
    Ok(p.out)
}

/// `asl-core`, `asl-eval` (compile), `kojak-lint`, `kojak-flow`.
fn front_end(p: &mut Probes) -> Result<(), String> {
    let source = standard_suite_source();
    let corpus = corpus::corpus(p.seed);
    p.put(
        "asl-core.parse_ms",
        median_ms(200, || kojak::asl_core::parse(&source)),
        "ms",
    );
    let ast = kojak::asl_core::parse(&source).map_err(|d| d.render(&source))?;
    p.put(
        "asl-core.check_ms",
        median_ms(200, || kojak::asl_core::check(&ast)),
        "ms",
    );
    let spec = standard_suite();
    p.put(
        "asl-eval.compile_ms",
        median_ms(200, || kojak::asl_eval::compile(&spec)),
        "ms",
    );
    let lint_ms = median_ms(50, || kojak::lint::lint_with(&spec, &source, false));
    let lint_flow_ms = median_ms(50, || kojak::lint::lint_with(&spec, &source, true));
    p.put("kojak-lint.lint_ms", lint_ms, "ms");
    p.put("kojak-flow.analyze_ms", lint_flow_ms - lint_ms, "ms");
    let big = corpus
        .iter()
        .find(|s| s.name == "synthetic-8x")
        .expect("the corpus has an 8x suite");
    let big_spec =
        kojak::asl_core::parse_and_check(&big.source).map_err(|d| d.render(&big.source))?;
    p.put(
        "kojak-lint.lint_8x_ms",
        median_ms(5, || kojak::lint::lint_with(&big_spec, &big.source, true)),
        "ms",
    );
    let verdicts: Vec<_> = corpus
        .iter()
        .map(|s| corpus::judge(&s.source, &mut Tracer::off()).0)
        .collect();
    let total = |f: fn(&corpus::Verdict) -> u64| verdicts.iter().map(f).sum::<u64>() as f64;
    p.put(
        "asl-core.corpus_source_bytes",
        corpus.iter().map(|s| s.source.len()).sum::<usize>() as f64,
        "bytes",
    );
    p.put(
        "asl-core.corpus_properties",
        total(|v| v.properties),
        "count",
    );
    p.put("asl-eval.ir_nodes", total(|v| v.ir_nodes), "count");
    p.put("kojak-lint.findings", total(|v| v.findings), "count");
    p.put("kojak-flow.proofs", total(|v| v.proofs), "count");
    Ok(())
}

/// `cosy` and `asl-eval` (evaluation): the batch flush taken apart.
fn batch_flush(p: &mut Probes) -> Result<(), String> {
    let store = &p.store;
    let spec = Arc::new(standard_suite());
    let compiled = Arc::new(kojak::asl_eval::compile(&spec));
    let versions: Vec<VersionId> = (0..store.versions.len() as u32).map(VersionId).collect();
    let bind = || -> Result<Vec<Analyzer<'_>>, String> {
        versions
            .iter()
            .map(|v| {
                Analyzer::with_compiled(store, *v, Arc::clone(&spec), Arc::clone(&compiled))
                    .map_err(|e| format!("analyzer: {e}"))
            })
            .collect()
    };
    let analyzer_new_ms = median_ms(5, bind);
    let analyzers = bind()?;
    let enumerate = || {
        let mut all = Vec::new();
        for (a, v) in analyzers.iter().zip(&versions) {
            for &run in &store.versions[v.index()].runs {
                all.push((a, run, a.instances(run)));
            }
        }
        all
    };
    let instances_ms = median_ms(5, enumerate);
    let instances = enumerate();
    let instance_count: usize = instances.iter().map(|(_, _, i)| i.len()).sum();
    let memo_counters = || {
        (
            kojak::asl_eval::filter_memo_counters(),
            kojak::asl_eval::fn_memo_counters(),
        )
    };
    // One binding per run, as the batch engine's flush makes them: the
    // memo layers live and die with a binding.
    let evaluate = || -> Result<Vec<_>, String> {
        instances
            .iter()
            .map(|(a, _, inst)| {
                let prepared = PreparedBackend::from_compiled(Arc::clone(&compiled), store)
                    .map_err(|e| format!("bind: {e}"))?;
                a.evaluate_instances(&prepared, inst)
                    .map_err(|e| format!("evaluate: {e}"))
            })
            .collect()
    };
    let (filter_before, fn_before) = memo_counters();
    let outcomes = evaluate()?;
    let (filter_after, fn_after) = memo_counters();
    let evaluate_ms = median_ms(3, evaluate);
    let assemble = || {
        instances
            .iter()
            .zip(&outcomes)
            .map(|((a, run, _), held)| {
                let entries: Vec<_> = held.iter().flatten().cloned().collect();
                let skipped = held.len() - entries.len();
                a.assemble_report(*run, entries, ProblemThreshold::default(), skipped)
            })
            .collect::<Vec<_>>()
    };
    let assemble_ms = median_ms(5, assemble);
    let report_entries: usize = assemble().iter().map(|r| r.entries.len()).sum();
    // Hits ÷ lookups over one evaluation of the whole store.
    let hit_ratio = |after: (u64, u64), before: (u64, u64)| {
        let (hits, misses) = (after.0 - before.0, after.1 - before.1);
        hits as f64 / (hits + misses).max(1) as f64
    };

    p.put("cosy.analyzer_new_ms", analyzer_new_ms, "ms");
    p.put("cosy.instances_ms", instances_ms, "ms");
    p.put("cosy.evaluate_instances_ms", evaluate_ms, "ms");
    p.put("cosy.assemble_report_ms", assemble_ms, "ms");
    p.put("cosy.instances", instance_count as f64, "count");
    p.put("cosy.report_entries", report_entries as f64, "count");
    p.put(
        "asl-eval.eval_us_per_instance",
        evaluate_ms * 1e3 / instance_count as f64,
        "us/instance",
    );
    p.put(
        "asl-eval.filter_memo_hit_ratio",
        hit_ratio(filter_after, filter_before),
        "ratio",
    );
    p.put(
        "asl-eval.fn_memo_hit_ratio",
        hit_ratio(fn_after, fn_before),
        "ratio",
    );
    Ok(())
}

/// `perfdata` / `cosy-online`: building the store from events.
fn store_build(p: &mut Probes) {
    let insert = || {
        let mut builder = StoreBuilder::new();
        let mut delta = StoreDelta::new();
        for chunk in p.events.chunks(BATCH) {
            builder.apply_batch(chunk, &mut delta);
        }
        builder
    };
    let apply_ms = median_ms(5, insert);
    let mut loaded = insert();
    let rows = {
        let s = loaded.store();
        s.total_timings.len() + s.typed_timings.len() + s.call_timings.len()
    };
    let upsert_ms = median_ms(3, || {
        let mut delta = StoreDelta::new();
        for chunk in p.refinements.chunks(BATCH) {
            loaded.apply_batch(chunk, &mut delta);
        }
    });
    p.put(
        "cosy-online.apply_ns_per_event",
        per_event(apply_ms, p.events.len()),
        "ns/event",
    );
    p.put("perfdata.timing_rows", rows as f64, "count");
    p.put(
        "cosy-online.upsert_ns_per_event",
        per_event(upsert_ms, p.refinements.len()),
        "ns/event",
    );
}

/// `cosy-online`: the wire codec.
fn wire(p: &mut Probes) -> Result<(), String> {
    let mut wire = Vec::new();
    let mut offsets = vec![0usize];
    let encode_ms = median_ms(5, || {
        wire.clear();
        offsets.truncate(1);
        for e in &p.events {
            e.encode_wire(&mut wire);
            offsets.push(wire.len());
        }
    });
    let decode = || {
        offsets
            .windows(2)
            .filter(|w| TraceEvent::decode_wire(&wire[w[0]..w[1]]).is_ok())
            .count()
    };
    if decode() != p.events.len() {
        return Err("wire decode rejected an encoded event".to_string());
    }
    let decode_ms = median_ms(5, decode);
    let n = p.events.len();
    p.put(
        "cosy-online.wire_encode_ns_per_event",
        per_event(encode_ms, n),
        "ns/event",
    );
    p.put(
        "cosy-online.wire_bytes_per_event",
        wire.len() as f64 / n as f64,
        "bytes/event",
    );
    p.put(
        "cosy-online.wire_decode_ns_per_event",
        per_event(decode_ms, n),
        "ns/event",
    );
    Ok(())
}

/// `cosy-online`: the write-ahead log, written and read back.
fn wal(p: &mut Probes, scratch: &ScratchDir) -> Result<(), String> {
    let path = scratch.0.join(WAL_FILE);
    let io = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let n = p.refinements.len();
    let mut wal_bytes = 0u64;
    let mut append_ms = Vec::new();
    let mut sync_ms = Vec::new();
    for _ in 0..3 {
        let _ = std::fs::remove_file(&path);
        let mut wal = WalWriter::open(&path, 0, 0, FsyncPolicy::Never).map_err(|e| io(&e))?;
        let t = Instant::now();
        for chunk in p.refinements.chunks(BATCH) {
            wal.append_batch(chunk).map_err(|e| io(&e))?;
        }
        append_ms.push(ms(t));
        let t = Instant::now();
        wal.sync().map_err(|e| io(&e))?;
        sync_ms.push(ms(t));
        wal_bytes = wal.len();
    }
    let read = || read_wal(&path).map(|c| c.events.len());
    if read().map_err(|e| io(&e))? != n {
        return Err("the WAL read back fewer events than were appended".to_string());
    }
    let read_ms = median_ms(3, read);
    let _ = std::fs::remove_file(&path);
    p.put(
        "cosy-online.wal_append_ns_per_event",
        per_event(median(&append_ms), n),
        "ns/event",
    );
    p.put(
        "cosy-online.wal_bytes_per_event",
        wal_bytes as f64 / n as f64,
        "bytes/event",
    );
    p.put("cosy-online.wal_sync_ms", median(&sync_ms), "ms");
    p.put(
        "cosy-online.wal_read_ns_per_event",
        per_event(read_ms, n),
        "ns/event",
    );
    Ok(())
}

/// `cosy-online`: checkpoint, snapshot load and recovery of one durable
/// session; `kojak-obs`: its own stage timers against the outside spans.
fn durable(p: &mut Probes, scratch: &ScratchDir) -> Result<(), String> {
    let dir = scratch.0.join("durable");
    let config = || DurableConfig {
        fsync: FsyncPolicy::Never,
        snapshot_every_flushes: 0,
        ..DurableConfig::default()
    };
    let ingest = |session: &DurableSession, events: &[TraceEvent]| -> Result<(), String> {
        for chunk in events.chunks(BATCH) {
            session
                .ingest_batch(chunk)
                .map_err(|e| format!("durable ingest: {e}"))?;
        }
        Ok(())
    };
    let session = DurableSession::open(&dir, config()).map_err(|e| format!("durable open: {e}"))?;
    let t = Instant::now();
    ingest(&session, &p.events)?;
    let ingest_outside_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    session.flush().map_err(|e| format!("durable flush: {e}"))?;
    let flush_outside_ns = t.elapsed().as_nanos() as f64;
    let obs = session.metrics();
    let sum = |name: &str| obs.histogram(name).map_or(0.0, |h| h.sum as f64);
    let (flush_ns, apply_ns, append_ns) = (
        sum("kojak_online_flush_ns"),
        sum("kojak_online_apply_ns"),
        sum("kojak_wal_append_ns"),
    );
    p.put("kojak-obs.flush_ns_sum", flush_ns, "ns");
    p.put("kojak-obs.apply_ns_sum", apply_ns, "ns");
    p.put("kojak-obs.wal_append_ns_sum", append_ns, "ns");
    p.put(
        "kojak-obs.flush_span_agreement_pct",
        100.0 * flush_ns / flush_outside_ns,
        "%",
    );
    p.put(
        "kojak-obs.ingest_span_agreement_pct",
        100.0 * (apply_ns + append_ns) / ingest_outside_ns,
        "%",
    );

    let checkpoint_ms = median_ms(3, || session.checkpoint());
    session
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let snapshot = dir.join(SNAPSHOT_FILE);
    let load = || read_snapshot(&snapshot).map(|s| s.is_some());
    if !load().map_err(|e| format!("snapshot load: {e}"))? {
        return Err("no snapshot after a checkpoint".to_string());
    }
    p.put("cosy-online.checkpoint_ms", checkpoint_ms, "ms");
    p.put(
        "cosy-online.snapshot_bytes",
        std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64),
        "bytes",
    );
    p.put("cosy-online.snapshot_load_ms", median_ms(3, load), "ms");

    // A WAL tail behind the snapshot, then a kill and a recovery.
    ingest(&session, &p.refinements)?;
    drop(session);
    let t = Instant::now();
    let recovered =
        DurableSession::open(&dir, config()).map_err(|e| format!("durable recover: {e}"))?;
    p.put("cosy-online.recover_ms", ms(t), "ms");
    p.put(
        "cosy-online.wal_events_replayed",
        recovered.recovery().wal_events_replayed as f64,
        "count",
    );
    Ok(())
}

/// `cosy-online`: incremental re-evaluation, unit by unit.
fn incremental(p: &mut Probes) -> Result<(), String> {
    let plan = RefreshPlan::new(&p.store, p.seed, 4);
    let session = EngineBuilder::new().build_online();
    for chunk in plan.bulk.chunks(BATCH) {
        session
            .ingest_batch(chunk)
            .map_err(|e| format!("refresh bulk: {e}"))?;
    }
    session.flush().map_err(|e| format!("refresh flush: {e}"))?;
    let mut by_kind: HashMap<UnitKind, Vec<f64>> = HashMap::new();
    for unit in &plan.units {
        let t = Instant::now();
        session
            .ingest_batch(&unit.events)
            .map_err(|e| format!("refresh unit: {e}"))?;
        session.flush().map_err(|e| format!("refresh flush: {e}"))?;
        let report = session.report(unit.run);
        by_kind.entry(unit.kind).or_default().push(ms(t));
        if report.is_none() {
            return Err(format!("no report for {} after its refresh unit", unit.run));
        }
    }
    // What a full re-analysis after every unit would have evaluated: the
    // whole instance universe of every run delivered by then.
    let universe: HashMap<RunKey, u64> = session
        .reports()
        .into_iter()
        .map(|(key, r)| (key, (r.entries.len() + r.skipped) as u64))
        .collect();
    let mut delivered: u64 = plan
        .bulk
        .iter()
        .filter(|e| matches!(e, TraceEvent::RunStarted { .. }))
        .map(|e| universe.get(&e.run_key()).copied().unwrap_or(0))
        .sum();
    let mut full_instances = 0u64;
    for unit in &plan.units {
        if unit.kind != UnitKind::Correction {
            delivered += universe.get(&unit.run).copied().unwrap_or(0);
        }
        full_instances += delivered;
    }
    let inc = session.stats().incremental;
    p.put("cosy-online.flushes", inc.flushes as f64, "count");
    p.put(
        "cosy-online.runs_reevaluated",
        inc.runs_reevaluated as f64,
        "count",
    );
    p.put(
        "cosy-online.full_reevaluations",
        inc.full_reevaluations as f64,
        "count",
    );
    p.put(
        "cosy-online.instances_evaluated",
        inc.instances_evaluated as f64,
        "count",
    );
    p.put(
        "cosy-online.reeval_ratio",
        inc.instances_evaluated as f64 / full_instances.max(1) as f64,
        "ratio",
    );
    for (kind, name) in [
        (UnitKind::NewRun, "cosy-online.refresh_new_run_p50_ms"),
        (
            UnitKind::NewVersion,
            "cosy-online.refresh_new_version_p50_ms",
        ),
        (
            UnitKind::Correction,
            "cosy-online.refresh_correction_p50_ms",
        ),
    ] {
        let samples = by_kind
            .get(&kind)
            .ok_or_else(|| format!("the probe refresh plan has no {} unit", kind.label()))?;
        p.put(name, median(samples), "ms");
    }
    Ok(())
}

/// `kojak-engine`: the façade on the probe streams.
fn engine(p: &mut Probes) -> Result<(), String> {
    let ingest = |engine: &Engine, events: &[TraceEvent]| -> Result<(), String> {
        for chunk in events.chunks(BATCH) {
            engine
                .ingest_batch(chunk)
                .map_err(|e| format!("ingest: {e}"))?;
        }
        Ok(())
    };
    p.put(
        "kojak-engine.build_ms",
        median_ms(50, || EngineBuilder::new().build().is_ok()),
        "ms",
    );
    let mut ingest_ms = Vec::new();
    let mut flush_ms = Vec::new();
    let mut reports_ms = Vec::new();
    let mut sharded_ms = Vec::new();
    let mut skew = 0.0;
    for _ in 0..3 {
        let engine = EngineBuilder::new()
            .build()
            .map_err(|e| format!("build: {e}"))?;
        let t = Instant::now();
        ingest(&engine, &p.events)?;
        ingest_ms.push(ms(t));
        let t = Instant::now();
        engine.flush().map_err(|e| format!("flush: {e}"))?;
        flush_ms.push(ms(t));
        let t = Instant::now();
        std::hint::black_box(engine.reports());
        reports_ms.push(ms(t));

        let sharded = EngineBuilder::new()
            .shards(2)
            .build()
            .map_err(|e| format!("sharded build: {e}"))?;
        ingest(&sharded, &p.events)?;
        let t = Instant::now();
        ingest(&sharded, &p.refinements)?;
        sharded_ms.push(ms(t));
        if let Engine::ShardedOnline(s) = &sharded {
            let per_shard: Vec<f64> = (0..s.shard_count())
                .filter_map(|i| s.with_shard(i, |e| e.stats().events_applied as f64))
                .collect();
            let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
            skew = per_shard.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
        }
    }
    p.put(
        "kojak-engine.ingest_ns_per_event",
        per_event(median(&ingest_ms), p.events.len()),
        "ns/event",
    );
    p.put("kojak-engine.flush_ms", median(&flush_ms), "ms");
    p.put("kojak-engine.reports_ms", median(&reports_ms), "ms");
    p.put(
        "kojak-engine.sharded_ingest_ns_per_event",
        per_event(median(&sharded_ms), p.refinements.len()),
        "ns/event",
    );
    p.put("kojak-engine.shard_skew", skew, "ratio");
    Ok(())
}

/// `kojak-net`: the wire without an engine behind it.
fn net(p: &mut Probes) -> Result<(), String> {
    let mut send_ms = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let null = Arc::new(NullEngine {
            events: AtomicU64::new(0),
        });
        let server = tcp_durable_ingest::bind(Arc::clone(&null) as _, &mut Tracer::off())?;
        let mut scratch = p.stream.scratch();
        let t = Instant::now();
        let (stats, _) = tcp_durable_ingest::stream_over_tcp(
            &p.stream,
            &mut scratch,
            &server,
            &mut Tracer::off(),
        )?;
        send_ms.push(ms(t));
        drop(server);
        if null.events.load(Ordering::Relaxed) != p.stream.events_total() {
            return Err("the null engine did not receive the whole stream".to_string());
        }
        last = Some(stats);
    }
    let stats = last.expect("three repetitions ran");
    p.put(
        "kojak-net.send_ns_per_event",
        per_event(median(&send_ms), p.stream.events_total() as usize),
        "ns/event",
    );
    p.put("kojak-net.batches_sent", stats.batches_sent as f64, "count");
    p.put(
        "kojak-net.acks_received",
        stats.acks_received as f64,
        "count",
    );
    p.put(
        "kojak-net.events_resent",
        stats.events_resent as f64,
        "count",
    );
    p.put("kojak-net.reconnects", stats.reconnects as f64, "count");
    Ok(())
}
