//! The unified engine surface: every engine the builder can produce
//! answers the same trait identically for the same stream, and errors
//! are typed end to end.

use apprentice_sim::{archetypes, simulate_program, MachineModel};
use cosy::{AnalysisReport, Analyzer, Backend, ProblemThreshold};
use engine::{AnalysisEngine, Engine, EngineBuilder, EngineError, RecoverableState};
use online::replay::{replay_run_key, replay_store};
use online::{RunKey, TraceEvent};
use perfdata::{Store, TestRunId};
use std::collections::HashMap;
use std::path::PathBuf;

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("kojak-engapi-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sim() -> (Store, TestRunId) {
    let mut store = Store::new();
    let version = simulate_program(
        &mut store,
        &archetypes::particle_mc(42),
        &MachineModel::t3e_900(),
        &[1, 4, 16],
    );
    let run = store.versions[version.index()].runs[2];
    (store, run)
}

/// The interpreter oracle's report of every run of `store` that has an
/// analyzable version, keyed by the run's replay key.
fn oracle_reports(store: &Store) -> HashMap<RunKey, AnalysisReport> {
    let runs = (0..store.runs.len() as u32).map(TestRunId);
    runs.filter_map(|run| {
        let analyzer = Analyzer::new(store, store.runs[run.index()].version).ok()?;
        let report = analyzer.analyze(run, Backend::Interpreter, ProblemThreshold::default());
        Some((replay_run_key(run), report.unwrap()))
    })
    .collect()
}

/// One stream, four engine configurations, identical reports — bit for
/// bit, and equal to the interpreter oracle over the store they built
/// (every engine builds the same store arena from the same event order).
#[test]
fn every_engine_shape_agrees_on_the_same_stream() {
    let (store, run) = sim();
    let events = replay_store(&store);
    let durable_dir = ScratchDir::new("agree-durable");
    let sharded_dir = ScratchDir::new("agree-sharded");

    let engines: Vec<(&str, Engine)> = vec![
        ("online", EngineBuilder::new().build().unwrap()),
        (
            "durable",
            EngineBuilder::new()
                .durable(&durable_dir.0)
                .build()
                .unwrap(),
        ),
        (
            "sharded-online",
            EngineBuilder::new().shards(3).build().unwrap(),
        ),
        (
            "sharded-durable",
            EngineBuilder::new()
                .durable(&sharded_dir.0)
                .shards(3)
                .build()
                .unwrap(),
        ),
    ];

    let mut reports = Vec::new();
    for (name, engine) in &engines {
        let applied = engine
            .ingest_batch(&events)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(applied, events.len(), "{name}");
        engine.flush().unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = engine
            .report(replay_run_key(run))
            .unwrap_or_else(|| panic!("{name}: missing report"));
        assert!(report.bottleneck().is_some(), "{name}");
        assert_eq!(engine.stats().events_applied, events.len() as u64, "{name}");
        reports.push((name, engine.reports()));
    }
    let Engine::Online(online) = &engines[0].1 else {
        panic!("an unsharded engine is one session");
    };
    let oracle = oracle_reports(&online.store_snapshot());
    assert_eq!(oracle.len(), store.runs.len());
    for (name, reports) in &reports {
        assert_eq!(*reports, oracle, "{name} vs the interpreter oracle");
    }

    // Recoverable-state shapes match the configuration.
    assert!(engines[0].1.recoverable_state().is_ephemeral());
    assert!(matches!(
        engines[1].1.recoverable_state(),
        RecoverableState::Durable { .. }
    ));
    assert!(engines[2].1.recoverable_state().is_ephemeral());
    assert!(matches!(
        engines[3].1.recoverable_state(),
        RecoverableState::Sharded { ref shard_dirs } if shard_dirs.len() == 3
    ));
    // One variant carries both the in-memory and the durable session, so
    // the recovery shape must follow the configuration, not the variant.
    assert!(matches!(engines[1].1, Engine::Online(_)));
    assert!(matches!(engines[2].1, Engine::ShardedOnline(_)));
    assert!(matches!(engines[3].1, Engine::ShardedOnline(_)));
    let recovered_shards = |i: usize| engines[i].1.recovery().map(|r| r.len());
    assert_eq!(recovered_shards(0), None);
    assert_eq!(recovered_shards(1), Some(1));
    assert_eq!(recovered_shards(2), None);
    assert_eq!(recovered_shards(3), Some(3));
}

/// A flush returns the runs whose report changed, not every run it
/// re-evaluated: re-sending a sample the engine already holds changes
/// nothing, in every shape, while a sample that moves a severity returns
/// exactly its run.
#[test]
fn flush_returns_only_runs_whose_report_changed() {
    let (store, run) = sim();
    let events = replay_store(&store);
    let key = replay_run_key(run);
    let sample = events
        .iter()
        .rfind(|e| matches!(e, TraceEvent::TypedSample { run: r, .. } if *r == key))
        .unwrap()
        .clone();
    let mut slower = sample.clone();
    if let TraceEvent::TypedSample { time, .. } = &mut slower {
        *time *= 3.0;
    }
    let durable_dir = ScratchDir::new("changed-durable");
    let sharded_dir = ScratchDir::new("changed-sharded");
    let shapes = [
        ("online", EngineBuilder::new()),
        ("durable", EngineBuilder::new().durable(&durable_dir.0)),
        ("sharded-online", EngineBuilder::new().shards(3)),
        (
            "sharded-durable",
            EngineBuilder::new().durable(&sharded_dir.0).shards(3),
        ),
    ];
    for (name, builder) in shapes {
        let engine = builder.build().unwrap_or_else(|e| panic!("{name}: {e}"));
        engine.ingest_batch(&events).unwrap();
        assert_eq!(engine.flush().unwrap().len(), store.runs.len(), "{name}");
        let before = engine.reports();

        engine.ingest(&sample).unwrap();
        assert_eq!(engine.flush().unwrap(), [], "{name}: nothing changed");
        assert_eq!(engine.reports(), before, "{name}");
        let evaluated = engine.stats().incremental.runs_reevaluated;
        assert_eq!(evaluated, store.runs.len() as u64 + 1, "{name}");

        engine.ingest(&slower).unwrap();
        assert_eq!(engine.flush().unwrap(), [key], "{name}");
        assert_ne!(engine.reports()[&key], before[&key], "{name}");
    }
}

/// The trait is object-safe: heterogeneous engines behind one `dyn`.
#[test]
fn engines_work_as_trait_objects() {
    let (store, run) = sim();
    let events = replay_store(&store);
    let engines: Vec<Box<dyn AnalysisEngine>> = vec![
        Box::new(EngineBuilder::new().build_online()),
        Box::new(engine::ShardedSession::in_memory(2, Default::default())),
    ];
    for engine in &engines {
        engine.ingest_batch(&events).expect("ingest");
        engine.flush().expect("flush");
        assert!(engine.report(replay_run_key(run)).is_some());
    }
}

/// Ingestion rejections surface as `EngineError::Ingest` with the precise
/// cause, uniformly across engines.
#[test]
fn rejections_are_typed_uniformly() {
    let orphan = TraceEvent::RunFinished {
        run: online::RunKey(404),
    };
    let engines: Vec<Box<dyn AnalysisEngine>> = vec![
        Box::new(EngineBuilder::new().build_online()),
        Box::new(engine::ShardedSession::in_memory(2, Default::default())),
    ];
    for engine in &engines {
        match engine.ingest(&orphan) {
            Err(EngineError::Ingest(online::IngestError::UnknownRun(k))) => {
                assert_eq!(k, online::RunKey(404))
            }
            other => panic!("expected typed UnknownRun, got {other:?}"),
        }
        assert_eq!(engine.stats().events_rejected, 1);
    }
}

/// A run that declares zero processors is refused at the door with a
/// typed error, in every shape and across a kill and reopen. Admitted, it
/// made `IoContention`'s `Growth = t.NoPe / MinPeSum.Run.NoPe` divide by
/// zero, and every later flush failed on the re-queued delta.
#[test]
fn a_run_without_processors_is_rejected_and_flushing_goes_on() {
    let src = format!(
        "{}\n{}",
        cosy::suite::standard_suite_source(),
        include_str!("../../../examples/specs/io_contention.asl")
    );
    let spec = std::sync::Arc::new(asl_core::parse_and_check(&src).unwrap());
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &archetypes::spectral_io(11),
        &MachineModel::t3e_900(),
        &[2, 64],
    );
    let zero = replay_run_key(TestRunId(0));
    let kept = replay_run_key(TestRunId(1));
    let mut events = replay_store(&store);
    for e in &mut events {
        if let TraceEvent::RunStarted { run, no_pe, .. } = e {
            if *run == zero {
                *no_pe = 0;
            }
        }
    }
    // The refused run's later events name a run that never started.
    let refused = events.iter().filter(|e| e.run_key() == zero).count() as u64;

    let durable_dir = ScratchDir::new("zero-pe-durable");
    let sharded_dir = ScratchDir::new("zero-pe-sharded");
    let shapes = [
        ("online", EngineBuilder::new()),
        ("durable", EngineBuilder::new().durable(&durable_dir.0)),
        ("sharded-online", EngineBuilder::new().shards(2)),
        (
            "sharded-durable",
            EngineBuilder::new().durable(&sharded_dir.0).shards(2),
        ),
    ];
    for (name, builder) in shapes {
        let builder = builder.spec(spec.clone());
        let engine = builder
            .clone()
            .build()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        match engine.ingest_batch(&events) {
            Err(EngineError::Ingest(online::IngestError::NoProcessors(k))) => {
                assert_eq!(k, zero, "{name}")
            }
            other => panic!("{name}: expected typed NoProcessors, got {other:?}"),
        }
        assert_eq!(engine.stats().events_rejected, refused, "{name}");
        engine.flush().unwrap_or_else(|e| panic!("{name}: {e}"));
        let reports = engine.reports();
        assert!(!reports.contains_key(&zero), "{name}");
        assert!(reports[&kept].bottleneck().is_some(), "{name}");
        // A second flush has nothing re-queued to fail on.
        assert_eq!(engine.flush().unwrap(), [], "{name}");
        if !engine.recoverable_state().is_ephemeral() {
            drop(engine); // killed: no checkpoint, no graceful shutdown
            let reopened = builder
                .build()
                .unwrap_or_else(|e| panic!("{name} reopen: {e}"));
            assert_eq!(reopened.stats().events_rejected, refused, "{name}");
            assert_eq!(reopened.reports(), reports, "{name} after reopen");
        }
    }
}

/// The standard suite passes the strictest lint gate (its one accepted
/// pattern — the two-key `(Run, Type)` filters — carries an explicit
/// `cosy-lint: allow(...)` directive), while a dirty custom suite is
/// rejected by `Deny` and tolerated by `Warn`.
#[test]
fn lint_gate_denies_dirty_spec_and_passes_standard_suite() {
    // Standard suite: clean under Deny.
    let engine = EngineBuilder::new().lint(engine::LintGate::Deny).build();
    assert!(engine.is_ok(), "standard suite must pass the deny gate");

    // A spec with an unused constant and an isolated class (and a
    // signature the engine can instantiate — `Warn` must build it).
    let dirty = asl_core::parse_and_check(
        "class TestRun { int NoPe; }\n\
         class Region { int Line; }\n\
         class Dead { int X; }\n\
         float Unused = 1.0;\n\
         PROPERTY P(Region r, TestRun t, Region Basis) {\n\
             CONDITION: t.NoPe > r.Line - Basis.Line; CONFIDENCE: 1; SEVERITY: 1.0;\n\
         }",
    )
    .unwrap();
    let dirty = std::sync::Arc::new(dirty);

    let deny = EngineBuilder::new()
        .spec(dirty.clone())
        .lint(engine::LintGate::Deny);
    let rejected = [deny.lint_check().map(|_| ()), deny.build().map(|_| ())];
    for outcome in rejected {
        match outcome {
            Err(EngineError::Lint(rejection)) => {
                assert!(!rejection.findings.is_empty());
                assert!(rejection.rendered.contains("unused-constant"));
                assert!(rejection.rendered.contains("unused-type"));
            }
            other => panic!("expected lint rejection, got {:?}", other.err()),
        }
    }

    // Warn (the default) builds the engine — without linting — and
    // reports the same findings when asked.
    let builder = EngineBuilder::new().spec(dirty);
    let report = builder.lint_check().expect("warn gate must pass");
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"unused-constant") && rules.contains(&"unused-type"));
    assert!(builder.build().is_ok());
}

/// A property the engine cannot instantiate is refused when the engine is
/// built — every shape — with the typed, span-carrying signature error,
/// never skipped at analysis time.
#[test]
fn uninstantiable_signature_fails_the_build() {
    let src = "class TestRun { int NoPe; }\n\
               PROPERTY P(TestRun t) {\n\
                   CONDITION: t.NoPe > 0; CONFIDENCE: 1; SEVERITY: 1.0;\n\
               }";
    let spec = std::sync::Arc::new(asl_core::parse_and_check(src).unwrap());
    let shapes = [EngineBuilder::new(), EngineBuilder::new().shards(2)];
    for builder in shapes {
        match builder.spec(spec.clone()).build() {
            Err(EngineError::Spec(e @ cosy::SpecError::Signature { .. })) => {
                let rendered = e.render(src);
                assert!(rendered.contains("property `P` cannot be instantiated"));
                assert!(rendered.contains("PROPERTY P(TestRun t) {"), "{rendered}");
                assert!(rendered.contains("^^^^^^^^^"), "{rendered}");
            }
            other => panic!("expected a signature error, got {:?}", other.err()),
        }
    }
}

/// Flow-proven findings are hard errors under `Deny`: a denominator the
/// abstract interpreter proves identically zero, and a comparison
/// between a time-valued and a count-valued expression.
#[test]
fn lint_gate_denies_flow_proven_findings() {
    let spec = asl_core::parse_and_check(
        "class TestRun { int NoPe; }\n\
         class TotalTiming { float Excl; }\n\
         PROPERTY Bad(TestRun t, TotalTiming tt) {\n\
             CONDITION: tt.Excl > t.NoPe;\n\
             CONFIDENCE: 1;\n\
             SEVERITY: 1.0 / (t.NoPe - t.NoPe);\n\
         }",
    )
    .unwrap();
    match EngineBuilder::new()
        .spec(std::sync::Arc::new(spec))
        .lint(engine::LintGate::Deny)
        .build()
    {
        Err(EngineError::Lint(rejection)) => {
            assert!(rejection.rendered.contains("proven-div-by-zero"));
            assert!(rejection.rendered.contains("unit-mismatch"));
        }
        other => panic!("expected lint rejection, got {:?}", other.err()),
    }
}
