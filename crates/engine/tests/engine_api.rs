//! The unified engine surface: every engine the builder can produce
//! answers the same trait identically for the same stream, and errors
//! are typed end to end.

use apprentice_sim::{archetypes, simulate_program, MachineModel};
use engine::{AnalysisEngine, Engine, EngineBuilder, EngineError, RecoverableState};
use online::replay::{replay_run_key, replay_store};
use online::TraceEvent;
use perfdata::{Store, TestRunId};
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

/// One stream, five engine configurations, identical reports (bit for bit: every engine
/// builds the same store arena from the same event order).
#[test]
fn every_engine_shape_agrees_on_the_same_stream() {
    let (store, run) = sim();
    let events = replay_store(&store);
    let durable_dir = ScratchDir::new("agree-durable");
    let sharded_dir = ScratchDir::new("agree-sharded");

    let engines: Vec<(&str, Engine)> = vec![
        ("batch", EngineBuilder::new().batch().build().unwrap()),
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
    let (first_name, first) = &reports[0];
    for (name, other) in &reports[1..] {
        assert_eq!(first, other, "{first_name} vs {name}");
    }

    // Recoverable-state shapes match the configuration.
    assert!(engines[0].1.recoverable_state().is_ephemeral());
    assert!(engines[1].1.recoverable_state().is_ephemeral());
    assert!(matches!(
        engines[2].1.recoverable_state(),
        RecoverableState::Durable { .. }
    ));
    assert!(engines[3].1.recoverable_state().is_ephemeral());
    assert!(matches!(
        engines[4].1.recoverable_state(),
        RecoverableState::Sharded { ref shard_dirs } if shard_dirs.len() == 3
    ));
    // One variant carries both the in-memory and the durable session, so
    // the recovery shape must follow the configuration, not the variant.
    assert!(matches!(engines[1].1, Engine::Online(_)));
    assert!(matches!(engines[2].1, Engine::Online(_)));
    assert!(matches!(engines[3].1, Engine::ShardedOnline(_)));
    assert!(matches!(engines[4].1, Engine::ShardedOnline(_)));
    let recovered_shards = |i: usize| engines[i].1.recovery().map(|r| r.len());
    assert_eq!(recovered_shards(0), None);
    assert_eq!(recovered_shards(1), None);
    assert_eq!(recovered_shards(2), Some(1));
    assert_eq!(recovered_shards(3), None);
    assert_eq!(recovered_shards(4), Some(3));
}

/// The trait is object-safe: heterogeneous engines behind one `dyn`.
#[test]
fn engines_work_as_trait_objects() {
    let (store, run) = sim();
    let events = replay_store(&store);
    let engines: Vec<Box<dyn AnalysisEngine>> = vec![
        Box::new(engine::BatchEngine::new()),
        Box::new(EngineBuilder::new().build_online()),
        Box::new(engine::ShardedSession::in_memory(2, Default::default())),
    ];
    for engine in &engines {
        engine.ingest_batch(&events).expect("ingest");
        engine.flush().expect("flush");
        assert!(engine.report(replay_run_key(run)).is_some());
    }
}

/// Impossible builder configurations fail typed, not stringly.
#[test]
fn impossible_configurations_are_typed_config_errors() {
    let dir = ScratchDir::new("cfg");
    match EngineBuilder::new().batch().durable(&dir.0).build() {
        Err(EngineError::Config { detail }) => assert!(detail.contains("durable")),
        other => panic!("expected Config error, got {:?}", other.err()),
    }
    match EngineBuilder::new().batch().shards(4).build() {
        Err(EngineError::Config { detail }) => assert!(detail.contains("sharded")),
        other => panic!("expected Config error, got {:?}", other.err()),
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
        Box::new(engine::BatchEngine::new()),
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
    let shapes = [
        EngineBuilder::new().batch(),
        EngineBuilder::new(),
        EngineBuilder::new().shards(2),
    ];
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
