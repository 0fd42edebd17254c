//! The unified engine surface: every engine the builder can produce
//! answers the same trait, a flush reports what changed, and errors are
//! typed end to end. (That every shape serves the same reports, and
//! recovers the state its configuration promises, is `tests/shapes.rs`.)

use cosy::{Analyzer, Backend, ProblemThreshold};
use engine::{AnalysisEngine, EngineBuilder, EngineError};
use online::replay::{events_for_run, replay_run_key};
use online::{StoreBuilder, StoreDelta, TraceEvent};
use perfdata::TestRunId;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;
use testkit::{Scenario, ScratchDir};

/// Three runs of one generated version, and the key of the 16-PE one.
fn sim() -> (Vec<TraceEvent>, online::RunKey) {
    let scenario = Scenario {
        pes: vec![1, 4, 16],
        ..Scenario::new(42)
    };
    (scenario.events(), replay_run_key(TestRunId(2)))
}

/// A flush returns the runs whose report changed, not every run it
/// re-evaluated: re-sending a sample the engine already holds changes
/// nothing, in every shape, while a sample that moves a severity returns
/// exactly its run.
#[test]
fn flush_returns_only_runs_whose_report_changed() {
    let (events, key) = sim();
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
        ("durable", EngineBuilder::new().durable(durable_dir.path())),
        ("sharded-online", EngineBuilder::new().shards(3)),
        (
            "sharded-durable",
            EngineBuilder::new().durable(sharded_dir.path()).shards(3),
        ),
    ];
    for (name, builder) in shapes {
        let engine = builder.build().unwrap_or_else(|e| panic!("{name}: {e}"));
        engine.ingest_batch(&events).unwrap();
        assert_eq!(engine.flush().unwrap().len(), 3, "{name}");
        let before = engine.reports();

        engine.ingest(&sample).unwrap();
        assert_eq!(engine.flush().unwrap(), [], "{name}: nothing changed");
        assert_eq!(engine.reports(), before, "{name}");
        let evaluated = engine.stats().incremental.runs_reevaluated;
        assert_eq!(evaluated, 3 + 1, "{name}");

        engine.ingest(&slower).unwrap();
        assert_eq!(engine.flush().unwrap(), [key], "{name}");
        assert_ne!(engine.reports()[&key], before[&key], "{name}");
    }
}

/// COSY gives every analyzed run a report, and a property that does not
/// hold adds no entry to it. Under a spec with no property at all, every
/// run's report is its header alone — the report `Analyzer::analyze`
/// makes of the same store — in one engine and in a sharded one. The runs
/// arrive one flush at a time, most processors first, so each 1-PE run
/// moves the reference configuration of every report of its version; then
/// a halved total of the basis in the first run moves its basis duration.
/// No property reads either. After every flush the reports are those
/// `Analyzer::analyze` makes over a `StoreBuilder` fed the same events.
#[test]
fn a_spec_without_properties_reports_every_run() {
    let store = Scenario {
        pes: vec![1, 4, 16],
        versions: 2,
        ..Scenario::new(7)
    }
    .store();
    let spec = Arc::new(asl_core::parse_and_check(asl_eval::COSY_DATA_MODEL).unwrap());
    let analyzed = |events: &[TraceEvent]| {
        let (mut builder, mut delta) = (StoreBuilder::new(), StoreDelta::new());
        events
            .iter()
            .for_each(|e| builder.apply(e, &mut delta).unwrap());
        let store = builder.store();
        let report = |run: TestRunId| {
            let version = store.runs[run.index()].version;
            let analyzer = Analyzer::with_spec(store, version, Arc::clone(&spec)).unwrap();
            let report = analyzer.analyze(run, Backend::Interpreter, ProblemThreshold::default());
            (builder.run_key_of(run).unwrap(), report.unwrap())
        };
        let runs = (0..store.runs.len() as u32).map(TestRunId);
        runs.map(report).collect::<HashMap<_, _>>()
    };
    let mut runs: Vec<TestRunId> = (0..store.runs.len() as u32).map(TestRunId).collect();
    runs.sort_by_key(|run| Reverse(store.runs[run.index()].no_pe));
    let mut steps: Vec<Vec<TraceEvent>> = runs
        .iter()
        .map(|&run| events_for_run(&store, run))
        .collect();
    let first = TestRunId(0);
    let basis = store
        .main_region(store.runs[first.index()].version)
        .unwrap();
    let basis = store.regions[basis.index()].name.as_str();
    let mut total = events_for_run(&store, first)
        .into_iter()
        .rfind(|e| matches!(e, TraceEvent::RegionExited { region, .. } if region.name == basis))
        .unwrap();
    if let TraceEvent::RegionExited { excl, incl, .. } = &mut total {
        (*excl, *incl) = (*excl * 0.5, *incl * 0.5);
    }
    steps.push(vec![total]);
    for shards in [1, 3] {
        let engine = EngineBuilder::new()
            .spec(Arc::clone(&spec))
            .shards(shards)
            .build()
            .unwrap();
        let mut fed = Vec::new();
        let mut before = analyzed(&fed);
        for (step, events) in steps.iter().enumerate() {
            engine.ingest_batch(events).unwrap();
            engine.flush().unwrap();
            fed.extend_from_slice(events);
            let expected = analyzed(&fed);
            assert_eq!(engine.reports(), expected, "{shards} shard(s), step {step}");
            assert!(expected
                .values()
                .all(|r| r.entries.is_empty() && r.skipped == 0));
            if step + 1 == steps.len() {
                assert_eq!(expected.len(), 6);
                let key = replay_run_key(first);
                assert_ne!(expected[&key].basis_duration, before[&key].basis_duration);
            }
            before = expected;
        }
    }
}

/// The trait is object-safe: heterogeneous engines behind one `dyn`.
#[test]
fn engines_work_as_trait_objects() {
    let (events, key) = sim();
    let engines: Vec<Box<dyn AnalysisEngine>> = vec![
        Box::new(EngineBuilder::new().build_online()),
        Box::new(engine::ShardedSession::in_memory(2, Default::default())),
    ];
    for engine in &engines {
        engine.ingest_batch(&events).expect("ingest");
        engine.flush().expect("flush");
        assert!(engine.report(key).is_some());
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
    let dirty = Arc::new(dirty);

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
    let spec = Arc::new(asl_core::parse_and_check(src).unwrap());
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
        .spec(Arc::new(spec))
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
