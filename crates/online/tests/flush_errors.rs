//! Regression: a spec-evaluation failure during a flush must surface as a
//! typed [`FlushError`] variant — wrapping the machine-readable
//! [`cosy::AnalysisError`] / [`asl_eval::EvalError`] — not as a formatted
//! string. The failing delta is re-queued, so the same typed error
//! resurfaces on the next flush, and supplying the missing data afterwards
//! heals the session.

use asl_eval::EvalErrorKind;
use cosy::AnalysisError;
use online::{
    FlushError, OnlineSession, RegionDef, RegionRef, RunKey, SessionConfig, TraceEvent, VersionTag,
};
use perfdata::{DateTime, RegionKind};

fn run_started(key: u64, no_pe: u32) -> TraceEvent {
    TraceEvent::RunStarted {
        run: RunKey(key),
        version: VersionTag(1),
        program: "zero".into(),
        compiled_at: DateTime::from_secs(0),
        source: String::new(),
        start: DateTime::from_secs(key as i64),
        no_pe,
        clockspeed: 450,
    }
}

fn main_region(key: u64) -> TraceEvent {
    root_region(key, "main")
}

/// Announce function `function` and its subprogram region.
fn root_region(key: u64, function: &str) -> TraceEvent {
    TraceEvent::RegionEntered {
        run: RunKey(key),
        function: function.into(),
        region: RegionDef {
            name: function.into(),
            parent: None,
            kind: RegionKind::Subprogram,
            first_line: 1,
            last_line: 10,
        },
    }
}

fn region_exited(key: u64, incl: f64, ovhd: f64) -> TraceEvent {
    root_exited(key, "main", incl, ovhd)
}

/// A total timing of `function`'s subprogram region.
fn root_exited(key: u64, function: &str, incl: f64, ovhd: f64) -> TraceEvent {
    TraceEvent::RegionExited {
        run: RunKey(key),
        function: function.into(),
        region: RegionRef::new(function, 1),
        excl: incl,
        incl,
        ovhd,
    }
}

/// A zero-duration ranking basis with measured overhead: `MeasuredCost`
/// holds but its severity divides by `Duration(Basis, t) == 0` — a genuine
/// evaluation error, not a skip.
#[test]
fn spec_evaluation_failure_is_a_typed_flush_error() {
    let session = OnlineSession::new(SessionConfig::default());
    session
        .ingest_batch(&[
            run_started(1, 1),
            run_started(2, 4),
            main_region(1),
            region_exited(1, 0.0, 0.0),
            region_exited(2, 0.0, 0.1),
        ])
        .expect("ingest");

    let err = session.flush().expect_err("division by zero must surface");
    match &err {
        FlushError::Analysis(AnalysisError::Property { property, source }) => {
            assert_eq!(source.kind, EvalErrorKind::DivByZero, "{source}");
            assert!(
                !property.is_empty(),
                "the failing property must be identified"
            );
        }
        other => panic!("expected FlushError::Analysis(Property), got {other:?}"),
    }
    // The typed error still renders for humans.
    assert!(err.to_string().contains("analysis flush failed"));

    // The invalidated delta was re-queued: the *same* typed failure
    // resurfaces on an immediate retry (nothing invalidated-and-forgotten).
    let again = session.flush().expect_err("re-queued delta must re-fail");
    assert!(
        matches!(
            again,
            FlushError::Analysis(AnalysisError::Property { ref source, .. })
                if source.kind == EvalErrorKind::DivByZero
        ),
        "got {again:?}"
    );

    // Refining the basis durations to nonzero values heals the session
    // (the severity denominator is `Duration(Basis, t)` of each analyzed
    // run, so both runs need a real timing).
    session
        .ingest_batch(&[region_exited(1, 10.0, 0.0), region_exited(2, 12.0, 0.1)])
        .expect("refinement");
    let updated = session.flush().expect("healed flush");
    assert!(!updated.is_empty());
    assert!(session.report(RunKey(2)).is_some());
}

/// The recovery path carries the same typed error: recovering a durable
/// session whose WAL replays into a failing evaluation reports
/// `RecoveryError::Analysis(FlushError::Analysis(..))`, not a string.
#[test]
fn recovery_flush_failure_is_typed_too() {
    use online::RecoveryError;

    let dir = testkit::ScratchDir::new("flush-errors");
    let durable = OnlineSession::open(dir.path(), testkit::durable_config(0)).expect("open");
    durable
        .ingest_batch(&[
            run_started(1, 1),
            run_started(2, 4),
            main_region(1),
            region_exited(1, 0.0, 0.0),
            region_exited(2, 0.0, 0.1),
        ])
        .expect("ingest");
    drop(durable); // killed before any flush

    match OnlineSession::recover(dir.path(), SessionConfig::default()) {
        Err(RecoveryError::Analysis(FlushError::Analysis(AnalysisError::Property {
            source,
            ..
        }))) => assert_eq!(source.kind, EvalErrorKind::DivByZero),
        other => panic!(
            "expected typed Analysis recovery error, got {:?}",
            other.map(|_| ())
        ),
    }
}

/// A spec the engine cannot instantiate is not "no structure yet": the
/// flush fails with the typed signature error — at once, and again on every
/// retry — instead of parking the runs for a later flush that could never
/// succeed. (`EngineBuilder::build` refuses such a spec up front; a session
/// built directly meets it here.)
#[test]
fn uninstantiable_spec_is_a_typed_flush_error_not_a_silent_requeue() {
    use cosy::SpecError;
    let src = format!(
        "{}\nProperty P(TestRun t) {{ CONDITION: t.NoPe > 0; CONFIDENCE: 1; SEVERITY: 1; }}",
        asl_eval::COSY_DATA_MODEL
    );
    let spec = std::sync::Arc::new(asl_core::parse_and_check(&src).expect("checks"));
    let session = OnlineSession::new(SessionConfig {
        spec: Some(spec),
        ..SessionConfig::default()
    });
    session
        .ingest_batch(&[
            run_started(1, 1),
            main_region(1),
            region_exited(1, 1.0, 0.0),
        ])
        .expect("ingest");
    for attempt in 0..2 {
        match session.flush() {
            Err(FlushError::Spec(e @ SpecError::Signature { .. })) => {
                assert!(e.render(&src).contains("(TestRun t)"), "{}", e.render(&src));
            }
            other => panic!("attempt {attempt}: expected a signature error, got {other:?}"),
        }
    }
    assert!(session.reports().is_empty());
}

/// A run waiting for its version's structure is owed a full evaluation
/// until it gets one: a flush that fails on an *earlier* version must not
/// forget it. Version 1 fails (zero basis) in the very flush that would
/// have evaluated version 2's parked run; the failing delta is re-queued,
/// but it says nothing about the parked run — another, larger run brought
/// the structure — so only the engine's memory can bring it back.
#[test]
fn failed_flush_does_not_forget_a_run_waiting_for_structure() {
    let second_version = |key: u64, no_pe: u32| match run_started(key, no_pe) {
        TraceEvent::RunStarted {
            run,
            program,
            compiled_at,
            source,
            start,
            no_pe,
            clockspeed,
            ..
        } => TraceEvent::RunStarted {
            run,
            version: VersionTag(2),
            program,
            compiled_at,
            source,
            start,
            no_pe,
            clockspeed,
        },
        other => other,
    };
    let events = [
        // Version 1 is healthy; run 3 of version 2 has no structure yet.
        vec![
            run_started(1, 1),
            main_region(1),
            region_exited(1, 10.0, 0.0),
            second_version(3, 1),
        ],
        // Run 4 brings version 2's structure in the delta whose flush
        // fails on version 1 before reaching version 2.
        vec![
            second_version(4, 4),
            main_region(4),
            region_exited(4, 8.0, 0.0),
            run_started(2, 4),
            region_exited(1, 0.0, 0.0),
            region_exited(2, 0.0, 0.1),
        ],
        vec![region_exited(1, 10.0, 0.0), region_exited(2, 12.0, 0.1)],
    ];

    let session = OnlineSession::new(SessionConfig::default());
    session.ingest_batch(&events[0]).expect("ingest");
    session.flush().expect("first flush parks run 3");
    assert!(session.report(RunKey(1)).is_some());
    assert!(session.report(RunKey(3)).is_none());
    session.ingest_batch(&events[1]).expect("ingest");
    session.flush().expect_err("version 1 divides by zero");
    session.ingest_batch(&events[2]).expect("refinement");
    session.flush().expect("healed flush");

    // The same events with one flush at the end: nothing was ever parked.
    let batch = OnlineSession::new(SessionConfig::default());
    batch.ingest_batch(&events.concat()).expect("ingest");
    batch.flush().expect("flush");
    assert!(batch.report(RunKey(3)).is_some());
    for key in 1..=4 {
        assert_eq!(
            session.report(RunKey(key)),
            batch.report(RunKey(key)),
            "run {key}"
        );
    }
}

/// A version is re-based when its ranking basis is another region than the
/// one it was last *evaluated* against — not the one a failed flush was
/// about to use. `main` is announced late, with a zero total in run 1:
/// the flush that would re-rank both runs against `main` fails on run 1.
/// The producer then corrects that one total, which says nothing about
/// run 2; only the re-base still owed brings run 2 off `work`.
#[test]
fn failed_flush_does_not_forget_a_rebase() {
    let events = [
        // Ranked against `work`, the first function's region.
        vec![
            run_started(1, 2),
            run_started(2, 8),
            root_region(1, "work"),
            root_exited(1, "work", 10.0, 0.1),
            root_exited(2, "work", 12.0, 0.1),
        ],
        vec![main_region(2), region_exited(1, 0.0, 0.0)],
        vec![region_exited(1, 20.0, 0.0)],
    ];

    let session = OnlineSession::new(SessionConfig::default());
    session.ingest_batch(&events[0]).expect("ingest");
    session.flush().expect("ranked against `work`");
    let against_work = session.report(RunKey(2)).expect("run 2 reported");
    assert!(!against_work.entries.is_empty());
    session.ingest_batch(&events[1]).expect("ingest");
    let err = session.flush().expect_err("run 1 divides by zero");
    assert!(
        matches!(
            err,
            FlushError::Analysis(AnalysisError::Property { ref source, .. })
                if source.kind == EvalErrorKind::DivByZero
        ),
        "got {err:?}"
    );
    session.ingest_batch(&events[2]).expect("correction");
    session.flush().expect("healed flush");

    // The same events with one flush at the end: a one-shot analysis.
    let once = OnlineSession::new(SessionConfig::default());
    once.ingest_batch(&events.concat()).expect("ingest");
    once.flush().expect("flush");
    for key in 1..=2 {
        assert_eq!(
            session.report(RunKey(key)),
            once.report(RunKey(key)),
            "run {key}"
        );
    }
    assert_ne!(session.report(RunKey(2)), Some(against_work));
}
