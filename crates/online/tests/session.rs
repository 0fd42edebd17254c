//! Integration tests of one [`OnlineSession`]: per-event isolation inside
//! a batch, finished-run tracking, and the incremental engine's work
//! bound and exact work counts. (Concurrent producers and mid-stream
//! flushes are covered over both session shapes in
//! `crates/engine/tests/concurrent.rs`.)

use apprentice_sim::{archetypes, simulate_program, MachineModel};
use cosy::{Analyzer, Backend, ProblemThreshold};
use online::replay::events_for_run;
use online::{OnlineSession, SessionConfig, TraceEvent};
use perfdata::{Store, TestRunId};

fn simulated_store(pe_counts: &[u32]) -> Store {
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &archetypes::particle_mc(42),
        &MachineModel::t3e_900(),
        pe_counts,
    );
    store
}

#[test]
fn bad_event_does_not_poison_the_rest_of_a_batch() {
    let store = simulated_store(&[1, 8]);
    let session = OnlineSession::new(SessionConfig::default());
    let mut events = events_for_run(&store, TestRunId(0));
    // Inject a malformed event (unknown function) mid-batch.
    let bad = TraceEvent::TypedSample {
        run: online::replay::replay_run_key(TestRunId(0)),
        function: "no_such_function".into(),
        region: online::RegionRef::new("nope", 1),
        ty: perfdata::TimingType::Barrier,
        time: 1.0,
    };
    events.insert(events.len() / 2, bad);
    let err = session.ingest_batch(&events).unwrap_err();
    assert!(matches!(err, online::IngestError::UnknownFunction { .. }));
    session.flush().unwrap();
    // Every valid event after the bad one still applied: the run is
    // finished and its report matches the batch analyzer.
    let key = online::replay::replay_run_key(TestRunId(0));
    assert!(session.is_finished(key));
    assert_eq!(session.stats().events_rejected, 1);
    let report = session.report(key).unwrap();
    let batch = Analyzer::new(&store, store.runs[0].version)
        .unwrap()
        .analyze(
            TestRunId(0),
            Backend::Interpreter,
            ProblemThreshold::default(),
        )
        .unwrap();
    assert_eq!(report.entries.len(), batch.entries.len());
}

#[test]
fn run_finished_state_is_tracked() {
    let store = simulated_store(&[1, 8]);
    let session = OnlineSession::new(SessionConfig::default());
    let events = events_for_run(&store, TestRunId(0));
    let key = online::replay::replay_run_key(TestRunId(0));
    // All but the RunFinished marker.
    session.ingest_batch(&events[..events.len() - 1]).unwrap();
    session.flush().unwrap();
    assert!(!session.is_finished(key));
    session.ingest_batch(&events[events.len() - 1..]).unwrap();
    session.flush().unwrap();
    assert!(session.is_finished(key));
    assert_eq!(session.stats().runs_finished, 1);
}

#[test]
fn incremental_engine_does_less_work_than_batch() {
    // Appending one run to a store with many runs must evaluate far fewer
    // instances than re-analyzing every run would.
    let store = simulated_store(&[1, 2, 4, 8, 16, 32]);
    let session = OnlineSession::new(SessionConfig::default());
    for r in 0..store.runs.len() as u32 - 1 {
        session
            .ingest_batch(&events_for_run(&store, TestRunId(r)))
            .unwrap();
    }
    session.flush().unwrap();
    let before = session.stats().incremental.instances_evaluated;

    session
        .ingest_batch(&events_for_run(
            &store,
            TestRunId(store.runs.len() as u32 - 1),
        ))
        .unwrap();
    session.flush().unwrap();
    let appended = session.stats().incremental.instances_evaluated - before;

    // The append touched one run out of six: it must cost at most ~1/5 of
    // the instances evaluated so far (which covered five full runs).
    assert!(
        appended * 4 <= before,
        "incremental append evaluated {appended} instances vs {before} for the initial five runs"
    );
}

/// The invalidation policy, pinned by the work it causes: the exact
/// `(runs_reevaluated, full_reevaluations, instances_evaluated)` each
/// flush of a fixed scenario adds. The numbers were taken from the commit
/// before `StoreDelta` became a record of facts (when `StoreBuilder`
/// decided dirtiness event by event); a change to
/// `IncrementalAnalyzer::invalidated` that moves one of them has changed
/// what is re-evaluated and must say why.
#[test]
fn invalidation_policy_is_pinned() {
    let store = simulated_store(&[1, 2, 4, 8, 16, 32]);
    let session = OnlineSession::new(SessionConfig::default());
    let mut seen = online::IncrementalStats::default();
    let mut flush_work = || {
        session.flush().unwrap();
        let now = session.stats().incremental;
        let work = (
            now.runs_reevaluated - seen.runs_reevaluated,
            now.full_reevaluations - seen.full_reevaluations,
            now.instances_evaluated - seen.instances_evaluated,
        );
        seen = now;
        work
    };

    // Runs 1..=5 (2 to 32 PEs) arrive in turn: each is evaluated in full,
    // none disturbs its siblings.
    for r in 1..store.runs.len() as u32 {
        session
            .ingest_batch(&events_for_run(&store, TestRunId(r)))
            .unwrap();
        assert_eq!(flush_work(), (1, 1, 54), "run {r}");
    }

    // Corrections of a region that is not the ranking basis.
    let basis = store.main_region(store.runs[0].version).unwrap();
    let basis_name = &store.regions[basis.index()].name;
    let correction = |run: u32, typed: bool| {
        let mut event = events_for_run(&store, TestRunId(run))
            .into_iter()
            .find(|e| match e {
                TraceEvent::RegionExited { region, .. } => !typed && region.name != *basis_name,
                TraceEvent::TypedSample { region, .. } => typed && region.name != *basis_name,
                _ => false,
            })
            .unwrap();
        match &mut event {
            TraceEvent::RegionExited { incl, excl, .. } => {
                *incl *= 1.5;
                *excl *= 1.5;
            }
            TraceEvent::TypedSample { time, .. } => *time *= 1.5,
            _ => unreachable!(),
        }
        event
    };
    // A total of the 8-PE run: its own context only.
    session.ingest(&correction(3, false)).unwrap();
    assert_eq!(flush_work(), (1, 0, 10));
    // A total of the 2-PE run, the minimum so far: the region in all five.
    session.ingest(&correction(1, false)).unwrap();
    assert_eq!(flush_work(), (5, 0, 50));
    // A typed timing: its own context only.
    session.ingest(&correction(3, true)).unwrap();
    assert_eq!(flush_work(), (1, 0, 10));
    // The 1-PE run arrives late: a new reference configuration, the whole
    // version in full.
    session
        .ingest_batch(&events_for_run(&store, TestRunId(0)))
        .unwrap();
    assert_eq!(flush_work(), (6, 6, 324));
}

/// What the evaluator keeps per subject — `MinPeSum`, the region's total
/// in the run with the fewest processors — lives exactly as long as one
/// flush's binding to the store. A 1-PE run arriving after runs 4 and 16
/// were evaluated makes another record the minimum of every region, and a
/// correction of that record changes what it says: each time
/// `SublinearSpeedup` moves in every other run of the version, to what a
/// session that saw everything before its only flush reports.
#[test]
fn what_is_kept_per_subject_never_outlives_a_flush() {
    let store = simulated_store(&[1, 4, 16]);
    let key = online::replay::replay_run_key;
    let speedup_losses = |session: &OnlineSession, run: u32| -> Vec<(String, f64)> {
        let report = session.report(key(TestRunId(run))).unwrap();
        let entries = report.entries.iter();
        entries
            .filter(|e| e.property == "SublinearSpeedup")
            .map(|e| (e.context.label.to_string(), e.severity))
            .collect()
    };
    let basis = store.main_region(store.runs[0].version).unwrap();
    let basis_name = &store.regions[basis.index()].name;
    // Halve every non-basis total of the 1-PE run.
    let corrections: Vec<TraceEvent> = events_for_run(&store, TestRunId(0))
        .into_iter()
        .filter_map(|mut event| match &mut event {
            TraceEvent::RegionExited {
                region, incl, excl, ..
            } if region.name != *basis_name => {
                *incl *= 0.5;
                *excl *= 0.5;
                Some(event)
            }
            _ => None,
        })
        .collect();
    assert!(!corrections.is_empty());
    let steps = [
        [1, 2]
            .map(|r| events_for_run(&store, TestRunId(r)))
            .concat(),
        events_for_run(&store, TestRunId(0)),
        corrections,
    ];

    let session = OnlineSession::new(SessionConfig::default());
    let mut so_far = Vec::new();
    let mut before: Option<[Vec<(String, f64)>; 2]> = None;
    for step in &steps {
        session.ingest_batch(step).unwrap();
        session.flush().unwrap();
        so_far.extend_from_slice(step);
        let at_once = OnlineSession::new(SessionConfig::default());
        at_once.ingest_batch(&so_far).unwrap();
        at_once.flush().unwrap();
        let now = [1, 2].map(|run| speedup_losses(&session, run));
        for (i, run) in [1, 2].into_iter().enumerate() {
            assert_eq!(now[i], speedup_losses(&at_once, run), "run {run}");
            if let Some(before) = &before {
                assert_ne!(now[i], before[i], "run {run} did not move");
            }
        }
        // The 4-PE run loses nothing while it is the reference itself.
        assert!(!now[1].is_empty() && now[0].is_empty() == before.is_none());
        before = Some(now);
    }
}
