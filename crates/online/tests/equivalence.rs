//! Batch ≡ online equivalence: replaying an `apprentice`-simulated store
//! through the streaming pipeline yields, for every run, an
//! `AnalysisReport` equal to the batch `cosy` analyzer on the final store
//! — same properties, same contexts, severities within 1e-9. So does a
//! suite with a user property whose reads the standard suite's dirtiness
//! rules do not cover.

use apprentice_sim::{simulate_program, MachineModel, ProgramGenerator};
use asl_core::check::CheckedSpec;
use cosy::{AnalysisReport, Analyzer, Backend, ProblemThreshold};
use online::replay::{events_for_run, replay_run_key, replay_store};
use online::{OnlineSession, RunKey, SessionConfig, TraceEvent};
use perfdata::{Store, TestRunId, TimingType};
use proptest::prelude::*;
use std::sync::Arc;

/// Assert two reports agree (severities within 1e-9 relative, everything
/// else exactly).
fn assert_reports_equal(batch: &AnalysisReport, online: &AnalysisReport, what: &str) {
    assert_eq!(batch.program, online.program, "{what}: program");
    assert_eq!(batch.no_pe, online.no_pe, "{what}: no_pe");
    assert_eq!(
        batch.reference_pe, online.reference_pe,
        "{what}: reference_pe"
    );
    assert_eq!(batch.skipped, online.skipped, "{what}: skipped");
    assert!(
        (batch.basis_duration - online.basis_duration).abs()
            <= 1e-9 * batch.basis_duration.abs().max(1.0),
        "{what}: basis_duration {} vs {}",
        batch.basis_duration,
        online.basis_duration
    );
    assert!(
        (batch.total_cost - online.total_cost).abs() <= 1e-9 * batch.total_cost.abs().max(1.0),
        "{what}: total_cost {} vs {}",
        batch.total_cost,
        online.total_cost
    );
    assert_eq!(
        batch.entries.len(),
        online.entries.len(),
        "{what}: entry count; batch={:?} online={:?}",
        batch
            .entries
            .iter()
            .map(|e| (&e.property, &e.context.label, e.severity))
            .collect::<Vec<_>>(),
        online
            .entries
            .iter()
            .map(|e| (&e.property, &e.context.label, e.severity))
            .collect::<Vec<_>>()
    );
    for (b, o) in batch.entries.iter().zip(&online.entries) {
        assert_eq!(b.rank, o.rank, "{what}");
        assert_eq!(b.property, o.property, "{what} rank {}", b.rank);
        assert_eq!(
            b.context, o.context,
            "{what} {} rank {}",
            b.property, b.rank
        );
        assert_eq!(b.is_problem, o.is_problem, "{what} {}", b.property);
        assert_eq!(b.confidence, o.confidence, "{what} {}", b.property);
        assert!(
            (b.severity - o.severity).abs() <= 1e-9 * b.severity.abs().max(1.0),
            "{what} {} @ {}: severity {} vs {}",
            b.property,
            b.context.label,
            b.severity,
            o.severity
        );
    }
}

/// Canonical, id-free projection of a store's contents: one line per
/// record, identified by names/timestamps instead of arena ids, sorted.
/// Two stores with equal projections contain the same performance data
/// even when arena ids differ (a trace stream cannot observe functions
/// that never execute and are never called, so a replayed store may lack
/// unused runtime-routine `Function` records the batch builder declared).
fn canonical(store: &Store) -> Vec<String> {
    let mut out = Vec::new();
    let version_name = |v: perfdata::VersionId| -> String {
        let ver = &store.versions[v.index()];
        let prog = &store.programs[ver.program.index()];
        let ordinal = prog.versions.iter().position(|x| *x == v).unwrap();
        format!("{}#{}", prog.name, ordinal)
    };
    let run_name = |r: TestRunId| -> String {
        let run = &store.runs[r.index()];
        format!(
            "{}/pe{}@{}",
            version_name(run.version),
            run.no_pe,
            run.start.micros()
        )
    };
    let region_name = |r: perfdata::RegionId| -> String {
        let reg = &store.regions[r.index()];
        let f = &store.functions[reg.function.index()];
        format!("{}::{}@{}", f.name, reg.name, reg.first_line)
    };
    for p in &store.programs {
        out.push(format!("program {}", p.name));
    }
    for (i, v) in store.versions.iter().enumerate() {
        out.push(format!(
            "version {} compiled {} source {:?}",
            version_name(perfdata::VersionId(i as u32)),
            v.compilation.micros(),
            store.sources[v.code.index()].text
        ));
    }
    for (i, _) in store.runs.iter().enumerate() {
        let r = TestRunId(i as u32);
        out.push(format!(
            "run {} clock {}",
            run_name(r),
            store.runs[r.index()].clockspeed
        ));
    }
    for (i, reg) in store.regions.iter().enumerate() {
        out.push(format!(
            "region {} {} kind {:?} lines {}-{} parent {:?}",
            version_name(store.functions[reg.function.index()].version),
            region_name(perfdata::RegionId(i as u32)),
            reg.kind,
            reg.first_line,
            reg.last_line,
            reg.parent.map(region_name)
        ));
    }
    for t in &store.total_timings {
        out.push(format!(
            "tot {} {} excl {:?} incl {:?} ovhd {:?}",
            region_name(t.region),
            run_name(t.run),
            t.excl,
            t.incl,
            t.ovhd
        ));
    }
    for t in &store.typed_timings {
        out.push(format!(
            "typ {} {} {:?} {:?}",
            region_name(t.region),
            run_name(t.run),
            t.ty,
            t.time
        ));
    }
    for c in &store.calls {
        let caller = &store.functions[c.caller.index()];
        let callee = &store.functions[c.callee.index()];
        for &ct in &c.sums {
            let s = &store.call_timings[ct.index()];
            out.push(format!(
                "call {}->{} at {} {} stats {:?}",
                caller.name,
                callee.name,
                region_name(c.calling_reg),
                run_name(s.run),
                (
                    s.min_count,
                    s.max_count,
                    s.mean_count,
                    s.stdev_count,
                    s.min_time,
                    s.max_time,
                    s.mean_time,
                    s.stdev_time
                )
            ));
        }
    }
    out.sort();
    out
}

/// Batch-analyze every run of a store.
fn batch_reports(
    store: &Store,
    spec: &Arc<CheckedSpec>,
    threshold: ProblemThreshold,
) -> Vec<(TestRunId, AnalysisReport)> {
    (0..store.runs.len() as u32)
        .map(|r| {
            let run = TestRunId(r);
            let version = store.runs[run.index()].version;
            let analyzer = Analyzer::with_spec(store, version, Arc::clone(spec)).unwrap();
            let report = analyzer
                .analyze(run, Backend::Interpreter, threshold)
                .unwrap();
            (run, report)
        })
        .collect()
}

/// Stream a store into a session in event chunks of `chunk`, flushing the
/// incremental analysis after every chunk (so partial, mid-run analysis
/// states are genuinely exercised), then compare every run's final report
/// against the batch analyzer.
fn check_equivalence(store: &Store, chunk: usize, what: &str) {
    let threshold = ProblemThreshold::default();
    let session = OnlineSession::new(SessionConfig {
        threshold,
        ..SessionConfig::default()
    });
    for run in 0..store.runs.len() as u32 {
        let events = events_for_run(store, TestRunId(run));
        for batch in events.chunks(chunk.max(1)) {
            session.ingest_batch(batch).unwrap();
            session.flush().unwrap();
        }
    }
    // The replayed store must contain the same performance data. (Arena
    // ids may differ: unused runtime-routine functions are unobservable in
    // a trace stream, which shifts function ids — see `canonical`.)
    let snapshot = session.store_snapshot();
    let (orig, replayed) = (canonical(store), canonical(&snapshot));
    assert_eq!(orig, replayed, "{what}: store contents mismatch");

    let standard = Arc::new(cosy::standard_suite());
    for (run, batch_report) in batch_reports(store, &standard, threshold) {
        let online_report = session
            .report(replay_run_key(run))
            .unwrap_or_else(|| panic!("{what}: no online report for {run}"));
        assert_reports_equal(&batch_report, &online_report, &format!("{what} {run}"));
    }
}

#[test]
fn particle_mc_fixed_seed_equivalence() {
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &apprentice_sim::archetypes::particle_mc(23),
        &MachineModel::t3e_900(),
        &[1, 4, 16],
    );
    // Small chunks: many incremental flushes per run.
    check_equivalence(&store, 7, "particle_mc");
}

#[test]
fn all_archetypes_equivalence() {
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    for model in apprentice_sim::archetypes::all(11) {
        simulate_program(&mut store, &model, &machine, &[1, 8]);
    }
    check_equivalence(&store, 64, "all_archetypes");
}

#[test]
fn decreasing_pe_order_still_equivalent() {
    // Streaming runs largest-first repeatedly changes the reference
    // configuration — the full-version invalidation path must fire.
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &apprentice_sim::archetypes::stencil3d(3),
        &MachineModel::t3e_900(),
        &[16, 4, 1],
    );
    check_equivalence(&store, 13, "decreasing_pe");
}

/// The standard suite plus `IoContention`; the replayed events of an
/// I/O-bound program at 2, 16 and 64 PEs; and, last, a correction halving
/// an I/O time of the reference (2-PE) run. `IoContention` reads that
/// *typed* timing in every run of the version (`tt.Run == MinPeSum.Run`) —
/// a dependency none of the standard suite's dirtiness rules covers: by
/// them the correction dirties one region of the 2-PE run and nothing else.
fn io_contention_case() -> (Arc<CheckedSpec>, Vec<TraceEvent>) {
    let src = format!(
        "{}\n{}",
        cosy::standard_suite_source(),
        include_str!("../../../examples/specs/io_contention.asl")
    );
    let spec = Arc::new(asl_core::parse_and_check(&src).expect("custom suite"));
    let mut store = Store::new();
    simulate_program(
        &mut store,
        &apprentice_sim::archetypes::spectral_io(11),
        &MachineModel::t3e_900(),
        &[2, 16, 64],
    );
    let mut events = replay_store(&store);
    let reference_io = |e: &&TraceEvent| {
        matches!(
            e,
            TraceEvent::TypedSample {
                run: RunKey(0),
                ty: TimingType::IoRead | TimingType::IoWrite,
                ..
            }
        )
    };
    let mut correction = events.iter().rfind(reference_io).unwrap().clone();
    if let TraceEvent::TypedSample { time, .. } = &mut correction {
        *time *= 0.5;
    }
    events.push(correction);
    (spec, events)
}

#[test]
fn custom_property_sees_a_late_correction_of_the_reference_run() {
    let (spec, events) = io_contention_case();
    let threshold = ProblemThreshold::default();
    let session = OnlineSession::new(SessionConfig {
        threshold,
        spec: Some(Arc::clone(&spec)),
    });
    let (correction, reported) = events.split_last().unwrap();
    for batch in reported.chunks(64) {
        session.ingest_batch(batch).unwrap();
        session.flush().unwrap();
    }
    let io_contention = |key: u64| -> Vec<(String, u64)> {
        let report = session.report(RunKey(key)).unwrap();
        let held = report
            .entries
            .iter()
            .filter(|e| e.property == "IoContention");
        held.map(|e| (e.context.label.to_string(), e.severity.to_bits()))
            .collect()
    };
    let before = [io_contention(1), io_contention(2)];
    assert!(before.iter().all(|held| !held.is_empty()), "{before:?}");
    let full_before = session.stats().incremental.full_reevaluations;

    session.ingest(correction).unwrap();
    let mut updated = session.flush().unwrap();
    updated.sort();
    // Every run of the version is re-evaluated in full, and the correction
    // moves the property in the runs it was not addressed to.
    assert_eq!(updated, [RunKey(0), RunKey(1), RunKey(2)]);
    assert_eq!(
        session.stats().incremental.full_reevaluations,
        full_before + 3
    );
    assert_ne!(before[0], io_contention(1));
    assert_ne!(before[1], io_contention(2));

    let store = session.store_snapshot();
    for (run, batch_report) in batch_reports(&store, &spec, threshold) {
        let online_report = session.report(replay_run_key(run)).unwrap();
        assert_reports_equal(
            &batch_report,
            &online_report,
            &format!("io_contention {run}"),
        );
    }
}

proptest! {
    // Whole-pipeline equivalence on randomized programs is expensive; a
    // handful of cases per run still covers far more shapes than the
    // fixed-seed tests.
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn random_programs_equivalent(
        seed in 0u64..10_000,
        functions in 1usize..4,
        pe in prop_oneof![Just(4u32), Just(8), Just(16)],
        chunk in prop_oneof![Just(1usize), Just(5), Just(33), Just(1024)],
    ) {
        let gen = ProgramGenerator {
            seed,
            functions,
            max_depth: 3,
            max_fanout: 3,
            base_work: 0.01,
            comm_probability: 0.6,
        };
        let model = gen.generate();
        let mut store = Store::new();
        simulate_program(&mut store, &model, &MachineModel::t3e_900(), &[1, pe]);
        check_equivalence(&store, chunk, &format!("random seed={seed}"));
    }
}
