//! Interpreter ≡ compiled-IR equivalence on arbitrary specs and stores.
//!
//! On testkit's randomized stores (typed records of every timing type but
//! one, deliberate gaps and duplicates, a call site) and suites (all
//! twelve standard properties plus generated ones with random
//! aggregates, filters, comparisons and arms), every property
//! instance and helper-function call must produce **the same result
//! through both engines**: identical outcomes, identical severities
//! (bit-for-bit — both engines execute the same arithmetic in the same
//! order), and identical errors (kind and message) on the failure paths
//! (empty `UNIQUE`, ambiguous `UNIQUE`, division by zero, recursion
//! limits, empty `MIN`/`MAX`/`AVG`).
//!
//! The compiled engine is checked twice: instance by instance through
//! `eval_property`, and as it runs in production — [`asl_eval::Batch`]es
//! of 1, 7 and 256 lanes per (property, run), all on one reused scratch,
//! where subtrees that read only the shared context are evaluated once
//! per batch. A hoisted subtree that *fails*
//! must fail every instance that reaches it exactly as re-evaluation
//! would; `hoisted_failures_reach_every_instance` pins the three ways the
//! standard suite's `Duration(Basis, t)` can.
//!
//! Both run on **one evaluator** for all properties and runs of a case,
//! so what the evaluator keeps per subject (`MinPeSum`, shared by
//! `SublinearSpeedup` and `UnmeasuredCost`) is filled by the first
//! instance of a region and answers every later run and both properties
//! — against an interpreter that re-derives it each time. Regions without
//! totals, or with tied minima, make that subtree fail: nothing is kept,
//! and each property reports the failure at its own span.
//!
//! The filters cover what the store answers itself — `Type == A`, `OR`
//! chains of types under every aggregate and in comprehensions, the
//! suite's `Type ∈ {…}` keys of up to six types — and what it must leave
//! to the predicate: a chain mixed with another test, `!=`, no run key.
//! Duplicate `(region, run, type)` records must count twice either way.

use asl_eval::{
    compile, CompiledEvaluator, CosyData, EvalErrorKind, Interpreter, PropertyOutcome, Value,
    COSY_DATA_MODEL,
};
use perfdata::{DateTime, RegionKind, Store, TimingType, VersionId};
use proptest::prelude::*;
use std::sync::Arc;

/// Compare one evaluation through both engines.
fn assert_equivalent<T: PartialEq + std::fmt::Debug>(
    what: &str,
    interp: Result<T, asl_eval::EvalError>,
    compiled: Result<T, asl_eval::EvalError>,
) {
    match (&interp, &compiled) {
        // As printed: a NaN severity is its engine's only if both print
        // it, and a zero's sign counts.
        (Ok(a), Ok(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{what}: outcome mismatch"
        ),
        (Err(a), Err(b)) => {
            assert_eq!(a.kind, b.kind, "{what}: error kind mismatch");
            assert_eq!(a.message, b.message, "{what}: error message mismatch");
            assert_eq!(a.span, b.span, "{what}: error span mismatch");
        }
        _ => panic!("{what}: interp={interp:?} vs compiled={compiled:?}"),
    }
}

/// Checks one generated case; returns what [`check_properties`] does.
fn check_case(seed: u64, n_runs: usize, n_regions: usize) -> Vec<(String, Option<EvalErrorKind>)> {
    let (store, v) = testkit::random_store(seed, n_runs, n_regions);
    let src = testkit::generated_suite(seed);
    let spec = asl_core::parse_and_check(&src).expect("suite checks");
    let data = CosyData::new(&store);
    let interp = Interpreter::new(&spec, &data).expect("interpreter binds");
    let compiled_spec = Arc::new(compile(&spec));
    let compiled = CompiledEvaluator::new(compiled_spec, &data).expect("compiled binds");

    let runs: Vec<_> = store.versions[v.index()].runs.clone();
    let regions: Vec<u32> = (0..store.regions.len() as u32).collect();

    // Helper functions: Summary and Duration on every (region, run).
    for &r in &regions {
        for &run in &runs {
            for func in ["Summary", "Duration"] {
                let args = [Value::obj("Region", r), Value::run(run)];
                assert_equivalent(
                    &format!("{func}(r{r}, {run:?})"),
                    interp.call_function(func, &args),
                    compiled.call_function(func, &args),
                );
            }
        }
    }

    check_properties(&spec, &store, v, &interp, &compiled)
}

/// Every property on every context of every run, three ways: the
/// interpreter, the compiled engine on one instance (`eval_property`, a
/// one-lane batch), and the compiled engine as it runs in production — one
/// batch per (property, run), its subjects cut into lane batches of 1, 7
/// and 256, all on one scratch — compared lane by lane. Returns every
/// instance that held (`None`) or failed (the error's kind) by property
/// name, for tests that provoke a particular outcome.
fn check_properties(
    spec: &asl_core::CheckedSpec,
    store: &Store,
    v: VersionId,
    interp: &Interpreter<'_, &CosyData<'_>>,
    compiled: &CompiledEvaluator<&CosyData<'_>>,
) -> Vec<(String, Option<EvalErrorKind>)> {
    let basis = store.main_region(v).expect("main region");
    let mut seen = Vec::new();
    // One scratch for every property, run and width, as a worker of the
    // analyzer reuses it: state one batch leaves behind must not leak
    // into the next.
    let mut scratch = asl_eval::Scratch::default();
    for p in spec.properties() {
        let name = &p.name.name;
        let subjects = testkit::subjects(store, p);
        for &run in &store.versions[v.index()].runs {
            let context = [Value::run(run), Value::region(basis)];
            let what = |subject: &Value| format!("{name}({subject}, {run:?})");
            let oracle: Vec<_> = subjects
                .iter()
                .map(|subject| {
                    let args = [subject.clone(), context[0].clone(), context[1].clone()];
                    let oracle = interp.eval_property(name, &args);
                    let single = compiled.eval_property(name, &args);
                    assert_equivalent(&what(subject), oracle.clone(), single);
                    match &oracle {
                        Ok(o) if !o.holds => {}
                        held_or_failed => {
                            let kind = held_or_failed.as_ref().err().map(|e| e.kind);
                            seen.push((name.clone(), kind));
                        }
                    }
                    oracle
                })
                .collect();
            let widths = [1, 7, 256];
            assert_batches_agree(
                compiled,
                p,
                &context,
                &subjects,
                &oracle,
                &what,
                &widths,
                &mut scratch,
            );
        }
    }
    seen
}

/// The subjects of one (property, context) as lane batches of each of
/// `widths` on `scratch`, as a worker of the analyzer reuses it: every lane's
/// outcome — the conditions read back from its bitmask — is the oracle's,
/// severities and confidences bit for bit, errors with kind, message and
/// span.
#[allow(clippy::too_many_arguments)]
fn assert_batches_agree(
    compiled: &CompiledEvaluator<&CosyData<'_>>,
    p: &asl_core::ast::PropertyDecl,
    context: &[Value],
    subjects: &[Value],
    oracle: &[Result<PropertyOutcome, asl_eval::EvalError>],
    what: &dyn Fn(&Value) -> String,
    widths: &[usize],
    scratch: &mut asl_eval::Scratch,
) {
    let name = &p.name.name;
    for &width in widths {
        let mut batch = compiled.batch(name, context, scratch).expect("batch binds");
        for (cut, lanes) in subjects.chunks(width).enumerate() {
            let outcomes = batch.eval(lanes.iter().cloned()).to_vec();
            for (lane, outcome) in outcomes.into_iter().enumerate() {
                let i = cut * width + lane;
                let batched = outcome.map(|o| PropertyOutcome {
                    property: name.clone(),
                    holds: o.holds,
                    fired: p
                        .conditions
                        .iter()
                        .enumerate()
                        .map(|(c, cond)| {
                            let id = cond.id.as_ref().map(|id| id.name.clone());
                            (id, batch.fired(lane, c))
                        })
                        .collect(),
                    confidence: o.confidence,
                    severity: o.severity,
                });
                let what = format!("{} in lanes of {width}", what(&subjects[i]));
                if let (Ok(a), Ok(b)) = (&oracle[i], &batched) {
                    assert_eq!(a.severity.to_bits(), b.severity.to_bits(), "{what}");
                    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "{what}");
                }
                assert_equivalent(&what, oracle[i].clone(), batched);
            }
        }
    }
}

proptest! {
    #![proptest_config(testkit::cases(24))]

    #[test]
    fn compiled_equals_interpreter_on_random_specs_and_stores(
        seed in 0u64..1_000_000_000,
        n_runs in 1usize..5,
        n_regions in 1usize..5,
    ) {
        check_case(seed, n_runs, n_regions);
    }
}

/// `Duration(Basis, t)` is in every severity of the suite and reads only
/// the batch's shared context, so a batch evaluates it once. Make it fail
/// in each of the ways it can — no `Summary` of the basis in run `t`
/// (`EmptySet`), a zero duration (`DivByZero` in the severity), a
/// duplicate total timing (`Ambiguous`) — and every instance that reaches
/// the severity must fail with that error, batched or not, while
/// instances that do not hold never see it.
#[test]
fn hoisted_failures_reach_every_instance() {
    let spec = testkit::Suite::Standard.spec();
    for (basis_timings, expected) in [
        (vec![], EvalErrorKind::EmptySet),
        (vec![0.0], EvalErrorKind::DivByZero),
        (vec![4.0, 5.0], EvalErrorKind::Ambiguous),
    ] {
        let mut s = Store::new();
        let p = s.add_program("hoist");
        let v = s.add_version(p, DateTime::from_secs(1), "");
        let run = s.add_run(v, DateTime::from_secs(10), 4, 450);
        let f = s.add_function(v, "main");
        let main = s.add_region(f, None, RegionKind::Subprogram, "main", (1, 9));
        for incl in basis_timings {
            s.add_total_timing(main, run, incl, incl, 0.0);
        }
        for i in 0..4 {
            let r = s.add_region(f, Some(main), RegionKind::Loop, format!("l{i}"), (2, 3));
            // Two loops with overhead (MeasuredCost holds, its severity
            // divides by the basis), two without (it never gets there).
            s.add_total_timing(r, run, 1.0, 1.0, if i < 2 { 0.5 } else { 0.0 });
            s.add_typed_timing(r, run, TimingType::Barrier, if i < 2 { 0.25 } else { 0.0 });
        }
        let data = CosyData::new(&s);
        let interp = Interpreter::new(&spec, &data).expect("interpreter binds");
        let compiled = CompiledEvaluator::new(Arc::new(compile(&spec)), &data).expect("binds");
        let seen = check_properties(&spec, &s, v, &interp, &compiled);
        let hits = seen.iter().filter(|(_, kind)| *kind == Some(expected));
        // MeasuredCost and SyncCost on l0 and l1 at the least.
        assert!(hits.count() >= 4, "{expected:?} in {seen:?}");
    }
}

/// A few pinned shapes — single run/region, many regions, heavy gaps —
/// on which every standard property holds somewhere, so none of them is
/// compared only on its failures.
#[test]
fn compiled_equals_interpreter_on_fixed_edge_seeds() {
    let mut seen = Vec::new();
    for (seed, runs, regions) in [(1, 1, 1), (7, 4, 4), (42, 2, 4), (9999, 4, 1), (5, 4, 3)] {
        seen.extend(check_case(seed, runs, regions));
        // The generated properties share with each other and with the
        // suite: more run sites than the suite's 15, and a second group.
        let spec = asl_core::parse_and_check(&testkit::generated_suite(seed)).expect("checks");
        let plan = compile(&spec).plan_stats();
        assert!(
            plan.run_sites > 15 && plan.sum_groups >= 2,
            "seed {seed}: {plan:?}"
        );
    }
    for p in testkit::Suite::Standard.spec().properties() {
        let held = seen
            .iter()
            .any(|(name, kind)| *name == p.name.name && kind.is_none());
        assert!(held, "{} never held", p.name.name);
    }
    // The properties whose columns mix kinds reach what they were written
    // for: NaN severities and orderings, `/` and `%` by zero, `Null`
    // parents, a failing `LET`, a cell an empty sum filled.
    use EvalErrorKind::{DivByZero, EmptySet, Type};
    for (name, kind) in [
        ("LaneMix", None),
        ("LaneMix", Some(DivByZero)),
        ("LaneNan", Some(Type)),
        ("LaneMod", None),
        ("LaneMod", Some(DivByZero)),
        ("LaneNull", None),
        ("LaneNull", Some(Type)),
        ("LaneLet", None),
        ("LaneLet", Some(EmptySet)),
        ("LaneCellA", None),
        ("LaneCellB", None),
    ] {
        let reached = seen.iter().any(|seen| *seen == (name.to_string(), kind));
        assert!(reached, "{name} never reached {kind:?}");
    }
}

/// One batch of 300 lanes — more than the analyzers cut a batch at — whose
/// lanes part ways: the first 40 hold, and from there on every seventh
/// lane
///
/// * fails in a `LET` (a duplicate total: `Summary` is ambiguous),
/// * fails only in its severity (a zero `Excl`),
/// * has a `FORALL` decided by a counterexample before an element that
///   would fail it (a zero `Time`) — or, the next one, no counterexample
///   before that element, and fails; both lie past the first round of
///   elements the executor tests, which decides every other lane,
/// * has an `AND` decided by its left operand before the right one would
///   fail (a zero `Ovhd`) — or, the next one, not, and fails.
///
/// Every lane is the interpreter's and `eval_property`'s, error spans
/// included, in one batch and at the usual widths.
#[test]
fn lanes_of_one_batch_part_ways_as_single_instances_do() {
    const LANE_PROBE: &str = r#"
Property LaneProbe(Region r, TestRun t, Region Basis) {
    LET float D = Duration(r, t);
        bool Calm = FORALL(tt IN r.TypTimes WITH 1.0 / tt.Time < 100.0)
    IN
    CONDITION: (calm) Calm AND D > 0.0
            OR (costly) D > 1.0 AND 1.0 / Summary(r, t).Ovhd > 0.5;
    CONFIDENCE: MAX((calm) -> 0.5, (costly) -> 1);
    SEVERITY: D / Summary(r, t).Excl;
}
"#;
    let src = format!("{COSY_DATA_MODEL}\n{LANE_PROBE}");
    let spec = asl_core::parse_and_check(&src).expect("probe checks");
    let mut s = Store::new();
    let p = s.add_program("lanes");
    let v = s.add_version(p, DateTime::from_secs(1), "");
    let run = s.add_run(v, DateTime::from_secs(10), 4, 450);
    let f = s.add_function(v, "main");
    let main = s.add_region(f, None, RegionKind::Subprogram, "main", (1, 9));
    s.add_total_timing(main, run, 10.0, 10.0, 1.0);
    s.add_typed_timing(main, run, TimingType::Barrier, 1.0);
    for i in 0..300 {
        let r = s.add_region(f, Some(main), RegionKind::Loop, format!("l{i}"), (2, 3));
        let shape = if i < 40 { 0 } else { i % 7 };
        let (incl, excl, ovhd) = match shape {
            2 => (3.0, 0.0, 1.0),
            5 => (0.5, 1.0, 0.0),
            6 => (3.0, 1.0, 0.0),
            _ => (2.0 + (i % 5) as f64, 1.0, 1.0),
        };
        s.add_total_timing(r, run, excl, incl, ovhd);
        if shape == 1 {
            s.add_total_timing(r, run, excl, incl + 1.0, ovhd);
        }
        let times = match shape {
            3 => [vec![1.0; 10], vec![0.005, 1.0, 0.0]].concat(),
            4 => [vec![1.0; 12], vec![0.0]].concat(),
            _ => vec![1.0, 2.0],
        };
        for time in times {
            s.add_typed_timing(r, run, TimingType::Barrier, time);
        }
    }
    let data = CosyData::new(&s);
    let interp = Interpreter::new(&spec, &data).expect("interpreter binds");
    let compiled = CompiledEvaluator::new(Arc::new(compile(&spec)), &data).expect("binds");

    let probe = &spec.properties()[0];
    let context = [Value::run(run), Value::region(main)];
    let subjects: Vec<Value> = (1..=300).map(|r| Value::obj("Region", r)).collect();
    let oracle: Vec<_> = subjects
        .iter()
        .map(|subject| {
            let args = [subject.clone(), context[0].clone(), context[1].clone()];
            interp.eval_property("LaneProbe", &args)
        })
        .collect();
    let what = |subject: &Value| format!("LaneProbe({subject})");
    let widths = [subjects.len(), 1, 7, 256];
    let mut scratch = asl_eval::Scratch::default();
    assert_batches_agree(
        &compiled,
        probe,
        &context,
        &subjects,
        &oracle,
        &what,
        &widths,
        &mut scratch,
    );

    // The lanes parted the ways they were built to.
    let kind = |i: usize| oracle[i].as_ref().err().map(|e| e.kind);
    assert!((0..40).all(|i| oracle[i].as_ref().is_ok_and(|o| o.holds)));
    for i in 40..300 {
        let expected = match i % 7 {
            1 => Some(EvalErrorKind::Ambiguous),
            2 | 4 | 6 => Some(EvalErrorKind::DivByZero),
            _ => None,
        };
        assert_eq!(kind(i), expected, "lane {i}");
    }
    // Decided before the failing element: the FORALL is false, the lane
    // holds by its other condition.
    let decided = oracle[45].as_ref().expect("lane 45 holds");
    let fired = |o: &PropertyOutcome| o.fired.iter().map(|(_, b)| *b).collect::<Vec<_>>();
    assert_eq!(fired(decided), [false, true]);
    // Decided before the failing operand: the AND is false.
    let short = oracle[47].as_ref().expect("lane 47 holds");
    assert_eq!(fired(short), [true, false]);
}

/// The evaluator keeps what the suite's properties share per subject *and
/// context*: `TotalCost` (filled by `SublinearSpeedup`, read by
/// `UnmeasuredCost`), `Summary(r,t).Ovhd` (filled by `MeasuredCost`) and
/// the per-family sums (filled together by `SyncCost`). Two runs over the
/// same regions, every total and typed record different between them: a
/// property that reads a cell in one run right after another filled it in
/// the other run — on one evaluator and one scratch, both ways round — gets
/// its own run's answer, lane by lane, as the interpreter does.
#[test]
fn a_run_cell_never_answers_another_context() {
    let spec = testkit::Suite::Standard.spec();
    let mut s = Store::new();
    let p = s.add_program("contexts");
    let v = s.add_version(p, DateTime::from_secs(1), "");
    let runs = [
        s.add_run(v, DateTime::from_secs(10), 1, 450),
        s.add_run(v, DateTime::from_secs(20), 4, 450),
    ];
    let f = s.add_function(v, "main");
    let main = s.add_region(f, None, RegionKind::Subprogram, "main", (1, 9));
    let mut regions = vec![main];
    for i in 0..5 {
        regions.push(s.add_region(f, Some(main), RegionKind::Loop, format!("l{i}"), (2, 3)));
    }
    for (k, &run) in runs.iter().enumerate() {
        let scale = 1.0 + k as f64;
        s.add_total_timing(main, run, 10.0 * scale, 20.0 / scale, 1.0 * scale);
        for (i, &r) in regions.iter().enumerate().skip(1) {
            let x = i as f64 * scale;
            let incl = 2.0 * i as f64 + 5.0 * k as f64;
            s.add_total_timing(r, run, x, incl, 0.25 * x);
            s.add_typed_timing(r, run, TimingType::Barrier, 0.5 * x);
            s.add_typed_timing(r, run, TimingType::PtpSend, 0.125 * x + k as f64);
            s.add_typed_timing(r, run, TimingType::PtpSend, 0.0625 * x);
        }
    }
    let data = CosyData::new(&s);
    let interp = Interpreter::new(&spec, &data).expect("interpreter binds");
    let compiled = CompiledEvaluator::new(Arc::new(compile(&spec)), &data).expect("binds");
    let subjects: Vec<Value> = regions.iter().map(|&r| Value::region(r)).collect();
    let mut scratch = asl_eval::Scratch::default();
    let mut held = 0;
    let shared = [
        ("SublinearSpeedup", "UnmeasuredCost"),
        ("MeasuredCost", "UnmeasuredCost"),
        ("SyncCost", "MessagePassingCost"),
    ];
    for (fill, read) in shared {
        for (first, then) in [(runs[0], runs[1]), (runs[1], runs[0])] {
            let context = |run| [Value::run(run), Value::region(main)];
            let mut filling = compiled.batch(fill, &context(first), &mut scratch).unwrap();
            filling.eval(subjects.iter().cloned());
            let p = spec.property(read).expect("a suite property");
            let oracle: Vec<_> = subjects
                .iter()
                .map(|subject| {
                    let [run, basis] = context(then);
                    interp.eval_property(read, &[subject.clone(), run, basis])
                })
                .collect();
            held += oracle
                .iter()
                .filter(|o| o.as_ref().is_ok_and(|o| o.holds))
                .count();
            let what = |subject: &Value| format!("{read}({subject}) after {fill} in another run");
            assert_batches_agree(
                &compiled,
                p,
                &context(then),
                &subjects,
                &oracle,
                &what,
                &[subjects.len()],
                &mut scratch,
            );
        }
    }
    // The loops hold in the run of more processors, so a cell of the other
    // run would move an outcome.
    assert!(held >= 3 * shared.len(), "{held} held");
}
