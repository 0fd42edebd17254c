//! Interpreter ≡ compiled-IR equivalence on arbitrary specs and stores.
//!
//! For randomized performance databases (random structure, random timing
//! coverage, deliberate gaps and duplicates) and randomized property
//! suites (the full standard COSY shapes plus generated properties with
//! random aggregates, filters, comparisons and arms), every property
//! instance and helper-function call must produce **the same result
//! through both engines**: identical outcomes, identical severities
//! (bit-for-bit — both engines execute the same arithmetic in the same
//! order), and identical errors (kind and message) on the failure paths
//! (empty `UNIQUE`, ambiguous `UNIQUE`, division by zero, recursion
//! limits, empty `MIN`/`MAX`/`AVG`).
//!
//! The compiled engine is checked twice: instance by instance through
//! `eval_property`, and as it runs in production — one [`asl_eval::Batch`]
//! per (property, run) over all subjects, where subtrees that read only
//! the shared context are evaluated once. A hoisted subtree that *fails*
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
//! The generated filters cover what the store answers itself — `Type ==
//! A`, `OR` chains of types under every aggregate and in comprehensions —
//! and what it must leave to the predicate: a chain mixed with another
//! test, `!=`. Duplicate `(region, run, type)` records must count twice
//! either way.

use asl_eval::{
    compile, CompiledEvaluator, CosyData, EvalErrorKind, Interpreter, PropertyOutcome, Value,
    COSY_DATA_MODEL,
};
use perfdata::{DateTime, RegionKind, Store, TimingType, VersionId};
use proptest::prelude::*;
use std::sync::Arc;

/// Tiny deterministic splitmix64 stream for store/spec shaping.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

/// A randomized store: 1 version, `n_runs` runs, `n_regions` regions in a
/// random tree, patchy total/typed timing coverage (including zero
/// durations, missing records and occasional duplicates) and a barrier
/// call site with partial statistics.
fn build_store(seed: u64, n_runs: usize, n_regions: usize) -> (Store, VersionId) {
    let mut rng = Rng(seed);
    let mut s = Store::new();
    let p = s.add_program("randprog");
    let v = s.add_version(p, DateTime::from_secs(1), "random source");
    let mut runs = Vec::new();
    for i in 0..n_runs {
        // Random PE counts with possible ties (exercises reference-run
        // tie-breaking).
        let no_pe = 1 << rng.below(6);
        runs.push(s.add_run(v, DateTime::from_secs(10 + i as i64), no_pe as u32, 450));
    }
    let f_main = s.add_function(v, "main");
    let f_barrier = s.add_function(v, "barrier");
    let mut regions = Vec::new();
    for i in 0..n_regions {
        let parent = if regions.is_empty() || rng.chance(30) {
            None
        } else {
            Some(regions[rng.below(regions.len() as u64) as usize])
        };
        let kind = if i == 0 {
            RegionKind::Subprogram
        } else {
            RegionKind::Loop
        };
        regions.push(s.add_region(
            f_main,
            parent,
            kind,
            format!("r{i}"),
            (i as u32, i as u32 + 9),
        ));
    }
    for &r in &regions {
        // A region without any total: `MinPeSum` is `UNIQUE` of nothing.
        let measured = rng.chance(85);
        for &run in &runs {
            if measured && rng.chance(75) {
                let incl = if rng.chance(10) {
                    0.0 // zero duration → division-by-zero severity paths
                } else {
                    rng.f64_in(0.5, 50.0)
                };
                let excl = rng.f64_in(0.0, incl.max(0.1));
                let ovhd = if rng.chance(30) {
                    0.0
                } else {
                    rng.f64_in(0.0, 2.0)
                };
                s.add_total_timing(r, run, excl, incl, ovhd);
                if rng.chance(4) {
                    // Duplicate record → ambiguous UNIQUE in Summary.
                    s.add_total_timing(r, run, excl, incl + 1.0, ovhd);
                }
            }
            for &ty in &TimingType::ALL[..8] {
                if rng.chance(25) {
                    let t = if rng.chance(20) {
                        0.0
                    } else {
                        rng.f64_in(0.001, 5.0)
                    };
                    s.add_typed_timing(r, run, ty, t);
                    if rng.chance(8) {
                        // Duplicate (region, run, type): both records
                        // count, in recording order.
                        s.add_typed_timing(r, run, ty, t + 0.5);
                    }
                }
            }
        }
    }
    let call = s.add_call(f_main, f_barrier, regions[0]);
    for &run in &runs {
        if rng.chance(60) {
            let mean_time = rng.f64_in(0.0, 3.0);
            s.add_call_timing(perfdata::CallTiming {
                call,
                run,
                min_count: 1.0,
                max_count: 4.0,
                mean_count: rng.f64_in(1.0, 500.0),
                stdev_count: rng.f64_in(0.0, 2.0),
                min_count_pe: 0,
                max_count_pe: 1,
                min_time: mean_time * 0.5,
                max_time: mean_time * 1.5,
                mean_time,
                stdev_time: rng.f64_in(0.0, 1.0),
                min_time_pe: 0,
                max_time_pe: 1,
            });
        }
    }
    (s, v)
}

/// Generated properties: random aggregate or comprehension, a random
/// filter on the timing type (none, one type, an `OR` chain of 2–4 types
/// with repeats, the chain written backwards, a chain mixed with a test on
/// the time, `!=`), random comparison/threshold and a random severity
/// transform — well-typed by construction, wide coverage of the error
/// paths by chance.
fn generated_properties(seed: u64) -> String {
    // Eight recorded types and one that never is.
    const TYPES: [&str; 5] = ["Barrier", "Lock", "PtpSend", "Broadcast", "IoRead"];
    let mut rng = Rng(seed ^ 0xabcdef);
    let mut out = String::new();
    for i in 0..4 {
        let agg = ["SUM", "MIN", "MAX", "AVG", "COUNT"][rng.below(5) as usize];
        let cmp = [">", "<", ">=", "<=", "==", "!="][rng.below(6) as usize];
        let ty = |rng: &mut Rng| TYPES[rng.below(TYPES.len() as u64) as usize];
        let first = ty(&mut rng);
        let filter = match rng.below(6) {
            0 => String::new(),
            1 => format!(" AND tt.Type == {first}"),
            2 => format!(" AND tt.Type != {first}"),
            3 => format!(" AND (tt.Type == {first} OR tt.Time > 1.5)"),
            chain_shape => {
                let mut chain = format!("tt.Type == {first}");
                for _ in 0..1 + rng.below(3) {
                    let next = ty(&mut rng);
                    chain = match chain_shape {
                        4 => format!("{chain} OR tt.Type == {next}"),
                        // Operands swapped, nested to the right.
                        _ => format!("{next} == tt.Type OR ({chain})"),
                    };
                }
                format!(" AND ({chain})")
            }
        };
        let selected = format!("tt IN r.TypTimes WITH tt.Run==t{filter}");
        let value = match rng.below(4) {
            0 => format!("COUNT({{{selected}}})"),
            1 => format!("{agg}(x.Time WHERE x IN {{{selected}}})"),
            _ => format!("{agg}(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t{filter})"),
        };
        let threshold = rng.below(4) as f64 * 0.5;
        let scale = 1 + rng.below(3);
        out.push_str(&format!(
            "Property Gen{i}(Region r, TestRun t, Region Basis) {{\n\
                LET float X = {value}\n\
                IN CONDITION: X {cmp} {threshold};\n\
                CONFIDENCE: 0.9;\n\
                SEVERITY: X * {scale} / Duration(Basis, t);\n\
            }}\n"
        ));
    }
    out
}

/// Extra fixed properties covering quantifiers, guarded arms, `%`, n-ary
/// MIN/MAX and the recursion limit.
const EXTRA_PROPERTIES: &str = r#"
Property QuantCheck(Region r, TestRun t, Region Basis) {
    CONDITION: EXISTS(tt IN r.TypTimes WITH tt.Run == t AND tt.Time > 0.001)
           AND FORALL(s IN r.TotTimes WITH s.Incl >= 0.0);
    CONFIDENCE: 0.9;
    SEVERITY: AVG(s.Excl WHERE s IN r.TotTimes) / Duration(Basis, t);
}

Property ModMinMax(Region r, TestRun t, Region Basis) {
    CONDITION: (even) t.NoPe % 2 == 0 OR (any) COUNT(r.TotTimes) >= 0;
    CONFIDENCE: MAX((even) -> 0.5, (any) -> 0.7);
    SEVERITY: MAX((even) -> MIN(1.0, 2.0, Duration(Basis, t)), (any) -> 0.1);
}

float Rec(TestRun t) = Rec(t);
Property RecCheck(Region r, TestRun t, Region Basis) {
    CONDITION: Rec(t) > 0.0;
    CONFIDENCE: 1;
    SEVERITY: 0;
}
"#;

/// Compare one evaluation through both engines.
fn assert_equivalent<T: PartialEq + std::fmt::Debug>(
    what: &str,
    interp: Result<T, asl_eval::EvalError>,
    compiled: Result<T, asl_eval::EvalError>,
) {
    match (&interp, &compiled) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: outcome mismatch"),
        (Err(a), Err(b)) => {
            assert_eq!(a.kind, b.kind, "{what}: error kind mismatch");
            assert_eq!(a.message, b.message, "{what}: error message mismatch");
            assert_eq!(a.span, b.span, "{what}: error span mismatch");
        }
        _ => panic!("{what}: interp={interp:?} vs compiled={compiled:?}"),
    }
}

fn check_case(seed: u64, n_runs: usize, n_regions: usize) {
    let (store, v) = build_store(seed, n_runs, n_regions);
    let src = format!(
        "{COSY_DATA_MODEL}\n{}\n{EXTRA_PROPERTIES}\n{}",
        cosy_suite_properties(),
        generated_properties(seed)
    );
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

    check_properties(&spec, &store, v, &interp, &compiled);
}

/// Every property on every context of every run, three ways: the
/// interpreter, the compiled engine per instance, and the compiled engine
/// as one batch per (property, run). Returns how many instances failed
/// with each error kind, for tests that provoke a particular failure.
fn check_properties(
    spec: &asl_core::CheckedSpec,
    store: &Store,
    v: VersionId,
    interp: &Interpreter<'_, &CosyData<'_>>,
    compiled: &CompiledEvaluator<&CosyData<'_>>,
) -> Vec<(EvalErrorKind, usize)> {
    let basis = store.main_region(v).expect("main region");
    let mut failures: Vec<(EvalErrorKind, usize)> = Vec::new();
    // One scratch for every batch, as a worker of the analyzer reuses it.
    let mut scratch = asl_eval::Scratch::default();
    for p in spec.properties() {
        let name = &p.name.name;
        let subjects: Vec<Value> = if p.params[0].ty.to_string() == "Region" {
            (0..store.regions.len() as u32)
                .map(|r| Value::obj("Region", r))
                .collect()
        } else {
            (0..store.calls.len() as u32)
                .map(|c| Value::obj("FunctionCall", c))
                .collect()
        };
        for &run in &store.versions[v.index()].runs {
            let context = [Value::run(run), Value::region(basis)];
            let mut batch = compiled
                .batch(name, &context, &mut scratch)
                .expect("batch binds");
            for subject in &subjects {
                let what = format!("{name}({subject}, {run:?})");
                let args = [subject.clone(), context[0].clone(), context[1].clone()];
                let oracle = interp.eval_property(name, &args);
                assert_equivalent(&what, oracle.clone(), compiled.eval_property(name, &args));
                // The batch's lean outcome, with the conditions read back
                // from its bitmask, is the same outcome.
                let batched = batch.eval(subject.clone()).map(|o| PropertyOutcome {
                    property: name.clone(),
                    holds: o.holds,
                    fired: p
                        .conditions
                        .iter()
                        .enumerate()
                        .map(|(i, c)| (c.id.as_ref().map(|id| id.name.clone()), batch.fired(i)))
                        .collect(),
                    confidence: o.confidence,
                    severity: o.severity,
                });
                if let (Ok(a), Ok(b)) = (&oracle, &batched) {
                    assert_eq!(a.severity.to_bits(), b.severity.to_bits(), "{what}");
                    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "{what}");
                }
                if let Err(e) = &oracle {
                    match failures.iter_mut().find(|(kind, _)| *kind == e.kind) {
                        Some((_, n)) => *n += 1,
                        None => failures.push((e.kind, 1)),
                    }
                }
                assert_equivalent(&format!("{what} batched"), oracle, batched);
            }
        }
    }
    failures
}

/// The standard COSY suite property section (duplicated source constant is
/// not exported by `cosy` to `asl-eval` — the crates depend the other way
/// around — so the shapes are spelled here; they mirror
/// `cosy::suite::SUITE_PROPERTIES`).
fn cosy_suite_properties() -> &'static str {
    r#"
float ImbalanceThreshold = 0.25;

Property SublinearSpeedup(Region r, TestRun t, Region Basis) {
    LET TotalTiming MinPeSum = UNIQUE({sum IN r.TotTimes WITH sum.Run.NoPe ==
            MIN(s.Run.NoPe WHERE s IN r.TotTimes)});
        float TotalCost = Duration(r,t) - Duration(r,MinPeSum.Run)
    IN
    CONDITION: TotalCost>0; CONFIDENCE: 1;
    SEVERITY: TotalCost/Duration(Basis,t);
}

Property MeasuredCost (Region r, TestRun t, Region Basis) {
    LET float Cost = Summary(r,t).Ovhd;
    IN CONDITION: Cost > 0; CONFIDENCE: 1;
    SEVERITY: Cost / Duration(Basis,t);
}

Property UnmeasuredCost (Region r, TestRun t, Region Basis) {
    LET TotalTiming MinPeSum = UNIQUE({sum IN r.TotTimes WITH sum.Run.NoPe ==
            MIN(s.Run.NoPe WHERE s IN r.TotTimes)});
        float TotalCost = Duration(r,t) - Duration(r,MinPeSum.Run);
        float Unmeasured = TotalCost - Summary(r,t).Ovhd
    IN CONDITION: Unmeasured > 0; CONFIDENCE: 1;
    SEVERITY: Unmeasured / Duration(Basis,t);
}

Property SyncCost(Region r, TestRun t, Region Basis) {
    LET float Barrier2 = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND tt.Type == Barrier)
    IN CONDITION: Barrier2 > 0; CONFIDENCE: 1;
    SEVERITY: Barrier2 / Duration(Basis,t);
}

Property MessagePassingCost(Region r, TestRun t, Region Basis) {
    LET float Msg = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND (tt.Type == PtpSend OR tt.Type == PtpRecv OR tt.Type == PtpWait))
    IN CONDITION: Msg > 0; CONFIDENCE: 1;
    SEVERITY: Msg / Duration(Basis,t);
}

Property LoadImbalance(FunctionCall Call, TestRun t, Region Basis) {
    LET CallTiming ct = UNIQUE ({c IN Call.Sums WITH c.Run == t});
        float Dev = ct.StdevTime;
        float Mean = ct.MeanTime
    IN CONDITION: Dev > ImbalanceThreshold * Mean; CONFIDENCE: 1;
    SEVERITY: Mean / Duration(Basis,t);
}
"#
}

/// 24 cases locally; CI widens the sweep via `PROPTEST_CASES`.
fn configured_cases() -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(configured_cases())]

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
    let src = format!("{COSY_DATA_MODEL}\n{}", cosy_suite_properties());
    let spec = asl_core::parse_and_check(&src).expect("suite checks");
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
        let failures = check_properties(&spec, &s, v, &interp, &compiled);
        let hit = failures.iter().find(|(kind, _)| *kind == expected);
        // MeasuredCost and SyncCost on l0 and l1 at the least.
        assert!(
            hit.is_some_and(|(_, n)| *n >= 4),
            "{expected:?} in {failures:?}"
        );
    }
}

#[test]
fn compiled_equals_interpreter_on_fixed_edge_seeds() {
    // A few pinned shapes: single run/region, many regions, heavy gaps.
    for (seed, runs, regions) in [(1, 1, 1), (7, 4, 4), (42, 2, 4), (9999, 4, 1)] {
        check_case(seed, runs, regions);
    }
}
