//! The store's run rows against arena scans.
//!
//! `perfdata::Store` answers "the records of owner X in run t" by position:
//! a version-local index per region and call site, a row of slots per run,
//! duplicates chained in arena order. Those are derived data; the arenas
//! are the truth. Here builder and upsert calls are interleaved in
//! arbitrary order — regions and call sites added after a run's first
//! timings, runs added to a version whose rows already exist, duplicates
//! added through `add_*`, upserts that land on the first of a set of
//! duplicates — and after every step each indexed answer is held to a scan
//! of the arenas. The second test holds store equality to the arenas: a
//! store ingested live and the same store after a snapshot round trip have
//! rows of different lengths and must still compare equal.

use online::snapshot::{encode_snapshot, read_snapshot, write_snapshot_bytes};
use online::{RegionDef, RegionRef, RunKey, StoreBuilder, StoreDelta, TraceEvent, VersionTag};
use perfdata::{
    CallId, CallTiming, CallTimingId, DateTime, FunctionId, RegionId, RegionKind, Store, TestRunId,
    TimingType, TotalTimingId, TypedTimingId, VersionId,
};
use proptest::prelude::*;
use testkit::ScratchDir;

/// Few types, so duplicate `(region, run, type)` records are common.
const TYPES: [TimingType; 3] = [TimingType::Barrier, TimingType::IoRead, TimingType::PtpSend];

fn call_timing(call: CallId, run: TestRunId, mean_time: f64) -> CallTiming {
    CallTiming {
        call,
        run,
        min_count: 1.0,
        max_count: 1.0,
        mean_count: 1.0,
        stdev_count: 0.0,
        min_count_pe: 0,
        max_count_pe: 0,
        min_time: mean_time,
        max_time: mean_time,
        mean_time,
        stdev_time: 0.0,
        min_time_pe: 0,
        max_time_pe: 0,
    }
}

fn version_of_region(s: &Store, r: RegionId) -> VersionId {
    s.functions[s.regions[r.index()].function.index()].version
}

fn version_of_call(s: &Store, c: CallId) -> VersionId {
    s.functions[s.calls[c.index()].caller.index()].version
}

/// Element `pick` of `items` (modulo its length), if there is one.
fn nth<T: Copy>(items: &[T], pick: u32) -> Option<T> {
    (!items.is_empty()).then(|| items[pick as usize % items.len()])
}

/// A run of `v`, if it has one.
fn run_of(s: &Store, v: VersionId, pick: u32) -> Option<TestRunId> {
    nth(&s.versions[v.index()].runs, pick)
}

fn region_of(s: &Store, pick: u32) -> Option<RegionId> {
    (!s.regions.is_empty()).then(|| RegionId(pick % s.regions.len() as u32))
}

/// What a generated step does, by `op % 16`: structure on 7 of 16,
/// records on the other 9 (an insert or an upsert per kind of record).
#[derive(Clone, Copy, PartialEq)]
enum Step {
    Version,
    Run,
    Function,
    Region,
    Call,
    Total { upsert: bool },
    Typed { upsert: bool },
    CallStats { upsert: bool },
}

const STEPS: [Step; 16] = [
    Step::Version,
    Step::Run,
    Step::Run,
    Step::Function,
    Step::Region,
    Step::Region,
    Step::Call,
    Step::Total { upsert: false },
    Step::Total { upsert: false },
    Step::Total { upsert: true },
    Step::Typed { upsert: false },
    Step::Typed { upsert: false },
    Step::Typed { upsert: true },
    Step::Typed { upsert: true },
    Step::CallStats { upsert: false },
    Step::CallStats { upsert: true },
];

/// Apply one generated step. Steps whose operands do not exist yet are
/// skipped.
fn step(s: &mut Store, (op, a, b, value): (u8, u32, u32, u16)) {
    let value = f64::from(value);
    let version = VersionId(a % s.versions.len() as u32);
    match STEPS[usize::from(op % 16)] {
        // At most three versions, so owners and runs meet often.
        Step::Version if s.versions.len() < 3 => {
            let p = match nth(&(0..s.programs.len() as u32).collect::<Vec<_>>(), b) {
                Some(p) if a % 3 != 0 => perfdata::ProgramId(p),
                _ => s.add_program(format!("p{}", s.programs.len())),
            };
            s.add_version(p, DateTime::from_secs(0), "");
        }
        Step::Version => {}
        // Four configurations, so ties on the reference run occur.
        Step::Run => {
            s.add_run(version, DateTime::from_secs(i64::from(b)), 1 + b % 4, 450);
        }
        Step::Function => {
            s.add_function(version, format!("f{}", s.functions.len()));
        }
        Step::Region => {
            if s.functions.is_empty() {
                return;
            }
            let f = FunctionId(a % s.functions.len() as u32);
            let parent = nth(&s.functions[f.index()].regions, b).filter(|_| b % 4 != 0);
            let n = s.regions.len() as u32;
            s.add_region(f, parent, RegionKind::Loop, format!("r{n}"), (n, n + 1));
        }
        Step::Call => {
            let Some(site) = region_of(s, a) else { return };
            let v = version_of_region(s, site);
            let caller = s.regions[site.index()].function;
            let callee = nth(&s.versions[v.index()].functions, b).unwrap();
            s.add_call(caller, callee, site);
        }
        Step::Total { upsert } => {
            let Some(r) = region_of(s, a) else { return };
            let Some(run) = run_of(s, version_of_region(s, r), b) else {
                return;
            };
            if upsert {
                let first = scan_total(s, r, run).first().copied();
                let (id, inserted) = s.upsert_total_timing(r, run, value, value, 0.0);
                assert_eq!(inserted, first.is_none());
                assert_eq!(first.unwrap_or(id), id);
                assert_eq!(s.total_timings[id.index()].incl, value);
            } else {
                s.add_total_timing(r, run, value, value, 0.0);
            }
        }
        Step::Typed { upsert } => {
            let Some(r) = region_of(s, a) else { return };
            let Some(run) = run_of(s, version_of_region(s, r), b) else {
                return;
            };
            let ty = TYPES[(b / 7) as usize % TYPES.len()];
            if upsert {
                let first = scan_typed(s, r, run)
                    .into_iter()
                    .find(|id| s.typed_timings[id.index()].ty == ty);
                let (id, inserted) = s.upsert_typed_timing(r, run, ty, value);
                assert_eq!(inserted, first.is_none());
                assert_eq!(first.unwrap_or(id), id);
                assert_eq!(s.typed_timings[id.index()].time, value);
            } else {
                s.add_typed_timing(r, run, ty, value);
            }
        }
        Step::CallStats { upsert } => {
            if s.calls.is_empty() {
                return;
            }
            let c = CallId(a % s.calls.len() as u32);
            let Some(run) = run_of(s, version_of_call(s, c), b) else {
                return;
            };
            if upsert {
                let first = scan_calls(s, c, run).first().copied();
                let (id, inserted) = s.upsert_call_timing(call_timing(c, run, value));
                assert_eq!(inserted, first.is_none());
                assert_eq!(first.unwrap_or(id), id);
                assert_eq!(s.call_timings[id.index()].mean_time, value);
            } else {
                s.add_call_timing(call_timing(c, run, value));
            }
        }
    }
}

fn scan_total(s: &Store, r: RegionId, run: TestRunId) -> Vec<TotalTimingId> {
    (0..s.total_timings.len() as u32)
        .map(TotalTimingId)
        .filter(|id| {
            let t = &s.total_timings[id.index()];
            t.region == r && t.run == run
        })
        .collect()
}

fn scan_typed(s: &Store, r: RegionId, run: TestRunId) -> Vec<TypedTimingId> {
    (0..s.typed_timings.len() as u32)
        .map(TypedTimingId)
        .filter(|id| {
            let t = &s.typed_timings[id.index()];
            t.region == r && t.run == run
        })
        .collect()
}

fn scan_calls(s: &Store, c: CallId, run: TestRunId) -> Vec<CallTimingId> {
    (0..s.call_timings.len() as u32)
        .map(CallTimingId)
        .filter(|id| {
            let t = &s.call_timings[id.index()];
            t.call == c && t.run == run
        })
        .collect()
}

/// Every indexed answer of `s` equals its arena scan, for every owner and
/// every run — pairs of different versions, which must find nothing,
/// included.
fn assert_rows_match_scans(s: &Store) {
    for run in (0..s.runs.len() as u32).map(TestRunId) {
        for r in (0..s.regions.len() as u32).map(RegionId) {
            let totals = scan_total(s, r, run);
            assert_eq!(s.total_timing_ids(r, run).collect::<Vec<_>>(), totals);
            assert_eq!(s.total_timing_id(r, run), totals.first().copied());
            let typed = scan_typed(s, r, run);
            assert_eq!(s.typed_timing_ids(r, run).collect::<Vec<_>>(), typed);
            for ty in TYPES {
                let first = typed
                    .iter()
                    .find(|id| s.typed_timings[id.index()].ty == ty)
                    .map(|id| &s.typed_timings[id.index()]);
                assert_eq!(s.typed_timing(r, run, ty), first);
            }
        }
        for c in (0..s.calls.len() as u32).map(CallId) {
            let calls = scan_calls(s, c, run);
            assert_eq!(s.call_timing_ids(c, run).collect::<Vec<_>>(), calls);
            assert_eq!(s.call_timing_id(c, run), calls.first().copied());
        }
    }
    for r in (0..s.regions.len() as u32).map(RegionId) {
        let kids: Vec<_> = (0..s.regions.len() as u32)
            .map(RegionId)
            .filter(|k| s.regions[k.index()].parent == Some(r))
            .collect();
        assert_eq!(s.children(r).collect::<Vec<_>>(), kids);
    }
    for v in (0..s.versions.len() as u32).map(VersionId) {
        let reference = s.versions[v.index()]
            .runs
            .iter()
            .copied()
            .min_by_key(|run| s.runs[run.index()].no_pe);
        assert_eq!(s.min_pe_run(v), reference);
    }
}

proptest! {
    #![proptest_config(testkit::cases(64))]

    #[test]
    fn rows_agree_with_arena_scans(
        steps in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>(), any::<u16>()), 0..160)
    ) {
        let mut s = Store::new();
        let p = s.add_program("p0");
        s.add_version(p, DateTime::from_secs(0), "");
        for (i, &st) in steps.iter().enumerate() {
            step(&mut s, st);
            // Every step is checked on short streams; on long ones every
            // eighth step and the end keep the case quick.
            if steps.len() <= 40 || i % 8 == 7 {
                assert_rows_match_scans(&s);
            }
        }
        assert_rows_match_scans(&s);
    }
}

fn entered(run: u64, name: &str, parent: Option<(&str, u32)>, line: u32) -> TraceEvent {
    TraceEvent::RegionEntered {
        run: RunKey(run),
        function: "main".into(),
        region: RegionDef {
            name: name.into(),
            parent: parent.map(|(n, l)| RegionRef::new(n, l)),
            kind: RegionKind::Loop,
            first_line: line,
            last_line: line + 5,
        },
    }
}

fn exited(run: u64, name: &str, line: u32, incl: f64) -> TraceEvent {
    TraceEvent::RegionExited {
        run: RunKey(run),
        function: "main".into(),
        region: RegionRef::new(name, line),
        excl: incl / 2.0,
        incl,
        ovhd: 0.0,
    }
}

#[test]
fn a_live_store_equals_its_snapshot_round_trip() {
    let mut b = StoreBuilder::new();
    let mut d = StoreDelta::new();
    let started = |run: u64, no_pe: u32| TraceEvent::RunStarted {
        run: RunKey(run),
        version: VersionTag(1),
        program: "app".into(),
        compiled_at: DateTime::from_secs(1),
        source: "program app".into(),
        start: DateTime::from_secs(run as i64),
        no_pe,
        clockspeed: 450,
    };
    // Run 1 records a timing of `main` before `loop` and `inner` exist, so
    // its row is sized for one region; run 2 starts after its version's
    // rows exist and records only the last region. A snapshot rebuilds
    // every region before any timing, so its rows come out longer.
    let events = [
        started(1, 4),
        entered(1, "main", None, 1),
        exited(1, "main", 1, 10.0),
        entered(1, "loop", Some(("main", 1)), 10),
        entered(1, "inner", Some(("loop", 10)), 12),
        started(2, 2),
        exited(2, "inner", 12, 3.0),
        TraceEvent::TypedSample {
            run: RunKey(2),
            function: "main".into(),
            region: RegionRef::new("inner", 12),
            ty: TimingType::Barrier,
            time: 0.5,
        },
        exited(1, "main", 1, 11.0),
    ];
    let (applied, failure) = b.apply_batch(&events, &mut d);
    assert_eq!((applied, failure), (events.len(), None));

    let dir = ScratchDir::new("store-rows");
    std::fs::create_dir_all(dir.path()).unwrap();
    let path = dir.path().join("snapshot.bin");
    write_snapshot_bytes(
        &path,
        &encode_snapshot(&b, &[], 0, 0),
        &faults::Faults::none(),
    )
    .unwrap();
    let back = read_snapshot(&path)
        .unwrap()
        .expect("snapshot present")
        .builder;

    let (live, loaded) = (b.store(), back.store());
    assert_eq!(live, loaded);
    assert_rows_match_scans(live);
    assert_rows_match_scans(loaded);
    for run in [TestRunId(0), TestRunId(1)] {
        for r in (0..live.regions.len() as u32).map(RegionId) {
            assert_eq!(live.duration(r, run), loaded.duration(r, run));
        }
    }
    assert_eq!(live.duration(RegionId(0), TestRunId(0)), Some(11.0));
    // Equality is the arenas': a changed record breaks it.
    let mut changed = loaded.clone();
    changed.upsert_total_timing(RegionId(2), TestRunId(1), 1.0, 4.0, 0.0);
    assert_ne!(live, &changed);
}
