//! Replaying a materialized [`Store`] as an event stream.
//!
//! The bridge between the batch world and the online engine: any store —
//! e.g. one produced by the `apprentice-sim` simulator — can be decomposed
//! into the [`TraceEvent`] stream a live producer would have emitted.
//! Producer keys are derived from the store ids ([`RunKey`] = run index,
//! [`VersionTag`] = version index), so replaying a whole store into a fresh
//! [`crate::StoreBuilder`] reconstructs an identical arena layout. This is
//! how the differential tests turn a simulated program into a stream for
//! every engine shape, and how the ingestion benchmarks get their input.

use crate::event::{CallStats, RegionRef, RunKey, TraceEvent, VersionTag};
use perfdata::{RegionId, Store, TestRunId};

/// The producer key replay assigns to a store run.
pub fn replay_run_key(run: TestRunId) -> RunKey {
    RunKey(run.0 as u64)
}

fn region_ref(store: &Store, r: RegionId) -> RegionRef {
    let reg = &store.regions[r.index()];
    RegionRef::new(reg.name.clone(), reg.first_line)
}

/// The event stream of one run: `RunStarted`, the full static structure of
/// its version (idempotent re-announcements when replayed after a sibling
/// run), the run's timings and call statistics, and `RunFinished`.
pub fn events_for_run(store: &Store, run: TestRunId) -> Vec<TraceEvent> {
    let key = replay_run_key(run);
    let run_rec = &store.runs[run.index()];
    let vid = run_rec.version;
    let version = &store.versions[vid.index()];
    let program = &store.programs[version.program.index()];
    let mut events = vec![TraceEvent::RunStarted {
        run: key,
        version: VersionTag(vid.0 as u64),
        program: program.name.clone(),
        compiled_at: version.compilation,
        source: store.sources[version.code.index()].text.clone(),
        start: run_rec.start,
        no_pe: run_rec.no_pe,
        clockspeed: run_rec.clockspeed,
    }];

    // Structure, in creation (pre-)order so parents precede children.
    for &f in &version.functions {
        let function = &store.functions[f.index()];
        for &r in &function.regions {
            let reg = &store.regions[r.index()];
            events.push(TraceEvent::RegionEntered {
                run: key,
                function: function.name.clone(),
                region: crate::event::RegionDef {
                    name: reg.name.clone(),
                    parent: reg.parent.map(|p| region_ref(store, p)),
                    kind: reg.kind,
                    first_line: reg.first_line,
                    last_line: reg.last_line,
                },
            });
        }
    }

    // Timings of this run.
    for &f in &version.functions {
        let function = &store.functions[f.index()];
        for &r in &function.regions {
            let reg = &store.regions[r.index()];
            if let Some(t) = store.total_timing(r, run) {
                events.push(TraceEvent::RegionExited {
                    run: key,
                    function: function.name.clone(),
                    region: RegionRef::new(reg.name.clone(), reg.first_line),
                    excl: t.excl,
                    incl: t.incl,
                    ovhd: t.ovhd,
                });
            }
            for &tt in &reg.typ_times {
                let typed = &store.typed_timings[tt.index()];
                if typed.run == run {
                    events.push(TraceEvent::TypedSample {
                        run: key,
                        function: function.name.clone(),
                        region: RegionRef::new(reg.name.clone(), reg.first_line),
                        ty: typed.ty,
                        time: typed.time,
                    });
                }
            }
        }
    }

    // Call statistics of this run, in call-site creation order so a replay
    // interns call sites in the same arena order the batch builder used.
    for call in &store.calls {
        let caller = &store.functions[call.caller.index()];
        if caller.version != vid {
            continue;
        }
        for &ct in &call.sums {
            let s = &store.call_timings[ct.index()];
            if s.run != run {
                continue;
            }
            events.push(TraceEvent::CallSiteStat {
                run: key,
                caller: caller.name.clone(),
                callee: store.functions[call.callee.index()].name.clone(),
                site: region_ref(store, call.calling_reg),
                stats: CallStats {
                    min_count: s.min_count,
                    max_count: s.max_count,
                    mean_count: s.mean_count,
                    stdev_count: s.stdev_count,
                    min_count_pe: s.min_count_pe,
                    max_count_pe: s.max_count_pe,
                    min_time: s.min_time,
                    max_time: s.max_time,
                    mean_time: s.mean_time,
                    stdev_time: s.stdev_time,
                    min_time_pe: s.min_time_pe,
                    max_time_pe: s.max_time_pe,
                },
            });
        }
    }

    events.push(TraceEvent::RunFinished { run: key });
    events
}

/// The event stream of a whole store: every run, in store (chronological)
/// order. Versions without runs are not representable as events and are
/// skipped.
pub fn replay_store(store: &Store) -> Vec<TraceEvent> {
    (0..store.runs.len() as u32)
        .flat_map(|r| events_for_run(store, TestRunId(r)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{StoreBuilder, StoreDelta};

    fn sample() -> Store {
        use perfdata::{DateTime, RegionKind, TimingType};
        let mut s = Store::new();
        let p = s.add_program("app");
        let v = s.add_version(p, DateTime::from_secs(10), "src");
        let r1 = s.add_run(v, DateTime::from_secs(20), 1, 450);
        let r2 = s.add_run(v, DateTime::from_secs(30), 8, 450);
        let f = s.add_function(v, "main");
        let root = s.add_region(f, None, RegionKind::Subprogram, "main", (1, 90));
        let lp = s.add_region(f, Some(root), RegionKind::Loop, "main:loop@5", (5, 50));
        // Run-major insertion order, as a live stream (and summarize_run)
        // would produce it.
        s.add_total_timing(root, r1, 1.0, 10.0, 0.2);
        s.add_total_timing(lp, r1, 5.0, 9.0, 0.1);
        s.add_total_timing(root, r2, 1.4, 13.0, 0.9);
        s.add_total_timing(lp, r2, 7.0, 12.0, 0.8);
        s.add_typed_timing(lp, r2, TimingType::Barrier, 2.0);
        s
    }

    #[test]
    fn replay_reconstructs_identical_store() {
        let original = sample();
        let mut builder = StoreBuilder::new();
        let mut delta = StoreDelta::new();
        for event in replay_store(&original) {
            builder.apply(&event, &mut delta).unwrap();
        }
        assert_eq!(builder.store(), &original);
    }

    #[test]
    fn run_stream_is_self_describing() {
        let store = sample();
        let events = events_for_run(&store, TestRunId(1));
        assert!(matches!(
            events.first(),
            Some(TraceEvent::RunStarted { .. })
        ));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::RunFinished { .. })
        ));
        // Structure precedes measurements.
        let first_exit = events
            .iter()
            .position(|e| matches!(e, TraceEvent::RegionExited { .. }))
            .unwrap();
        let last_enter = events
            .iter()
            .rposition(|e| matches!(e, TraceEvent::RegionEntered { .. }))
            .unwrap();
        assert!(last_enter < first_exit);
    }
}
