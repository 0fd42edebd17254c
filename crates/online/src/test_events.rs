//! Hand-made [`TraceEvent`]s for the unit tests of [`crate::builder`] and
//! [`crate::incremental`]: one program `app`, regions keyed by
//! `(function, name, first line)`, one callee `barrier`.

use crate::event::{CallStats, RegionDef, RegionRef, RunKey, TraceEvent, VersionTag};
use perfdata::{DateTime, RegionKind, TimingType};

pub(crate) fn run_started(key: u64, tag: u64, no_pe: u32) -> TraceEvent {
    TraceEvent::RunStarted {
        run: RunKey(key),
        version: VersionTag(tag),
        program: "app".into(),
        compiled_at: DateTime::from_secs(100),
        source: "program app".into(),
        start: DateTime::from_secs(200 + key as i64),
        no_pe,
        clockspeed: 450,
    }
}

/// Announce region `name` at `line` of `function`; a region with a
/// `parent` is a loop, one without is the function's subprogram region.
pub(crate) fn region_entered(
    key: u64,
    function: &str,
    name: &str,
    parent: Option<(&str, u32)>,
    line: u32,
) -> TraceEvent {
    TraceEvent::RegionEntered {
        run: RunKey(key),
        function: function.into(),
        region: RegionDef {
            name: name.into(),
            parent: parent.map(|(n, l)| RegionRef::new(n, l)),
            kind: if parent.is_none() {
                RegionKind::Subprogram
            } else {
                RegionKind::Loop
            },
            first_line: line,
            last_line: line + 10,
        },
    }
}

/// A total timing of `region` (inclusive time `incl`).
pub(crate) fn exited(key: u64, function: &str, region: (&str, u32), incl: f64) -> TraceEvent {
    TraceEvent::RegionExited {
        run: RunKey(key),
        function: function.into(),
        region: RegionRef::new(region.0, region.1),
        excl: 1.0,
        incl,
        ovhd: 0.1,
    }
}

/// A barrier-time sample of `region`.
pub(crate) fn typed(key: u64, function: &str, region: (&str, u32)) -> TraceEvent {
    TraceEvent::TypedSample {
        run: RunKey(key),
        function: function.into(),
        region: RegionRef::new(region.0, region.1),
        ty: TimingType::Barrier,
        time: 0.1,
    }
}

/// Statistics of the call `caller → barrier` at `site`.
pub(crate) fn call_stat(key: u64, caller: &str, site: (&str, u32)) -> TraceEvent {
    TraceEvent::CallSiteStat {
        run: RunKey(key),
        caller: caller.into(),
        callee: "barrier".into(),
        site: RegionRef::new(site.0, site.1),
        stats: CallStats {
            min_count: 1.0,
            max_count: 1.0,
            mean_count: 1.0,
            stdev_count: 0.0,
            min_count_pe: 0,
            max_count_pe: 0,
            min_time: 0.1,
            max_time: 0.3,
            mean_time: 0.2,
            stdev_time: 0.1,
            min_time_pe: 0,
            max_time_pe: 3,
        },
    }
}

/// One event of every variant, `RegionEntered` with and without a parent,
/// over two runs (the codecs' round-trip input).
pub(crate) fn every_variant() -> Vec<TraceEvent> {
    vec![
        run_started(1, 7, 4),
        region_entered(1, "main", "main", None, 1),
        region_entered(1, "main", "main:loop@5", Some(("main", 1)), 5),
        exited(1, "main", ("main:loop@5", 5), 2.5),
        typed(1, "main", ("main:loop@5", 5)),
        call_stat(1, "main", ("main", 1)),
        run_started(2, 7, 8),
        typed(2, "main", ("main", 1)),
        TraceEvent::RunFinished { run: RunKey(1) },
    ]
}
