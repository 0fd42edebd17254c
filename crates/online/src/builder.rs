//! Applying trace events to a [`Store`] while tracking what the change
//! invalidates.
//!
//! [`StoreBuilder`] owns the live store plus the name→id interning maps
//! that let events (which carry names and source lines) resolve to arena
//! ids. Every application records its analytical blast radius in a
//! [`StoreDelta`]; the incremental analyzer consumes deltas to re-evaluate
//! only affected property instances.
//!
//! ## Dirtiness rules
//!
//! Derived by hand from the data dependencies of the standard suite (§4.2),
//! and used by the incremental analyzer for that suite only (any other
//! spec re-evaluates whole versions — [`crate::incremental`]):
//!
//! * a total/typed timing or call statistic dirties its own
//!   `(run, context)` — every property reads its context's records for the
//!   analyzed run;
//! * a **total** timing for region `r` in run `t` additionally dirties `r`
//!   in *all* runs when `t`'s processor count does not exceed the smallest
//!   among `r`'s other totals — `SublinearSpeedup`/`UnmeasuredCost` compare
//!   every run against the region's min-PE total (`MinPeSum`), so a new or
//!   refined minimum invalidates the comparison everywhere;
//! * a new run whose processor count does not exceed the version's current
//!   minimum dirties the **whole version** — the reference configuration
//!   (and `UNIQUE` min-PE selection) changes for every region;
//! * any timing of the version's ranking-basis region dirties its whole
//!   run — all severities are fractions of `Duration(Basis, t)`. (Detected
//!   by the incremental analyzer, which also watches for basis identity
//!   changes as functions stream in.)

use crate::event::{CallStats, IngestError, RegionRef, RunKey, TraceEvent, VersionTag};
use perfdata::{CallId, CallTiming, FunctionId, RegionId, Store, TestRunId, VersionId};
use std::collections::{HashMap, HashSet};

/// The analytical blast radius of a batch of applied events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreDelta {
    /// Region contexts to re-evaluate, per run.
    pub dirty_regions: HashMap<TestRunId, HashSet<RegionId>>,
    /// Call-site contexts to re-evaluate, per run.
    pub dirty_calls: HashMap<TestRunId, HashSet<CallId>>,
    /// Runs needing a full re-evaluation (new runs, basis changes).
    pub full_runs: HashSet<TestRunId>,
    /// Versions where every run needs a full re-evaluation (reference
    /// configuration changed).
    pub full_versions: HashSet<VersionId>,
    /// Regions dirty in **every** run of their version (min-PE total
    /// changed).
    pub regions_all_runs: HashSet<RegionId>,
    /// Versions whose static structure grew (new function, region or call
    /// site). The incremental analyzer re-checks the ranking-basis identity
    /// of these versions — a newly announced `main` function re-bases every
    /// severity of the version.
    pub touched_versions: HashSet<VersionId>,
    /// Runs for which a `RunFinished` was seen in this delta.
    pub finished_runs: HashSet<TestRunId>,
}

impl StoreDelta {
    /// An empty delta.
    pub fn new() -> Self {
        StoreDelta::default()
    }

    /// True when nothing was invalidated.
    pub fn is_empty(&self) -> bool {
        self.dirty_regions.is_empty()
            && self.dirty_calls.is_empty()
            && self.full_runs.is_empty()
            && self.full_versions.is_empty()
            && self.regions_all_runs.is_empty()
            && self.touched_versions.is_empty()
            && self.finished_runs.is_empty()
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: StoreDelta) {
        for (run, regions) in other.dirty_regions {
            self.dirty_regions.entry(run).or_default().extend(regions);
        }
        for (run, calls) in other.dirty_calls {
            self.dirty_calls.entry(run).or_default().extend(calls);
        }
        self.full_runs.extend(other.full_runs);
        self.full_versions.extend(other.full_versions);
        self.regions_all_runs.extend(other.regions_all_runs);
        self.touched_versions.extend(other.touched_versions);
        self.finished_runs.extend(other.finished_runs);
    }

    fn dirty_region(&mut self, run: TestRunId, region: RegionId) {
        self.dirty_regions.entry(run).or_default().insert(region);
    }

    fn dirty_call(&mut self, run: TestRunId, call: CallId) {
        self.dirty_calls.entry(run).or_default().insert(call);
    }
}

/// Applies [`TraceEvent`]s to an owned [`Store`], interning structure by
/// name and recording dirtiness deltas.
#[derive(Debug, Default)]
pub struct StoreBuilder {
    store: Store,
    versions: HashMap<VersionTag, VersionId>,
    runs: HashMap<RunKey, TestRunId>,
    run_keys: HashMap<TestRunId, RunKey>,
    run_version: HashMap<TestRunId, VersionId>,
    events_applied: u64,
}

impl StoreBuilder {
    /// A builder over an empty store.
    pub fn new() -> Self {
        StoreBuilder::default()
    }

    /// The live store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Number of events applied so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Resolve a producer run key to its store id.
    pub fn run_id(&self, key: RunKey) -> Option<TestRunId> {
        self.runs.get(&key).copied()
    }

    /// Reverse lookup: the producer key of a store run.
    pub fn run_key_of(&self, run: TestRunId) -> Option<RunKey> {
        self.run_keys.get(&run).copied()
    }

    /// Resolve a version tag to its store id.
    pub fn version_id(&self, tag: VersionTag) -> Option<VersionId> {
        self.versions.get(&tag).copied()
    }

    /// The version a run belongs to.
    pub fn version_of_run(&self, run: TestRunId) -> Option<VersionId> {
        self.run_version.get(&run).copied()
    }

    /// All known (key, store id, version) run triples.
    pub fn runs(&self) -> impl Iterator<Item = (RunKey, TestRunId, VersionId)> + '_ {
        self.runs.iter().map(|(k, r)| (*k, *r, self.run_version[r]))
    }

    /// All known (producer tag, store id) version pairs.
    pub fn version_tags(&self) -> impl Iterator<Item = (VersionTag, VersionId)> + '_ {
        self.versions.iter().map(|(t, v)| (*t, *v))
    }

    /// Rebuild a builder from snapshot parts: the reconstructed store, the
    /// producer key maps, and the lifetime applied-event counter. The
    /// derived maps (reverse run keys, run→version) are recomputed from
    /// the store, so a round-tripped builder is indistinguishable from the
    /// one that was snapshotted.
    pub(crate) fn from_parts(
        store: Store,
        versions: HashMap<VersionTag, VersionId>,
        runs: HashMap<RunKey, TestRunId>,
        events_applied: u64,
    ) -> StoreBuilder {
        let run_keys = runs.iter().map(|(k, r)| (*r, *k)).collect();
        let run_version = runs
            .values()
            .map(|r| (*r, store.runs[r.index()].version))
            .collect();
        StoreBuilder {
            store,
            versions,
            runs,
            run_keys,
            run_version,
            events_applied,
        }
    }

    fn resolve_run(&self, key: RunKey) -> Result<(TestRunId, VersionId), IngestError> {
        let run = self.run_id(key).ok_or(IngestError::UnknownRun(key))?;
        Ok((run, self.run_version[&run]))
    }

    fn resolve_function(
        &self,
        run: RunKey,
        version: VersionId,
        name: &str,
    ) -> Result<FunctionId, IngestError> {
        self.store
            .function_by_name(version, name)
            .ok_or_else(|| IngestError::UnknownFunction {
                run,
                function: name.to_string(),
            })
    }

    fn resolve_region(
        &self,
        run: RunKey,
        function: FunctionId,
        function_name: &str,
        rref: &RegionRef,
    ) -> Result<RegionId, IngestError> {
        self.store
            .region_by_name(function, &rref.name, rref.first_line)
            .ok_or_else(|| IngestError::UnknownRegion {
                run,
                function: function_name.to_string(),
                region: rref.clone(),
            })
    }

    /// Apply a batch with per-event isolation — the shared contract of
    /// every engine's `ingest_batch`: a rejected event is skipped (store
    /// and delta untouched by it), the rest of the batch still applies.
    /// Returns the number of applied events and the *first* rejection
    /// (after the whole batch was attempted).
    pub fn apply_batch(
        &mut self,
        events: &[TraceEvent],
        delta: &mut StoreDelta,
    ) -> (usize, Option<IngestError>) {
        let mut applied = 0usize;
        let mut failure = None;
        for event in events {
            match self.apply(event, delta) {
                Ok(()) => applied += 1,
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        (applied, failure)
    }

    /// Apply one event, accumulating its blast radius into `delta`.
    /// Rejected events leave both the store and the delta untouched.
    pub fn apply(&mut self, event: &TraceEvent, delta: &mut StoreDelta) -> Result<(), IngestError> {
        match event {
            TraceEvent::RunStarted {
                run,
                version,
                program,
                compiled_at,
                source,
                start,
                no_pe,
                clockspeed,
            } => {
                if self.runs.contains_key(run) {
                    return Err(IngestError::DuplicateRun(*run));
                }
                let vid = match self.versions.get(version) {
                    Some(v) => *v,
                    None => {
                        let pid = self
                            .store
                            .program_by_name(program)
                            .unwrap_or_else(|| self.store.add_program(program.clone()));
                        let vid = self.store.add_version(pid, *compiled_at, source.clone());
                        self.versions.insert(*version, vid);
                        vid
                    }
                };
                // A run at (or below) the current minimum processor count
                // changes the reference configuration of the version.
                if let Some(min) = self.store.min_pe_of_version(vid) {
                    if *no_pe <= min {
                        delta.full_versions.insert(vid);
                    }
                }
                let rid = self.store.add_run(vid, *start, *no_pe, *clockspeed);
                self.runs.insert(*run, rid);
                self.run_keys.insert(rid, *run);
                self.run_version.insert(rid, vid);
                delta.full_runs.insert(rid);
                delta.touched_versions.insert(vid);
            }

            TraceEvent::RegionEntered {
                run,
                function,
                region,
            } => {
                let (_, vid) = self.resolve_run(*run)?;
                // Validate the parent reference *before* creating anything,
                // so a rejected event leaves no phantom function behind. A
                // parent inside a not-yet-known function cannot exist.
                let existing_fid = self.store.function_by_name(vid, function);
                let parent = match (&region.parent, existing_fid) {
                    (None, _) => None,
                    (Some(p), None) => {
                        return Err(IngestError::UnknownParent {
                            run: *run,
                            function: function.clone(),
                            parent: p.clone(),
                        })
                    }
                    (Some(p), Some(fid)) => {
                        Some(self.resolve_region(*run, fid, function, p).map_err(|_| {
                            IngestError::UnknownParent {
                                run: *run,
                                function: function.clone(),
                                parent: p.clone(),
                            }
                        })?)
                    }
                };
                let fid = match existing_fid {
                    Some(f) => f,
                    None => {
                        delta.touched_versions.insert(vid);
                        self.store.add_function(vid, function.clone())
                    }
                };
                if self
                    .store
                    .region_by_name(fid, &region.name, region.first_line)
                    .is_none()
                {
                    delta.touched_versions.insert(vid);
                    self.store.add_region(
                        fid,
                        parent,
                        region.kind,
                        region.name.clone(),
                        (region.first_line, region.last_line),
                    );
                }
            }

            TraceEvent::RegionExited {
                run,
                function,
                region,
                excl,
                incl,
                ovhd,
            } => {
                let (rid, vid) = self.resolve_run(*run)?;
                let fid = self.resolve_function(*run, vid, function)?;
                let reg = self.resolve_region(*run, fid, function, region)?;
                // Does this total (re)define the region's min-PE record?
                let no_pe = self.store.runs[rid.index()].no_pe;
                let min_other = self.store.regions[reg.index()]
                    .tot_times
                    .iter()
                    .map(|id| {
                        let t = &self.store.total_timings[id.index()];
                        (t.run, self.store.runs[t.run.index()].no_pe)
                    })
                    .filter(|(r, _)| *r != rid)
                    .map(|(_, pe)| pe)
                    .min();
                self.store
                    .upsert_total_timing(reg, rid, *excl, *incl, *ovhd);
                match min_other {
                    Some(min) if no_pe <= min => {
                        delta.regions_all_runs.insert(reg);
                    }
                    _ => {}
                }
                delta.dirty_region(rid, reg);
            }

            TraceEvent::TypedSample {
                run,
                function,
                region,
                ty,
                time,
            } => {
                let (rid, vid) = self.resolve_run(*run)?;
                let fid = self.resolve_function(*run, vid, function)?;
                let reg = self.resolve_region(*run, fid, function, region)?;
                self.store.upsert_typed_timing(reg, rid, *ty, *time);
                delta.dirty_region(rid, reg);
            }

            TraceEvent::CallSiteStat {
                run,
                caller,
                callee,
                site,
                stats,
            } => {
                let (rid, vid) = self.resolve_run(*run)?;
                let caller_id = self.resolve_function(*run, vid, caller)?;
                // Resolve the site before interning the callee, so a
                // rejected event creates no phantom callee function.
                let site_id = self.resolve_region(*run, caller_id, caller, site)?;
                let callee_id = match self.store.function_by_name(vid, callee) {
                    Some(f) => f,
                    // Runtime routines (`barrier`, …) may never announce
                    // regions of their own; introduce them on first call.
                    None => {
                        delta.touched_versions.insert(vid);
                        self.store.add_function(vid, callee.clone())
                    }
                };
                let call = match self.store.call_site(caller_id, callee_id, site_id) {
                    Some(c) => c,
                    // A new call site enlarges the instance universe of
                    // every run of the version (its `skipped` counts), so
                    // the structure growth must be visible to the
                    // analyzer even when the callee already existed.
                    None => {
                        delta.touched_versions.insert(vid);
                        self.store.add_call(caller_id, callee_id, site_id)
                    }
                };
                self.store
                    .upsert_call_timing(to_call_timing(call, rid, stats));
                delta.dirty_call(rid, call);
            }

            TraceEvent::RunFinished { run } => {
                let (rid, _) = self.resolve_run(*run)?;
                delta.finished_runs.insert(rid);
            }
        }
        self.events_applied += 1;
        Ok(())
    }
}

fn to_call_timing(call: CallId, run: TestRunId, s: &CallStats) -> CallTiming {
    CallTiming {
        call,
        run,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdata::{DateTime, RegionKind, TimingType};

    fn run_started(key: u64, tag: u64, no_pe: u32) -> TraceEvent {
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

    fn region_entered(key: u64, name: &str, parent: Option<(&str, u32)>, line: u32) -> TraceEvent {
        TraceEvent::RegionEntered {
            run: RunKey(key),
            function: "main".into(),
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
    use crate::event::RegionDef;

    #[test]
    fn run_and_structure_creation() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 4), &mut d).unwrap();
        b.apply(&region_entered(1, "main", None, 1), &mut d)
            .unwrap();
        b.apply(
            &region_entered(1, "main:loop@10", Some(("main", 1)), 10),
            &mut d,
        )
        .unwrap();
        assert_eq!(b.store().programs.len(), 1);
        assert_eq!(b.store().regions.len(), 2);
        let rid = b.run_id(RunKey(1)).unwrap();
        assert!(d.full_runs.contains(&rid));
        assert_eq!(b.run_key_of(rid), Some(RunKey(1)));
        // Re-announcing is idempotent.
        b.apply(&region_entered(1, "main", None, 1), &mut d)
            .unwrap();
        assert_eq!(b.store().regions.len(), 2);
    }

    #[test]
    fn unknown_references_are_rejected() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        let err = b
            .apply(&region_entered(1, "main", None, 1), &mut d)
            .unwrap_err();
        assert_eq!(err, IngestError::UnknownRun(RunKey(1)));
        b.apply(&run_started(1, 9, 4), &mut d).unwrap();
        let err = b.apply(&run_started(1, 9, 4), &mut d).unwrap_err();
        assert_eq!(err, IngestError::DuplicateRun(RunKey(1)));
        let err = b
            .apply(
                &TraceEvent::TypedSample {
                    run: RunKey(1),
                    function: "nope".into(),
                    region: RegionRef::new("r", 1),
                    ty: TimingType::Barrier,
                    time: 0.1,
                },
                &mut d,
            )
            .unwrap_err();
        assert!(matches!(err, IngestError::UnknownFunction { .. }));
    }

    #[test]
    fn rejected_events_leave_no_phantom_structure() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 4), &mut d).unwrap();
        let mut d2 = StoreDelta::new();
        // RegionEntered naming a brand-new function but an unknown parent:
        // must reject without creating the function or touching the delta.
        let err = b
            .apply(
                &region_entered(1, "main:loop@9", Some(("main", 1)), 9),
                &mut d2,
            )
            .unwrap_err();
        assert!(matches!(err, IngestError::UnknownParent { .. }));
        assert!(b.store().functions.is_empty());
        assert!(d2.is_empty());
        // CallSiteStat with an unknown site: must not intern the callee.
        b.apply(&region_entered(1, "main", None, 1), &mut d2)
            .unwrap();
        let err = b
            .apply(
                &TraceEvent::CallSiteStat {
                    run: RunKey(1),
                    caller: "main".into(),
                    callee: "barrier".into(),
                    site: RegionRef::new("nope", 77),
                    stats: CallStats {
                        min_count: 0.0,
                        max_count: 0.0,
                        mean_count: 0.0,
                        stdev_count: 0.0,
                        min_count_pe: 0,
                        max_count_pe: 0,
                        min_time: 0.0,
                        max_time: 0.0,
                        mean_time: 0.0,
                        stdev_time: 0.0,
                        min_time_pe: 0,
                        max_time_pe: 0,
                    },
                },
                &mut d2,
            )
            .unwrap_err();
        assert!(matches!(err, IngestError::UnknownRegion { .. }));
        assert!(b
            .store()
            .function_by_name(b.version_id(VersionTag(9)).unwrap(), "barrier")
            .is_none());
    }

    #[test]
    fn smaller_pe_run_dirties_whole_version() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 8), &mut d).unwrap();
        assert!(d.full_versions.is_empty());
        b.apply(&run_started(2, 9, 2), &mut d).unwrap();
        let vid = b.version_id(VersionTag(9)).unwrap();
        assert!(d.full_versions.contains(&vid));
        // A larger run does not.
        let mut d2 = StoreDelta::new();
        b.apply(&run_started(3, 9, 16), &mut d2).unwrap();
        assert!(d2.full_versions.is_empty());
    }

    #[test]
    fn min_pe_total_dirties_region_in_all_runs() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 2), &mut d).unwrap();
        b.apply(&run_started(2, 9, 8), &mut d).unwrap();
        b.apply(&region_entered(1, "main", None, 1), &mut d)
            .unwrap();
        let exited = |key: u64, incl: f64| TraceEvent::RegionExited {
            run: RunKey(key),
            function: "main".into(),
            region: RegionRef::new("main", 1),
            excl: 1.0,
            incl,
            ovhd: 0.1,
        };
        // First total of the region: no other totals, only locally dirty.
        let mut d1 = StoreDelta::new();
        b.apply(&exited(2, 12.0), &mut d1).unwrap();
        assert!(d1.regions_all_runs.is_empty());
        // A total from the 2-PE run undercuts the 8-PE record: dirty everywhere.
        let mut d2 = StoreDelta::new();
        b.apply(&exited(1, 10.0), &mut d2).unwrap();
        assert_eq!(d2.regions_all_runs.len(), 1);
    }

    #[test]
    fn call_stats_create_callee_and_site() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 4), &mut d).unwrap();
        b.apply(&region_entered(1, "main", None, 1), &mut d)
            .unwrap();
        let stat = TraceEvent::CallSiteStat {
            run: RunKey(1),
            caller: "main".into(),
            callee: "barrier".into(),
            site: RegionRef::new("main", 1),
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
        };
        b.apply(&stat, &mut d).unwrap();
        assert_eq!(b.store().functions.len(), 2);
        assert_eq!(b.store().calls.len(), 1);
        assert_eq!(b.store().call_timings.len(), 1);
        // Re-applying updates in place.
        b.apply(&stat, &mut d).unwrap();
        assert_eq!(b.store().call_timings.len(), 1);
        let rid = b.run_id(RunKey(1)).unwrap();
        assert_eq!(d.dirty_calls[&rid].len(), 1);
    }

    #[test]
    fn delta_merge_accumulates() {
        let mut a = StoreDelta::new();
        let mut b = StoreDelta::new();
        a.dirty_region(TestRunId(0), RegionId(1));
        b.dirty_region(TestRunId(0), RegionId(2));
        b.full_runs.insert(TestRunId(3));
        a.merge(b);
        assert_eq!(a.dirty_regions[&TestRunId(0)].len(), 2);
        assert!(a.full_runs.contains(&TestRunId(3)));
        assert!(!a.is_empty());
        assert!(StoreDelta::new().is_empty());
    }
}
