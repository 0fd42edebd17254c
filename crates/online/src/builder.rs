//! Applying trace events to a [`Store`] while recording what changed.
//!
//! [`StoreBuilder`] owns the live store plus the name→id interning maps
//! that let events (which carry names and source lines) resolve to arena
//! ids. Every application records the **facts** of the change in a
//! [`StoreDelta`] — which records were upserted, which runs are new, which
//! versions' structure grew, which runs finished — and nothing about what
//! those facts invalidate: that is decided in one place, the private
//! `IncrementalAnalyzer::invalidated` in [`crate::incremental`], by the
//! only engine that needs to know.

use crate::event::{CallStats, IngestError, RegionRef, RunKey, TraceEvent, VersionTag};
use perfdata::{
    CallId, CallTiming, FunctionId, IdMap, IdSet, RegionId, Store, TestRunId, VersionId,
};
use std::collections::HashMap;

/// What a batch of applied events changed in the store. Every key is an
/// id the store assigned, so the maps and sets skip SipHash
/// ([`perfdata::IdHasher`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreDelta {
    /// Regions whose total timing was upserted, per run.
    pub totals: IdMap<TestRunId, IdSet<RegionId>>,
    /// Regions that had a typed timing upserted, per run.
    pub typed: IdMap<TestRunId, IdSet<RegionId>>,
    /// Call sites whose statistics were upserted, per run.
    pub calls: IdMap<TestRunId, IdSet<CallId>>,
    /// Runs that started.
    pub new_runs: IdSet<TestRunId>,
    /// Versions whose static structure grew (new function, region or call
    /// site).
    pub grown_versions: IdSet<VersionId>,
    /// Runs for which a `RunFinished` was seen.
    pub finished_runs: IdSet<TestRunId>,
}

impl StoreDelta {
    /// An empty delta.
    pub fn new() -> Self {
        StoreDelta::default()
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
            && self.typed.is_empty()
            && self.calls.is_empty()
            && self.new_runs.is_empty()
            && self.grown_versions.is_empty()
            && self.finished_runs.is_empty()
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: StoreDelta) {
        for (run, regions) in other.totals {
            self.totals.entry(run).or_default().extend(regions);
        }
        for (run, regions) in other.typed {
            self.typed.entry(run).or_default().extend(regions);
        }
        for (run, calls) in other.calls {
            self.calls.entry(run).or_default().extend(calls);
        }
        self.new_runs.extend(other.new_runs);
        self.grown_versions.extend(other.grown_versions);
        self.finished_runs.extend(other.finished_runs);
    }
}

/// Applies [`TraceEvent`]s to an owned [`Store`], interning structure by
/// name and recording what each event changed.
#[derive(Debug, Default)]
pub struct StoreBuilder {
    store: Store,
    versions: HashMap<VersionTag, VersionId>,
    runs: HashMap<RunKey, TestRunId>,
    run_keys: IdMap<TestRunId, RunKey>,
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
        self.store.runs.get(run.index()).map(|r| r.version)
    }

    /// All known (key, store id, version) run triples.
    pub fn runs(&self) -> impl Iterator<Item = (RunKey, TestRunId, VersionId)> + '_ {
        self.runs
            .iter()
            .map(|(k, r)| (*k, *r, self.store.runs[r.index()].version))
    }

    /// All known (producer tag, store id) version pairs.
    pub fn version_tags(&self) -> impl Iterator<Item = (VersionTag, VersionId)> + '_ {
        self.versions.iter().map(|(t, v)| (*t, *v))
    }

    /// Rebuild a builder from snapshot parts: the reconstructed store, the
    /// producer key maps, and the lifetime applied-event counter. The
    /// reverse run-key map is recomputed, so a round-tripped builder is
    /// indistinguishable from the one that was snapshotted.
    pub(crate) fn from_parts(
        store: Store,
        versions: HashMap<VersionTag, VersionId>,
        runs: HashMap<RunKey, TestRunId>,
        events_applied: u64,
    ) -> StoreBuilder {
        let run_keys = runs.iter().map(|(k, r)| (*r, *k)).collect();
        StoreBuilder {
            store,
            versions,
            runs,
            run_keys,
            events_applied,
        }
    }

    /// The delta for a consumer that saw none of this builder's events:
    /// every run is new. Recovery seeds its first flush with it.
    pub(crate) fn all_new(&self) -> StoreDelta {
        StoreDelta {
            new_runs: self.run_keys.keys().copied().collect(),
            ..StoreDelta::default()
        }
    }

    fn resolve_run(&self, key: RunKey) -> Result<(TestRunId, VersionId), IngestError> {
        let run = self.run_id(key).ok_or(IngestError::UnknownRun(key))?;
        Ok((run, self.store.runs[run.index()].version))
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

    /// Apply one event, recording what it changed in `delta`.
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
                if *no_pe == 0 {
                    return Err(IngestError::NoProcessors(*run));
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
                let rid = self.store.add_run(vid, *start, *no_pe, *clockspeed);
                self.runs.insert(*run, rid);
                self.run_keys.insert(rid, *run);
                delta.new_runs.insert(rid);
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
                        delta.grown_versions.insert(vid);
                        self.store.add_function(vid, function.clone())
                    }
                };
                if self
                    .store
                    .region_by_name(fid, &region.name, region.first_line)
                    .is_none()
                {
                    delta.grown_versions.insert(vid);
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
                self.store
                    .upsert_total_timing(reg, rid, *excl, *incl, *ovhd);
                delta.totals.entry(rid).or_default().insert(reg);
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
                delta.typed.entry(rid).or_default().insert(reg);
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
                        delta.grown_versions.insert(vid);
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
                        delta.grown_versions.insert(vid);
                        self.store.add_call(caller_id, callee_id, site_id)
                    }
                };
                self.store
                    .upsert_call_timing(to_call_timing(call, rid, stats));
                delta.calls.entry(rid).or_default().insert(call);
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
    use crate::test_events::{call_stat, exited, region_entered, run_started, typed};

    const MAIN: (&str, u32) = ("main", 1);

    #[test]
    fn run_and_structure_creation() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 4), &mut d).unwrap();
        b.apply(&region_entered(1, "main", "main", None, 1), &mut d)
            .unwrap();
        b.apply(
            &region_entered(1, "main", "main:loop@10", Some(MAIN), 10),
            &mut d,
        )
        .unwrap();
        assert_eq!(b.store().programs.len(), 1);
        assert_eq!(b.store().regions.len(), 2);
        let rid = b.run_id(RunKey(1)).unwrap();
        assert_eq!(b.run_key_of(rid), Some(RunKey(1)));
        // Re-announcing is idempotent.
        b.apply(&region_entered(1, "main", "main", None, 1), &mut d)
            .unwrap();
        assert_eq!(b.store().regions.len(), 2);
    }

    #[test]
    fn unknown_references_are_rejected() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        let err = b
            .apply(&region_entered(1, "main", "main", None, 1), &mut d)
            .unwrap_err();
        assert_eq!(err, IngestError::UnknownRun(RunKey(1)));
        b.apply(&run_started(1, 9, 4), &mut d).unwrap();
        let err = b.apply(&run_started(1, 9, 4), &mut d).unwrap_err();
        assert_eq!(err, IngestError::DuplicateRun(RunKey(1)));
        let err = b.apply(&typed(1, "nope", ("r", 1)), &mut d).unwrap_err();
        assert!(matches!(err, IngestError::UnknownFunction { .. }));
    }

    #[test]
    fn a_run_without_processors_is_refused_before_its_version_exists() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        let err = b.apply(&run_started(1, 9, 0), &mut d).unwrap_err();
        assert_eq!(err, IngestError::NoProcessors(RunKey(1)));
        assert!(b.store().programs.is_empty() && b.store().versions.is_empty());
        assert!(d.is_empty());
        assert_eq!(b.run_id(RunKey(1)), None);
    }

    #[test]
    fn rejected_events_leave_no_phantom_structure() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 4), &mut d).unwrap();
        let mut d2 = StoreDelta::new();
        // RegionEntered naming a brand-new function but an unknown parent:
        // must reject without creating the function or touching the delta
        // (the rejection sits directly above the `grown_versions` insert).
        let err = b
            .apply(
                &region_entered(1, "main", "main:loop@9", Some(MAIN), 9),
                &mut d2,
            )
            .unwrap_err();
        assert!(matches!(err, IngestError::UnknownParent { .. }));
        assert!(b.store().functions.is_empty());
        assert!(d2.is_empty());
        // CallSiteStat with an unknown site: must not intern the callee.
        b.apply(&region_entered(1, "main", "main", None, 1), &mut d)
            .unwrap();
        let err = b
            .apply(&call_stat(1, "main", ("nope", 77)), &mut d)
            .unwrap_err();
        assert!(matches!(err, IngestError::UnknownRegion { .. }));
        assert!(b
            .store()
            .function_by_name(b.version_id(VersionTag(9)).unwrap(), "barrier")
            .is_none());
    }

    #[test]
    fn call_stats_create_callee_and_site() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 4), &mut d).unwrap();
        b.apply(&region_entered(1, "main", "main", None, 1), &mut d)
            .unwrap();
        let stat = call_stat(1, "main", MAIN);
        b.apply(&stat, &mut d).unwrap();
        assert_eq!(b.store().functions.len(), 2);
        assert_eq!(b.store().calls.len(), 1);
        assert_eq!(b.store().call_timings.len(), 1);
        // Re-applying updates in place.
        b.apply(&stat, &mut d).unwrap();
        assert_eq!(b.store().call_timings.len(), 1);
    }

    #[test]
    fn apply_records_exactly_the_facts() {
        let mut b = StoreBuilder::new();
        let mut d = StoreDelta::new();
        b.apply(&run_started(1, 9, 8), &mut d).unwrap();
        // A smaller run is a new run like any other: a fact, no verdict.
        b.apply(&run_started(2, 9, 2), &mut d).unwrap();
        let (r1, r2) = (b.run_id(RunKey(1)).unwrap(), b.run_id(RunKey(2)).unwrap());
        let vid = b.version_id(VersionTag(9)).unwrap();
        let mut expected = StoreDelta::new();
        expected.new_runs.extend([r1, r2]);
        assert_eq!(d, expected);

        b.apply(&region_entered(1, "main", "main", None, 1), &mut d)
            .unwrap();
        expected.grown_versions.insert(vid);
        assert_eq!(d, expected);
        // Re-announcing known structure records nothing.
        let mut again = StoreDelta::new();
        b.apply(&region_entered(2, "main", "main", None, 1), &mut again)
            .unwrap();
        assert!(again.is_empty());

        let main = RegionId(0);
        for (key, run) in [(1, r1), (2, r2)] {
            b.apply(&exited(key, "main", MAIN, 10.0), &mut d).unwrap();
            expected.totals.entry(run).or_default().insert(main);
        }
        b.apply(&typed(2, "main", MAIN), &mut d).unwrap();
        expected.typed.entry(r2).or_default().insert(main);
        // The first call statistic also interns the callee and the site.
        b.apply(&call_stat(1, "main", MAIN), &mut d).unwrap();
        expected.calls.entry(r1).or_default().insert(CallId(0));
        b.apply(&TraceEvent::RunFinished { run: RunKey(2) }, &mut d)
            .unwrap();
        expected.finished_runs.insert(r2);
        assert_eq!(d, expected);

        // A rejected event records none.
        assert!(b
            .apply(&call_stat(1, "main", ("nope", 77)), &mut d)
            .is_err());
        assert!(b.apply(&run_started(2, 9, 1), &mut d).is_err());
        assert!(b.apply(&exited(7, "main", MAIN, 1.0), &mut d).is_err());
        assert_eq!(d, expected);
    }

    #[test]
    fn delta_merge_accumulates() {
        let mut a = StoreDelta::new();
        let mut b = StoreDelta::new();
        a.totals
            .entry(TestRunId(0))
            .or_default()
            .insert(RegionId(1));
        b.totals
            .entry(TestRunId(0))
            .or_default()
            .insert(RegionId(2));
        b.new_runs.insert(TestRunId(3));
        a.merge(b);
        assert_eq!(a.totals[&TestRunId(0)].len(), 2);
        assert!(a.new_runs.contains(&TestRunId(3)));
        assert!(!a.is_empty());
        assert!(StoreDelta::new().is_empty());
    }
}
