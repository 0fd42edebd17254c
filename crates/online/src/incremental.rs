//! Incremental re-evaluation of the COSY property suite over a changing
//! store.
//!
//! The engine keeps, per test run, the set of property instances that
//! currently *hold* (as [`HeldEntry`] values keyed by property index and
//! context id). A [`StoreDelta`] names the contexts whose inputs changed;
//! only those instances are re-evaluated — through exactly the same
//! [`Analyzer::instances_scoped`] → [`Analyzer::evaluate_instances`] →
//! [`Analyzer::assemble_report`] path the batch analyzer uses — and the
//! results are merged into the held-set before the run's live
//! [`AnalysisReport`] is re-assembled. Because the assembly step sorts with
//! a total, deterministic order, an incrementally maintained report is
//! bit-identical to a batch re-analysis of the same store (enforced by the
//! equivalence proptest in `tests/`).
//!
//! A delta states facts only; which contexts those facts invalidate is
//! decided by one function, `IncrementalAnalyzer::invalidated` — the
//! rules, and the reads of the standard suite they follow from, are
//! stated there and nowhere else. [`IncrementalAnalyzer::flush`] calls it
//! and then only enumerates, evaluates and assembles.

use crate::builder::StoreDelta;
use crate::error::FlushError;
use asl_core::check::CheckedSpec;
use asl_eval::{compile as compile_ir, CompiledSpec};
use cosy::backend::PreparedBackend;
use cosy::{
    AnalysisReport, Analyzer, ContextScope, HeldEntry, Instance, ProblemThreshold, SpecError,
};
use obs::{Histogram, MetricsRegistry, MetricsSnapshot, MetricsSource};
use perfdata::{CallId, IdSet, RegionId, Store, TestRunId, VersionId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Counters describing the work the incremental engine actually did —
/// the observable difference to batch re-analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Number of flushes processed.
    pub flushes: u64,
    /// Runs whose report was re-assembled.
    pub runs_reevaluated: u64,
    /// Runs that needed a full (all-context) evaluation.
    pub full_reevaluations: u64,
    /// Property instances evaluated (the dominant cost).
    pub instances_evaluated: u64,
}

impl MetricsSource for IncrementalStats {
    fn collect_into(&self, out: &mut MetricsSnapshot) {
        let IncrementalStats {
            flushes,
            runs_reevaluated,
            full_reevaluations,
            instances_evaluated,
        } = self;
        out.push_counter("kojak_eval_flushes_total", *flushes);
        out.push_counter("kojak_eval_runs_reevaluated_total", *runs_reevaluated);
        out.push_counter("kojak_eval_full_reevaluations_total", *full_reevaluations);
        out.push_counter("kojak_eval_instances_evaluated_total", *instances_evaluated);
    }
}

/// Identity of a held entry within one run: the instance it came from
/// (property index in the spec, id of the region or call site).
type EntryKey = Instance;

/// Where a flush's time goes, per version: enumerating the instances of
/// the dirty contexts, evaluating them, and merging + ranking the reports.
/// Histogram names, in phase order.
const PHASES: [&str; 3] = [
    "kojak_eval_enumerate_ns",
    "kojak_eval_evaluate_ns",
    "kojak_eval_assemble_ns",
];

/// Accumulates the phase times of one version's share of a flush; records
/// one sample per phase when the version is done — never one per run or
/// instance. Inert (no clock reads) without a registry or with
/// instrumentation off.
struct PhaseClock<'a> {
    sinks: Option<&'a [Arc<Histogram>; 3]>,
    last: Option<Instant>,
    ns: [u64; 3],
}

impl<'a> PhaseClock<'a> {
    fn start(sinks: Option<&'a [Arc<Histogram>; 3]>) -> Self {
        let sinks = sinks.filter(|_| obs::enabled());
        PhaseClock {
            sinks,
            last: sinks.map(|_| Instant::now()),
            ns: [0; 3],
        }
    }

    /// Charge the time since the previous lap to `phase`.
    fn lap(&mut self, phase: usize) {
        if let Some(last) = &mut self.last {
            let now = Instant::now();
            let spent = now.duration_since(*last).as_nanos();
            self.ns[phase] += u64::try_from(spent).unwrap_or(u64::MAX);
            *last = now;
        }
    }
}

impl Drop for PhaseClock<'_> {
    fn drop(&mut self) {
        if let Some(sinks) = self.sinks {
            for (sink, ns) in sinks.iter().zip(self.ns) {
                sink.record(ns);
            }
        }
    }
}

#[derive(Debug, Default)]
struct RunState {
    entries: HashMap<EntryKey, HeldEntry>,
    report: Option<AnalysisReport>,
    /// The version's instance-universe size when `report` was assembled.
    /// Structure growth (a sibling run announcing a new call site) changes
    /// the universe — and therefore the report's `skipped` count — without
    /// dirtying this run's contexts; the flush re-assembles such reports
    /// so they stay bit-identical to a batch pass over the current store.
    instance_total: usize,
}

impl RunState {
    /// Rank the held entries into the run's report, against a universe of
    /// `instance_total` instances.
    fn assemble(
        &mut self,
        analyzer: &Analyzer<'_>,
        run: TestRunId,
        threshold: ProblemThreshold,
        instance_total: usize,
    ) {
        let skipped = instance_total - self.entries.len();
        let held: Vec<HeldEntry> = self.entries.values().cloned().collect();
        self.report = Some(analyzer.assemble_report(run, held, threshold, skipped));
        self.instance_total = instance_total;
    }
}

/// What a delta invalidated: the contexts to re-evaluate, per run, per
/// version, in ascending order. A version mapped to no run takes part in
/// the flush all the same — its structure grew, so its reports are
/// re-sized. Only `IncrementalAnalyzer::invalidated` builds one.
type Scopes = BTreeMap<VersionId, BTreeMap<TestRunId, ContextScope>>;

/// The live incremental analyzer. Owns no store — it is driven with
/// `(store, delta)` pairs by the session layer after each applied batch.
pub struct IncrementalAnalyzer {
    spec: Arc<CheckedSpec>,
    /// Whether `spec` is the standard suite, whose reads the rules of
    /// `IncrementalAnalyzer::invalidated` follow.
    standard: bool,
    /// The suite lowered once to the slot-indexed IR; every flush re-binds
    /// this shared lowering instead of re-walking the AST.
    compiled: Arc<CompiledSpec>,
    threshold: ProblemThreshold,
    states: HashMap<TestRunId, RunState>,
    /// The ranking-basis region each version was last evaluated against.
    basis: HashMap<VersionId, RegionId>,
    /// Runs whose version had no analyzable structure yet: owed a full
    /// evaluation, and kept here until a flush has given them one.
    pending_full: HashSet<TestRunId>,
    /// Runs whose producer declared them finished (`RunFinished` seen).
    finished: HashSet<TestRunId>,
    stats: IncrementalStats,
    /// Optional metric sink ([`IncrementalAnalyzer::with_registry`]).
    metrics: Option<Box<FlushMetrics>>,
}

/// Where a flush reports what it did.
struct FlushMetrics {
    /// For the per-property evaluation counters
    /// (`kojak_eval_property_evaluations_total{property="…"}`).
    registry: Arc<MetricsRegistry>,
    /// The [`PHASES`] histograms of `registry`, created with it so a flush
    /// never takes the registry lock for them.
    phases: [Arc<Histogram>; 3],
}

impl IncrementalAnalyzer {
    /// Engine with the standard suite.
    pub fn new(threshold: ProblemThreshold) -> Self {
        Self::with_spec(Arc::new(cosy::suite::standard_suite()), threshold)
    }

    /// Engine with a shared pre-checked suite. The suite is lowered to the
    /// compiled IR once, here.
    pub fn with_spec(spec: Arc<CheckedSpec>, threshold: ProblemThreshold) -> Self {
        let compiled = Arc::new(compile_ir(&spec));
        IncrementalAnalyzer {
            standard: cosy::suite::is_standard_suite(&spec),
            spec,
            compiled,
            threshold,
            states: HashMap::new(),
            basis: HashMap::new(),
            pending_full: HashSet::new(),
            finished: HashSet::new(),
            stats: IncrementalStats::default(),
            metrics: None,
        }
    }

    /// Record into `registry` on every flush: per-property evaluation
    /// counts (one labelled counter per property of the spec) and, per
    /// version, the three phase histograms `kojak_eval_enumerate_ns`,
    /// `kojak_eval_evaluate_ns`, `kojak_eval_assemble_ns`.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(Box::new(FlushMetrics {
            phases: PHASES.map(|name| registry.histogram(name)),
            registry,
        }));
        self
    }

    /// The engine's work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// The shared suite.
    pub fn spec(&self) -> Arc<CheckedSpec> {
        Arc::clone(&self.spec)
    }

    /// The live report of a run, if any data arrived for it.
    pub fn report(&self, run: TestRunId) -> Option<&AnalysisReport> {
        self.states.get(&run).and_then(|s| s.report.as_ref())
    }

    /// True once the run's producer declared it finished (its report is
    /// final unless a later run changes the version's reference
    /// configuration).
    pub fn is_finished(&self, run: TestRunId) -> bool {
        self.finished.contains(&run)
    }

    /// Number of finished runs.
    pub fn finished_count(&self) -> usize {
        self.finished.len()
    }

    /// The finished runs (unordered).
    pub fn finished_runs(&self) -> impl Iterator<Item = TestRunId> + '_ {
        self.finished.iter().copied()
    }

    /// Restore the finished-run set from a snapshot (recovery path).
    pub(crate) fn restore_finished(&mut self, runs: impl IntoIterator<Item = TestRunId>) {
        self.finished.extend(runs);
    }

    /// All live reports.
    pub fn reports(&self) -> impl Iterator<Item = (TestRunId, &AnalysisReport)> {
        self.states
            .iter()
            .filter_map(|(run, s)| s.report.as_ref().map(|r| (*run, r)))
    }

    /// The contexts whose held results the facts of `delta` can have
    /// changed — the one statement of the engine's invalidation policy.
    ///
    /// The rules follow from what the standard suite (§4.2) reads; they
    /// were worked out by hand and are trusted for that suite only:
    ///
    /// 1. a total timing, typed timing or call statistic dirties its own
    ///    `(run, context)` — every property reads its context's records
    ///    for the analyzed run;
    /// 2. a **total** timing of region `r` in run `t` dirties `r` in
    ///    *every* run of the version when other runs have a total of `r`
    ///    and none of them has fewer processors than `t` —
    ///    `SublinearSpeedup` and `UnmeasuredCost` compare each run against
    ///    the region's min-PE total (`MinPeSum`);
    /// 3. a new run is evaluated in full, and when no run of its version
    ///    has fewer processors it dirties the **whole version** — the
    ///    reference configuration (and the `UNIQUE` min-PE selection)
    ///    changed for every region;
    /// 4. a run that was waiting for its version's structure
    ///    ([`SpecError::NoMainRegion`]) is evaluated in full;
    ///
    /// and, every severity being a fraction of `Duration(Basis, t)`:
    ///
    /// 5. a dirty ranking-basis region — by any rule above — re-bases its
    ///    whole run;
    /// 6. a basis *identity* other than the one the version was last
    ///    evaluated against (a `main` function announced late) re-bases
    ///    the whole version.
    ///
    /// A version whose structure grew is audited for rule 6 and takes part
    /// in the flush even with nothing dirty (see `Scopes`). Under any
    /// other spec than the standard suite no rule above is known to hold:
    /// every run of each version the delta touches is evaluated in full —
    /// the batch engine's behaviour, one version at a time — which is
    /// sound for any property whose reads stay inside the version of its
    /// subject (the assumption the sharded router makes too). This is
    /// where read-sets derived from the checked spec replace the
    /// hand-worked rules (ROADMAP item 1, step 2).
    ///
    /// Rules 2 and 3 look at the store as the delta left it, not as each
    /// event found it. They select the same contexts — a min-PE record of
    /// the end state was upserted in the delta iff some event in it
    /// undercut the minimum of its time — with one exception: when the
    /// *first* totals of a region arrive, fewest processors first, inside
    /// one delta, event-time tracking never saw a minimum undercut while
    /// rule 2 dirties the region in the version's other runs too. Those
    /// runs have no total of the region, so the added instances evaluate
    /// to "not applicable": the reports are identical, the work counters
    /// are not.
    fn invalidated(&self, store: &Store, delta: &StoreDelta) -> Scopes {
        let version_of = |run: TestRunId| store.runs[run.index()].version;
        let no_pe = |run: TestRunId| store.runs[run.index()].no_pe;
        let runs_of = |v: VersionId| store.versions[v.index()].runs.iter().copied();
        let mut scopes = Scopes::new();

        // Rules 3 and 4, first: a run evaluated in full needs no dirty set.
        let mut full = |v: VersionId, run: TestRunId| {
            scopes.entry(v).or_default().insert(run, ContextScope::All);
        };
        for &run in delta.new_runs.iter().chain(&self.pending_full) {
            full(version_of(run), run);
        }
        for &run in &delta.new_runs {
            let v = version_of(run);
            if store.min_pe_of_version(v) == Some(no_pe(run)) {
                runs_of(v).for_each(|r| full(v, r));
            }
        }
        let mut dirty = |run: TestRunId, region: Option<RegionId>, call: Option<CallId>| {
            let runs = scopes.entry(version_of(run)).or_default();
            let scope = runs.entry(run).or_insert_with(|| ContextScope::Dirty {
                regions: IdSet::default(),
                calls: IdSet::default(),
            });
            if let ContextScope::Dirty { regions, calls } = scope {
                regions.extend(region);
                calls.extend(call);
            }
        };

        // Rule 1.
        for (&run, regions) in delta.totals.iter().chain(&delta.typed) {
            regions.iter().for_each(|&r| dirty(run, Some(r), None));
        }
        for (&run, calls) in &delta.calls {
            calls.iter().for_each(|&c| dirty(run, None, Some(c)));
        }
        // Rule 2.
        for (&run, regions) in &delta.totals {
            for &region in regions {
                let others = store.regions[region.index()].tot_times.iter();
                let min_other = others
                    .map(|t| store.total_timings[t.index()].run)
                    .filter(|&other| other != run)
                    .map(no_pe)
                    .min();
                if min_other.is_some_and(|min| no_pe(run) <= min) {
                    runs_of(version_of(run)).for_each(|r| dirty(r, Some(region), None));
                }
            }
        }
        for &v in &delta.grown_versions {
            scopes.entry(v).or_default();
        }

        for (&v, runs) in &mut scopes {
            let all = || runs_of(v).map(|run| (run, ContextScope::All));
            if !self.standard {
                runs.extend(all());
                continue;
            }
            let Some(basis) = store.main_region(v) else {
                continue;
            };
            // Rules 5 and 6.
            if self.basis.get(&v).is_some_and(|old| *old != basis) {
                runs.extend(all());
            }
            for scope in runs.values_mut() {
                if matches!(scope, ContextScope::Dirty { regions, .. } if regions.contains(&basis))
                {
                    *scope = ContextScope::All;
                }
            }
        }
        scopes
    }

    /// Re-evaluate everything a delta invalidated and refresh the affected
    /// reports. Returns the runs whose report changed, in ascending order.
    pub fn flush(
        &mut self,
        store: &Store,
        delta: &StoreDelta,
    ) -> Result<Vec<TestRunId>, FlushError> {
        self.finished.extend(delta.finished_runs.iter().copied());
        let scopes = self.invalidated(store, delta);

        let spec = Arc::clone(&self.spec);
        let mut updated = Vec::new();
        // Per-property evaluation counts of this flush (by index in the
        // spec), applied to the registry once at the end — counter lookup
        // takes a lock.
        let mut property_counts = vec![0u64; spec.properties().len()];

        for (v, runs) in scopes {
            let analyzer = match Analyzer::with_compiled(
                store,
                v,
                Arc::clone(&spec),
                Arc::clone(&self.compiled),
            ) {
                Ok(a) => a,
                // No structure yet: retry these runs on the next flush.
                Err(SpecError::NoMainRegion) => {
                    self.pending_full.extend(runs.into_keys());
                    continue;
                }
                Err(e) => return Err(e.into()),
            };

            let mut clock = PhaseClock::start(self.metrics.as_ref().map(|m| &m.phases));
            // The instance universe is a property of the version's
            // structure, identical for every run: count it once per flush.
            let instance_total = analyzer.instance_universe();
            if !runs.is_empty() {
                let prepared = PreparedBackend::from_compiled(Arc::clone(&self.compiled), store)?;

                // Runs in turn: the parallelism of a flush is inside
                // `evaluate_instances`, over its batches.
                for (&run, scope) in &runs {
                    let instances = analyzer.instances_scoped(run, scope);
                    clock.lap(0);
                    let outcomes = analyzer.evaluate_instances(&prepared, &instances)?;
                    clock.lap(1);

                    let state = self.states.entry(run).or_default();
                    if *scope == ContextScope::All {
                        state.entries.clear();
                        self.stats.full_reevaluations += 1;
                        // Owed until paid: a flush that fails before this
                        // point leaves the run waiting.
                        self.pending_full.remove(&run);
                    }
                    for (key, outcome) in instances.iter().zip(outcomes) {
                        property_counts[key.property as usize] += 1;
                        match outcome {
                            Some(entry) => {
                                state.entries.insert(*key, entry);
                            }
                            None => {
                                state.entries.remove(key);
                            }
                        }
                    }
                    state.assemble(&analyzer, run, self.threshold, instance_total);
                    self.stats.instances_evaluated += instances.len() as u64;
                    self.stats.runs_reevaluated += 1;
                    updated.push(run);
                    clock.lap(2);
                }
            }
            // Only now: had an evaluation above failed, the retried delta
            // must still find the old basis and re-base the version.
            self.basis.insert(v, analyzer.basis());

            // Structure growth re-sizes the instance universe of every run
            // of the version: re-assemble (without re-evaluating) any live
            // report whose cached universe size drifted, so `skipped`
            // counts stay bit-identical to a batch pass over the current
            // store. No held entry can change here — a brand-new context
            // has no data for untouched runs, so nothing new can hold.
            for &run in &store.versions[v.index()].runs {
                if runs.contains_key(&run) {
                    continue;
                }
                let Some(state) = self.states.get_mut(&run) else {
                    continue;
                };
                if state.report.is_some() && state.instance_total != instance_total {
                    state.assemble(&analyzer, run, self.threshold, instance_total);
                    updated.push(run);
                }
            }
            clock.lap(2);
        }

        if let Some(FlushMetrics { registry, .. }) =
            self.metrics.as_deref().filter(|_| obs::enabled())
        {
            for (declared, n) in spec.properties().iter().zip(property_counts) {
                if n > 0 {
                    let property = &declared.name.name;
                    registry
                        .counter(&format!(
                            "kojak_eval_property_evaluations_total{{property=\"{property}\"}}"
                        ))
                        .add(n);
                }
            }
        }
        self.stats.flushes += 1;
        updated.sort();
        Ok(updated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StoreBuilder;
    use crate::event::{RunKey, TraceEvent, VersionTag};
    use crate::test_events::{exited, region_entered, run_started, typed};

    const MAIN: (&str, u32) = ("main", 1);
    const LOOP: (&str, u32) = ("main:loop@10", 10);

    /// Apply `events`; the facts they left behind.
    fn apply(b: &mut StoreBuilder, events: &[TraceEvent]) -> StoreDelta {
        let mut delta = StoreDelta::new();
        for event in events {
            b.apply(event, &mut delta).unwrap();
        }
        delta
    }

    /// Version 9 of `app` with `main` and a loop in it, and one run per
    /// processor count (run key = position + 1); the delta of all that.
    fn version_with_runs(pes: &[u32]) -> (StoreBuilder, StoreDelta) {
        let mut b = StoreBuilder::new();
        let mut events: Vec<TraceEvent> = (1u64..)
            .zip(pes)
            .map(|(key, pe)| run_started(key, 9, *pe))
            .collect();
        events.push(region_entered(1, "main", MAIN.0, None, MAIN.1));
        events.push(region_entered(1, "main", LOOP.0, Some(MAIN), LOOP.1));
        let delta = apply(&mut b, &events);
        (b, delta)
    }

    fn standard() -> IncrementalAnalyzer {
        IncrementalAnalyzer::new(ProblemThreshold::default())
    }

    /// `scopes` as `(run key, scope)` pairs of its only version.
    fn of_version_9(b: &StoreBuilder, scopes: Scopes) -> Vec<(u64, ContextScope)> {
        let v = b.version_id(VersionTag(9)).unwrap();
        assert!(scopes.keys().eq([&v]), "{scopes:?}");
        let key = |run| b.run_key_of(run).unwrap().0;
        scopes[&v]
            .iter()
            .map(|(r, s)| (key(*r), s.clone()))
            .collect()
    }

    fn dirty_region(b: &StoreBuilder, function: &str, region: (&str, u32)) -> ContextScope {
        let v = b.version_id(VersionTag(9)).unwrap();
        let f = b.store().function_by_name(v, function).unwrap();
        let r = b.store().region_by_name(f, region.0, region.1).unwrap();
        ContextScope::Dirty {
            regions: IdSet::from_iter([r]),
            calls: IdSet::default(),
        }
    }

    #[test]
    fn smaller_pe_run_dirties_whole_version() {
        let (mut b, _) = version_with_runs(&[8]);
        let a = standard();
        let smaller = apply(&mut b, &[run_started(2, 9, 2)]);
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &smaller)),
            [(1, ContextScope::All), (2, ContextScope::All)]
        );
        // A larger run does not.
        let larger = apply(&mut b, &[run_started(3, 9, 16)]);
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &larger)),
            [(3, ContextScope::All)]
        );
    }

    #[test]
    fn min_pe_total_dirties_region_in_all_runs() {
        let (mut b, _) = version_with_runs(&[2, 8, 4]);
        let a = standard();
        let looped = dirty_region(&b, "main", LOOP);
        // First total of the region: no other totals, only locally dirty.
        let first = apply(&mut b, &[exited(2, "main", LOOP, 12.0)]);
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &first)),
            [(2, looped.clone())]
        );
        // A total from the 2-PE run undercuts the 8-PE record: dirty
        // everywhere, the run without a total included.
        let min = apply(&mut b, &[exited(1, "main", LOOP, 10.0)]);
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &min)),
            [1, 2, 3].map(|key| (key, looped.clone()))
        );
        // Correcting the 8-PE total leaves the minimum alone.
        let other = apply(&mut b, &[exited(2, "main", LOOP, 11.0)]);
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &other)),
            [(2, looped.clone())]
        );
    }

    /// The corner where looking at the end state differs from tracking
    /// each event: a region's first totals arrive fewest-processors-first
    /// in one delta. No event undercut a minimum, yet the region is dirty
    /// in the run that has no total of it (and cannot hold there).
    #[test]
    fn first_totals_min_pe_first_in_one_delta() {
        let (mut b, _) = version_with_runs(&[2, 8, 4]);
        let looped = dirty_region(&b, "main", LOOP);
        let both = apply(
            &mut b,
            &[exited(1, "main", LOOP, 10.0), exited(2, "main", LOOP, 12.0)],
        );
        assert_eq!(
            of_version_9(&b, standard().invalidated(b.store(), &both)),
            [1, 2, 3].map(|key| (key, looped.clone()))
        );
    }

    #[test]
    fn basis_timing_rebases_its_run() {
        let (mut b, _) = version_with_runs(&[2, 8]);
        let a = standard();
        // A typed timing of `main`, the basis, in the 8-PE run.
        let sample = apply(&mut b, &[typed(2, "main", MAIN)]);
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &sample)),
            [(2, ContextScope::All)]
        );
        // A min-PE total of the basis dirties it in every run, so every
        // run is re-based.
        apply(&mut b, &[exited(2, "main", MAIN, 12.0)]);
        let total = apply(&mut b, &[exited(1, "main", MAIN, 10.0)]);
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &total)),
            [(1, ContextScope::All), (2, ContextScope::All)]
        );
    }

    #[test]
    fn late_main_rebases_the_version() {
        let mut b = StoreBuilder::new();
        let mut a = standard();
        let work = ("work", 40);
        let early = apply(
            &mut b,
            &[
                run_started(1, 9, 2),
                run_started(2, 9, 8),
                region_entered(1, "work", work.0, None, work.1),
                exited(1, "work", work, 10.0),
                exited(2, "work", work, 12.0),
            ],
        );
        // Evaluated against `work`, the first function's region.
        a.flush(b.store(), &early).unwrap();
        let late = apply(&mut b, &[region_entered(2, "main", MAIN.0, None, MAIN.1)]);
        assert!(late.totals.is_empty() && late.new_runs.is_empty());
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &late)),
            [(1, ContextScope::All), (2, ContextScope::All)]
        );
        // Once evaluated against `main`, more structure re-bases nothing.
        a.flush(b.store(), &late).unwrap();
        let more = apply(
            &mut b,
            &[region_entered(2, "main", LOOP.0, Some(MAIN), LOOP.1)],
        );
        assert_eq!(of_version_9(&b, a.invalidated(b.store(), &more)), []);
    }

    /// Rule 6 compares with the basis the version was last *evaluated*
    /// against: a flush that fails on the way leaves the re-base owed.
    #[test]
    fn failed_flush_still_owes_the_rebase() {
        let mut b = StoreBuilder::new();
        let mut a = standard();
        let work = ("work", 40);
        let early = apply(
            &mut b,
            &[
                run_started(1, 9, 2),
                run_started(2, 9, 8),
                region_entered(1, "work", work.0, None, work.1),
                exited(1, "work", work, 10.0),
                exited(2, "work", work, 12.0),
            ],
        );
        a.flush(b.store(), &early).unwrap();
        // `main` arrives late with a zero total in run 1: every severity
        // of that run divides by `Duration(main, 1) == 0`.
        let late = apply(
            &mut b,
            &[
                region_entered(2, "main", MAIN.0, None, MAIN.1),
                exited(1, "main", MAIN, 0.0),
            ],
        );
        let whole_version = [(1, ContextScope::All), (2, ContextScope::All)];
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &late)),
            whole_version
        );
        a.flush(b.store(), &late).unwrap_err();
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &late)),
            whole_version
        );
    }

    #[test]
    fn version_without_main_region_waits_for_structure() {
        let mut b = StoreBuilder::new();
        let mut a = standard();
        let started = apply(&mut b, &[run_started(1, 9, 4)]);
        let run = b.run_id(RunKey(1)).unwrap();
        assert_eq!(a.flush(b.store(), &started).unwrap(), []);
        assert!(a.report(run).is_none());
        // Requeued: with no new fact at all the run is still owed a full
        // evaluation, and still cannot get one.
        let nothing = StoreDelta::new();
        assert_eq!(
            of_version_9(&b, a.invalidated(b.store(), &nothing)),
            [(1, ContextScope::All)]
        );
        assert_eq!(a.flush(b.store(), &nothing).unwrap(), []);
        // The flush after structure arrives evaluates it, once.
        let structure = apply(&mut b, &[region_entered(1, "main", MAIN.0, None, MAIN.1)]);
        assert_eq!(a.flush(b.store(), &structure).unwrap(), [run]);
        assert!(a.report(run).is_some());
        assert_eq!(a.stats().full_reevaluations, 1);
        assert!(a.invalidated(b.store(), &nothing).is_empty());
    }

    #[test]
    fn non_standard_spec_invalidates_whole_versions() {
        let src = format!(
            "{}\n{}",
            cosy::standard_suite_source(),
            include_str!("../../../examples/specs/io_contention.asl")
        );
        let spec = Arc::new(asl_core::parse_and_check(&src).expect("custom suite"));
        let a = IncrementalAnalyzer::with_spec(spec, ProblemThreshold::default());
        let (mut b, _) = version_with_runs(&[2, 8, 4]);
        let everything = [1, 2, 3].map(|key| (key, ContextScope::All));
        // A non-minimum total, a typed timing, new structure: any fact.
        for event in [
            exited(2, "main", LOOP, 12.0),
            typed(3, "main", LOOP),
            region_entered(3, "main", "main:loop@30", Some(MAIN), 30),
        ] {
            let fact = apply(&mut b, &[event]);
            assert_eq!(
                of_version_9(&b, a.invalidated(b.store(), &fact)),
                everything
            );
        }
        // Another version is not touched.
        let elsewhere = apply(&mut b, &[run_started(4, 10, 1)]);
        let scopes = a.invalidated(b.store(), &elsewhere);
        let v10 = b.version_id(VersionTag(10)).unwrap();
        assert!(scopes.keys().eq([&v10]), "{scopes:?}");
    }

    #[test]
    fn recovered_store_is_evaluated_in_full() {
        let (mut b, _) = version_with_runs(&[2, 8, 4]);
        apply(&mut b, &[exited(2, "main", LOOP, 12.0)]);
        assert_eq!(
            of_version_9(&b, standard().invalidated(b.store(), &b.all_new())),
            [1, 2, 3].map(|key| (key, ContextScope::All))
        );
    }
}
