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
//! Which contexts a delta names follows from the data dependencies of the
//! standard suite, worked out by hand ([`crate::builder`], *Dirtiness
//! rules*). They are trusted for that suite only
//! ([`cosy::suite::is_standard_suite`]): under any other spec a flush
//! re-evaluates every run of each version the delta touches in full — the
//! batch engine's behaviour, one version at a time — which is sound for
//! any property whose reads stay inside the version of its subject (the
//! assumption the sharded router makes too).

use crate::builder::StoreDelta;
use crate::error::FlushError;
use asl_core::check::CheckedSpec;
use asl_eval::{compile as compile_ir, CompiledSpec};
use cosy::backend::{Backend, PreparedBackend};
use cosy::{
    AnalysisReport, Analyzer, ContextScope, HeldEntry, Instance, ProblemThreshold, SpecError,
};
use obs::{Histogram, MetricsRegistry, MetricsSnapshot, MetricsSource};
use perfdata::{RegionId, Store, TestRunId, VersionId};
use std::collections::{HashMap, HashSet};
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

/// The contexts to re-evaluate, per run, per version.
type Scopes = HashMap<VersionId, HashMap<TestRunId, ContextScope>>;

/// The scope of `run`; a run not in `scopes` yet gets an empty dirty set.
fn scope_of(scopes: &mut Scopes, version: VersionId, run: TestRunId) -> &mut ContextScope {
    let runs = scopes.entry(version).or_default();
    runs.entry(run).or_insert_with(|| ContextScope::Dirty {
        regions: HashSet::new(),
        calls: HashSet::new(),
    })
}

/// The live incremental analyzer. Owns no store — it is driven with
/// `(store, delta)` pairs by the session layer after each applied batch.
pub struct IncrementalAnalyzer {
    spec: Arc<CheckedSpec>,
    /// Whether `spec` is the standard suite, i.e. whether a delta's dirty
    /// sets can be trusted (module doc).
    standard: bool,
    /// The suite lowered once to the slot-indexed IR; every flush re-binds
    /// this shared lowering instead of re-walking the AST.
    compiled: Arc<CompiledSpec>,
    backend: Backend,
    threshold: ProblemThreshold,
    states: HashMap<TestRunId, RunState>,
    basis: HashMap<VersionId, RegionId>,
    /// Runs whose version had no analyzable structure yet; retried on the
    /// next flush.
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
    /// Engine with the standard suite and the default (compiled) backend.
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
            backend: Backend::default(),
            threshold,
            states: HashMap::new(),
            basis: HashMap::new(),
            pending_full: HashSet::new(),
            finished: HashSet::new(),
            stats: IncrementalStats::default(),
            metrics: None,
        }
    }

    /// Use a different evaluation backend. The compiled IR is the default
    /// (preparation re-binds a shared lowering); the interpreter serves as
    /// a validation oracle, and the SQL backends reload the database on
    /// every flush so they only make sense for cross-checking.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
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

    /// Re-evaluate everything a delta invalidated and refresh the affected
    /// reports. Returns the runs whose report changed, in ascending order.
    pub fn flush(
        &mut self,
        store: &Store,
        delta: &StoreDelta,
    ) -> Result<Vec<TestRunId>, FlushError> {
        self.finished.extend(delta.finished_runs.iter().copied());

        let version_of_run = |r: TestRunId| store.runs[r.index()].version;
        let mut scopes = Scopes::new();
        for &run in delta.full_runs.iter().chain(self.pending_full.iter()) {
            *scope_of(&mut scopes, version_of_run(run), run) = ContextScope::All;
        }
        self.pending_full.clear();
        // Versions whose static structure grew take part in the flush even
        // with no dirty context: the basis identity is re-audited and any
        // report whose instance universe drifted is re-assembled below.
        for &v in &delta.touched_versions {
            scopes.entry(v).or_default();
        }
        for &v in &delta.full_versions {
            for &run in &store.versions[v.index()].runs {
                *scope_of(&mut scopes, v, run) = ContextScope::All;
            }
        }
        for &region in &delta.regions_all_runs {
            let function = store.regions[region.index()].function;
            let v = store.functions[function.index()].version;
            for &run in &store.versions[v.index()].runs {
                if let ContextScope::Dirty { regions, .. } = scope_of(&mut scopes, v, run) {
                    regions.insert(region);
                }
            }
        }
        for (&run, dirty) in &delta.dirty_regions {
            if let ContextScope::Dirty { regions, .. } =
                scope_of(&mut scopes, version_of_run(run), run)
            {
                regions.extend(dirty);
            }
        }
        for (&run, dirty) in &delta.dirty_calls {
            if let ContextScope::Dirty { calls, .. } =
                scope_of(&mut scopes, version_of_run(run), run)
            {
                calls.extend(dirty);
            }
        }

        // Ranking-basis audit: a changed basis identity re-bases every
        // severity of the version.
        let mut audit: HashSet<VersionId> = scopes.keys().copied().collect();
        audit.extend(delta.touched_versions.iter().copied());
        for v in audit {
            match (self.basis.get(&v).copied(), store.main_region(v)) {
                (_, None) => {
                    // No structure yet: requeue any marked runs.
                    if let Some(runs) = scopes.remove(&v) {
                        self.pending_full.extend(runs.into_keys());
                    }
                }
                (None, Some(b)) => {
                    self.basis.insert(v, b);
                }
                (Some(old), Some(new)) if old != new => {
                    self.basis.insert(v, new);
                    for &run in &store.versions[v.index()].runs {
                        *scope_of(&mut scopes, v, run) = ContextScope::All;
                    }
                }
                _ => {}
            }
        }
        if !self.standard {
            // No dirtiness rule is known to hold for this spec: whatever
            // the delta says of a version, all of it is re-evaluated.
            for (v, runs) in &mut scopes {
                let all = store.versions[v.index()].runs.iter();
                runs.extend(all.map(|&run| (run, ContextScope::All)));
            }
        }

        let spec = Arc::clone(&self.spec);
        let mut updated = Vec::new();
        // Per-property evaluation counts of this flush (by index in the
        // spec), applied to the registry once at the end — counter lookup
        // takes a lock.
        let mut property_counts = vec![0u64; spec.properties().len()];
        let mut versions: Vec<VersionId> = scopes.keys().copied().collect();
        versions.sort();

        for v in versions {
            let mut runs = scopes.remove(&v).expect("version scope exists");
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
            let basis = analyzer.basis();

            // A dirty basis region re-bases the whole run.
            for scope in runs.values_mut() {
                if matches!(scope, ContextScope::Dirty { regions, .. } if regions.contains(&basis))
                {
                    *scope = ContextScope::All;
                }
            }

            let mut work: Vec<(TestRunId, ContextScope)> = runs.into_iter().collect();
            work.sort_by_key(|(run, _)| *run);

            let mut clock = PhaseClock::start(self.metrics.as_ref().map(|m| &m.phases));
            // The instance universe is a property of the version's
            // structure, identical for every run: count it once per flush.
            let instance_total = analyzer.instance_universe();
            let mut touched_runs: HashSet<TestRunId> = HashSet::new();
            if !work.is_empty() {
                let prepared = match self.backend {
                    Backend::Compiled => {
                        PreparedBackend::from_compiled(Arc::clone(&self.compiled), store)?
                    }
                    other => PreparedBackend::prepare(other, &spec, store)?,
                };

                // Runs in turn: the parallelism of a flush is inside
                // `evaluate_instances`, over its batches.
                for (run, scope) in &work {
                    let run = *run;
                    let instances = analyzer.instances_scoped(run, scope);
                    clock.lap(0);
                    let outcomes = analyzer.evaluate_instances(&prepared, &instances)?;
                    clock.lap(1);

                    let state = self.states.entry(run).or_default();
                    if *scope == ContextScope::All {
                        state.entries.clear();
                        self.stats.full_reevaluations += 1;
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
                    touched_runs.insert(run);
                    updated.push(run);
                    clock.lap(2);
                }
            }

            // Structure growth re-sizes the instance universe of every run
            // of the version: re-assemble (without re-evaluating) any live
            // report whose cached universe size drifted, so `skipped`
            // counts stay bit-identical to a batch pass over the current
            // store. No held entry can change here — a brand-new context
            // has no data for untouched runs, so nothing new can hold.
            for &run in &store.versions[v.index()].runs {
                if touched_runs.contains(&run) {
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
