//! Incremental re-evaluation of the COSY property suite over a changing
//! store.
//!
//! The engine keeps, per test run, only its live [`AnalysisReport`] and
//! the compact records it was ranked from: the report's entries are
//! exactly the property instances that currently *hold*. A [`StoreDelta`]
//! names the records whose values changed; only the `(property, context)`
//! instances that read them are re-evaluated — through exactly the same
//! [`Analyzer::instances_scoped`] → [`Analyzer::evaluate_instances`] →
//! [`Analyzer::rank`] → [`Analyzer::ranked_report`] path as
//! [`Analyzer::analyze`] — and the fresh entries replace the report's
//! entries of those pairs: only they are ranked, then merged in one pass
//! with the run's kept entries, which are in rank order already
//! ([`Analyzer::merge_ranked`]). Because the ranking is a total,
//! deterministic order, an incrementally maintained report is
//! bit-identical to a full analysis of the same store (enforced by the
//! workspace's `tests/shapes.rs`). What the ranking reads — each version's
//! families, labels and rank tables ([`VersionContext`]) — is derived once
//! and kept across flushes until the version's structure grows or its
//! basis moves. It is the one record a version keeps: a flush re-bases
//! from its basis and counts new contexts from its structure, and a
//! version without one is evaluated in full. A one-shot analysis is a
//! session's first flush: no version keeps a context, so every run is
//! evaluated in full, once.
//!
//! A delta states facts only; which instances those facts invalidate, and
//! which report headers they move, is decided by one function,
//! `IncrementalAnalyzer::invalidated`, from what each property reads — the
//! read summaries the compiled spec derives from the property bodies
//! ([`CompiledSpec::property_reads`]), not a table kept beside the suite.
//! The rules are stated there and nowhere else; [`IncrementalAnalyzer::flush`]
//! walks only the runs it lists.

use crate::builder::StoreDelta;
use crate::error::FlushError;
use asl_core::check::CheckedSpec;
use asl_eval::{compile as compile_ir, CompiledSpec, PropertyReads};
use asl_eval::{Measurements, Owner, ReadSet, Runs};
use cosy::backend::PreparedBackend;
use cosy::{
    AnalysisReport, Analyzer, ContextScope, HeldEntry, ProblemThreshold, SpecError, VersionContext,
};
use obs::{Histogram, MetricsRegistry, MetricsSnapshot, MetricsSource};
use perfdata::{CallId, RegionId, Store, TestRunId, VersionId};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Counters describing the work the incremental engine actually did —
/// the observable difference to batch re-analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Number of flushes processed.
    pub flushes: u64,
    /// Runs re-evaluated, in part or in full; a header refresh is not one.
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

/// What a run keeps between flushes: its live report, and the compact
/// records its entries were ranked from, in the same order — what the next
/// flush merges the re-evaluated entries into.
struct Live {
    report: AnalysisReport,
    held: Vec<HeldEntry>,
}

/// What one run re-evaluates: a context scope per property of the spec,
/// in declaration order ([`Analyzer::instances_scoped`]).
type RunScope = Vec<ContextScope>;

/// What a delta invalidated: per version, per run, in ascending order,
/// every run whose report can move. A run whose scope names no context
/// only has its header brought up to date; a version mapped to no run has
/// nothing that moved. Only `IncrementalAnalyzer::invalidated` builds one.
type Scopes = BTreeMap<VersionId, BTreeMap<TestRunId, RunScope>>;

/// Where a fact was stored, or which contexts a rule reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Context {
    Region(RegionId),
    Call(CallId),
    /// Every context of the version.
    All,
}

/// List `run` and re-evaluate `properties` of it at `context`.
fn mark(
    runs: &mut BTreeMap<TestRunId, RunScope>,
    run: TestRunId,
    properties: &[u16],
    context: Context,
    spec_len: usize,
) {
    let scope = runs
        .entry(run)
        .or_insert_with(|| vec![ContextScope::none(); spec_len]);
    for &p in properties {
        match (&mut scope[p as usize], context) {
            (ContextScope::All, _) => {}
            (scope, Context::All) => *scope = ContextScope::All,
            (ContextScope::Dirty { regions, .. }, Context::Region(r)) => {
                regions.insert(r);
            }
            (ContextScope::Dirty { calls, .. }, Context::Call(c)) => {
                calls.insert(c);
            }
        }
    }
}

/// Which properties, by declaration index, each kind of fact reaches: the
/// read summaries of the spec ([`asl_eval::PropertyReads`]), inverted
/// once.
#[derive(Debug)]
struct Readers {
    /// Every property.
    every: Vec<u16>,
    /// Per bit of a [`ReadSet`], the properties whose summary sets it.
    by_bit: Vec<Vec<u16>>,
    /// Read anything of another run.
    elsewhere: Vec<u16>,
    /// Navigate beyond the subject's and basis' measurements.
    unclassified: Vec<u16>,
}

impl Readers {
    fn of(summaries: &[PropertyReads]) -> Readers {
        let which = |keep: &dyn Fn(Option<ReadSet>) -> bool| {
            let reads = |summary| match summary {
                &PropertyReads::Classified(reads) => Some(reads),
                PropertyReads::Unclassified => None,
            };
            let kept = (0u16..).zip(summaries).filter(|(_, s)| keep(reads(s)));
            kept.map(|(p, _)| p).collect()
        };
        Readers {
            every: which(&|_| true),
            by_bit: (0..ReadSet::BITS)
                .map(|bit| which(&|reads| reads.is_some_and(|r| r.bits().any(|b| b == bit))))
                .collect(),
            elsewhere: which(&|reads| reads.is_some_and(ReadSet::reads_other_runs)),
            unclassified: which(&|reads| reads.is_none()),
        }
    }
}

/// The live incremental analyzer. Owns no store — it is driven with
/// `(store, delta)` pairs by the session layer after each applied batch.
pub struct IncrementalAnalyzer {
    spec: Arc<CheckedSpec>,
    /// The suite lowered once to the slot-indexed IR; every flush re-binds
    /// this shared lowering instead of re-walking the AST.
    compiled: Arc<CompiledSpec>,
    /// Which properties each kind of fact reaches, from the read summaries
    /// of `compiled`.
    readers: Readers,
    /// What each version's last completed evaluation derived, and under
    /// which basis and structure — the one record a version keeps: the
    /// next flush's analyzer takes it over, and `invalidated` reads off it
    /// the basis to re-base from and the contexts not evaluated yet.
    contexts: HashMap<VersionId, Arc<VersionContext>>,
    threshold: ProblemThreshold,
    /// The live report of every evaluated run, with the records it was
    /// ranked from — the only state a run keeps: its entries are exactly
    /// the instances that hold. A run without one is owed a full
    /// evaluation.
    reports: HashMap<TestRunId, Live>,
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
            readers: Readers::of(compiled.property_reads()),
            contexts: HashMap::new(),
            spec,
            compiled,
            threshold,
            reports: HashMap::new(),
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

    /// The live report of a run, once a flush has evaluated it.
    pub fn report(&self, run: TestRunId) -> Option<&AnalysisReport> {
        self.reports.get(&run).map(|live| &live.report)
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
        self.reports.iter().map(|(run, live)| (*run, &live.report))
    }

    /// The `(property, context)` pairs of each run whose held results the
    /// facts of `delta` can have changed, and the runs whose header they
    /// can have moved — the one statement of the engine's policy.
    ///
    /// Every rule is scoped by property, through the read summary the spec
    /// yields for it ([`asl_eval::PropertyReads`]): which measurement sets
    /// — total timings, typed timings, call statistics — it reads of its
    /// subject and of the ranking basis, in the analyzed run only, in the
    /// run one of the subject's sets selects, or in other runs too. A fact
    /// of set `S` at `(context, t)` reaches:
    ///
    /// 1. `context` in run `t`, for the properties that read `S` of their
    ///    subject;
    /// 2. `context` in *every* run of the version, for the properties that
    ///    read `S` of their subject in other runs — in the run a set `R`
    ///    selects ([`Runs::Selected`]) only if `t` could be it: no other
    ///    run holding a record of `R` at `context` has fewer processors, or
    ///    none holds one. Then the other runs have none, so the properties
    ///    that require one of their own ([`ReadSet::requires_own`]) are
    ///    not applicable there, before the fact and after: not those;
    ///
    /// and
    ///
    /// 3. a run is evaluated in full when it is new and holds no report, or
    ///    its version keeps no [`VersionContext`] (it may have waited for
    ///    structure, [`SpecError::NoMainRegion`]); a failed flush re-queues
    ///    its delta and keeps no context it did not finish, so a run it owed
    ///    is one or the other. When a new run has no run of its version with
    ///    fewer processors, every run of the version re-evaluates the
    ///    properties that read other runs — the reference configuration
    ///    (and the `UNIQUE` min-PE selection) changed;
    /// 4. a fact of set `S` at the ranking basis re-bases run `t` — every
    ///    context — for the properties that read `S` of the basis, and
    ///    every run for those that read it in other runs;
    /// 5. a basis *identity* other than the one the version's kept
    ///    [`VersionContext`] was derived under (a `main` function announced
    ///    late) re-bases the whole version, as does having no kept context.
    ///
    /// A property whose reads the summary does not classify (it navigates
    /// to a parent region, a caller, …) is re-evaluated in full in every
    /// run of each version a fact, a new run or new structure touched. A
    /// region or call site at or past the kept context's structure counts
    /// is evaluated in every run of its version. Whatever the reader lists
    /// hold, a run whose header can move is listed, its scope empty if no
    /// rule re-evaluates anything there: every run of the version when a
    /// new run has its fewest processors (rule 3), its structure grew or
    /// its basis moved (rule 5), and run `t` when a total of the basis
    /// arrived in `t`. A version that keeps no context — every version of
    /// a session's first flush — rule 3 re-evaluates whole: the other rules
    /// have nothing to add, and its facts are not visited.
    ///
    /// Rules 2 and 3 look at the store as the delta left it, not as each
    /// event found it. They select the same contexts — a min-PE record of
    /// the end state was upserted in the delta iff some event in it
    /// undercut the minimum of its time — with one exception: when the
    /// *first* totals of a region arrive, fewest processors first, inside
    /// one delta, event-time tracking never saw a minimum undercut while
    /// rule 2 spreads the region to the version's other runs too, for the
    /// readers of the selected run that require a total of their own.
    /// Those runs have none, so the added instances evaluate to "not
    /// applicable": the reports are identical, the work counters are not.
    fn invalidated(&self, store: &Store, delta: &StoreDelta) -> Scopes {
        let version_of = |run: TestRunId| store.runs[run.index()].version;
        let no_pe = |run: TestRunId| store.runs[run.index()].no_pe;
        let runs_of = |v: VersionId| store.versions[v.index()].runs.iter().copied();
        let readers = &self.readers;
        let spec_len = readers.every.len();
        // Every version the delta touches takes part.
        let fact_runs = (delta.totals.keys().chain(delta.typed.keys())).chain(delta.calls.keys());
        let touched = (fact_runs.chain(&delta.new_runs).map(|&run| version_of(run)))
            .chain(delta.grown_versions.iter().copied());
        let mut scopes = Scopes::new();
        touched.for_each(|v| _ = scopes.entry(v).or_default());
        // List `run` of version `v`, or every run of it, and re-evaluate
        // `properties` at `context` there.
        let mut dirty = |v: VersionId, run: Option<TestRunId>, properties: &[u16], context| {
            let runs = scopes.get_mut(&v).expect("a touched version");
            match run {
                Some(run) => mark(runs, run, properties, context, spec_len),
                None => runs_of(v).for_each(|r| mark(runs, r, properties, context, spec_len)),
            }
        };
        // Rule 3 for new runs; a version without a kept context is re-based
        // whole below.
        for &run in &delta.new_runs {
            let v = version_of(run);
            if !self.reports.contains_key(&run) {
                dirty(v, Some(run), &readers.every, Context::All);
            }
            if store.min_pe_of_version(v) == Some(no_pe(run)) {
                dirty(v, None, &readers.elsewhere, Context::All);
            }
        }

        // Rules 1, 2 and 4, fact by fact. The fewest processors of a run
        // other than `run` holding a record of `set` at `context`, if any:
        let least_other = |set, context, run| {
            let (regions, calls) = (&store.regions, &store.calls);
            let holders: &mut dyn Iterator<Item = _> = match (set, context) {
                (Measurements::TotTimes, Context::Region(r)) => &mut (regions[r.index()].tot_times)
                    .iter()
                    .map(|t| store.total_timings[t.index()].run),
                (Measurements::TypTimes, Context::Region(r)) => &mut (regions[r.index()].typ_times)
                    .iter()
                    .map(|t| store.typed_timings[t.index()].run),
                (Measurements::Sums, Context::Call(c)) => &mut (calls[c.index()].sums)
                    .iter()
                    .map(|s| store.call_timings[s.index()].run),
                // A set its context does not have: no run holds a record.
                _ => &mut std::iter::empty(),
            };
            holders.filter(|&holder| holder != run).map(no_pe).min()
        };
        let mut facts = |set: Measurements, run, contexts: &mut dyn Iterator<Item = Context>| {
            let v = version_of(run);
            if !self.contexts.contains_key(&v) {
                return;
            }
            let basis = store.main_region(v).map(Context::Region);
            for context in contexts {
                // A total of the basis moves the run's basis duration.
                if set == Measurements::TotTimes && Some(context) == basis {
                    dirty(v, Some(run), &[], Context::All);
                }
                // A fact at the basis reaches every context of its readers.
                let owners = [(Owner::Subject, context), (Owner::Basis, Context::All)];
                for (owner, reached) in owners {
                    if owner == Owner::Basis && Some(context) != basis {
                        continue;
                    }
                    for runs in Runs::ALL {
                        let properties = &readers.by_bit[ReadSet::bit(owner, set, runs)];
                        if properties.is_empty() {
                            continue;
                        }
                        dirty(v, Some(run), properties, reached);
                        let elsewhere: Cow<[u16]> = match runs {
                            Runs::Analyzed => continue,
                            Runs::Others => properties.into(),
                            Runs::Selected(by) => match least_other(by, context, run) {
                                Some(least) if no_pe(run) > least => continue,
                                Some(_) => properties.into(),
                                None => {
                                    let requiring = &readers.by_bit[ReadSet::own_bit(by)];
                                    let applicable = properties.iter().copied();
                                    applicable
                                        .filter(|p| requiring.binary_search(p).is_err())
                                        .collect()
                                }
                            },
                        };
                        if !elsewhere.is_empty() {
                            dirty(v, None, &elsewhere, reached);
                        }
                    }
                }
            }
        };
        for (set, by_run) in [
            (Measurements::TotTimes, &delta.totals),
            (Measurements::TypTimes, &delta.typed),
        ] {
            for (&run, regions) in by_run {
                facts(set, run, &mut regions.iter().copied().map(Context::Region));
            }
        }
        for (&run, calls) in &delta.calls {
            let mut calls = calls.iter().copied().map(Context::Call);
            facts(Measurements::Sums, run, &mut calls);
        }

        for (&v, runs) in &mut scopes {
            let mut everywhere = |properties: &[u16], context| {
                runs_of(v).for_each(|r| mark(runs, r, properties, context, spec_len));
            };
            // Rules 3 and 5, and the contexts the kept context has not seen.
            match self.contexts.get(&v).map(|kept| kept.derived_under()) {
                Some((basis, (regions, calls))) if store.main_region(v) == Some(basis) => {
                    if !readers.unclassified.is_empty() {
                        everywhere(&readers.unclassified, Context::All);
                    }
                    let functions = store.versions[v.index()].functions.iter();
                    for f in functions.map(|f| &store.functions[f.index()]) {
                        let new_regions = (f.regions.iter().copied())
                            .filter(|&r| store.region_local(r, v) >= Some(regions));
                        let new_calls = (f.calls.iter().copied())
                            .filter(|&c| store.call_local(c, v) >= Some(calls));
                        for context in
                            (new_regions.map(Context::Region)).chain(new_calls.map(Context::Call))
                        {
                            everywhere(&readers.every, context);
                        }
                    }
                }
                _ => everywhere(&readers.every, Context::All),
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
        // One binding serves every version: the store does not change
        // during a flush. Made on first use, so a flush with no run to
        // evaluate binds (and can fail to bind) nothing.
        let mut bound = None;

        for (v, runs) in scopes.into_iter().filter(|(_, runs)| !runs.is_empty()) {
            let analyzer = match Analyzer::with_compiled(
                store,
                v,
                Arc::clone(&spec),
                Arc::clone(&self.compiled),
            ) {
                Ok(a) => match self.contexts.get(&v) {
                    Some(context) => a.with_context(Arc::clone(context)),
                    None => a,
                },
                // No structure yet: its runs hold no report, so the flush
                // its structure arrives in evaluates them in full.
                Err(SpecError::NoMainRegion) => continue,
                Err(e) => return Err(e.into()),
            };

            let mut clock = PhaseClock::start(self.metrics.as_ref().map(|m| &m.phases));
            // Runs in turn, on the flush's thread: shards are what runs in
            // parallel (`ShardedSession`).
            for (&run, scope) in &runs {
                let held = match self.reports.get(&run) {
                    // Nothing to re-evaluate: only the header can have moved.
                    Some(_) if scope.iter().all(ContextScope::is_empty) => None,
                    live => {
                        let prepared = match &bound {
                            Some(prepared) => prepared,
                            None => bound.insert(PreparedBackend::from_compiled(
                                Arc::clone(&self.compiled),
                                store,
                            )?),
                        };
                        let instances = analyzer.instances_scoped(run, scope);
                        clock.lap(0);
                        let outcomes = analyzer.evaluate_instances(prepared, &instances)?;
                        clock.lap(1);

                        for instance in instances.iter() {
                            property_counts[instance.property as usize] += 1;
                        }
                        let full = scope.iter().all(|s| *s == ContextScope::All);
                        self.stats.full_reevaluations += u64::from(full);
                        self.stats.instances_evaluated += instances.len() as u64;
                        self.stats.runs_reevaluated += 1;
                        // The report's entries outside the scope still hold;
                        // every entry inside it was just evaluated again.
                        // Both lists are in rank order, so they merge in one
                        // pass.
                        let mut fresh: Vec<HeldEntry> = outcomes.into_iter().flatten().collect();
                        analyzer.rank(&mut fresh);
                        Some(match live.filter(|_| !full) {
                            Some(live) => {
                                let families = analyzer.families();
                                let kept = live.held.iter().copied().filter(|h| {
                                    let p = h.property as usize;
                                    !families[p].in_scope(&scope[p], h.subject)
                                });
                                analyzer.merge_ranked(kept, fresh)
                            }
                            None => fresh,
                        })
                    }
                };
                match self.reports.get_mut(&run) {
                    // The same entries, or none evaluated: only what the
                    // report reads off the store can have moved.
                    Some(live) if held.as_ref().is_none_or(|held| *held == live.held) => {
                        if analyzer.refresh_header(run, &mut live.report) {
                            updated.push(run);
                        }
                    }
                    _ => {
                        let held = held.expect("a run without a report is evaluated");
                        let skipped = analyzer.instance_universe() - held.len();
                        let report = analyzer.ranked_report(run, &held, self.threshold, skipped);
                        self.reports.insert(run, Live { report, held });
                        updated.push(run);
                    }
                }
                clock.lap(2);
            }
            // Only now: had an evaluation above failed, the retried delta
            // must still find the old basis and structure, and re-base the
            // version or evaluate its new contexts.
            self.contexts.insert(v, analyzer.context());
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
    use crate::test_events::{call_stat, exited, region_entered, run_started, typed};
    use cosy::RankedEntry;
    use perfdata::{IdSet, TimingType};

    const MAIN: (&str, u32) = ("main", 1);
    const LOOP: (&str, u32) = ("main:loop@10", 10);

    /// The standard properties that read their subject's total timings,
    /// those that read another run's (the min-PE total), and those that
    /// read typed timings.
    const TOTALS: [&str; 3] = ["SublinearSpeedup", "MeasuredCost", "UnmeasuredCost"];
    const MIN_PE: [&str; 2] = ["SublinearSpeedup", "UnmeasuredCost"];
    const TYPED: [&str; 7] = [
        "SyncCost",
        "MessagePassingCost",
        "CollectiveCost",
        "OneSidedCost",
        "IoCost",
        "BufferCost",
        "RuntimeOverhead",
    ];
    const CALLS: [&str; 2] = ["LoadImbalance", "FrequentFineGrainCalls"];

    /// Apply `events`; the facts they left behind.
    fn apply(b: &mut StoreBuilder, events: &[TraceEvent]) -> StoreDelta {
        let mut delta = StoreDelta::new();
        for event in events {
            b.apply(event, &mut delta).unwrap();
        }
        delta
    }

    /// Version 9 of `app` with `main` and a loop in it, and one run per
    /// processor count (run key = position + 1), flushed once by an
    /// analyzer of `spec`: every context is one it has seen.
    fn seen_by(spec: Arc<CheckedSpec>, pes: &[u32]) -> (StoreBuilder, IncrementalAnalyzer) {
        let mut b = StoreBuilder::new();
        let mut events: Vec<TraceEvent> = (1u64..)
            .zip(pes)
            .map(|(key, pe)| run_started(key, 9, *pe))
            .collect();
        events.push(region_entered(1, "main", MAIN.0, None, MAIN.1));
        events.push(region_entered(1, "main", LOOP.0, Some(MAIN), LOOP.1));
        let delta = apply(&mut b, &events);
        let mut a = IncrementalAnalyzer::with_spec(spec, ProblemThreshold::default());
        a.flush(b.store(), &delta).unwrap();
        (b, a)
    }

    fn version_with_runs(pes: &[u32]) -> (StoreBuilder, IncrementalAnalyzer) {
        seen_by(Arc::new(cosy::standard_suite()), pes)
    }

    fn standard() -> IncrementalAnalyzer {
        IncrementalAnalyzer::new(ProblemThreshold::default())
    }

    /// The standard suite and `examples/specs/io_contention.asl`.
    fn with_io_contention() -> Arc<CheckedSpec> {
        let src = format!(
            "{}\n{}",
            cosy::standard_suite_source(),
            include_str!("../../../examples/specs/io_contention.asl")
        );
        Arc::new(asl_core::parse_and_check(&src).expect("custom suite"))
    }

    /// What one run re-evaluates, as the tests state it.
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        /// Every property everywhere.
        Full,
        /// These properties, each in this scope.
        Only(Vec<(String, ContextScope)>),
    }

    /// `properties`, each in `scope`.
    fn only(properties: &[&str], scope: &ContextScope) -> Seen {
        let each = properties.iter().map(|p| (p.to_string(), scope.clone()));
        Seen::Only(each.collect())
    }

    /// Every property of `a`'s spec in `scope`: what a context the
    /// analyzer has not seen yet re-evaluates in each run.
    fn every(a: &IncrementalAnalyzer, scope: &ContextScope) -> Seen {
        let names = a.spec.properties().iter().map(|p| p.name.name.as_str());
        only(&names.collect::<Vec<_>>(), scope)
    }

    /// `scopes` as `(run key, what the run re-evaluates)` pairs of its
    /// only version, version 9.
    fn of_version_9(a: &IncrementalAnalyzer, b: &StoreBuilder, scopes: Scopes) -> Vec<(u64, Seen)> {
        let v = b.version_id(VersionTag(9)).unwrap();
        assert!(scopes.keys().eq([&v]), "{scopes:?}");
        let key = |run| b.run_key_of(run).unwrap().0;
        let names = || a.spec.properties().iter().map(|p| p.name.name.clone());
        let seen = |scope: &RunScope| match scope.iter().all(|s| *s == ContextScope::All) {
            true => Seen::Full,
            false => {
                let scoped = names().zip(scope.iter().cloned());
                Seen::Only(scoped.filter(|(_, s)| !s.is_empty()).collect())
            }
        };
        scopes[&v].iter().map(|(r, s)| (key(*r), seen(s))).collect()
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

    /// Rule 3: a run with fewer processors than any before it changes the
    /// reference configuration of every run — for what reads other runs.
    #[test]
    fn smaller_pe_run_reevaluates_what_reads_other_runs() {
        let (mut b, mut a) = version_with_runs(&[8]);
        let smaller = apply(&mut b, &[run_started(2, 9, 2)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &smaller)),
            [(1, only(&MIN_PE, &ContextScope::All)), (2, Seen::Full)]
        );
        a.flush(b.store(), &smaller).unwrap();
        // A larger run does not.
        let larger = apply(&mut b, &[run_started(3, 9, 16)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &larger)),
            [(3, Seen::Full)]
        );
    }

    /// Rules 1 and 2: a total re-evaluates the readers of totals in its
    /// own run, and — when it is the region's min-PE total — the readers
    /// of other runs' totals in every run.
    #[test]
    fn min_pe_total_dirties_region_in_all_runs() {
        let (mut b, a) = version_with_runs(&[2, 8, 4]);
        let looped = dirty_region(&b, "main", LOOP);
        // First total of the region: no other totals, only locally dirty.
        let first = apply(&mut b, &[exited(2, "main", LOOP, 12.0)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &first)),
            [(2, only(&TOTALS, &looped))]
        );
        // A total from the 2-PE run undercuts the 8-PE record: dirty
        // everywhere, the run without a total included.
        let min = apply(&mut b, &[exited(1, "main", LOOP, 10.0)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &min)),
            [
                (1, only(&TOTALS, &looped)),
                (2, only(&MIN_PE, &looped)),
                (3, only(&MIN_PE, &looped)),
            ]
        );
        // Correcting the 8-PE total leaves the minimum alone.
        let other = apply(&mut b, &[exited(2, "main", LOOP, 11.0)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &other)),
            [(2, only(&TOTALS, &looped))]
        );
    }

    /// The corner where looking at the end state differs from tracking
    /// each event: a region's first totals arrive fewest-processors-first
    /// in one delta. No event undercut a minimum, yet the region is dirty
    /// in the run that has no total of it (and cannot hold there).
    #[test]
    fn first_totals_min_pe_first_in_one_delta() {
        let (mut b, a) = version_with_runs(&[2, 8, 4]);
        let looped = dirty_region(&b, "main", LOOP);
        let both = apply(
            &mut b,
            &[exited(1, "main", LOOP, 10.0), exited(2, "main", LOOP, 12.0)],
        );
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &both)),
            [
                (1, only(&TOTALS, &looped)),
                (2, only(&TOTALS, &looped)),
                (3, only(&MIN_PE, &looped)),
            ]
        );
    }

    /// Rule 1 for call statistics: the readers of `Sums`, at the call.
    #[test]
    fn call_statistic_dirties_its_call_for_the_call_readers() {
        let (mut b, mut a) = version_with_runs(&[2, 8]);
        let stat = apply(&mut b, &[call_stat(2, "main", LOOP)]);
        // The call site is new structure: the first flush evaluates it in
        // every run. Once seen, a statistic of it reaches its readers only.
        assert_eq!(b.store().calls.len(), 1);
        let call = ContextScope::Dirty {
            regions: IdSet::default(),
            calls: IdSet::from_iter([CallId(0)]),
        };
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &stat)),
            [1, 2].map(|key| (key, every(&a, &call)))
        );
        a.flush(b.store(), &stat).unwrap();
        let again = apply(&mut b, &[call_stat(2, "main", LOOP)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &again)),
            [(2, only(&CALLS, &call))]
        );
    }

    /// Rule 4: a fact at the ranking basis re-bases its run for the
    /// properties that read that set of the basis. Every standard property
    /// reads the basis total (`Duration(Basis, t)`); none reads its typed
    /// timings, so a typed sample at `main` reaches only the seven typed
    /// readers, at `main`.
    #[test]
    fn basis_timing_rebases_its_run() {
        let (mut b, a) = version_with_runs(&[2, 8]);
        let main = dirty_region(&b, "main", MAIN);
        // A typed timing of `main`, the basis, in the 8-PE run.
        let sample = apply(&mut b, &[typed(2, "main", MAIN)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &sample)),
            [(2, only(&TYPED, &main))]
        );
        // A min-PE total of the basis re-bases its own run in full, and
        // reaches the min-PE readers at `main` in the other.
        apply(&mut b, &[exited(2, "main", MAIN, 12.0)]);
        let total = apply(&mut b, &[exited(1, "main", MAIN, 10.0)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &total)),
            [(1, Seen::Full), (2, only(&MIN_PE, &main))]
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
            of_version_9(&a, &b, a.invalidated(b.store(), &late)),
            [(1, Seen::Full), (2, Seen::Full)]
        );
        // Once evaluated against `main`, more structure re-bases nothing:
        // every run evaluates the new context, and only it.
        a.flush(b.store(), &late).unwrap();
        let more = apply(
            &mut b,
            &[region_entered(2, "main", LOOP.0, Some(MAIN), LOOP.1)],
        );
        let looped = dirty_region(&b, "main", LOOP);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &more)),
            [1, 2].map(|key| (key, every(&a, &looped)))
        );
        a.flush(b.store(), &more).unwrap();
        assert_eq!(of_version_9(&a, &b, a.invalidated(b.store(), &more)), []);
    }

    /// Rule 5 compares with the basis the version was last *evaluated*
    /// against — its kept context's: a flush that fails on the way leaves
    /// the re-base owed.
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
        let whole_version = [(1, Seen::Full), (2, Seen::Full)];
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &late)),
            whole_version
        );
        a.flush(b.store(), &late).unwrap_err();
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &late)),
            whole_version
        );
    }

    /// Rule 3: a run whose version has no ranking basis yet holds no
    /// report, and is owed a full evaluation until its structure arrives.
    #[test]
    fn version_without_main_region_waits_for_structure() {
        let mut b = StoreBuilder::new();
        let mut a = standard();
        let started = apply(&mut b, &[run_started(1, 9, 4)]);
        let run = b.run_id(RunKey(1)).unwrap();
        assert_eq!(a.flush(b.store(), &started).unwrap(), []);
        assert!(a.report(run).is_none());
        let nothing = StoreDelta::new();
        assert_eq!(a.flush(b.store(), &nothing).unwrap(), []);
        assert!(a.report(run).is_none());
        // The flush after structure arrives evaluates it, once.
        let structure = apply(&mut b, &[region_entered(1, "main", MAIN.0, None, MAIN.1)]);
        assert_eq!(a.flush(b.store(), &structure).unwrap(), [run]);
        assert!(a.report(run).is_some());
        assert_eq!(a.stats().full_reevaluations, 1);
        assert!(a.invalidated(b.store(), &nothing).is_empty());
    }

    /// The extended suite is invalidated by the same derived rules as the
    /// standard one, min-PE narrowing included: `IoContention` reads the
    /// region's min-PE total and the typed timings of its run, so a total
    /// or a typed timing of a run that cannot be the min-PE run reaches
    /// that run only. The region's first total reaches `IoContention`
    /// everywhere — it does not require a total of its own run — and not
    /// the two standard readers of the min-PE total, which do.
    #[test]
    fn extended_spec_keeps_the_min_pe_narrowing() {
        let (mut b, mut a) = seen_by(with_io_contention(), &[2, 8, 4]);
        let looped = dirty_region(&b, "main", LOOP);
        let with = |names: &[&'static str]| [names, &["IoContention"]].concat();
        // The region's first total, of the 2-PE run.
        let first = apply(&mut b, &[exited(1, "main", LOOP, 10.0)]);
        let elsewhere = only(&["IoContention"], &looped);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &first)),
            [
                (1, only(&with(&TOTALS), &looped)),
                (2, elsewhere.clone()),
                (3, elsewhere),
            ]
        );
        a.flush(b.store(), &first).unwrap();
        // A total that is not the region's minimum.
        let total = apply(&mut b, &[exited(2, "main", LOOP, 12.0)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &total)),
            [(2, only(&with(&TOTALS), &looped))]
        );
        a.flush(b.store(), &total).unwrap();
        // A typed timing of a run that is not the min-PE run.
        let sample = apply(&mut b, &[typed(3, "main", LOOP)]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &sample)),
            [(3, only(&with(&TYPED), &looped))]
        );
        a.flush(b.store(), &sample).unwrap();
        // Another version is not touched.
        let elsewhere = apply(&mut b, &[run_started(4, 10, 1)]);
        let scopes = a.invalidated(b.store(), &elsewhere);
        let v10 = b.version_id(VersionTag(10)).unwrap();
        assert!(scopes.keys().eq([&v10]), "{scopes:?}");
    }

    /// An I/O sample of the loop in run `key`.
    fn io(key: u64, time: f64) -> TraceEvent {
        let mut event = typed(key, "main", LOOP);
        if let TraceEvent::TypedSample { ty, time: t, .. } = &mut event {
            (*ty, *t) = (TimingType::IoRead, time);
        }
        event
    }

    /// `a`'s reports are those of one flush over `b`'s store.
    fn as_one_flush(a: &IncrementalAnalyzer, b: &StoreBuilder) {
        let mut once = IncrementalAnalyzer::with_spec(a.spec(), ProblemThreshold::default());
        once.flush(b.store(), &b.all_new()).unwrap();
        for (run, report) in a.reports() {
            assert_eq!(once.report(run), Some(report));
        }
    }

    /// Rule 2's last branch: a run holds I/O samples of the loop and no
    /// total of it. When the loop's first total lands in another run, that
    /// total is the min-PE total, and `IoContention` — which does not read
    /// the analyzed run's total — becomes evaluable, and holds, in the run
    /// without one.
    #[test]
    fn a_first_total_reaches_a_run_without_one() {
        let (mut b, mut a) = seen_by(with_io_contention(), &[2, 8]);
        let measured = apply(
            &mut b,
            &[
                exited(1, "main", MAIN, 40.0),
                exited(2, "main", MAIN, 30.0),
                io(1, 1.0),
                io(2, 8.0),
            ],
        );
        a.flush(b.store(), &measured).unwrap();
        let wider = b.run_id(RunKey(2)).unwrap();
        let contended = |a: &IncrementalAnalyzer| {
            let held = |e: &RankedEntry| e.property == "IoContention" && e.context.label == LOOP.0;
            a.report(wider).unwrap().entries.iter().any(held)
        };
        assert!(!contended(&a));

        let first = apply(&mut b, &[exited(1, "main", LOOP, 20.0)]);
        let looped = dirty_region(&b, "main", LOOP);
        let mut totals = TOTALS.to_vec();
        totals.push("IoContention");
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &first)),
            [
                (1, only(&totals, &looped)),
                (2, only(&["IoContention"], &looped)),
            ]
        );
        a.flush(b.store(), &first).unwrap();
        assert!(contended(&a));
        as_one_flush(&a, &b);
    }

    /// Correcting the I/O time of a run that is not the min-PE run
    /// re-evaluates `IoContention` in that run only, beside the typed
    /// readers: no other run reads its typed timings.
    #[test]
    fn io_correction_of_another_run_stays_in_it() {
        let (mut b, mut a) = seen_by(with_io_contention(), &[2, 8, 4]);
        let mut measured = Vec::new();
        for (key, io_time) in [(1, 1.0), (2, 8.0), (3, 3.0)] {
            measured.push(exited(key, "main", MAIN, 40.0));
            measured.push(exited(key, "main", LOOP, 20.0));
            measured.push(io(key, io_time));
        }
        let measured = apply(&mut b, &measured);
        a.flush(b.store(), &measured).unwrap();

        let correction = apply(&mut b, &[io(2, 2.0)]);
        let mut typed_readers = TYPED.to_vec();
        typed_readers.push("IoContention");
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &correction)),
            [(2, only(&typed_readers, &dirty_region(&b, "main", LOOP)))]
        );
        let run = b.run_id(RunKey(2)).unwrap();
        let before = a.report(run).unwrap().clone();
        assert_eq!(a.flush(b.store(), &correction).unwrap(), [run]);
        assert_ne!(a.report(run), Some(&before));
        as_one_flush(&a, &b);
    }

    /// ROADMAP item 1's exit: under `io_contention.asl`, correcting the
    /// min-PE run's I/O time re-evaluates the contexts the read-sets name —
    /// the region, for the typed readers in the corrected run and for
    /// `IoContention` everywhere — and not the whole version. The reports
    /// are those of one flush over the same store.
    #[test]
    fn io_contention_correction_reevaluates_only_what_reads_it() {
        let (mut b, mut a) = seen_by(with_io_contention(), &[2, 8, 4]);
        let io = |key: u64, time: f64| {
            let mut event = typed(key, "main", LOOP);
            if let TraceEvent::TypedSample { ty, time: t, .. } = &mut event {
                (*ty, *t) = (TimingType::IoRead, time);
            }
            event
        };
        let mut measured = vec![exited(1, "main", MAIN, 40.0), exited(1, "main", LOOP, 20.0)];
        for key in [2, 3] {
            measured.push(exited(key, "main", MAIN, 30.0));
            measured.push(exited(key, "main", LOOP, 15.0));
            measured.push(io(key, 8.0));
        }
        measured.push(io(1, 1.0));
        let measured = apply(&mut b, &measured);
        a.flush(b.store(), &measured).unwrap();
        let others = [2, 3].map(|key| b.run_id(RunKey(key)).unwrap());
        let held = |a: &IncrementalAnalyzer| {
            others.map(|run| {
                let entries = a.report(run).unwrap().entries.iter();
                let held = entries.filter(|e| e.property == "IoContention");
                held.map(|e| e.severity).collect::<Vec<_>>()
            })
        };
        let before = held(&a);
        assert!(before.iter().all(|h| h.len() == 1), "{before:?}");

        let full = a.stats().full_reevaluations;
        let correction = apply(&mut b, &[io(1, 2.0)]);
        let looped = dirty_region(&b, "main", LOOP);
        let elsewhere = only(&["IoContention"], &looped);
        let mut typed_readers = TYPED.to_vec();
        typed_readers.push("IoContention");
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &correction)),
            [
                (1, only(&typed_readers, &looped)),
                (2, elsewhere.clone()),
                (3, elsewhere),
            ]
        );
        a.flush(b.store(), &correction).unwrap();
        assert_eq!(a.stats().full_reevaluations, full);
        assert_ne!(
            held(&a),
            before,
            "moved in the runs it was not addressed to"
        );

        let mut once = IncrementalAnalyzer::with_spec(a.spec(), ProblemThreshold::default());
        once.flush(b.store(), &b.all_new()).unwrap();
        for (run, report) in a.reports() {
            assert_eq!(once.report(run), Some(report));
        }
    }

    /// A correction inside a dirty scope that makes an entry stop holding:
    /// the entry leaves the report, its instance counts as skipped, and
    /// the report is the one a single flush over the same store makes.
    #[test]
    fn correction_drops_an_entry_that_stops_holding() {
        let (mut b, mut a) = version_with_runs(&[2]);
        let measured = apply(
            &mut b,
            &[
                exited(1, "main", MAIN, 10.0),
                exited(1, "main", LOOP, 5.0),
                typed(1, "main", LOOP),
            ],
        );
        let run = b.run_id(RunKey(1)).unwrap();
        assert_eq!(a.flush(b.store(), &measured).unwrap(), [run]);
        let before = a.report(run).unwrap().clone();
        let sync_cost = |report: &AnalysisReport| {
            let held = |e: &RankedEntry| e.property == "SyncCost" && e.context.label == LOOP.0;
            report.entries.iter().any(held)
        };
        assert!(sync_cost(&before));

        let mut no_barrier = typed(1, "main", LOOP);
        if let TraceEvent::TypedSample { time, .. } = &mut no_barrier {
            *time = 0.0;
        }
        let correction = apply(&mut b, &[no_barrier]);
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &correction)),
            [(1, only(&TYPED, &dirty_region(&b, "main", LOOP)))]
        );
        assert_eq!(a.flush(b.store(), &correction).unwrap(), [run]);
        let after = a.report(run).unwrap();
        assert!(!sync_cost(after));
        assert_eq!(after.entries.len() + 1, before.entries.len());
        assert_eq!(after.skipped, before.skipped + 1);

        let mut once = standard();
        once.flush(b.store(), &b.all_new()).unwrap();
        assert_eq!(once.report(run), Some(after));
    }

    #[test]
    fn recovered_store_is_evaluated_in_full() {
        let (mut b, _) = version_with_runs(&[2, 8, 4]);
        apply(&mut b, &[exited(2, "main", LOOP, 12.0)]);
        let a = standard();
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &b.all_new())),
            [1, 2, 3].map(|key| (key, Seen::Full))
        );
    }

    /// One version of `n` runs of the particle archetype (PEs 1, then 2 to
    /// 30 over and over), replayed and flushed at once, and the facts of a
    /// correction halving the last run's last typed sample.
    fn corrected_history(n: u32) -> (StoreBuilder, IncrementalAnalyzer, StoreDelta) {
        use apprentice_sim::{archetypes, simulate_program, MachineModel};
        let pes: Vec<u32> = (0..n)
            .map(|i| if i == 0 { 1 } else { 2 + (i - 1) % 29 })
            .collect();
        let mut store = Store::new();
        let model = archetypes::particle_mc(42);
        simulate_program(&mut store, &model, &MachineModel::t3e_900(), &pes);
        let mut b = StoreBuilder::new();
        let mut a = standard();
        let bulk = apply(&mut b, &crate::replay::replay_store(&store));
        a.flush(b.store(), &bulk).unwrap();
        assert_eq!(a.reports().count(), n as usize);
        let events = crate::replay::events_for_run(&store, TestRunId(n - 1));
        let mut halved = (events.into_iter())
            .rfind(|e| matches!(e, TraceEvent::TypedSample { .. }))
            .unwrap();
        if let TraceEvent::TypedSample { time, .. } = &mut halved {
            *time *= 0.5;
        }
        let correction = apply(&mut b, &[halved]);
        (b, a, correction)
    }

    /// A one-sample correction lists its run alone, with the scopes of the
    /// seven typed readers, however long the version's history: at 4 runs
    /// and at 256 the same list, and the flush evaluates one run and seven
    /// instances.
    #[test]
    fn a_correction_lists_its_run_alone_at_any_history() {
        let listed = |n: u32| {
            let (b, mut a, correction) = corrected_history(n);
            let last = b.run_id(RunKey(u64::from(n) - 1)).unwrap();
            let scopes = a.invalidated(b.store(), &correction);
            let runs: Vec<(TestRunId, RunScope)> = scopes.into_values().flatten().collect();
            assert_eq!(runs.iter().map(|(run, _)| *run).collect::<Vec<_>>(), [last]);
            let before = a.stats();
            a.flush(b.store(), &correction).unwrap();
            let after = a.stats();
            assert_eq!(after.runs_reevaluated - before.runs_reevaluated, 1);
            assert_eq!(after.instances_evaluated - before.instances_evaluated, 7);
            let names = a.spec.properties().iter().map(|p| p.name.name.clone());
            let scoped = names.zip(runs[0].1.iter()).filter(|(_, s)| !s.is_empty());
            assert!(scoped.map(|(p, _)| p).eq(TYPED), "n = {n}");
            runs
        };
        assert_eq!(listed(4)[0].1, listed(256)[0].1);
    }

    /// A late 1-PE run moves the reference configuration in every report
    /// of its version. Under a spec whose one property reads no other run,
    /// every run is listed all the same, the older ones with nothing to
    /// re-evaluate, and the flush brings their headers up to date.
    #[test]
    fn a_late_reference_run_lists_every_run() {
        let src = format!(
            "{}\nProperty SyncCost(Region r, TestRun t, Region Basis) {{\n\
             LET float B = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t \
             AND tt.Type == Barrier) IN CONDITION: B > 0; CONFIDENCE: 1; \
             SEVERITY: B / Duration(Basis,t); }}",
            asl_eval::COSY_DATA_MODEL
        );
        let spec = Arc::new(asl_core::parse_and_check(&src).unwrap());
        let (mut b, mut a) = seen_by(spec, &[4, 16]);
        let late = apply(&mut b, &[run_started(3, 9, 1)]);
        let nothing = Seen::Only(Vec::new());
        assert_eq!(
            of_version_9(&a, &b, a.invalidated(b.store(), &late)),
            [(1, nothing.clone()), (2, nothing), (3, Seen::Full)]
        );
        let runs = a.stats().runs_reevaluated;
        assert_eq!(a.flush(b.store(), &late).unwrap().len(), 3);
        assert_eq!(a.stats().runs_reevaluated, runs + 1);
        as_one_flush(&a, &b);
    }
}
