//! Context enumeration, parallel property evaluation, ranking and
//! bottleneck detection.

use crate::backend::{Backend, PreparedBackend};
use crate::error::{AnalysisError, SpecError};
use crate::suite::{standard_suite, SUITE};
use asl_core::ast::{PropertyDecl, TypeExprKind};
use asl_core::check::CheckedSpec;
use asl_eval::{compile as compile_ir, CompiledSpec, Scratch, Value};
use perfdata::{CallId, IdSet, RegionId, Store, TestRunId, VersionId};
use rayon::prelude::*;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Severity threshold above which a property is a *performance problem*
/// (§4: "A performance property is a performance problem, iff its severity
/// is greater than a user- or tool-defined threshold").
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ProblemThreshold(pub f64);

impl Default for ProblemThreshold {
    fn default() -> Self {
        // 5% of the ranking basis duration.
        ProblemThreshold(0.05)
    }
}

/// A property name or a context label: immutable text shared by every
/// entry that carries it. A report names a dozen properties and a few
/// hundred contexts across thousands of entries, so entries hold a
/// reference — cloning an entry, a report or a whole report map copies no
/// text. Reads as a `str`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Name(Arc<str>);

impl Name {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(s.into())
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(s.into())
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The context a property instance was evaluated in.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContextDesc {
    /// Region context, if region-based.
    pub region: Option<u32>,
    /// Call-site context, if call-based.
    pub call: Option<u32>,
    /// The analyzed test run.
    pub run: u32,
    /// Human-readable label (region name or call description).
    pub label: Name,
}

/// One ranked analysis result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RankedEntry {
    /// Rank (1-based, by decreasing severity).
    pub rank: usize,
    /// Property name.
    pub property: Name,
    /// Evaluation context.
    pub context: ContextDesc,
    /// Severity (fraction of the basis duration).
    pub severity: f64,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// True if severity exceeds the problem threshold.
    pub is_problem: bool,
}

/// A complete COSY analysis of one test run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalysisReport {
    /// Program name.
    pub program: String,
    /// Analyzed run's processor count.
    pub no_pe: u32,
    /// Reference run's processor count (smallest configuration).
    pub reference_pe: u32,
    /// Duration of the ranking basis region in the analyzed run (summed
    /// over processes, seconds).
    pub basis_duration: f64,
    /// Total cost of the run: lost cycles vs the reference run, relative to
    /// the basis duration (the severity of `SublinearSpeedup` on the basis
    /// region — "the main property is the total cost of the test run").
    pub total_cost: f64,
    /// The problem threshold used.
    pub threshold: ProblemThreshold,
    /// Entries holding with severity > 0, ranked by decreasing severity.
    pub entries: Vec<RankedEntry>,
    /// Contexts skipped as not applicable.
    pub skipped: usize,
}

impl AnalysisReport {
    /// The program's unique bottleneck: its most severe property (§4).
    /// `None` when nothing held.
    pub fn bottleneck(&self) -> Option<&RankedEntry> {
        self.entries.first()
    }

    /// Entries above the problem threshold.
    pub fn problems(&self) -> impl Iterator<Item = &RankedEntry> {
        self.entries.iter().filter(|e| e.is_problem)
    }

    /// §4: "If this bottleneck is not a performance problem, the program
    /// does not need any further tuning."
    pub fn needs_tuning(&self) -> bool {
        self.bottleneck().is_some_and(|b| b.is_problem)
    }
}

/// One property instance that held, before ranking. The shared currency of
/// the batch analyzer and the incremental online engine (`cosy-online`):
/// both produce `HeldEntry` values through the same evaluation path and
/// feed them to [`Analyzer::assemble_report`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HeldEntry {
    /// Property name.
    pub property: Name,
    /// Evaluation context.
    pub context: ContextDesc,
    /// Severity (fraction of the basis duration).
    pub severity: f64,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Which contexts of a run to enumerate: everything (batch analysis) or
/// only a dirty subset (incremental re-analysis after a store delta).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ContextScope {
    /// All regions and call sites of the version.
    #[default]
    All,
    /// Only the listed regions and call sites.
    Dirty {
        /// Region contexts to (re-)evaluate.
        regions: IdSet<RegionId>,
        /// Call-site contexts to (re-)evaluate.
        calls: IdSet<CallId>,
    },
}

impl ContextScope {
    /// Does the scope include region `r`?
    pub fn has_region(&self, r: RegionId) -> bool {
        match self {
            ContextScope::All => true,
            ContextScope::Dirty { regions, .. } => regions.contains(&r),
        }
    }

    /// Does the scope include call site `c`?
    pub fn has_call(&self, c: CallId) -> bool {
        match self {
            ContextScope::All => true,
            ContextScope::Dirty { calls, .. } => calls.contains(&c),
        }
    }
}

/// One enumerated property instance, as dense ids. Its test run and
/// ranking basis are those of the enumeration it belongs to
/// ([`Instances`]); its name and context description are built only if it
/// turns out to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instance {
    /// Index of the property in the spec's declaration order
    /// ([`CheckedSpec::properties`], [`Analyzer::families`]).
    pub property: u16,
    /// Id of the region or call site — whichever the property's first
    /// parameter ranges over — the instance is about.
    pub subject: u32,
}

/// The property instances of one test run, property-major: all subjects of
/// the first property, then all of the second, … — the order
/// [`Analyzer::evaluate_instances`] cuts into batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instances {
    run: TestRunId,
    list: Vec<Instance>,
}

impl Instances {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when there is nothing to evaluate.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The instances, in evaluation order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instance> {
        self.list.iter()
    }

    /// Keep only the instances `keep` accepts (order unchanged).
    pub fn retain(&mut self, keep: impl FnMut(&Instance) -> bool) {
        self.list.retain(keep);
    }
}

/// Most subjects one batch evaluates. A batch is the unit handed to a
/// worker, so a run with few properties over many contexts still spreads
/// over the cores; within a batch everything that depends on (property,
/// run, basis) alone is computed once.
const BATCH_SUBJECTS: usize = 256;

const REGION: &str = "Region";
const FUNCTION_CALL: &str = "FunctionCall";

/// The instantiation rule: a property declared `(Region | FunctionCall,
/// TestRun, Region)` is instantiated once per subject of the first
/// parameter's class, with the analyzed run and the ranking basis bound to
/// the other two. Returns that class.
fn subject_class(p: &PropertyDecl) -> Result<&'static str, SpecError> {
    let class_of = |i: usize| match p.params.get(i).map(|param| &param.ty.kind) {
        Some(TypeExprKind::Named(class)) => class.as_str(),
        _ => "",
    };
    let subject = [REGION, FUNCTION_CALL]
        .into_iter()
        .find(|class| *class == class_of(0));
    match subject {
        Some(class) if p.params.len() == 3 && class_of(1) == "TestRun" && class_of(2) == REGION => {
            Ok(class)
        }
        _ => Err(SpecError::Signature {
            property: p.name.name.clone(),
            span: match (p.params.first(), p.params.last()) {
                (Some(first), Some(last)) => first.span.merge(last.span),
                _ => p.name.span,
            },
        }),
    }
}

/// Can the engine instantiate every property of `spec`? The first one it
/// cannot is the error ([`SpecError::Signature`], carrying the span of the
/// offending parameter list).
pub fn check_signatures(spec: &CheckedSpec) -> Result<(), SpecError> {
    let instantiable = |p| subject_class(p).map(drop);
    spec.properties().iter().try_for_each(instantiable)
}

/// One property of the spec as instantiated on the analyzed version.
#[derive(Debug, Clone)]
pub struct Family {
    /// Property name, as declared.
    pub property: Name,
    /// Ids of the regions or call sites of the version the property is
    /// instantiated for, in enumeration order.
    pub subjects: Arc<[u32]>,
    /// Whether the subjects are regions (call sites otherwise).
    regions: bool,
}

impl Family {
    /// Class of the subjects — the type of the property's first parameter:
    /// `Region` or `FunctionCall`.
    pub fn class(&self) -> &'static str {
        match self.regions {
            true => REGION,
            false => FUNCTION_CALL,
        }
    }

    /// The subject with id `id`, as the property's first argument.
    pub fn subject(&self, id: u32) -> Value {
        if self.regions {
            Value::region(RegionId(id))
        } else {
            Value::call(CallId(id))
        }
    }
}

/// What the analyzer reads off the spec and the version's structure once,
/// on first use: one [`Family`] per property and one label cell per
/// context, filled when the first entry of that context holds and shared
/// by every later one.
struct Contexts {
    families: Vec<Family>,
    region_labels: HashMap<u32, OnceLock<Name>>,
    call_labels: HashMap<u32, OnceLock<Name>>,
}

/// The COSY analyzer bound to one program version in a store.
pub struct Analyzer<'s> {
    store: &'s Store,
    version: VersionId,
    spec: Arc<CheckedSpec>,
    /// The suite lowered to the slot-indexed IR; compiled lazily on the
    /// first `Backend::Compiled` analysis and shared from then on.
    compiled: OnceLock<Arc<CompiledSpec>>,
    basis: RegionId,
    contexts: OnceLock<Contexts>,
}

impl<'s> Analyzer<'s> {
    /// Create an analyzer with the standard suite; the ranking basis is the
    /// main region of the version.
    pub fn new(store: &'s Store, version: VersionId) -> Result<Self, SpecError> {
        Self::with_spec(store, version, Arc::new(standard_suite()))
    }

    /// Create an analyzer with a pre-parsed shared suite (based on the COSY
    /// data model; every property must pass [`check_signatures`]). The
    /// online engine re-binds analyzers on every flush; sharing the
    /// [`CheckedSpec`] via `Arc` keeps that re-binding free of ASL
    /// re-parsing.
    pub fn with_spec(
        store: &'s Store,
        version: VersionId,
        spec: Arc<CheckedSpec>,
    ) -> Result<Self, SpecError> {
        check_signatures(&spec)?;
        let basis = store.main_region(version).ok_or(SpecError::NoMainRegion)?;
        Ok(Analyzer {
            store,
            version,
            spec,
            compiled: OnceLock::new(),
            basis,
            contexts: OnceLock::new(),
        })
    }

    /// Create an analyzer sharing both a pre-checked suite and its
    /// pre-lowered IR. The engines compile the suite once and re-bind
    /// analyzers on every flush through this constructor, so no per-flush
    /// lowering happens.
    pub fn with_compiled(
        store: &'s Store,
        version: VersionId,
        spec: Arc<CheckedSpec>,
        compiled: Arc<CompiledSpec>,
    ) -> Result<Self, SpecError> {
        let analyzer = Self::with_spec(store, version, spec)?;
        let _ = analyzer.compiled.set(compiled);
        Ok(analyzer)
    }

    /// Override the ranking basis region.
    pub fn with_basis(mut self, basis: RegionId) -> Self {
        self.basis = basis;
        self
    }

    /// The checked suite in use.
    pub fn spec(&self) -> &CheckedSpec {
        &self.spec
    }

    /// The suite lowered to the compiled IR (lowering happens once, on
    /// first use, and is shared afterwards).
    pub fn compiled_spec(&self) -> Arc<CompiledSpec> {
        Arc::clone(
            self.compiled
                .get_or_init(|| Arc::new(compile_ir(&self.spec))),
        )
    }

    /// The ranking basis region.
    pub fn basis(&self) -> RegionId {
        self.basis
    }

    fn contexts(&self) -> &Contexts {
        self.contexts.get_or_init(|| {
            let s = self.store;
            let functions = || {
                let of_version = s.versions[self.version.index()].functions.iter();
                of_version.map(|f| &s.functions[f.index()])
            };
            let regions: Arc<[u32]> = functions()
                .flat_map(|f| f.regions.iter().map(|r| r.0))
                .collect();
            let calls_of = |restricted: bool| -> Arc<[u32]> {
                functions()
                    .filter(|f| !restricted || f.name == "barrier")
                    .flat_map(|f| f.calls.iter().map(|c| c.0))
                    .collect()
            };
            let (calls, barrier_calls) = (calls_of(false), calls_of(true));
            let family = |p: &PropertyDecl| {
                let class = subject_class(p).expect("signatures checked at construction");
                let name = p.name.name.as_str();
                let restricted = SUITE.iter().any(|m| m.barrier_calls && m.name == name);
                let subjects = match (class, restricted) {
                    (REGION, _) => &regions,
                    (_, true) => &barrier_calls,
                    (_, false) => &calls,
                };
                Family {
                    property: name.into(),
                    subjects: Arc::clone(subjects),
                    regions: class == REGION,
                }
            };
            Contexts {
                families: self.spec.properties().iter().map(family).collect(),
                region_labels: regions.iter().map(|r| (*r, OnceLock::new())).collect(),
                call_labels: calls.iter().map(|c| (*c, OnceLock::new())).collect(),
            }
        })
    }

    /// The properties of the spec, in declaration order ([`Instance`]s
    /// index this list), each with the class and ids of the subjects it is
    /// instantiated for on the analyzed version — the one place that
    /// decides which instances exist.
    pub fn families(&self) -> &[Family] {
        &self.contexts().families
    }

    /// Enumerate all property instances of one run.
    pub fn instances(&self, run: TestRunId) -> Instances {
        self.instances_scoped(run, &ContextScope::All)
    }

    /// Enumerate the property instances of one run restricted to a context
    /// scope. `ContextScope::All` yields the full batch cross-product; a
    /// dirty scope yields only the instances whose region/call context is
    /// listed — the unit of work of incremental re-analysis.
    pub fn instances_scoped(&self, run: TestRunId, scope: &ContextScope) -> Instances {
        let mut list = Vec::new();
        if *scope == ContextScope::All {
            list.reserve_exact(self.instance_universe());
        }
        for (property, family) in self.families().iter().enumerate() {
            let in_scope = |id: &&u32| match family.regions {
                true => scope.has_region(RegionId(**id)),
                false => scope.has_call(CallId(**id)),
            };
            let subjects = family.subjects.iter().filter(in_scope);
            list.extend(subjects.map(|&subject| Instance {
                property: property as u16,
                subject,
            }));
        }
        Instances { run, list }
    }

    /// Total number of property instances a full pass over any one run of
    /// the version would enumerate (without building them) — a property of
    /// the version's structure, identical for every run. Lets the
    /// incremental engine keep batch-identical `skipped` statistics at
    /// negligible cost.
    pub fn instance_universe(&self) -> usize {
        self.families().iter().map(|f| f.subjects.len()).sum()
    }

    /// Evaluate a set of enumerated instances on a prepared backend. The
    /// result is aligned with `instances`: `Some(entry)` for an instance
    /// that held with positive severity, `None` for one that did not hold
    /// or was not applicable; an evaluation failure is that of the first
    /// failing instance in enumeration order. Both the batch
    /// [`Self::analyze`] and the incremental engine go through this single
    /// code path.
    ///
    /// The list is cut into batches of one property × up to
    /// `BATCH_SUBJECTS` subjects, evaluated in parallel — the one level of
    /// parallelism of a flush — unless the whole list is shorter than one
    /// full batch.
    pub fn evaluate_instances(
        &self,
        prepared: &PreparedBackend<'_>,
        instances: &Instances,
    ) -> Result<Vec<Option<HeldEntry>>, AnalysisError> {
        let same_property = instances.list.chunk_by(|a, b| a.property == b.property);
        let mut batches: Vec<&[Instance]> =
            Vec::with_capacity(self.families().len() + instances.len() / BATCH_SUBJECTS);
        batches.extend(same_property.flat_map(|group| group.chunks(BATCH_SUBJECTS)));
        let evaluate = |scratch: &mut Scratch, batch: &&[Instance]| {
            self.evaluate_batch(prepared, instances.run, batch, scratch)
        };
        let results: Vec<Result<Vec<(usize, HeldEntry)>, AnalysisError>> =
            if instances.len() < BATCH_SUBJECTS {
                // Less work than starting a second thread costs (the few
                // dirty contexts of an incremental flush, a small program).
                let scratch = &mut Scratch::default();
                batches
                    .iter()
                    .map(|batch| evaluate(scratch, batch))
                    .collect()
            } else {
                batches
                    .par_iter()
                    .map_init(Scratch::default, evaluate)
                    .collect()
            };
        let mut out = Vec::new();
        out.resize_with(instances.len(), || None);
        let mut start = 0;
        for (batch, held) in batches.iter().zip(results) {
            for (i, entry) in held? {
                out[start + i] = Some(entry);
            }
            start += batch.len();
        }
        Ok(out)
    }

    /// One batch: instances of a single property, evaluated in the shared
    /// `(run, basis)` context. Returns the entries that held, each with the
    /// index of its instance in the batch — a batch in which nothing holds
    /// allocates nothing.
    fn evaluate_batch(
        &self,
        prepared: &PreparedBackend<'_>,
        run: TestRunId,
        batch: &[Instance],
        scratch: &mut Scratch,
    ) -> Result<Vec<(usize, HeldEntry)>, AnalysisError> {
        let family = &self.families()[batch[0].property as usize];
        let regions = family.regions;
        let context = [Value::run(run), Value::region(self.basis)];

        let mut held = Vec::new();
        let mut foreign = None;
        let mut keep = |i: usize, outcome: Option<asl_eval::Outcome>| {
            let Some(o) = outcome.filter(|o| o.holds && o.severity > 0.0) else {
                return;
            };
            let id = batch[i].subject;
            let Some(label) = self.label(regions, id) else {
                foreign.get_or_insert(id);
                return;
            };
            if held.is_empty() {
                held.reserve_exact(batch.len() - i);
            }
            let entry = HeldEntry {
                property: family.property.clone(),
                context: ContextDesc {
                    region: regions.then_some(id),
                    call: (!regions).then_some(id),
                    run: run.0,
                    label,
                },
                severity: o.severity,
                confidence: o.confidence,
            };
            held.push((i, entry));
        };
        let mut subjects = batch.iter().map(|inst| family.subject(inst.subject));
        prepared.eval_batch(
            &family.property,
            &context,
            &mut subjects,
            scratch,
            &mut keep,
        )?;
        match foreign {
            None => Ok(held),
            Some(id) => Err(AnalysisError::BadInstance {
                property: family.property.to_string(),
                detail: format!("subject {id} is not a context of the analyzed version"),
            }),
        }
    }

    /// The label of a context of the analyzed version — the region's name,
    /// or "call *callee* at *site*" — built when its first entry holds and
    /// shared from then on. `None` for an id that is no such context.
    fn label(&self, region: bool, id: u32) -> Option<Name> {
        let s = self.store;
        let ctx = self.contexts();
        let label = if region {
            let name = || s.regions[id as usize].name.as_str().into();
            ctx.region_labels.get(&id)?.get_or_init(name)
        } else {
            let describe = || {
                let call = &s.calls[id as usize];
                let callee = &s.functions[call.callee.index()].name;
                let site = &s.regions[call.calling_reg.index()].name;
                format!("call {callee} at {site}").into()
            };
            ctx.call_labels.get(&id)?.get_or_init(describe)
        };
        Some(label.clone())
    }

    /// Rank held entries into a complete report. The ordering is total and
    /// deterministic — severity descending, then property name, label and
    /// context ids — so a report assembled incrementally from merged
    /// entries is identical to one assembled from a full batch pass
    /// (rank-stability of the online engine).
    pub fn assemble_report(
        &self,
        run: TestRunId,
        mut held: Vec<HeldEntry>,
        threshold: ProblemThreshold,
        skipped: usize,
    ) -> AnalysisReport {
        held.sort_by(|a, b| {
            b.severity
                .total_cmp(&a.severity)
                .then_with(|| a.property.cmp(&b.property))
                .then_with(|| a.context.label.cmp(&b.context.label))
                .then_with(|| a.context.region.cmp(&b.context.region))
                .then_with(|| a.context.call.cmp(&b.context.call))
        });

        let entries: Vec<RankedEntry> = held
            .into_iter()
            .enumerate()
            .map(|(i, e)| RankedEntry {
                rank: i + 1,
                property: e.property,
                context: e.context,
                severity: e.severity,
                confidence: e.confidence,
                is_problem: e.severity > threshold.0,
            })
            .collect();

        let basis_duration = self.store.duration(self.basis, run).unwrap_or(0.0);
        let total_cost = entries
            .iter()
            .find(|e| e.context.region == Some(self.basis.0) && e.property == "SublinearSpeedup")
            .map(|e| e.severity)
            .unwrap_or(0.0);
        let reference_pe = self
            .store
            .min_pe_run(self.version)
            .map(|r| self.store.runs[r.index()].no_pe)
            .unwrap_or(0);

        AnalysisReport {
            program: self.store.program_of(self.version).name.clone(),
            no_pe: self.store.runs[run.index()].no_pe,
            reference_pe,
            basis_duration,
            total_cost,
            threshold,
            entries,
            skipped,
        }
    }

    /// Run the full analysis of one test run.
    pub fn analyze(
        &self,
        run: TestRunId,
        backend: Backend,
        threshold: ProblemThreshold,
    ) -> Result<AnalysisReport, AnalysisError> {
        let prepared = match backend {
            // Reuse the analyzer's cached lowering instead of re-compiling
            // per analysis call.
            Backend::Compiled => PreparedBackend::from_compiled(self.compiled_spec(), self.store)?,
            other => PreparedBackend::prepare(other, &self.spec, self.store)?,
        };
        self.analyze_prepared(run, &prepared, threshold)
    }

    /// [`Self::analyze`] on a backend the caller prepared — once for as
    /// many runs and versions of the store as it analyzes.
    pub fn analyze_prepared(
        &self,
        run: TestRunId,
        prepared: &PreparedBackend<'_>,
        threshold: ProblemThreshold,
    ) -> Result<AnalysisReport, AnalysisError> {
        let instances = self.instances(run);
        let outcomes = self.evaluate_instances(prepared, &instances)?;
        let held: Vec<HeldEntry> = outcomes.into_iter().flatten().collect();
        let skipped = instances.len() - held.len();
        Ok(self.assemble_report(run, held, threshold, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apprentice_sim::{archetypes, simulate_program, MachineModel};

    fn analyzed(backend: Backend) -> AnalysisReport {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 4, 16]);
        let run = store.versions[version.index()].runs[2];
        let analyzer = Analyzer::new(&store, version).unwrap();
        analyzer
            .analyze(run, backend, ProblemThreshold::default())
            .unwrap()
    }

    #[test]
    fn compiled_report_is_identical_to_interpreter() {
        // Exact equality, not tolerance: both engines execute the same
        // arithmetic in the same order.
        let a = analyzed(Backend::Interpreter);
        let b = analyzed(Backend::Compiled);
        assert_eq!(a, b);
    }

    #[test]
    fn particle_mc_analysis_finds_problems() {
        let report = analyzed(Backend::Compiled);
        assert!(!report.entries.is_empty());
        assert!(report.needs_tuning());
        assert!(report.total_cost > 0.0, "16-PE run must show total cost");
        // Sync cost must rank among the problems for this archetype.
        assert!(
            report
                .problems()
                .any(|e| e.property == "SyncCost" || e.property == "LoadImbalance"),
            "expected synchronization-related problems, got: {:?}",
            report
                .entries
                .iter()
                .take(5)
                .map(|e| (&e.property, e.severity))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranking_is_sorted_and_ranked() {
        let report = analyzed(Backend::Interpreter);
        for w in report.entries.windows(2) {
            assert!(w[0].severity >= w[1].severity);
        }
        for (i, e) in report.entries.iter().enumerate() {
            assert_eq!(e.rank, i + 1);
        }
    }

    #[test]
    fn bottleneck_is_most_severe() {
        let report = analyzed(Backend::Interpreter);
        let b = report.bottleneck().unwrap();
        assert!(report.entries.iter().all(|e| e.severity <= b.severity));
    }

    #[test]
    fn backends_agree_on_the_ranking() {
        let a = analyzed(Backend::Interpreter);
        for other in [Backend::Compiled, Backend::Sql, Backend::SqlBatched] {
            let b = analyzed(other);
            assert_eq!(a.entries.len(), b.entries.len(), "{other:?}");
            for (x, y) in a.entries.iter().zip(&b.entries) {
                assert_eq!(x.property, y.property, "{other:?}");
                assert_eq!(x.context.label, y.context.label, "{other:?}");
                assert!(
                    (x.severity - y.severity).abs() <= 1e-9 * x.severity.abs().max(1.0),
                    "{other:?} {}: {} vs {}",
                    x.property,
                    x.severity,
                    y.severity
                );
            }
        }
    }

    #[test]
    fn one_pe_run_has_no_total_cost() {
        let mut store = Store::new();
        let model = archetypes::stencil3d(2);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 8]);
        let run1 = store.versions[version.index()].runs[0];
        let analyzer = Analyzer::new(&store, version).unwrap();
        let report = analyzer
            .analyze(run1, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        // The reference run compared with itself has zero lost cycles.
        assert_eq!(report.total_cost, 0.0);
        assert!(report
            .entries
            .iter()
            .all(|e| e.property != "SublinearSpeedup"));
    }

    #[test]
    fn load_imbalance_only_on_barrier_calls() {
        let report = analyzed(Backend::Interpreter);
        for e in &report.entries {
            if e.property == "LoadImbalance" {
                assert!(e.context.label.contains("barrier"), "{}", e.context.label);
            }
        }
    }

    #[test]
    fn custom_basis_changes_severities() {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        // Basis = the step subprogram instead of main: severities are
        // relative to a smaller duration, so they grow.
        let step_root = store
            .regions
            .iter()
            .position(|r| r.name == "step")
            .map(|i| perfdata::RegionId(i as u32))
            .unwrap();
        let default_report = Analyzer::new(&store, version)
            .unwrap()
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        let rebased_report = Analyzer::new(&store, version)
            .unwrap()
            .with_basis(step_root)
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        let sync = |r: &AnalysisReport| {
            r.entries
                .iter()
                .find(|e| e.property == "SyncCost")
                .map(|e| e.severity)
                .unwrap_or(0.0)
        };
        assert!(sync(&rebased_report) > sync(&default_report));
    }

    #[test]
    fn custom_suite_restricts_properties() {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        // A suite with only SyncCost declared: nothing else is instantiated.
        let src = format!(
            "{}\nProperty SyncCost(Region r, TestRun t, Region Basis) {{\n\
             LET float B = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t \
             AND tt.Type == Barrier) IN CONDITION: B > 0; CONFIDENCE: 1; \
             SEVERITY: B / Duration(Basis,t); }}",
            asl_eval::COSY_DATA_MODEL
        );
        let spec = asl_core::parse_and_check(&src).unwrap();
        let report = Analyzer::with_spec(&store, version, Arc::new(spec))
            .unwrap()
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        assert!(!report.entries.is_empty());
        assert!(report.entries.iter().all(|e| e.property == "SyncCost"));
    }

    #[test]
    fn a_property_of_any_name_is_instantiated_from_its_signature() {
        let mut store = Store::new();
        let model = archetypes::spectral_io(11);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[2, 64]);
        let run = store.versions[version.index()].runs[1];
        let src = format!(
            "{}\n{}",
            crate::suite::standard_suite_source(),
            include_str!("../../../examples/specs/io_contention.asl")
        );
        let spec = Arc::new(asl_core::parse_and_check(&src).unwrap());
        let analyzer = Analyzer::with_spec(&store, version, spec).unwrap();
        let standard = Analyzer::new(&store, version).unwrap();
        let thirteenth = analyzer.families().last().unwrap();
        assert_eq!(thirteenth.property, "IoContention");
        assert_eq!(thirteenth.class(), "Region");
        assert_eq!(
            analyzer.instance_universe(),
            standard.instance_universe() + thirteenth.subjects.len()
        );
        let mut reports = [Backend::Interpreter, Backend::Compiled].map(|b| {
            analyzer
                .analyze(run, b, ProblemThreshold::default())
                .unwrap()
        });
        assert_eq!(reports[0], reports[1]);
        // The standard properties rank as they do without the extra one.
        let custom = |e: &RankedEntry| e.property == "IoContention";
        let held: Vec<_> = reports[0].entries.iter().filter(|e| custom(e)).collect();
        let labels: Vec<&str> = held.iter().map(|e| e.context.label.as_str()).collect();
        assert_eq!(labels, ["main:if@33", "main:block@9"]);
        reports[1].entries.retain(|e| !custom(e));
        let plain = standard
            .analyze(run, Backend::Compiled, ProblemThreshold::default())
            .unwrap();
        let key = |e: &RankedEntry| (e.property.clone(), e.context.clone(), e.severity.to_bits());
        assert_eq!(
            reports[1].entries.iter().map(key).collect::<Vec<_>>(),
            plain.entries.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uninstantiable_signature_is_a_spanned_spec_error() {
        let store = Store::new();
        for (params, caret) in [
            ("TestRun t", "^^^^^^^^^"),
            ("Region r, TestRun t", "^^^^^^^^^^^^^^^^^^^"),
            ("TotalTiming x, TestRun t, Region Basis", "^^^^^^^^^^^^^^"),
            ("Region r, TestRun t, FunctionCall Basis", "^^^^^^^^"),
        ] {
            let src = format!(
                "{}\nProperty P({params}) {{ CONDITION: t.NoPe > 0; CONFIDENCE: 1; SEVERITY: 1; }}",
                asl_eval::COSY_DATA_MODEL
            );
            let spec = Arc::new(asl_core::parse_and_check(&src).unwrap());
            // Checked before the store is looked at: the error does not
            // wait for structure to stream in.
            let Err(err) = Analyzer::with_spec(&store, VersionId(0), spec) else {
                panic!("`P({params})` must not be instantiable");
            };
            assert!(
                matches!(&err, SpecError::Signature { property, .. } if property == "P"),
                "{err:?}"
            );
            let rendered = err.render(&src);
            let snippet: Vec<&str> = rendered.lines().collect();
            let line = snippet
                .iter()
                .position(|l| l.contains("Property P("))
                .unwrap();
            let carets = snippet[line + 1];
            assert!(carets.contains(caret), "{rendered}");
            // The carets sit under the parameter list, from its first
            // character to its last.
            let under = |text: &str| snippet[line].find(text).unwrap();
            assert_eq!(carets.find('^').unwrap(), under(params), "{rendered}");
            assert_eq!(carets.rfind('^').unwrap(), under(") {") - 1, "{rendered}");
        }
    }

    #[test]
    fn runtime_eval_error_renders_source_span() {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        // A severity expression that always divides by zero at runtime:
        // the error must render a caret snippet pointing at the division
        // in the spec source, not just a bare message.
        let src = format!(
            "{}\nProperty SyncCost(Region r, TestRun t, Region Basis) {{\n\
             \x20   CONDITION: Duration(Basis, t) >= 0;\n\
             \x20   CONFIDENCE: 1;\n\
             \x20   SEVERITY: 1.0 / (Duration(r, t) - Duration(r, t));\n\
             }}",
            asl_eval::COSY_DATA_MODEL
        );
        let spec = Arc::new(asl_core::parse_and_check(&src).unwrap());
        for backend in [Backend::Interpreter, Backend::Compiled] {
            let err = Analyzer::with_spec(&store, version, Arc::clone(&spec))
                .unwrap()
                .analyze(run, backend, ProblemThreshold::default())
                .unwrap_err();
            let rendered = err.render(&src);
            assert!(rendered.contains("division by zero"), "{rendered}");
            assert!(rendered.contains("-->"), "{rendered}");
            assert!(rendered.contains('^'), "{rendered}");
            // The caret points into the SEVERITY line of the property at
            // the end of the source, far past the data model.
            let line = err
                .span()
                .map(|s| asl_core::SourceMap::new(&src).locate(s.start).line);
            assert!(line.unwrap_or(0) > 10, "span line: {line:?}");
        }
    }

    #[test]
    fn evaluation_fails_with_the_first_failing_instance() {
        // 300 loops — more than one batch per property — two of them with
        // duplicate total timings: l270 twice, l260 three times. Every
        // property that reads `Summary` fails on both, in every batch they
        // fall into; the error reported is that of the first failing
        // instance in enumeration order: the first property of the suite,
        // on the earlier region.
        use perfdata::{DateTime, RegionKind};
        let mut store = Store::new();
        let p = store.add_program("dups");
        let version = store.add_version(p, DateTime::from_secs(0), "");
        let run = store.add_run(version, DateTime::from_secs(1), 4, 450);
        let f = store.add_function(version, "main");
        let main = store.add_region(f, None, RegionKind::Subprogram, "main", (1, 9));
        store.add_total_timing(main, run, 9.0, 9.0, 0.0);
        for i in 0..300 {
            let r = store.add_region(f, Some(main), RegionKind::Loop, format!("l{i}"), (2, 3));
            let records = match i {
                260 => 3,
                270 => 2,
                _ => 1,
            };
            for _ in 0..records {
                store.add_total_timing(r, run, 1.0, 1.0, 0.5);
            }
        }
        let analyzer = Analyzer::new(&store, version).unwrap();
        assert!(analyzer.instances(run).len() > 2 * BATCH_SUBJECTS);
        for backend in [Backend::Interpreter, Backend::Compiled] {
            let err = analyzer
                .analyze(run, backend, ProblemThreshold::default())
                .unwrap_err();
            let AnalysisError::Property { property, source } = &err else {
                panic!("{backend:?}: {err}");
            };
            assert_eq!(property, SUITE[0].name, "{backend:?}");
            assert_eq!(
                source.message, "UNIQUE of a set with 3 elements",
                "{backend:?}"
            );
        }
    }

    #[test]
    fn threshold_controls_problem_flag() {
        let mut store = Store::new();
        let model = archetypes::particle_mc(23);
        let machine = MachineModel::t3e_900();
        let version = simulate_program(&mut store, &model, &machine, &[1, 16]);
        let run = store.versions[version.index()].runs[1];
        let analyzer = Analyzer::new(&store, version).unwrap();
        let strict = analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold(0.0))
            .unwrap();
        let lax = analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold(f64::MAX))
            .unwrap();
        assert!(strict.problems().count() > 0);
        assert_eq!(lax.problems().count(), 0);
        assert!(!lax.needs_tuning());
    }
}
