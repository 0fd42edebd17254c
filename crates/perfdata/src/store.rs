//! The typed arena store holding a full performance database.

use crate::ids::*;
use crate::model::*;
use crate::timing_type::TimingType;
use serde::{Deserialize, Serialize};

/// A complete COSY performance database: multiple applications, multiple
/// versions per application, multiple test runs per version (§3 of the
/// paper), with static structure (functions, regions, call sites) and
/// dynamic measurements (total/typed timings, call statistics).
///
/// Besides the primary arenas, the store maintains **secondary indexes**
/// (`(region, run) → timing`, `region → children`, `version → reference
/// run`) so the analyzer's hot metric loads are O(1) hash lookups instead
/// of arena scans. The indexes are derived data kept consistent by every
/// builder/upsert method; they are private, and while the arenas remain
/// `pub` for read access, **mutation must go through the builder/upsert
/// methods** — pushing into an arena directly leaves the indexes stale
/// and the indexed lookups (and the compiled evaluator's filtered loads)
/// answering from the past.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Store {
    /// All programs.
    pub programs: Vec<Program>,
    /// All program versions.
    pub versions: Vec<ProgVersion>,
    /// All test runs.
    pub runs: Vec<TestRun>,
    /// All functions.
    pub functions: Vec<Function>,
    /// All regions.
    pub regions: Vec<Region>,
    /// All total timings.
    pub total_timings: Vec<TotalTiming>,
    /// All typed timings.
    pub typed_timings: Vec<TypedTiming>,
    /// All function-call sites.
    pub calls: Vec<FunctionCall>,
    /// All call statistics.
    pub call_timings: Vec<CallTiming>,
    /// All source-code blobs.
    pub sources: Vec<SourceCode>,

    // ---- secondary indexes (derived; see the struct docs) ---------------
    /// `(region, run)` → total timings in arena order. Well-formed data has
    /// exactly one entry, but the index must mirror the arena faithfully —
    /// a duplicate record still surfaces as an ambiguous `Summary`.
    total_idx: IdMap<(RegionId, TestRunId), Vec<TotalTimingId>>,
    /// `(region, run, type)` → its typed timing (first recorded wins,
    /// matching the arena-scan order the lookups historically used).
    typed_idx: IdMap<(RegionId, TestRunId, TimingType), TypedTimingId>,
    /// `(region, run)` → all typed timings of that run, in arena order.
    typed_by_run: IdMap<(RegionId, TestRunId), Vec<TypedTimingId>>,
    /// `(call, run)` → call-statistics records in arena order (one entry
    /// when well-formed; see `total_idx`).
    call_idx: IdMap<(CallId, TestRunId), Vec<CallTimingId>>,
    /// Region → direct children, in arena order.
    children_idx: IdMap<RegionId, Vec<RegionId>>,
    /// Version → its run with the smallest processor count (earliest run
    /// wins ties, matching `min_by_key` over the version's run list).
    min_pe_idx: IdMap<VersionId, TestRunId>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    // ---- builders ---------------------------------------------------------

    /// Add a program.
    pub fn add_program(&mut self, name: impl Into<String>) -> ProgramId {
        let id = ProgramId(self.programs.len() as u32);
        self.programs.push(Program {
            name: name.into(),
            versions: Vec::new(),
        });
        id
    }

    /// Add a version to a program.
    pub fn add_version(
        &mut self,
        program: ProgramId,
        compilation: DateTime,
        source_text: impl Into<String>,
    ) -> VersionId {
        let code = SourceId(self.sources.len() as u32);
        self.sources.push(SourceCode {
            text: source_text.into(),
        });
        let id = VersionId(self.versions.len() as u32);
        self.versions.push(ProgVersion {
            program,
            compilation,
            functions: Vec::new(),
            runs: Vec::new(),
            code,
        });
        self.programs[program.index()].versions.push(id);
        id
    }

    /// Add a test run to a version.
    pub fn add_run(
        &mut self,
        version: VersionId,
        start: DateTime,
        no_pe: u32,
        clockspeed: u32,
    ) -> TestRunId {
        let id = TestRunId(self.runs.len() as u32);
        self.runs.push(TestRun {
            version,
            start,
            no_pe,
            clockspeed,
        });
        self.versions[version.index()].runs.push(id);
        match self.min_pe_idx.get(&version) {
            // Strictly-smaller only: the earliest run keeps the reference
            // slot on ties, matching `min_by_key` over the run list.
            Some(&cur) if self.runs[cur.index()].no_pe <= no_pe => {}
            _ => {
                self.min_pe_idx.insert(version, id);
            }
        }
        id
    }

    /// Add a function to a version.
    pub fn add_function(&mut self, version: VersionId, name: impl Into<String>) -> FunctionId {
        let id = FunctionId(self.functions.len() as u32);
        self.functions.push(Function {
            version,
            name: name.into(),
            calls: Vec::new(),
            regions: Vec::new(),
        });
        self.versions[version.index()].functions.push(id);
        id
    }

    /// Add a region to a function.
    pub fn add_region(
        &mut self,
        function: FunctionId,
        parent: Option<RegionId>,
        kind: RegionKind,
        name: impl Into<String>,
        lines: (u32, u32),
    ) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            function,
            parent,
            kind,
            name: name.into(),
            first_line: lines.0,
            last_line: lines.1,
            tot_times: Vec::new(),
            typ_times: Vec::new(),
        });
        self.functions[function.index()].regions.push(id);
        if let Some(p) = parent {
            self.children_idx.entry(p).or_default().push(id);
        }
        id
    }

    /// Record the total timing of a region in a run.
    pub fn add_total_timing(
        &mut self,
        region: RegionId,
        run: TestRunId,
        excl: f64,
        incl: f64,
        ovhd: f64,
    ) -> TotalTimingId {
        let id = TotalTimingId(self.total_timings.len() as u32);
        self.total_timings.push(TotalTiming {
            region,
            run,
            excl,
            incl,
            ovhd,
        });
        self.regions[region.index()].tot_times.push(id);
        self.total_idx.entry((region, run)).or_default().push(id);
        id
    }

    /// Record a typed overhead timing of a region in a run.
    pub fn add_typed_timing(
        &mut self,
        region: RegionId,
        run: TestRunId,
        ty: TimingType,
        time: f64,
    ) -> TypedTimingId {
        let id = TypedTimingId(self.typed_timings.len() as u32);
        self.typed_timings.push(TypedTiming {
            region,
            run,
            ty,
            time,
        });
        self.regions[region.index()].typ_times.push(id);
        self.typed_idx.entry((region, run, ty)).or_insert(id);
        self.typed_by_run.entry((region, run)).or_default().push(id);
        id
    }

    /// Add a call site. The call is registered on the **callee**'s `Calls`
    /// set, matching the paper's `Function.Calls` attribute ("the call
    /// sites" of the function).
    pub fn add_call(
        &mut self,
        caller: FunctionId,
        callee: FunctionId,
        calling_reg: RegionId,
    ) -> CallId {
        let id = CallId(self.calls.len() as u32);
        self.calls.push(FunctionCall {
            caller,
            callee,
            calling_reg,
            sums: Vec::new(),
        });
        self.functions[callee.index()].calls.push(id);
        id
    }

    /// Record call statistics for a call site in a run.
    #[allow(clippy::too_many_arguments)]
    pub fn add_call_timing(&mut self, ct: CallTiming) -> CallTimingId {
        let id = CallTimingId(self.call_timings.len() as u32);
        let call = ct.call;
        let run = ct.run;
        self.call_timings.push(ct);
        self.calls[call.index()].sums.push(id);
        self.call_idx.entry((call, run)).or_default().push(id);
        id
    }

    // ---- streaming upserts ------------------------------------------------
    //
    // The online ingestion pipeline (`cosy-online`) receives measurement
    // events continuously and may see refinements of a record it already
    // applied (e.g. a region's running total). The upsert hooks keep the
    // one-record-per-(region, run[, type]) invariant `validate` enforces
    // while allowing in-place refinement, and report whether they inserted
    // or updated so callers can maintain dirty-context deltas.

    /// Insert or refresh the total timing of a region in a run. Returns the
    /// timing id and `true` when a new record was inserted (`false` when an
    /// existing record was updated in place).
    pub fn upsert_total_timing(
        &mut self,
        region: RegionId,
        run: TestRunId,
        excl: f64,
        incl: f64,
        ovhd: f64,
    ) -> (TotalTimingId, bool) {
        let existing = self.total_timing_id(region, run);
        match existing {
            Some(id) => {
                let t = &mut self.total_timings[id.index()];
                t.excl = excl;
                t.incl = incl;
                t.ovhd = ovhd;
                (id, false)
            }
            None => (self.add_total_timing(region, run, excl, incl, ovhd), true),
        }
    }

    /// Insert or refresh a typed overhead timing. Returns the timing id and
    /// `true` on insert (`false` on in-place update).
    pub fn upsert_typed_timing(
        &mut self,
        region: RegionId,
        run: TestRunId,
        ty: TimingType,
        time: f64,
    ) -> (TypedTimingId, bool) {
        let existing = self.typed_idx.get(&(region, run, ty)).copied();
        match existing {
            Some(id) => {
                self.typed_timings[id.index()].time = time;
                (id, false)
            }
            None => (self.add_typed_timing(region, run, ty, time), true),
        }
    }

    /// Insert or refresh the call statistics of a call site in a run.
    /// Returns the record id and `true` on insert (`false` on update).
    pub fn upsert_call_timing(&mut self, ct: CallTiming) -> (CallTimingId, bool) {
        let existing = self.call_timing_id(ct.call, ct.run);
        match existing {
            Some(id) => {
                self.call_timings[id.index()] = ct;
                (id, false)
            }
            None => (self.add_call_timing(ct), true),
        }
    }

    // ---- streaming lookups ------------------------------------------------

    /// Find a program by name.
    pub fn program_by_name(&self, name: &str) -> Option<ProgramId> {
        self.programs
            .iter()
            .position(|p| p.name == name)
            .map(|i| ProgramId(i as u32))
    }

    /// Find a function of a version by name.
    pub fn function_by_name(&self, version: VersionId, name: &str) -> Option<FunctionId> {
        self.versions[version.index()]
            .functions
            .iter()
            .copied()
            .find(|f| self.functions[f.index()].name == name)
    }

    /// Find a region of a function by name and first source line (the
    /// stable identity a trace stream refers to regions by). The line is
    /// compared first: it tells a function's regions apart without
    /// reading their names.
    pub fn region_by_name(
        &self,
        function: FunctionId,
        name: &str,
        first_line: u32,
    ) -> Option<RegionId> {
        self.functions[function.index()]
            .regions
            .iter()
            .copied()
            .find(|r| {
                let reg = &self.regions[r.index()];
                reg.first_line == first_line && reg.name == name
            })
    }

    /// Find the call site of `callee` from `caller` at region
    /// `calling_reg`, if registered.
    pub fn call_site(
        &self,
        caller: FunctionId,
        callee: FunctionId,
        calling_reg: RegionId,
    ) -> Option<CallId> {
        self.functions[callee.index()]
            .calls
            .iter()
            .copied()
            .find(|c| {
                let call = &self.calls[c.index()];
                call.caller == caller && call.calling_reg == calling_reg
            })
    }

    /// The smallest processor count among the runs of a version, if any
    /// run exists. Streaming ingestion uses this to detect when a new run
    /// changes the reference configuration (which invalidates every
    /// speedup-derived result of the version). O(1) via the reference-run
    /// index.
    pub fn min_pe_of_version(&self, v: VersionId) -> Option<u32> {
        self.min_pe_idx.get(&v).map(|r| self.runs[r.index()].no_pe)
    }

    // ---- navigation ---------------------------------------------------------

    /// The program a version belongs to.
    pub fn program_of(&self, v: VersionId) -> &Program {
        &self.programs[self.versions[v.index()].program.index()]
    }

    /// Direct children of a region. O(children) via the children index.
    pub fn children(&self, r: RegionId) -> impl Iterator<Item = RegionId> + '_ {
        self.children_idx
            .get(&r)
            .into_iter()
            .flat_map(|kids| kids.iter().copied())
    }

    /// The id of the (first) total timing of a region in a run. O(1).
    pub fn total_timing_id(&self, r: RegionId, run: TestRunId) -> Option<TotalTimingId> {
        self.total_idx
            .get(&(r, run))
            .and_then(|ids| ids.first().copied())
    }

    /// All total-timing records of a region in a run, in arena order —
    /// exactly one when the store is well-formed. O(1).
    pub fn total_timing_ids(&self, r: RegionId, run: TestRunId) -> &[TotalTimingId] {
        self.total_idx
            .get(&(r, run))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The unique total timing of a region in a run, if recorded. O(1).
    pub fn total_timing(&self, r: RegionId, run: TestRunId) -> Option<&TotalTiming> {
        self.total_timing_id(r, run)
            .map(|id| &self.total_timings[id.index()])
    }

    /// All typed timings of a region in one run, in recording order. O(1)
    /// to locate; the slice covers every overhead type of the run.
    pub fn typed_timing_ids(&self, r: RegionId, run: TestRunId) -> &[TypedTimingId] {
        self.typed_by_run
            .get(&(r, run))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The typed timing of a region for a given run and type, if recorded.
    /// O(1).
    pub fn typed_timing(
        &self,
        r: RegionId,
        run: TestRunId,
        ty: TimingType,
    ) -> Option<&TypedTiming> {
        self.typed_idx
            .get(&(r, run, ty))
            .map(|id| &self.typed_timings[id.index()])
    }

    /// The id of the (first) call-statistics record of a call site in a
    /// run. O(1).
    pub fn call_timing_id(&self, c: CallId, run: TestRunId) -> Option<CallTimingId> {
        self.call_idx
            .get(&(c, run))
            .and_then(|ids| ids.first().copied())
    }

    /// All call-statistics records of a call site in a run, in arena order
    /// — exactly one when the store is well-formed. O(1).
    pub fn call_timing_ids(&self, c: CallId, run: TestRunId) -> &[CallTimingId] {
        self.call_idx
            .get(&(c, run))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Inclusive duration of a region in a run (the paper's `Duration`
    /// helper), or `None` when no timing was recorded. O(1).
    pub fn duration(&self, r: RegionId, run: TestRunId) -> Option<f64> {
        self.total_timing(r, run).map(|t| t.incl)
    }

    /// The test run of a version with the smallest processor count — the
    /// reference run used by `SublinearSpeedup` (§4.2). O(1) via the
    /// reference-run index.
    pub fn min_pe_run(&self, v: VersionId) -> Option<TestRunId> {
        self.min_pe_idx.get(&v).copied()
    }

    /// The root (subprogram) region of a function, by convention the first
    /// region added to it.
    pub fn root_region(&self, f: FunctionId) -> Option<RegionId> {
        self.functions[f.index()].regions.first().copied()
    }

    /// The main region of a version: the root region of the function named
    /// `main`, or of the first function otherwise. This is the ranking
    /// basis region COSY uses by default.
    pub fn main_region(&self, v: VersionId) -> Option<RegionId> {
        let funcs = &self.versions[v.index()].functions;
        let main = funcs
            .iter()
            .copied()
            .find(|f| self.functions[f.index()].name == "main")
            .or_else(|| funcs.first().copied())?;
        self.root_region(main)
    }

    /// Total number of objects across all arenas (used for sizing reports).
    pub fn object_count(&self) -> usize {
        self.programs.len()
            + self.versions.len()
            + self.runs.len()
            + self.functions.len()
            + self.regions.len()
            + self.total_timings.len()
            + self.typed_timings.len()
            + self.calls.len()
            + self.call_timings.len()
            + self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the small two-run database used across the store tests.
    pub(crate) fn sample_store() -> (Store, VersionId, TestRunId, TestRunId, RegionId) {
        let mut s = Store::new();
        let p = s.add_program("fluid3d");
        let v = s.add_version(p, DateTime::from_secs(10), "program fluid3d");
        let r1 = s.add_run(v, DateTime::from_secs(20), 2, 450);
        let r2 = s.add_run(v, DateTime::from_secs(30), 8, 450);
        let f = s.add_function(v, "main");
        let root = s.add_region(f, None, RegionKind::Subprogram, "main", (1, 100));
        let lp = s.add_region(f, Some(root), RegionKind::Loop, "main:loop@10", (10, 40));
        s.add_total_timing(root, r1, 1.0, 10.0, 0.5);
        s.add_total_timing(root, r2, 1.5, 14.0, 1.0);
        s.add_total_timing(lp, r1, 6.0, 9.0, 0.3);
        s.add_total_timing(lp, r2, 8.0, 12.5, 0.9);
        s.add_typed_timing(lp, r2, TimingType::Barrier, 2.5);
        (s, v, r1, r2, lp)
    }

    #[test]
    fn builders_maintain_backlinks() {
        let (s, v, r1, r2, lp) = sample_store();
        assert_eq!(s.versions[v.index()].runs, vec![r1, r2]);
        assert_eq!(s.programs[0].versions.len(), 1);
        assert_eq!(s.regions[lp.index()].tot_times.len(), 2);
    }

    #[test]
    fn total_timing_lookup_is_per_run() {
        let (s, _, r1, r2, lp) = sample_store();
        assert_eq!(s.total_timing(lp, r1).unwrap().incl, 9.0);
        assert_eq!(s.total_timing(lp, r2).unwrap().incl, 12.5);
    }

    #[test]
    fn duration_matches_inclusive_time() {
        let (s, _, r1, _, lp) = sample_store();
        assert_eq!(s.duration(lp, r1), Some(9.0));
    }

    #[test]
    fn min_pe_run_picks_smallest_configuration() {
        let (s, v, r1, _, _) = sample_store();
        assert_eq!(s.min_pe_run(v), Some(r1));
    }

    #[test]
    fn children_navigation() {
        let (s, _, _, _, lp) = sample_store();
        let root = s.regions[lp.index()].parent.unwrap();
        let kids: Vec<_> = s.children(root).collect();
        assert_eq!(kids, vec![lp]);
        assert_eq!(s.children(lp).count(), 0);
    }

    #[test]
    fn main_region_prefers_function_named_main() {
        let (s, v, _, _, _) = sample_store();
        let main = s.main_region(v).unwrap();
        assert_eq!(s.regions[main.index()].name, "main");
    }

    #[test]
    fn typed_timing_lookup() {
        let (s, _, r1, r2, lp) = sample_store();
        assert!(s.typed_timing(lp, r2, TimingType::Barrier).is_some());
        assert!(s.typed_timing(lp, r1, TimingType::Barrier).is_none());
        assert!(s.typed_timing(lp, r2, TimingType::IoRead).is_none());
    }

    #[test]
    fn calls_register_on_callee() {
        let mut s = Store::new();
        let p = s.add_program("x");
        let v = s.add_version(p, DateTime::from_secs(0), "");
        let f_main = s.add_function(v, "main");
        let f_barrier = s.add_function(v, "barrier");
        let root = s.add_region(f_main, None, RegionKind::Subprogram, "main", (1, 10));
        let c = s.add_call(f_main, f_barrier, root);
        assert_eq!(s.functions[f_barrier.index()].calls, vec![c]);
        assert!(s.functions[f_main.index()].calls.is_empty());
    }

    #[test]
    fn upsert_total_timing_updates_in_place() {
        let (mut s, _, r1, _, lp) = sample_store();
        let before = s.total_timings.len();
        let (id, inserted) = s.upsert_total_timing(lp, r1, 7.0, 9.5, 0.4);
        assert!(!inserted);
        assert_eq!(s.total_timings.len(), before);
        assert_eq!(s.total_timings[id.index()].incl, 9.5);
        assert_eq!(s.duration(lp, r1), Some(9.5));
    }

    #[test]
    fn upsert_total_timing_inserts_new_record() {
        let (mut s, v, _, _, _) = sample_store();
        let r3 = s.add_run(v, DateTime::from_secs(40), 16, 450);
        let root = s.main_region(v).unwrap();
        let before = s.total_timings.len();
        let (_, inserted) = s.upsert_total_timing(root, r3, 2.0, 20.0, 1.5);
        assert!(inserted);
        assert_eq!(s.total_timings.len(), before + 1);
        assert_eq!(s.duration(root, r3), Some(20.0));
    }

    #[test]
    fn upsert_typed_timing_roundtrip() {
        let (mut s, _, _, r2, lp) = sample_store();
        let (_, inserted) = s.upsert_typed_timing(lp, r2, TimingType::Barrier, 3.0);
        assert!(!inserted);
        assert_eq!(
            s.typed_timing(lp, r2, TimingType::Barrier).unwrap().time,
            3.0
        );
        let (_, inserted) = s.upsert_typed_timing(lp, r2, TimingType::IoRead, 0.5);
        assert!(inserted);
    }

    #[test]
    fn upsert_call_timing_replaces_per_run() {
        let mut s = Store::new();
        let p = s.add_program("x");
        let v = s.add_version(p, DateTime::from_secs(0), "");
        let f_main = s.add_function(v, "main");
        let f_bar = s.add_function(v, "barrier");
        let root = s.add_region(f_main, None, RegionKind::Subprogram, "main", (1, 10));
        let run = s.add_run(v, DateTime::from_secs(1), 4, 450);
        let c = s.add_call(f_main, f_bar, root);
        let ct = |mean_time: f64| CallTiming {
            call: c,
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
        };
        let (_, first) = s.upsert_call_timing(ct(1.0));
        let (id, second) = s.upsert_call_timing(ct(2.0));
        assert!(first);
        assert!(!second);
        assert_eq!(s.call_timings.len(), 1);
        assert_eq!(s.call_timings[id.index()].mean_time, 2.0);
    }

    #[test]
    fn streaming_lookups_find_existing_objects() {
        let (s, v, _, _, lp) = sample_store();
        assert_eq!(s.program_by_name("fluid3d"), Some(ProgramId(0)));
        assert_eq!(s.program_by_name("nope"), None);
        let f = s.function_by_name(v, "main").unwrap();
        assert_eq!(s.functions[f.index()].name, "main");
        let found = s.region_by_name(f, "main:loop@10", 10).unwrap();
        assert_eq!(found, lp);
        assert_eq!(s.region_by_name(f, "main:loop@10", 11), None);
        assert_eq!(s.min_pe_of_version(v), Some(2));
    }

    #[test]
    fn call_site_lookup() {
        let mut s = Store::new();
        let p = s.add_program("x");
        let v = s.add_version(p, DateTime::from_secs(0), "");
        let f_main = s.add_function(v, "main");
        let f_bar = s.add_function(v, "barrier");
        let root = s.add_region(f_main, None, RegionKind::Subprogram, "main", (1, 10));
        let c = s.add_call(f_main, f_bar, root);
        assert_eq!(s.call_site(f_main, f_bar, root), Some(c));
        assert_eq!(s.call_site(f_bar, f_main, root), None);
    }

    #[test]
    fn indexes_agree_with_arena_scans() {
        let (s, v, r1, r2, lp) = sample_store();
        // total_idx vs scan over tot_times.
        for region in [RegionId(0), lp] {
            for run in [r1, r2] {
                let scanned = s.regions[region.index()]
                    .tot_times
                    .iter()
                    .copied()
                    .find(|id| s.total_timings[id.index()].run == run);
                assert_eq!(s.total_timing_id(region, run), scanned);
            }
        }
        // typed indexes vs scan over typ_times.
        let scanned: Vec<_> = s.regions[lp.index()]
            .typ_times
            .iter()
            .copied()
            .filter(|id| s.typed_timings[id.index()].run == r2)
            .collect();
        assert_eq!(s.typed_timing_ids(lp, r2), scanned.as_slice());
        assert!(s.typed_timing_ids(lp, r1).is_empty());
        // children index vs full-arena scan.
        let root = s.regions[lp.index()].parent.unwrap();
        let scanned: Vec<_> = s
            .regions
            .iter()
            .enumerate()
            .filter(|(_, reg)| reg.parent == Some(root))
            .map(|(i, _)| RegionId(i as u32))
            .collect();
        assert_eq!(s.children(root).collect::<Vec<_>>(), scanned);
        // reference-run index vs min_by_key scan.
        let scanned = s.versions[v.index()]
            .runs
            .iter()
            .copied()
            .min_by_key(|r| s.runs[r.index()].no_pe);
        assert_eq!(s.min_pe_run(v), scanned);
    }

    #[test]
    fn min_pe_index_keeps_earliest_on_ties_and_tracks_new_minimum() {
        let (mut s, v, r1, _, _) = sample_store();
        // A tie on no_pe keeps the earlier run.
        s.add_run(v, DateTime::from_secs(40), 2, 450);
        assert_eq!(s.min_pe_run(v), Some(r1));
        // A strictly smaller configuration takes over.
        let r4 = s.add_run(v, DateTime::from_secs(50), 1, 450);
        assert_eq!(s.min_pe_run(v), Some(r4));
        assert_eq!(s.min_pe_of_version(v), Some(1));
    }

    #[test]
    fn upserts_keep_indexes_consistent() {
        let (mut s, v, r1, _, lp) = sample_store();
        let (id, _) = s.upsert_total_timing(lp, r1, 7.0, 9.5, 0.4);
        assert_eq!(s.total_timing_id(lp, r1), Some(id));
        let r3 = s.add_run(v, DateTime::from_secs(40), 16, 450);
        let (id3, inserted) = s.upsert_total_timing(lp, r3, 1.0, 2.0, 0.1);
        assert!(inserted);
        assert_eq!(s.total_timing_id(lp, r3), Some(id3));
        let (tid, inserted) = s.upsert_typed_timing(lp, r3, TimingType::IoRead, 0.5);
        assert!(inserted);
        assert_eq!(s.typed_timing_ids(lp, r3), &[tid]);
        assert_eq!(
            s.typed_timing(lp, r3, TimingType::IoRead).map(|t| t.time),
            Some(0.5)
        );
    }

    #[test]
    fn object_count_sums_arenas() {
        let (s, ..) = sample_store();
        // 1 program + 1 version + 2 runs + 1 function + 2 regions
        // + 4 total timings + 1 typed timing + 1 source = 13
        assert_eq!(s.object_count(), 13);
    }
}
