//! The standard COSY property suite, in ASL source form.

use asl_core::check::CheckedSpec;
use asl_core::parse_and_check;
use asl_eval::COSY_DATA_MODEL;

/// One entry of the standard suite's manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyInfo {
    /// Property name as declared in [`SUITE_PROPERTIES`].
    pub name: &'static str,
    /// §4.2: "`LoadImbalance` is evaluated only for calls to the barrier
    /// routine" — of the call sites its signature ranges over, the property
    /// is instantiated at those of the `barrier` runtime routine only.
    pub barrier_calls: bool,
}

const fn everywhere(name: &'static str) -> PropertyInfo {
    PropertyInfo {
        name,
        barrier_calls: false,
    }
}

/// The manifest of the standard suite: its property names in declaration
/// order, and the one instantiation rule the suite text does not carry.
/// What a property ranges over is read off its checked signature
/// ([`crate::Analyzer::families`]); this table decides nothing else.
pub const SUITE: &[PropertyInfo] = &[
    everywhere("SublinearSpeedup"),
    everywhere("MeasuredCost"),
    everywhere("UnmeasuredCost"),
    everywhere("SyncCost"),
    PropertyInfo {
        name: "LoadImbalance",
        barrier_calls: true,
    },
    everywhere("MessagePassingCost"),
    everywhere("CollectiveCost"),
    everywhere("OneSidedCost"),
    everywhere("IoCost"),
    everywhere("BufferCost"),
    everywhere("RuntimeOverhead"),
    everywhere("FrequentFineGrainCalls"),
];

/// The property specifications. The first five are the paper's §4.2
/// properties (`UnmeasuredCost` is described in prose as the counterpart of
/// `MeasuredCost`); the rest are refinement properties per overhead family
/// (documented extensions).
pub const SUITE_PROPERTIES: &str = r#"
// cosy-lint: allow(residual-filter-scan): the per-overhead-family properties
// filter `r.TypTimes` by `Run == t AND Type == X`; the store only indexes
// (owner, Run), so the Type equality runs per element. Known hot path,
// accepted until the store serves a composite (Run, Type) index natively.

// Tool-defined thresholds (§4.2 references ImbalanceThreshold).
float ImbalanceThreshold = 0.25;
float FrequentCallThreshold = 100.0;
float GranularityThreshold = 0.0001;

// ---- §4.2 of the paper --------------------------------------------------

Property SublinearSpeedup(Region r, TestRun t, Region Basis) {
    LET TotalTiming MinPeSum = UNIQUE({sum IN r.TotTimes WITH sum.Run.NoPe ==
            MIN(s.Run.NoPe WHERE s IN r.TotTimes)});
        float TotalCost = Duration(r,t) - Duration(r,MinPeSum.Run)
    IN
    CONDITION: TotalCost>0; CONFIDENCE: 1;
    SEVERITY: TotalCost/Duration(Basis,t);
}

Property MeasuredCost (Region r, TestRun t, Region Basis) {
    LET float Cost = Summary(r,t).Ovhd;
    IN CONDITION: Cost > 0; CONFIDENCE: 1;
    SEVERITY: Cost / Duration(Basis,t);
}

Property UnmeasuredCost (Region r, TestRun t, Region Basis) {
    LET TotalTiming MinPeSum = UNIQUE({sum IN r.TotTimes WITH sum.Run.NoPe ==
            MIN(s.Run.NoPe WHERE s IN r.TotTimes)});
        float TotalCost = Duration(r,t) - Duration(r,MinPeSum.Run);
        float Unmeasured = TotalCost - Summary(r,t).Ovhd
    IN CONDITION: Unmeasured > 0; CONFIDENCE: 1;
    SEVERITY: Unmeasured / Duration(Basis,t);
}

Property SyncCost(Region r, TestRun t, Region Basis) {
    LET float Barrier2 = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND tt.Type == Barrier)
    IN CONDITION: Barrier2 > 0; CONFIDENCE: 1;
    SEVERITY: Barrier2 / Duration(Basis,t);
}

Property LoadImbalance(FunctionCall Call, TestRun t, Region Basis) {
    LET CallTiming ct = UNIQUE ({c IN Call.Sums WITH c.Run == t});
        float Dev = ct.StdevTime;
        float Mean = ct.MeanTime
    IN CONDITION: Dev > ImbalanceThreshold * Mean; CONFIDENCE: 1;
    SEVERITY: Mean / Duration(Basis,t);
}

// ---- refinement properties per overhead family (extensions) -------------

Property MessagePassingCost(Region r, TestRun t, Region Basis) {
    LET float Msg = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND (tt.Type == PtpSend OR tt.Type == PtpRecv OR tt.Type == PtpWait))
    IN CONDITION: Msg > 0; CONFIDENCE: 1;
    SEVERITY: Msg / Duration(Basis,t);
}

Property CollectiveCost(Region r, TestRun t, Region Basis) {
    LET float Coll = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND (tt.Type == Broadcast OR tt.Type == Reduce OR tt.Type == AllReduce
                 OR tt.Type == Gather OR tt.Type == Scatter OR tt.Type == AllToAll))
    IN CONDITION: Coll > 0; CONFIDENCE: 1;
    SEVERITY: Coll / Duration(Basis,t);
}

Property OneSidedCost(Region r, TestRun t, Region Basis) {
    LET float Shm = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND (tt.Type == ShmemPut OR tt.Type == ShmemGet OR tt.Type == ShmemWait))
    IN CONDITION: Shm > 0; CONFIDENCE: 1;
    SEVERITY: Shm / Duration(Basis,t);
}

Property IoCost(Region r, TestRun t, Region Basis) {
    LET float Io = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND (tt.Type == IoOpen OR tt.Type == IoClose OR tt.Type == IoRead
                 OR tt.Type == IoWrite OR tt.Type == IoSeek))
    IN CONDITION: Io > 0; CONFIDENCE: 1;
    SEVERITY: Io / Duration(Basis,t);
}

Property BufferCost(Region r, TestRun t, Region Basis) {
    LET float Buf = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND (tt.Type == BufferPack OR tt.Type == BufferUnpack))
    IN CONDITION: Buf > 0; CONFIDENCE: 1;
    SEVERITY: Buf / Duration(Basis,t);
}

Property RuntimeOverhead(Region r, TestRun t, Region Basis) {
    LET float Rt = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND (tt.Type == Startup OR tt.Type == Shutdown OR tt.Type == Instrumentation))
    IN CONDITION: Rt > 0; CONFIDENCE: 1;
    SEVERITY: Rt / Duration(Basis,t);
}

// A Paradyn-inspired granularity check (cf. TooManySmallIOOps in §2):
// a call site executed very often with tiny per-call time.
Property FrequentFineGrainCalls(FunctionCall Call, TestRun t, Region Basis) {
    LET CallTiming ct = UNIQUE({c IN Call.Sums WITH c.Run == t})
    IN CONDITION: ct.MeanCount > FrequentCallThreshold
                  AND ct.MeanTime / ct.MeanCount < GranularityThreshold;
    CONFIDENCE: 0.8;
    SEVERITY: ct.MeanTime / Duration(Basis,t);
}
"#;

/// The full ASL source of the standard suite (data model + properties).
pub fn standard_suite_source() -> String {
    format!("{COSY_DATA_MODEL}\n{SUITE_PROPERTIES}")
}

/// Parse and type-check the standard suite.
pub fn standard_suite() -> CheckedSpec {
    let src = standard_suite_source();
    parse_and_check(&src)
        .unwrap_or_else(|d| panic!("standard suite must check:\n{}", d.render(&src)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_names_the_declared_properties_in_order() {
        let spec = standard_suite();
        let declared: Vec<&str> = spec
            .properties()
            .iter()
            .map(|p| p.name.name.as_str())
            .collect();
        let manifest: Vec<&str> = SUITE.iter().map(|info| info.name).collect();
        assert_eq!(manifest, declared);
    }

    /// `benchmark/expected/spec_frontend.seed-*.json` commits the suite's
    /// `compile(..).node_count()` and the hash of its lint JSON, whose
    /// `costs` block prints these numbers: whatever the evaluator learns
    /// about a property (batch hoists, lending) lives beside the node pool,
    /// never in it.
    #[test]
    fn the_ir_pool_is_frozen() {
        let compiled = asl_eval::compile(&standard_suite());
        assert_eq!(compiled.node_count(), 349);
        // (property, ir_nodes, cached_subtrees, estimated_units)
        let pinned = [
            ("SublinearSpeedup", 32, 1, 413),
            ("MeasuredCost", 13, 0, 44),
            ("UnmeasuredCost", 38, 1, 432),
            ("SyncCost", 19, 0, 87),
            ("LoadImbalance", 19, 0, 48),
            ("MessagePassingCost", 29, 0, 151),
            ("CollectiveCost", 44, 0, 247),
            ("OneSidedCost", 29, 0, 151),
            ("IoCost", 39, 0, 215),
            ("BufferCost", 24, 0, 119),
            ("RuntimeOverhead", 29, 0, 151),
            ("FrequentFineGrainCalls", 23, 0, 58),
        ];
        let costs: Vec<_> = compiled
            .property_costs()
            .into_iter()
            .map(|c| (c.property, c.ir_nodes, c.cached_subtrees, c.estimated_units))
            .collect();
        let pinned: Vec<_> = pinned
            .iter()
            .map(|&(name, nodes, cached, units)| (name.to_string(), nodes, cached, units))
            .collect();
        assert_eq!(costs, pinned);
        // Binding builds the batch plan; the pool is the same afterwards.
        let compiled = std::sync::Arc::new(compiled);
        let store = perfdata::Store::new();
        crate::backend::PreparedBackend::from_compiled(compiled.clone(), &store).unwrap();
        assert_eq!(compiled.node_count(), 349);
    }

    /// What the plan beside that pool holds for the suite: the seven
    /// per-overhead-family sums hand their `Type ∈ {…}` test to the store,
    /// the two `MinPeSum`s are one cell filled once per region and flush,
    /// and every severity's `Duration(Basis, t)` is evaluated once per
    /// batch.
    #[test]
    fn the_plan_of_the_suite_is_pinned() {
        let compiled = asl_eval::compile(&standard_suite());
        assert_eq!(
            compiled.plan_stats(),
            asl_eval::PlanStats {
                hoist_sites: 12,
                subject_sites: 4,
                subject_cells: 2,
                run_sites: 15,
                run_cells: 11,
                sum_groups: 1,
                second_keys: 7,
            }
        );
        assert_eq!(compiled.node_count(), 349);
    }

    /// What each property reads, as the online engine's invalidation sees
    /// it: the twelve standard properties, `io_contention.asl`'s user
    /// property, and one that navigates to a region's parent. The only
    /// reads of another run are of the selected run of a region's totals
    /// (the min-PE total `MinPeSum`): `SublinearSpeedup` and
    /// `UnmeasuredCost` read that total, `IoContention` also the typed
    /// timings of its run. Every property reads the basis total of the
    /// analyzed run (`Duration(Basis, t)`), and each standard property
    /// requires its own run's total or call statistics, unless it only
    /// sums typed timings.
    #[test]
    fn the_reads_of_the_suite_are_pinned() {
        use asl_eval::{Measurements::*, Owner::*, PropertyReads, Runs::*};
        let src = format!(
            "{}\n{}\n\
             Property ParentShare(Region r, TestRun t, Region Basis) {{\n\
             LET float Own = Duration(r, t); float Parent = Duration(r.ParentRegion, t)\n\
             IN CONDITION: Own > 0.5 * Parent; CONFIDENCE: 1; SEVERITY: Own / Duration(Basis, t); }}",
            standard_suite_source(),
            include_str!("../../../examples/specs/io_contention.asl")
        );
        let spec = parse_and_check(&src).unwrap_or_else(|d| panic!("{}", d.render(&src)));
        let compiled = asl_eval::compile(&spec);
        let basis = (Basis, TotTimes, Analyzed);
        let min_pe = Selected(TotTimes);
        let own_total = [(Subject, TotTimes, Analyzed), basis];
        let min_pe_total = [
            (Subject, TotTimes, Analyzed),
            (Subject, TotTimes, min_pe),
            basis,
        ];
        let typed = [(Subject, TypTimes, Analyzed), basis];
        let calls = [(Subject, Sums, Analyzed), basis];
        let io_contention = [
            (Subject, TotTimes, min_pe),
            (Subject, TypTimes, Analyzed),
            (Subject, TypTimes, min_pe),
            basis,
        ];
        let total = Some(TotTimes);
        let sums = Some(Sums);
        #[rustfmt::skip]
        let pinned: [(&str, Option<(&[_], _)>); 14] = [
            ("SublinearSpeedup", Some((&min_pe_total, total))),
            ("MeasuredCost", Some((&own_total, total))),
            ("UnmeasuredCost", Some((&min_pe_total, total))),
            ("SyncCost", Some((&typed, None))),
            ("LoadImbalance", Some((&calls, sums))),
            ("MessagePassingCost", Some((&typed, None))),
            ("CollectiveCost", Some((&typed, None))),
            ("OneSidedCost", Some((&typed, None))),
            ("IoCost", Some((&typed, None))),
            ("BufferCost", Some((&typed, None))),
            ("RuntimeOverhead", Some((&typed, None))),
            ("FrequentFineGrainCalls", Some((&calls, sums))),
            ("IoContention", Some((&io_contention, None))),
            ("ParentShare", None),
        ];
        let reads: Vec<_> = spec
            .properties()
            .iter()
            .zip(compiled.property_reads())
            .map(|(p, reads)| {
                let reads = match reads {
                    PropertyReads::Classified(set) => {
                        let required = asl_eval::Measurements::ALL.into_iter();
                        let required: Vec<_> = required.filter(|s| set.requires_own(*s)).collect();
                        Some((set.iter().collect::<Vec<_>>(), required))
                    }
                    PropertyReads::Unclassified => None,
                };
                (p.name.name.as_str(), reads)
            })
            .collect();
        let pinned: Vec<_> = pinned
            .iter()
            .map(|(name, reads)| {
                let reads =
                    reads.map(|(reads, required)| (reads.to_vec(), Vec::from_iter(required)));
                (*name, reads)
            })
            .collect();
        assert_eq!(reads, pinned);
    }

    #[test]
    fn paper_properties_take_region_run_basis() {
        let spec = standard_suite();
        for name in [
            "SublinearSpeedup",
            "MeasuredCost",
            "UnmeasuredCost",
            "SyncCost",
        ] {
            let p = spec.property(name).unwrap();
            let tys: Vec<String> = p.params.iter().map(|x| x.ty.to_string()).collect();
            assert_eq!(tys, ["Region", "TestRun", "Region"], "{name}");
        }
    }
}
