// Custom property: I/O time that grew superlinearly vs the reference run
// indicates filesystem contention (shared-bandwidth saturation).
//
// This file extends the built-in COSY suite: lint it with the data model
// prepended, evaluate it with the standard properties as well, e.g.
//
//     cargo run -p kojak-lint --bin cosy_lint -- --with-suite examples/specs/io_contention.asl
//
// cosy-lint: allow(residual-filter-scan): the IoNow/IoRef filters select by
// (Run, Type); the store indexes only (owner, Run), so the Type membership
// test runs per element. Same accepted hot path as the standard suite.

Property IoContention(Region r, TestRun t, Region Basis) {
    LET TotalTiming MinPeSum = UNIQUE({sum IN r.TotTimes WITH sum.Run.NoPe ==
            MIN(s.Run.NoPe WHERE s IN r.TotTimes)});
        float IoNow  = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
            AND (tt.Type == IoRead OR tt.Type == IoWrite));
        float IoRef  = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==MinPeSum.Run
            AND (tt.Type == IoRead OR tt.Type == IoWrite));
        float Growth = t.NoPe / MinPeSum.Run.NoPe
    IN
    CONDITION: (contended) IoRef > 0 AND IoNow > IoRef * Growth;
    CONFIDENCE: MAX((contended) -> 0.9);
    SEVERITY: MAX((contended) -> (IoNow - IoRef) / Duration(Basis,t));
}
