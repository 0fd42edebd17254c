// Negative spec, known verdict: UNIT MISMATCH.
// `Excl` is a time, `NoPe` a count: the dimension lattice proves the
// comparison meaningless.

Property ComparesTimeWithCount(Region r, TestRun t, Region Basis) {
    LET TotalTiming tt = Summary(r,t)
    IN CONDITION: tt.Excl > t.NoPe; CONFIDENCE: 1;
    SEVERITY: tt.Excl / Duration(Basis,t);
}
