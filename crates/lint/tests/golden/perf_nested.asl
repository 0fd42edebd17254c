// Golden fixture: the performance lints under three levels of nesting.
// `fn` (outer, over a LET-bound source), `c` (middle) and `r` (inner) are
// all in scope at the innermost body, which loads one set through each
// binder alone and one through two of them at once — `Pick(c, r).Sums` is
// attributed to `c`, the outermost binder it uses. `Shadowed` rebinds `c`
// under itself; `TwoKeyInside` hides a two-key filter and a reordered one
// two levels down, where their base is an outer binder.

FunctionCall Pick(FunctionCall a, Region b) = a;

Property NestedClones(ProgVersion v, TestRun t, Region Basis) {
    LET setof Function Fns = v.Functions;
        float Deep = SUM(
            SUM(
                SUM(COUNT(r.TypTimes) + COUNT(c.Sums) + COUNT(fn.Calls)
                        + COUNT(Pick(c, r).Sums) + COUNT(c.CallingReg.TotTimes)
                        + COUNT(Basis.TotTimes)
                    WHERE r IN fn.Regions AND EXISTS(s IN r.TotTimes WITH s.Run == t))
                WHERE c IN fn.Calls)
            WHERE fn IN Fns);
        float Shadowed = SUM(
            SUM(COUNT(c.Sums) WHERE c IN c.Caller.Calls)
            WHERE c IN UNIQUE({f IN Fns WITH f.Name == "main"}).Calls)
    IN
    CONDITION: Deep + Shadowed > 0;
    CONFIDENCE: 1;
    SEVERITY: Deep / Duration(Basis, t);
}

Property TwoKeyInside(ProgVersion v, TestRun t, Region Basis) {
    LET float Inside = SUM(
            SUM(
                SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t AND tt.Type == Barrier)
              + SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Type == Barrier AND tt.Run == t)
                WHERE r IN fn.Regions)
            WHERE fn IN v.Functions)
    IN
    CONDITION: Inside > 0;
    CONFIDENCE: 1;
    SEVERITY: Inside / Duration(Basis, t);
}
