// Negative spec, known verdict: PARSE ERROR.
// The LET block is never closed with IN, and the property body never ends.

Property BrokenSyntax(Region r, TestRun t, Region Basis) {
    LET float Cost = Summary(r,t).Ovhd
    CONDITION: Cost > 0; CONFIDENCE: 1;
    SEVERITY: Cost / Duration(Basis,t)
