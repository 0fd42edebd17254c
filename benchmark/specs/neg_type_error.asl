// Negative spec, known verdict: TYPE ERROR.
// `Name` is a String attribute; comparing it with a float and reading an
// attribute the data model does not declare must both be rejected by the
// checker.

Property IllTyped(Region r, TestRun t, Region Basis) {
    LET float Cost = Summary(r,t).Ovhd
    IN CONDITION: r.Name > 0.5 AND r.NoSuchAttribute > 0; CONFIDENCE: 1;
    SEVERITY: Cost / Duration(Basis,t);
}
