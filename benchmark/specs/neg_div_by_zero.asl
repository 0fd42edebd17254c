// Negative spec, known verdict: PROVEN DIVISION BY ZERO.
// The denominator is syntactically `E - E`; the flow pass proves it zero.

Property DividesByZero(Region r, TestRun t, Region Basis) {
    LET float Cost = Summary(r,t).Ovhd;
        float Nothing = Duration(Basis,t) - Duration(Basis,t)
    IN CONDITION: Cost > 0; CONFIDENCE: 1;
    SEVERITY: Cost / Nothing;
}
