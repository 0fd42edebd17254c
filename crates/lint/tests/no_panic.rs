//! parse → check → lint → cost-estimate must never panic.
//!
//! Randomized property suites from the one evaluator-level generator in
//! `crates/testkit` ([`testkit::generated_suite`]): the real data model
//! and standard COSY properties plus random aggregates and
//! comprehensions, filter shapes (indexed single-key, two-key, reordered,
//! `OR` chains, non-equality, no run key), random comparisons and
//! thresholds, guarded arms, quantifiers, recursion, and denominators that
//! hit every `possible-div-by-zero` path (`X - X`, LET-bound `COUNT`,
//! plain `COUNT`). The specs are well-typed by construction; the
//! assertion is simply that the whole analysis pipeline — rules, cost
//! model, text and JSON rendering, gate evaluation — returns on all of
//! them.

use proptest::prelude::*;

proptest! {
    #![proptest_config(testkit::cases(32))]

    #[test]
    fn lint_and_cost_estimate_never_panic(seed in 0u64..1_000_000_000) {
        let src = testkit::generated_suite(seed);
        let spec = asl_core::parse_and_check(&src).expect("generated spec must check");
        let report = lint::lint(&spec, &src);
        let _ = report.render_text(&src);
        let _ = report.to_json(&src);
        let _ = report.render_costs();
        let _ = lint::LintGate::Deny.evaluate(&report, &src);
    }
}
