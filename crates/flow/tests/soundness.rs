//! Soundness of the abstract interpreter's proven claims, checked
//! against **both** runtime backends on randomized stores and specs.
//!
//! For every generated (store, suite) pair and every property context —
//! region and call-site properties alike:
//!
//! * a condition flow proves `False` must never fire at runtime (so any
//!   arm it guards never runs), and one proven `True` must always fire;
//! * a property whose every division/modulo site is `ProvenSafe` (and
//!   whose helpers and constants are likewise all safe) must never
//!   raise `DivByZero` — through the interpreter *or* the compiled
//!   engine.
//!
//! The cases come from testkit's one generator: the real standard suite
//! plus generated properties, of which `Gen0` is shaped so the claims
//! occur — `COUNT(...) < 0` (proven unsatisfiable), `COUNT(...) >= 0`
//! (proven tautological), and `X / N` guarded by `N > k` with `k >= 0`
//! (proven safe by guard implication through a `LET`).

use asl_eval::{compile, CompiledEvaluator, CosyData, Interpreter, Value};
use flow::{DivVerdict, Tri};
use proptest::prelude::*;
use std::sync::Arc;

/// Check one backend's outcome against the flow claims for a property.
fn check_claims(
    what: &str,
    pf: &flow::PropFlow,
    all_div_safe: bool,
    outcome: &Result<asl_eval::PropertyOutcome, asl_eval::EvalError>,
) {
    match outcome {
        Ok(o) => {
            for cf in &pf.conditions {
                let Some(id) = &cf.id else { continue };
                let Some((_, fired)) = o.fired.iter().find(|(i, _)| i.as_deref() == Some(id))
                else {
                    continue;
                };
                match cf.value {
                    Tri::False => assert!(
                        !fired,
                        "{what}: condition ({id}) proven False but fired at runtime"
                    ),
                    Tri::True => assert!(
                        fired,
                        "{what}: condition ({id}) proven True but did not fire"
                    ),
                    Tri::Unknown => {}
                }
            }
        }
        Err(e) => {
            if all_div_safe {
                assert_ne!(
                    e.kind,
                    asl_eval::EvalErrorKind::DivByZero,
                    "{what}: every division proven safe but DivByZero raised: {}",
                    e.message
                );
            }
        }
    }
}

fn check_case(seed: u64, n_runs: usize, n_regions: usize) {
    let (store, v) = testkit::random_store(seed, n_runs, n_regions);
    let src = testkit::generated_suite(seed);
    let spec = asl_core::parse_and_check(&src).expect("generated suite checks");
    let comp = Arc::new(compile(&spec));
    let report = flow::analyze(&spec, &comp);

    let data = CosyData::new(&store);
    let interp = Interpreter::new(&spec, &data).expect("interpreter binds");
    let compiled = CompiledEvaluator::new(comp.clone(), &data).expect("compiled binds");

    let basis = store.main_region(v).expect("main region");

    // Shared declarations safe ⇒ the per-property claim only needs the
    // property's own sites.
    let decls_safe = report.consts.iter().chain(&report.functions).all(|d| {
        d.divisions
            .iter()
            .all(|s| s.verdict == DivVerdict::ProvenSafe)
            || d.divisions.is_empty()
    });

    for p in spec.properties() {
        let name = &p.name.name;
        let Some(pf) = report.property(name) else {
            continue;
        };
        let all_div_safe = decls_safe
            && pf
                .divisions
                .iter()
                .all(|s| s.verdict == DivVerdict::ProvenSafe);
        for &run in &store.versions[v.index()].runs {
            for subject in testkit::subjects(&store, p) {
                let args = [subject.clone(), Value::run(run), Value::region(basis)];
                check_claims(
                    &format!("interp {name}({subject})"),
                    pf,
                    all_div_safe,
                    &interp.eval_property(name, &args),
                );
                check_claims(
                    &format!("compiled {name}({subject})"),
                    pf,
                    all_div_safe,
                    &compiled.eval_property(name, &args),
                );
            }
        }
    }

    // The generated shapes must actually exercise the claims — guard
    // against the generator and the analysis drifting apart.
    let gen0 = report.property("Gen0").expect("Gen0 analyzed");
    assert!(
        gen0.conditions.iter().any(|c| c.value == Tri::False),
        "generator no longer produces a proven-False condition"
    );
    assert!(
        gen0.conditions.iter().any(|c| c.value == Tri::True),
        "generator no longer produces a proven-True condition"
    );
    assert!(
        gen0.divisions
            .iter()
            .any(|s| s.verdict == DivVerdict::ProvenSafe),
        "generator no longer produces a proven-safe division"
    );
}

proptest! {
    #![proptest_config(testkit::cases(16))]

    #[test]
    fn proven_claims_hold_on_both_backends(
        seed in 0u64..1_000_000_000,
        n_runs in 1usize..4,
        n_regions in 1usize..4,
    ) {
        check_case(seed, n_runs, n_regions);
    }
}

#[test]
fn proven_claims_hold_on_fixed_edge_seeds() {
    // Single run/region (empty-set heavy) and a denser shape.
    check_case(0xdead_beef, 1, 1);
    check_case(0x5eed_cafe, 3, 3);
}
