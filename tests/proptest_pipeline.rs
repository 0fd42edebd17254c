//! Randomized whole-pipeline property tests: for arbitrary generated
//! programs and machine parameters, the three analysis backends agree and
//! the analysis respects its defining invariants.

use kojak::apprentice_sim::{simulate_program, MachineModel};
use kojak::cosy::{Analyzer, Backend, ProblemThreshold};
use kojak::perfdata::{validate, Store};
use proptest::prelude::*;

fn machine_strategy() -> impl Strategy<Value = MachineModel> {
    (
        1e-6f64..50e-6, // ptp latency
        0.0f64..0.01,   // contention
        1e-6f64..20e-6, // barrier base
        50e6f64..500e6, // io bandwidth
    )
        .prop_map(|(ptp, contention, barrier, io_bw)| MachineModel {
            ptp_latency: ptp,
            contention_coeff: contention,
            barrier_base: barrier,
            io_bandwidth: io_bw,
            ..MachineModel::t3e_900()
        })
}

proptest! {
    // The full pipeline is expensive; a handful of random cases per run is
    // still a much wider net than the fixed-seed tests.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pipeline_invariants_hold_for_random_programs(
        seed in 0u64..10_000,
        functions in 1usize..5,
        machine in machine_strategy(),
        pe in prop_oneof![Just(4u32), Just(8), Just(16), Just(32)],
    ) {
        let model = testkit::generator(seed, functions).generate();
        let mut store = Store::new();
        let version = simulate_program(&mut store, &model, &machine, &[1, pe]);
        prop_assert!(validate(&store).is_empty());

        let run = store.versions[version.index()].runs[1];
        let analyzer = Analyzer::new(&store, version).unwrap();
        let a = analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();

        // Invariants of any analysis.
        for w in a.entries.windows(2) {
            prop_assert!(w[0].severity >= w[1].severity, "ranking must be sorted");
        }
        for e in &a.entries {
            prop_assert!(e.severity > 0.0);
            prop_assert!((0.0..=1.0).contains(&e.confidence));
        }
        if let Some(b) = a.bottleneck() {
            prop_assert!(a.entries.iter().all(|e| e.severity <= b.severity));
        }

        // Backend agreement on the full ranking.
        for backend in [Backend::Sql, Backend::SqlBatched] {
            let b = analyzer
                .analyze(run, backend, ProblemThreshold::default())
                .unwrap();
            prop_assert_eq!(a.entries.len(), b.entries.len(), "{:?}", backend);
            for (x, y) in a.entries.iter().zip(&b.entries) {
                prop_assert_eq!(&x.property, &y.property);
                prop_assert_eq!(&x.context.label, &y.context.label);
                prop_assert!(
                    (x.severity - y.severity).abs() <= 1e-9 * x.severity.max(1.0),
                    "{}: {} vs {}", x.property, x.severity, y.severity
                );
            }
        }
    }
}
