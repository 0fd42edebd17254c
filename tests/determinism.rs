//! Determinism guarantees: identical seeds produce identical databases and
//! identical analyses, run after run.

use kojak::apprentice_sim::{archetypes, simulate_program, MachineModel};
use kojak::cosy::{Analyzer, Backend, ProblemThreshold};
use kojak::perfdata::Store;

fn build(seed: u64) -> (Store, kojak::perfdata::VersionId) {
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    let version = simulate_program(
        &mut store,
        &archetypes::particle_mc(seed),
        &machine,
        &[1, 8, 64],
    );
    (store, version)
}

#[test]
fn identical_seeds_identical_stores() {
    let (a, _) = build(7);
    let (b, _) = build(7);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let (a, _) = build(7);
    let (b, _) = build(8);
    assert_ne!(a, b);
}

#[test]
fn analysis_is_deterministic_across_runs() {
    let (store, version) = build(13);
    let run = *store.versions[version.index()].runs.last().unwrap();
    let analyzer = Analyzer::new(&store, version).unwrap();
    let first = analyzer
        .analyze(run, Backend::Interpreter, ProblemThreshold::default())
        .unwrap();
    for _ in 0..3 {
        let again = analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap();
        assert_eq!(first, again);
    }
}

#[test]
fn report_text_is_stable() {
    let (store, version) = build(13);
    let run = *store.versions[version.index()].runs.last().unwrap();
    let analyzer = Analyzer::new(&store, version).unwrap();
    let a = kojak::cosy::report::render_text(
        &analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap(),
    );
    let b = kojak::cosy::report::render_text(
        &analyzer
            .analyze(run, Backend::Interpreter, ProblemThreshold::default())
            .unwrap(),
    );
    assert_eq!(a, b);
}
