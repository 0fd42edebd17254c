//! Work budget of property evaluation: how many IR nodes the compiled
//! evaluator executes for the standard suite on a fixed store — an exact
//! count where a stopwatch on a shared host is not.
//!
//! A batch runs each node once over all the lanes that reach it, so the
//! count follows the batches (one per property and run here) and the
//! shape of the suite, not the number of subjects in a batch.
//!
//! Own test binary, one test function: the counter is process-wide.

use apprentice_sim::{archetypes, simulate_program, MachineModel};
use cosy::backend::PreparedBackend;
use cosy::Analyzer;
use perfdata::Store;

/// Node executions `f` adds to the process-wide counter (the scratches it
/// drops report theirs).
fn executions<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = asl_eval::node_executions();
    let out = f();
    (asl_eval::node_executions() - before, out)
}

#[test]
fn the_node_executions_of_the_suite_are_pinned() {
    // The store of `alloc_budget.rs`.
    let mut store = Store::new();
    let version = simulate_program(
        &mut store,
        &archetypes::particle_mc(7),
        &MachineModel::t3e_900(),
        &[1, 4, 16],
    );
    let runs = store.versions[version.index()].runs.clone();
    let analyzer = Analyzer::new(&store, version).unwrap();
    let prepared = PreparedBackend::from_compiled(analyzer.compiled_spec(), &store).unwrap();

    let mut instances = 0;
    let mut batches = 0;
    let (work, ()) = executions(|| {
        for &run in &runs {
            let list = analyzer.instances(run);
            let mut last = None;
            batches += list
                .iter()
                .filter(|inst| last.replace(inst.property) != Some(inst.property))
                .count();
            instances += list.len();
            analyzer.evaluate_instances(&prepared, &list).unwrap();
        }
    });
    println!("{work} node executions for {instances} instances in {batches} batches");
    assert_eq!((instances, batches), (162, 36));
    // 682 while every property evaluated its own `Duration(r, t)`,
    // `Summary(r, t).Ovhd`, call statistics and sums: a run cell now answers
    // the second property that reads one, the seven per-family sums are
    // filled in one visit, and `Duration(r, MinPeSum.Run)` is a subject
    // cell.
    assert_eq!(work, 523);

    // The same runs again on the same binding: the subject cells answer
    // `MinPeSum` and `Duration(r, MinPeSum.Run)` now, so their subtrees are
    // not executed again.
    let (warm, ()) = executions(|| {
        for &run in &runs {
            let list = analyzer.instances(run);
            analyzer.evaluate_instances(&prepared, &list).unwrap();
        }
    });
    assert!(warm < work, "{warm} warm vs {work} cold");
}
