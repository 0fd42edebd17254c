//! Allocation budget of the evaluation hot path — a structural gate a
//! noisy host can check exactly, where a stopwatch cannot.
//!
//! Enumerating and evaluating the instances of a run must not allocate
//! per instance: an entry that holds is a compact record of ids and
//! numbers — names, labels and context descriptions are built when a
//! report is ranked, not here; frames, sets and helper-call arguments
//! live in one reused scratch per call. What remains is per analyzer
//! (the version's context lists), per call (the instance list, the
//! scratch, the result vector) and per binding (the slots of what the
//! evaluator keeps per subject, allocated by the first instance that
//! needs them — not again by a later run).
//!
//! Own test binary, one test function: the counter is the process's
//! global allocator.

use apprentice_sim::{archetypes, simulate_program, MachineModel};
use cosy::backend::PreparedBackend;
use cosy::{Analyzer, Instances};
use perfdata::{Store, TestRunId, VersionId};
use testkit::{allocated_bytes, allocations, Scenario};

#[global_allocator]
static GLOBAL: testkit::Counting = testkit::Counting;

#[test]
fn evaluation_allocates_per_batch_not_per_instance() {
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

    // Cold, on a fresh analyzer: everything a flush pays per instance —
    // the version's context lists included.
    let mut instances = 0;
    let mut held = 0;
    let (cold, ()) = allocations(|| {
        for &run in &runs {
            let list = analyzer.instances(run);
            let outcomes = analyzer.evaluate_instances(&prepared, &list).unwrap();
            instances += list.len();
            held += outcomes.iter().flatten().count();
        }
    });
    println!("cold: {cold} allocations, {instances} instances, {held} held");
    assert!(held > 0 && held < instances, "{held} of {instances} hold");
    assert!(
        cold <= instances,
        "{cold} allocations for {instances} instances ({held} held): over 1 per instance"
    );
    // 76 while the evaluator kept one subject cell sized by the store; its
    // row table of subject and run cells is 4 allocations, its scratch
    // no longer grows a frame stack for every batch: 76 → 75. Unboxed
    // lanes are four stacks and an error table, each reserved once per
    // scratch where one stack of values was — three more per call — and
    // the evaluator keeps the rows of its subject lists: 75 → 92. (Kept
    // per subject a batch starts with, made as batches arrive, in place
    // of four reserved at once, and cells grown a block of rows at a
    // time: still 92.)
    assert_eq!(cold, 92, "cold allocations of the three runs");

    // Warm, on the instances that do not hold: evaluating all of them
    // allocates exactly what evaluating one per batch does — the loop over
    // the instances of a batch allocates nothing.
    let run = runs[0];
    let all = analyzer.instances(run);
    let outcomes = analyzer.evaluate_instances(&prepared, &all).unwrap();
    let mut quiet = all.clone();
    let mut next = outcomes.iter();
    quiet.retain(|_| next.next().is_some_and(|held| held.is_none()));
    let mut heads = quiet.clone();
    let mut last = None;
    heads.retain(|inst| last.replace(inst.property) != Some(inst.property));
    assert!(
        heads.len() > 1 && quiet.len() >= 3 * heads.len(),
        "{} quiet instances in {} batches",
        quiet.len(),
        heads.len()
    );

    let evaluate = |list: &Instances| {
        let outcomes = analyzer.evaluate_instances(&prepared, list).unwrap();
        assert!(outcomes.iter().all(Option::is_none));
    };
    evaluate(&quiet);
    let (per_batch, ()) = allocations(|| evaluate(&heads));
    let (per_instance, ()) = allocations(|| evaluate(&quiet));
    println!(
        "warm: {per_instance} allocations for {} quiet instances, {per_batch} for the {} batch heads",
        quiet.len(),
        heads.len()
    );
    assert_eq!(per_instance, per_batch);

    // Per binding: the first run evaluated on a fresh one allocates the
    // per-subject slots, a second run finds them — its first evaluation
    // allocates what its repetition does.
    let fresh = PreparedBackend::from_compiled(analyzer.compiled_spec(), &store).unwrap();
    let lists = [runs[0], runs[1]].map(|run| analyzer.instances(run));
    let mut counts = [0; 4];
    for (i, list) in [&lists[0], &lists[0], &lists[1], &lists[1]]
        .into_iter()
        .enumerate()
    {
        counts[i] = allocations(|| analyzer.evaluate_instances(&fresh, list).unwrap()).0;
    }
    println!("fresh binding: {counts:?} (first run twice, then second run twice)");
    assert!(
        counts[0] > counts[1],
        "{counts:?}: nothing kept per binding"
    );
    assert_eq!(counts[2], counts[3], "a second run allocated per binding");

    // Per call: warm, a list of a few batches and one of many — longer
    // than a batch's lanes — allocate the same, whatever the host's cores.
    let scenario = Scenario {
        functions: 8,
        pes: vec![1, 4, 16],
        ..Scenario::new(3)
    };
    let generated = scenario.store();
    let wide = Analyzer::new(&generated, VersionId(0)).unwrap();
    let warm = |analyzer: &Analyzer, store, list: &Instances| {
        let bound = PreparedBackend::from_compiled(analyzer.compiled_spec(), store).unwrap();
        analyzer.evaluate_instances(&bound, list).unwrap();
        allocations(|| analyzer.evaluate_instances(&bound, list).unwrap()).0
    };
    let (short, long) = (&lists[0], wide.instances(TestRunId(2)));
    let per_call = [
        warm(&analyzer, &store, short),
        warm(&wide, &generated, &long),
    ];
    println!(
        "warm per call: {per_call:?} for {} and {} instances",
        short.len(),
        long.len()
    );
    assert_eq!((short.len(), long.len()), (54, 530));
    assert_eq!(per_call[0], per_call[1], "a longer list allocated more");

    // Per binding, by the version: the same run of version 0, evaluated on
    // a fresh binding in a store of 4 versions and in one of 64, allocates
    // as often and as much — what the evaluator keeps per subject grows
    // with the subjects it evaluates, never with the store.
    let first_run = |versions| {
        let store = Scenario {
            versions,
            ..Scenario::new(5)
        }
        .store();
        let analyzer = Analyzer::new(&store, VersionId(0)).unwrap();
        let list = analyzer.instances(store.versions[0].runs[0]);
        let bound = PreparedBackend::from_compiled(analyzer.compiled_spec(), &store).unwrap();
        let (count, bytes, _) =
            allocated_bytes(|| analyzer.evaluate_instances(&bound, &list).unwrap());
        (store.regions.len(), count, bytes)
    };
    let (small, large) = (first_run(4), first_run(64));
    println!("version 0 in stores of 4 and 64 versions: {small:?} / {large:?} (regions, allocations, bytes)");
    assert!(large.0 > 4 * small.0, "{small:?} / {large:?}");
    assert_eq!(
        (small.1, small.2),
        (large.1, large.2),
        "a larger store allocated more"
    );
}
