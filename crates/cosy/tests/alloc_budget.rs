//! Allocation budget of the evaluation hot path — a structural gate a
//! noisy host can check exactly, where a stopwatch cannot.
//!
//! Enumerating and evaluating the instances of a run must not allocate
//! per instance: names, labels and context descriptions are built only
//! for entries that hold, and shared; frames, sets and helper-call
//! arguments live in one reused scratch per batch. What remains is per
//! batch (scratch, output vector), per context (its label, once per
//! analyzer), per call (the instance list, the result vector) and per
//! binding (the slots of what the evaluator keeps per subject, allocated
//! by the first instance that needs them — not again by a later run).
//!
//! Own test binary, one test function: the counter is the process's
//! global allocator.

use apprentice_sim::{archetypes, simulate_program, MachineModel};
use cosy::backend::PreparedBackend;
use cosy::{Analyzer, Instances};
use perfdata::Store;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter has no bearing on the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` performs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

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
    // the version's context lists and each context's label included.
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
}
