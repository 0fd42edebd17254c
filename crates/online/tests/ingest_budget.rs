//! Allocation ledger of ingest — an exact count a noisy host can check,
//! where a stopwatch cannot.
//!
//! `StoreBuilder::apply_batch` over the replayed event stream of a fixed
//! simulated store: every program archetype and one generated program of
//! twelve functions, one version each, seven processor configurations. What it allocates is the store's own growth
//! (arenas, names, back-link lists, run rows, duplicate chains) and the
//! delta's per-run sets. Indexing a record allocates nothing of its own:
//! a run's row grows once per version's worth of regions, not per owner.
//! A change that moves the count must restate it here, on purpose.
//!
//! Own test binary, one test function: the counter is the process's
//! global allocator.

use apprentice_sim::{archetypes, simulate_program, MachineModel};
use online::replay::replay_store;
use online::{StoreBuilder, StoreDelta};
use perfdata::Store;
use testkit::allocations;

#[global_allocator]
static GLOBAL: testkit::Counting = testkit::Counting;

#[test]
fn ingest_allocations_are_pinned() {
    let mut store = Store::new();
    let mut models = archetypes::all(7);
    models.push(testkit::generator(3, 12).generate());
    for model in &models {
        simulate_program(
            &mut store,
            model,
            &MachineModel::t3e_900(),
            &[1, 2, 4, 8, 16, 32, 64],
        );
    }
    let events = replay_store(&store);

    let mut builder = StoreBuilder::new();
    let mut delta = StoreDelta::new();
    let (count, (applied, failure)) = allocations(|| builder.apply_batch(&events, &mut delta));
    assert_eq!((applied, failure), (events.len(), None));
    let records = |s: &Store| s.total_timings.len() + s.typed_timings.len() + s.call_timings.len();
    assert_eq!(records(builder.store()), records(&store));
    let records = records(&store);
    println!(
        "ingest: {count} allocations for {} events ({records} measurement records)",
        events.len()
    );
    assert_eq!(count, 1409, "allocations of one ingest pass");
}
