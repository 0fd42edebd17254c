//! Quickstart: simulate a parallel application, stream it through the
//! engine API, and print the ranked performance properties.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kojak::apprentice_sim::{archetypes, simulate_program, MachineModel};
use kojak::cosy::report;
use kojak::engine::{AnalysisEngine, EngineBuilder};
use kojak::online::replay::{replay_run_key, replay_store};
use kojak::perfdata::Store;

fn main() {
    // 1. A synthetic application (substitute for an instrumented T3E code):
    //    a particle Monte-Carlo code with strong load imbalance.
    let model = archetypes::particle_mc(42);
    let machine = MachineModel::t3e_900();

    // 2. "Apprentice" produces summary data for a PE sweep; the reference
    //    run (fewest PEs) defines optimal speedup.
    let mut store = Store::new();
    let version = simulate_program(&mut store, &model, &machine, &[1, 4, 16, 64]);
    println!(
        "simulated {} regions x {} runs -> {} objects in the performance database\n",
        store.regions.len(),
        store.versions[version.index()].runs.len(),
        store.object_count()
    );

    // 3. One engine API for every analysis shape: the paper's one-shot
    //    COSY workflow is the engine's first flush; add
    //    `.durable(dir)`/`.shards(n)` to scale out — the code below stays
    //    the same.
    let engine = EngineBuilder::new().build().expect("engine");
    engine
        .ingest_batch(&replay_store(&store))
        .expect("ingest the simulated trace stream");
    engine.flush().expect("analysis");

    // 4. The ranked report of the 64-PE run: problems and the bottleneck.
    let run64 = *store.versions[version.index()].runs.last().unwrap();
    let analysis = engine
        .report(replay_run_key(run64))
        .expect("report for the 64-PE run");
    println!("{}", report::render_text(&analysis));
}
