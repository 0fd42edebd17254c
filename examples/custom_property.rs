//! Defining a new performance property in ASL and analyzing with it — the
//! retargetability story of the paper: adapting the tool to a new
//! environment or question means editing specifications, not tool code.
//!
//! The custom property flags regions whose I/O time grows faster than the
//! processor count (filesystem contention); it is ranked in the same
//! report as the standard suite's.
//!
//! ```sh
//! cargo run --release --example custom_property
//! ```

use kojak::apprentice_sim::{archetypes, simulate_program, MachineModel};
use kojak::asl_core::parse_and_check;
use kojak::asl_eval::COSY_DATA_MODEL;
use kojak::cosy::{report, Analyzer, Backend, ProblemThreshold};
use kojak::perfdata::Store;
use std::sync::Arc;

/// The standard suite plus one custom property, loaded from the
/// standalone spec file (the same file CI lints with `cosy_lint`).
fn custom_suite_source() -> String {
    format!(
        "{}\n{}\n{}",
        COSY_DATA_MODEL,
        kojak::cosy::suite::SUITE_PROPERTIES,
        include_str!("specs/io_contention.asl")
    )
}

fn main() {
    let src = custom_suite_source();
    let spec = match parse_and_check(&src) {
        Ok(s) => s,
        Err(d) => {
            eprintln!("specification errors:\n{}", d.render(&src));
            std::process::exit(1);
        }
    };
    println!("suite checked: {} properties\n", spec.properties().len());

    // The I/O-heavy archetype shows the contention.
    let machine = MachineModel::t3e_900();
    let mut store = Store::new();
    let model = archetypes::spectral_io(11);
    let version = simulate_program(&mut store, &model, &machine, &[2, 64]);
    let run64 = store.versions[version.index()].runs[1];

    // Nothing in the tool names `IoContention`: its signature `(Region,
    // TestRun, Region)` is what gets it instantiated over every region.
    let analyzer = Analyzer::with_spec(&store, version, Arc::new(spec)).unwrap_or_else(|e| {
        eprintln!("{}", e.render(&src));
        std::process::exit(1);
    });
    let analysis = analyzer
        .analyze(run64, Backend::Interpreter, ProblemThreshold::default())
        .expect("analysis");
    println!("{}", report::render_text(&analysis));
}
