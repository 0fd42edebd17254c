//! # `apprentice-sim` — synthetic performance-data supply tool
//!
//! The paper's COSY prototype consumes summary data produced by **Cray MPP
//! Apprentice** from instrumented runs on a Cray T3E. Neither the machine
//! nor the tool is available, so this crate substitutes both (the
//! "synthetic Cray MPP Apprentice data supply" of the README's introduction
//! and crate map): it models a parallel application as a tree of regions
//! with workload laws, simulates its execution on a configurable machine model for any
//! processor count, and summarizes the per-process results exactly the way
//! Apprentice does — summed-over-processes exclusive/inclusive/overhead
//! times per region, per-type overhead timings (25 categories), and per-call
//! statistics (min/max/mean/stddev with the extremal PE memorized).
//!
//! The simulation is **deterministic**: all per-PE variation derives from a
//! counter-based hash of `(seed, region, pe)`, so the same inputs always
//! produce the same database, regardless of thread scheduling. Per-PE
//! timelines are computed in parallel with rayon and reduced in index order.
//!
//! ```
//! use apprentice_sim::{archetypes, MachineModel, simulate_program};
//! use perfdata::Store;
//!
//! let model = archetypes::particle_mc(42);
//! let machine = MachineModel::t3e_900();
//! let mut store = Store::new();
//! let version = simulate_program(&mut store, &model, &machine, &[1, 4, 16]);
//! assert_eq!(store.versions[version.index()].runs.len(), 3);
//! assert!(perfdata::validate(&store).is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod archetypes;
pub mod machine;
pub mod noise;
pub mod program;
pub mod simulate;
pub mod summary;

pub use machine::MachineModel;
pub use program::{CallModel, CommProfile, ProgramGenerator, ProgramModel, RegionNode, Workload};
pub use simulate::{simulate_region, simulate_run, RegionSim, RunSim};
pub use summary::{simulate_program, summarize_run};
