//! # `cosy` — the KOJAK Cost Analyzer
//!
//! The analysis tool of §3 of *Specification Techniques for Automatic
//! Performance Analysis Tools*: COSY "analyzes the performance of parallel
//! programs based on performance data of multiple test runs", identifies
//! regions with high parallelization overhead via their speedup, explains
//! the overhead through performance properties, and ranks the properties by
//! severity.
//!
//! * [`suite`] — the standard property suite in ASL source form: the five
//!   properties printed in the paper (`SublinearSpeedup`, `MeasuredCost`,
//!   `UnmeasuredCost`, `SyncCost`, `LoadImbalance`) plus refinement
//!   properties per overhead family (documented extensions);
//! * [`backend`] — the two evaluation strategies of §5: client-side
//!   interpretation (`asl-eval`) and full translation to SQL (`asl-sql`),
//!   selected by the [`Backend`] enum so analyses are backend-agnostic;
//! * [`analyzer`] — instantiation from the checked signatures (a property
//!   declared `(Region | FunctionCall, TestRun, Region)` ranges over the
//!   regions or call sites of the version — any property of the spec, not
//!   only the standard suite's), parallel property evaluation (rayon),
//!   severity ranking, the
//!   user/tool-defined *performance problem* threshold, and the §4
//!   *bottleneck* rule ("a program has a unique bottleneck, which is its
//!   most severe performance property");
//! * [`report`] — the text presentation of the ranked results.
//!
//! ```
//! use cosy::{Analyzer, Backend, ProblemThreshold};
//! use apprentice_sim::{archetypes, simulate_program, MachineModel};
//!
//! let mut store = perfdata::Store::new();
//! let model = archetypes::particle_mc(7);
//! let machine = MachineModel::t3e_900();
//! let version = simulate_program(&mut store, &model, &machine, &[1, 4, 16]);
//! let run = store.versions[version.index()].runs[2];
//!
//! let analyzer = Analyzer::new(&store, version).unwrap();
//! let report = analyzer.analyze(run, Backend::Interpreter, ProblemThreshold::default()).unwrap();
//! assert!(report.bottleneck().is_some());
//! println!("{}", cosy::report::render_text(&report));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyzer;
pub mod backend;
pub mod error;
pub mod report;
pub mod suite;

pub use analyzer::{
    check_signatures, AnalysisReport, Analyzer, ContextDesc, ContextScope, Family, HeldEntry,
    Instance, Instances, Name, ProblemThreshold, RankedEntry,
};
pub use backend::Backend;
pub use error::{AnalysisError, SpecError};
pub use suite::{standard_suite, standard_suite_source, PropertyInfo};
