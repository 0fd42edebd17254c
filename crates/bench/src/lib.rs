//! # `kojak-bench` — experiment harness
//!
//! One module per experiment (E1–E8 and E13, indexed in the README's
//! "Quick start"). E1–E7 each reproduce a figure, table or quantitative
//! claim of the paper; E8 checks the incremental-vs-batch claim of the
//! online engine and E13 gates the instrumentation overhead. The `harness`
//! binary prints the paper-style tables. Wall-clock performance of the
//! underlying machinery is measured by the benchmark of record in
//! `benchmark/`, not here.

pub mod data;
pub mod experiments;
pub mod table;

pub use table::Table;
