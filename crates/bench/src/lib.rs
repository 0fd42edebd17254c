//! # `kojak-bench` — experiment harness
//!
//! One module per experiment (E1–E13, indexed in the README's "Quick
//! start"). E1–E7 each reproduce a figure, table or quantitative claim of
//! the paper; E8–E13 measure the online engine. The `harness` binary prints
//! the paper-style tables; the criterion benches in `benches/` measure the
//! real wall-clock performance of the underlying machinery.

pub mod data;
pub mod experiments;
pub mod table;

pub use table::Table;
