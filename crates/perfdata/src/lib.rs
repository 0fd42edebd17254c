//! # `perfdata` — the COSY performance-data model
//!
//! Native Rust representation of the ASL data model from §4.1 of
//! *Specification Techniques for Automatic Performance Analysis Tools*
//! (Gerndt & Eßer): the nine classes COSY stores in its relational database
//! (`Program`, `ProgVersion`, `TestRun`, `Function`, `Region`,
//! `TotalTiming`, `TypedTiming`, `FunctionCall`, `CallTiming`) plus the
//! `TimingType` enumeration of overhead categories ("Apprentice knows 25
//! such types", §4.1).
//!
//! The data lives in a [`Store`]: one typed arena per class, cross-linked by
//! integer ids. This mirrors both the ASL object model (objects navigated
//! via attributes) and the relational schema COSY uses at runtime (rows
//! keyed by synthetic primary keys), so the same store feeds the ASL
//! interpreter (`asl-eval`) and the SQL loader (`asl-sql`).
//!
//! All timings follow Apprentice semantics: **values are summed over all
//! processes** of a test run (§4.2: "all timings in the database are summed
//! up values of all processes"); per-process variation survives only in the
//! [`CallTiming`] statistics (min/max/mean/stddev with the first/last PE
//! memorized).
//!
//! Maps and sets keyed by the store's own ids use [`IdMap`] / [`IdSet`]
//! (a multiply-rotate hasher instead of SipHash; see [`IdHasher`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ids;
pub mod model;
pub mod schema;
pub mod store;
pub mod timing_type;
pub mod validate;

pub use ids::*;
pub use model::*;
pub use schema::{attr_unit, AttrUnit};
pub use store::Store;
pub use timing_type::{OverheadCategory, TimingType};
pub use validate::{validate, Violation};
