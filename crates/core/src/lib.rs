//! # `asl-core` — the APART Specification Language
//!
//! This crate implements the specification language described in
//! *Specification Techniques for Automatic Performance Analysis Tools*
//! (Gerndt & Eßer, FZJ-ZAM-IB-9921 / CPC 2000): the **ASL** language used by
//! the KOJAK environment to describe
//!
//! 1. the **performance data model** a tool consumes (Java-like classes with
//!    attributes, single inheritance and `setof` collection types — §4.1 of
//!    the paper), and
//! 2. **performance properties** (§4.2, Figure 1): named, parameterized
//!    specifications with `LET … IN` local definitions and
//!    `CONDITION` / `CONFIDENCE` / `SEVERITY` sections.
//!
//! The crate is a complete language front-end:
//!
//! * [`lexer`] — hand-written tokenizer with precise byte spans,
//! * [`parser`] — recursive-descent parser producing the [`ast`] tree,
//! * [`check`](mod@check) — a nominal type checker resolving classes, enums, functions
//!   and property signatures (see [`types`]),
//! * [`pretty`] — a canonical pretty-printer whose output re-parses to the
//!   same tree (tested by property-based round-trip tests),
//! * [`diag`] / [`span`] — diagnostics with source locations.
//!
//! ## Quick example
//!
//! ```
//! use asl_core::parse_and_check;
//!
//! let src = r#"
//! class TestRun { int NoPe; }
//! class Region  { setof TotalTiming TotTimes; }
//! class TotalTiming { TestRun Run; float Incl; float Excl; float Ovhd; }
//!
//! float Duration(Region r, TestRun t) =
//!     UNIQUE({s IN r.TotTimes WITH s.Run == t}).Incl;
//!
//! PROPERTY MeasuredCost(Region r, TestRun t, Region Basis) {
//!     LET float Cost = UNIQUE({s IN r.TotTimes WITH s.Run == t}).Ovhd;
//!     IN
//!     CONDITION:  Cost > 0;
//!     CONFIDENCE: 1;
//!     SEVERITY:   Cost / Duration(Basis, t);
//! }
//! "#;
//! let spec = parse_and_check(src).expect("valid specification");
//! assert_eq!(spec.properties().len(), 1);
//! assert_eq!(spec.properties()[0].name.name, "MeasuredCost");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod check;
pub mod diag;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod types;

pub use ast::Specification;
pub use check::{check, CheckedSpec};
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use intern::Symbol;
pub use parser::parse;
pub use span::{SourceMap, Span};

/// Parse and type-check an ASL specification in one step.
///
/// Returns the checked specification (AST plus resolved type information) or
/// the full list of diagnostics produced by the front-end.
pub fn parse_and_check(source: &str) -> Result<CheckedSpec, Diagnostics> {
    let spec = parse(source)?;
    check(&spec)
}
