//! # `kojak-flow` — dataflow analysis over the compiled ASL IR
//!
//! A fixpoint abstract-interpretation engine that runs over the same
//! slot-indexed IR the compiled evaluator executes
//! ([`asl_eval::CompiledSpec`]). It is the only source of the semantic
//! facts `kojak-lint`'s rules report, with three kinds of output:
//!
//! - **Proven verdicts.** Every division/modulo site is triaged into
//!   proven-safe / possible / proven-div-by-zero ([`DivVerdict`]),
//!   using a product domain of intervals (with open bounds, nonzero-ness
//!   and integrality), three-valued booleans, and set-cardinality
//!   bounds seeded from `COUNT`/comprehension structure.
//! - **Unit inference.** A unit/dimension lattice ([`Unit`]) over time,
//!   count and bytes, seeded from the [`perfdata`] attribute schema and
//!   propagated through arithmetic; provable mismatches (adding a time
//!   to a count, comparing a ratio against a time) are reported,
//!   while comparisons against dimensionless thresholds stay quiet.
//! - **Guard implication.** Each condition becomes a conjunction of
//!   interval constraints ([`ConstraintSet`]); arms are re-analyzed
//!   under their guard's facts (one level of `LET` resolution,
//!   engine-faithful short-circuit semantics), which upgrades
//!   unreachable-arm/overlapping-arm reasoning to arbitrary guard
//!   expressions and powers whole-suite property subsumption. A fact
//!   names its expression by an [`ExprKey`]: exact structure, interned
//!   once per analysis, so a guard on `COUNT(r.TotTimes)` in one
//!   property meets the same count in another, and two expressions that
//!   merely print alike never do.
//!
//! The analysis is **conservative by construction**: `Unknown` never
//! justifies a finding, and the soundness property test
//! (`tests/soundness.rs`) checks every proven claim against both the
//! interpreter and the compiled engine on randomized stores.
//!
//! ```
//! use asl_core::parse_and_check;
//! use asl_eval::{compile, COSY_DATA_MODEL};
//!
//! let src = format!("{COSY_DATA_MODEL}\n
//!     PROPERTY SafeRate(Region r, TestRun t) {{
//!         LET int N = COUNT(r.TotTimes);
//!         IN CONDITION: (has_data) N > 0;
//!         CONFIDENCE: 1;
//!         SEVERITY: MAX( (has_data) -> 1.0 / N );
//!     }}");
//! let spec = parse_and_check(&src).unwrap();
//! let comp = compile(&spec);
//! let report = flow::analyze(&spec, &comp);
//!
//! let prop = report.property("SafeRate").unwrap();
//! // The guard `N > 0` proves the division safe.
//! assert_eq!(prop.divisions[0].verdict, flow::DivVerdict::ProvenSafe);
//! assert_eq!(prop.divisions[0].guard.as_deref(), Some("(has_data)"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod absint;
pub mod domain;
mod keys;

pub use absint::{
    analyze, ArmCanon, Atom, CondFlow, ConstraintSet, DeclFlow, DivSite, DivVerdict, FlowReport,
    OperandUnit, PropFlow, UnitMismatch,
};
pub use domain::{cmp_tri, AbsVal, Itv, Tri, Unit};
pub use keys::ExprKey;
