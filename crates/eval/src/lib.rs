//! # `asl-eval` — ASL evaluation engines
//!
//! Client-side evaluation of ASL performance properties over the
//! performance database — the "fetch the data components and evaluate the
//! expressions in the analysis tool" strategy of §5 of the paper (the
//! alternative, full translation to SQL, lives in `asl-sql`; all engines
//! must agree, which is enforced by cross-backend tests).
//!
//! ## The lower → execute pipeline
//!
//! Evaluation is a three-stage pipeline:
//!
//! ```text
//! ASL source ──parse──▶ AST ──check──▶ CheckedSpec ──compile──▶ CompiledSpec (IR)
//!                                          │                        │
//!                                    Interpreter              CompiledEvaluator
//!                                 (reference oracle)            (production)
//! ```
//!
//! 1. `asl-core` parses and type-checks the specification into a
//!    [`asl_core::CheckedSpec`].
//! 2. [`compile`](crate::compile::compile) lowers every constant, helper
//!    function and property **once** into a flat, slot-indexed IR
//!    ([`CompiledSpec`]): identifiers become register slots / constant-pool
//!    indices / function ids, enum tags and class names become interned
//!    `u32` symbols, and `x IN obj.Set WITH x.Attr == key` filters become
//!    indexed loads the data source can answer in O(matches).
//! 3. [`CompiledEvaluator`] executes the IR against an [`ObjectModel`] —
//!    this is the engine the batch and online analyzers run, a [`Batch`]
//!    (one property, one shared context, many subjects) at a time, each
//!    IR node once per batch over all of its subjects' lanes. On
//!    first bind it computes, beside the IR and never in it, which
//!    subtrees of each property are evaluated once — per batch if they
//!    read only its shared context, per subject and binding if they read
//!    only the subject — and which predicates the data source answers as
//!    a second filter key ([`SetFilter::among`]). Beside the plan, and
//!    just as far from the node pool, it derives on first ask what each
//!    property reads of the store ([`CompiledSpec::property_reads`]) —
//!    what the online engine invalidates by.
//!
//! The tree-walking [`Interpreter`] implements the same semantics directly
//! on the AST and is kept as the **reference oracle**: equivalence tests
//! (`tests/compiled_equiv.rs`) and the cross-backend suites evaluate both
//! engines and require identical outcomes, severities and error kinds.
//! Both engines delegate all value-level operations to the shared
//! [`mod@ops`] module, so their semantics cannot drift.
//!
//! The interpreter and the compiled evaluator are generic over an
//! [`ObjectModel`]: any data source that can answer attribute lookups for
//! the classes of a checked specification. [`CosyData`] implements it for
//! the [`perfdata::Store`], exposing exactly the class and attribute names
//! of the paper's §4.1 data model ([`COSY_DATA_MODEL`]), and serves the
//! compiled engine's indexed loads from the store's run rows.
//!
//! ```
//! use asl_eval::{CosyData, Interpreter, Value, COSY_DATA_MODEL};
//! use asl_core::parse_and_check;
//!
//! let src = format!("{COSY_DATA_MODEL}\n
//!     PROPERTY MeasuredCost(Region r, TestRun t, Region Basis) {{
//!         LET float Cost = Summary(r,t).Ovhd;
//!         IN CONDITION: Cost > 0; CONFIDENCE: 1;
//!         SEVERITY: Cost / Duration(Basis,t);
//!     }}");
//! let spec = parse_and_check(&src).unwrap();
//!
//! let mut store = perfdata::Store::new();
//! let model = apprentice_sim::archetypes::particle_mc(1);
//! let machine = apprentice_sim::MachineModel::t3e_900();
//! let v = apprentice_sim::simulate_program(&mut store, &model, &machine, &[1, 8]);
//! let run = store.versions[v.index()].runs[1];
//! let main = store.main_region(v).unwrap();
//!
//! let data = CosyData::new(&store);
//! let interp = Interpreter::new(&spec, &data).unwrap();
//! let outcome = interp.eval_property("MeasuredCost", &[
//!     Value::region(main), Value::run(run), Value::region(main),
//! ]).unwrap();
//! assert!(outcome.holds);
//! assert!(outcome.severity > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compile;
pub mod cosy_model;
pub mod error;
pub mod interp;
pub mod ops;
pub mod reads;
pub mod value;

pub use compile::{
    cache_counters, compile, fn_memo_counters, node_executions, Batch, CompiledArm,
    CompiledEvaluator, CompiledSpec, ConstIr, FnIr, Ir, NodeRef, Outcome, PlanStats, PropCost,
    PropIr, Scratch, SourceCtx,
};
pub use cosy_model::{filter_memo_counters, native_index, CosyData, COSY_DATA_MODEL};
pub use error::{EvalError, EvalErrorKind};
pub use interp::{Interpreter, ObjectModel, PropertyOutcome, SetFilter};
pub use reads::{Measurements, Owner, PropertyReads, ReadSet, Runs};
pub use value::{ObjRef, Value};
